#!/usr/bin/env python3
"""Generic sweep: seeded random tensors at or near their flattening rank.

    PYTHONPATH=src python3 scripts/generic_sweep.py

Each instance is ``synthesize(dims, degrees, r, seed)`` for seeds 0-9:
real points uniform in [-1, 1] and weights of magnitude in [0.5, 2], with
random signs.  The formats are generic ones at or below their flattening
rank that the linear completion leaves rank deficient, for the parametric
step to finish, then controls that the linear completion decomposes, then
one above its flattening rank (3x3x3 r4).  Each is decomposed with the
default options.

Prints one line per format and rank: the recovered count; the refusals by
stage and detail class (the detail's leading words, as "not unique" or
"inconsistent"); the number of successes with complex terms for the real
input; and, after " | ", the CPU milliseconds of the slowest instance and
its seed.  The last line gives the total CPU seconds.  BLAS is pinned to one
thread, so that the CPU seconds do not depend on how busy the machine is.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import re  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402

from tdec.decompose import (  # noqa: E402
    DecomposeOptions,
    DecompositionError,
    decompose,
)
from tdec.files import synthesize  # noqa: E402

SEEDS = range(10)
# (name, affine dims, degrees, rank)
FORMATS = [
    ("ternary quartic r5", (2,), (4,), 5),
    ("ternary quartic r6", (2,), (4,), 6),
    ("quaternary quartic r8", (3,), (4,), 8),
    ("quaternary quartic r9", (3,), (4,), 9),
    ("4x4x10 r9", (3, 3, 9), (1, 1, 1), 9),
    ("(2,2)/(2,2) r6", (2, 2), (2, 2), 6),
    ("3x3x3x3 r5", (2, 2, 2, 2), (1, 1, 1, 1), 5),
    ("2x2x3 r3", (1, 1, 2), (1, 1, 1), 3),
    ("3x3x3 r3", (2, 2, 2), (1, 1, 1), 3),
    ("ternary quartic r4", (2,), (4,), 4),
    ("quaternary quartic r7", (3,), (4,), 7),
    ("4x4x10 r8", (3, 3, 9), (1, 1, 1), 8),
    ("3x3x3 r4", (2, 2, 2), (1, 1, 1), 4),
]


def detail_class(detail: str) -> str:
    """The leading words of a refusal's detail, without its numbers."""
    return re.match(r"[a-z -]*[a-z]", detail).group()


def is_complex(dec) -> bool:
    return any(
        isinstance(x, complex)
        for w, p in dec.terms
        for x in (w, *(c for coords in p.coords for c in coords))
    )


def main() -> int:
    total_cpu = 0.0
    for name, dims, degrees, r in FORMATS:
        ok = complex_terms = 0
        refusals = Counter()
        slowest = (-1.0, None)
        for seed in SEEDS:
            T = synthesize(dims, degrees, r, seed)[0].tensor
            start = time.process_time()
            try:
                dec = decompose(T, DecomposeOptions(seed=0))
            except DecompositionError as exc:
                report = exc.report
                refusals[f"{report['stage']}/{detail_class(report['detail'])}"] += 1
            else:
                ok += 1
                complex_terms += is_complex(dec)
            cpu = time.process_time() - start
            total_cpu += cpu
            slowest = max(slowest, (cpu, seed))
        refused = ", ".join(f"{k} {n}" for k, n in sorted(refusals.items()))
        print(
            f"{name:22s} {ok}/{len(SEEDS)} recovered; "
            f"refused {refused or 'none'}; complex {complex_terms}"
            f" | slowest {slowest[0] * 1e3:.0f} ms (seed {slowest[1]})"
        )
    print(f"CPU s: {total_cpu:.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
