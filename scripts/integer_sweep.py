#!/usr/bin/env python3
"""Integer-point sweep: sparse, non-generic inputs and the frame retries.

    PYTHONPATH=src python3 scripts/integer_sweep.py

Each instance has points with coordinates drawn from {-1, 0, 1} by
``np.random.default_rng(seed)`` for seeds 0-39, and unit weights, in five
formats: (2,2)/(2,2) r4, 3x3x4 r4, 4x4x4 r4, (2,2,2)/(1,1,2) r4 and 3x3x3 r3
("3x3x4" gives full sizes, i.e. affine dims (2, 2, 3)).  Each is decomposed
with the default options.  Prints the recovered count per format, the
instances that a change of coordinates rescued (the first frame failed, a
later one succeeded), the number of frames tried over the refusals with
their stop reasons and the stages of their last failures, and the CPU
seconds of the successes and of the refusals.  BLAS is pinned to one
thread, so that the CPU seconds do not depend on how busy the machine is.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402
from collections import Counter  # noqa: E402

import numpy as np  # noqa: E402

from tdec.algebra import Point, Shape  # noqa: E402
from tdec.decompose import (  # noqa: E402
    DecomposeOptions,
    DecompositionError,
    decompose,
    reconstruct,
)

SEEDS = range(40)
FORMATS = [
    ("(2,2)/(2,2) r4", (2, 2), (2, 2), 4),
    ("3x3x4 r4", (2, 2, 3), (1, 1, 1), 4),
    ("4x4x4 r4", (3, 3, 3), (1, 1, 1), 4),
    ("(2,2,2)/(1,1,2) r4", (2, 2, 2), (1, 1, 2), 4),
    ("3x3x3 r3", (2, 2, 2), (1, 1, 1), 3),
]


def instance(dims, degrees, r, seed):
    shape = Shape(dims=dims, degrees=degrees)
    rng = np.random.default_rng(seed)
    pts = [
        Point(tuple(tuple(rng.integers(-1, 2, n).astype(float)) for n in dims))
        for _ in range(r)
    ]
    return reconstruct(shape, [1.0] * r, pts)


def main() -> int:
    recovered = total = 0
    rescued = []
    frames, stops, stages = [], Counter(), Counter()
    cpu = {"recovered": 0.0, "refused": 0.0}
    for name, dims, degrees, r in FORMATS:
        ok = 0
        for seed in SEEDS:
            T = instance(dims, degrees, r, seed)
            start = time.process_time()
            try:
                dec = decompose(T, DecomposeOptions(seed=0))
            except DecompositionError as exc:
                cpu["refused"] += time.process_time() - start
                frames.append(exc.report["frames"])
                stops[exc.report["stop"]] += 1
                stages[exc.report["stage"]] += 1
                continue
            cpu["recovered"] += time.process_time() - start
            ok += 1
            if dec.meta["coordinate_change_applied"]:
                rescued.append(f"{name} seed {seed}")
        print(f"{name:20s} {ok}/{len(SEEDS)} recovered")
        recovered += ok
        total += len(SEEDS)
    print(f"total {recovered}/{total} recovered")
    print(f"rescued by a frame change: {len(rescued)}: {', '.join(rescued)}")
    print(f"frames tried over {len(frames)} refusals: {sum(frames)}")
    for stop, n in stops.most_common():
        print(f"  stopped on {stop}: {n}")
    for stage, n in stages.most_common():
        print(f"  refused at stage {stage}: {n}")
    print(
        f"CPU s: {cpu['recovered']:.1f} on recoveries, "
        f"{cpu['refused']:.1f} on refusals"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
