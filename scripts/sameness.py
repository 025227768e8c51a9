#!/usr/bin/env python3
"""Digests of every benchmark result, to show that two checkouts compute the
same numbers bit for bit, or at least make the same decisions.

    python3 scripts/sameness.py [--workload NAME ...] [--seed N ...]
    python3 scripts/sameness.py --check FILE

Builds the inputs of each benchmark workload with `perfbench/workloads.py`
(imported read-only), runs them through the `tdec` of this checkout's
`src/` and prints one line per workload and seed (seeds 1, 2 and 31 by
default): the workload, the seed, the bit digest and the outcome digest,
and on flat-large lines the CLI digest.

The bit digest is the sha256 of the `repr` of every result in order.  A
result is the returned decomposition (terms, residual, meta, frame change)
or the refusal's message and report.  The outcome digest hashes, with no
floats, the rank, the basis, the dual basis and whether the frame was
changed for a success, and the stage, the frames tried and the reason the
retries stopped for a refusal: it stays equal when only rounding moves.

flat-large runs the CLI's library path: the tensor file object is read by
`TensorFile.from_obj`, as `decompose -i` reads it, then `decompose` with
`reduce=True` and `rank_bounds` of the full tensor, which takes the
flattening rank that `decompose` reports unless it decomposed an
HOSVD-compressed core; the other two build the tensor from a coefficient
dict and run plain `decompose`, as the benchmark does.

The CLI digest hashes what the CLI itself gives on flat-large, run in
process as `perfbench/worker.py`'s `CliCalls` runs it: each tensor file is
written to a temporary directory, then `main` runs `decompose --reduce -o`
and, after a success, `verify`.  It hashes each call's exit code, the bytes
of each `-o` file and the stdout and stderr captured over the whole run,
with the temporary directory's path replaced by a fixed name.  BLAS is
pinned to one thread, as in the benchmark, because the thread count moves
the last bits of some results.  Run the same command in two checkouts and
compare the lines.

--check FILE re-runs the workloads and seeds of the lines of FILE, a saved
output of this script, and prints the lines anew; for each digest that
differs from the saved one it adds a line naming the workload, the seed and
the digest kind (bit, outcome or cli), and it then exits with status 1.
"""

from __future__ import annotations

import argparse
import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("TDEC_LOG", None)

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402

algebra = importlib.import_module("tdec.algebra")
cli = importlib.import_module("tdec.cli")
dmod = importlib.import_module("tdec.decompose")
files = importlib.import_module("tdec.files")


def tensor(inst, workload: str) -> "algebra.Polynomial":
    if workload == "flat-large":  # the benchmark runs these through the CLI
        return files.TensorFile.from_obj(workloads.tensor_file_obj(inst)).tensor
    monos = workloads.exponent_table(inst.dims, inst.degrees)
    coefs = workloads.coefficients(inst, monos)
    shape = algebra.Shape(inst.dims, inst.degrees)
    return algebra.Polynomial(
        shape, {algebra.Monomial(m): float(c) for m, c in zip(monos, coefs)}
    )


def result(T, reduce: bool) -> tuple[str, str]:
    """The full result and the outcome of one instance, as text."""
    parts = []
    try:
        dec = dmod.decompose(T, dmod.DecomposeOptions(seed=0, reduce=reduce))
        parts.append(repr(dec))
        if reduce:
            parts.append(repr(dmod.rank_bounds(T, lower=dec.meta.get("lower_bound"))))
        meta = dec.meta
        outcome = (dec.rank, meta["basis"], meta["dual_basis"],
                   meta["coordinate_change_applied"])
    except dmod.DecompositionError as exc:
        parts.append(repr((str(exc), exc.report)))
        report = exc.report
        outcome = (report.get("stage"), report.get("frames"), report.get("stop"))
    return "\n".join(parts), repr(outcome)


def digests(workload: str, seed: int) -> tuple[str, str]:
    bits, outcomes = hashlib.sha256(), hashlib.sha256()
    for inst in workloads.instances(workload, seed):
        full, outcome = result(tensor(inst, workload), workload == "flat-large")
        bits.update(full.encode() + b"\n")
        outcomes.update(outcome.encode() + b"\n")
    return bits.hexdigest(), outcomes.hexdigest()


def cli_digest(seed: int) -> str:
    """sha256 of the exit codes, `-o` bytes and captured output of the CLI
    over the flat-large instances of ``seed``."""
    digest, sink = hashlib.sha256(), io.StringIO()
    with tempfile.TemporaryDirectory() as workdir:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for i, inst in enumerate(workloads.instances("flat-large", seed)):
                inp = os.path.join(workdir, f"t{i}.json")
                with open(inp, "w", encoding="utf-8") as fh:
                    json.dump(workloads.tensor_file_obj(inst), fh)
                out = inp + ".dec.json"
                rc = cli.main(["decompose", "-i", inp, "-o", out, "--reduce"])
                rc_verify = None
                if rc == 0:
                    rc_verify = cli.main(["verify", "-i", inp, "-d", out])
                digest.update(repr((rc, rc_verify)).encode() + b"\n")
                if os.path.exists(out):
                    with open(out, "rb") as fh:
                        digest.update(fh.read())
        digest.update(sink.getvalue().replace(workdir, "<dir>").encode())
    return digest.hexdigest()


KINDS = ("bit", "outcome", "cli")


def line(workload: str, seed: int) -> list[str]:
    """The fields of the output line of one workload and seed."""
    extra = [cli_digest(seed)] if workload == "flat-large" else []
    return [workload, str(seed), *digests(workload, seed), *extra]


def saved_lines(ap: argparse.ArgumentParser, path: str) -> list[list[str]]:
    """The fields of each line of a saved output; an argument error for a
    line that this script does not print."""
    with open(path, encoding="utf-8") as fh:
        lines = [text.split() for text in fh if text.strip()]
    for fields in lines:
        if not (len(fields) == (5 if fields[0] == "flat-large" else 4)
                and fields[0] in workloads.BUILDERS and fields[1].isdigit()):
            ap.error(f"{path}: not a line of this script: {' '.join(fields)}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", nargs="+", default=list(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, nargs="+", default=[1, 2, 31])
    ap.add_argument("--check", metavar="FILE",
                    help="re-run the lines of a saved output; exit 1 on a difference")
    args = ap.parse_args(argv)
    if args.check:
        runs = saved_lines(ap, args.check)
    else:
        runs = [[w, str(s)] for w in args.workload for s in args.seed]
    # arrays (frame changes) print every digit, like the floats around them
    np.set_printoptions(precision=17, floatmode="unique", threshold=sys.maxsize)
    differ = False
    for saved in runs:
        fields = line(saved[0], int(saved[1]))
        print(*fields, flush=True)
        for kind, old, new in zip(KINDS, saved[2:], fields[2:]):
            if old != new:
                differ = True
                print(f"differs: {saved[0]} {saved[1]} {kind} digest, "
                      f"saved {old}, now {new}", flush=True)
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
