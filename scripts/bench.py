#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, summarised in one JSON file.

    python3 scripts/bench.py --parent REV_OR_PATH --change . --name 12 \\
        --workload flat-large small-mixed hard-inputs --pairs 5 --seed 31 --seconds 15

Runs `perfbench/run.py --trace 0` (the end-to-end metrics) of the parent and
of the change checkout, each from its own root, --pairs times per workload.
--parent is a directory, or else a git revision of the change checkout's
repository (such as HEAD~1), which is exported with `git archive` to a
temporary directory, run there and removed afterwards; `revisions` then
records its short hash.
The side that runs first alternates from pair to pair, so that a drift in
the host's speed falls on both sides alike.  Writes `BENCH_<name>.json` at
the root of the change checkout (or at --out) with, per workload and metric,
every value of both sides, their median and quartiles, the median of the
per-pair ratios change / parent, and the number of pairs in which the change
was better; beside them `nproc`, the BLAS thread count and the library
versions that the runs report, and the failed-operation counts.  Then prints
one line per workload and metric: parent median -> change median, the median
ratio and the pairs won.  A run that fails stops the script with its side,
workload, pair and the tail of its stderr.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

WORKLOADS = ("flat-large", "small-mixed", "hard-inputs")
STDERR_TAIL = 20  # lines of a failed run's stderr shown


def run_once(root: str, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """The result object and the details of one `perfbench/run.py` run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=True,
    )
    details, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(result), json.loads(details)["details"]


def summary(values: list[float]) -> dict:
    q1, median, q3 = (
        statistics.quantiles(values, n=4, method="inclusive")
        if len(values) > 1
        else values * 3
    )
    return {"values": values, "median": median, "q1": q1, "q3": q3}


def revision(root: str) -> str:
    proc = subprocess.run(
        ["git", "describe", "--always", "--dirty"],
        cwd=root, capture_output=True, text=True,
    )
    return proc.stdout.strip() or "unknown"


def export(repo: str, rev: str) -> tuple[str, str]:
    """A temporary directory holding the tree of ``rev`` in the git
    repository at ``repo``, and the revision's short hash."""
    short = subprocess.run(
        ["git", "rev-parse", "--short", "--verify", f"{rev}^{{commit}}"],
        cwd=repo, capture_output=True, text=True, check=True,
    ).stdout.strip()
    tree = subprocess.run(
        ["git", "archive", "--format=tar", short],
        cwd=repo, capture_output=True, check=True,
    ).stdout
    root = tempfile.mkdtemp(prefix=f"bench-parent-{short}-")
    with tarfile.open(fileobj=io.BytesIO(tree)) as tar:
        tar.extractall(root, filter="data")
    return root, short


def compare(runs: dict, better: dict) -> dict:
    """Per metric, both sides' summaries and the paired comparison."""
    out = {}
    for name, spec in runs["parent"][0]["metrics"].items():
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        sign = 1.0 if better.get(name, "lower") == "higher" else -1.0
        out[name] = {
            "unit": spec["unit"],
            "better": better.get(name),
            "parent": summary(parent),
            "change": summary(change),
            "ratio_median": statistics.median(
                c / p if p else float("nan") for p, c in zip(parent, change)
            ),
            "change_better_pairs": sum(
                sign * (c - p) > 0 for p, c in zip(parent, change)
            ),
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--parent", required=True,
        help="root of the parent checkout, or a git revision of the change's",
    )
    ap.add_argument("--change", default=".", help="root of the changed checkout")
    ap.add_argument("--name", required=True, help="writes BENCH_<name>.json")
    ap.add_argument("--workload", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--seed", type=int, default=31)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--out", help="output path (default: in the change checkout)")
    args = ap.parse_args(argv)
    change = os.path.abspath(args.change)
    if os.path.isdir(args.parent):
        return measure(args, os.path.abspath(args.parent), change, None)
    try:
        parent, short = export(change, args.parent)
    except subprocess.CalledProcessError:
        print(
            f"--parent {args.parent}: neither a directory nor a git revision "
            f"of {change}",
            file=sys.stderr,
        )
        return 1
    try:
        return measure(args, parent, change, short)
    finally:
        shutil.rmtree(parent)


def measure(args, parent: str, change: str, parent_revision: str | None) -> int:
    """The paired runs and the report; ``parent_revision`` names an exported
    parent, whose directory has no git metadata."""
    roots = {"parent": parent, "change": change}
    with open(os.path.join(roots["change"], "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    environment = {}
    workloads = {}
    for workload in args.workload:
        runs = {"parent": [], "change": []}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                try:
                    result, details = run_once(
                        roots[side], workload, args.seed, args.seconds
                    )
                except subprocess.CalledProcessError as exc:
                    tail = "\n".join(exc.stderr.splitlines()[-STDERR_TAIL:])
                    print(
                        f"{side} run failed (exit {exc.returncode}): workload "
                        f"{workload}, pair {pair + 1}/{args.pairs}, in "
                        f"{roots[side]}\n{tail}",
                        file=sys.stderr,
                    )
                    return 1
                runs[side].append(result)
                environment.setdefault(side, details["environment"])
                print(
                    f"{workload} pair {pair + 1}/{args.pairs} {side}: "
                    + " ".join(
                        f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                    ),
                    file=sys.stderr,
                )
        workloads[workload] = {
            "metrics": compare(runs, better),
            "failed": {side: [r["failed"] for r in runs[side]] for side in runs},
            "attempted": {side: [r["attempted"] for r in runs[side]] for side in runs},
        }

    report = {
        "command": "perfbench/run.py --trace 0",
        "seed": args.seed,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "revisions": {
            "parent": parent_revision or revision(parent),
            "change": revision(change),
        },
        "nproc": os.cpu_count(),
        "blas_threads": {side: env.get("blas_threads") for side, env in environment.items()},
        "environment": environment,
        "workloads": workloads,
    }
    out = args.out or os.path.join(roots["change"], f"BENCH_{args.name}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(f"wrote {out}", file=sys.stderr)
    for workload, entry in workloads.items():
        for name, m in entry["metrics"].items():
            print(
                f"{workload} {name}: {m['parent']['median']:.4g} -> "
                f"{m['change']['median']:.4g}, ratio {m['ratio_median']:.4f}, "
                f"change better in {m['change_better_pairs']}/{args.pairs} pairs"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
