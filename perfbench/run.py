#!/usr/bin/env python3
"""CPU-time benchmark of the tdec decomposition pipeline.

    python3 perfbench/run.py --workload small-mixed --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each measurement is a fresh single-threaded
process (`worker.py`) with BLAS pinned to one thread, and every call is timed
by process CPU time, which with one thread is the call's uncontended wall
time.  Wall time is recorded beside it but not gated.

Times are reported at reference speed: between calls the worker runs a fixed
reference computation (`calibration.py`) and scales each call's CPU time by
REFERENCE_MS over the reference's time next to it, which cancels the host's
swings in speed.  The raw CPU figures are printed with the details.

`--trace 0` prints the end-to-end metrics of an untraced run.  Set-up time is
taken in that run and in SETUP_SAMPLES extra processes that stop after
set-up, and the median is reported.  `--trace 1` prints the per-layer
metrics (raw CPU time, per pass) of a run whose traced passes alternate with
untraced ones, checks that both give the same results, and writes the spans
to .bench_build/trace/.

The last line of stdout is the result object; the line before it holds
details: environment, raw CPU figures, sample counts, workload-specific
statistics (instance_ms_p90 on small-mixed, refusal_ms_p50 on hard-inputs)
and every instance's result (rank, refusal or CLI output hash).  Metric
names and units are declared in BENCHMARK.json next to this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 4
BUDGET_S = 170  # every worker of one invocation ends within this
WORKLOADS = ("flat-large", "small-mixed", "hard-inputs")


def _units() -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def _worker(mode: str, args, deadline: float) -> dict:
    """Run one worker process to completion and return its JSON result."""
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    # bytecode of the program and its libraries is cached inside the
    # checkout, so set-up does not depend on caches elsewhere
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = os.path.join(ROOT, ".bench_build", "pycache")
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--mode", mode, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--blas-threads", args.blas_threads,
    ]
    proc = subprocess.run(
        cmd, env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {mode} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _rate(passes, n: int) -> float:
    """Instances finished per CPU second over the given passes."""
    return n * len(passes) / sum(p["cpu_s"] for p in passes)


def _timings(insts, passes: int, times: str, setup: list[float]) -> dict:
    """Timing metrics from each instance's `times` list ("scaled_ms" or
    "cpu_ms").

    An instance's time is its mean over passes, not the median: the host's
    speed switches between a fast and a slow state for seconds at a time,
    and a median over passes jumps between the two while a mean moves with
    the share of time spent in each."""
    per_instance = [statistics.fmean(r[times]) for r in insts]
    by_format: dict[str, list[float]] = {}
    for ms, r in zip(per_instance, insts):
        by_format.setdefault(r["name"].split("#")[0], []).append(ms)
    # the costliest format, averaged over its instances when it has several
    largest = max(by_format, key=lambda f: statistics.fmean(by_format[f]))
    refused = [m for m, r in zip(per_instance, insts) if r["outcome"] == "refused"]
    return {
        "setup_s": statistics.median(setup),
        "instances_per_s": 1000.0 * len(insts) * passes / sum(
            sum(r[times]) for r in insts
        ),
        "instance_ms_p50": statistics.median(per_instance),
        "largest_ms_mean": statistics.fmean(by_format[largest]),
        # a p90 needs ten instances beyond it, i.e. at least 100 instances
        "instance_ms_p90": (
            statistics.quantiles(per_instance, n=10, method="inclusive")[8]
            if len(insts) >= 100
            else None
        ),
        "refusal_ms_p50": statistics.median(refused) if refused else None,
        "largest_format": largest,
    }


def end_to_end(res: dict, setup: list[dict]) -> tuple[dict, dict]:
    """Gated metrics (reference-speed times) and ungated details (raw CPU
    times and more) of one untraced run and its set-up samples."""
    insts = res["instances"]
    n = len(insts)
    passes = len(res["passes"])
    scaled = _timings(
        insts, passes, "scaled_ms", [s["setup_s"] * s["setup_scale"] for s in setup]
    )
    metrics = {
        name: scaled.pop(name)
        for name in ("setup_s", "instances_per_s", "instance_ms_p50", "largest_ms_mean")
    }
    metrics["recovered_frac"] = sum(r["outcome"] == "recovered" for r in insts) / n
    metrics["peak_rss_mb"] = res["peak_rss_mb"]
    details = {
        "instances": n,
        "passes": passes,
        "refused": sum(r["outcome"] == "refused" for r in insts),
        "max_recheck_residual": max(
            (r["residual"] for r in insts if r["outcome"] == "recovered"),
            default=None,
        ),
        "scaled": scaled,
        "raw_cpu": _timings(insts, passes, "cpu_ms", [s["setup_s"] for s in setup]),
        "reference_ms": [p["reference_ms"] for p in res["passes"]],
        "setup_scales": [s["setup_scale"] for s in setup],
        "wall_instance_ms_p50": statistics.median(
            statistics.fmean(r["wall_ms"]) for r in insts
        ),
    }
    return metrics, details


def per_layer(res: dict) -> dict:
    n = len(res["instances"])
    traced = _rate([p for p in res["passes"] if p["traced"]], n)
    plain = _rate([p for p in res["passes"] if not p["traced"]], n)
    metrics = dict(res["layers"])
    metrics["trace.instances_per_s"] = traced
    metrics["trace.untraced_instances_per_s"] = plain
    metrics["trace.overhead_frac"] = plain / traced - 1.0
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--blas-threads", default="1",
                    help="'default' leaves OpenBLAS's own thread count "
                    "(for an ungated comparison run)")
    args = ap.parse_args(argv)
    units = _units()
    deadline = time.monotonic() + BUDGET_S

    if args.trace:
        res = _worker("trace", args, deadline)
        metrics = per_layer(res)
        details = {"passes": len(res["passes"]), "spans_file": res["spans_file"]}
    else:
        runs = [_worker("setup", args, deadline) for _ in range(SETUP_SAMPLES)]
        res = _worker("run", args, deadline)
        runs.append(res)
        metrics, details = end_to_end(res, runs)
    details.update(
        workload=args.workload,
        seed=args.seed,
        inputs_sha256=res["inputs_sha256"],
        environment=res["environment"],
        failures=res["failures"],
        results={r["name"]: r["fingerprint"] for r in res["instances"]},
    )
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
