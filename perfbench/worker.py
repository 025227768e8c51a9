"""One workload in one process: set-up, then timed passes over its instances.

`run.py` starts this script once per measurement.  It pins BLAS threads and
clears TDEC_LOG before numpy is imported, imports `tdec` from the checkout's
`src/`, builds the workload's inputs, makes one untimed warm-up call and then
times every call by process CPU time (wall time is recorded beside it),
sampling the calibration reference between calls.  Every returned
decomposition is re-checked by `workloads.recheck`.

    python3 perfbench/worker.py --mode run --workload small-mixed --seed 1 \\
        --seconds 30

Modes: `setup` stops after the warm-up call and reports only set-up time;
`run` times untraced passes; `trace` alternates untraced and traced passes
and reports the layer metrics of the traced ones.  The result is one JSON
object on stdout.
"""

from __future__ import annotations

import argparse
import os
import sys


def _pin_environment(blas_threads: str) -> None:
    """Must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if blas_threads == "default":
            os.environ.pop(var, None)
        else:
            os.environ[var] = blas_threads
    os.environ.pop("TDEC_LOG", None)


def _parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--blas-threads", default="1",
                    help="BLAS threads, or 'default' to leave OpenBLAS's own")
    return ap.parse_args(argv)


ARGS = _parse_args() if __name__ == "__main__" else None
if ARGS is not None:
    _pin_environment(ARGS.blas_threads)

import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import calibration  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MAX_REPORTED_FAILURES = 10
SETUP_REF_SAMPLES = 5


def _import_program():
    """Import tdec from the checkout's src/ and nowhere else."""
    src = os.path.realpath(os.path.join(ROOT, "src"))
    if not os.path.isfile(os.path.join(src, "tdec", "__init__.py")):
        raise SystemExit(f"no program sources at {src}/tdec")
    sys.path.insert(0, src)
    # the package attribute `tdec.decompose` is the function, which shadows
    # the submodule, so modules are always reached through import_module
    mods = {
        name: importlib.import_module(f"tdec.{name}")
        for name in ("algebra", "decompose", "cli", "files")
    }
    found = os.path.realpath(mods["algebra"].__file__)
    if not found.startswith(src + os.sep):
        raise SystemExit(f"tdec imported from {found}, not from {src}")
    return mods


def _environment() -> dict:
    """Machine, library versions and the BLAS thread count in effect."""
    env = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": None,
        "openblas": None,
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["openblas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, sym):
                env["blas_threads"] = int(getattr(lib, sym)())
                break
    return env


class PythonCalls:
    """Library workloads: `tdec.decompose.decompose` on in-memory tensors."""

    def __init__(self, mods, insts):
        algebra = mods["algebra"]
        self.dmod = mods["decompose"]
        self.tensors = []
        for inst in insts:
            monos = workloads.exponent_table(inst.dims, inst.degrees)
            coefs = workloads.coefficients(inst, monos)
            shape = algebra.Shape(inst.dims, inst.degrees)
            self.tensors.append(
                algebra.Polynomial(
                    shape,
                    {algebra.Monomial(m): float(c) for m, c in zip(monos, coefs)},
                )
            )

    @contextlib.contextmanager
    def pass_context(self):
        yield

    def call(self, i):
        dmod = self.dmod  # looked up per call so that traced wrappers apply
        try:
            return ("ok", dmod.decompose(self.tensors[i], dmod.DecomposeOptions(seed=0)))
        except dmod.DecompositionError:
            return ("refused", None)

    def judge(self, inst, raw):
        """(outcome, fingerprint, residual) of one call's raw result."""
        status, dec = raw
        if status == "refused":
            return "refused", ("refused",), None
        weights = [w for w, _ in dec.terms]
        points = [p.coords for _, p in dec.terms]
        ok, res = workloads.recheck(inst, weights, points)
        return ("recovered" if ok else "failed"), ("ok", dec.rank), res

    def close(self):
        pass


class CliCalls:
    """`tdec.cli.main` in process: `decompose --reduce`, then `verify`, on
    tensor files written during set-up."""

    def __init__(self, mods, insts, workdir):
        self.cli = mods["cli"]
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.paths = []
        for i, inst in enumerate(insts):
            path = os.path.join(workdir, f"t{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(workloads.tensor_file_obj(inst), fh)
            self.paths.append(path)

    @contextlib.contextmanager
    def pass_context(self):
        # the CLI's summaries and diagnostics stay out of the result stream
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            yield

    def call(self, i):
        inp = self.paths[i]
        out = inp + ".dec.json"
        rc = self.cli.main(["decompose", "-i", inp, "-o", out, "--reduce"])
        rc_verify = self.cli.main(["verify", "-i", inp, "-d", out]) if rc == 0 else None
        return rc, rc_verify, out

    def judge(self, inst, raw):
        rc, rc_verify, out = raw
        if rc == 2:
            return "refused", ("refused", rc), None
        if rc != 0 or rc_verify != 0:
            return "failed", ("exit", rc, rc_verify), None
        with open(out, "rb") as fh:
            blob = fh.read()
        weights, points = workloads.decomposition_terms(json.loads(blob))
        ok, res = workloads.recheck(inst, weights, points)
        digest = hashlib.sha256(blob).hexdigest()
        return ("recovered" if ok else "failed"), ("ok", len(weights), digest), res

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def _make_calls(mods, insts, args):
    # flat-large goes through the CLI: its calls are long enough that the
    # files, bounds and verify work around `decompose` stays a small share
    if args.workload == "flat-large":
        workdir = os.path.join(ROOT, ".bench_work", f"{args.mode}-{os.getpid()}")
        return CliCalls(mods, insts, workdir)
    return PythonCalls(mods, insts)


def _one_pass(calls, insts, records, reference=None, tracer=None) -> dict:
    """Time every instance once.  With a reference, sample it between calls
    (at least once per pass) and scale each call's CPU time by the samples
    taken within calibration.WINDOW_S of the call."""
    cpu_total = wall_total = 0.0
    samples: list[tuple[float, float]] = []  # (wall time taken, ms)
    spans: list[tuple[float, float]] = []  # wall start and end of each call
    with calls.pass_context():
        for i, inst in enumerate(insts):
            if tracer is not None:
                tracer.instance = i
            w0 = time.perf_counter()
            c0 = time.process_time()
            try:
                raw = calls.call(i)
                error = None
            except Exception as exc:  # any other exception is a failed call
                raw, error = None, f"{type(exc).__name__}: {exc}"
            c1 = time.process_time()
            w1 = time.perf_counter()
            cpu_total += c1 - c0
            wall_total += w1 - w0
            spans.append((w0, w1))
            rec = records[i]
            rec["cpu_ms"].append(1000.0 * (c1 - c0))
            rec["wall_ms"].append(1000.0 * (w1 - w0))
            if error is None:
                outcome, fingerprint, residual = calls.judge(inst, raw)
            else:
                outcome, fingerprint, residual = "failed", ("error", error), None
            rec["outcomes"].append(outcome)
            rec["fingerprints"].append(fingerprint)
            rec["residual"] = residual
            if reference is not None and (
                not samples
                or time.perf_counter() - samples[-1][0] >= calibration.INTERVAL_S
            ):
                samples.append((time.perf_counter(), reference.sample_ms()))
    if samples:
        for rec, (w0, w1) in zip(records, spans):
            near = [
                ms for t, ms in samples
                if w0 - calibration.WINDOW_S <= t <= w1 + calibration.WINDOW_S
            ]
            if not near:  # the closest sample
                near = [min(samples, key=lambda s: abs(s[0] - w1))[1]]
            rec["scaled_ms"].append(rec["cpu_ms"][-1] * calibration.scale(near))
    return {"cpu_s": cpu_total, "wall_s": wall_total, "reference_ms": [ms for _, ms in samples]}


def main(args) -> int:
    mods = _import_program()
    insts = workloads.instances(args.workload, args.seed)
    calls = _make_calls(mods, insts, args)
    try:
        with calls.pass_context():
            calls.call(0)  # untimed warm-up
        setup_s = time.process_time()
        reference = calibration.Reference()
        setup_ref_ms = [reference.sample_ms() for _ in range(SETUP_REF_SAMPLES)]
        result = {
            "mode": args.mode,
            "setup_s": setup_s,
            "setup_scale": calibration.scale(setup_ref_ms),
        }
        if args.mode == "setup":
            print(json.dumps(result))
            return 0
        result.update(_measure(calls, insts, reference, args))
    finally:
        calls.close()
    result["inputs_sha256"] = workloads.instances_sha256(insts)
    result["environment"] = _environment()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


def _measure(calls, insts, reference, args) -> dict:
    records = [
        {"name": inst.name, "cpu_ms": [], "scaled_ms": [], "wall_ms": [],
         "outcomes": [], "fingerprints": []}
        for inst in insts
    ]
    tracer = None
    if args.mode == "trace":
        import tracing

        tracer = tracing.Tracer()
    passes = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
            try:
                one = _one_pass(calls, insts, records, tracer=tracer)
            finally:
                tracer.restore()
        elif tracer is not None:
            # untraced passes of a traced run stay comparable to traced ones
            one = _one_pass(calls, insts, records)
        else:
            one = _one_pass(calls, insts, records, reference)
        passes.append(dict(one, traced=traced))
        enough = len(passes) >= (2 if tracer is not None else 1)
        # whole passes only, ending near --seconds
        elapsed = time.perf_counter() - start
        if enough and elapsed + one["wall_s"] / 2 >= args.seconds:
            break

    failures = []
    attempted = failed = 0
    for rec in records:
        attempted += len(rec["outcomes"])
        first = rec["fingerprints"][0]
        for outcome, fingerprint in zip(rec["outcomes"], rec["fingerprints"]):
            # the same input must give the same result in every pass, traced
            # or not (ranks, refusals, CLI output hashes)
            if outcome == "failed" or fingerprint != first:
                failed += 1
                failures.append(f"{rec['name']}: {fingerprint} (first pass {first})")
        rec["outcome"] = rec["outcomes"][0]
        rec["fingerprint"] = rec["fingerprints"][0]
        del rec["outcomes"], rec["fingerprints"]
    out = {
        "instances": records,
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:MAX_REPORTED_FAILURES],
    }
    if tracer is not None:
        out["layers"] = tracer.summary(sum(p["traced"] for p in passes))
        out["spans_file"] = os.path.join(
            ROOT, ".bench_build", "trace",
            f"{args.workload}-seed{args.seed}.jsonl",
        )
        tracer.dump(out["spans_file"])
    return out


if __name__ == "__main__":
    sys.exit(main(ARGS))
