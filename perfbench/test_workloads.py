"""Tests of the benchmark itself: deterministic inputs, the independent
re-check, the tracer's install/restore, and BENCHMARK.json's metric list.

    python3 -m pytest -q perfbench
"""

import importlib
import json
import os
import sys

import numpy as np
import pytest

import calibration
import run
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", sorted(workloads.BUILDERS))
def test_same_seed_same_instances(workload):
    a = workloads.instances_sha256(workloads.instances(workload, 7))
    b = workloads.instances_sha256(workloads.instances(workload, 7))
    assert a == b


@pytest.mark.parametrize("workload", sorted(workloads.BUILDERS))
def test_other_seed_other_instances(workload):
    a = workloads.instances_sha256(workloads.instances(workload, 7))
    b = workloads.instances_sha256(workloads.instances(workload, 8))
    assert a != b


def test_small_mixed_has_room_for_a_p90():
    assert len(workloads.instances("small-mixed", 0)) >= 100


def test_recheck_accepts_planted_and_rejects_perturbed():
    inst = workloads.instances("flat-large", 3)[0]
    ok, res = workloads.recheck(inst, inst.weights, inst.points)
    assert ok and res < 1e-12
    bent = list(inst.weights)
    bent[0] *= 1.001
    assert not workloads.recheck(inst, bent, inst.points)[0]
    # more terms than planted is not a minimal decomposition
    assert not workloads.recheck(inst, inst.weights + (0.0,), inst.points + inst.points[:1])[0]


def test_evaluation_matrix_matches_a_direct_expansion():
    # (1 + 2x)^2 (1 + 3y) in one group of degree 2 and one of degree 1
    monos = workloads.exponent_table((1, 1), (2, 1))
    V = workloads.evaluation_matrix((1, 1), (2, 1), [((2.0,), (3.0,))], monos)
    expected = {((0,), (0,)): 1, ((1,), (0,)): 4, ((2,), (0,)): 4,
                ((0,), (1,)): 3, ((1,), (1,)): 12, ((2,), (1,)): 12}
    assert {m: v for m, v in zip(monos, V[:, 0])} == expected


def test_reference_is_fixed_work_and_scales_inversely():
    ref = calibration.Reference()
    assert ref.work() == ref.work() > 0
    assert calibration.scale([calibration.REFERENCE_MS]) == 1.0
    assert calibration.scale([1.5 * calibration.REFERENCE_MS, 2.5 * calibration.REFERENCE_MS]) == 0.5


@pytest.fixture
def tdec_modules():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        mods = {
            name: importlib.import_module(f"tdec.{name}")
            for name in ("algebra", "decompose", "moment", "extension", "eigen",
                         "files", "cli")
        }
        mods["package"] = importlib.import_module("tdec")
        yield mods
    finally:
        sys.path.remove(os.path.join(ROOT, "src"))


def test_tracer_records_and_restores(tdec_modules):
    dmod = tdec_modules["decompose"]
    algebra = tdec_modules["algebra"]
    before = {
        (name, attr): value
        for name, mod in tdec_modules.items()
        for attr, value in vars(mod).items()
        if callable(value)
    }
    mul = algebra.Monomial.__dict__["__mul__"]
    svd = np.linalg.svd

    inst = workloads.instances("small-mixed", 0)[0]
    monos = workloads.exponent_table(inst.dims, inst.degrees)
    T = algebra.Polynomial(
        algebra.Shape(inst.dims, inst.degrees),
        {algebra.Monomial(m): float(c)
         for m, c in zip(monos, workloads.coefficients(inst, monos))},
    )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        dec = dmod.decompose(T, dmod.DecomposeOptions(seed=0))
    finally:
        tracer.restore()
    layers = tracer.summary(1)
    assert dec.rank == inst.rank
    assert layers["decompose.decompose.calls"] == 1
    assert layers["extension.propagate_commutation.calls"] >= 1
    assert layers["moment.select_bases_candidates.yielded"] >= 1
    assert layers["algebra.Monomial.mul.calls"] > 0
    assert 0 < layers["extension.propagate_commutation.decompose_frac"] < 1

    after = {
        (name, attr): value
        for name, mod in tdec_modules.items()
        for attr, value in vars(mod).items()
        if callable(value)
    }
    assert after == before
    assert algebra.Monomial.__dict__["__mul__"] is mul
    assert np.linalg.svd is svd


def test_benchmark_json_lists_every_layer_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {m["name"] for m in spec["per_layer"]}
    summary = tracing.Tracer().summary(1)
    produced = set(summary) | {
        "trace.instances_per_s",
        "trace.untraced_instances_per_s",
        "trace.overhead_frac",
    }
    assert declared == produced
    assert {w["name"] for w in spec["workloads"]} == set(workloads.BUILDERS)
    assert set(run.WORKLOADS) == set(workloads.BUILDERS)
