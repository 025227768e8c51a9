import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tdec
from conftest import count_calls, near_collinear_tensor
from tdec.cli import main
from tdec.files import (
    DecompositionFile,
    FormatError,
    TensorFile,
    dumps,
    load_decomposition,
    load_tensor,
    synthesize,
    write_json,
)

FIXTURES = Path(__file__).parent / "fixtures"


def assert_same_output(got, want, path="$"):
    """Integers, strings and structure exactly; floats to rel 1e-9."""
    if isinstance(want, float):
        assert isinstance(got, float), path
        assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12), (path, got, want)
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), path
        for key in want:
            assert_same_output(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same_output(g, w, f"{path}[{i}]")
    else:
        assert type(got) is type(want) and got == want, (path, got, want)


class TestFileRoundTrip:
    def test_tensor_round_trip_exact(self):
        tf = load_tensor(FIXTURES / "example1.json")
        obj = tf.to_obj()
        again = TensorFile.from_obj(json.loads(dumps(obj)))
        assert again.to_obj() == obj
        assert again.tensor.terms == tf.tensor.terms

    def test_decomposition_round_trip_exact(self):
        df = load_decomposition(FIXTURES / "example2_truth.json")
        obj = df.to_obj()
        again = DecompositionFile.from_obj(json.loads(dumps(obj)))
        assert again.to_obj() == obj

    def test_complex_pairs(self, tmp_path):
        tf, truth = synthesize((2, 2), (1, 1), rank=2, seed=5, fld="complex")
        p = tmp_path / "c.json"
        write_json(p, tf.to_obj())
        again = load_tensor(p)
        assert again.tensor.terms == tf.tensor.terms
        raw = json.loads(p.read_text())
        assert any(isinstance(t["coef"], list) for t in raw["terms"])

    def test_malformed_inputs_rejected(self):
        good = json.loads((FIXTURES / "example1.json").read_text())
        bad_cases = [
            {},
            {**good, "terms": [{"exp": [[1, 0, 0]], "coef": 1}]},
            {**good, "terms": [{"exp": [[2, 0, 0], [0] * 3, [0] * 3], "coef": 1}]},
            {**good, "terms": good["terms"] + [good["terms"][0]]},
            {**good, "field": "rational"},
            # read as dims (1,) before: int() truncated 1.7
            {**self.TINY, "dims": [1.7]},
            {**self.TINY, "dims": 1},
            {**self.TINY, "degrees": [True]},
            {**self.TINY, "terms": [{"exp": [[True]], "coef": 1}]},
            {**self.TINY, "terms": [{"exp": [[1]], "coef": True}]},
            {**self.TINY, "terms": [{"exp": [[1]], "coef": [1, False]}]},
            {**self.TINY, "terms": 3},
            # json reads NaN, Infinity and integers past the float range
            {**self.TINY, "terms": [{"exp": [[1]], "coef": math.nan}]},
            {**self.TINY, "terms": [{"exp": [[1]], "coef": math.inf}]},
            {**self.TINY, "terms": [{"exp": [[1]], "coef": [1.0, -math.inf]}]},
            {**self.TINY, "terms": [{"exp": [[1]], "coef": 10**400}]},
        ]
        for obj in bad_cases:
            with pytest.raises(FormatError):
                TensorFile.from_obj(obj)
        TensorFile.from_obj(self.TINY)

    TINY = {"dims": [1], "degrees": [2], "terms": [{"exp": [[1]], "coef": 1}]}

    GOOD_TERM = {"weight": 2.0, "points": [[1.0, 0.5], [-1.0]]}

    @pytest.mark.parametrize(
        "change,field",
        [
            ({"dims": [1.7, 1]}, "dims"),
            ({"degrees": [1, True]}, "degrees"),
            ({"terms": "none"}, "terms"),
            ({"terms": [1.5]}, "terms"),
            ({"terms": [{"points": GOOD_TERM["points"]}]}, "weight"),
            ({"terms": [{**GOOD_TERM, "weight": True}]}, "weight"),
            ({"terms": [{**GOOD_TERM, "points": [[1.0, False], [-1.0]]}]}, "points"),
            ({"residual": "small"}, "residual"),
            ({"residual": True}, "residual"),
            ({"rank": 1.0}, "rank"),
            ({"meta": [1]}, "meta"),
            ({"terms": [{**GOOD_TERM, "weight": math.nan}]}, "weight"),
            ({"terms": [{**GOOD_TERM, "weight": [2.0, math.inf]}]}, "weight"),
            ({"terms": [{**GOOD_TERM, "points": [[1.0, math.inf], [-1.0]]}]}, "points"),
            ({"terms": [{**GOOD_TERM, "points": [[1.0, 0.5], [math.nan]]}]}, "points"),
            ({"residual": math.inf}, "residual"),
            ({"residual": math.nan}, "residual"),
        ],
        ids=["fractional-dims", "boolean-degree", "terms-not-a-list",
             "term-not-an-object", "no-weight", "boolean-weight",
             "boolean-point", "text-residual", "boolean-residual", "float-rank",
             "meta-not-an-object", "nan-weight", "infinite-weight",
             "infinite-point", "nan-point", "infinite-residual", "nan-residual"],
    )
    def test_malformed_decomposition_rejected(self, change, field):
        good = {"rank": 1, "dims": [2, 1], "degrees": [1, 1],
                "terms": [self.GOOD_TERM], "residual": 0.0}
        DecompositionFile.from_obj(good)
        with pytest.raises(FormatError, match=field):
            DecompositionFile.from_obj({**good, **change})


class TestRoundTripProperty:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(
        dims=st.lists(st.integers(1, 3), min_size=1, max_size=3),
        seed=st.integers(0, 2**16),
        rank=st.integers(1, 3),
    )
    @settings(max_examples=25, deadline=None)
    def test_serialize_parse_identity(self, dims, seed, rank):
        degrees = [1] * len(dims)
        tf, truth = synthesize(dims, degrees, rank=rank, seed=seed)
        tf2 = TensorFile.from_obj(json.loads(dumps(tf.to_obj())))
        assert tf2.to_obj() == tf.to_obj()
        truth2 = DecompositionFile.from_obj(json.loads(dumps(truth.to_obj())))
        assert truth2.to_obj() == truth.to_obj()


class TestSynth:
    def test_deterministic(self, tmp_path):
        a, ta = synthesize((3, 3, 3), (1, 1, 1), rank=4, seed=7)
        b, tb = synthesize((3, 3, 3), (1, 1, 1), rank=4, seed=7)
        assert dumps(a.to_obj()) == dumps(b.to_obj())
        assert dumps(ta.to_obj()) == dumps(tb.to_obj())

    def test_truth_is_exact_without_noise(self):
        tf, truth = synthesize((2, 2, 2), (1, 1, 1), rank=3, seed=1)
        assert truth.decomposition.residual < 1e-12

    def test_noise_perturbs(self):
        tf, truth = synthesize((2, 2, 2), (1, 1, 1), rank=3, seed=1, noise=1e-3)
        assert truth.decomposition.residual > 1e-5

    @pytest.mark.parametrize("noise", [float("nan"), float("inf"), -0.5])
    def test_noise_must_be_finite_and_non_negative(self, noise):
        with pytest.raises(ValueError, match="noise"):
            synthesize((2, 2, 2), (1, 1, 1), rank=3, seed=1, noise=noise)


class TestCli:
    def run(self, *argv):
        return main([str(a) for a in argv])

    @pytest.mark.parametrize("name,seed", [("example1", 0), ("example2", 3)])
    def test_decompose_matches_golden_file(self, tmp_path, name, seed):
        # the golden files were written with two BLAS threads; the thread
        # count alone swaps the example2 terms of weight 3 and -3, so the CLI
        # runs in a process pinned to that count, whatever the core count
        out = tmp_path / "dec.json"
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2")
        env.pop("TDEC_LOG", None)
        src = str(Path(tdec.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        proc = subprocess.run(
            [sys.executable, "-m", "tdec.cli", "decompose",
             "-i", str(FIXTURES / f"{name}.json"), "-o", str(out),
             "--seed", str(seed)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        got = json.loads(out.read_text())
        want = json.loads((FIXTURES / f"{name}.dec.json").read_text())
        assert got["meta"] == want["meta"]
        assert_same_output(got, want)

    def test_decompose_reads_each_split_once(self, tmp_path, monkeypatch):
        # meta.bounds takes the flattening rank that decompose read: one
        # factorization per degree split of example2 (8), not two per split
        moment_module = importlib.import_module("tdec.moment")
        calls = count_calls(monkeypatch, "_block_rank", owner=moment_module)
        out = tmp_path / "dec.json"
        assert self.run(
            "decompose", "-i", FIXTURES / "example2.json", "-o", out, "--seed", 3
        ) == 0
        assert calls == {"_block_rank": 8}
        want = json.loads((FIXTURES / "example2.dec.json").read_text())
        assert json.loads(out.read_text())["meta"]["bounds"] == want["meta"]["bounds"]

    def test_reduced_decompose_bounds_the_input(self, tmp_path):
        # an HOSVD-compressed run reads the bounds of the input, not of the
        # core it decomposed
        tensor, bounds, out = (tmp_path / n for n in ("t.json", "b.json", "d.json"))
        write_json(tensor, synthesize((3, 3, 3), (1, 1, 1), rank=2, seed=4)[0].to_obj())
        assert self.run("bounds", "-i", tensor, "-o", bounds) == 0
        assert self.run("decompose", "-i", tensor, "-o", out, "--reduce") == 0
        meta = json.loads(out.read_text())["meta"]
        assert meta["reduced"]
        assert meta["bounds"] == json.loads(bounds.read_text())

    @pytest.mark.parametrize("name,seed", [("example1", 0), ("example2", 3)])
    def test_decompose_close_to_truth(self, tmp_path, name, seed):
        # unlike the golden files, this holds whatever the order of the
        # floating-point operations: listing the completion equations in
        # reverse order alone moves the example2 output by 5.6e-8 relative
        out = tmp_path / "dec.json"
        assert self.run(
            "decompose", "-i", FIXTURES / f"{name}.json", "-o", out,
            "--seed", seed,
        ) == 0
        got = json.loads(out.read_text())
        truth = json.loads((FIXTURES / f"{name}_truth.json").read_text())
        assert got["residual"] < 1e-9

        def flat(term):
            return np.concatenate(term["points"])

        left = list(truth["terms"])
        for term in got["terms"]:
            p = flat(term)
            near = min(left, key=lambda t: np.abs(flat(t) - p).max())
            left.remove(near)
            q = flat(near)
            assert abs(term["weight"] - near["weight"]) <= 1e-7 * abs(near["weight"])
            assert np.abs(p - q).max() <= 1e-7 * max(1.0, np.abs(q).max())

    def test_decompose_golden(self, tmp_path, capsys):
        out = tmp_path / "dec.json"
        code = self.run(
            "decompose", "-i", FIXTURES / "example1.json", "-o", out, "--seed", "0"
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "rank 4" in text
        obj = json.loads(out.read_text())
        assert obj["rank"] == 4
        assert obj["residual"] < 1e-8
        weights = sorted(t["weight"] for t in obj["terms"])
        np.testing.assert_allclose(weights, [1, 1, 1, 1], atol=1e-8)
        assert obj["meta"]["bounds"]["lower"] == 4
        assert "elapsed_ms" not in obj["meta"]

    def test_decompose_deterministic_output(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert self.run(
                "decompose", "-i", FIXTURES / "example2.json", "-o", out,
                "--seed", "3",
            ) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_zero_tensor_is_input_error(self, tmp_path, capsys):
        p = tmp_path / "zero.json"
        p.write_text(json.dumps(
            {"dims": [2, 2], "degrees": [1, 1], "field": "real", "terms": []}
        ))
        assert self.run("decompose", "-i", p) == 1
        assert "zero tensor" in capsys.readouterr().err

    def test_malformed_json_is_input_error(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text('{"dims": [2, 2],\n  "degrees": [1, 1\n')
        assert self.run("decompose", "-i", p) == 1
        err = capsys.readouterr().err
        assert "broken.json:" in err  # line-anchored

    @pytest.mark.parametrize("command", ["decompose", "bounds"])
    @pytest.mark.parametrize("coef", ["NaN", "Infinity"])
    def test_non_finite_coefficient_is_input_error(
        self, tmp_path, capsys, command, coef
    ):
        # before, NaN failed in the SVD, and Infinity gave "no decomposition"
        # (exit 2) and bounds "lower 0"
        p = tmp_path / "t.json"
        p.write_text(
            '{"dims": [1, 1], "degrees": [1, 1], '
            '"terms": [{"exp": [[1], [1]], "coef": %s}]}' % coef
        )
        assert self.run(command, "-i", p) == 1
        assert "terms[0] 'coef'" in capsys.readouterr().err

    def test_missing_file_is_input_error(self, tmp_path):
        assert self.run("decompose", "-i", tmp_path / "nope.json") == 1

    def test_no_decomposition_exit_two(self, tmp_path):
        tf, _ = synthesize((2, 2, 2), (1, 1, 1), rank=3, seed=2)
        p = tmp_path / "t.json"
        write_json(p, tf.to_obj())
        assert self.run("decompose", "-i", p, "--max-rank", "2") == 2

    def test_block_admitted_below_default_tol_rank_exit_two(self, tmp_path, capsys):
        # once a traceback (exit 1) from re-checking the block at 1e-8
        p = tmp_path / "t.json"
        T = near_collinear_tensor(1)
        write_json(p, TensorFile(T.shape, "real", T).to_obj())
        assert self.run("decompose", "-i", p, "--tol-rank", "1e-12") == 2
        assert "no decomposition found" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1e-6"])
    def test_tol_rank_must_be_finite_and_non_negative(self, capsys, value):
        # nan once read as a rank of 0: "no decomposition at rank 1"
        with pytest.raises(SystemExit) as info:
            self.run("decompose", "-i", FIXTURES / "example1.json",
                     f"--tol-rank={value}")
        assert info.value.code == 2
        assert "--tol-rank: invalid tolerance value" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1e-6"])
    def test_tol_resid_must_be_finite_and_non_negative(self, capsys, value):
        # nan once refused a residual of 5.8e-14
        with pytest.raises(SystemExit) as info:
            self.run("decompose", "-i", FIXTURES / "example1.json",
                     f"--tol-resid={value}")
        assert info.value.code == 2
        assert "--tol-resid: invalid tolerance value" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1e-6"])
    def test_verify_threshold_must_be_finite_and_non_negative(self, capsys, value):
        with pytest.raises(SystemExit) as info:
            self.run("verify", "-i", FIXTURES / "example1.json",
                     "-d", FIXTURES / "example1_truth.json", f"--threshold={value}")
        assert info.value.code == 2
        assert "--threshold: invalid tolerance value" in capsys.readouterr().err

    def test_bounds_golden(self, tmp_path, capsys):
        tf, _ = synthesize((3, 3, 6), (1, 1, 1), rank=7, seed=0)
        p = tmp_path / "t.json"
        write_json(p, tf.to_obj())
        assert self.run("bounds", "-i", p) == 0
        out = capsys.readouterr().out
        assert "expected 9" in out
        assert "kruskal  6" in out

    def test_bounds_rank_one(self, tmp_path, capsys):
        tf, _ = synthesize((2, 2), (1, 1), rank=1, seed=0)
        p = tmp_path / "t.json"
        write_json(p, tf.to_obj())
        assert self.run("bounds", "-i", p) == 0
        assert "lower    1" in capsys.readouterr().out

    def test_verify_golden_exact(self, capsys):
        code = self.run(
            "verify", "-i", FIXTURES / "example2.json",
            "-d", FIXTURES / "example2_truth.json", "--threshold", "1e-12",
        )
        assert code == 0

    def test_verify_shape_mismatch(self, capsys):
        assert self.run(
            "verify", "-i", FIXTURES / "example1.json",
            "-d", FIXTURES / "example2_truth.json",
        ) == 1

    def test_fractional_dims_are_input_errors(self, tmp_path, capsys):
        # int() once read dims [1.7] as 1, and both commands exited 0
        t = tmp_path / "t.json"
        t.write_text(json.dumps({"dims": [1], "degrees": [2], "terms": [
            {"exp": [[0]], "coef": 1}, {"exp": [[1]], "coef": 4},
            {"exp": [[2]], "coef": 4},
        ]}))
        d = tmp_path / "d.json"
        d.write_text(json.dumps({
            "rank": 1, "dims": [1], "degrees": [2], "residual": 0.0,
            "terms": [{"weight": 1.0, "points": [[2.0]]}],
        }))
        assert self.run("verify", "-i", t, "-d", d, "--threshold", "1e-12") == 0
        for path in (t, d):
            path.write_text(path.read_text().replace('"dims": [1]', '"dims": [1.7]'))
        assert self.run("bounds", "-i", t) == 1
        assert "'dims'" in capsys.readouterr().err
        t.write_text(t.read_text().replace("1.7", "1"))
        assert self.run("verify", "-i", t, "-d", d) == 1
        assert "'dims'" in capsys.readouterr().err

    def test_verify_perturbed_exit_three(self, tmp_path):
        obj = json.loads((FIXTURES / "example1_truth.json").read_text())
        obj["terms"][0]["weight"] += 0.1
        p = tmp_path / "perturbed.json"
        p.write_text(json.dumps(obj))
        assert self.run(
            "verify", "-i", FIXTURES / "example1.json", "-d", p,
            "--threshold", "1e-6",
        ) == 3

    def test_synth_round_trip(self, tmp_path):
        t = tmp_path / "s.json"
        assert self.run(
            "synth", "-o", t, "--dims", 3, 3, 5, "--degrees", 1, 1, 1,
            "--rank", 6, "--seed", 11,
        ) == 0
        truth = tmp_path / "s.truth.json"
        assert truth.exists()
        out = tmp_path / "dec.json"
        assert self.run("decompose", "-i", t, "-o", out) == 0
        obj = json.loads(out.read_text())
        assert obj["rank"] == 6 and obj["residual"] < 1e-6
        assert self.run("verify", "-i", t, "-d", out) == 0

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-0.5"])
    def test_synth_noise_must_be_finite_and_non_negative(
        self, tmp_path, capsys, value
    ):
        # nan once wrote "noise": NaN (invalid JSON), inf wrote Infinity
        # coefficients, and a negative value added no noise
        t = tmp_path / "s.json"
        with pytest.raises(SystemExit) as info:
            self.run("synth", "-o", t, "--dims", 2, 2, "--degrees", 1, 1,
                     "--rank", 2, f"--noise={value}")
        assert info.value.code == 2
        assert "--noise: invalid tolerance value" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_synth_deterministic_files(self, tmp_path):
        blobs = []
        for name in ("x.json", "y.json"):
            p = tmp_path / name
            assert self.run(
                "synth", "-o", p, "--dims", 2, 2, "--degrees", 2, 2,
                "--rank", 3, "--seed", 4,
            ) == 0
            blobs.append(p.read_bytes())
        assert blobs[0] == blobs[1]

    def test_timing_flag_records_elapsed(self, tmp_path):
        out = tmp_path / "d.json"
        assert self.run(
            "decompose", "-i", FIXTURES / "example1.json", "-o", out, "--timing"
        ) == 0
        assert "elapsed_ms" in json.loads(out.read_text())["meta"]

    def test_reduce_on_noisy_tensor(self, tmp_path):
        rng = np.random.default_rng(17)
        from conftest import rank_one_expand
        from tdec.algebra import Point, Shape
        from tdec.decompose import array_to_poly, poly_to_array

        shape = Shape(dims=(2, 2, 2), degrees=(1, 1, 1))
        pts = [
            Point(tuple(tuple(rng.uniform(-1, 1, 2)) for _ in range(3)))
            for _ in range(3)
        ]
        T = rank_one_expand(shape, [1.0, -2.0, 0.7], pts)
        Qs = [np.linalg.qr(rng.normal(size=(4, 3)))[0] for _ in range(3)]
        A = np.einsum("abc,ia,jb,kc->ijk", poly_to_array(T), *Qs)
        A += rng.normal(size=A.shape) * 1e-5 * np.abs(A).max()
        p = tmp_path / "noisy.json"
        write_json(p, TensorFile(Shape((3, 3, 3), (1, 1, 1)), "real",
                                 array_to_poly(A)).to_obj())
        out = tmp_path / "dec.json"
        code = self.run(
            "decompose", "-i", p, "-o", out, "--reduce",
            "--tol-rank", "1e-3", "--tol-resid", "1e-3",
        )
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj["meta"]["reduced"]
        assert obj["meta"]["multilinear_rank"] == [3, 3, 3]
        assert obj["rank"] == 3
        assert obj["residual"] < 1e-3

    def test_log_env_traces_rank_loop(self, tmp_path, monkeypatch, capsys):
        import logging

        monkeypatch.setenv("TDEC_LOG", "info")
        logger = logging.getLogger("tdec")
        records = []
        handler = logging.Handler()
        handler.emit = records.append
        logger.addHandler(handler)
        logger.setLevel(logging.INFO)
        try:
            assert self.run("decompose", "-i", FIXTURES / "example1.json") == 0
        finally:
            logger.removeHandler(handler)
        messages = [r.getMessage() for r in records]
        assert any("bases" in m for m in messages)
        assert any("accepted r=4" in m for m in messages)

    def test_reduce_flag(self, tmp_path):
        rng = np.random.default_rng(3)
        from tdec.decompose import array_to_poly, poly_to_array
        from conftest import rank_one_expand
        from tdec.algebra import Shape, Point

        shape = Shape(dims=(2, 2, 2), degrees=(1, 1, 1))
        pts = [
            Point(tuple(tuple(rng.uniform(-1, 1, n)) for n in shape.dims))
            for _ in range(3)
        ]
        T = rank_one_expand(shape, [1.0, -2.0, 0.5], pts)
        Qs = [np.linalg.qr(rng.normal(size=(4, 3)))[0] for _ in range(3)]
        big = np.einsum("abc,ia,jb,kc->ijk", poly_to_array(T), *Qs)
        p = tmp_path / "big.json"
        write_json(p, TensorFile(Shape((3, 3, 3), (1, 1, 1)), "real",
                                 array_to_poly(big)).to_obj())
        out = tmp_path / "dec.json"
        assert self.run("decompose", "-i", p, "-o", out, "--reduce") == 0
        obj = json.loads(out.read_text())
        assert obj["meta"]["reduced"] and obj["rank"] == 3
