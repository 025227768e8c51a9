import contextlib
import copy
import importlib
import importlib.util
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

import tdec
from conftest import (
    assert_same_output,
    count_calls,
    count_split_factorizations,
    near_collinear_tensor,
    term_at_infinity_tensor,
)
from tdec.algebra import Monomial, Shape
from tdec.cli import build_parser, main
from tdec.files import (
    DecompositionFile,
    FormatError,
    TensorFile,
    _are_exponents,
    _fields,
    _file_fields,
    _num_in,
    _read_terms,
    dumps,
    load_decomposition,
    load_tensor,
    synthesize,
    write_json,
)

FIXTURES = Path(__file__).parent / "fixtures"


def load_script(name):
    """A script of scripts/ loaded as a module."""
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


make_fixtures = load_script("make_fixtures")


def from_obj_reference(obj) -> TensorFile:
    """The per-term reader that the bulk pass of TensorFile.from_obj
    replaced: the reference for its vectors and its messages."""
    shape, terms = _file_fields(obj, "tensor")
    for i, t in enumerate(terms):
        _fields(t, f"terms[{i}]", ("exp", "coef"))
    fld = obj.get("field", "real")
    if fld not in ("real", "complex"):
        raise FormatError(f"unknown field {fld!r}")
    k, groups = shape.k, list(enumerate(zip(shape.dims, shape.degrees)))
    flat, coefs, cplx = [], [], False
    for i, t in enumerate(terms):
        exp = t["exp"]
        if not (isinstance(exp, list) and len(exp) == k):
            raise FormatError(
                f"terms[{i}]: 'exp' must list one exponent vector per group"
            )
        for (g, (n, d)), e in zip(groups, exp):
            if not _are_exponents(e, n):
                raise FormatError(
                    f"terms[{i}]: group {g} exponents must be {n} "
                    "non-negative integers"
                )
            if sum(e) > d:
                raise FormatError(f"terms[{i}]: group {g} degree exceeds {d}")
            flat += e
        c = _num_in(t["coef"], i, "coef")
        if isinstance(c, complex):
            if fld == "real":
                raise FormatError(f"terms[{i}]: complex coefficient in a real file")
            cplx = cplx or c != 0
        coefs.append(c)
    exps = np.array(flat, dtype=np.int64).reshape(len(terms), sum(shape.dims))
    codes = shape.codes(exps)
    _, first = np.unique(codes, return_index=True)
    if len(first) < len(terms):
        repeated = np.ones(len(terms), dtype=bool)
        repeated[first] = False
        i = int(np.flatnonzero(repeated)[0])
        raise FormatError(f"terms[{i}]: duplicate exponent {terms[i]['exp']}")
    values = np.array(coefs)
    vec = np.zeros(len(shape.table.exps), dtype=complex if cplx else float)
    vec[shape.table.rows(codes)] = values if cplx else values.real
    return TensorFile(fld, tdec.Polynomial.from_vector(shape, vec))


def read_outcome(reader, obj):
    """The field, dtype and vector bytes a reader gives, or its message."""
    try:
        tf = reader(obj)
    except FormatError as exc:
        return "error", str(exc)
    vec = tf.tensor.vector()
    return tf.field, vec.dtype.str, vec.tobytes()


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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_floats_refused(self, value):
        # RFC 8259 has no NaN or Infinity; json.dumps would write them
        with pytest.raises(ValueError):
            dumps({"residual": value})

    @pytest.mark.parametrize("case", [
        "example1-shuffled", "complex", "python-int-codes", "int-coefs",
        "largest-int-coef", "extra-key", "complex-int-pairs", "complex-zero-pairs",
    ])
    def test_reader_places_coefficients_by_code(self, case):
        # the reader's vector equals the dict constructor's, bit for bit
        if case in ("example1-shuffled", "int-coefs", "extra-key"):
            obj = json.loads((FIXTURES / "example1.json").read_text())
            obj["terms"] = obj["terms"][::-1]
            if case == "int-coefs":
                for i, t in enumerate(obj["terms"]):
                    t["coef"] = i - 20
            elif case == "extra-key":
                obj["terms"][3]["note"] = "ignored"
        elif case == "complex":
            obj = synthesize((2, 2), (1, 1), rank=2, seed=5, fld="complex")[0].to_obj()
            obj["terms"][0]["coef"] = [0.0, 0.0]
        elif case == "largest-int-coef":  # float() rounds it to 2.0**1023
            obj = {"dims": [1], "degrees": [2], "terms": [
                {"exp": [[1]], "coef": 2**1023 - 1},
                {"exp": [[2]], "coef": -(2**1023 - 1)},
            ]}
        elif case.startswith("complex-"):
            # pairs of integers, a plain number, zero pairs of either sign;
            # a complex zero alone makes no complex tensor
            pair = [0, 0] if case == "complex-zero-pairs" else [-0.5, 2]
            obj = {"dims": [2], "degrees": [2], "field": "complex", "terms": [
                {"exp": [[0, 0]], "coef": [0, 0]},
                {"exp": [[1, 0]], "coef": pair},
                {"exp": [[0, 1]], "coef": 3},
                {"exp": [[1, 1]], "coef": [-0.0, 0.0]},
            ]}
        else:  # 28 variables: codes past 63 bits are Python integers
            e = [[0] * 14, [0] * 14]
            obj = {"dims": [14, 14], "degrees": [1, 1], "terms": [
                {"exp": e, "coef": 1.5},
                {"exp": [[0] * 13 + [1], [0] * 13 + [1]], "coef": -2},
                {"exp": [[1] + [0] * 13, [0] * 14], "coef": -0.0},
            ]}
        tf = TensorFile.from_obj(obj)
        big = case == "python-int-codes"
        assert tf.shape.variable_codes.dtype == (object if big else np.int64)
        reference = tdec.Polynomial(tf.shape, {
            Monomial(tuple(map(tuple, t["exp"]))):
                complex(*t["coef"]) if isinstance(t["coef"], list) else float(t["coef"])
            for t in obj["terms"]
        })
        assert tf.tensor.vector().tobytes() == reference.vector().tobytes()
        assert np.iscomplexobj(tf.tensor.vector()) == (
            case in ("complex", "complex-int-pairs")
        )
        assert tf.tensor == reference

    def test_complex_pairs(self, tmp_path):
        tf, truth = synthesize((2, 2), (1, 1), rank=2, seed=5, fld="complex")
        p = tmp_path / "c.json"
        write_json(p, tf.to_obj())
        again = load_tensor(p)
        assert again.tensor.terms == tf.tensor.terms
        raw = json.loads(p.read_text())
        assert any(isinstance(t["coef"], list) for t in raw["terms"])

    def test_malformed_inputs_rejected(self):
        # each case has one fault; its message names the term and the field
        good = json.loads((FIXTURES / "example1.json").read_text())
        tiny = self.TINY
        number = "expected finite number or [re, im] pair, got"
        bad_cases = [
            ({}, "tensor file missing 'dims'"),
            ({**good, "terms": [{"exp": [[1, 0, 0]], "coef": 1}]},
             "terms[0]: 'exp' must list one exponent vector per group"),
            ({**good, "terms": [{"exp": [[2, 0, 0], [0] * 3, [0] * 3], "coef": 1}]},
             "terms[0]: group 0 degree exceeds 1"),
            ({**good, "terms": good["terms"] + [good["terms"][0]]},
             "terms[64]: duplicate exponent [[0, 0, 0], [0, 0, 0], [0, 0, 0]]"),
            ({**good, "field": "rational"}, "unknown field 'rational'"),
            # read as dims (1,) before: int() truncated 1.7
            ({**tiny, "dims": [1.7]}, "'dims' must be a list of integers, got [1.7]"),
            ({**tiny, "dims": 1}, "'dims' must be a list of integers, got 1"),
            ({**tiny, "degrees": [True]},
             "'degrees' must be a list of integers, got [True]"),
            ({**tiny, "terms": [{"exp": [[True]], "coef": 1}]},
             "terms[0]: group 0 exponents must be 1 non-negative integers"),
            ({**tiny, "terms": [{"exp": [[1]], "coef": True}]},
             f"terms[0] 'coef': {number} True"),
            ({**tiny, "terms": [{"exp": [[1]], "coef": [1, False]}]},
             f"terms[0] 'coef': {number} [1, False]"),
            ({**tiny, "terms": 3}, "'terms' must be a list"),
            # json reads NaN, Infinity and integers past the float range
            ({**tiny, "terms": [{"exp": [[1]], "coef": math.nan}]},
             f"terms[0] 'coef': {number} nan"),
            ({**tiny, "terms": [{"exp": [[1]], "coef": math.inf}]},
             f"terms[0] 'coef': {number} inf"),
            ({**tiny, "terms": [{"exp": [[1]], "coef": [1.0, -math.inf]}]},
             f"terms[0] 'coef': {number} [1.0, -inf]"),
            ({**tiny, "terms": [{"exp": [[1]], "coef": 10**400}]},
             f"terms[0] 'coef': {number} {10**400!r}"),
            ({**tiny, "terms": [{"exp": [[0]], "coef": 1}, {"exp": [[1]], "coef": 2},
                                {"exp": [[1]], "coef": 3}]},
             "terms[2]: duplicate exponent [[1]]"),
            ({**tiny, "terms": [{"exp": [[0]], "coef": 1}, {"exp": [[1]], "coef": [1, 2]}]},
             "terms[1]: complex coefficient in a real file"),
            ({**tiny, "terms": [{"exp": [[0]], "coef": 1}, {"exp": [[3]], "coef": 1}]},
             "terms[1]: group 0 degree exceeds 2"),
            ({**tiny, "terms": [{"exp": [[-1]], "coef": 1}]},
             "terms[0]: group 0 exponents must be 1 non-negative integers"),
            ({**tiny, "terms": [{"exp": [[1, 0]], "coef": 1}]},
             "terms[0]: group 0 exponents must be 1 non-negative integers"),
            ({**tiny, "terms": [{"exp": [1], "coef": 1}]},
             "terms[0]: group 0 exponents must be 1 non-negative integers"),
            ({**tiny, "terms": [{"exp": [[1]], "coef": 1}, {"coef": 1}]},
             "terms[1] missing 'exp'"),
            ({**tiny, "terms": [{"exp": [[1]], "coef": 1}, [1]]},
             "terms[1] must be a JSON object"),
            # past int64, yet an integer: a degree fault, not an overflow
            ({**tiny, "terms": [{"exp": [[2**70]], "coef": 1}]},
             "terms[0]: group 0 degree exceeds 2"),
            # each fits int64, their sum does not
            ({"dims": [2], "degrees": [1],
              "terms": [{"exp": [[2**62, 2**62]], "coef": 1}]},
             "terms[0]: group 0 degree exceeds 1"),
            ({**tiny, "terms": [{"exp": [[1.0]], "coef": 1}]},
             "terms[0]: group 0 exponents must be 1 non-negative integers"),
            # float(2**1023) is finite, but no integer reaches 2**1023
            ({**tiny, "terms": [{"exp": [[1]], "coef": 2**1023}]},
             f"terms[0] 'coef': {number} {2**1023!r}"),
            # a list of three in a complex file: no [re, im] pair
            ({**tiny, "field": "complex",
              "terms": [{"exp": [[1]], "coef": [1.0, 2.0, 3.0]}]},
             f"terms[0] 'coef': {number} [1.0, 2.0, 3.0]"),
        ]
        for obj, message in bad_cases:
            with pytest.raises(FormatError) as info:
                TensorFile.from_obj(obj)
            assert str(info.value) == message
        TensorFile.from_obj(tiny)
        TensorFile.from_obj({**tiny, "field": "complex",
                             "terms": [{"exp": [[1]], "coef": [1, 2]}]})

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


class TestReaderProperty:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    # small well-formed files: (dims, degrees, field)
    FORMATS = [((2,), (3,), "real"), ((2, 2), (1, 1), "real"),
               ((1, 2), (2, 1), "complex"), ((3,), (1,), "complex")]
    VALUES = [True, False, 1.0, 0.5, -1, 0, 2, 3, 2**63, 2**70, -(2**70),
              2**1023 - 1, 2**1023, -(2**1023), 10**400, math.nan, math.inf,
              None, "1", [], [1], [0, 0], [-0.0, 0.0], [1, -2.5], [1, True],
              [1, 2, 3], {}]
    EDITS = ["coef", "pair-part", "exponent", "group", "lengthen", "shorten",
             "exp", "drop", "term", "extra-key", "duplicate", "field"]

    @staticmethod
    def mutate(obj, kind, i, j, value):
        """Apply one edit to obj in place where its target exists."""
        terms = obj["terms"]
        t = terms[i % len(terms)]
        exp = t.get("exp") if isinstance(t, dict) else None
        group = exp[j % len(exp)] if isinstance(exp, list) and exp else None
        if kind == "field":
            obj["field"] = value if j % 3 == 0 else ("real", "complex")[j % 2]
        elif kind == "duplicate":
            terms.append(copy.deepcopy(t))
        elif kind == "term":
            terms[i % len(terms)] = value
        elif not isinstance(t, dict):
            return
        elif kind == "coef":
            t["coef"] = value
        elif kind == "pair-part":
            c = t.get("coef")
            if isinstance(c, list) and c:
                c[j % len(c)] = value
            else:
                t["coef"] = [c, value]
        elif kind == "exp":
            t["exp"] = value
        elif kind == "drop":
            t.pop(("exp", "coef")[j % 2], None)
        elif kind == "extra-key":
            t["note"] = value
        elif not isinstance(group, list):
            return
        elif kind == "group":
            exp[j % len(exp)] = value
        elif kind == "lengthen":
            group.append(j % 2)
        elif kind == "shorten" and group:
            group.pop()
        elif kind == "exponent" and group:
            group[i % len(group)] = value

    @given(
        fmt=st.sampled_from(FORMATS),
        seed=st.integers(0, 2**16),
        edits=st.lists(
            st.tuples(st.sampled_from(EDITS), st.integers(0, 99),
                      st.integers(0, 99), st.sampled_from(VALUES)),
            max_size=3,
        ),
    )
    @settings(max_examples=400, deadline=None)
    def test_bulk_reader_matches_per_term_reader(self, fmt, seed, edits):
        # the same vector bytes and dtype, or the same first message
        dims, degrees, fld = fmt
        tf, _ = synthesize(dims, degrees, rank=2, seed=seed, fld=fld)
        obj = json.loads(dumps(tf.to_obj()))
        for kind, i, j, value in edits:
            self.mutate(obj, kind, i, j, copy.deepcopy(value))
        got = read_outcome(TensorFile.from_obj, obj)
        assert got == read_outcome(from_obj_reference, obj)

    @pytest.mark.parametrize("fld, coefs, ok", [
        ("complex", [[1, -0.0], [-0.0, 2.5], 3, -0.0, [0, 0], 2**63], True),
        ("complex", [[0, 0], [-0.0, 0.0], 1.5, -0.0, [0.0, -0.0]], True),
        ("complex", [[2**70, -1], [-(2**70), 2**1023 - 1]], True),
        ("complex", [[1, 2], [1, True]], False),
        ("complex", [[1, 2], [1, 2, 3]], False),
        ("complex", [[1, 2], [1]], False),
        ("complex", [[1, 2], [1, math.nan]], False),
        ("complex", [[1, 2], [1, 2**1023]], False),
        ("complex", [[1, 2], "1"], False),
        ("real", [1.0, [1, 2]], False),
    ])
    def test_pairs_match_the_per_term_reader(self, fld, coefs, ok):
        # [re, im] pairs read in the bulk pass: the same bits, signed zeros
        # included, and the same dtype, or the fault of the same term
        shape = Shape((2,), (3,))
        exps = shape.table.exps[: len(coefs)].tolist()
        obj = {"dims": [2], "degrees": [3], "field": fld,
               "terms": [{"exp": [e], "coef": c} for e, c in zip(exps, coefs)]}
        got = read_outcome(TensorFile.from_obj, obj)
        assert (got[0] != "error") == ok
        assert got == read_outcome(from_obj_reference, obj)
        if ok:
            values = _read_terms(obj["terms"], shape, fld)[1]
            want = np.array([complex(*c) if isinstance(c, list) else float(c)
                             for c in coefs])
            if not (want.imag != 0).any():
                want = want.real
            assert values.tobytes() == want.tobytes()

    def test_well_formed_files_skip_the_term_scan(self, monkeypatch):
        # the term scan names a fault: example1, example2, the benchmark's
        # flat-large formats and a complex file of [re, im] pairs read in
        # the bulk pass alone
        objs = [json.loads((FIXTURES / f"{name}.json").read_text())
                for name in ("example1", "example2")]
        for dims, rank in [((4, 4, 6), 6), ((4, 4, 7), 7), ((4, 4, 8), 8),
                           ((8, 8, 8), 5)]:
            tf, _ = synthesize(dims, (1, 1, 1), rank=rank, seed=rank)
            objs.append(json.loads(dumps(tf.to_obj())))
        tf, _ = synthesize((3, 3), (2, 1), rank=2, seed=1, fld="complex")
        pairs = json.loads(dumps(tf.to_obj()))
        assert any(isinstance(t["coef"], list) for t in pairs["terms"])

        files_module = importlib.import_module("tdec.files")
        calls = count_calls(monkeypatch, "_scan_terms", owner=files_module)
        for obj in objs:
            got = read_outcome(TensorFile.from_obj, obj)
            assert got[0] == obj.get("field", "real")
            assert got == read_outcome(from_obj_reference, obj)
        assert calls == {"_scan_terms": 0}
        got = read_outcome(TensorFile.from_obj, pairs)
        assert calls == {"_scan_terms": 0}
        assert got[:2] == ("complex", np.dtype(complex).str)
        assert got == read_outcome(from_obj_reference, pairs)


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

    def test_unknown_field_is_refused(self):
        # once written, and then refused by its own reader
        with pytest.raises(ValueError, match="quaternion"):
            synthesize((2, 2, 2), (1, 1, 1), rank=3, seed=1, fld="quaternion")


class TestCli:
    def run(self, *argv):
        return main([str(a) for a in argv])

    @pytest.mark.parametrize("name,seed", list(make_fixtures.GOLDEN_SEEDS.items()))
    def test_decompose_matches_golden_file(self, tmp_path, name, seed):
        # the golden files were written with two BLAS threads; with one
        # thread the example2 term of weight 2 moves by 1.35e-9 relative,
        # past rel_tol 1e-9, so the CLI runs in a process pinned to two
        # threads, whatever the core count, as scripts/make_fixtures.py
        # runs it
        out = tmp_path / "dec.json"
        proc = make_fixtures.decompose_with_cli(FIXTURES / f"{name}.json", seed, out)
        assert proc.returncode == 0, proc.stderr
        got = json.loads(out.read_text())
        want = json.loads((FIXTURES / f"{name}.dec.json").read_text())
        assert got["meta"] == want["meta"]
        assert_same_output(got, want)

    def test_decompose_reads_each_split_once(self, tmp_path, monkeypatch):
        # meta.bounds takes the flattening rank that decompose read: one
        # factorization per complementary pair of example2's 8 degree
        # splits, not one or two per split
        shapes = count_split_factorizations(monkeypatch)
        out = tmp_path / "dec.json"
        assert self.run(
            "decompose", "-i", FIXTURES / "example2.json", "-o", out, "--seed", 3
        ) == 0
        assert len(shapes) == 4
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

    def test_parser_reuse_keeps_no_options(self, tmp_path, capsys):
        # one process, one parser: each call's options and exit code are its own
        assert build_parser() is build_parser()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        tensor = FIXTURES / "example1.json"
        assert self.run("decompose", "-i", tensor, "-o", a, "--seed", 3,
                        "--timing") == 0
        assert self.run("decompose", "-i", tensor, "-o", b) == 0
        meta_a, meta_b = (json.loads(p.read_text())["meta"] for p in (a, b))
        assert (meta_a["seed"], meta_b["seed"]) == (3, 0)
        assert "elapsed_ms" in meta_a and "elapsed_ms" not in meta_b
        assert self.run("verify", "-i", tensor, "-d", b, "--threshold", 0) == 3
        assert self.run("verify", "-i", tensor, "-d", b) == 0

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
        # a generic 3x3x3 of rank 5, above its flattening rank 3
        p = tmp_path / "t.json"
        assert self.run("synth", "-o", p, "--dims", 2, 2, 2, "--degrees", 1, 1, 1,
                        "--rank", 5, "--seed", 1) == 0
        assert self.run("decompose", "-i", p) == 2

    def test_decompose_prints_complex_terms(self, tmp_path, capsys):
        tf, _ = synthesize((2, 2, 2), (1, 1, 1), rank=3, seed=21, fld="complex")
        p = tmp_path / "t.json"
        write_json(p, tf.to_obj())
        assert self.run("decompose", "-i", p) == 0
        terms = capsys.readouterr().out.splitlines()[1:]
        assert len(terms) == 3
        assert all(t.startswith("  weight (") and "j)  point (" in t for t in terms)

    def test_refusal_file_is_strict_json(self, tmp_path):
        # no attempt reaches a residual check, so the library report holds
        # best_residual inf, which once reached the file as Infinity
        p, out = tmp_path / "g.json", tmp_path / "out.json"
        assert self.run("synth", "-o", p, "--dims", 2, 2, 2, "--degrees", 1, 1, 1,
                        "--rank", 5, "--seed", 1) == 0
        assert self.run("decompose", "-i", p, "-o", out) == 2

        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        report = json.loads(out.read_text(), parse_constant=refuse)["report"]
        assert "best_residual" not in report
        assert report["frames"] == 2

    def test_flat_check_refusal_file(self, tmp_path):
        # slight noise: every frame's completion extends, but the prolonged
        # block has a rank above 6, so each frame stops at the flat check
        p, out = tmp_path / "t.json", tmp_path / "out.json"
        assert self.run("synth", "-o", p, "--dims", 3, 3, 5, "--degrees", 1, 1, 1,
                        "--rank", 6, "--seed", 0, "--noise", 3e-10) == 0
        assert self.run("decompose", "-i", p, "--tol-resid", 1e-5, "-o", out) == 2

        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        obj = json.loads(out.read_text(), parse_constant=refuse)
        assert obj == {
            "error": "no decomposition at rank 6",
            "report": {"rank": 6, "stage": "flat-check", "detail": "rank grew",
                       "frames": 4, "stop": "frame limit"},
        }

    def test_block_admitted_below_default_tol_rank_exit_two(self, tmp_path, capsys):
        # once a traceback (exit 1) from re-checking the block at 1e-8
        p = tmp_path / "t.json"
        T = near_collinear_tensor(1)
        write_json(p, TensorFile("real", T).to_obj())
        assert self.run("decompose", "-i", p, "--tol-rank", "1e-12") == 2
        assert "no decomposition found" in capsys.readouterr().err

    def test_reduce_refuses_term_at_infinity_exit_two(self, tmp_path, capsys):
        # once a traceback (exit 1) from the lift of the HOSVD core's terms
        p, out = tmp_path / "t.json", tmp_path / "out.json"
        T = term_at_infinity_tensor()
        write_json(p, TensorFile("real", T).to_obj())
        assert self.run("decompose", "-i", p, "-o", out, "--reduce") == 2
        assert "no decomposition found" in capsys.readouterr().err
        obj = json.loads(out.read_text())
        assert obj["error"] == "no decomposition at rank 2"
        report = obj["report"]
        assert report["stage"] == "lift"
        assert report["detail"] == "point at infinity in group 0"
        assert report["frames"] == 1
        assert report["stop"] == "frame 0: lift through the HOSVD factors"

    def test_verify_takes_no_tol_rank(self, capsys):
        # verify reads no rank; the option was accepted and ignored
        fixture = FIXTURES / "example1.json"
        with pytest.raises(SystemExit) as info:
            self.run("verify", "-i", fixture, "-d", FIXTURES / "example1.dec.json",
                     "--tol-rank", "0.5")
        assert info.value.code == 2
        assert "unrecognized arguments: --tol-rank" in capsys.readouterr().err

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
        write_json(p, TensorFile("real", array_to_poly(A)).to_obj())
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

    def test_log_lines_go_to_each_calls_stderr(self, monkeypatch):
        # logging.basicConfig once sent every later call's lines to the
        # stderr of the first call in the process
        monkeypatch.setenv("TDEC_LOG", "info")
        sinks = [io.StringIO(), io.StringIO()]
        for sink, command in zip(sinks, ["bounds", "decompose"]):
            with contextlib.redirect_stderr(sink), contextlib.redirect_stdout(
                io.StringIO()
            ):
                assert self.run(command, "-i", FIXTURES / "example1.json") == 0
        assert "tdec INFO" not in sinks[0].getvalue()
        lines = sinks[1].getvalue().splitlines()
        assert any(line.startswith("tdec INFO accepted r=4") for line in lines)

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
        write_json(p, TensorFile("real", array_to_poly(big)).to_obj())
        out = tmp_path / "dec.json"
        assert self.run("decompose", "-i", p, "-o", out, "--reduce") == 0
        obj = json.loads(out.read_text())
        assert obj["meta"]["reduced"] and obj["rank"] == 3
