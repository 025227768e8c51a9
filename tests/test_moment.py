import importlib
import itertools
import math
import sys
import threading
import time
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden_data as gd
from conftest import (
    basis_of,
    canonical_sorted,
    code,
    evaluation_functional,
    functional,
    functional_to_tensor,
    moment,
    one,
    parse_monomial,
    poly,
    rank_one_expand,
    rows_of,
    variable,
    weighted_evaluation,
)
from tdec.algebra import (
    DegreeOverflowError,
    Monomial,
    MomentFunctional,
    Point,
    Polynomial,
    Shape,
)
from tdec.moment import (
    DEFAULT_TOL_RANK,
    Catalecticants,
    MonomialBasis,
    _greedy_staircase,
    _interned_basis,
    build_moment_functional,
    degree_splits,
    enumerate_monomials,
    hankel,
    numerical_rank,
    select_bases_candidates,
    split_pools,
)
from tdec.decompose import (
    DecomposeOptions,
    DecompositionError,
    decompose,
    random_coordinate_change,
    rank_lower_bound,
    reconstruct,
    substitute_linear,
)

moment_module = importlib.import_module("tdec.moment")
extension_module = importlib.import_module("tdec.extension")


class TestBuildMomentFunctional:
    def test_demo_moments(self, tensor1, shape1):
        lam = build_moment_functional(tensor1)
        get = lambda s: moment(lam, parse_monomial(s, shape1))
        assert get("1") == 4
        assert get("a1") == 7
        assert get("a1*b1") == 21
        assert get("a1*b1*c1") == 68

    def test_zero_tensor(self):
        shape = Shape(dims=(2, 2), degrees=(1, 1))
        lam = build_moment_functional(Polynomial(shape, {}))
        assert all(v == 0 for v in lam.values)
        assert len(lam.codes) == shape.ambient_dim

    def test_binary_cubic_divides_binomials(self):
        # (1 + 2x)^3 has moments equal to powers of 2
        shape = Shape(dims=(1,), degrees=(3,))
        x = parse_monomial("a1", shape)
        T = Polynomial(shape, {one(shape): 1, x: 6, x * x: 12, x * x * x: 8})
        lam = build_moment_functional(T)
        assert moment(lam, one(shape)) == 1
        assert moment(lam, x) == 2
        assert moment(lam, x * x) == 4
        assert moment(lam, x * x * x) == 8


class TestFunctionalToTensor:
    """Moments times multinomials give the coefficients back; the inverse
    is the reference builder in conftest."""

    def test_round_trip(self, tensor1, shape1):
        lam = build_moment_functional(tensor1)
        back = functional_to_tensor(lam, shape1)
        assert back.terms == tensor1.terms

    def test_zero(self):
        shape = Shape(dims=(1, 1), degrees=(1, 1))
        lam = build_moment_functional(Polynomial(shape, {}))
        assert functional_to_tensor(lam, shape).is_zero()

    def test_weighted_evaluations_match_expansion(self):
        # the moments of an expanded rank-r sum are its weighted evaluations,
        # and the reference expansion is the oracle for the coefficients
        rng = np.random.default_rng(5)
        shape = Shape(dims=(2, 2), degrees=(2, 1))
        pts = [
            Point(tuple(tuple(rng.uniform(-1, 1, n)) for n in shape.dims))
            for _ in range(3)
        ]
        ws = rng.uniform(0.5, 2.0, 3)
        dom = shape.monomials(enumerate_monomials(shape, list(shape.degrees)))
        ref = weighted_evaluation(ws, pts, shape, dom)
        lam = build_moment_functional(reconstruct(shape, ws, pts))
        for m in dom:
            assert moment(lam, m) == pytest.approx(moment(ref, m), rel=1e-10)
        tensor = functional_to_tensor(ref, shape)
        expected = rank_one_expand(shape, ws, pts)
        for m in set(tensor.terms) | set(expected.terms):
            assert tensor.terms.get(m, 0) == pytest.approx(
                expected.terms.get(m, 0), rel=1e-10
            )


class TestEnumerate:
    def test_univariate(self):
        shape = Shape(dims=(1,), degrees=(2,))
        out = shape.monomials(enumerate_monomials(shape, [2]))
        assert [str(m) for m in out] == ["1", "a1", "a1^2"]

    def test_one_group_active(self):
        shape = Shape(dims=(3, 3, 3), degrees=(1, 1, 1))
        out = shape.monomials(enumerate_monomials(shape, [1, 0, 0]))
        assert [str(m) for m in out] == ["1", "a1", "a2", "a3"]

    def test_count(self):
        shape = Shape(dims=(2, 2), degrees=(1, 1))
        assert len(enumerate_monomials(shape, [1, 1])) == 9

    @given(st.integers(1, 3), st.integers(1, 3))
    def test_size_formula(self, n, b):
        import math

        shape = Shape(dims=(n,), degrees=(b,))
        assert len(enumerate_monomials(shape, [b])) == math.comb(n + b, b)


def brute_force_monomials(shape, bounds):
    """Every exponent tuple up to each bound, filtered and sorted."""
    per_group = [
        [e for e in itertools.product(range(b + 1), repeat=n) if sum(e) <= b]
        for n, b in zip(shape.dims, bounds)
    ]
    monos = [Monomial(tuple(combo)) for combo in itertools.product(*per_group)]
    return canonical_sorted(shape, monos)


class TestMonomialTable:
    @pytest.mark.parametrize(
        "dims,degrees,bounds",
        [
            ((3, 3, 3), (1, 1, 1), (1, 1, 1)),
            ((3, 3, 3), (1, 1, 1), (1, 0, 1)),
            ((2, 2), (2, 2), (2, 1)),
            ((2, 3), (2, 1), (3, 2)),  # beyond the degree bounds
            ((1,), (6,), (6,)),
            ((2, 2, 2), (1, 1, 2), (0, 1, 2)),
            ((4,), (3,), (3,)),
        ],
    )
    def test_enumeration_matches_brute_force(self, dims, degrees, bounds):
        shape = Shape(dims=dims, degrees=degrees)
        rows = enumerate_monomials(shape, list(bounds))
        assert shape.monomials(rows) == brute_force_monomials(shape, bounds)

    @pytest.mark.parametrize(
        "dims,degrees", [((2, 2), (2, 2)), ((2, 3), (2, 1)), ((1,), (6,)), ((2, 1, 2), (1, 3, 1))]
    )
    def test_table_rows(self, dims, degrees):
        shape = Shape(dims=dims, degrees=degrees)
        table = shape.table
        monos = brute_force_monomials(shape, degrees)
        assert shape.monomials(table.exps) == monos
        assert np.array_equal(table.exps, shape.exponents(monos))
        assert table.multinomials.tolist() == [
            math.prod(math.factorial(d) // (
                math.prod(math.factorial(x) for x in e) * math.factorial(d - sum(e))
            ) for d, e in zip(degrees, m.exps))
            for m in monos
        ]
        assert table.rows(table.codes).tolist() == list(range(len(monos)))
        for g, G in enumerate(table.group_exps):
            parts = [m.exps[g] for m in monos]
            assert [tuple(G[i]) for i in table.group_index[:, g]] == parts

    def test_table_shared_by_equal_shapes(self):
        table = Shape(dims=(2, 3), degrees=(2, 1)).table
        assert Shape(dims=(2, 3), degrees=(2, 1)).table is table
        arrays = (table.exps, table.group_index, table.multinomials, table.codes,
                  table.sorted_codes, *table.group_exps)
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 1

    def test_thirty_variables(self):
        # (b + 1)^n candidates would be 2^30 tuples for 31 monomials
        shape = Shape(dims=(30,), degrees=(1,))
        start = time.process_time()
        monos = enumerate_monomials(shape, [1])
        lam = build_moment_functional(Polynomial(shape, {variable(shape, 0, 29): 2.0}))
        assert time.process_time() - start < 1.0
        assert len(monos) == 31
        assert [str(m) for m in shape.monomials(monos[:3])] == ["1", "a1", "a2"]
        assert moment(lam, variable(shape, 0, 29)) == 2.0


class TestBasisPlus:
    def test_univariate(self):
        shape = Shape(dims=(1,), degrees=(2,))
        B = basis_of(shape, ["1"])
        assert [str(m) for m in shape.monomials(B.plus)] == ["1", "a1"]

    def test_three_variables(self):
        shape = Shape(dims=(3,), degrees=(2,))
        B = basis_of(shape, ["1", "a1"])
        out = shape.monomials(B.plus)
        assert [str(m) for m in out] == [
            "1", "a1", "a2", "a3", "a1^2", "a1*a2", "a1*a3",
        ]

    def test_demo_border_contains_reduction_targets(self, shape2):
        B = basis_of(shape2, gd.H2_B_COLS)
        plus = set(str(m) for m in shape2.monomials(B.plus))
        for s in ["a1*b3", "a2*b3", "a3*b3", "a1^2", "a1*a2", "a2*a3", "b3"]:
            assert s in plus
        edge = shape2.monomials(B.border)
        assert set(str(m) for m in edge).isdisjoint(set(gd.H2_B_COLS))

    def test_rows_match_monomial_loops(self, shape2):
        for B in [
            basis_of(Shape(dims=(1,), degrees=(2,)), ["1"]),
            basis_of(Shape(dims=(3,), degrees=(2,)), ["1", "a1"]),
            basis_of(shape2, gd.H2_B_COLS),
            basis_of(shape2, gd.H2_B_ROWS),
        ]:
            shape = B.shape
            basis = shape.monomials(B.exps)
            variables = [variable(shape, g, j) for g, j in shape.variables()]
            plus = set(basis) | {x * b for x in variables for b in basis}
            want = canonical_sorted(shape, plus)
            assert shape.monomials(B.plus) == want
            assert shape.monomials(B.border) == [m for m in want if m not in basis]
            assert B.codes.tolist() == [code(shape, m) for m in basis]

    def test_staircase_connectivity_matches_monomial_loop(self, shape2):
        # identity columns: a monomial raises the rank unless its column is
        # zeroed, so the staircase is the connected scan over the live ones
        rng = np.random.default_rng(4)
        for shape in (Shape(dims=(3,), degrees=(2,)), shape2):
            pool = enumerate_monomials(shape, list(shape.degrees))
            monos = shape.monomials(pool)
            live = rng.uniform(size=len(monos)) < 0.7
            live[0] = True
            variables = [variable(shape, g, j) for g, j in shape.variables()]
            chosen = []
            for m, ok in zip(monos, live):
                if ok and (m.is_one() or any(
                    x * q == m for x in variables for q in chosen
                )):
                    chosen.append(m)
            assert len(chosen) < live.sum()  # some live monomial is cut off
            A = np.eye(len(monos)) * live
            for axis, block in ((1, A), (0, A.T)):
                sel = _greedy_staircase(block, pool, shape, len(chosen), 1e-8, axis)
                assert [monos[i] for i in sel] == chosen

    def test_basis_validation(self, shape2):
        rows = rows_of(shape2, ["1", "a1", "b1"])
        assert len(MonomialBasis(shape2, rows)) == 3
        for bad, message in [
            (rows[[0, 1, 2, 1]], "duplicate"),
            (rows[1:], "must list the monomial 1 first"),
            (rows[[1, 0, 2]], "must list the monomial 1 first"),
            (rows_of(shape2, ["1", "a1", "a2*b1"]), r"not connected to 1 at a2\*b1"),
        ]:
            with pytest.raises(ValueError, match=message):
                MonomialBasis(shape2, bad)


class TestHankel:
    def test_demo_4x4(self, tensor1, shape1):
        lam = build_moment_functional(tensor1)
        H, known = hankel(lam, rows_of(shape1, gd.H1_B_ROWS), rows_of(shape1, gd.H1_B_COLS))
        assert known.all()
        np.testing.assert_array_equal(H, np.array(gd.H1, dtype=float))

    def test_demo_6x6(self, tensor2, shape2):
        lam = build_moment_functional(tensor2)
        H, known = hankel(lam, rows_of(shape2, gd.H2_B_ROWS), rows_of(shape2, gd.H2_B_COLS))
        assert known.all()
        np.testing.assert_array_equal(H, np.array(gd.H2, dtype=float))

    def test_single_entry(self, tensor1, shape1):
        lam = build_moment_functional(tensor1)
        B = rows_of(shape1, ["1"])
        H, known = hankel(lam, B, B)
        assert known.all()
        assert H == np.array([[4.0]])

    def test_transpose_swaps_bases(self, tensor1, shape1):
        lam = build_moment_functional(tensor1)
        B = rows_of(shape1, ["1", "a1", "a2"])
        Bp = rows_of(shape1, ["1", "b1", "c2"])
        H1, known1 = hankel(lam, Bp, B)
        H2, known2 = hankel(lam, B, Bp)
        assert known1.all() and known2.all()
        np.testing.assert_allclose(H1, H2.T)

    def test_quasi_hankel_parameter_sharing(self):
        shape = Shape(dims=(2,), degrees=(1,))
        x, y = variable(shape, 0, 0), variable(shape, 0, 1)
        lam = functional(shape, {one(shape): 1.0, x: 2.0, y: 3.0})
        B = [one(shape), x, y]
        H, known = hankel(lam, shape.exponents(B), shape.exponents(B))
        # the unknown moments sit exactly where the product leaves the data;
        # x*y shows up at both (1,2) and (2,1)
        expected = [[True, True, True], [True, False, False], [True, False, False]]
        assert known.tolist() == expected
        assert B[1] * B[2] == B[2] * B[1] == x * y
        np.testing.assert_array_equal(H[~known], 0.0)

    def test_shifted_matches_definition(self, tensor1, shape1):
        # shifted rows x_v * b' give the matrix of lam(x_v b' b)
        lam = build_moment_functional(tensor1)
        B = [parse_monomial(s, shape1) for s in gd.H1_B_COLS]
        Bp = [parse_monomial(s, shape1) for s in gd.H1_B_ROWS]
        c1 = parse_monomial("c1", shape1)
        Hs, known = hankel(lam, shape1.exponents([c1 * q for q in Bp]), shape1.exponents(B))
        assert known.all()
        for i, mr in enumerate(Bp):
            for j, mc in enumerate(B):
                assert Hs[i, j] == moment(lam, c1 * mr * mc)

    def test_shifted_of_evaluation(self):
        shape = Shape(dims=(2,), degrees=(1,))
        zeta = Point(((5.0, -3.0),))
        dom = shape.monomials(enumerate_monomials(shape, [2]))
        lam = evaluation_functional(zeta, shape, dom)
        B = [one(shape)]
        Hs, known = hankel(
            lam, shape.exponents([variable(shape, 0, 1) * q for q in B]),
            shape.exponents(B),
        )
        assert known.all()
        assert Hs == np.array([[-3.0]])


def naive_hankel(entries, rows, cols):
    """Reference for hankel on the moments of a {Monomial: value} dict: one
    Monomial product and one dict lookup per entry."""
    dtype = complex if any(isinstance(v, complex) for v in entries.values()) else float
    values = np.zeros((len(rows), len(cols)), dtype=dtype)
    known = np.zeros((len(rows), len(cols)), dtype=bool)
    for i, mr in enumerate(rows):
        for j, mc in enumerate(cols):
            v = entries.get(mr * mc)
            if v is not None:
                values[i, j] = v
                known[i, j] = True
    return values, known


class TestMonomialCodes:
    @pytest.mark.parametrize(
        "dims,degrees,n_basis,complex_values",
        [
            ((7, 7, 7), (1, 1, 1), 5, False),  # 21 variables, as 8x8x8
            ((1,), (6,), 3, False),  # binary form of degree 6
            ((2, 2), (2, 2), 4, True),
            ((2, 3), (2, 1), 3, False),
            ((7, 7, 7, 7), (1, 1, 1, 1), 3, False),  # codes beyond 63 bits
        ],
        ids=[
            "21-variables", "binary-sextic", "complex", "mixed-degrees",
            "28-variables",
        ],
    )
    def test_hankel_matches_monomial_products(
        self, dims, degrees, n_basis, complex_values
    ):
        rng = np.random.default_rng(sum(dims) + sum(degrees))
        shape = Shape(dims=dims, degrees=degrees)
        in_range = shape.monomials(enumerate_monomials(shape, list(degrees)))
        B = MonomialBasis(shape, shape.exponents(in_range[:n_basis]))
        plus = shape.monomials(B.plus)
        edge = shape.monomials(B.border)
        blocks = []
        for pool_r, pool_c in [
            (in_range, edge),  # in-range x border, the completion's products
            (plus, plus),  # the once-prolonged matrix of the flat check
            (edge, in_range),
        ]:
            rows = [pool_r[i] for i in rng.integers(0, len(pool_r), 12)]
            cols = [pool_c[i] for i in rng.integers(0, len(pool_c), 9)]
            blocks.append((rows, cols))
        # the known range plus every other product beyond it, as first met
        entries = {q: rng.normal() for q in in_range}
        beyond = []
        for rows, cols in blocks:
            for mr in rows:
                for mc in cols:
                    if mr * mc not in entries and mr * mc not in beyond:
                        beyond.append(mr * mc)
        entries.update({q: rng.normal() for q in beyond[::2]})
        if complex_values:
            entries = {q: complex(v, rng.normal()) for q, v in entries.items()}
        lam = functional(shape, entries)
        seen = set()
        for rows, cols in blocks:
            H, H_known = hankel(lam, shape.exponents(rows), shape.exponents(cols))
            values, known = naive_hankel(entries, rows, cols)
            assert H.dtype == values.dtype
            np.testing.assert_array_equal(H_known, known)
            np.testing.assert_array_equal(H, values)
            seen.update(known.ravel().tolist())
        assert seen == {True, False}

    def test_codes_add_under_multiplication(self):
        shape = Shape(dims=(1,), degrees=(6,))
        x7 = parse_monomial("a1^7", shape)
        assert code(shape, x7) + code(shape, x7) == code(shape, x7 * x7)
        shape = Shape(dims=(7, 7, 7), degrees=(1, 1, 1))
        a = parse_monomial("a7^2*b1*c7", shape)
        b = parse_monomial("a7*c7^2", shape)
        assert code(shape, a) + code(shape, b) == code(shape, a * b)

    def test_exponent_beyond_radix_raises(self):
        shape = Shape(dims=(1,), degrees=(6,))
        assert shape.radix == (15,)
        with pytest.raises(DegreeOverflowError):
            code(shape, parse_monomial("a1^15", shape))
        # each factor has a code, their product would not
        x7, x8 = parse_monomial("a1^7", shape), parse_monomial("a1^8", shape)
        lam = functional(shape, {one(shape): 1.0})
        rows = shape.exponents([x8, x7, x7])
        with pytest.raises(DegreeOverflowError):
            hankel(lam, rows[:1], rows[1:2])
        assert not hankel(lam, rows[1:], rows[1:2])[1].any()

    def test_codes_beyond_int64_stay_exact(self):
        shape = Shape(dims=(30,), degrees=(1,))  # radix 5 on 30 variables
        first, last = variable(shape, 0, 0), variable(shape, 0, 29)
        assert code(shape, last) == 5**29 > 2**63
        assert code(shape, first * last) == 1 + 5**29
        lam = functional(shape, {last * last: 2.0, first * last: 3.0})
        rows = shape.exponents([first, last])
        H, known = hankel(lam, rows, rows[1:])
        assert known.all()
        np.testing.assert_array_equal(H, [[3.0], [2.0]])


class TestMomentStore:
    """The known moments are two read-only arrays, codes in increasing order
    and values; ``extended`` is the only way to add moments."""

    def test_codes_given_out_of_order_are_sorted(self):
        shape = Shape(dims=(2,), degrees=(1,))
        lam = MomentFunctional(shape, [3, 0, 1], [30, 0, 10])
        assert lam.codes.tolist() == [0, 1, 3]
        assert lam.values.tolist() == [0.0, 10.0, 30.0]
        assert lam.codes.dtype == np.int64 and lam.values.dtype == float
        values, known = lam.lookup(np.array([1, 2, 3]))
        assert values.tolist() == [10.0, 0.0, 30.0]
        assert known.tolist() == [True, False, True]

    def test_duplicate_codes_raise(self):
        shape = Shape(dims=(2,), degrees=(1,))
        with pytest.raises(ValueError, match="duplicate"):
            MomentFunctional(shape, [0, 1, 0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="equally long"):
            MomentFunctional(shape, [0, 1], [1.0])

    def test_extended_reaches_the_next_hankel_and_leaves_the_original(self):
        shape = Shape(dims=(2,), degrees=(1,))
        x, y = variable(shape, 0, 0), variable(shape, 0, 1)
        lam = functional(shape, {one(shape): 1.0, x: 2.0, y: 3.0})
        B = shape.exponents([one(shape), x])
        assert not hankel(lam, B, B)[1][1, 1]
        codes = shape.codes(shape.exponents([x * x, x, x * y, x * x]))
        more = lam.extended(codes, np.array([5.0, -2.0, 7.0, 9.0]))
        # x keeps its known moment; of the two x^2, the first wins
        H, known = hankel(more, B, B)
        assert known.all()
        np.testing.assert_array_equal(H, [[1.0, 2.0], [2.0, 5.0]])
        assert moment(more, x * y) == 7.0
        assert len(more.codes) == 5
        assert not hankel(lam, B, B)[1][1, 1]
        assert lam.codes.tolist() == [0, 1, 5] and lam.values.tolist() == [1.0, 2.0, 3.0]
        with pytest.raises(ValueError):
            lam.values[0] = 0.0
        with pytest.raises(ValueError):
            lam.codes[0] = 7
        with pytest.raises(AttributeError):
            lam.values = np.zeros(3)

    def test_extended_with_nothing_new_is_the_functional(self):
        shape = Shape(dims=(2,), degrees=(1,))
        lam = MomentFunctional(shape, [3, 0, 1], [30.0, 0.0, 10.0])
        for codes, values in (([1, 3, 1], [5.0, 6.0, 7.0]), ([], [])):
            same = lam.extended(codes, values)
            assert same is lam
            assert same.codes.tolist() == [0, 1, 3]
            assert same.values.tolist() == [0.0, 10.0, 30.0]
        # complex values for known codes widen the value type, as a new
        # functional would: that one is built
        wide = lam.extended([1], [2j])
        assert wide is not lam and wide.values.dtype == complex
        assert wide.codes.tolist() == [0, 1, 3]
        assert wide.values.tolist() == [0.0, 10.0, 30.0]

    def test_extended_to_complex_values(self):
        shape = Shape(dims=(1,), degrees=(2,))
        lam = MomentFunctional(shape, [0], [1.0])
        more = lam.extended([1], [2j])
        assert more.values.dtype == complex
        assert more.values.tolist() == [1.0, 2j]

    def test_python_integer_codes(self):
        shape = Shape(dims=(30,), degrees=(1,))  # codes beyond 63 bits
        first, last = variable(shape, 0, 0), variable(shape, 0, 29)
        lam = functional(shape, {last * last: 2.0})
        assert lam.codes.dtype == object
        codes = shape.codes(shape.exponents([first * last, last * last, first * last]))
        more = lam.extended(codes, [3.0, -1.0, 4.0])
        assert more.codes.tolist() == [1 + 5**29, 2 * 5**29]
        assert more.values.tolist() == [3.0, 2.0]
        values, known = more.lookup(codes)
        assert values.tolist() == [3.0, 2.0, 3.0] and known.all()
        _, known = lam.lookup(codes)
        assert known.tolist() == [False, True, False]


class TestNumericalRank:
    def test_exact_rank(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(6, 3)) @ rng.normal(size=(3, 7))
        assert numerical_rank(A) == 3

    def test_zero(self):
        assert numerical_rank(np.zeros((3, 3))) == 0

    @pytest.mark.parametrize("dims", [(0, 3), (3, 0), (0, 0)])
    def test_empty(self, dims):
        assert numerical_rank(np.zeros(dims)) == 0


def sparse_hard_input() -> Polynomial:
    """The benchmark's hard input sparse-3x3x3-r3#2, of flattening rank 2:
    selection skips its first split (one row) and its second (rank 1)."""
    points = [
        Point(((1.0, 1.0), (-1.0, -1.0), (0.0, 1.0))),
        Point(((-1.0, -1.0), (1.0, 1.0), (0.0, 1.0))),
        Point(((1.0, 1.0), (-1.0, 0.0), (0.0, 1.0))),
    ]
    return reconstruct(Shape((2, 2, 2), (1, 1, 1)), [2.0, 1.0, -2.0], points)


class TestSplitPools:
    def test_shared_by_equal_shapes_and_read_only(self, tensor2):
        splits = split_pools(tensor2.shape)
        assert split_pools(Shape(tensor2.shape.dims, tensor2.shape.degrees)) is splits
        cats = Catalecticants(build_moment_functional(tensor2))
        blocks = list(cats.blocks)
        for a in blocks + [a for s in splits for a in (s.rows, s.cols, s.codes)]:
            with pytest.raises(ValueError):
                a[...] = 0

    @pytest.mark.parametrize("tol_rank", [DEFAULT_TOL_RANK, 0.0, 1.0])
    def test_blocks_and_ranks_match_catalecticant(self, tensor1, tensor2, tol_rank):
        wide = Shape((30,), (2,))  # codes past 63 bits: object dtype
        values = np.random.default_rng(5).normal(size=len(wide.table.exps))
        tensors = [tensor1, tensor2, Polynomial.from_vector(wide, values)]
        assert wide.variable_codes.dtype == object
        for T in tensors:
            lam = build_moment_functional(T)
            cats = Catalecticants(lam, tol_rank)
            assert [(s.col_bounds, s.row_bounds) for s in cats.splits] == (
                degree_splits(T.shape)
            )
            assert isinstance(cats.blocks, tuple) and isinstance(cats.ranks, tuple)
            assert len(cats.blocks) == len(cats.ranks) == len(cats.splits)
            for i, split in enumerate(cats.splits):
                rows = enumerate_monomials(lam.shape, list(split.row_bounds))
                cols = enumerate_monomials(lam.shape, list(split.col_bounds))
                A = hankel(lam, rows, cols)[0]
                assert np.array_equal(split.rows, rows)
                assert np.array_equal(split.cols, cols)
                assert cats.blocks[i].dtype == A.dtype
                assert np.array_equal(cats.blocks[i], A)
                assert cats.ranks[i] == numerical_rank(A, tol_rank)

    def test_every_split_read_and_ranked_in_a_random_frame(self, tensor2):
        # blocks and ranks are built up front in any frame, not only for the
        # splits that selection visits; split ranks do not depend on the frame
        shape = tensor2.shape
        work = substitute_linear(
            tensor2, random_coordinate_change(shape, np.random.default_rng(3))
        )
        lam = build_moment_functional(work)
        cats = Catalecticants(lam)
        assert isinstance(cats.blocks, tuple) and isinstance(cats.ranks, tuple)
        assert len(cats.blocks) == len(cats.ranks) == len(split_pools(shape)) == 8
        for split, A, rank in zip(cats.splits, cats.blocks, cats.ranks):
            want = hankel(lam, split.rows, split.cols)[0]
            assert np.array_equal(A, want) and not A.flags.writeable
            assert rank == numerical_rank(want)
        assert cats.ranks == Catalecticants(build_moment_functional(tensor2)).ranks

    def test_complement_is_the_transposed_block_with_its_rank(self, tensor1, tensor2):
        # beta and degrees - beta: one block read and ranked, the other its
        # transposed view; a self-complementary split is read on its own
        sextic = Polynomial.from_vector(
            Shape((1,), (6,)), np.random.default_rng(6).normal(size=7)
        )
        for T in (tensor1, tensor2, sextic):
            lam = build_moment_functional(T)
            cats = Catalecticants(lam)
            index = {s.col_bounds: i for i, s in enumerate(cats.splits)}
            for i, split in enumerate(cats.splits):
                j = index[split.row_bounds]
                A, rank = cats.blocks[i], cats.ranks[i]
                assert np.array_equal(A, hankel(lam, split.rows, split.cols)[0])
                if j < i:
                    assert A.base is cats.blocks[j] and rank == cats.ranks[j]
                else:
                    assert A.base is None and not A.flags.writeable
                assert rank == numerical_rank(A) == numerical_rank(A.T)

    @pytest.mark.parametrize(
        "A",
        [[[0.0, 0.0, 0.0]], [[0.0], [2.5]], [[1e-300, -1e300]], [[np.inf, 1.0]]],
    )
    @pytest.mark.parametrize("tol_rank", [DEFAULT_TOL_RANK, 0.0, 0.5, 1.0, 2.0])
    def test_single_row_or_column_rank(self, A, tol_rank):
        # a one-row split block and its one-column complement share one SVD,
        # whose one singular value is the norm: rank 1 for a finite nonzero
        # row below tol_rank 1, else 0
        A = np.array(A)
        want = int(tol_rank < 1 and np.isfinite(A).all() and A.any())
        assert numerical_rank(A, tol_rank) == numerical_rank(A.T, tol_rank) == want

    def test_single_row_with_nan_still_factored(self):
        A = np.array([[np.nan, 1.0]])
        for block in (A, A.T):
            with pytest.raises(np.linalg.LinAlgError):
                numerical_rank(block)


class TestSelectBases:
    def test_shared_catalecticants_yield_the_same_pairs(self, tensor1, tensor2):
        for T in (tensor1, tensor2, sparse_hard_input()):
            lam = build_moment_functional(T)
            cats = Catalecticants(lam)
            r = cats.flattening_rank()
            shared = [
                (B.names(), Bp.names()) for B, Bp in select_bases_candidates(cats, r)
            ]
            fresh = [
                (B.names(), Bp.names())
                for B, Bp in select_bases_candidates(Catalecticants(lam), r)
            ]
            assert shared and shared == fresh
        assert cats.splits[0].codes.shape == (1, 27)
        assert min(cats.splits[1].codes.shape) > cats.ranks[1] == 1 < r == 2

    def test_equal_rows_give_one_read_only_basis(self, tensor2, monkeypatch):
        monkeypatch.setattr(moment_module, "_bases", OrderedDict())
        lam = build_moment_functional(tensor2)
        r = Catalecticants(lam).flattening_rank()
        first = list(select_bases_candidates(Catalecticants(lam), r))
        again = list(select_bases_candidates(Catalecticants(lam), r))
        assert len(first) > 1
        for (B, Bp), (B2, Bp2) in zip(first, again, strict=True):
            assert B is B2 and Bp is Bp2
            for a in (B.exps, B.codes, B.plus, B.border):
                assert not a.flags.writeable
            names = B.names()
            names.append("x")
            assert B.names() == names[:-1]  # a fresh list each time
        # a basis built from the caller's rows copies them
        rows = first[0][0].exps.copy()
        assert MonomialBasis(tensor2.shape, rows) is not first[0][0]
        assert rows.flags.writeable

    def test_bases_are_built_once_over_decompose_calls(self, tensor2, monkeypatch):
        # the checks, B+, border and names of a basis run once however often
        # the selection yields it
        monkeypatch.setattr(moment_module, "_bases", OrderedDict())
        monkeypatch.setattr(extension_module, "_plans", OrderedDict())
        built = dict.fromkeys(("check", "plus", "border", "_names"), 0)

        def counted(name, fn):
            def wrapper(self, *a, **k):
                built[name] += 1
                return fn(self, *a, **k)
            return wrapper

        monkeypatch.setattr(MonomialBasis, "__post_init__",
                            counted("check", MonomialBasis.__post_init__))
        for name in ("plus", "border", "_names"):
            prop = MonomialBasis.__dict__[name]
            monkeypatch.setattr(prop, "func", counted(name, prop.func))
        dec = decompose(tensor2)
        assert all(built.values()), built
        built.update(dict.fromkeys(built, 0))
        assert repr(decompose(tensor2)) == repr(dec)
        assert built == dict.fromkeys(built, 0)

    def test_basis_cache_stays_within_its_bound(self, monkeypatch):
        monkeypatch.setattr(moment_module, "_bases", OrderedDict())
        monkeypatch.setattr(moment_module, "_BASIS_CACHE_SIZE", 4)
        shape = Shape(dims=(8,), degrees=(1,))
        names = ["1"] + [f"a{j + 1}" for j in range(8)]
        rows = [rows_of(shape, names[:i]) for i in range(1, 10)]
        bases = [_interned_basis(shape, e) for e in rows]
        # the least recently used went first
        assert list(moment_module._bases.values()) == bases[-4:]
        assert _interned_basis(shape, rows[-1]) is bases[-1]
        assert _interned_basis(shape, rows[0]) is not bases[0]

    def test_threads_share_the_basis_cache(self, monkeypatch):
        # more threads than cores, each asking for more bases than a cache
        # of two holds, so that lookups, insertions and evictions interleave
        monkeypatch.setattr(moment_module, "_bases", OrderedDict())
        monkeypatch.setattr(moment_module, "_BASIS_CACHE_SIZE", 2)
        shape = Shape(dims=(3, 3), degrees=(1, 1))
        names = [["1", "a1"][:i] + ["b1", "b2"][:j] for i in (1, 2) for j in range(3)]
        rows = [rows_of(shape, n) for n in names]
        errors = []

        def work():
            try:
                for _ in range(30):
                    for n, e in zip(names, rows):
                        B = _interned_basis(shape, e)
                        assert B.names() == n and len(B.border) == len(B.plus) - len(B)
            except Exception as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors[0]
        assert len(moment_module._bases) == 2

    def test_demo_rank4(self, tensor1, shape1):
        lam = build_moment_functional(tensor1)
        B, Bp = next(select_bases_candidates(Catalecticants(lam), 4))
        H, known = hankel(lam, Bp.exps, B.exps)
        assert known.all()
        assert H.shape == (4, 4)
        assert numerical_rank(H) == 4
        assert B.names() == ["1", "a1", "a2", "a3"]

    def test_demo_rank6_matches_reference_block(self, tensor2, shape2):
        lam = build_moment_functional(tensor2)
        B, Bp = next(select_bases_candidates(Catalecticants(lam), 6))
        assert B.names() == gd.H2_B_COLS
        assert Bp.names() == gd.H2_B_ROWS
        H, known = hankel(lam, Bp.exps, B.exps)
        assert known.all()
        np.testing.assert_array_equal(H, np.array(gd.H2, dtype=float))

    def test_rank_one_evaluation(self):
        shape = Shape(dims=(2, 2), degrees=(1, 1))
        zeta = Point(((1.5, -2.0), (0.5, 3.0)))
        dom = shape.monomials(enumerate_monomials(shape, list(shape.degrees)))
        lam = weighted_evaluation([2.0], [zeta], shape, dom)
        B, Bp = next(select_bases_candidates(Catalecticants(lam), 1))
        assert B.names() == Bp.names() == ["1"]

    def test_max_cond_refuses_below_tol_rank_1e_10(self, monkeypatch):
        # two nearby points: the 2 x 2 block has rank 2 at tol_rank 1e-14 but
        # a condition number above MAX_COND, which only such a tolerance lets
        # through rank selection (at 1e-8 the flattening rank is 1)
        shape = Shape((2, 2), (1, 1))
        points = [
            Point(((0.3, -0.7), (0.5, 0.2))),
            Point(((0.3 + 1e-6, -0.7), (0.5, 0.2 + 1e-6))),
        ]
        T = reconstruct(shape, [1.0, -2.0], points)
        lam = build_moment_functional(T)
        assert Catalecticants(lam).flattening_rank() == 1
        cats = Catalecticants(lam, 1e-14)
        assert cats.flattening_rank() == 2
        assert next(select_bases_candidates(cats, 2), None) is None
        with pytest.raises(DecompositionError) as info:
            decompose(T, DecomposeOptions(tol_rank=1e-14))
        assert info.value.report["stage"] == "bases"
        monkeypatch.setattr(moment_module, "MAX_COND", np.inf)
        assert len(list(select_bases_candidates(cats, 2))) == 2

    def test_impossible_rank_raises(self, tensor1):
        lam = build_moment_functional(tensor1)
        assert next(select_bases_candidates(Catalecticants(lam), 7), None) is None


class TestFlatteningRanks:
    def test_rank_lower_bound_matches_flattening(self, tensor2):
        lam = build_moment_functional(tensor2)
        ranks = [
            numerical_rank(hankel(
                lam,
                enumerate_monomials(lam.shape, list(rows)),
                enumerate_monomials(lam.shape, list(cols)),
            )[0])
            for cols, rows in degree_splits(lam.shape)
        ]
        assert max(ranks) == rank_lower_bound(tensor2) == 6

    def test_single_group_split_equals_unfolding_rank(self, tensor1, shape1):
        # moment matrix of a one-group-vs-rest split is the mode unfolding
        from tdec.decompose import _unfold, poly_to_array

        lam = build_moment_functional(tensor1)
        A = poly_to_array(tensor1)
        for g in range(3):
            col_bounds = tuple(1 if h == g else 0 for h in range(3))
            row_bounds = tuple(0 if h == g else 1 for h in range(3))
            C = hankel(
                lam,
                enumerate_monomials(lam.shape, list(row_bounds)),
                enumerate_monomials(lam.shape, list(col_bounds)),
            )[0]
            assert numerical_rank(C) == numerical_rank(_unfold(A, g))

    def test_generic_rank_r_reaches_r(self):
        # sum of r generic evaluations has moment-matrix rank exactly r
        rng = np.random.default_rng(11)
        shape = Shape(dims=(3, 3, 3), degrees=(1, 1, 1))
        dom = shape.monomials(enumerate_monomials(shape, list(shape.degrees)))
        pts = [
            Point(tuple(tuple(rng.uniform(-1, 1, n)) for n in shape.dims))
            for _ in range(3)
        ]
        lam = weighted_evaluation([1.0, -2.0, 0.5], pts, shape, dom)
        tensor = functional_to_tensor(lam, shape)
        assert rank_lower_bound(tensor) == 3
