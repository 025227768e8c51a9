import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden_data as gd
from conftest import (
    basis_of,
    evaluation_functional,
    functional_to_tensor,
    poly,
    rank_one_expand,
    rows_of,
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
    MonomialBasis,
    UnresolvedParameterError,
    _greedy_staircase,
    basis_plus,
    border,
    build_moment_functional,
    catalecticant,
    degree_splits,
    enumerate_monomials,
    hankel,
    numerical_rank,
    select_bases_candidates,
)
from tdec.decompose import rank_lower_bound, reconstruct


class TestBuildMomentFunctional:
    def test_demo_moments(self, tensor1, shape1):
        lam = build_moment_functional(tensor1)
        get = lambda s: lam.known_value(Monomial.parse(s, shape1))
        assert get("1") == 4
        assert get("a1") == 7
        assert get("a1*b1") == 21
        assert get("a1*b1*c1") == 68

    def test_zero_tensor(self):
        shape = Shape(dims=(2, 2), degrees=(1, 1))
        lam = build_moment_functional(Polynomial(shape, {}))
        assert all(v == 0 for v in lam.entries.values())
        assert len(lam.entries) == shape.ambient_dim

    def test_binary_cubic_divides_binomials(self):
        # (1 + 2x)^3 has moments equal to powers of 2
        shape = Shape(dims=(1,), degrees=(3,))
        x = Monomial.parse("a1", shape)
        T = Polynomial(shape, {shape.one(): 1, x: 6, x * x: 12, x * x * x: 8})
        lam = build_moment_functional(T)
        assert lam.known_value(shape.one()) == 1
        assert lam.known_value(x) == 2
        assert lam.known_value(x * x) == 4
        assert lam.known_value(x * x * x) == 8


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
            assert lam.known_value(m) == pytest.approx(ref.known_value(m), rel=1e-10)
        tensor = functional_to_tensor(ref, shape)
        expected = rank_one_expand(shape, ws, pts)
        for m in set(tensor.terms) | set(expected.terms):
            assert tensor.coeff(m) == pytest.approx(expected.coeff(m), rel=1e-10)


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
    return sorted(monos, key=lambda m: m.sort_key())


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
        assert list(table.monomials) == monos
        assert np.array_equal(table.exps, shape.exponents(monos))
        assert table.multinomials.tolist() == [
            math.prod(math.factorial(d) // (
                math.prod(math.factorial(x) for x in e) * math.factorial(d - sum(e))
            ) for d, e in zip(degrees, m.exps))
            for m in monos
        ]
        assert all(table.index[m] == i for i, m in enumerate(monos))
        for g, G in enumerate(table.group_exps):
            parts = [m.exps[g] for m in monos]
            assert [tuple(G[i]) for i in table.group_index[:, g]] == parts
            assert table.degrees[:, g].tolist() == [sum(e) for e in parts]

    def test_thirty_variables(self):
        # (b + 1)^n candidates would be 2^30 tuples for 31 monomials
        shape = Shape(dims=(30,), degrees=(1,))
        start = time.process_time()
        monos = enumerate_monomials(shape, [1])
        lam = build_moment_functional(Polynomial(shape, {shape.variable(0, 29): 2.0}))
        assert time.process_time() - start < 1.0
        assert len(monos) == 31
        assert [str(m) for m in shape.monomials(monos[:3])] == ["1", "a1", "a2"]
        assert lam.known_value(shape.variable(0, 29)) == 2.0


class TestBasisPlus:
    def test_univariate(self):
        shape = Shape(dims=(1,), degrees=(2,))
        B = basis_of(shape, ["1"])
        assert [str(m) for m in shape.monomials(basis_plus(B))] == ["1", "a1"]

    def test_three_variables(self):
        shape = Shape(dims=(3,), degrees=(2,))
        B = basis_of(shape, ["1", "a1"])
        out = shape.monomials(basis_plus(B))
        assert [str(m) for m in out] == [
            "1", "a1", "a2", "a3", "a1^2", "a1*a2", "a1*a3",
        ]

    def test_demo_border_contains_reduction_targets(self, shape2):
        B = basis_of(shape2, gd.H2_B_COLS)
        plus = set(str(m) for m in shape2.monomials(basis_plus(B)))
        for s in ["a1*b3", "a2*b3", "a3*b3", "a1^2", "a1*a2", "a2*a3", "b3"]:
            assert s in plus
        edge = shape2.monomials(border(B))
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
            variables = [shape.variable(g, j) for g, j in shape.variables()]
            plus = set(basis) | {x * b for x in variables for b in basis}
            want = sorted(plus, key=lambda m: m.sort_key())
            assert shape.monomials(basis_plus(B)) == want
            assert shape.monomials(border(B)) == [m for m in want if m not in basis]
            assert B.codes.tolist() == [m.code(shape) for m in basis]

    def test_staircase_connectivity_matches_monomial_loop(self, shape2):
        # identity columns: a monomial raises the rank unless its column is
        # zeroed, so the staircase is the connected scan over the live ones
        rng = np.random.default_rng(4)
        for shape in (Shape(dims=(3,), degrees=(2,)), shape2):
            pool = enumerate_monomials(shape, list(shape.degrees))
            monos = shape.monomials(pool)
            live = rng.uniform(size=len(monos)) < 0.7
            live[0] = True
            variables = [shape.variable(g, j) for g, j in shape.variables()]
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
            (rows[1:], "must contain the monomial 1"),
            (rows_of(shape2, ["1", "a1", "a2*b1"]), r"not connected to 1 at a2\*b1"),
        ]:
            with pytest.raises(ValueError, match=message):
                MonomialBasis(shape2, bad)


class TestHankel:
    def test_demo_4x4(self, tensor1, shape1):
        lam = build_moment_functional(tensor1)
        H = hankel(lam, rows_of(shape1, gd.H1_B_ROWS), rows_of(shape1, gd.H1_B_COLS))
        assert H.fully_known
        np.testing.assert_array_equal(H.numeric(), np.array(gd.H1, dtype=float))

    def test_demo_6x6(self, tensor2, shape2):
        lam = build_moment_functional(tensor2)
        H = hankel(lam, rows_of(shape2, gd.H2_B_ROWS), rows_of(shape2, gd.H2_B_COLS))
        assert H.fully_known
        np.testing.assert_array_equal(H.numeric(), np.array(gd.H2, dtype=float))

    def test_single_entry(self, tensor1, shape1):
        lam = build_moment_functional(tensor1)
        B = rows_of(shape1, ["1"])
        H = hankel(lam, B, B)
        assert H.numeric() == np.array([[4.0]])

    def test_transpose_swaps_bases(self, tensor1, shape1):
        lam = build_moment_functional(tensor1)
        B = rows_of(shape1, ["1", "a1", "a2"])
        Bp = rows_of(shape1, ["1", "b1", "c2"])
        H1 = hankel(lam, Bp, B)
        H2 = hankel(lam, B, Bp)
        np.testing.assert_allclose(H1.numeric(), H2.numeric().T)

    def test_quasi_hankel_parameter_sharing(self):
        shape = Shape(dims=(2,), degrees=(1,))
        x, y = shape.variable(0, 0), shape.variable(0, 1)
        lam = MomentFunctional(
            shape, {shape.one(): 1.0, x: 2.0, y: 3.0}
        )
        B = [shape.one(), x, y]
        H = hankel(lam, shape.exponents(B), shape.exponents(B))
        # the unknown moments sit exactly where the product leaves the data;
        # x*y shows up at both (1,2) and (2,1)
        expected = [[True, True, True], [True, False, False], [True, False, False]]
        assert H.known.tolist() == expected
        assert B[1] * B[2] == B[2] * B[1] == x * y
        assert not H.fully_known
        with pytest.raises(UnresolvedParameterError):
            H.numeric()
        np.testing.assert_array_equal(H.values[~H.known], 0.0)

    def test_shifted_matches_definition(self, tensor1, shape1):
        # shifted rows x_v * b' give the matrix of lam(x_v b' b)
        lam = build_moment_functional(tensor1)
        B = [Monomial.parse(s, shape1) for s in gd.H1_B_COLS]
        Bp = [Monomial.parse(s, shape1) for s in gd.H1_B_ROWS]
        c1 = Monomial.parse("c1", shape1)
        Hs = hankel(lam, shape1.exponents([c1 * q for q in Bp]), shape1.exponents(B))
        for i, mr in enumerate(Bp):
            for j, mc in enumerate(B):
                assert Hs.values[i, j] == lam.known_value(c1 * mr * mc)

    def test_shifted_of_evaluation(self):
        shape = Shape(dims=(2,), degrees=(1,))
        zeta = Point(((5.0, -3.0),))
        dom = shape.monomials(enumerate_monomials(shape, [2]))
        lam = evaluation_functional(zeta, shape, dom)
        B = [shape.one()]
        Hs = hankel(
            lam, shape.exponents([shape.variable(0, 1) * q for q in B]),
            shape.exponents(B),
        )
        assert Hs.numeric() == np.array([[-3.0]])


def naive_hankel(lam, rows, cols):
    """Reference for hankel: one Monomial product and one lookup per entry."""
    dtype = complex if lam.uses_complex() else float
    values = np.zeros((len(rows), len(cols)), dtype=dtype)
    known = np.zeros((len(rows), len(cols)), dtype=bool)
    for i, mr in enumerate(rows):
        for j, mc in enumerate(cols):
            v = lam.entries.get(mr * mc)
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
        plus = shape.monomials(basis_plus(B))
        edge = shape.monomials(border(B))
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
        lam = MomentFunctional(shape, entries)
        seen = set()
        for rows, cols in blocks:
            H = hankel(lam, shape.exponents(rows), shape.exponents(cols))
            values, known = naive_hankel(lam, rows, cols)
            assert H.values.dtype == values.dtype
            np.testing.assert_array_equal(H.known, known)
            np.testing.assert_array_equal(H.values, values)
            seen.update(known.ravel().tolist())
        assert seen == {True, False}

    def test_codes_add_under_multiplication(self):
        shape = Shape(dims=(1,), degrees=(6,))
        x7 = Monomial.parse("a1^7", shape)
        assert x7.code(shape) + x7.code(shape) == (x7 * x7).code(shape)
        shape = Shape(dims=(7, 7, 7), degrees=(1, 1, 1))
        a = Monomial.parse("a7^2*b1*c7", shape)
        b = Monomial.parse("a7*c7^2", shape)
        assert a.code(shape) + b.code(shape) == (a * b).code(shape)

    def test_exponent_beyond_radix_raises(self):
        shape = Shape(dims=(1,), degrees=(6,))
        assert shape.radix == (15,)
        with pytest.raises(DegreeOverflowError):
            Monomial.parse("a1^15", shape).code(shape)
        # each factor has a code, their product would not
        x7, x8 = Monomial.parse("a1^7", shape), Monomial.parse("a1^8", shape)
        lam = MomentFunctional(shape, {shape.one(): 1.0})
        rows = shape.exponents([x8, x7, x7])
        with pytest.raises(DegreeOverflowError):
            hankel(lam, rows[:1], rows[1:2])
        assert not hankel(lam, rows[1:], rows[1:2]).known.any()

    def test_codes_beyond_int64_stay_exact(self):
        shape = Shape(dims=(30,), degrees=(1,))  # radix 5 on 30 variables
        first, last = shape.variable(0, 0), shape.variable(0, 29)
        assert last.code(shape) == 5**29 > 2**63
        assert (first * last).code(shape) == 1 + 5**29
        lam = MomentFunctional(shape, {last * last: 2.0, first * last: 3.0})
        rows = shape.exponents([first, last])
        H = hankel(lam, rows, rows[1:])
        np.testing.assert_array_equal(H.values, [[3.0], [2.0]])

    def test_writes_reach_the_next_hankel(self):
        shape = Shape(dims=(2,), degrees=(1,))
        x, y = shape.variable(0, 0), shape.variable(0, 1)
        lam = MomentFunctional(shape, {shape.one(): 1.0, x: 2.0, y: 3.0})
        B = shape.exponents([shape.one(), x])
        assert not hankel(lam, B, B).known[1, 1]
        lam.set(x * x, 5.0)
        lam.set(x, -2.0)
        np.testing.assert_array_equal(
            hankel(lam, B, B).numeric(), [[1.0, -2.0], [-2.0, 5.0]]
        )
        with pytest.raises(TypeError):
            lam.entries[x] = 0.0


class TestNumericalRank:
    def test_exact_rank(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(6, 3)) @ rng.normal(size=(3, 7))
        assert numerical_rank(A) == 3

    def test_zero(self):
        assert numerical_rank(np.zeros((3, 3))) == 0


class TestSelectBases:
    def test_demo_rank4(self, tensor1, shape1):
        lam = build_moment_functional(tensor1)
        B, Bp = next(select_bases_candidates(lam, 4))
        H = hankel(lam, Bp.exps, B.exps).numeric()
        assert H.shape == (4, 4)
        assert numerical_rank(H) == 4
        assert B.names() == ["1", "a1", "a2", "a3"]

    def test_demo_rank6_matches_reference_block(self, tensor2, shape2):
        lam = build_moment_functional(tensor2)
        B, Bp = next(select_bases_candidates(lam, 6))
        assert B.names() == gd.H2_B_COLS
        assert Bp.names() == gd.H2_B_ROWS
        np.testing.assert_array_equal(
            hankel(lam, Bp.exps, B.exps).numeric(), np.array(gd.H2, dtype=float)
        )

    def test_rank_one_evaluation(self):
        shape = Shape(dims=(2, 2), degrees=(1, 1))
        zeta = Point(((1.5, -2.0), (0.5, 3.0)))
        dom = shape.monomials(enumerate_monomials(shape, list(shape.degrees)))
        lam = weighted_evaluation([2.0], [zeta], shape, dom)
        B, Bp = next(select_bases_candidates(lam, 1))
        assert B.names() == Bp.names() == ["1"]

    def test_impossible_rank_raises(self, tensor1):
        lam = build_moment_functional(tensor1)
        assert next(select_bases_candidates(lam, 7), None) is None


class TestFlatteningRanks:
    def test_rank_lower_bound_matches_flattening(self, tensor2):
        lam = build_moment_functional(tensor2)
        ranks = [
            numerical_rank(catalecticant(lam, rows, cols)[0])
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
            C, _, _ = catalecticant(lam, row_bounds, col_bounds)
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
