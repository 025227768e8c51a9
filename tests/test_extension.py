import itertools

import numpy as np
import pytest

import golden_data as gd
from conftest import (
    basis_of,
    monomial_value,
    poly,
    rank_one_expand,
    relation_for,
    weighted_evaluation,
)
from tdec.algebra import Monomial, Point, Shape
from tdec.eigen import multiplication_matrix
from tdec.extension import (
    _Propagator,
    commutator_residual,
    flat_extension_check,
    propagate_commutation,
)
from tdec.moment import (
    MonomialBasis,
    UnresolvedParameterError,
    basis_plus,
    build_moment_functional,
    enumerate_monomials,
    hankel,
    select_bases_candidates,
)


def prefix_basis(shape, r):
    return MonomialBasis(shape, enumerate_monomials(shape, list(shape.degrees))[:r])


def target_of(prop, name):
    """Position of the named monomial among the propagator's targets."""
    shape = prop.shape
    code = Monomial.parse(name, shape).code(shape)
    hits = np.flatnonzero(shape.codes(prop.targets) == code)
    return int(hits[0]) if len(hits) else None


def random_points(rng, shape, r):
    return [
        Point(tuple(tuple(rng.uniform(-1, 1, n)) for n in shape.dims))
        for _ in range(r)
    ]


def complete_functional(shape, weights, points, B, Bp):
    """Moments of sum_i w_i 1_{z_i} on all products the checks may touch."""
    domain = set(shape.monomials(enumerate_monomials(shape, list(shape.degrees))))
    for mr in shape.monomials(basis_plus(Bp)):
        for mc in shape.monomials(basis_plus(B)):
            domain.add(mr * mc)
    return weighted_evaluation(weights, points, shape, sorted(domain, key=lambda m: m.sort_key()))


@pytest.fixture(scope="module")
def ex2(tensor2, shape2):
    lam = build_moment_functional(tensor2)
    B = basis_of(shape2, gd.H2_B_COLS)
    Bp = basis_of(shape2, gd.H2_B_ROWS)
    return shape2, lam, B, Bp


class TestKnownColumnRelations:
    """Relations whose column lam(b' * m) over B' is fully known follow from
    one solve against the base block, before any fixpoint pass."""

    @staticmethod
    def direct(lam, B, Bp):
        prop = _Propagator(lam, B, Bp, tol=1e-6)
        prop.resolve_direct()
        return prop

    def test_direct_relations_match_reference(self, ex2):
        shape2, lam, B, Bp = ex2
        prop = self.direct(lam, B, Bp)
        for name in ["b3", "a1*b1", "a2*b2"]:
            np.testing.assert_allclose(
                prop.tails[target_of(prop, name)],
                gd.RELATIONS2[name], atol=5e-4, rtol=1e-3,
            )

    def test_basis_member_gets_unit_tail(self, ex2):
        shape2, lam, B, Bp = ex2
        prop = self.direct(lam, B, Bp)
        a2 = shape2.variables().index((0, 1))
        kind, tail = prop._reduce_shift(a2, B.names().index("1"), prop.tails)
        assert kind == "known"
        np.testing.assert_allclose(tail, [0, 0, 1, 0, 0, 0])

    def test_unknown_column_rejected(self, ex2):
        shape2, lam, B, Bp = ex2
        prop = self.direct(lam, B, Bp)
        t = target_of(prop, "a1^2")
        assert t is not None
        assert prop.tails[t] is None

    def test_singular_block_rejected(self, shape2, tensor2):
        lam = build_moment_functional(tensor2)
        B = basis_of(shape2, ["1", "a1"])
        Bp = basis_of(shape2, ["1", "a1"])  # lam(a1^2) unknown
        with pytest.raises(UnresolvedParameterError):
            propagate_commutation(lam, B, Bp)


class TestIndexTables:
    """The propagator's tables built from monomial codes match the
    Monomial products they replace."""

    @pytest.mark.parametrize("order_seed", [None, 3])
    def test_shift_table_and_syzygy_pairs(self, ex2, order_seed):
        shape2, lam, B, Bp = ex2
        rng = None if order_seed is None else np.random.default_rng(order_seed)
        prop = _Propagator(lam, B, Bp, tol=1e-6, rng=rng)
        targets = shape2.monomials(prop.targets)
        basis = shape2.monomials(B.exps)
        variables = [shape2.variable(g, j) for g, j in shape2.variables()]
        for v, x in enumerate(variables):
            for s, b in enumerate(basis):
                m = x * b
                want = basis.index(m) if m in basis else -1 - targets.index(m)
                assert prop.shift[v][s] == want

        def factor(v):
            return shape2.one() if v < 0 else variables[v]

        # a common multiple at most one variable above both targets is
        # their lcm (distinct targets), and the factors are unique
        factors = [shape2.one(), *variables]
        pairs = []
        for i in range(len(targets)):
            for j in range(i + 1, len(targets)):
                for q1, q2 in itertools.product(factors, factors):
                    if q1 * targets[i] == q2 * targets[j]:
                        pairs.append((q1 * targets[i], i, j, q1, q2))
        pairs.sort(key=lambda p: p[0].sort_key())
        got = [
            (i, j, factor(v1), factor(v2)) for i, j, v1, v2 in prop.syzygy_pairs
        ]
        assert got == [p[1:] for p in pairs]
        assert len(got) > 0


class TestPropagation:
    def test_reference_relations(self, ex2):
        shape2, lam, B, Bp = ex2
        res = propagate_commutation(lam, B, Bp)
        assert res.extended
        for name, tail in gd.RELATIONS2.items():
            rel = relation_for(res, Monomial.parse(name, shape2))
            assert rel is not None, name
            np.testing.assert_allclose(rel.tail, tail, atol=5e-3)

    def test_extends_known_moments_exactly(self, ex2):
        shape2, lam, B, Bp = ex2
        res = propagate_commutation(lam, B, Bp)
        for m, v in lam.entries.items():
            assert res.functional.entries[m] == v

    def test_complete_flat_functional(self):
        rng = np.random.default_rng(0)
        shape = Shape(dims=(2, 2), degrees=(1, 1))
        pts = random_points(rng, shape, 3)
        lam_full = complete_functional(
            shape, [1.0, -1.0, 2.0], pts,
            prefix_basis(shape, 3), prefix_basis(shape, 3),
        )
        B, Bp = next(select_bases_candidates(lam_full, 3))
        res = propagate_commutation(lam_full, B, Bp)
        assert res.extended
        assert res.commutator_residual < 1e-10

    def test_oversized_rank_is_inconsistent(self):
        # restriction of a rank-4 form against bases of size 3
        rng = np.random.default_rng(1)
        shape = Shape(dims=(3, 3, 3), degrees=(1, 1, 1))
        pts = random_points(rng, shape, 4)
        T = rank_one_expand(shape, [1.0, 1.0, 1.0, 1.0], pts)
        lam = build_moment_functional(T)
        B, Bp = next(select_bases_candidates(lam, 3))
        res = propagate_commutation(lam, B, Bp)
        assert res.status == "inconsistent"

    def test_nullity_of_the_last_pass(self, ex2):
        # columns minus rank of the last fixpoint system: none are free in
        # an extension, some are when relations stay unresolved
        assert propagate_commutation(*ex2[1:]).diagnostics["nullity"] == 0
        rng = np.random.default_rng(11)
        shape = Shape(dims=(2, 2), degrees=(2, 2))
        pts = random_points(rng, shape, 6)
        ws = rng.uniform(0.5, 2.0, 6) * rng.choice([-1.0, 1.0], 6)
        lam = build_moment_functional(rank_one_expand(shape, ws, pts))
        res = propagate_commutation(lam, *next(select_bases_candidates(lam, 6)))
        assert res.status == "rank_deficient"
        assert res.diagnostics["nullity"] == 6

    def test_processing_order_invariance(self, ex2):
        shape2, lam, B, Bp = ex2
        base = propagate_commutation(lam, B, Bp)
        for order_seed in (1, 2):
            other = propagate_commutation(lam, B, Bp, order_seed=order_seed)
            assert other.extended
            for m, v in base.functional.entries.items():
                w = other.functional.entries[m]
                assert abs(complex(v) - complex(w)) <= 1e-8 * max(1.0, abs(complex(v)))

    def test_normal_form_of_basis_is_identity(self, ex2):
        # reducing a basis monomial returns the monomial itself
        shape2, lam, B, Bp = ex2
        from tdec.extension import DEFAULT_TOL_EXTEND, _NormalForms, _Propagator

        prop = _Propagator(lam, B, Bp, DEFAULT_TOL_EXTEND)
        assert prop.run() == "extended"
        normal_form = _NormalForms(shape2, prop.tables(), len(B), float)
        exps = B.exps
        for i, (e, code) in enumerate(zip(exps.tolist(), shape2.codes(exps).tolist())):
            nf = normal_form(e, code)
            expected = np.zeros(len(B))
            expected[i] = 1.0
            np.testing.assert_allclose(nf, expected, atol=1e-9)


def dense_svd_run(prop, reverse=False):
    """Reference fixpoint: every placeholder kept as a column of one dense
    system, solved by a full SVD of that system on every pass.  ``reverse``
    lists the equations in the opposite order, which changes only rounding."""
    prop.resolve_direct()
    r = prop.r
    n_places = int(prop.prod_place.max()) + 1
    for _ in range(len(prop.targets) + 1):
        unresolved = [t for t, tail in enumerate(prop.tails) if tail is None]
        if not unresolved:
            break
        n_x = len(unresolved) * r
        A, b = [], []
        for t, tail in enumerate(prop.tails):
            for row, data, place in zip(
                prop.rows, prop.prod_data[t], prop.prod_place[t]
            ):
                if place < 0 and tail is not None:
                    gap = abs(data - row @ tail) / max(1.0, abs(data))
                    prop.inconsistency = max(prop.inconsistency, gap)
                    continue
                a = np.zeros(n_x + n_places, dtype=prop.dtype)
                if tail is None:
                    k = unresolved.index(t)
                    a[k * r:(k + 1) * r] = row
                if place >= 0:
                    a[n_x + place] = -1.0 if tail is None else 1.0
                A.append(a)
                b.append(data if place < 0 else 0.0 if tail is None else row @ tail)
        X_s, b_s = prop._syzygy_equations(unresolved)
        A = np.vstack(A + [np.hstack([X_s, np.zeros((len(X_s), n_places))])])
        b = np.concatenate([b, b_s])
        if reverse:
            A, b = A[::-1], b[::-1]
        U, s, Vt = np.linalg.svd(A, full_matrices=False)
        rank = int(np.sum(s > max(A.shape) * np.finfo(float).eps * 100 * s[0]))
        x = Vt[:rank].conj().T @ ((U[:, :rank].conj().T @ b) / s[:rank])
        resid = np.linalg.norm(A @ x - b) / max(1.0, np.linalg.norm(b))
        prop.inconsistency = max(prop.inconsistency, resid)
        if prop.inconsistency > prop.tol:
            return "inconsistent"
        freedom = np.sqrt(np.maximum(0.0, 1.0 - np.linalg.norm(Vt[:rank], axis=0) ** 2))
        progress = False
        for k, t in enumerate(unresolved):
            if freedom[k * r:(k + 1) * r].max() <= 1e-7:
                prop.tails[t] = x[k * r:(k + 1) * r]
                progress = True
        if not progress:
            break
    if prop.inconsistency > prop.tol:
        return "inconsistent"
    if any(tail is None for tail in prop.tails):
        return "rank_deficient"
    return "extended"


def exact_tail(B, points, m):
    """Normal form of m over B in the quotient by the planted points."""
    V = np.array([[monomial_value(p, b) for b in B.shape.monomials(B.exps)] for p in points])
    return np.linalg.solve(V, np.array([monomial_value(p, m) for p in points]))


class TestProjectedSolve:
    """The fixpoint with placeholders projected out and the solve through the
    R factor decides as the dense SVD of the whole system does."""

    @pytest.fixture(
        params=["example2", "generic-4x4x6-r6", "oversized-rank"]
    )
    def case(self, request, ex2, points2):
        if request.param == "example2":
            return ex2[1:], points2, "extended"
        rng = np.random.default_rng(2 if request.param.startswith("generic") else 1)
        dims, r, ws = (3, 3, 5), 6, rng.uniform(0.5, 2.0, 6)
        if request.param == "oversized-rank":
            # as in test_oversized_rank_is_inconsistent
            dims, r, ws = (3, 3, 3), 4, [1.0, 1.0, 1.0, 1.0]
        shape = Shape(dims=dims, degrees=(1, 1, 1))
        pts = random_points(rng, shape, r)
        lam = build_moment_functional(rank_one_expand(shape, ws, pts))
        if request.param == "oversized-rank":
            return (lam, *next(select_bases_candidates(lam, 3))), None, "inconsistent"
        return (lam, *next(select_bases_candidates(lam, r))), pts, "extended"

    def test_same_decisions_and_tails(self, case):
        (lam, B, Bp), points, status = case
        new = _Propagator(lam, B, Bp, tol=1e-6)
        ref = _Propagator(lam, B, Bp, tol=1e-6)
        rev = _Propagator(lam, B, Bp, tol=1e-6)
        assert new.run() == dense_svd_run(ref) == dense_svd_run(rev, True) == status
        solved = [t for t, tail in enumerate(ref.tails) if tail is not None]
        for prop in (new, rev):
            assert [t for t, tail in enumerate(prop.tails) if tail is not None] == solved
        targets = lam.shape.monomials(ref.targets)

        def gap(tails, t):
            tail = ref.tails[t]
            return np.abs(tails[t] - tail).max() / max(1.0, np.abs(tail).max())

        # the bound is 1e-10 unless the reference moves by more than that
        # when only the order of its equations changes (3.0e-10 on example2)
        spread = max((gap(rev.tails, t) for t in solved), default=0.0)
        bound = max(1e-10, 2 * spread)
        for t in solved:
            m, tail = targets[t], ref.tails[t]
            assert gap(new.tails, t) <= bound, str(m)
            if points is not None:
                scale = max(1.0, np.abs(tail).max())
                exact = exact_tail(B, points, m)
                assert np.abs(new.tails[t] - exact).max() <= 1e-10 * scale, str(m)


class TestCommutatorResidual:
    def test_single_matrix(self):
        assert commutator_residual([np.eye(3)]) == 0.0

    def test_reference_family_commutes(self, tensor1, shape1):
        lam = build_moment_functional(tensor1)
        B = basis_of(shape1, gd.H1_B_COLS)
        Bp = basis_of(shape1, gd.H1_B_ROWS)
        mats = [multiplication_matrix(lam, B, Bp, (2, l)) for l in range(3)]
        assert commutator_residual(mats) < 1e-8

    def test_random_pair_does_not_commute(self):
        rng = np.random.default_rng(7)
        mats = [rng.normal(size=(4, 4)) for _ in range(2)]
        assert commutator_residual(mats) > 0.01


class TestFlatExtensionCheck:
    def test_true_for_genuine_rank(self):
        rng = np.random.default_rng(5)
        shape = Shape(dims=(2, 2), degrees=(1, 1))
        pts = random_points(rng, shape, 3)
        B = prefix_basis(shape, 3)
        lam = complete_functional(shape, [1.0, 2.0, -0.5], pts, B, B)
        assert flat_extension_check(lam, B, B)

    def test_false_above_rank(self):
        rng = np.random.default_rng(6)
        shape = Shape(dims=(3, 3, 3), degrees=(1, 1, 1))
        pts = random_points(rng, shape, 4)
        B = prefix_basis(shape, 3)
        lam = complete_functional(shape, [1.0, 1.0, 1.0, 1.0], pts, B, B)
        assert not flat_extension_check(lam, B, B)

    def test_rank_one_evaluation(self):
        shape = Shape(dims=(2,), degrees=(2,))
        zeta = Point(((0.7, -0.3),))
        B = prefix_basis(shape, 1)
        lam = complete_functional(shape, [2.0], [zeta], B, B)
        assert flat_extension_check(lam, B, B)

    def test_agreement_with_commutation(self):
        # rank criterion iff the multiplication family commutes; with one
        # variable or a single basis element every family commutes trivially,
        # so those degenerate sizes are excluded
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 40:
            k = int(rng.integers(1, 4))
            dims = tuple(int(rng.integers(1, 4)) for _ in range(k))
            if sum(dims) < 2:
                continue
            degrees = tuple(
                int(rng.integers(1, 3)) if k < 3 else 1 for _ in range(k)
            )
            shape = Shape(dims=dims, degrees=degrees)
            r = int(rng.integers(2, 6))
            if r > shape.ambient_dim - 1:
                continue
            true_rank = r if rng.uniform() < 0.5 else r + 1
            pts = random_points(rng, shape, true_rank)
            ws = rng.uniform(0.5, 2.0, true_rank) * rng.choice([-1, 1], true_rank)
            B = prefix_basis(shape, r)
            lam = complete_functional(shape, ws, pts, B, B)
            H = hankel(lam, B.exps, B.exps).numeric()
            if np.linalg.cond(H) > 1e8:
                continue
            mats = [
                multiplication_matrix(lam, B, B, v)
                for v in shape.variables()
            ]
            flat = flat_extension_check(lam, B, B)
            commuting = commutator_residual(mats) < 1e-8
            assert flat == commuting, (shape, r, true_rank, flat, commuting)
            checked += 1


class TestRankFactorCheck:
    """The flat check on moments completed over the bordered basis B+."""

    def test_true_for_genuine_rank(self):
        rng = np.random.default_rng(3)
        shape = Shape(dims=(2, 2), degrees=(1, 1))
        pts = random_points(rng, shape, 3)
        B = prefix_basis(shape, 3)
        lam = complete_functional(shape, [1.0, -2.0, 0.5], pts, B, B)
        assert flat_extension_check(lam, B, B)

    def test_perturbed_corner_fails(self):
        rng = np.random.default_rng(4)
        shape = Shape(dims=(2, 2), degrees=(1, 1))
        pts = random_points(rng, shape, 3)
        B = prefix_basis(shape, 3)
        lam = complete_functional(shape, [1.0, -2.0, 0.5], pts, B, B)
        last = shape.monomials(basis_plus(B)[-1:])[0]
        lam.set(last * last, lam.known_value(last * last) + 1.0)
        assert not flat_extension_check(lam, B, B)

    def test_vacuous_when_no_border(self):
        shape = Shape(dims=(1,), degrees=(2,))
        rng = np.random.default_rng(5)
        pts = random_points(rng, shape, 3)
        B = prefix_basis(shape, 3)  # every monomial of the known range
        lam = complete_functional(shape, [1.0, 1.0, 1.0], pts, B, B)
        assert flat_extension_check(lam, B, B)
