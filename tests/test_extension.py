import importlib
import itertools
import re
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden_data as gd
from conftest import (
    basis_of,
    canonical_sorted,
    code,
    count_calls,
    data_table,
    monomial_value,
    one,
    parse_monomial,
    poly,
    rank_one_expand,
    relation_for,
    shuffled_border,
    syzygy_reference,
    variable,
    weighted_evaluation,
)
from tdec.algebra import (
    MomentFunctional,
    Point,
    Polynomial,
    Shape,
    canonical_order,
    first_unknown,
)
from tdec.eigen import family_from_functional
from tdec.extension import (
    _LEAF,
    _NULLSPACE_TOL,
    _PLAN_CACHE_SIZE,
    COMMUTE_TOL,
    DEFAULT_TOL_EXTEND,
    Family,
    MAX_EVALUATIONS,
    _build_plan,
    _certified,
    _inverse_lower,
    _least_squares,
    _null_basis,
    _plan,
    _plans,
    _Propagator,
    _reduction_walk,
    _walk_forms,
    commutator_residual,
    flat_extension_check,
    propagate_commutation,
)
from tdec.moment import (
    Catalecticants,
    MonomialBasis,
    build_moment_functional,
    enumerate_monomials,
    hankel,
    select_bases_candidates,
)
from tdec.decompose import DecomposeOptions, DecompositionError, decompose
from tdec.files import TensorFile, synthesize

# the benchmark's instances, imported read-only as scripts/sameness.py does
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


def prefix_basis(shape, r):
    return MonomialBasis(shape, enumerate_monomials(shape, list(shape.degrees))[:r])


def first_pair(lam, r):
    """The first basis pair of size r that selection yields for lam."""
    return next(select_bases_candidates(Catalecticants(lam), r))


def target_of(prop, name):
    """Position of the named monomial among the propagator's targets."""
    names = [str(m) for m in prop.plan.leads]
    return names.index(name) if name in names else None


def random_points(rng, shape, r):
    return [
        Point(tuple(tuple(rng.uniform(-1, 1, n)) for n in shape.dims))
        for _ in range(r)
    ]


def complete_functional(shape, weights, points, B, Bp):
    """Moments of sum_i w_i 1_{z_i} on all products the checks may touch."""
    domain = set(shape.monomials(enumerate_monomials(shape, list(shape.degrees))))
    for mr in shape.monomials(Bp.plus):
        for mc in shape.monomials(B.plus):
            domain.add(mr * mc)
    return weighted_evaluation(weights, points, shape, canonical_sorted(shape, domain))


@pytest.fixture(scope="module")
def ex2(tensor2, shape2):
    lam = build_moment_functional(tensor2)
    B = basis_of(shape2, gd.H2_B_COLS)
    Bp = basis_of(shape2, gd.H2_B_ROWS)
    return shape2, lam, B, Bp


@pytest.fixture
def uncached(monkeypatch):
    """Every completion builds its plan afresh: plans are cached under the
    codes of the bases, which ``shuffled_border`` keeps."""
    monkeypatch.setattr("tdec.extension._plan", _build_plan)


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
            slot = prop.r + target_of(prop, name)
            assert prop.known[slot]
            np.testing.assert_allclose(
                prop.table[slot], gd.RELATIONS2[name], atol=5e-4, rtol=1e-3,
            )

    def test_basis_member_gets_unit_tail(self, ex2):
        shape2, lam, B, Bp = ex2
        prop = self.direct(lam, B, Bp)
        a2 = shape2.variables().index((0, 1))
        slot = prop.plan.shift[a2, B.names().index("1")]
        assert prop.known[slot]
        np.testing.assert_allclose(prop.table[slot], [0, 0, 1, 0, 0, 0])

    def test_unknown_column_rejected(self, ex2):
        shape2, lam, B, Bp = ex2
        prop = self.direct(lam, B, Bp)
        t = target_of(prop, "a1^2")
        assert t is not None
        assert not prop.known[prop.r + t]
        assert not prop.table[prop.r + t].any()

    def test_singular_block_rejected(self, shape2, tensor2):
        lam = build_moment_functional(tensor2)
        B = basis_of(shape2, ["1", "a1"])
        Bp = basis_of(shape2, ["1", "a1"])  # lam(a1^2) unknown
        with pytest.raises(ValueError, match="unknown entries"):
            propagate_commutation(lam, B, Bp)


class TestInconsistency:
    def test_reported_as_python_float(self, ex2, tensor2):
        # the least-squares share of the gap was once a numpy float64
        shape2, _, B, Bp = ex2
        rng = np.random.default_rng(0)
        noisy = Polynomial(shape2, {
            m: c + 1e-2 * rng.normal() for m, c in tensor2.terms.items()
        })
        ext = propagate_commutation(build_moment_functional(noisy), B, Bp)
        assert ext.status == "inconsistent"
        assert type(ext.diagnostics["inconsistency"]) is float


class TestIndexTables:
    """The propagator's tables built from monomial codes match the
    Monomial products they replace."""

    @pytest.mark.parametrize("order_seed", [None, 3])
    def test_shift_table_and_syzygy_pairs(self, ex2, order_seed, uncached):
        shape2, lam, B, Bp = ex2
        if order_seed is not None:
            canonical = B.border
            B = shuffled_border(B, order_seed)
            assert (B.border != canonical).any()
        prop = _Propagator(lam, B, Bp, tol=1e-6)
        targets = shape2.monomials(prop.plan.targets)
        basis = shape2.monomials(B.exps)
        variables = [variable(shape2, g, j) for g, j in shape2.variables()]
        for v, x in enumerate(variables):
            for s, b in enumerate(basis):
                m = x * b
                want = basis.index(m) if m in basis else len(B) + targets.index(m)
                assert prop.plan.shift[v][s] == want

        def factor(v):
            return one(shape2) if v < 0 else variables[v]

        # a common multiple at most one variable above both targets is
        # their lcm (distinct targets), and the factors are unique
        factors = [one(shape2), *variables]
        pairs = []
        for i in range(len(targets)):
            for j in range(i + 1, len(targets)):
                for q1, q2 in itertools.product(factors, factors):
                    if q1 * targets[i] == q2 * targets[j]:
                        pairs.append((q1 * targets[i], i, j, q1, q2))
        order = canonical_order(shape2.exponents([p[0] for p in pairs]))
        pairs = [pairs[i] for i in order]
        got = [
            (i, j, factor(v1), factor(v2)) for i, j, v1, v2 in prop.plan.syzygy_pairs
        ]
        assert got == [p[1:] for p in pairs]
        assert len(got) > 0


class TestPropagation:
    def test_reference_relations(self, ex2):
        shape2, lam, B, Bp = ex2
        res = propagate_commutation(lam, B, Bp)
        assert res.extended
        for name, want in gd.RELATIONS2.items():
            tail = relation_for(res, B, parse_monomial(name, shape2))
            assert tail is not None, name
            np.testing.assert_allclose(tail, want, atol=5e-3)

    def test_extends_known_moments_exactly(self, ex2):
        shape2, lam, B, Bp = ex2
        res = propagate_commutation(lam, B, Bp)
        got, known = res.functional.lookup(lam.codes)
        assert known.all()
        np.testing.assert_array_equal(got, lam.values)

    def test_complete_flat_functional(self):
        rng = np.random.default_rng(0)
        shape = Shape(dims=(2, 2), degrees=(1, 1))
        pts = random_points(rng, shape, 3)
        lam_full = complete_functional(
            shape, [1.0, -1.0, 2.0], pts,
            prefix_basis(shape, 3), prefix_basis(shape, 3),
        )
        B, Bp = first_pair(lam_full, 3)
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
        B, Bp = first_pair(lam, 3)
        res = propagate_commutation(lam, B, Bp)
        assert res.status == "inconsistent"
        assert res.functional is None

    def test_nullity_of_the_last_pass(self, ex2):
        # columns minus rank of the last fixpoint system: none are free in
        # an extension, some are when relations stay unresolved
        assert propagate_commutation(*ex2[1:]).diagnostics["nullity"] == 0
        rng = np.random.default_rng(11)
        shape = Shape(dims=(2, 2), degrees=(2, 2))
        pts = random_points(rng, shape, 6)
        ws = rng.uniform(0.5, 2.0, 6) * rng.choice([-1.0, 1.0], 6)
        lam = build_moment_functional(rank_one_expand(shape, ws, pts))
        res = propagate_commutation(lam, *first_pair(lam, 6))
        assert res.status == "rank_deficient"
        assert res.diagnostics["nullity"] == 6

    def test_no_functional_without_extension(self):
        # relations left free are no flat extension: the completion reports
        # its diagnostics, and completes no moment and no table
        res = propagate_commutation(*above_rank_4x4())
        assert res.status == "rank_deficient"
        assert res.functional is None
        assert res.tables is None
        assert res.commutator_residual is None
        assert res.diagnostics["nullity"] == 20

    def test_nan_commutator_refuses(self, ex2, monkeypatch):
        monkeypatch.setattr(
            "tdec.extension.commutator_residual", lambda mats: float("nan")
        )
        res = propagate_commutation(*ex2[1:])
        assert res.status == "inconsistent"
        assert res.functional is None

    def test_processing_order_invariance(self, ex2, uncached):
        shape2, lam, B, Bp = ex2
        base = propagate_commutation(lam, B, Bp)
        for order_seed in (1, 2):
            other = propagate_commutation(lam, shuffled_border(B, order_seed), Bp)
            assert other.extended
            v = base.functional.values
            w, known = other.functional.lookup(base.functional.codes)
            assert known.all()
            assert (np.abs(v - w) <= 1e-8 * np.maximum(1.0, np.abs(v))).all()

    def test_normal_form_of_basis_is_identity(self, ex2):
        # reducing a basis monomial returns the monomial itself
        shape2, lam, B, Bp = ex2
        prop = _Propagator(lam, B, Bp, DEFAULT_TOL_EXTEND)
        assert prop.run() == "extended"
        nf = _walk_forms(_reduction_walk(shape2, B.exps, B.codes), prop.tables())
        np.testing.assert_allclose(nf, np.eye(len(B)), atol=1e-9)


class TestTableHandoff:
    """An extension hands the tables whose commutation it checked to the
    eigen stage; no second set is read from the completed functional."""

    @pytest.mark.parametrize("which", [1, 2])
    def test_eigen_stage_reads_the_certified_tables(
        self, which, tensor1, tensor2, monkeypatch
    ):
        decompose_module = importlib.import_module("tdec.decompose")
        complete = decompose_module.propagate_commutation
        eigen = decompose_module.joint_eigenvectors
        extensions, read = [], []

        def completion(*args, **kwargs):
            extensions.append(complete(*args, **kwargs))
            return extensions[-1]

        def roots(B, tables, seed=0):
            read.append(tables)
            return eigen(B, tables, seed=seed)

        monkeypatch.setattr(decompose_module, "propagate_commutation", completion)
        monkeypatch.setattr(decompose_module, "joint_eigenvectors", roots)
        decompose(tensor1 if which == 1 else tensor2)
        assert read
        for tables in read:
            ext = next(e for e in extensions if e.tables is tables)
            assert ext.extended
            assert commutator_residual(tables) == ext.commutator_residual

    @pytest.mark.parametrize("which", [1, 2])
    def test_tables_match_the_functional_reference(self, which, tensor1, tensor2):
        lam = build_moment_functional(tensor1 if which == 1 else tensor2)
        B, Bp = first_pair(lam, Catalecticants(lam).flattening_rank())
        ext = propagate_commutation(lam, B, Bp)
        assert ext.extended
        ref = family_from_functional(ext.functional, B, Bp)
        assert ext.tables.shape == ref.shape
        assert np.abs(ext.tables - ref).max() <= 1e-9 * np.abs(ref).max()
        # x_v * b_s inside B reduces to itself: an exact unit column
        shape = lam.shape
        variables = np.eye(sum(shape.dims), dtype=np.int64)
        products = shape.product_codes(variables, B.exps)
        inside = 0
        for v, s in zip(*np.nonzero(np.isin(products, B.codes))):
            unit = (B.codes == products[v, s]).astype(float)
            assert ext.tables[v][:, s].tobytes() == unit.tobytes()
            inside += 1
        assert inside > 0

    def test_first_pair_decomposes_small_mixed_seed_12_instance_75(self):
        # a (2,2,2)/(1,1,2) r4 instance whose first pair fails verify
        # (residual 6.97e-6) when its tables are solved again from the
        # completed functional, and passes with the completion's own
        inst = workloads.small_mixed(12)[75]
        T = TensorFile.from_obj(workloads.tensor_file_obj(inst)).tensor
        dec = decompose(T, DecomposeOptions(seed=0))
        assert dec.meta["basis"] == ["1", "a1", "a2", "c1"]
        assert dec.residual < 1e-7


def memo_normal_forms(shape, tables, exps, codes):
    """Reference reduction, one memo walk per monomial: NF(1) = e_1 and
    NF(m) = M_v NF(m / x_v) for the last variable v of m, memoized by code."""
    mats, r, dtype = list(tables), tables.shape[1], tables.dtype
    places = shape.variable_codes.tolist()
    one = np.zeros(r, dtype=dtype)
    one[0] = 1.0
    memo = {0: one}
    out = np.zeros((len(codes), r), dtype=dtype)
    for n, (e, code) in enumerate(zip(exps.tolist(), codes.tolist())):
        chain = []
        while code not in memo:
            v = max(i for i, x in enumerate(e) if x)
            chain.append((v, code))
            e = [*e[:v], e[v] - 1, *e[v + 1:]]
            code -= places[v]
        vec = memo[code]
        for v, c in reversed(chain):
            vec = memo[c] = mats[v] @ vec
        out[n] = vec
    return out


class TestNormalForms:
    """The batched reduction computes the memo walk's forms bit for bit."""

    @pytest.fixture(scope="class")
    def ex2_tables(self, ex2):
        shape2, lam, B, Bp = ex2
        prop = _Propagator(lam, B, Bp, DEFAULT_TOL_EXTEND)
        assert prop.run() == "extended"
        # every product of B'+ x B+ once, the unknown ones first, as the
        # completion reduces them
        codes = shape2.product_codes(Bp.plus, B.plus).ravel()
        _, every = np.unique(codes, return_index=True)
        pos = np.concatenate([first_unknown(lam, codes), every])
        n = len(B.plus)
        exps = Bp.plus[pos // n] + B.plus[pos % n]
        return shape2, prop.tables(), exps, codes[pos]

    def check(self, shape, tables, exps, codes):
        got = _walk_forms(_reduction_walk(shape, exps, codes), tables)
        want = memo_normal_forms(shape, tables, exps, codes)
        assert np.array_equal(got, want)

    def test_example2(self, ex2_tables):
        self.check(*ex2_tables)

    def test_codes_beyond_63_bits(self):
        shape = Shape(dims=(30,), degrees=(1,))
        assert shape.variable_codes.dtype == object
        rng = np.random.default_rng(5)
        tables = rng.standard_normal((30, 4, 4))
        exps = np.zeros((300, 30), dtype=np.int64)
        for row in exps:
            np.add.at(row, rng.integers(0, 30, rng.integers(0, 4)), 1)
        # repeated rows
        self.check(shape, tables, exps, shape.codes(exps))


def block_incidence(X, r):
    """Per row and block of r columns, whether the row has a nonzero there:
    the scan of the dense system that the assembly's incidence replaces."""
    nz = X[:, ::r] != 0
    for s in range(1, r):
        nz |= X[:, s::r] != 0
    return nz


def syzygy_rows(prop, unresolved):
    """The syzygy rows of a propagator as the fixpoint writes them: X, b and
    the block incidence that the write marks."""
    b, write = prop._syzygy_equations()
    X = np.zeros((len(b), len(unresolved), prop.r), dtype=prop.dtype)
    nz = np.zeros((len(b), len(unresolved)), dtype=bool)
    write(X, nz)
    return X.reshape(len(b), -1), b, nz


def dense_syzygy_equations(prop, unresolved):
    """The syzygy rows by a dense scatter: every pair's r rows in one zero
    array, side 1 added and side 2 subtracted block by block, then the
    all-zero rows dropped.  Returns X, b and the largest inconsistency met;
    the reference for the block assembly, as memo_normal_forms is for the
    stacked normal forms."""
    r, dtype = prop.r, prop.dtype
    inconsistency = 0.0
    n_pairs = len(prop.plan.syzygy_pairs)
    t1, t2, v1, v2 = prop.plan.syzygy_pairs.T
    const, ok, (entry, where, mats) = prop._sides(
        np.concatenate([t1, t2]), np.concatenate([v1, v2])
    )
    c1, c2 = const[:n_pairs], const[n_pairs:]
    ok = ok[:n_pairs] & ok[n_pairs:]
    second = entry >= n_pairs
    pair = entry - n_pairs * second
    linear = np.zeros(n_pairs, dtype=bool)
    linear[pair] = True
    check = ok & ~linear
    if check.any():
        d1, d2 = c1[check], c2[check]
        scale = np.maximum(np.linalg.norm(d1, axis=1), np.linalg.norm(d2, axis=1))
        gap = np.linalg.norm(d1 - d2, axis=1) / np.maximum(1.0, scale)
        inconsistency = max(inconsistency, float(gap.max()))
    rows = ok & linear
    row_of = np.cumsum(rows) - 1
    block_of = np.full(len(prop.table), -1)
    block_of[r + np.asarray(unresolved, dtype=np.int64)] = np.arange(len(unresolved))
    X = np.zeros((rows.sum(), r, len(unresolved), r), dtype=dtype)
    for side, sign in ((False, 1), (True, -1)):
        use = rows[pair] & (second == side)
        X[row_of[pair[use]], :, block_of[where[use]], :] += sign * mats[use]
    X = X.reshape(-1, len(unresolved) * r)
    b = (c2[rows] - c1[rows]).ravel()
    used = X.any(axis=1)
    if not used.all():
        inconsistency = max(inconsistency, float(np.abs(b[~used]).max()))
    return X[used], b[used], inconsistency


def unresolved_targets(prop):
    """The positions of the targets whose relations are not yet known."""
    return np.flatnonzero(~prop.known[prop.r:]).tolist()


def dense_svd_run(prop, reverse=False):
    """Reference fixpoint: every placeholder kept as a column of one dense
    system, solved by a full SVD of that system on every pass.  ``reverse``
    lists the equations in the opposite order, which changes only rounding."""
    prop.resolve_direct()
    r = prop.r
    n_places = int(prop.plan.prod_place.max()) + 1
    for _ in range(len(prop.plan.targets) + 1):
        unresolved = unresolved_targets(prop)
        if not unresolved:
            break
        n_x = len(unresolved) * r
        A, b = [], []
        for t in range(len(prop.plan.targets)):
            tail = prop.table[r + t] if prop.known[r + t] else None
            for row, data, place in zip(
                prop.rows, prop.prod_data[t], prop.plan.prod_place[t]
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
        X_s, b_s, _ = syzygy_rows(prop, unresolved)
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
                prop.table[r + t] = x[k * r:(k + 1) * r]
                prop.known[r + t] = True
                progress = True
        if not progress:
            break
    if prop.inconsistency > prop.tol:
        return "inconsistent"
    if not prop.known.all():
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
            return (lam, *first_pair(lam, 3)), None, "inconsistent"
        return (lam, *first_pair(lam, r)), pts, "extended"

    def test_same_decisions_and_tails(self, case):
        (lam, B, Bp), points, status = case
        new = _Propagator(lam, B, Bp, tol=1e-6)
        ref = _Propagator(lam, B, Bp, tol=1e-6)
        rev = _Propagator(lam, B, Bp, tol=1e-6)
        assert new.run() == dense_svd_run(ref) == dense_svd_run(rev, True) == status
        solved = np.flatnonzero(ref.known[ref.r:])
        for prop in (new, rev):
            assert np.array_equal(np.flatnonzero(prop.known[prop.r:]), solved)
        targets = lam.shape.monomials(ref.plan.targets)

        def gap(prop, t):
            tail = ref.table[ref.r + t]
            scale = max(1.0, np.abs(tail).max())
            return np.abs(prop.table[prop.r + t] - tail).max() / scale

        # the bound is 1e-10 unless the reference moves by more than that
        # when only the order of its equations changes (3.0e-10 on example2)
        spread = max((gap(rev, t) for t in solved), default=0.0)
        bound = max(1e-10, 2 * spread)
        for t in solved:
            m, tail = targets[t], ref.table[ref.r + t]
            assert gap(new, t) <= bound, str(m)
            if points is not None:
                scale = max(1.0, np.abs(tail).max())
                exact = exact_tail(B, points, m)
                gap_exact = np.abs(new.table[new.r + t] - exact).max()
                assert gap_exact <= 1e-10 * scale, str(m)


def above_rank_4x4(seed=0):
    """Moments of a generic 3x3x3x3 rank-5 tensor, above its flattening
    rank, and the first base pair of size 5."""
    rng = np.random.default_rng(seed)
    shape = Shape(dims=(2, 2, 2, 2), degrees=(1, 1, 1, 1))
    pts = random_points(rng, shape, 5)
    ws = rng.uniform(0.5, 2.0, 5) * rng.choice([-1.0, 1.0], 5)
    lam = build_moment_functional(rank_one_expand(shape, ws, pts))
    return (lam, *first_pair(lam, 5))


def snapshot(res):
    """Every output of a completion, as bytes and strings."""
    lam = res.functional
    return (
        res.status,
        None if lam is None else (lam.codes.tolist(), lam.values.tobytes()),
        None if res.tables is None else res.tables.tobytes(),
        res.commutator_residual,
        repr(res.diagnostics),
    )


def reduction_table(args):
    """The reduction table and its known slots after a completion's run:
    the tails resolved so far, partial ones too when no extension follows."""
    prop = _Propagator(*args, DEFAULT_TOL_EXTEND)
    prop.run()
    return prop.table.tobytes(), prop.known.tobytes()


class TestPlan:
    """A completion's index structure is built once per format and basis
    pair and shared by every functional that knows exactly the moments of
    the format's table."""

    @pytest.fixture
    def cold(self):
        _plans.clear()
        yield
        _plans.clear()

    @pytest.mark.parametrize("case", ["example2", "above-rank"])
    def test_cold_and_warm_give_the_same_bits(self, case, ex2, cold):
        args = ex2[1:] if case == "example2" else above_rank_4x4()
        first = propagate_commutation(*args)
        assert len(_plans) == 1
        plan = next(iter(_plans.values()))
        again = propagate_commutation(*args)
        assert next(iter(_plans.values())) is plan
        assert snapshot(again) == snapshot(first)
        assert first.status == ("extended" if case == "example2" else "rank_deficient")
        warm = reduction_table(args)
        _plans.clear()
        assert reduction_table(args) == warm

    def test_shared_arrays_are_read_only(self, ex2, cold):
        plan = _plan(*ex2[1:])
        for name in ("base", "rows", "products", "prod_place", "shift", "syzygy_pairs"):
            assert not getattr(plan, name).flags.writeable, name

    @pytest.mark.parametrize("change", ["missing", "extra"])
    def test_other_moments_get_their_own_plan(self, change, ex2, cold):
        shape2, lam, B, Bp = ex2
        full = propagate_commutation(lam, B, Bp)
        cached = _plan(lam, B, Bp)
        assert len(_plans) == 1
        if change == "missing":
            # a moment of the known range that the base block does not hold
            drop = lam.codes != code(shape2, parse_monomial("a1*b1", shape2))
            assert not drop.all()
            other = MomentFunctional(shape2, lam.codes[drop], lam.values[drop])
        else:
            # a moment beyond the table, consistent with the data, whose code
            # falls among the table's: the table plan would read the wrong
            # values past it
            beyond = np.flatnonzero(lam.lookup(full.functional.codes)[1] == 0)
            at = beyond[np.argmin(np.abs(beyond - len(full.functional.codes) // 2))]
            assert full.functional.codes[at] < lam.codes[-1]
            other = lam.extended(
                full.functional.codes[at : at + 1], full.functional.values[at : at + 1]
            )
        plan = _plan(other, B, Bp)
        assert plan is not cached and len(_plans) == 1
        res = propagate_commutation(other, B, Bp)
        assert len(_plans) == 1
        assert res.extended
        v, known = res.functional.lookup(full.functional.codes)
        assert known.all()
        w = full.functional.values
        assert (np.abs(v - w) <= 1e-8 * np.maximum(1.0, np.abs(w))).all()

    def test_bases_with_equal_codes_share_a_plan(self, ex2, cold):
        # B's codes fix its border and the border's canonical order, the
        # order of the targets; a hit builds neither for a basis read afresh
        shape2, lam, B, Bp = ex2
        first = propagate_commutation(lam, B, Bp)
        fresh = MonomialBasis(shape2, B.exps.copy())
        again = propagate_commutation(lam, fresh, Bp)
        assert len(_plans) == 1
        assert "border" not in vars(fresh) and "plus" not in vars(fresh)
        assert snapshot(again) == snapshot(first)
        assert np.array_equal(_plan(lam, fresh, Bp).targets, fresh.border)

    def test_unknown_base_block_refused_cold_and_warm(self, shape2, tensor2, cold):
        lam = build_moment_functional(tensor2)
        B = basis_of(shape2, ["1", "a1"])  # lam(a1^2) unknown
        for _ in range(2):
            with pytest.raises(ValueError, match="unknown entries"):
                propagate_commutation(lam, B, B)
        assert not _plans

    def test_cache_stays_within_its_bound(self, cold):
        shape = Shape(dims=(8, 8), degrees=(1, 1))
        rng = np.random.default_rng(0)
        table = shape.table
        lam = MomentFunctional(shape, table.codes, rng.normal(size=len(table.codes)))
        a = ["1"] + [f"a{j + 1}" for j in range(8)]
        b = ["1"] + [f"b{j + 1}" for j in range(8)]
        pairs = [
            (basis_of(shape, a[:i]), basis_of(shape, b[:j]))
            for i in range(1, 10) for j in range(1, 10)
        ]
        assert len(pairs) > _PLAN_CACHE_SIZE
        plans = [_plan(lam, B, Bp) for B, Bp in pairs]
        assert len(_plans) == _PLAN_CACHE_SIZE
        # the least recently used went first
        kept = list(_plans.values())
        assert kept == plans[-_PLAN_CACHE_SIZE:]
        assert _plan(lam, *pairs[-1]) is plans[-1]
        assert _plan(lam, *pairs[0]) is not plans[0]

    def test_threads_share_the_cache(self, cold, monkeypatch):
        # more threads than cores, each asking for more plans than a cache
        # of two holds, so that lookups, insertions and evictions interleave
        monkeypatch.setattr("tdec.extension._PLAN_CACHE_SIZE", 2)
        shape = Shape(dims=(3, 3), degrees=(1, 1))
        table = shape.table
        lam = MomentFunctional(shape, table.codes, np.ones(len(table.codes)))
        pairs = [
            (basis_of(shape, ["1", "a1"][:i]), basis_of(shape, ["1", "b1", "b2"][:j]))
            for i in (1, 2) for j in (1, 2, 3)
        ]
        errors = []

        def work():
            try:
                for _ in range(30):
                    for B, Bp in pairs:
                        assert np.array_equal(_plan(lam, B, Bp).targets, B.border)
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
        assert len(_plans) == 2

    def test_codes_beyond_63_bits(self, cold):
        # the format of TestNormalForms.test_codes_beyond_63_bits: a rank-one
        # tensor, whose relations are all solved directly and whose
        # products x_i * x_j are completed by the normal-form walk
        shape = Shape(dims=(30,), degrees=(1,))
        assert shape.variable_codes.dtype == object
        z = np.random.default_rng(5).uniform(-1, 1, 30)
        T = rank_one_expand(shape, [1.5], [Point((tuple(z),))])
        lam = build_moment_functional(T)
        B = MonomialBasis(shape, np.zeros((1, 30), dtype=np.int64))
        res = propagate_commutation(lam, B, B)
        assert len(_plans) == 1
        assert res.extended
        assert snapshot(propagate_commutation(lam, B, B)) == snapshot(res)
        exps = np.eye(30, dtype=np.int64)
        got, known = res.functional.lookup(shape.product_codes(exps, exps))
        assert known.all()
        np.testing.assert_allclose(got, 1.5 * np.outer(z, z), rtol=1e-12)


class TestComponents:
    def test_components_of_the_last_pass(self):
        # the targets of the 3x3x3x3 rank-5 pass fall into 12 independent
        # blocks, the largest 3 targets (15 columns) wide
        res = propagate_commutation(*above_rank_4x4())
        assert res.status == "rank_deficient"
        assert res.diagnostics["nullity"] == 20
        assert res.diagnostics["components"] == 12
        assert res.diagnostics["largest_component"] == 15

    def test_last_pass_of_example2_is_one_block(self, ex2):
        # the last pass of example2, over the 30 targets its first pass
        # left, couples them all
        diag = propagate_commutation(*ex2[1:]).diagnostics
        assert diag["components"] == 1
        assert diag["largest_component"] == 30 * 6


class TestSolveDiagnostics:
    def test_example2_is_certified(self, ex2):
        diag = propagate_commutation(*ex2[1:]).diagnostics
        assert diag["solve"] == "certified"
        assert type(diag["sigma_min_bound"]) is float
        assert diag["sigma_min_bound"] > 0.0

    @pytest.mark.parametrize("seed", [20, 31])
    def test_flat_large_is_certified(self, seed, monkeypatch):
        # every completion of the benchmark's flat-large instances, run as
        # the CLI's decompose --reduce runs them, ends on a certified pass;
        # at seed 20 the last pass of 4x4x8-r8 has 448 columns
        passes = []

        def recording(*args, **kwargs):
            res = propagate_commutation(*args, **kwargs)
            passes.append(res.diagnostics)
            return res

        module = importlib.import_module("tdec.decompose")
        monkeypatch.setattr(module, "propagate_commutation", recording)
        for inst in workloads.flat_large(seed):
            tf = TensorFile.from_obj(workloads.tensor_file_obj(inst))
            decompose(tf.tensor, DecomposeOptions(reduce=True))
        assert len(passes) == 4
        assert [d["solve"] for d in passes] == ["certified"] * 4
        assert max(d["largest_component"] for d in passes) == 448

    def test_refusal_takes_the_truncated_svd(self):
        # the generic 3x3x3x3 rank-5 completion of hard-inputs leaves
        # relations free, which no bound can certify
        res = propagate_commutation(*above_rank_4x4())
        assert res.status == "rank_deficient"
        assert res.diagnostics["solve"] == "qr_svd"
        assert res.diagnostics["sigma_min_bound"] is None


def dense_least_squares(X, b, size):
    """Truncated-SVD least squares of the whole system, the reference for
    the per-component solve."""
    U, s, Vt = np.linalg.svd(X, full_matrices=X.shape[0] < X.shape[1])
    rank = int(np.sum(s > size * np.finfo(float).eps * 100 * s[0]))
    x = Vt[:rank].conj().T @ ((U[:, :rank].conj().T @ b) / s[:rank])
    freedom = np.linalg.norm(Vt[rank:], axis=0)
    return x, float(np.linalg.norm(X @ x - b)), freedom, rank


def block_system(rng, dtype):
    """A system over 4-column blocks that splits into components, rows and
    blocks shuffled: a full-rank pair of blocks; a pair coupled through a
    rank-one block, which leaves the first block determined and the second
    free; a block scaled to 1e-14, below the global threshold though not
    below its own; a block scaled to 1e-2; a block no row touches; and
    all-zero rows with a nonzero right-hand side.  It is tall enough that
    the components are solved one by one."""
    r = 4

    def rand(*shape):
        out = rng.normal(size=shape)
        if dtype is complex:
            out = out + 1j * rng.normal(size=shape)
        return out

    rank_one = np.outer(rand(200), rand(r))
    parts = [
        rand(300, 2 * r),
        np.block([
            [rand(200, r), np.zeros((200, r))],
            [rand(200, r), rank_one],
        ]),
        1e-14 * rand(150, r),
        1e-2 * rand(150, r),
    ]
    n_blocks = sum(p.shape[1] for p in parts) // r + 1
    n_rows = sum(len(p) for p in parts) + 3
    X = np.zeros((n_rows, n_blocks * r), dtype=dtype)
    row, col = 0, 0
    for p in parts:
        X[row:row + len(p), col:col + p.shape[1]] = p
        row, col = row + len(p), col + p.shape[1]
    # right-hand sides at the scale of their rows, so that x is of order one
    scale = np.concatenate(
        [np.full(len(p), np.abs(p).max()) for p in parts] + [np.ones(3)]
    )
    b = rand(n_rows) * scale
    blocks = rng.permutation(n_blocks)
    cols = (blocks[:, None] * r + np.arange(r)).ravel()
    rows = rng.permutation(n_rows)
    return X[rows][:, cols], b[rows], r


class TestComponentSolve:
    """The per-component solve equals one truncated SVD of the whole
    system, up to rounding."""

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_dense_reference(self, dtype, seed, monkeypatch):
        X, b, r = block_system(np.random.default_rng(seed), dtype)
        size = max(X.shape)
        calls = count_calls(monkeypatch, "qr")
        nz = block_incidence(X, r)
        x, resid, freedom, rank, sizes, _, _ = _least_squares(X, b, size, r, nz)
        monkeypatch.undo()
        assert calls == {"qr": 4}  # one factorization per component with rows
        x_d, resid_d, freedom_d, rank_d = dense_least_squares(X, b, size)
        assert sorted(sizes) == [r, r, r, 2 * r, 2 * r]
        # the coupled pair is r - 1 short, the 1e-14 and the untouched
        # blocks count no rank
        assert rank == rank_d == X.shape[1] - (r - 1) - 2 * r
        np.testing.assert_array_equal(
            freedom <= _NULLSPACE_TOL, freedom_d <= _NULLSPACE_TOL
        )
        assert (freedom <= _NULLSPACE_TOL).sum() == 4 * r
        np.testing.assert_allclose(x, x_d, rtol=0, atol=1e-10)
        assert abs(resid - resid_d) <= 1e-10 * max(1.0, resid_d)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_null_space_of_the_parts(self, dtype):
        # the trailing right singular vectors of each factored part and a
        # unit vector per column of the block no row touches: an
        # orthonormal basis of X's null space, of dimension n - rank
        X, b, r = block_system(np.random.default_rng(0), dtype)
        nz = block_incidence(X, r)
        _, _, _, rank, _, _, null = _least_squares(X, b, max(X.shape), r, nz)
        n = X.shape[1]
        N = _null_basis(null, n, n - rank, X.dtype)
        assert N.shape == (n, n - rank) == (n, 3 * r - 1)
        np.testing.assert_allclose(N.conj().T @ N, np.eye(n - rank), atol=1e-12)
        assert np.linalg.norm(X @ N) <= 1e-12 * np.linalg.norm(X)

    @pytest.mark.parametrize("components", [1, 2])
    def test_solved_whole(self, components, monkeypatch):
        # one component with a zero row, or two components too small for
        # separate factorizations to pay: one QR of the whole system, which
        # a repeated column keeps from the certified full-rank solve
        rng = np.random.default_rng(3)
        X, b = rng.normal(size=(12, 6)), rng.normal(size=12)
        X[3] = 0.0
        if components == 2:
            X[:6, 3:] = X[6:, :3] = 0.0
        X[:, 5] = X[:, 4]
        calls = count_calls(monkeypatch, "qr")
        nz = block_incidence(X, 3)
        x, resid, freedom, rank, sizes, bound, _ = _least_squares(X, b, 12, 3, nz)
        monkeypatch.undo()
        x_d, resid_d, freedom_d, rank_d = dense_least_squares(X, b, 12)
        assert calls == {"qr": 1}
        assert bound is None
        assert sorted(sizes) == [6 // components] * components
        assert rank == rank_d == 5
        np.testing.assert_array_equal(
            freedom <= _NULLSPACE_TOL, freedom_d <= _NULLSPACE_TOL
        )
        np.testing.assert_allclose(x, x_d, atol=1e-12)
        assert abs(resid - resid_d) <= 1e-12

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("n,r", [(3, 3), (8, 4), (8, 2)])
    def test_empty_system(self, n, r, dtype):
        # no equation determines nothing: zeros of X's dtype, residual 0,
        # every unknown free, rank 0, and one component per r-column block
        X, b = np.zeros((0, n), dtype=dtype), np.zeros(0, dtype=dtype)
        x, resid, freedom, rank, sizes, bound, _ = _least_squares(
            X, b, n, r, block_incidence(X, r)
        )
        assert x.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(x, np.zeros(n))
        assert resid == 0.0 and type(resid) is float
        np.testing.assert_array_equal(freedom, np.ones(n))
        assert rank == 0
        assert sizes.tolist() == [r] * (n // r)
        assert bound is None

    def test_determined_columns_read_no_freedom(self):
        # a tall system of rank n - 12: 30 columns of general position
        # beside 40 columns that span only 28 dimensions; the null space
        # lies in the second group, so the first is exactly determined
        rng = np.random.default_rng(5)
        X = np.hstack([
            rng.normal(size=(200, 30)),
            rng.normal(size=(200, 28)) @ rng.normal(size=(28, 40)),
        ])
        b = rng.normal(size=200)
        nz = block_incidence(X, 10)
        _, _, freedom, rank, _, bound, _ = _least_squares(X, b, 200, 10, nz)
        _, _, freedom_d, rank_d = dense_least_squares(X, b, 200)
        assert bound is None
        assert rank == rank_d == 58
        assert freedom[:30].max() < 1e-12
        assert freedom_d[:30].max() < 1e-12
        assert freedom[30:].min() > _NULLSPACE_TOL


class TestCertifiedSolve:
    """A tall system proven to have full rank is solved through the Cholesky
    factor of X^H X; everything else takes the truncated SVD and decides as
    the dense reference does."""

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_full_rank_tall_system(self, dtype, monkeypatch):
        rng = np.random.default_rng(7)
        X, b = rng.normal(size=(240, 36)), rng.normal(size=240)
        if dtype is complex:
            X = X + 1j * rng.normal(size=X.shape)
            b = b + 1j * rng.normal(size=b.shape)
        calls = count_calls(monkeypatch, "qr", "svd")
        nz = block_incidence(X, 4)
        x, resid, freedom, rank, sizes, bound, _ = _least_squares(X, b, 240, 4, nz)
        monkeypatch.undo()
        assert calls == {"qr": 0, "svd": 0}
        x_d, resid_d, _, rank_d = dense_least_squares(X, b, 240)
        assert rank == rank_d == 36
        assert not freedom.any()
        s_min = np.linalg.svd(X, compute_uv=False)[-1]
        assert isinstance(bound, float) and 0.0 < bound <= s_min
        assert np.linalg.norm(x - x_d) <= 1e-12 * np.linalg.norm(x_d)
        assert abs(resid - resid_d) <= 1e-12 * resid_d

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_above_the_leaf_size(self, dtype, monkeypatch):
        # 130 columns: the inverse of the Cholesky factor is blocked, with
        # np.linalg.inv on diagonal blocks of at most _LEAF only
        rng = np.random.default_rng(11)
        X, b = rng.normal(size=(300, 130)), rng.normal(size=300)
        if dtype is complex:
            X = X + 1j * rng.normal(size=X.shape)
            b = b + 1j * rng.normal(size=b.shape)
        inverted = []
        inv = np.linalg.inv
        monkeypatch.setattr(
            np.linalg, "inv", lambda a: inverted.append(len(a)) or inv(a)
        )
        calls = count_calls(monkeypatch, "qr", "svd")
        nz = block_incidence(X, 5)
        x, resid, freedom, rank, sizes, bound, _ = _least_squares(X, b, 300, 5, nz)
        monkeypatch.undo()
        assert calls == {"qr": 0, "svd": 0}
        assert sorted(inverted) == [32, 32, 33, 33]
        x_d, resid_d, _, rank_d = dense_least_squares(X, b, 300)
        assert rank == rank_d == 130
        assert not freedom.any()
        s_min = np.linalg.svd(X, compute_uv=False)[-1]
        assert isinstance(bound, float) and 0.0 < bound <= s_min
        assert np.linalg.norm(x - x_d) <= 1e-12 * np.linalg.norm(x_d)
        assert abs(resid - resid_d) <= 1e-12 * resid_d

    @pytest.mark.parametrize("n", [12, 130])
    def test_residual_refuses_a_wrong_inverse(self, n, monkeypatch):
        # np.linalg.inv puts one entry of a leaf off by 1: Y L - I shows it,
        # and the solve is not certified, whatever 1 / ||Y||_F would say
        rng = np.random.default_rng(11)
        X, b = rng.normal(size=(300, n)), rng.normal(size=300)
        inv = np.linalg.inv

        def wrong(a):
            Y = inv(a)
            Y[-1, 0] += 1.0
            return Y

        monkeypatch.setattr(np.linalg, "inv", wrong)
        calls = count_calls(monkeypatch, "qr")
        nz = block_incidence(X, 2)
        x, resid, freedom, rank, sizes, bound, _ = _least_squares(X, b, 300, 2, nz)
        monkeypatch.undo()
        assert calls == {"qr": 1} and bound is None
        assert rank == n

    def test_nan_is_not_certified(self):
        rng = np.random.default_rng(11)
        X, b = rng.normal(size=(300, 12)), rng.normal(size=300)
        X[5, 3] = np.nan
        assert _certified(X, b, 300 * np.finfo(float).eps * 100) is None

    def test_residual_refuses_below_the_cutoff(self, monkeypatch):
        # sigma_min(X) far below the cutoff: the residual check refuses, and
        # the truncated SVD decides
        rng = np.random.default_rng(12)
        Q1, _ = np.linalg.qr(rng.normal(size=(300, 130)))
        Q2, _ = np.linalg.qr(rng.normal(size=(130, 130)))
        s = np.ones(130)
        s[-1] = 1e-12
        X, b = (Q1 * s) @ Q2.T, rng.normal(size=300)
        calls = count_calls(monkeypatch, "qr")
        nz = block_incidence(X, 5)
        x, resid, freedom, rank, sizes, bound, _ = _least_squares(X, b, 300, 5, nz)
        monkeypatch.undo()
        assert calls == {"qr": 1} and bound is None
        assert rank == dense_least_squares(X, b, 300)[3] == 129

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.one_of(st.integers(3, 40), st.integers(_LEAF + 1, 100)),
        extra=st.integers(0, 60),
        cplx=st.booleans(),
        k=st.floats(0.0, 14.0),
        near=st.one_of(st.none(), st.floats(0.5, 4.0)),
    )
    @settings(max_examples=100, deadline=None)
    def test_certificate_is_sound(self, seed, n, extra, cplx, k, near):
        # singular values 1 .. 1e-k, or sigma_min placed at 0.5 to 4 times
        # the cutoff: whatever _certified certifies has sigma_min above the
        # cutoff, and its bound is below sigma_min
        rng = np.random.default_rng(seed)
        m = n + extra

        def rand(*shape):
            out = rng.normal(size=shape)
            return out + 1j * rng.normal(size=shape) if cplx else out

        scale = m * np.finfo(float).eps * 100
        s = np.logspace(0, -k, n)
        if near is not None:
            s[-1] = near * scale
        Q1, _ = np.linalg.qr(rand(m, n))
        Q2, _ = np.linalg.qr(rand(n, n))
        X = (Q1 * s) @ Q2.conj().T
        certified = _certified(X, rand(m), scale)
        sv = np.linalg.svd(X, compute_uv=False)
        if sv[-1] <= scale * sv[0]:
            assert certified is None
        if certified is not None:
            assert 0.0 < certified[2] <= sv[-1]
            assert sv[-1] > scale * sv[0]

    def fallback(self, X, b, size, monkeypatch):
        """Solve with _least_squares, check that it took one QR and decided
        as the dense reference, and return the rank and determined set."""
        calls = count_calls(monkeypatch, "qr")
        nz = block_incidence(X, 3)
        x, resid, freedom, rank, sizes, bound, _ = _least_squares(X, b, size, 3, nz)
        monkeypatch.undo()
        assert calls == {"qr": 1}
        assert bound is None
        _, _, freedom_d, rank_d = dense_least_squares(X, b, size)
        assert rank == rank_d
        determined = freedom <= _NULLSPACE_TOL
        np.testing.assert_array_equal(determined, freedom_d <= _NULLSPACE_TOL)
        return rank, determined

    def test_sigma_min_just_above_the_cutoff(self, monkeypatch):
        # one column scaled until sigma_min is twice the rank cutoff: every
        # singular value is kept, but the bound is far too loose to prove it
        rng = np.random.default_rng(8)
        X, b = rng.normal(size=(60, 12)), rng.normal(size=60)
        cutoff = 60 * np.finfo(float).eps * 100 * np.linalg.norm(X[:, :-1], 2)
        others = X[:, :-1]
        away = X[:, -1] - others @ np.linalg.lstsq(others, X[:, -1], rcond=None)[0]
        X[:, -1] *= 2 * cutoff / np.linalg.norm(away)
        s = np.linalg.svd(X, compute_uv=False)
        assert 1.5 < s[-1] / (60 * np.finfo(float).eps * 100 * s[0]) < 2.5
        rank, determined = self.fallback(X, b, 60, monkeypatch)
        assert rank == 12 and determined.all()

    def test_repeated_column(self, monkeypatch):
        rng = np.random.default_rng(9)
        X, b = rng.normal(size=(60, 12)), rng.normal(size=60)
        X[:, 7] = X[:, 2]
        rank, determined = self.fallback(X, b, 60, monkeypatch)
        assert rank == 11
        assert np.flatnonzero(~determined).tolist() == [2, 7]

    def test_wide_system(self, monkeypatch):
        rng = np.random.default_rng(10)
        X, b = rng.normal(size=(9, 12)), rng.normal(size=9)
        rank, determined = self.fallback(X, b, 12, monkeypatch)
        assert rank == 9 and not determined.any()


class TestInverseLower:
    """The blocked inverse of a Cholesky factor against np.linalg.inv, and
    its blocked residual ||Y L - I||_F^2, the certificate of _certified,
    against the dense one."""

    @staticmethod
    def factor(n, dtype, seed):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(2 * n, n))
        if dtype is complex:
            A = A + 1j * rng.normal(size=A.shape)
        return np.linalg.cholesky(A.conj().T @ A)

    @staticmethod
    def assert_residual(r_sq, Y, L, dense):
        # equal up to the rounding of the products, which _certified adds
        eps = np.finfo(float).eps
        rounding = len(L) * eps * np.linalg.norm(Y) * np.linalg.norm(L)
        assert abs(np.sqrt(r_sq) - dense) <= rounding

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("n", [65, 129, 448])
    def test_against_the_lu_inverse(self, n, dtype):
        L = self.factor(n, dtype, n)
        Y, r_sq = _inverse_lower(L)
        ref = np.linalg.inv(L)
        eps = np.finfo(float).eps
        ref_err = 4.0 * n * eps * np.linalg.norm(L) * np.linalg.norm(ref) ** 2
        assert np.linalg.norm(Y - ref) <= ref_err
        residual = np.linalg.norm(Y @ L - np.eye(n))
        self.assert_residual(r_sq, Y, L, residual)
        # as accurate as the LU inverse
        assert residual <= 2 * np.linalg.norm(ref @ L - np.eye(n))

    def test_residual_of_an_ill_conditioned_factor(self):
        # singular values of X spread over 1e0 .. 1e-6, so cond(L) = 1e6;
        # the reference residual is formed in extended precision
        n = 129
        rng = np.random.default_rng(7)
        Q1, _ = np.linalg.qr(rng.normal(size=(2 * n, n)))
        Q2, _ = np.linalg.qr(rng.normal(size=(n, n)))
        X = (Q1 * np.logspace(0, -6, n)) @ Q2.T
        L = np.linalg.cholesky(X.T @ X)
        Y, r_sq = _inverse_lower(L)
        exact = Y.astype(np.longdouble) @ L.astype(np.longdouble)
        exact -= np.eye(n, dtype=np.longdouble)
        self.assert_residual(r_sq, Y, L, float(np.sqrt(np.sum(exact**2))))

    @pytest.mark.parametrize("n", [1, 30, _LEAF])
    def test_leaf_is_the_lu_inverse(self, n):
        L = self.factor(n, float, n)
        Y, r_sq = _inverse_lower(L)
        assert np.array_equal(Y, np.linalg.inv(L))


def before_last_pass(lam, B, Bp):
    """A propagator in the state of its last fixpoint pass: the relations
    that the earlier passes resolved, and only those."""
    states = []

    class Recording(_Propagator):
        def _syzygy_equations(self):
            states.append((self.table.copy(), self.known.copy()))
            return super()._syzygy_equations()

    Recording(lam, B, Bp, tol=1e-6).run()
    prop = _Propagator(lam, B, Bp, tol=1e-6)
    prop.table, prop.known = states[-1]
    return prop


class TestSyzygyHarvest:
    """The block assembly of the syzygy rows equals the dense scatter it
    replaced to the bit, and the per-pair loop before that up to rounding."""

    @pytest.fixture(
        params=[
            "example1", "example2", "example2-mixed", "above-rank",
            "4x4x6-r6-last-pass",
        ]
    )
    def prop(self, request, ex2, tensor1, shape1):
        if request.param == "4x4x6-r6-last-pass":
            # the last pass of a generic 4x4x6 rank-6 completion, over 30
            # of its 51 targets
            rng = np.random.default_rng(2)
            shape = Shape(dims=(3, 3, 5), degrees=(1, 1, 1))
            pts = random_points(rng, shape, 6)
            lam = build_moment_functional(
                rank_one_expand(shape, rng.uniform(0.5, 2.0, 6), pts)
            )
            return before_last_pass(lam, *first_pair(lam, 6))
        if request.param == "example1":
            lam = build_moment_functional(tensor1)
            args = lam, basis_of(shape1, gd.H1_B_COLS), basis_of(shape1, gd.H1_B_ROWS)
        elif request.param == "above-rank":
            args = above_rank_4x4()
        else:
            args = ex2[1:]
        prop = _Propagator(*args, tol=1e-6)
        if request.param == "above-rank":
            # after the first fixpoint pass, some relations still free
            assert prop.run() == "rank_deficient"
        elif request.param == "example2-mixed":
            # every relation known, then every third one cleared
            assert prop.run() == "extended"
            cleared = prop.r + np.arange(0, len(prop.plan.targets), 3)
            prop.known[cleared] = False
            prop.table[cleared] = 0.0
        else:
            prop.resolve_direct()
        return prop

    def test_same_rows_as_the_dense_scatter(self, prop):
        unresolved = unresolved_targets(prop)
        assert unresolved
        prop.inconsistency = 0.0
        X, b, nz = syzygy_rows(prop, unresolved)
        X_ref, b_ref, inconsistency = dense_syzygy_equations(prop, unresolved)
        assert X.shape == X_ref.shape and X.shape[0] > 0
        assert np.array_equal(X, X_ref)
        assert np.array_equal(b, b_ref)
        assert prop.inconsistency == inconsistency
        assert np.array_equal(nz, block_incidence(X_ref, prop.r))

    def test_same_rows_as_the_pair_loop(self, prop):
        unresolved = unresolved_targets(prop)
        assert unresolved
        prop.inconsistency = 0.0
        X, b, _ = syzygy_rows(prop, unresolved)
        X_ref, b_ref, inconsistency = syzygy_reference(prop, unresolved)
        assert X.shape == X_ref.shape and X.shape[0] > 0
        np.testing.assert_allclose(X, X_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(b, b_ref, rtol=0, atol=1e-12)
        assert abs(prop.inconsistency - inconsistency) <= 1e-12


def sides_constant_loop(prop, t, v):
    """The constant parts of the products x_v * N(m_t), accumulated one
    coordinate s of B at a time: the loop that _sides replaced by one
    stacked sum, the reference for its bits."""
    r, table, known = prop.r, prop.table, prop.known
    tails = table[r + t]
    moved = v >= 0
    slots = prop.plan.shift[np.maximum(v, 0)]
    const = np.zeros((len(t), r), dtype=prop.dtype)
    coef = np.where(known[slots] & moved[:, None], tails, 0)
    for s in range(r):
        const += coef[:, s, None] * table[slots[:, s]]
    const[~moved] = tails[~moved]
    return const


class TestStackedReductions:
    """The reductions read from the reduction table keep the bits of the
    per-coordinate and per-variable code they replaced."""

    @pytest.fixture(params=["example2", "rank-one"])
    def prop(self, request, ex2):
        if request.param == "example2":
            return _Propagator(*ex2[1:], tol=1e-6)
        shape = Shape(dims=(2, 2), degrees=(1, 1))
        pts = random_points(np.random.default_rng(4), shape, 1)
        lam = build_moment_functional(rank_one_expand(shape, [1.5], pts))
        return _Propagator(lam, *first_pair(lam, 1), tol=1e-6)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_sides_constant_matches_coordinate_loop(self, prop, dtype):
        # random tails over a random known mask: unresolved slots and some
        # resolved tails are rows of zeros (all-zero coefficient rows), and
        # some tails are negative throughout, so that products of a zero
        # coefficient are -0.0
        rng = np.random.default_rng(9)
        r, n_targets = prop.r, len(prop.plan.targets)
        n_vars = prop.plan.shift.shape[0]
        tails = rng.normal(size=(n_targets, r))
        if dtype is complex:
            tails = tails + 1j * rng.normal(size=tails.shape)
        tails[::5] = -np.abs(tails[::5])
        tails[1::4] = 0.0
        known = rng.uniform(size=n_targets) < 0.7
        tails[~known] = 0.0
        prop.dtype = dtype
        prop.table = np.concatenate([np.eye(r, dtype=dtype), tails])
        prop.known[r:] = known
        # every target with every variable, and alone (v = -1)
        t = np.repeat(np.arange(n_targets), n_vars + 1)
        v = np.tile(np.arange(-1, n_vars), n_targets)
        const = prop._sides(t, v)[0]
        assert const.dtype == dtype
        assert const.tobytes() == sides_constant_loop(prop, t, v).tobytes()

    def test_tables_match_per_variable_matrices(self, prop):
        assert prop.run() == "extended"
        tables = prop.tables()
        assert tables.flags.c_contiguous
        assert tables.shape == (prop.plan.targets.shape[1], prop.r, prop.r)
        for v, M in enumerate(tables):
            assert M.tobytes() == prop.table[prop.plan.shift[v]].T.copy().tobytes()


class TestCommutatorResidual:
    def test_single_matrix(self):
        assert commutator_residual([np.eye(3)]) == 0.0

    def test_nan_is_not_commuting(self):
        # a NaN table reads NaN, which no tolerance passes, not 0.0
        mats = [np.full((2, 2), np.nan), np.eye(2), np.eye(2)]
        assert np.isnan(commutator_residual(mats))

    def test_reference_family_commutes(self, tensor1, shape1):
        lam = build_moment_functional(tensor1)
        B = basis_of(shape1, gd.H1_B_COLS)
        Bp = basis_of(shape1, gd.H1_B_ROWS)
        mats = [data_table(lam, B, Bp, 2, l) for l in range(3)]
        assert commutator_residual(mats) < 1e-8

    def test_matches_pair_loop(self):
        # the stacked norms sum in another order: equal to rounding
        def pair_loop(mats):
            worst = 0.0
            for i in range(len(mats)):
                for j in range(i + 1, len(mats)):
                    a, b = mats[i], mats[j]
                    num = np.linalg.norm(a @ b - b @ a)
                    den = max(1.0, np.linalg.norm(a) * np.linalg.norm(b))
                    worst = max(worst, num / den)
            return worst

        rng = np.random.default_rng(3)
        for n, size in [(2, 1), (3, 4), (6, 7), (13, 8)]:
            P = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
            commuting = [P @ np.diag(rng.normal(size=size)) @ np.linalg.inv(P)
                         for _ in range(n)]
            for mats in (
                [rng.normal(size=(size, size)) for _ in range(n)],
                [rng.normal(size=(size, size)) * 1j + M for M in commuting],
                commuting,
            ):
                assert commutator_residual(mats) == pytest.approx(
                    pair_loop(mats), rel=1e-12, abs=1e-15
                )

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
            H, known = hankel(lam, B.exps, B.exps)
            assert known.all()
            if np.linalg.cond(H) > 1e8:
                continue
            tables = family_from_functional(lam, B, B)
            flat = flat_extension_check(lam, B, B)
            commuting = commutator_residual(tables) < 1e-8
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
        last = shape.monomials(B.plus[-1:])[0]
        # known moments keep their values under extended: rebuild from codes
        corner = lam.codes == code(shape, last * last)
        assert corner.sum() == 1
        values = np.where(corner, lam.values + 1.0, lam.values)
        lam = MomentFunctional(shape, lam.codes, values)
        assert not flat_extension_check(lam, B, B)

    def test_vacuous_when_no_border(self):
        shape = Shape(dims=(1,), degrees=(2,))
        rng = np.random.default_rng(5)
        pts = random_points(rng, shape, 3)
        B = prefix_basis(shape, 3)  # every monomial of the known range
        lam = complete_functional(shape, [1.0, 1.0, 1.0], pts, B, B)
        assert flat_extension_check(lam, B, B)


def rank_deficient(T):
    """The moments of T, the first basis pair at its flattening rank and
    that pair's completion, which leaves relations free."""
    lam = build_moment_functional(T)
    B, Bp = first_pair(lam, Catalecticants(lam).flattening_rank())
    ext = propagate_commutation(lam, B, Bp)
    assert ext.status == "rank_deficient"
    assert isinstance(ext.family, Family)
    assert ext.family.dimension == ext.diagnostics["nullity"]
    return lam, B, Bp, ext


def step_numbers(res):
    d = res.diagnostics
    return (
        d["family_dimension"], d["evaluations"], d["commutator_start"],
        d["commutator_end"],
    )


class TestCommutingMember:
    """The parametric step after a rank-deficient completion: a commuting
    member of the family the last fixpoint pass leaves, found by a damped
    Gauss-Newton solve on the commutators from t = 0."""

    def test_family_only_when_rank_deficient(self, ex2):
        # an extension and a contradiction carry no family
        _, lam, B, Bp = ex2
        assert propagate_commutation(lam, B, Bp).family is None
        # a generic 3x3x3 rank-4 tensor, above its flattening rank 3
        T = synthesize((2, 2, 2), (1, 1, 1), 4, 0)[0].tensor
        lam = build_moment_functional(T)
        ext = propagate_commutation(lam, *first_pair(lam, 3))
        assert ext.status == "inconsistent" and ext.family is None

    def test_family_commuting_at_zero(self):
        # the benchmark's sparse (2,2)/(2,2) rank-4 instance 0 leaves one
        # free coefficient whose tables already commute at t = 0
        inst = next(
            i for i in workloads.hard_inputs(31) if i.name == "sparse-(2,2)/(2,2)-r4#0"
        )
        shape = Shape(inst.dims, inst.degrees)
        T = rank_one_expand(shape, list(inst.weights), [Point(p) for p in inst.points])
        lam, B, Bp, ext = rank_deficient(T)
        res = ext.family.commuting_member()
        assert res.extended
        assert step_numbers(res)[:2] == (1, 1)
        assert res.diagnostics["commutator_start"] == res.diagnostics["commutator_end"]
        assert res.diagnostics["commutator_end"] <= COMMUTE_TOL
        assert flat_extension_check(res.functional, B, Bp)

    def test_family_the_step_solves(self):
        # a generic 2x2x3 rank-3 tensor: 15 free coefficients, tables far
        # from commuting at t = 0, a commuting member after 9 evaluations,
        # from whose tables decompose reads the terms
        T = synthesize((1, 1, 2), (1, 1, 1), 3, 0)[0].tensor
        lam, B, Bp, ext = rank_deficient(T)
        res = ext.family.commuting_member()
        family, evaluations, start, end = step_numbers(res)
        assert (family, evaluations) == (15, 9)
        assert start > 0.5 and end <= COMMUTE_TOL
        assert res.extended
        assert res.commutator_residual == commutator_residual(res.tables) <= 1e-12
        assert flat_extension_check(res.functional, B, Bp)
        dec = decompose(T)
        assert dec.residual < 1e-10
        assert not dec.meta["coordinate_change_applied"]

    def test_no_commuting_member_within_the_evaluation_cap(self):
        # a generic (2,2)/(2,2) rank-6 tensor: the solve descends but stops
        # at the cap, and the result stays rank deficient with the
        # completion's own diagnostics kept
        T = synthesize((2, 2), (2, 2), 6, 2)[0].tensor
        lam, B, Bp, ext = rank_deficient(T)
        res = ext.family.commuting_member()
        family, evaluations, start, end = step_numbers(res)
        assert (family, evaluations) == (6, MAX_EVALUATIONS)
        assert COMMUTE_TOL < end < start
        assert res.status == "rank_deficient"
        assert res.functional is None and res.tables is None
        assert res.commutator_residual is None
        assert res.diagnostics.items() >= ext.diagnostics.items()
        with pytest.raises(DecompositionError) as info:
            decompose(T)
        assert info.value.report["detail"].startswith("not unique: family of dimension")

    @pytest.mark.parametrize("cap", [809, 810])
    def test_work_cap(self, cap, monkeypatch):
        # the 2x2x3 rank-3 family: k * pairs * r^2 = 15 * 6 * 9 = 810.
        # Past the cap only t = 0 is evaluated, and no step is solved
        T = synthesize((1, 1, 2), (1, 1, 1), 3, 0)[0].tensor
        lam, B, Bp, ext = rank_deficient(T)
        monkeypatch.setattr(
            importlib.import_module("tdec.extension"), "MAX_FAMILY_WORK", cap
        )
        calls = count_calls(monkeypatch, "solve")
        res = ext.family.commuting_member()
        if cap == 810:
            assert res.extended and calls["solve"] == step_numbers(res)[1] - 1
            return
        assert res.status == "rank_deficient" and calls["solve"] == 0
        family, evaluations, start, end = step_numbers(res)
        assert (family, evaluations) == (15, 1)
        assert start == end > COMMUTE_TOL

    def test_work_cap_refusal_detail(self):
        # a generic 4x4x10 rank-9 tensor leaves 378 free coefficients over
        # 105 variable pairs of 9 x 9 tables, past the cap in every frame
        T = synthesize((3, 3, 9), (1, 1, 1), 9, 0)[0].tensor
        with pytest.raises(DecompositionError) as info:
            decompose(T)
        report = info.value.report
        assert report["stage"] == "extension"
        assert re.fullmatch(
            r"not unique: family of dimension 378, commutator \d\.\d\de-\d\d",
            report["detail"],
        )
        assert report["frames"] == 2
        assert report["stop"] == "random frame 1: no completion extended"

    def test_complex_tensor(self):
        # complex data: complex parameters, and a complex commuting member
        T = synthesize((1, 1, 2), (1, 1, 1), 3, 0, fld="complex")[0].tensor
        lam, B, Bp, ext = rank_deficient(T)
        res = ext.family.commuting_member()
        assert res.extended and res.tables.dtype == complex
        assert step_numbers(res)[0] == 15
        assert all(type(x) is float for x in step_numbers(res)[2:])
        assert decompose(T).residual < 1e-10

    def test_search_off_evaluates_only_at_zero(self):
        # without a search only t = 0 is evaluated, as past the work cap: a
        # family that commutes there still extends, any other stays rank
        # deficient
        T = synthesize((1, 1, 2), (1, 1, 1), 3, 0)[0].tensor
        *_, ext = rank_deficient(T)
        res = ext.family.commuting_member(search=False)
        assert res.status == "rank_deficient"
        family, evaluations, start, end = step_numbers(res)
        assert (family, evaluations) == (15, 1)
        assert start == end > COMMUTE_TOL
        inst = next(
            i for i in workloads.hard_inputs(31) if i.name == "sparse-(2,2)/(2,2)-r4#0"
        )
        shape = Shape(inst.dims, inst.degrees)
        T = rank_one_expand(shape, list(inst.weights), [Point(p) for p in inst.points])
        *_, ext = rank_deficient(T)
        res = ext.family.commuting_member(search=False)
        assert res.extended and step_numbers(res)[:2] == (1, 1)

    def test_same_bits_and_family_kept(self):
        # deterministic, and the family it searches is left as it was: a
        # second call gives the same bits
        T = synthesize((1, 1, 2), (1, 1, 1), 3, 1)[0].tensor
        lam, B, Bp, ext = rank_deficient(T)
        prop = ext.family.prop
        before = snapshot(ext), prop.table.tobytes(), prop.known.tobytes()
        first = ext.family.commuting_member()
        assert (snapshot(ext), prop.table.tobytes(), prop.known.tobytes()) == before
        second = ext.family.commuting_member()
        assert snapshot(second) == snapshot(first)
        assert first.extended
