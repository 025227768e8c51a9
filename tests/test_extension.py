import itertools

import numpy as np
import pytest

import golden_data as gd
from conftest import (
    basis_of,
    code,
    count_calls,
    monomial_value,
    one,
    poly,
    rank_one_expand,
    relation_for,
    syzygy_reference,
    variable,
    weighted_evaluation,
)
from tdec.algebra import (
    Monomial,
    MomentFunctional,
    Point,
    Polynomial,
    Shape,
    first_unknown,
)
from tdec.eigen import family_from_functional
from tdec.extension import (
    _LEAF,
    _NULLSPACE_TOL,
    DEFAULT_TOL_EXTEND,
    _inverse_lower,
    _least_squares,
    _normal_forms,
    _Propagator,
    commutator_residual,
    flat_extension_check,
    propagate_commutation,
)
from tdec.moment import (
    MonomialBasis,
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
    hits = np.flatnonzero(
        shape.codes(prop.targets) == code(shape, Monomial.parse(name, shape))
    )
    return int(hits[0]) if len(hits) else None


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
        table, known = prop._table()
        slot = prop.shift[a2, B.names().index("1")]
        assert known[slot]
        np.testing.assert_allclose(table[slot], [0, 0, 1, 0, 0, 0])

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
    def test_shift_table_and_syzygy_pairs(self, ex2, order_seed):
        shape2, lam, B, Bp = ex2
        rng = None if order_seed is None else np.random.default_rng(order_seed)
        prop = _Propagator(lam, B, Bp, tol=1e-6, rng=rng)
        targets = shape2.monomials(prop.targets)
        basis = shape2.monomials(B.exps)
        variables = [variable(shape2, g, j) for g, j in shape2.variables()]
        for v, x in enumerate(variables):
            for s, b in enumerate(basis):
                m = x * b
                want = basis.index(m) if m in basis else len(B) + targets.index(m)
                assert prop.shift[v][s] == want

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
        res = propagate_commutation(lam, *next(select_bases_candidates(lam, 6)))
        assert res.status == "rank_deficient"
        assert res.diagnostics["nullity"] == 6

    def test_no_functional_without_extension(self):
        # relations left free are no flat extension: the completion reports
        # what it resolved and its diagnostics, and completes no moment
        res = propagate_commutation(*above_rank_4x4())
        assert res.status == "rank_deficient"
        assert res.functional is None
        assert res.commutator_residual is None
        assert res.relations
        assert res.diagnostics["nullity"] == 20

    def test_processing_order_invariance(self, ex2):
        shape2, lam, B, Bp = ex2
        base = propagate_commutation(lam, B, Bp)
        for order_seed in (1, 2):
            other = propagate_commutation(lam, B, Bp, order_seed=order_seed)
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
        nf = _normal_forms(shape2, prop.tables(), B.exps, B.codes, len(B), float)
        np.testing.assert_allclose(nf, np.eye(len(B)), atol=1e-9)


def memo_normal_forms(shape, tables, exps, codes, r, dtype):
    """Reference reduction, one memo walk per monomial: NF(1) = e_1 and
    NF(m) = M_v NF(m / x_v) for the last variable v of m, memoized by code."""
    mats = [tables[v] for v in shape.variables()]
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
        return shape2, prop.tables(), exps, codes[pos], len(B)

    def check(self, shape, tables, exps, codes, r):
        got = _normal_forms(shape, tables, exps, codes, r, float)
        want = memo_normal_forms(shape, tables, exps, codes, r, float)
        assert np.array_equal(got, want)

    def test_example2(self, ex2_tables):
        self.check(*ex2_tables)

    def test_codes_beyond_63_bits(self):
        shape = Shape(dims=(30,), degrees=(1,))
        assert shape.variable_codes.dtype == object
        rng = np.random.default_rng(5)
        r = 4
        tables = {v: rng.standard_normal((r, r)) for v in shape.variables()}
        exps = np.zeros((300, 30), dtype=np.int64)
        for row in exps:
            np.add.at(row, rng.integers(0, 30, rng.integers(0, 4)), 1)
        # repeated rows
        self.check(shape, tables, exps, shape.codes(exps), r)


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
    b, write = prop._syzygy_equations(*prop._table())
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
    table, known = prop._table()
    n_pairs = len(prop.syzygy_pairs)
    t1, t2, v1, v2 = prop.syzygy_pairs.T
    const, ok, (entry, where, mats) = prop._sides(
        np.concatenate([t1, t2]), np.concatenate([v1, v2]), table, known
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
    block_of = np.full(len(table), -1)
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


def above_rank_4x4(seed=0):
    """Moments of a generic 3x3x3x3 rank-5 tensor, above its flattening
    rank, and the first base pair of size 5."""
    rng = np.random.default_rng(seed)
    shape = Shape(dims=(2, 2, 2, 2), degrees=(1, 1, 1, 1))
    pts = random_points(rng, shape, 5)
    ws = rng.uniform(0.5, 2.0, 5) * rng.choice([-1.0, 1.0], 5)
    lam = build_moment_functional(rank_one_expand(shape, ws, pts))
    return (lam, *next(select_bases_candidates(lam, 5)))


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
        x, resid, freedom, rank, sizes, _ = _least_squares(X, b, size, r, nz)
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
        x, resid, freedom, rank, sizes, bound = _least_squares(X, b, 12, 3, nz)
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
        _, _, freedom, rank, _, bound = _least_squares(X, b, 200, 10, nz)
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
        x, resid, freedom, rank, sizes, bound = _least_squares(X, b, 240, 4, nz)
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
        x, resid, freedom, rank, sizes, bound = _least_squares(X, b, 300, 5, nz)
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

    @staticmethod
    def loosen(monkeypatch):
        """Make the blocked inverse's a-priori error bound ||Y||_F, too
        loose to certify anything."""

        def loose(L):
            Y, err, sq = _inverse_lower(L)
            return Y, np.sqrt(sq), sq

        monkeypatch.setattr("tdec.extension._inverse_lower", loose)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_residual_certifies_when_the_blocked_bound_is_loose(
        self, dtype, monkeypatch
    ):
        # the blocked bound compounds with the depth of the recursion; where
        # it is too loose, the residual Y L - I bounds ||L^-1|| instead,
        # with no further inverse
        rng = np.random.default_rng(11)
        X, b = rng.normal(size=(300, 130)), rng.normal(size=300)
        if dtype is complex:
            X = X + 1j * rng.normal(size=X.shape)
            b = b + 1j * rng.normal(size=b.shape)
        nz = block_incidence(X, 5)
        tight = _least_squares(X, b, 300, 5, nz)[5]
        self.loosen(monkeypatch)
        inverted = []
        inv = np.linalg.inv
        monkeypatch.setattr(
            np.linalg, "inv", lambda a: inverted.append(len(a)) or inv(a)
        )
        calls = count_calls(monkeypatch, "qr", "svd")
        x, resid, freedom, rank, sizes, bound = _least_squares(X, b, 300, 5, nz)
        monkeypatch.undo()
        assert calls == {"qr": 0, "svd": 0}
        assert sorted(inverted) == [32, 32, 33, 33]
        x_d, resid_d, _, rank_d = dense_least_squares(X, b, 300)
        assert rank == rank_d == 130
        s_min = np.linalg.svd(X, compute_uv=False)[-1]
        # both bounds are 1 / ||Y||_F to first order
        assert isinstance(bound, float) and 0.0 < bound <= s_min
        assert abs(bound - tight) <= 1e-9 * tight
        assert np.linalg.norm(x - x_d) <= 1e-12 * np.linalg.norm(x_d)

    def test_residual_refuses_a_wrong_inverse(self, monkeypatch):
        # an inverse with one entry wrong by 1: Y L - I shows it, and the
        # solve is not certified, whatever 1 / ||Y||_F would say
        rng = np.random.default_rng(11)
        X, b = rng.normal(size=(300, 130)), rng.normal(size=300)

        def wrong(L):
            Y, err, sq = _inverse_lower(L)
            Y = Y.copy()
            Y[-1, 0] += 1.0
            return Y, np.sqrt(sq), sq

        monkeypatch.setattr("tdec.extension._inverse_lower", wrong)
        calls = count_calls(monkeypatch, "qr")
        nz = block_incidence(X, 5)
        bound = _least_squares(X, b, 300, 5, nz)[5]
        monkeypatch.undo()
        assert calls == {"qr": 1} and bound is None

    def test_residual_refuses_below_the_cutoff(self, monkeypatch):
        # sigma_min(X) far below the cutoff: the residual check refuses as
        # the blocked bound does, and the truncated SVD decides
        rng = np.random.default_rng(12)
        Q1, _ = np.linalg.qr(rng.normal(size=(300, 130)))
        Q2, _ = np.linalg.qr(rng.normal(size=(130, 130)))
        s = np.ones(130)
        s[-1] = 1e-12
        X, b = (Q1 * s) @ Q2.T, rng.normal(size=300)
        self.loosen(monkeypatch)
        calls = count_calls(monkeypatch, "qr")
        nz = block_incidence(X, 5)
        x, resid, freedom, rank, sizes, bound = _least_squares(X, b, 300, 5, nz)
        monkeypatch.undo()
        assert calls == {"qr": 1} and bound is None
        assert rank == dense_least_squares(X, b, 300)[3] == 129

    def fallback(self, X, b, size, monkeypatch):
        """Solve with _least_squares, check that it took one QR and decided
        as the dense reference, and return the rank and determined set."""
        calls = count_calls(monkeypatch, "qr")
        nz = block_incidence(X, 3)
        x, resid, freedom, rank, sizes, bound = _least_squares(X, b, size, 3, nz)
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
    the error bound e that _certified's slack assumes: ||Y - L^-1||_F <= e,
    so ||Y L - I||_F = ||(Y - L^-1) L||_F <= e ||L||_2."""

    @staticmethod
    def factor(n, dtype, seed):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(2 * n, n))
        if dtype is complex:
            A = A + 1j * rng.normal(size=A.shape)
        return np.linalg.cholesky(A.conj().T @ A)

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("n", [65, 129, 448])
    def test_against_the_lu_inverse(self, n, dtype):
        L = self.factor(n, dtype, n)
        Y, err, sq = _inverse_lower(L)
        ref = np.linalg.inv(L)
        eps = np.finfo(float).eps
        ref_err = 4.0 * n * eps * np.linalg.norm(L) * np.linalg.norm(ref) ** 2
        assert abs(sq - np.linalg.norm(Y) ** 2) <= 1e-12 * sq
        assert np.linalg.norm(Y - ref) <= err + ref_err
        residual = np.linalg.norm(Y @ L - np.eye(n))
        assert residual <= err * np.linalg.norm(L, 2)
        # as accurate as the LU inverse; the bound compounds with the depth
        # of the recursion (8e-7 of ||Y||_F at n = 448 here) but stays far
        # below the ||Y||_F / 2 at which _certified refuses
        assert residual <= 2 * np.linalg.norm(ref @ L - np.eye(n))
        assert err <= 1e-5 * np.sqrt(sq)

    def test_bound_covers_an_ill_conditioned_factor(self):
        # singular values of X spread over 1e0 .. 1e-6, so cond(L) = 1e6;
        # the reference inverse comes from forward substitution in extended
        # precision
        n = 129
        rng = np.random.default_rng(7)
        Q1, _ = np.linalg.qr(rng.normal(size=(2 * n, n)))
        Q2, _ = np.linalg.qr(rng.normal(size=(n, n)))
        X = (Q1 * np.logspace(0, -6, n)) @ Q2.T
        L = np.linalg.cholesky(X.T @ X)
        Y, err, sq = _inverse_lower(L)
        exact = np.zeros((n, n), dtype=np.longdouble)
        eye = np.eye(n, dtype=np.longdouble)
        L_ext = L.astype(np.longdouble)
        for i in range(n):
            exact[i] = (eye[i] - L_ext[i, :i] @ exact[:i]) / L_ext[i, i]
        assert np.linalg.norm((Y - exact).astype(float)) <= err
        assert err <= 1e-3 * np.sqrt(sq)

    @pytest.mark.parametrize("n", [1, 30, _LEAF])
    def test_leaf_is_the_lu_inverse(self, n):
        L = self.factor(n, float, n)
        Y, err, sq = _inverse_lower(L)
        assert np.array_equal(Y, np.linalg.inv(L))


def before_last_pass(lam, B, Bp):
    """A propagator in the state of its last fixpoint pass: the relations
    that the earlier passes resolved, and only those."""
    tails = []

    class Recording(_Propagator):
        def _syzygy_equations(self, table, known):
            tails.append(list(self.tails))
            return super()._syzygy_equations(table, known)

    Recording(lam, B, Bp, tol=1e-6).run()
    prop = _Propagator(lam, B, Bp, tol=1e-6)
    prop.tails = tails[-1]
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
            return before_last_pass(lam, *next(select_bases_candidates(lam, 6)))
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
            for t in range(0, len(prop.tails), 3):
                prop.tails[t] = None
        else:
            prop.resolve_direct()
        return prop

    def test_same_rows_as_the_dense_scatter(self, prop):
        unresolved = [t for t, tail in enumerate(prop.tails) if tail is None]
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
        unresolved = [t for t, tail in enumerate(prop.tails) if tail is None]
        assert unresolved
        prop.inconsistency = 0.0
        X, b, _ = syzygy_rows(prop, unresolved)
        X_ref, b_ref, inconsistency = syzygy_reference(prop, unresolved)
        assert X.shape == X_ref.shape and X.shape[0] > 0
        np.testing.assert_allclose(X, X_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(b, b_ref, rtol=0, atol=1e-12)
        assert abs(prop.inconsistency - inconsistency) <= 1e-12


class TestCommutatorResidual:
    def test_single_matrix(self):
        assert commutator_residual([np.eye(3)]) == 0.0

    def test_reference_family_commutes(self, tensor1, shape1):
        lam = build_moment_functional(tensor1)
        B = basis_of(shape1, gd.H1_B_COLS)
        Bp = basis_of(shape1, gd.H1_B_ROWS)
        tables = family_from_functional(lam, B, Bp).matrices
        mats = [tables[(2, l)] for l in range(3)]
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
            H, known = hankel(lam, B.exps, B.exps)
            assert known.all()
            if np.linalg.cond(H) > 1e8:
                continue
            tables = family_from_functional(lam, B, B).matrices
            mats = [tables[v] for v in shape.variables()]
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
