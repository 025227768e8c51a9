from dataclasses import replace

import numpy as np
import pytest

import golden_data as gd
from conftest import (
    basis_of,
    count_calls,
    parse_monomial,
    poly,
    rank_one_expand,
    variable,
    weighted_evaluation,
)
from tdec.algebra import Point, Shape
from tdec.eigen import (
    SIMPLE_GAP_TOL,
    WeightSolveError,
    family_from_functional,
    joint_eigenvectors,
    read_coordinates,
    recover_missing_coordinates,
    solve_weights,
)
from tdec.extension import propagate_commutation
from tdec.moment import (
    Catalecticants,
    build_moment_functional,
    enumerate_monomials,
    hankel,
    numerical_rank,
    select_bases_candidates,
)


def match_rows(actual, expected, tol):
    """Greedy row matching up to permutation; asserts every row pairs up."""
    actual = [np.asarray(a, dtype=complex) for a in actual]
    remaining = [np.asarray(e, dtype=complex) for e in expected]
    for a in actual:
        hits = [
            i
            for i, e in enumerate(remaining)
            if np.allclose(a, e, atol=tol, rtol=tol)
        ]
        assert hits, f"no match for {np.round(a, 4)}"
        remaining.pop(hits[0])
    assert not remaining


@pytest.fixture(scope="module")
def ex1_family(tensor1, shape1):
    lam = build_moment_functional(tensor1)
    B = basis_of(shape1, gd.H1_B_COLS)
    Bp = basis_of(shape1, gd.H1_B_ROWS)
    ext = propagate_commutation(lam, B, Bp)
    assert ext.extended
    return shape1, lam, B, Bp, ext


def blank_group(roots, g):
    """The roots with the coordinates of group g set to NaN."""
    return replace(roots, points=[
        Point(tuple(
            (complex(np.nan),) * len(c) if h == g else c
            for h, c in enumerate(p.coords)
        ))
        for p in roots.points
    ])


def all_finite(points):
    return bool(np.isfinite([x for p in points for c in p.coords for x in c]).all())


class TestMultiplicationMatrix:
    def test_c_tables_match_reference(self, ex1_family):
        # the c-blocks are data, so the completion leaves these tables as
        # the raw moments give them
        shape1, lam, B, Bp, ext = ex1_family
        tables = family_from_functional(ext.functional, B, Bp)
        for idx, expected in [(0, gd.MT_C1), (1, gd.MT_C2), (2, gd.MT_C3)]:
            M = tables[shape1.variables().index((2, idx))]
            np.testing.assert_allclose(M.T, np.array(expected), atol=1e-10)

    def test_reference_a1_table(self, tensor2, shape2):
        lam = build_moment_functional(tensor2)
        B = basis_of(shape2, gd.H2_B_COLS)
        Bp = basis_of(shape2, gd.H2_B_ROWS)
        ext = propagate_commutation(lam, B, Bp)
        M = family_from_functional(ext.functional, B, Bp)[0]
        np.testing.assert_allclose(M, np.array(gd.M2_A1), atol=5e-3)

    def test_rank_one(self):
        shape = Shape(dims=(2,), degrees=(1,))
        zeta = Point(((2.5, -1.0),))
        dom = shape.monomials(enumerate_monomials(shape, [2]))
        lam = weighted_evaluation([3.0], [zeta], shape, dom)
        B = basis_of(shape, ["1"])
        tables = family_from_functional(lam, B, B)
        assert tables.shape == (2, 1, 1)
        assert tables[0] == pytest.approx(np.array([[2.5]]))

    def test_family_solves_each_known_shifted_block(self, ex1_family):
        # every variable's table, in canonical order, is the solve of the
        # base block against lam(x_v b'_i b_j), to the bit
        shape1, _, B, Bp, ext = ex1_family
        lam = ext.functional
        tables = family_from_functional(lam, B, Bp)
        assert tables.shape == (len(shape1.variables()), len(B), len(B))
        H, known = hankel(lam, Bp.exps, B.exps)
        assert known.all()
        rows = [parse_monomial(s, shape1) for s in gd.H1_B_ROWS]
        for M, var in zip(tables, shape1.variables()):
            shifted = shape1.exponents([variable(shape1, *var) * q for q in rows])
            Hs, known = hankel(lam, shifted, B.exps)
            assert known.all()
            assert M.tobytes() == np.linalg.solve(H, Hs).tobytes()

    def test_unknown_shifted_entry_raises(self, tensor1, shape1):
        # the raw moments lack lam(x_v b'_i b_j) for the a- and b-variables
        lam = build_moment_functional(tensor1)
        B = basis_of(shape1, gd.H1_B_COLS)
        Bp = basis_of(shape1, gd.H1_B_ROWS)
        with pytest.raises(ValueError, match="unknown entries"):
            family_from_functional(lam, B, Bp)


class TestJointEigenvectors:
    def test_reference_roots(self, ex1_family):
        shape1, lam, B, Bp, ext = ex1_family
        tables = family_from_functional(ext.functional, B, Bp)
        roots = joint_eigenvectors(B, tables, seed=0)
        assert roots.simple
        assert roots.eigvecs.shape == (4, 4)
        assert roots.eigenvalues.shape == (9, 4)
        match_rows(roots.eigvecs, gd.EIGVECS1, tol=1e-8)
        # eigenvalues of each c-table form the expected multisets
        for l, name in enumerate(["c1", "c2", "c3"]):
            got = sorted(np.real(roots.eigenvalues[shape1.variables().index((2, l))]))
            assert got == pytest.approx(sorted(gd.EIGVALS_C[name]), abs=1e-8)

    def test_reference_roots_bigger(self, tensor2, shape2):
        lam = build_moment_functional(tensor2)
        B = basis_of(shape2, gd.H2_B_COLS)
        Bp = basis_of(shape2, gd.H2_B_ROWS)
        ext = propagate_commutation(lam, B, Bp)
        tables = family_from_functional(ext.functional, B, Bp)
        roots = joint_eigenvectors(B, tables, seed=0)
        assert roots.simple
        match_rows(roots.eigvecs, gd.EIGVECS2, tol=1e-6)

    def test_rank_one_trivial(self):
        shape = Shape(dims=(2, 1), degrees=(1, 1))
        zeta = Point(((0.5, -2.0), (3.0,)))
        dom = shape.monomials(enumerate_monomials(shape, [2, 2]))
        lam = weighted_evaluation([2.0], [zeta], shape, dom)
        B = basis_of(shape, ["1"])
        tables = family_from_functional(lam, B, B)
        roots = joint_eigenvectors(B, tables, seed=1)
        assert roots.simple and len(roots.eigvecs) == 1
        np.testing.assert_allclose(roots.eigvecs[0], [1.0])
        assert roots.eigenvalues[1, 0] == pytest.approx(-2.0)

    def test_diagnostics_are_python_values(self, ex1_family):
        # they are formatted into refusal details
        shape1, lam, B, Bp, ext = ex1_family
        roots = joint_eigenvectors(B, family_from_functional(ext.functional, B, Bp))
        assert {k: type(v) for k, v in roots.diagnostics.items()} == {
            "defective": bool,
            "collision": bool,
            "eig_residual": float,
        }

    def test_seed_invariance(self, ex1_family):
        shape1, lam, B, Bp, ext = ex1_family
        tables = family_from_functional(ext.functional, B, Bp)
        a = read_coordinates(joint_eigenvectors(B, tables, seed=1))
        b = read_coordinates(joint_eigenvectors(B, tables, seed=99))
        match_rows(
            [np.concatenate([np.asarray(c) for c in p.coords]) for p in a.points],
            [np.concatenate([np.asarray(c) for c in p.coords]) for p in b.points],
            tol=1e-6,
        )

    def test_eigen_consistency_and_product_law(self, ex1_family):
        shape1, lam, B, Bp, ext = ex1_family
        tables = family_from_functional(ext.functional, B, Bp)
        roots = joint_eigenvectors(B, tables, seed=0)
        for M, lam_v in zip(tables, roots.eigenvalues):
            for i, w in enumerate(roots.eigvecs):
                lhs = M.T @ w
                rhs = lam_v[i] * w
                assert np.linalg.norm(lhs - rhs) <= 1e-6 * max(
                    1.0, np.linalg.norm(lhs)
                )
        # entries multiply like evaluations for products staying inside B
        basis = shape1.monomials(B.exps)
        index = {m: i for i, m in enumerate(basis)}
        for m1 in basis:
            for m2 in basis:
                if m1 * m2 in index:
                    for w in roots.eigvecs:
                        assert w[index[m1 * m2]] == pytest.approx(
                            w[index[m1]] * w[index[m2]], rel=1e-6, abs=1e-9
                        )


def joint_eigenvectors_loop(B, tables, seed=0):
    """The per-eigenvector, per-variable loops that joint_eigenvectors
    replaced by stacked products: the reference for its bits."""
    mats = [M.T for M in tables]
    r = len(B)
    t = np.random.default_rng(seed).uniform(-1.0, 1.0, len(mats))
    A = sum(tv * M for tv, M in zip(t, mats))
    _, vecs = np.linalg.eig(A)
    defective = numerical_rank(vecs, 1e-8) < r
    eigvecs, degenerate = [], False
    for i in range(r):
        w = vecs[:, i]
        if abs(w[0]) < 1e-12 * np.linalg.norm(w):
            degenerate = True
            eigvecs.append(w)
            continue
        eigvecs.append(w / w[0])
    eigenvalues, eig_residual = [], 0.0
    for M in mats:
        lam_v = np.empty(r, dtype=complex)
        for i, w in enumerate(eigvecs):
            lam_v[i] = (w.conj() @ (M @ w)) / (w.conj() @ w)
            eig_residual = max(
                eig_residual,
                np.linalg.norm(M @ w - lam_v[i] * w)
                / max(1.0, np.linalg.norm(M) * np.linalg.norm(w)),
            )
        eigenvalues.append(lam_v)
    eigenvalues = np.array(eigenvalues)
    tuples = eigenvalues.T
    scale = 1.0 + np.abs(tuples).max()
    collision = any(
        np.abs(tuples[i] - tuples[j]).max() <= SIMPLE_GAP_TOL * scale
        for i in range(r)
        for j in range(i + 1, r)
    )
    return eigvecs, eigenvalues, defective, degenerate, collision, eig_residual


def commuting_family(r, n_vars, rng, kind):
    """A basis of r monomials and stacked tables M_v with
    M_v^T = P diag(z_v) P^-1;
    ``kind`` picks real roots, real tables with a complex pair of roots,
    complex tables, an eigenvector without a coordinate on 1, or two roots
    that coincide."""
    shape = Shape(dims=(r - 1,), degrees=(1,))
    B = basis_of(shape, ["1"] + [f"a{j + 1}" for j in range(r - 1)])
    P = rng.normal(size=(r, r))
    Z = rng.normal(size=(n_vars, r))
    if kind == "complex":
        P = P + 1j * rng.normal(size=(r, r))
        Z = Z + 1j * rng.normal(size=(n_vars, r))
    elif kind == "conjugate":  # real tables, a pair of complex roots
        P, Z = P.astype(complex), Z.astype(complex)
        P[:, 1] = (P[:, 0] + 1j * P[:, 1]).conj()
        P[:, 0] = P[:, 1].conj()
        Z[:, 1] = (Z[:, 0] + 1j * Z[:, 1]).conj()
        Z[:, 0] = Z[:, 1].conj()
    elif kind == "no-lead":
        P[0, 1] = 0.0
    elif kind == "collision":
        Z[:, 1] = Z[:, 0]
    tables = np.stack([(P @ np.diag(z) @ np.linalg.inv(P)).T for z in Z])
    if kind == "conjugate":
        tables = tables.real.copy()
    return B, tables


class TestStackedEigenProducts:
    @pytest.mark.parametrize(
        "kind", ["real", "conjugate", "complex", "no-lead", "collision"]
    )
    def test_bit_equal_to_loops(self, kind, monkeypatch):
        calls = count_calls(monkeypatch, "eig")
        rng = np.random.default_rng(7)
        for r, n_vars in [(2, 1), (3, 2), (5, 3), (8, 4), (9, 7)]:
            B, tables = commuting_family(r, n_vars, rng, kind)
            for seed in (0, 1):
                calls["eig"] = 0
                got = joint_eigenvectors(B, tables, seed=seed)
                assert calls["eig"] == 1  # one draw, for colliding roots too
                vecs, vals, defective, degenerate, collision, res = (
                    joint_eigenvectors_loop(B, tables, seed)
                )
                assert [w.tobytes() for w in got.eigvecs] == [w.tobytes() for w in vecs]
                assert got.simple == (not (defective or degenerate or collision))
                assert got.diagnostics["defective"] == defective
                assert got.diagnostics["collision"] == collision
                if kind == "no-lead":
                    # the loop multiplied an unscaled eigenvector in place,
                    # a strided column, so its gemv may round otherwise;
                    # such roots are never simple
                    assert not got.simple
                    np.testing.assert_allclose(
                        got.eigenvalues, vals, rtol=1e-12, atol=1e-15
                    )
                    assert got.diagnostics["eig_residual"] == pytest.approx(
                        res, rel=1e-6, abs=1e-15
                    )
                    continue
                assert got.eigenvalues.tobytes() == vals.tobytes()
                assert got.diagnostics["eig_residual"] == res
                assert got.simple == (kind != "collision")

    def test_golden_families_bit_equal_to_loops(self, ex1_family, tensor2, shape2):
        _, _, B, Bp, ext = ex1_family
        lam2 = build_moment_functional(tensor2)
        B2, Bp2 = basis_of(shape2, gd.H2_B_COLS), basis_of(shape2, gd.H2_B_ROWS)
        ext2 = propagate_commutation(lam2, B2, Bp2)
        for basis, tables in (
            (B, family_from_functional(ext.functional, B, Bp)),
            (B2, family_from_functional(ext2.functional, B2, Bp2)),
        ):
            got = joint_eigenvectors(basis, tables, seed=3)
            vecs, vals, *_, res = joint_eigenvectors_loop(basis, tables, 3)
            assert [w.tobytes() for w in got.eigvecs] == [w.tobytes() for w in vecs]
            assert got.eigenvalues.tobytes() == vals.tobytes()
            assert got.diagnostics["eig_residual"] == res


class TestReadCoordinates:
    def test_reference_points(self, ex1_family, points1):
        shape1, lam, B, Bp, ext = ex1_family
        tables = family_from_functional(ext.functional, B, Bp)
        roots = read_coordinates(joint_eigenvectors(B, tables, seed=0))
        match_rows(
            [np.concatenate([np.asarray(c) for c in p.coords]) for p in roots.points],
            [np.concatenate([np.asarray(c, dtype=float) for c in p.coords]) for p in points1],
            tol=1e-7,
        )

    def test_entries_inside_basis_eigenvalues_outside(self, ex1_family):
        # B = 1, a1, a2, a3: the a-coordinates are eigenvector entries, the
        # b- and c-coordinates eigenvalue rows, bit for bit
        shape1, lam, B, Bp, ext = ex1_family
        tables = family_from_functional(ext.functional, B, Bp)
        roots = read_coordinates(joint_eigenvectors(B, tables, seed=0))
        for t, p in enumerate(roots.points):
            flat = [x for c in p.coords for x in c]
            assert all(type(x) is complex for x in flat)
            want = [roots.eigvecs[t, j + 1] for j in range(3)] + [
                roots.eigenvalues[v, t] for v in range(3, 9)
            ]
            assert np.array(flat).tobytes() == np.array(want, dtype=complex).tobytes()


class TestRecoverMissingCoordinates:
    def test_no_missing_is_identity(self, ex1_family):
        shape1, lam, B, Bp, ext = ex1_family
        tables = family_from_functional(ext.functional, B, Bp)
        roots = read_coordinates(joint_eigenvectors(B, tables, seed=0))
        again = recover_missing_coordinates(lam, roots, [1, 1, 1, 1], B, [])
        assert again.points == roots.points

    def test_recovers_dropped_group(self, ex1_family, tensor1, points1):
        # blank the b-coordinates, recover them from the moments
        shape1, lam, B, Bp, ext = ex1_family
        tables = family_from_functional(ext.functional, B, Bp)
        roots = read_coordinates(joint_eigenvectors(B, tables, seed=0))
        gam, _ = solve_weights(tensor1, roots.points)
        full = recover_missing_coordinates(
            lam, blank_group(roots, 1), gam, B, [(1, 0), (1, 1), (1, 2)]
        )
        assert all_finite(full.points)
        match_rows(
            [np.concatenate([np.asarray(c) for c in p.coords]) for p in full.points],
            [np.concatenate([np.asarray(c, dtype=float) for c in p.coords]) for p in points1],
            tol=1e-7,
        )

    def test_synthetic_rank_two(self):
        rng = np.random.default_rng(8)
        shape = Shape(dims=(2, 2, 2), degrees=(1, 1, 1))
        pts = [
            Point(tuple(tuple(rng.uniform(-1, 1, n)) for n in shape.dims))
            for _ in range(2)
        ]
        ws = [1.5, -0.5]
        T = rank_one_expand(shape, ws, pts)
        lam = build_moment_functional(T)
        B, Bp = next(select_bases_candidates(Catalecticants(lam), 2))
        ext = propagate_commutation(lam, B, Bp)
        assert ext.extended
        tables = family_from_functional(ext.functional, B, Bp)
        roots = read_coordinates(joint_eigenvectors(B, tables, seed=0))
        gam, _ = solve_weights(T, roots.points)
        full = recover_missing_coordinates(
            lam, blank_group(roots, 2), gam, B, [(2, 0), (2, 1)]
        )
        assert all_finite(full.points)
        match_rows(
            [np.concatenate([np.asarray(c) for c in p.coords]) for p in full.points],
            [np.concatenate([np.asarray(c) for c in p.coords]) for p in pts],
            tol=1e-8,
        )


class TestSolveWeights:
    def test_reference_weights(self, tensor1, points1):
        gam, resid = solve_weights(tensor1, points1)
        np.testing.assert_allclose(gam, [1, 1, 1, 1], atol=1e-10)
        assert resid < 1e-12

    def test_reference_weights_bigger(self, tensor2, points2):
        gam, resid = solve_weights(tensor2, points2)
        np.testing.assert_allclose(gam, gd.WEIGHTS2, atol=1e-8)
        assert resid < 1e-10

    def test_rank_one_leading_coefficient(self):
        shape = Shape(dims=(2,), degrees=(2,))
        zeta = Point(((0.5, -1.0),))
        T = rank_one_expand(shape, [3.0], [zeta])
        gam, _ = solve_weights(T, [zeta])
        assert gam[0] == pytest.approx(3.0)

    def test_permutation_equivariance(self, tensor2, points2):
        gam, _ = solve_weights(tensor2, points2)
        perm = [3, 0, 5, 1, 4, 2]
        gam_p, _ = solve_weights(tensor2, [points2[i] for i in perm])
        np.testing.assert_allclose(gam_p, [gam[i] for i in perm], atol=1e-8)

    def test_coincident_points_rejected(self, tensor1, points1):
        with pytest.raises(WeightSolveError):
            solve_weights(tensor1, [points1[0]] * 4)

    def test_rank_read_from_the_fit(self, tensor2, points2, monkeypatch):
        # the rank test reads the singular values lstsq returns: no SVD of
        # its own
        calls = count_calls(monkeypatch, "svd", "lstsq")
        solve_weights(tensor2, points2)
        assert calls == {"svd": 0, "lstsq": 1}
