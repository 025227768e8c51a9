import numpy as np
import pytest

import golden_data as gd
from conftest import basis_of, poly, rank_one_expand, weighted_evaluation
from tdec.algebra import Monomial, Point, Shape
from tdec.eigen import (
    MultiplicationFamily,
    WeightSolveError,
    family_from_functional,
    joint_eigenvectors,
    missing_variables,
    multiplication_matrix,
    read_coordinates,
    recover_missing_coordinates,
    solve_weights,
)
from tdec.extension import propagate_commutation
from tdec.moment import (
    build_moment_functional,
    enumerate_monomials,
    hankel,
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


class TestMultiplicationMatrix:
    def test_c_tables_match_reference(self, tensor1, shape1):
        lam = build_moment_functional(tensor1)
        B = basis_of(shape1, gd.H1_B_COLS)
        Bp = basis_of(shape1, gd.H1_B_ROWS)
        for idx, expected in [(0, gd.MT_C1), (1, gd.MT_C2), (2, gd.MT_C3)]:
            M = multiplication_matrix(lam, B, Bp, (2, idx))
            np.testing.assert_allclose(M.T, np.array(expected), atol=1e-10)

    def test_reference_a1_table(self, tensor2, shape2):
        lam = build_moment_functional(tensor2)
        B = basis_of(shape2, gd.H2_B_COLS)
        Bp = basis_of(shape2, gd.H2_B_ROWS)
        ext = propagate_commutation(lam, B, Bp)
        M = multiplication_matrix(ext.functional, B, Bp, (0, 0))
        np.testing.assert_allclose(M, np.array(gd.M2_A1), atol=5e-3)

    def test_rank_one(self):
        shape = Shape(dims=(2,), degrees=(1,))
        zeta = Point(((2.5, -1.0),))
        dom = shape.monomials(enumerate_monomials(shape, [2]))
        lam = weighted_evaluation([3.0], [zeta], shape, dom)
        B = basis_of(shape, ["1"])
        M = multiplication_matrix(lam, B, B, (0, 0))
        assert M == pytest.approx(np.array([[2.5]]))

    def test_family_solves_each_known_shifted_block(self, tensor1, shape1):
        # raw moments: a variable gets a table exactly when lam(x_v b'_i b_j)
        # is known, and the table is the solve of the base block against it
        lam = build_moment_functional(tensor1)
        B = basis_of(shape1, gd.H1_B_COLS)
        Bp = basis_of(shape1, gd.H1_B_ROWS)
        fam = family_from_functional(lam, B, Bp)
        H = hankel(lam, Bp.exps, B.exps).numeric()
        rows = [Monomial.parse(s, shape1) for s in gd.H1_B_ROWS]
        for var in shape1.variables():
            shifted = shape1.exponents([shape1.variable(*var) * q for q in rows])
            Hs = hankel(lam, shifted, B.exps)
            if Hs.fully_known:
                assert np.array_equal(fam.matrices[var], np.linalg.solve(H, Hs.numeric()))
            else:
                assert var not in fam.matrices
        assert {(2, 0), (2, 1), (2, 2)} <= set(fam.matrices)


class TestJointEigenvectors:
    def test_reference_roots(self, ex1_family):
        shape1, lam, B, Bp, ext = ex1_family
        fam = family_from_functional(ext.functional, B, Bp)
        roots = joint_eigenvectors(fam, seed=0)
        assert roots.simple
        match_rows(roots.eigvecs, gd.EIGVECS1, tol=1e-8)
        # eigenvalues of each c-table form the expected multisets
        for l, name in enumerate(["c1", "c2", "c3"]):
            got = sorted(np.real(roots.eigenvalues[(2, l)]))
            assert got == pytest.approx(sorted(gd.EIGVALS_C[name]), abs=1e-8)

    def test_reference_roots_bigger(self, tensor2, shape2):
        lam = build_moment_functional(tensor2)
        B = basis_of(shape2, gd.H2_B_COLS)
        Bp = basis_of(shape2, gd.H2_B_ROWS)
        ext = propagate_commutation(lam, B, Bp)
        fam = family_from_functional(ext.functional, B, Bp)
        roots = joint_eigenvectors(fam, seed=0)
        assert roots.simple
        match_rows(roots.eigvecs, gd.EIGVECS2, tol=1e-6)

    def test_rank_one_trivial(self):
        shape = Shape(dims=(2, 1), degrees=(1, 1))
        zeta = Point(((0.5, -2.0), (3.0,)))
        dom = shape.monomials(enumerate_monomials(shape, [2, 2]))
        lam = weighted_evaluation([2.0], [zeta], shape, dom)
        B = basis_of(shape, ["1"])
        fam = family_from_functional(lam, B, B)
        roots = joint_eigenvectors(fam, seed=1)
        assert roots.simple and roots.count == 1
        np.testing.assert_allclose(roots.eigvecs[0], [1.0])
        assert roots.eigenvalues[(0, 1)][0] == pytest.approx(-2.0)

    def test_diagnostics_are_python_values(self, ex1_family):
        # they are formatted into refusal details
        shape1, lam, B, Bp, ext = ex1_family
        roots = joint_eigenvectors(family_from_functional(ext.functional, B, Bp))
        assert {k: type(v) for k, v in roots.diagnostics.items()} == {
            "defective": bool,
            "collision": bool,
            "eig_residual": float,
        }

    def test_seed_invariance(self, ex1_family):
        shape1, lam, B, Bp, ext = ex1_family
        fam = family_from_functional(ext.functional, B, Bp)
        a = read_coordinates(joint_eigenvectors(fam, seed=1), B, fam)
        b = read_coordinates(joint_eigenvectors(fam, seed=99), B, fam)
        match_rows(
            [np.concatenate([np.asarray(c) for c in p.coords]) for p in a.points],
            [np.concatenate([np.asarray(c) for c in p.coords]) for p in b.points],
            tol=1e-6,
        )

    def test_eigen_consistency_and_product_law(self, ex1_family):
        shape1, lam, B, Bp, ext = ex1_family
        fam = family_from_functional(ext.functional, B, Bp)
        roots = joint_eigenvectors(fam, seed=0)
        for (g, l), M in fam.matrices.items():
            for i, w in enumerate(roots.eigvecs):
                lhs = M.T @ w
                rhs = roots.eigenvalues[(g, l)][i] * w
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


class TestReadCoordinates:
    def test_reference_points(self, ex1_family, points1):
        shape1, lam, B, Bp, ext = ex1_family
        fam = family_from_functional(ext.functional, B, Bp)
        roots = read_coordinates(joint_eigenvectors(fam, seed=0), B, fam)
        assert missing_variables(roots) == []
        match_rows(
            [np.concatenate([np.asarray(c) for c in p.coords]) for p in roots.points],
            [np.concatenate([np.asarray(c, dtype=float) for c in p.coords]) for p in points1],
            tol=1e-7,
        )

    def test_marks_missing_without_table(self, ex1_family):
        shape1, lam, B, Bp, ext = ex1_family
        fam = family_from_functional(ext.functional, B, Bp)
        partial = MultiplicationFamily(
            B, {v: M for v, M in fam.matrices.items() if v[0] != 1}
        )
        roots = read_coordinates(joint_eigenvectors(partial, seed=0), B, partial)
        assert missing_variables(roots) == [(1, 0), (1, 1), (1, 2)]


class TestRecoverMissingCoordinates:
    def test_no_missing_is_identity(self, ex1_family):
        shape1, lam, B, Bp, ext = ex1_family
        fam = family_from_functional(ext.functional, B, Bp)
        roots = read_coordinates(joint_eigenvectors(fam, seed=0), B, fam)
        again = recover_missing_coordinates(lam, roots, [1, 1, 1, 1], B, [])
        assert again.points == roots.points

    def test_recovers_dropped_group(self, ex1_family, tensor1, points1):
        # drop the b-tables, recover the b-coordinates from the moments
        shape1, lam, B, Bp, ext = ex1_family
        fam = family_from_functional(ext.functional, B, Bp)
        partial = MultiplicationFamily(
            B, {v: M for v, M in fam.matrices.items() if v[0] != 1}
        )
        roots = read_coordinates(joint_eigenvectors(partial, seed=0), B, partial)
        gam, _ = solve_weights(tensor1, roots.points)
        full = recover_missing_coordinates(
            lam, roots, gam, B, missing_variables(roots)
        )
        assert missing_variables(full) == []
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
        B, Bp = next(select_bases_candidates(lam, 2))
        ext = propagate_commutation(lam, B, Bp)
        assert ext.extended
        fam = family_from_functional(ext.functional, B, Bp)
        keep = {v: M for v, M in fam.matrices.items() if v[0] != 2}
        partial = MultiplicationFamily(B, keep)
        roots = read_coordinates(joint_eigenvectors(partial, seed=0), B, partial)
        assert missing_variables(roots) == [(2, 0), (2, 1)]
        gam, _ = solve_weights(T, roots.points)
        full = recover_missing_coordinates(
            lam, roots, gam, B, missing_variables(roots)
        )
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
