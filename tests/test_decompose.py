import importlib
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import golden_data as gd
from conftest import (
    count_split_factorizations,
    is_real_decomposition,
    near_collinear_tensor,
    poly,
    rank_one_expand,
    substitute_reference,
    term_at_infinity_tensor,
)
from tdec.algebra import Point, Polynomial, Shape
from tdec.decompose import (
    DecomposeOptions,
    Decomposition,
    MAX_VAIN_SEARCHES,
    DecompositionError,
    UnsupportedShapeError,
    _attempt_rank,
    _lift,
    array_to_poly,
    decompose,
    expected_rank,
    hosvd_reduce,
    kruskal_bound,
    map_back,
    multilinear_rank,
    poly_to_array,
    rank_bounds,
    rank_lower_bound,
    rank_upper_bound,
    random_coordinate_change,
    reconstruct,
    substitute_linear,
    symmetric_power,
    verify,
    _unfold,
)
from tdec.eigen import WeightSolveError
from tdec.extension import Family, flat_extension_check, propagate_commutation
from tdec.files import synthesize
from tdec.moment import (
    Catalecticants,
    build_moment_functional,
    select_bases_candidates,
    split_pools,
)


# the package attribute tdec.decompose is the function; patch the module
decompose_module = importlib.import_module("tdec.decompose")


def random_instance(rng, dims, degrees, r):
    shape = Shape(dims=dims, degrees=degrees)
    pts = [
        Point(tuple(tuple(rng.uniform(-1, 1, n)) for n in shape.dims))
        for _ in range(r)
    ]
    ws = rng.uniform(0.5, 2.0, r) * rng.choice([-1.0, 1.0], r)
    return shape, ws, pts, rank_one_expand(shape, ws, pts)


class TestRankLowerBound:
    def test_reference_tensor(self, tensor2):
        assert rank_lower_bound(tensor2) == 6

    def test_rank_one(self):
        shape = Shape(dims=(2, 2), degrees=(1, 1))
        zeta = Point(((0.3, -1.2), (0.8, 0.1)))
        T = rank_one_expand(shape, [2.0], [zeta])
        assert rank_lower_bound(T) == 1

    def test_generic_rank_three(self):
        rng = np.random.default_rng(2)
        _, _, _, T = random_instance(rng, (3, 3, 3), (1, 1, 1), 3)
        assert rank_lower_bound(T) == 3


class TestRankUpperBound:
    def test_values(self):
        assert rank_upper_bound((4, 4, 7)) == 16
        assert rank_upper_bound((1, 1, 1)) == 1
        assert rank_upper_bound((2, 2, 2)) == 4

    def test_not_order_three(self):
        with pytest.raises(UnsupportedShapeError):
            rank_upper_bound((4, 4))


class TestExpectedRank:
    def test_reference_format(self):
        assert expected_rank(Shape(dims=(3, 3, 6), degrees=(1, 1, 1))) == 9

    def test_small_cube(self):
        assert expected_rank(Shape(dims=(1, 1, 1), degrees=(1, 1, 1))) == 2

    def test_degenerate_line(self):
        # single one-variable group: ambient (d+1) over n+1 = 2
        assert expected_rank(Shape(dims=(1,), degrees=(3,))) == 2


class TestKruskalBound:
    def test_values(self):
        assert kruskal_bound(Shape(dims=(3, 3, 6), degrees=(1, 1, 1))) == 6
        assert kruskal_bound(Shape(dims=(1, 1, 1), degrees=(1, 1, 1))) == 2
        # the k-rank of the 8-row factor is capped by R, not by 8
        assert kruskal_bound(Shape(dims=(3, 3, 7), degrees=(1, 1, 1))) == 6

    def test_degenerate(self):
        # every mode of full dimension 2: the bound is 2, never below
        shape = Shape(dims=(1, 1, 1), degrees=(1, 1, 1))
        tiny = kruskal_bound(shape)
        assert tiny == 2
        with pytest.raises(UnsupportedShapeError):
            kruskal_bound(Shape(dims=(2, 2), degrees=(1, 1)))
        with pytest.raises(UnsupportedShapeError):
            kruskal_bound(Shape(dims=(2, 2, 2), degrees=(2, 1, 1)))


class TestRankBounds:
    @pytest.mark.parametrize(
        "dims,degrees,upper,kruskal",
        [
            ((2, 2, 2), (1, 1, 1), 6, 3),  # order 3: the maximal rank bound
            ((1, 1, 1, 1), (1, 1, 1, 1), 16, 2),  # order 4: the ambient dim
            ((2, 2), (1, 1), 9, None),  # a matrix has no Kruskal bound
            ((2, 2, 2), (2, 1, 1), 54, None),  # nor has a symmetric group
        ],
    )
    def test_bounds_follow_the_format(self, dims, degrees, upper, kruskal):
        b = rank_bounds(Polynomial(Shape(dims, degrees)), lower=1)
        assert (b.lower, b.upper, b.kruskal) == (1, upper, kruskal)


class TestMultilinearRank:
    def test_rank_one(self):
        shape = Shape(dims=(2, 2, 2), degrees=(1, 1, 1))
        zeta = Point(((0.5, 1.0), (-0.3, 0.2), (0.9, -0.4)))
        T = rank_one_expand(shape, [1.0], [zeta])
        assert multilinear_rank(T) == [1, 1, 1]

    def test_tucker_construction(self):
        rng = np.random.default_rng(3)
        core = rng.normal(size=(2, 3, 2))
        factors = [
            np.linalg.qr(rng.normal(size=(4, s)))[0] for s in core.shape
        ]
        A = np.einsum("abc,ia,jb,kc->ijk", core, *factors)
        T = array_to_poly(A)
        assert multilinear_rank(T) == [2, 3, 2]

    def test_reference_tensor(self, tensor1):
        assert multilinear_rank(tensor1) == [4, 4, 4]


class TestHosvd:
    def test_full_target_is_exact(self, tensor1):
        core, factors, err = hosvd_reduce(tensor1, [4, 4, 4])
        assert err < 1e-10
        assert all(U.shape == (4, 4) for U in factors)

    def test_exact_tucker(self):
        rng = np.random.default_rng(4)
        core = rng.normal(size=(2, 3, 2))
        factors = [np.linalg.qr(rng.normal(size=(4, s)))[0] for s in core.shape]
        A = np.einsum("abc,ia,jb,kc->ijk", core, *factors)
        _, _, err = hosvd_reduce(array_to_poly(A), [2, 3, 2])
        assert err < 1e-10

    def test_noisy_quasi_optimality(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(4, 4, 4))
        T = array_to_poly(A)
        target = [3, 3, 3]
        _, _, err = hosvd_reduce(T, target)
        # tail singular-value energy of the unfoldings bounds the best error
        tail = 0.0
        for g in range(3):
            s = np.linalg.svd(_unfold(A, g), compute_uv=False)
            tail += sum(x**2 for x in s[target[g]:])
        best_possible = np.sqrt(tail / 3) / np.linalg.norm(A)
        lower = np.sqrt(tail / 3) / np.sqrt(3) / np.linalg.norm(A)
        assert err <= 1.2 * np.sqrt(3) * best_possible
        assert err >= 0.8 * lower

    def test_orthonormal_factors(self, tensor1):
        _, factors, _ = hosvd_reduce(tensor1, [3, 3, 3])
        for U in factors:
            np.testing.assert_allclose(U.T @ U, np.eye(3), atol=1e-12)


class TestMapBack:
    def test_identity_factors(self):
        rng = np.random.default_rng(6)
        shape, ws, pts, T = random_instance(rng, (2, 2, 2), (1, 1, 1), 2)
        dec = Decomposition(shape, list(zip(ws, pts)), 0.0)
        lifted = map_back(dec, [np.eye(3)] * 3)
        assert verify(T, lifted) < 1e-12
        for (w1, p1), (w2, p2) in zip(dec.terms, lifted.terms):
            assert w1 == pytest.approx(w2)
            for c1, c2 in zip(p1.coords, p2.coords):
                np.testing.assert_allclose(c1, c2, atol=1e-12)

    def test_compress_decompose_lift(self):
        rng = np.random.default_rng(7)
        shape, ws, pts, T = random_instance(rng, (3, 3, 3), (1, 1, 1), 3)
        ranks = multilinear_rank(T)
        core, factors, err = hosvd_reduce(T, ranks)
        assert err < 1e-10
        core_dec = decompose(core, DecomposeOptions(seed=0))
        assert verify(T, map_back(core_dec, factors)) < 1e-8

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(8)
        shape, ws, pts, T = random_instance(rng, (2, 2, 2), (1, 1, 1), 2)
        dec = Decomposition(shape, list(zip(ws, pts)), 0.0)
        Qs = [np.linalg.qr(rng.normal(size=(3, 3)))[0] for _ in range(3)]
        # rotate the tensor the same way the factors rotate the terms
        A = poly_to_array(T)
        A = np.einsum("abc,ia,jb,kc->ijk", A, *Qs)
        assert verify(array_to_poly(A), map_back(dec, Qs)) < 1e-10

    def test_random_frame_of_degree_two(self):
        # the weight takes v0 ** d_g: a (2,2)/(2,1) tensor decomposed in a
        # random frame lifts back to T through the frame's matrices
        rng = np.random.default_rng(9)
        shape, ws, pts, T = random_instance(rng, (2, 2), (2, 1), 3)
        mats = random_coordinate_change(shape, rng)
        dec = decompose(substitute_linear(T, mats), DecomposeOptions(seed=0))
        lifted = map_back(dec, mats)
        assert lifted.shape == shape
        assert verify(T, lifted) < 1e-8

    def test_term_at_infinity_refused(self):
        # the first row of Q is orthogonal to (1, 1, 0), the homogeneous
        # vector of the term's point in group 0
        shape = Shape(dims=(2, 2), degrees=(1, 1))
        dec = Decomposition(shape, [(2.0, Point(((1.0, 0.0), (0.5, 0.5))))], 0.0)
        Q = np.array([[1.0, -1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, np.sqrt(2)]])
        mats = [Q / np.sqrt(2), np.eye(3)]
        with pytest.raises(DecompositionError) as info:
            map_back(dec, mats)
        assert info.value.report == {
            "rank": 1, "stage": "lift", "detail": "point at infinity in group 0"
        }
        T = reconstruct(shape, [1.0], [Point(((0.1, 0.2), (0.3, 0.4)))])
        out = _lift(dec, mats, T, 1e-6, "frame", "back-mapped residual")
        assert out == {
            "rank": 1, "stage": "frame", "detail": "point at infinity in group 0"
        }


class TestEvaluationModel:
    """reconstruct and substitute_linear against the term-by-term
    Polynomial-product references kept in conftest."""

    @pytest.mark.parametrize(
        "dims,degrees,cplx",
        [
            ((3, 3, 3), (1, 1, 1), False),
            ((2, 2), (2, 2), True),
            ((2, 3), (2, 1), False),
            ((2, 2, 2), (1, 1, 2), True),
            ((1,), (6,), False),
        ],
        ids=["real-3x3x3", "complex-(2,2)", "mixed-degrees", "complex-mixed", "binary-sextic"],
    )
    def test_reconstruct_matches_term_by_term_expansion(self, dims, degrees, cplx):
        rng = np.random.default_rng(sum(dims) + 10 * sum(degrees))
        shape = Shape(dims=dims, degrees=degrees)

        def draw(n):
            x = rng.uniform(-1, 1, n)
            return x + 1j * rng.uniform(-1, 1, n) if cplx else x

        pts = [Point(tuple(tuple(draw(n).tolist()) for n in dims)) for _ in range(3)]
        ws = draw(3).tolist()
        got = reconstruct(shape, ws, pts)
        want = rank_one_expand(shape, ws, pts)
        assert set(got.terms) == set(want.terms)
        assert np.iscomplexobj(got.vector()) == cplx
        np.testing.assert_allclose(
            got.vector(), want.vector(), rtol=1e-12, atol=1e-13 * np.abs(want.vector()).max()
        )
        assert verify(want, Decomposition(shape, list(zip(ws, pts)), 0.0)) < 1e-13

    @pytest.mark.parametrize(
        "dims,degrees",
        [((2, 2), (2, 2)), ((2, 2, 3), (1, 1, 1)), ((2, 2, 2), (1, 1, 2)), ((1,), (12,))],
        ids=["(2,2)/(2,2)", "3x3x4", "(2,2,2)/(1,1,2)", "(1,)/(12,)"],
    )
    def test_substitution_matches_polynomial_products(self, dims, degrees):
        rng = np.random.default_rng(sum(dims) + 10 * sum(degrees))
        shape, ws, pts, T = random_instance(rng, dims, degrees, 3)
        mats = random_coordinate_change(shape, rng)
        got = substitute_linear(T, mats).vector()
        want = substitute_reference(T, mats).vector()
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    def test_degree_one_power_is_the_transpose(self):
        # the d = 1 case is the mode product hosvd_reduce applies
        shape = Shape(dims=(3, 2), degrees=(1, 2))
        A = np.random.default_rng(1).normal(size=(4, 4))
        assert np.array_equal(symmetric_power(A, shape.table.group_exps[0], 1), A.T)

    def test_symmetric_power_of_a_product(self):
        # Sym^d(A B) = Sym^d(B) Sym^d(A): substituting twice is substituting
        # the product, here on a binary form of degree 30
        exps = Shape(dims=(1,), degrees=(30,)).table.group_exps[0]
        rng = np.random.default_rng(2)
        A, B = (np.linalg.qr(rng.normal(size=(2, 2)))[0] for _ in range(2))
        np.testing.assert_allclose(
            symmetric_power(A @ B, exps, 30),
            symmetric_power(B, exps, 30) @ symmetric_power(A, exps, 30),
            atol=1e-9,
        )


class TestVerify:
    def test_reference_decomposition_is_exact(self, tensor2, shape2, points2):
        dec = Decomposition(shape2, list(zip(gd.WEIGHTS2, points2)), 0.0)
        assert verify(tensor2, dec) < 1e-12

    def test_empty_vs_zero(self):
        shape = Shape(dims=(2, 2), degrees=(1, 1))
        dec = Decomposition(shape, [], 0.0)
        assert verify(Polynomial(shape, {}), dec) == 0.0

    def test_perturbed_weight(self, tensor1, shape1, points1):
        dec = Decomposition(
            shape1, list(zip([1.1, 1, 1, 1], points1)), 0.0
        )
        res = verify(tensor1, dec)
        base = reconstruct(shape1, [1, 0, 0, 0], points1)
        norm_t = np.sqrt(sum(abs(c) ** 2 for c in tensor1.terms.values()))
        norm_b = np.sqrt(sum(abs(c) ** 2 for c in base.terms.values()))
        assert res == pytest.approx(0.1 * norm_b / norm_t, rel=1e-9)


class TestTermOrder:
    def test_canonical_whatever_the_input_order(self, tensor1, shape1, points1):
        # the four weights of example1 agree up to rounding noise, so the
        # points decide; any input order comes out the same
        noise = [1e-12, -3e-13, 0.0, 2e-11]
        terms = [(1.0 + e, p) for e, p in zip(noise, points1)]
        orders = []
        for perm in ([0, 1, 2, 3], [3, 1, 0, 2], [2, 3, 1, 0]):
            dec = Decomposition(shape1, [terms[i] for i in perm], 0.0)
            out = decompose_module._accept(dec, tensor1, 1e-6, "verify", "residual")
            orders.append([p.coords for _, p in out.terms])
        assert orders[0] == orders[1] == orders[2]
        firsts = [c[0][0] for c in orders[0]]
        assert firsts == sorted(firsts)


def embedded_rank_three_tensor():
    """A rank-3 2x2x2-affine instance embedded in 4x4x4 by orthonormal 4x3
    maps, so that ``reduce`` compresses it to a 3x3x3 core."""
    rng = np.random.default_rng(12)
    _, _, _, T_small = random_instance(rng, (2, 2, 2), (1, 1, 1), 3)
    Qs = [np.linalg.qr(rng.normal(size=(4, 3)))[0] for _ in range(3)]
    return array_to_poly(np.einsum("abc,ia,jb,kc->ijk", poly_to_array(T_small), *Qs))


class TestDecompose:
    def test_rank_one_exact(self):
        rng = np.random.default_rng(9)
        shape, ws, pts, T = random_instance(rng, (3, 2), (1, 2), 1)
        dec = decompose(T)
        assert dec.rank == 1
        assert dec.residual < 1e-10
        assert dec.weights()[0] == pytest.approx(ws[0], rel=1e-8)

    def test_scaling_equivariance(self):
        rng = np.random.default_rng(10)
        shape, ws, pts, T = random_instance(rng, (2, 2, 2), (1, 1, 1), 3)
        d1 = decompose(T, DecomposeOptions(seed=1))
        d2 = decompose(T * 2.5, DecomposeOptions(seed=1))
        assert d1.rank == d2.rank
        w1 = sorted(np.real(d1.weights()))
        w2 = sorted(np.real(d2.weights()))
        np.testing.assert_allclose(2.5 * np.array(w1), w2, rtol=1e-8)

    def test_monotone_acceptance(self, tensor1):
        # no smaller flat extension exists below the accepted rank
        lam = build_moment_functional(tensor1)
        dec = decompose(tensor1)
        assert dec.rank == 4
        for r in range(1, 4):
            for B, Bp in select_bases_candidates(Catalecticants(lam), r):
                ext = propagate_commutation(lam, B, Bp)
                assert (
                    ext.status != "extended"
                    or not flat_extension_check(ext.functional, B, Bp)
                )

    def test_meta_reports_the_flattening_rank(self, tensor2):
        assert decompose(tensor2).meta["lower_bound"] == rank_lower_bound(tensor2) == 6
        # an HOSVD-reduced run decomposed the core: no bound on T to report
        rng = np.random.default_rng(4)
        _, _, _, T = random_instance(rng, (3, 3, 3), (1, 1, 1), 2)
        dec = decompose(T, DecomposeOptions(reduce=True))
        assert dec.meta["reduced"] and "lower_bound" not in dec.meta

    def test_frame_zero_factors_each_split_once(self, monkeypatch, tensor2):
        # the lower bound and basis selection share one factorization per
        # complementary pair of splits: 4 for example2's 8
        shapes = count_split_factorizations(monkeypatch)
        dec = decompose(tensor2)
        assert not dec.meta["coordinate_change_applied"]
        assert len(split_pools(tensor2.shape)) == 8
        assert len(shapes) == 4

    def test_bound_sanity(self, tensor1, tensor2):
        for T in (tensor1, tensor2):
            b = rank_bounds(T)
            dec = decompose(T)
            assert b.lower <= dec.rank <= b.upper

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), -1e-6])
    def test_tol_rank_must_be_finite_and_non_negative(self, value):
        # nan once read as a rank of 0: "no decomposition at rank 1"
        with pytest.raises(ValueError, match="tol_rank"):
            DecomposeOptions(tol_rank=value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), -1e-6])
    def test_tol_resid_must_be_finite_and_non_negative(self, value):
        # nan once refused a residual of 5.8e-14
        with pytest.raises(ValueError, match="tol_resid"):
            DecomposeOptions(tol_resid=value)

    def test_zero_rejected(self):
        shape = Shape(dims=(2, 2), degrees=(1, 1))
        with pytest.raises(ValueError):
            decompose(Polynomial(shape, {}))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.nan, 1.0)])
    @pytest.mark.parametrize("reduce", [False, True])
    def test_non_finite_rejected(self, bad, reduce):
        # a NaN once raised numpy's "SVD did not converge", an inf printed
        # LAPACK's DLASCL complaint and then "no decomposition at rank 1";
        # rank_bounds read an inf as a flattening rank of 0.  No Polynomial
        # holds such a coefficient
        T = synthesize((2, 2, 2), (1, 1, 1), rank=2, seed=1)[0].tensor
        terms = dict(T.terms)
        terms[next(iter(terms))] = bad
        with pytest.raises(ValueError, match="non-finite"):
            decompose(Polynomial(T.shape, terms), DecomposeOptions(reduce=reduce))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.nan, 1.0)])
    def test_non_finite_vector_rejected(self, bad):
        T = synthesize((2, 2, 2), (1, 1, 1), rank=2, seed=1)[0].tensor
        vec = T.vector().astype(type(bad))
        vec[-1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            rank_bounds(Polynomial.from_vector(T.shape, vec))

    def test_returns_minimal_rank(self):
        # repeated or cancelling construction terms collapse to the true rank
        rng = np.random.default_rng(4)
        shape = Shape(dims=(3, 3, 3), degrees=(1, 1, 1))
        p1 = Point(tuple(tuple(rng.uniform(-1, 1, 3)) for _ in range(3)))
        p2 = Point(tuple(tuple(rng.uniform(-1, 1, 3)) for _ in range(3)))
        merged = decompose(rank_one_expand(shape, [1.0, 2.0, -0.5], [p1, p2, p1]))
        assert merged.rank == 2
        assert sorted(np.round(np.real(merged.weights()), 8)) == [0.5, 2.0]
        cancelled = decompose(rank_one_expand(shape, [1.0, 2.0, -1.0], [p1, p2, p1]))
        assert cancelled.rank == 1
        assert cancelled.weights()[0] == pytest.approx(2.0)

    def test_failure_report(self):
        # a generic 3x3x3 rank-4 tensor, above its flattening rank 3, whose
        # completions contradict the data: the loop must fail with a report
        # instead of fabricating an answer
        rng = np.random.default_rng(0)
        shape, ws, pts, T = random_instance(rng, (2, 2, 2), (1, 1, 1), 4)
        with pytest.raises(DecompositionError) as info:
            decompose(T)
        assert info.value.report

    def test_failure_report_names_real_failure(self):
        # the rank cap (30) is never reached: the one rank tried is the
        # flattening rank, and the report carries its last failure
        rng = np.random.default_rng(0)
        shape, ws, pts, T = random_instance(rng, (2, 2, 2), (1, 1, 1), 4)
        with pytest.raises(DecompositionError) as info:
            decompose(T)
        report = info.value.report
        assert report["stage"] == "extension"
        assert report["rank"] == 3
        assert "rank 3" in str(info.value) and "30" not in str(info.value)

    def test_refusal_stops_after_first_random_frame(self):
        # no completion extends in random frame 1, and whether one extends
        # does not depend on which generic frame is used
        rng = np.random.default_rng(0)
        shape, ws, pts, T = random_instance(rng, (2, 2, 2), (1, 1, 1), 4)
        with pytest.raises(DecompositionError) as info:
            decompose(T)
        report = info.value.report
        assert report["stage"] == "extension"
        assert report["frames"] == 2
        assert report["stop"] == "random frame 1: no completion extended"

    @pytest.mark.parametrize("limit", ["evaluations", "work"])
    def test_frame_stops_searching_after_vain_searches(self, limit, monkeypatch):
        # a generic (2,2)/(2,2) rank-6 tensor: three rank-deficient pairs per
        # frame.  Under a cap of two evaluations every search is vain, so
        # the first MAX_VAIN_SEARCHES families of each frame are searched
        # and the last only evaluated at t = 0.  Past the work cap nothing is
        # searched, which is no vain search: every family keeps its search
        extension = importlib.import_module("tdec.extension")
        if limit == "evaluations":
            monkeypatch.setattr(extension, "MAX_EVALUATIONS", 2)
        else:
            monkeypatch.setattr(extension, "MAX_FAMILY_WORK", 0)
        calls = []
        step = Family.commuting_member

        def recorded(family, search=True):
            res = step(family, search)
            calls.append((search, res.diagnostics["evaluations"]))
            return res

        monkeypatch.setattr(Family, "commuting_member", recorded)
        rng = np.random.default_rng(2)
        *_, T = random_instance(rng, (2, 2), (2, 2), 6)
        with pytest.raises(DecompositionError) as info:
            decompose(T)
        assert info.value.report["frames"] == 2
        if limit == "evaluations":
            frame = [(True, 2)] * MAX_VAIN_SEARCHES + [(False, 1)]
        else:
            frame = [(True, 1)] * 3
        assert calls == frame * 2

    def test_each_distinct_pair_completed_once_per_frame(self, monkeypatch, caplog):
        # a generic 3x3x3 rank-4 tensor, above its flattening rank 3: each
        # frame's selection yields one pair twice, and the repeat takes the
        # outcome of the first completion, log line included
        rng = np.random.default_rng(0)
        *_, T = random_instance(rng, (2, 2, 2), (1, 1, 1), 4)
        calls = []
        propagate = decompose_module.propagate_commutation

        def recording(lam, B, Bp, tol):
            calls.append((lam, tuple(B.codes.tolist()), tuple(Bp.codes.tolist())))
            return propagate(lam, B, Bp, tol=tol)

        monkeypatch.setattr(decompose_module, "propagate_commutation", recording)
        with caplog.at_level("INFO", logger="tdec"):
            with pytest.raises(DecompositionError) as info:
                decompose(T)
        assert len(calls) == len({(id(lam), b, bp) for lam, b, bp in calls}) == 6
        tried = [r for r in caplog.records if r.getMessage().startswith("r=3 bases")]
        assert len(tried) == 8
        # the refusal as it was before repeats were skipped
        assert str(info.value) == "no decomposition at rank 3"
        assert info.value.report == {
            "rank": 3,
            "stage": "extension",
            "detail": "inconsistent (6.75e-01)",
            "best_residual": float("inf"),
            "frames": 2,
            "stop": "random frame 1: no completion extended",
        }

    def test_flattening_rank_above_cap_refused(self, monkeypatch):
        # a flattening rank above MAX_RANK is refused before any attempt
        monkeypatch.setattr(decompose_module, "MAX_RANK", 2)
        rng = np.random.default_rng(0)
        *_, T = random_instance(rng, (2, 2, 2), (1, 1, 1), 3)
        with pytest.raises(DecompositionError) as info:
            decompose(T)
        assert str(info.value) == "lower bound 3 exceeds max rank 2"
        assert info.value.report == {"lower": 3, "max_rank": 2}

    def test_best_residual_is_smallest_of_every_attempt(self):
        # at tol_resid 0 every residual check fails; the report once kept
        # the smallest of each frame's last failure only (6.22e-14 here,
        # above the 6.06e-14 that the default options return)
        T = synthesize((2, 2, 2), (1, 1, 1), rank=3, seed=2)[0].tensor
        with pytest.raises(DecompositionError) as info:
            decompose(T, DecomposeOptions(tol_resid=0.0))
        report = info.value.report
        assert report["frames"] == 4
        assert report["stop"] == "frame limit"
        assert report["best_residual"] <= decompose(T).residual

    def test_flat_check_refusal(self):
        # slight noise: every frame's completion extends, but the prolonged
        # block has a rank above 6, so the retries run to the frame limit
        T = synthesize((3, 3, 5), (1, 1, 1), 6, seed=0, noise=3e-10)[0].tensor
        with pytest.raises(DecompositionError) as info:
            decompose(T, DecomposeOptions(tol_resid=1e-5))
        assert str(info.value) == "no decomposition at rank 6"
        assert info.value.report == {
            "rank": 6, "stage": "flat-check", "detail": "rank grew",
            "best_residual": float("inf"), "frames": 4, "stop": "frame limit",
        }

    @pytest.mark.parametrize("fault", ["singular", "zero weight"])
    def test_weight_stage_refusals(self, monkeypatch, fault):
        # every frame extends, so the retries run to the frame limit
        def solve_weights(T, points):
            if fault == "singular":
                raise WeightSolveError("evaluation system is rank deficient")
            return np.array([0.0] + [1.0] * (len(points) - 1)), 0.0

        monkeypatch.setattr(decompose_module, "solve_weights", solve_weights)
        rng = np.random.default_rng(0)
        *_, T = random_instance(rng, (2, 2, 2), (1, 1, 1), 3)
        with pytest.raises(DecompositionError) as info:
            decompose(T)
        report = info.value.report
        assert report["stage"] == "weights"
        assert report["detail"] == (
            "evaluation system is rank deficient" if fault == "singular"
            else "vanishing weight"
        )
        assert report["frames"] == 4
        assert report["stop"] == "frame limit"

    def test_refusal_details_hold_plain_numbers(self):
        # a family of completions refused at the extension stage (a
        # generic 4x4x10 rank-9 tensor, whose families are past the work
        # cap): its dimension in the detail prints as a Python int
        T = synthesize((3, 3, 9), (1, 1, 1), 9, 0)[0].tensor
        with pytest.raises(DecompositionError) as info:
            decompose(T)
        report = info.value.report
        assert report["stage"] == "extension"
        assert re.fullmatch(
            r"not unique: family of dimension \d+, commutator \d\.\d\de[+-]\d\d",
            report["detail"],
        )

    def test_reported_residual_is_that_of_returned_terms(self):
        # real values held as complex numbers take the complex code path,
        # whose roots carry rounding-level imaginary parts; the returned
        # terms drop them, and the residual must be recomputed from those
        rng = np.random.default_rng(0)
        shape, ws, pts, T = random_instance(rng, (2, 2, 2), (1, 1, 1), 3)
        T = Polynomial(shape, {m: complex(c) for m, c in T.terms.items()})
        assert T.is_real()
        dec = decompose(T, DecomposeOptions(seed=0))
        assert is_real_decomposition(dec, 0.0)
        assert dec.residual == verify(T, dec)

    @pytest.mark.parametrize("seed", [1, 34, 103])
    def test_block_admitted_below_default_tol_rank(self, seed):
        # selection admits the block at tol_rank 1e-12; a later re-check of
        # it at 1e-8 once raised an uncaught error here
        T = near_collinear_tensor(seed)
        opts = DecomposeOptions(tol_rank=1e-12)
        try:
            dec = decompose(T, opts)
        except DecompositionError:
            return
        assert verify(T, dec) <= opts.tol_resid

    def test_reduce_path(self):
        T = embedded_rank_three_tensor()
        dec = decompose(T, DecomposeOptions(seed=3, reduce=True))
        assert dec.meta["reduced"]
        assert dec.rank == 3
        assert dec.residual < 1e-8

    def test_reduce_at_full_multilinear_rank(self):
        # nothing to compress: the plain path runs and keeps lower_bound
        T = synthesize((3, 3, 5), (1, 1, 1), rank=6, seed=1)[0].tensor
        plain = decompose(T)
        dec = decompose(T, DecomposeOptions(reduce=True))
        assert dec.meta["reduced"] is False
        assert dec.meta["lower_bound"] == plain.meta["lower_bound"] == 6
        assert dec.terms == plain.terms
        assert dec.residual == plain.residual

    def test_reduce_refuses_term_at_infinity(self):
        # once an uncaught error from the lift of the HOSVD core's terms
        with pytest.raises(DecompositionError) as info:
            decompose(term_at_infinity_tensor(), DecomposeOptions(reduce=True))
        # the term at infinity is T's: the first frame's lift ends the retries
        assert str(info.value) == "no decomposition at rank 2"
        report = info.value.report
        assert report["stage"] == "lift"
        assert report["detail"] == "point at infinity in group 0"
        assert report["frames"] == 1
        assert report["stop"] == "frame 0: lift through the HOSVD factors"
        assert report["best_residual"] == float("inf")
        assert "compression_error" in report

    def test_compression_error_is_a_python_float(self):
        # as every other number of a report or of meta
        with pytest.raises(DecompositionError) as info:
            decompose(term_at_infinity_tensor(), DecomposeOptions(reduce=True))
        assert type(info.value.report["compression_error"]) is float
        dec = decompose(
            embedded_rank_three_tensor(), DecomposeOptions(seed=3, reduce=True)
        )
        assert dec.meta["reduced"]
        assert type(dec.meta["compression_error"]) is float

    def test_term_at_infinity_ends_frame_retries(self):
        # the input's own frame fails, and the first random frame whose
        # terms lift to infinity decides: that is T's, not the frame's
        with pytest.raises(DecompositionError) as info:
            decompose(term_at_infinity_tensor())
        report = info.value.report
        assert report["stage"] == "frame"
        assert report["detail"] == "point at infinity in group 0"
        assert report["frames"] == 2
        assert report["stop"] == "random frame 1: term at infinity"

    def test_reduce_rejects_lifted_residual_above_tolerance(self):
        # noise outside a multilinear-rank-(2,2,2) subspace that tol_rank
        # ignores: the core decomposes exactly, and the lifted residual is
        # the compression error, above tol_resid but below 10x that error
        rng = np.random.default_rng(3)
        _, _, _, T_small = random_instance(rng, (1, 1, 1), (1, 1, 1), 2)
        Qs = [np.linalg.qr(rng.normal(size=(4, 2)))[0] for _ in range(3)]
        big = np.einsum("abc,ia,jb,kc->ijk", poly_to_array(T_small), *Qs)
        big += 1e-5 * np.abs(big).max() * rng.normal(size=big.shape)
        T = array_to_poly(big)
        opts = DecomposeOptions(seed=0, reduce=True, tol_rank=1e-3, tol_resid=1e-6)
        _, _, err = hosvd_reduce(T, [2, 2, 2])
        with pytest.raises(DecompositionError) as info:
            decompose(T, opts)
        residual = info.value.report["residual"]
        assert opts.tol_resid < residual < 10 * err
        assert info.value.report["compression_error"] == err


class TestCoordinateChange:
    @pytest.mark.parametrize("reduce", [False, True], ids=["plain", "reduced"])
    def test_substitution_and_inversion_round_trip(self, monkeypatch, reduce):
        # the input's own frame fails, so the terms are found in the first
        # random frame and mapped back through its matrices; a reduced run
        # draws the frame for the HOSVD core, and once reported none
        real_change = decompose_module.random_coordinate_change
        real_eigen = decompose_module.joint_eigenvectors
        frames = []

        def recorded_change(shape, rng):
            frames.append(real_change(shape, rng))
            return frames[-1]

        def failing_own_frame(B, tables, seed=0):
            roots = real_eigen(B, tables, seed=seed)
            return replace(roots, simple=False) if seed == 0 else roots

        monkeypatch.setattr(decompose_module, "random_coordinate_change", recorded_change)
        monkeypatch.setattr(decompose_module, "joint_eigenvectors", failing_own_frame)
        if reduce:
            T = embedded_rank_three_tensor()
        else:
            rng = np.random.default_rng(13)
            shape, ws, pts, T = random_instance(rng, (2, 2), (2, 1), 3)
        back = decompose(T, DecomposeOptions(seed=0, reduce=reduce))
        assert isinstance(back, Decomposition)
        assert len(frames) == 1
        assert back.meta["coordinate_change_applied"]
        assert back.residual < 1e-8
        assert back.coordinate_change is frames[0]

    def test_frame_change_keeps_real_terms(self):
        # five sparse {-1,0,1} points of a 3x3x4 tensor of rank 4, whose
        # completions in the input's frame contradict the data; the terms
        # are realified once, in the work frame, and the real frame change
        # keeps them real floats on the way back
        shape = Shape(dims=(2, 2, 3), degrees=(1, 1, 1))
        rng = np.random.default_rng(124)
        pts = [
            Point(tuple(tuple(rng.integers(-1, 2, n).astype(float)) for n in shape.dims))
            for _ in range(5)
        ]
        T = rank_one_expand(shape, [1.0] * 5, pts)
        dec = decompose(T, DecomposeOptions(seed=0))
        assert dec.meta["coordinate_change_applied"] and dec.meta["rank"] == 4
        values = [w for w, _ in dec.terms] + [
            x for _, p in dec.terms for c in p.coords for x in c
        ]
        assert all(isinstance(x, float) for x in values)
        assert dec.residual == verify(T, dec) < 1e-8

    def test_draw_dependent_failures_keep_retrying(self, monkeypatch):
        # roots reported not simple after an extended completion may be an
        # unlucky draw: frame 1 failing that way does not stop the retries
        real = decompose_module.joint_eigenvectors
        seeds = []

        def unlucky_first_frames(B, tables, seed=0):
            seeds.append(seed)  # opts.seed + frame index
            roots = real(B, tables, seed=seed)
            return replace(roots, simple=False) if seed < 2 else roots

        monkeypatch.setattr(decompose_module, "joint_eigenvectors", unlucky_first_frames)
        rng = np.random.default_rng(10)
        shape, ws, pts, T = random_instance(rng, (2, 2, 2), (1, 1, 1), 3)
        dec = decompose(T, DecomposeOptions(seed=0))
        assert sorted(set(seeds)) == [0, 1, 2]
        assert dec.meta["coordinate_change_applied"]
        assert dec.residual == verify(T, dec) < 1e-8

    def test_frame_limit_stops_draw_dependent_failures(self, monkeypatch):
        real = decompose_module.joint_eigenvectors
        monkeypatch.setattr(
            decompose_module,
            "joint_eigenvectors",
            lambda B, tables, seed=0: replace(real(B, tables, seed=seed), simple=False),
        )
        rng = np.random.default_rng(10)
        shape, ws, pts, T = random_instance(rng, (2, 2, 2), (1, 1, 1), 3)
        with pytest.raises(DecompositionError) as info:
            decompose(T, DecomposeOptions(seed=0))
        report = info.value.report
        assert report["stage"] == "eigen"
        assert report["frames"] == 4
        assert report["stop"] == "frame limit"

    def test_inversion_rejects_residual_above_tolerance(self):
        rng = np.random.default_rng(13)
        shape, ws, pts, T = random_instance(rng, (2, 2), (2, 1), 3)
        mats = random_coordinate_change(shape, rng)
        work_dec = decompose(substitute_linear(T, mats), DecomposeOptions(seed=0))
        w, p = work_dec.terms[0]
        work_dec.terms[0] = (w * (1 + 1e-3), p)
        out = _lift(work_dec, mats, T, 1e-6, "frame", "back-mapped residual")
        assert not isinstance(out, Decomposition)
        assert out["stage"] == "frame"
        assert out["residual"] > 1e-6

    def test_substitution_preserves_rank_data(self):
        rng = np.random.default_rng(14)
        shape, ws, pts, T = random_instance(rng, (3, 3, 3), (1, 1, 1), 4)
        mats = random_coordinate_change(shape, rng)
        Twork = substitute_linear(T, mats)
        assert rank_lower_bound(Twork) == 4
        assert multilinear_rank(Twork) == multilinear_rank(T)


class TestFrameProperty:
    """In any random frame the moment completion of a generic tensor
    extends, which the retry rule relies on; what fails after it depends on
    the frame drawn, and terms found in the frame map back to terms of the
    original.  The HOSVD-reduced path recovers embedded tensors."""

    @given(
        seed=st.integers(0, 2**16),
        fmt=st.sampled_from(
            [((2, 2, 2), (1, 1, 1), 3), ((2, 2), (2, 1), 3), ((2, 2), (2, 2), 4)]
        ),
    )
    @settings(max_examples=10, deadline=None)
    # a nearly degenerate rank-4 tensor whose last pair extends in the frame
    # drawn and stops at the flat check (rank grew)
    @example(seed=307, fmt=((2, 2), (2, 2), 4))
    def test_forced_frame_change_round_trip(self, seed, fmt):
        dims, degrees, r = fmt
        rng = np.random.default_rng(seed)
        shape, ws, pts, T = random_instance(rng, dims, degrees, r)
        mats = random_coordinate_change(shape, rng)
        work = substitute_linear(T, mats)
        opts = DecomposeOptions(seed=0)
        cats = Catalecticants(build_moment_functional(work), opts.tol_rank)
        out, extended, _ = _attempt_rank(work, cats, r, opts, seed=0)
        assert extended
        if not isinstance(out, Decomposition):
            # rare: a point of the frame drawn makes a solve singular, or
            # the flat check fails in that frame only
            assert out["stage"] in ("flat-check", "eigen", "weights", "verify")
            if out["stage"] == "flat-check":
                dec = decompose(T, opts)
                assert dec.rank == r
                assert dec.residual == verify(T, dec) <= opts.tol_resid
            return
        back = _lift(out, mats, T, opts.tol_resid, "frame", "back-mapped residual")
        assert isinstance(back, Decomposition)
        assert back.rank == r
        assert is_real_decomposition(back, 0.0)
        assert back.residual == verify(T, back) <= opts.tol_resid

    @given(seed=st.integers(0, 2**16), r=st.integers(1, 3))
    @settings(max_examples=10, deadline=None)
    def test_reduce_round_trip(self, seed, r):
        # a rank-r 3x3x3 tensor embedded in 5x5x5 by orthonormal factors
        rng = np.random.default_rng(seed)
        _, _, _, T_small = random_instance(rng, (2, 2, 2), (1, 1, 1), r)
        Qs = [np.linalg.qr(rng.normal(size=(5, 3)))[0] for _ in range(3)]
        T = array_to_poly(np.einsum("abc,ia,jb,kc->ijk", poly_to_array(T_small), *Qs))
        opts = DecomposeOptions(seed=0, reduce=True)
        dec = decompose(T, opts)
        assert dec.meta["reduced"]
        assert dec.rank == r
        assert dec.residual == verify(T, dec) <= opts.tol_resid


class TestRoundTripProperty:
    @pytest.mark.parametrize(
        "dims,degrees,r",
        [
            ((3, 3, 3), (1, 1, 1), 4),
            ((2, 2, 3), (1, 1, 1), 4),
            ((2, 2), (2, 2), 5),
            ((2, 2, 2), (1, 1, 2), 5),
            ((1, 1, 1), (2, 2, 2), 3),
        ],
    )
    def test_recovers_construction(self, dims, degrees, r):
        rng = np.random.default_rng(hash((dims, degrees, r)) % 2**32)
        shape, ws, pts, T = random_instance(rng, dims, degrees, r)
        dec = decompose(T, DecomposeOptions(seed=0))
        assert dec.rank == r
        assert dec.residual < 1e-6
        got = sorted(np.round(np.real(dec.weights()), 6))
        want = sorted(np.round(ws, 6))
        np.testing.assert_allclose(got, want, atol=1e-6)
