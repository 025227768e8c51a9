"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time

import numpy as np
import pytest

import golden_data as gd
from conftest import basis_of, poly, rank_one_expand, relation_for, weighted_evaluation
from tdec.algebra import Monomial, Point, Shape
from tdec.decompose import DecomposeOptions, decompose, expected_rank, kruskal_bound
from tdec.eigen import multiplication_matrix
from tdec.extension import (
    commutator_residual,
    flat_extension_check,
    propagate_commutation,
)
from tdec.files import synthesize
from tdec.moment import (
    MonomialBasis,
    basis_plus,
    build_moment_functional,
    enumerate_monomials,
    hankel,
    select_bases_candidates,
)


def term_vectors(dec):
    return [
        np.concatenate(
            [[complex(w)]] + [np.asarray(p.coords[g]) for g in range(dec.shape.k)]
        )
        for w, p in dec.terms
    ]


def match_up_to_permutation(actual, expected, tol):
    remaining = list(expected)
    for a in actual:
        hits = [
            i
            for i, e in enumerate(remaining)
            if np.allclose(a, e, atol=tol, rtol=tol)
        ]
        if not hits:
            return False
        remaining.pop(hits[0])
    return not remaining


def test_criterion_1_golden_example_1(tensor1, shape1, points1):
    start = time.perf_counter()
    dec = decompose(tensor1, DecomposeOptions(seed=0))
    elapsed = time.perf_counter() - start
    assert dec.rank == 4
    assert dec.residual < 1e-8
    weights = np.sort(np.real(dec.weights()))
    np.testing.assert_allclose(weights, [1, 1, 1, 1], atol=1e-8)
    expected_pts = [
        np.concatenate([[1.0]] + [np.asarray(c, float) for c in p.coords])
        for p in points1
    ]
    assert match_up_to_permutation(term_vectors(dec), expected_pts, tol=1e-6)
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print(
        f"\nPASS criterion 1: 4x4x4 instance, rank 4, unit weights, all nine "
        f"coordinates per point within 1e-6, residual {dec.residual:.1e}, "
        f"{elapsed * 1000:.0f} ms"
    )


def test_criterion_2_golden_example_2(tensor2, shape2):
    start = time.perf_counter()
    lam = build_moment_functional(tensor2)
    B, Bp = next(select_bases_candidates(lam, 6))
    H = hankel(lam, Bp.exps, B.exps).numeric()
    np.testing.assert_array_equal(H, np.array(gd.H2, dtype=float))
    ext = propagate_commutation(lam, B, Bp)
    rel = relation_for(ext, Monomial.parse("a1^2", shape2))
    np.testing.assert_allclose(rel.tail, gd.RELATIONS2["a1^2"], atol=5e-3)
    dec = decompose(tensor2, DecomposeOptions(seed=0))
    elapsed = time.perf_counter() - start
    assert dec.rank == 6
    assert dec.residual < 1e-6
    got = np.sort(np.real(dec.weights()))
    np.testing.assert_allclose(got, sorted(gd.WEIGHTS2), atol=1e-3)
    assert elapsed < 2.0, f"took {elapsed:.2f}s"
    print(
        f"\nPASS criterion 2: 4x4x6 instance, rank 6, weights "
        f"(2,-1,-2,3,-5,-3), exact moment block, quadratic relation within "
        f"5e-3, residual {dec.residual:.1e}, {elapsed * 1000:.0f} ms"
    )


def test_criterion_3_eigen_structure(tensor1, shape1):
    lam = build_moment_functional(tensor1)
    B = basis_of(shape1, gd.H1_B_COLS)
    Bp = basis_of(shape1, gd.H1_B_ROWS)
    for l, name in enumerate(["c1", "c2", "c3"]):
        M = multiplication_matrix(lam, B, Bp, (2, l))
        got = np.sort(np.real(np.linalg.eigvals(M.T)))
        np.testing.assert_allclose(got, sorted(gd.EIGVALS_C[name]), atol=1e-8)
    print(
        "\nPASS criterion 3: eigenvalue multisets of the three transposed "
        "multiplication tables match {-1,2,4,1}, {-2,4,5,1}, {-3,2,6,1}"
    )


def test_criterion_4_bounds():
    shape = Shape(dims=(3, 3, 6), degrees=(1, 1, 1))
    assert expected_rank(shape) == 9
    assert kruskal_bound(shape) == 6
    print("\nPASS criterion 4: 4x4x7 format has expected rank 9, Kruskal bound 6")


def test_criterion_5_criteria_equivalence():
    # rank test vs commutation over random complete functionals; families
    # with a single variable or a single basis element commute trivially and
    # carry no commutation information, so sizes start at two
    rng = np.random.default_rng(2024)
    agreements = 0
    trials = 0
    while agreements < 200:
        trials += 1
        assert trials < 2000
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
        pts = [
            Point(tuple(tuple(rng.uniform(-1, 1, n)) for n in shape.dims))
            for _ in range(true_rank)
        ]
        ws = rng.uniform(0.5, 2.0, true_rank) * rng.choice([-1, 1], true_rank)
        in_range = enumerate_monomials(shape, list(shape.degrees))
        B = MonomialBasis(shape, in_range[:r])
        domain = set(shape.monomials(in_range))
        plus = shape.monomials(basis_plus(B))
        for mr in plus:
            for mc in plus:
                domain.add(mr * mc)
        lam = weighted_evaluation(ws, pts, shape, sorted(domain, key=lambda m: m.sort_key()))
        H = hankel(lam, B.exps, B.exps).numeric()
        if np.linalg.cond(H) > 1e8:
            continue
        mats = [multiplication_matrix(lam, B, B, v) for v in shape.variables()]
        flat = flat_extension_check(lam, B, B)
        commuting = commutator_residual(mats) < 1e-8
        assert flat == commuting, (shape, r, true_rank, flat, commuting)
        agreements += 1
    print(
        f"\nPASS criterion 5: rank criterion and commutation criterion agree "
        f"on {agreements} random complete functionals"
    )


ROUND_TRIP_ROSTER = [
    # (dims, degrees, rank, number of seeds)
    ((3, 3, 3), (1, 1, 1), 2, 8),
    ((3, 3, 3), (1, 1, 1), 3, 8),
    ((3, 3, 3), (1, 1, 1), 4, 8),
    ((2, 2, 2), (1, 1, 1), 2, 6),
    ((2, 2, 2), (1, 1, 1), 3, 6),
    ((3, 3, 2), (1, 1, 1), 3, 6),
    ((2, 2, 3), (1, 1, 1), 4, 6),
    ((3, 3, 5), (1, 1, 1), 5, 6),
    ((3, 3, 5), (1, 1, 1), 6, 6),
    ((2, 2), (2, 2), 3, 6),
    ((2, 2), (2, 2), 4, 6),
    ((2, 2), (2, 2), 5, 6),
    ((2, 3), (2, 1), 3, 6),
    ((3, 2), (1, 2), 3, 6),
    ((2, 2, 2), (1, 1, 2), 4, 6),
    ((2, 2, 2), (1, 1, 2), 5, 6),
    ((1, 1, 1), (2, 2, 2), 2, 4),
    ((1, 1, 1), (2, 2, 2), 3, 4),
]


def test_criterion_6_round_trip_suite():
    start = time.perf_counter()
    count = 0
    for dims, degrees, r, n_seeds in ROUND_TRIP_ROSTER:
        shape = Shape(dims=dims, degrees=degrees)
        assert r < expected_rank(shape)
        for seed in range(n_seeds):
            rng = np.random.default_rng(7919 * seed + hash((dims, r)) % 10000)
            pts = [
                Point(tuple(tuple(rng.uniform(-1, 1, n)) for n in shape.dims))
                for _ in range(r)
            ]
            ws = rng.uniform(0.5, 2.0, r) * rng.choice([-1.0, 1.0], r)
            T = rank_one_expand(shape, ws, pts)
            dec = decompose(T, DecomposeOptions(seed=seed))
            assert dec.rank == r, (dims, degrees, r, seed, dec.rank)
            assert dec.residual < 1e-6, (dims, degrees, r, seed, dec.residual)
            count += 1
    elapsed = time.perf_counter() - start
    assert count >= 100
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    print(
        f"\nPASS criterion 6: {count} random instances recovered at their "
        f"construction rank with residual < 1e-6 in {elapsed:.1f} s"
    )


def test_criterion_7_hosvd_property():
    from tdec.decompose import (
        array_to_poly,
        hosvd_reduce,
        map_back,
        multilinear_rank,
        verify,
    )

    rng = np.random.default_rng(99)
    for r_target in [(2, 3, 3), (3, 3, 2), (2, 2, 2)]:
        core = rng.normal(size=r_target)
        factors = [
            np.linalg.qr(rng.normal(size=(4, s)))[0] for s in r_target
        ]
        A = np.einsum("abc,ia,jb,kc->ijk", core, *factors)
        T = array_to_poly(A)
        assert multilinear_rank(T) == list(r_target)
        core_poly, U, err = hosvd_reduce(T, list(r_target))
        assert err < 1e-10
        core_dec = decompose(core_poly, DecomposeOptions(seed=0))
        assert verify(T, map_back(core_dec, U)) < 1e-8
    print(
        "\nPASS criterion 7: exact Tucker tensors compress with error < 1e-10 "
        "and lift back within 1e-8 after decomposing the core"
    )


def test_criterion_8_repeatability_on_4x4x7():
    tf, truth = synthesize((3, 3, 6), (1, 1, 1), rank=7, seed=123)
    runs = [
        decompose(tf.tensor, DecomposeOptions(seed=s)) for s in (0, 5000)
    ]
    assert all(d.rank == 7 and d.residual < 1e-6 for d in runs)
    assert match_up_to_permutation(
        term_vectors(runs[0]), term_vectors(runs[1]), tol=1e-6
    )
    print(
        "\nPASS criterion 8: two independently seeded runs on a random "
        "4x4x7 rank-7 instance return the same decomposition up to "
        "permutation (1e-6)"
    )
