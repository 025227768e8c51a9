import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import golden_data as gd
from tdec.algebra import (
    Monomial,
    MomentFunctional,
    Point,
    Polynomial,
    Shape,
    ShapeMismatchError,
    multinomial,
)
from tdec.moment import MonomialBasis, enumerate_monomials


def rows_of(shape: Shape, names) -> np.ndarray:
    """Exponent rows of the monomials named like str(Monomial)."""
    return shape.exponents([Monomial.parse(s, shape) for s in names])


def basis_of(shape: Shape, names) -> MonomialBasis:
    return MonomialBasis(shape, rows_of(shape, names))


def poly(shape: Shape, coeffs: dict[str, complex]) -> Polynomial:
    return Polynomial(
        shape, {Monomial.parse(s, shape): c for s, c in coeffs.items()}
    )


def poly_add(*polys: Polynomial) -> Polynomial:
    """Sum of polynomials of one shape, term by term."""
    terms: dict[Monomial, complex] = {}
    for p in polys:
        for m, c in p.terms.items():
            terms[m] = terms.get(m, 0) + c
    return Polynomial(polys[0].shape, terms)


def poly_pow(p: Polynomial, n: int) -> Polynomial:
    """p ** n by repeated term-by-term products."""
    result = Polynomial(p.shape, {p.shape.one(): 1})
    for _ in range(n):
        result = result * p
    return result


def rank_one_expand(shape: Shape, weights, points) -> Polynomial:
    """Expand sum_i gamma_i prod_g (1 + <zeta_g, x_g>)^(d_g) term by term."""
    total = Polynomial(shape, {})
    for w, pt in zip(weights, points):
        term = Polynomial(shape, {shape.one(): w})
        for g, coords in enumerate(pt.coords):
            linear = poly_add(
                Polynomial(shape, {shape.one(): 1}),
                *(Polynomial(shape, {shape.variable(g, j): z}) for j, z in enumerate(coords)),
            )
            term = term * poly_pow(linear, shape.degrees[g])
        total = poly_add(total, term)
    return total


def substitute_reference(T: Polynomial, mats) -> Polynomial:
    """T(A_1 y_1, ..., A_k y_k) by expanding products of affine-linear
    polynomials: homogeneous variable i of group g becomes
    A_g[i, 0] + sum_l A_g[i, l + 1] y_l."""
    shape = T.shape
    subs = [
        [
            Polynomial(shape, {
                shape.one(): A[i, 0],
                **{shape.variable(g, l): A[i, l + 1] for l in range(shape.dims[g])},
            })
            for i in range(shape.dims[g] + 1)
        ]
        for g, A in enumerate(mats)
    ]
    total = Polynomial(shape, {})
    for m, c in T.terms.items():
        term = Polynomial(shape, {shape.one(): c})
        for g, exps in enumerate(m.exps):
            hom0 = shape.degrees[g] - sum(exps)
            if hom0:
                term = term * poly_pow(subs[g][0], hom0)
            for j, e in enumerate(exps):
                if e:
                    term = term * poly_pow(subs[g][j + 1], e)
        total = poly_add(total, term)
    return total


def monomial_value(zeta: Point, m: Monomial) -> complex:
    """m(zeta), one factor at a time."""
    val = 1.0
    for c, e in zip(zeta.coords, m.exps):
        for x, power in zip(c, e):
            if power:
                val *= x**power
    return val


def evaluation_functional(zeta: Point, shape: Shape, domain) -> MomentFunctional:
    """The evaluation form 1_zeta: m -> m(zeta), on the given domain."""
    if tuple(len(c) for c in zeta.coords) != shape.dims:
        raise ShapeMismatchError("point does not match shape")
    return MomentFunctional(shape, {m: monomial_value(zeta, m) for m in domain})


def weighted_evaluation(weights, points, shape: Shape, domain) -> MomentFunctional:
    """The rank-r form sum_i gamma_i 1_{zeta_i} on the given domain."""
    return MomentFunctional(shape, {
        m: sum(w * monomial_value(z, m) for w, z in zip(weights, points))
        for m in domain
    })


def relation_for(ext, m: Monomial):
    """The border relation of ``ext`` led by m, or None."""
    return next((rel for rel in ext.relations if rel.lead == m), None)


def functional_to_tensor(lam: MomentFunctional, shape: Shape) -> Polynomial:
    """Inverse of build_moment_functional: each moment of the degree-bounded
    range times its multinomial; every moment must be known."""
    terms = {}
    for m in shape.monomials(enumerate_monomials(shape, list(shape.degrees))):
        mult = math.prod(multinomial(d, e) for d, e in zip(shape.degrees, m.exps))
        terms[m] = lam.known_value(m) * mult
    return Polynomial(shape, terms)


@pytest.fixture(scope="session")
def shape1():
    return Shape(**gd.SHAPE1)


@pytest.fixture(scope="session")
def shape2():
    return Shape(**gd.SHAPE2)


@pytest.fixture(scope="session")
def tensor1(shape1):
    return poly(shape1, gd.COEFFS1)


@pytest.fixture(scope="session")
def tensor2(shape2):
    return poly(shape2, gd.COEFFS2)


@pytest.fixture(scope="session")
def points1():
    return [Point(tuple(tuple(c) for c in p)) for p in gd.POINTS1]


@pytest.fixture(scope="session")
def points2():
    return [Point(tuple(tuple(c) for c in p)) for p in gd.POINTS2]
