import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden_data as gd
from conftest import (
    evaluate_loop,
    evaluation_functional,
    functional,
    moment,
    monomial_value,
    one,
    parse_monomial,
    poly,
    poly_add,
    rank_one_expand,
    variable,
)
from tdec.algebra import (
    DegreeOverflowError,
    Monomial,
    Point,
    Polynomial,
    Shape,
    ShapeMismatchError,
    canonical_order,
    evaluate,
    multinomial,
)
from tdec.moment import build_moment_functional, enumerate_monomials, hankel


S3 = Shape(dims=(3, 3, 3), degrees=(1, 1, 1))


def m(s, shape=S3):
    return parse_monomial(s, shape)


def act(p, lam, domain):
    """The module action p * lam: q -> lam(p q) on the domain, as values
    and a known mask, read off one moment matrix rows=domain, cols=terms."""
    monos = list(p.terms)
    H, known = hankel(lam, p.shape.exponents(domain), p.shape.exponents(monos))
    coeffs = np.array([p.terms[t] for t in monos])
    return H @ coeffs, known.all(axis=1)


def pair(lam, p):
    """lam applied to the polynomial p; every moment it needs is known."""
    values, known = act(p, lam, [one(p.shape)])
    assert known.all()
    return values[0]


class TestMonomial:
    def test_mul_adds_exponents(self):
        assert m("a1") * m("b1") == m("a1*b1")
        assert m("a1*a2") * m("a1") == m("a1^2*a2")

    def test_one_is_identity(self):
        x = m("a2*c3")
        assert x * m("1") == x

    def test_shape_mismatch(self):
        other = Shape(dims=(2,), degrees=(2,))
        with pytest.raises(ShapeMismatchError):
            m("a1") * parse_monomial("a1", other)

    def test_string_round_trip(self):
        for s in ["1", "a1", "a3*b2", "a1^2*c3"]:
            assert str(m(s)) == s

    def test_canonical_order_graded_group_major(self):
        shape = Shape(dims=(1,), degrees=(2,))
        monos = shape.monomials(enumerate_monomials(shape, [2]))
        assert [str(x) for x in monos] == ["1", "a1", "a1^2"]
        monos = [m("b1"), m("a3"), m("a1"), m("1"), m("a1*b1")]
        order = canonical_order(S3.exponents(monos))
        assert [str(monos[i]) for i in order] == ["1", "a1", "a3", "b1", "a1*b1"]


class TestMultinomial:
    def test_values(self):
        assert multinomial(2, (1,)) == 2
        assert multinomial(2, (2,)) == 1
        assert multinomial(3, (1, 1)) == 6
        with pytest.raises(DegreeOverflowError):
            multinomial(2, (3,))


class TestStarAction:
    def test_identity_polynomial(self, tensor1, shape1):
        lam = build_moment_functional(tensor1)
        unit = Polynomial(shape1, {one(shape1): 1})
        domain = [m("1"), m("a1"), m("a1*b1")]
        values, known = act(unit, lam, domain)
        assert known.all()
        assert values.tolist() == [moment(lam, q) for q in domain]

    def test_demo_moment(self, tensor1, shape1):
        lam = build_moment_functional(tensor1)
        c1 = Polynomial(shape1, {m("c1"): 1})
        values, _ = act(c1, lam, [one(shape1)])
        assert values[0] == 6

    def test_evaluation_square(self):
        shape = Shape(dims=(1,), degrees=(1,))
        x = parse_monomial("a1", shape)
        zeta = Point(((2,),))
        lam = evaluation_functional(zeta, shape, [one(shape), x, x * x])
        values, _ = act(Polynomial(shape, {x: 1}), lam, [x])
        assert values[0] == 4

    def test_unknowns_propagate_affinely(self):
        # a product leaving the known moments is flagged, not guessed
        shape = Shape(dims=(1,), degrees=(1,))
        x = parse_monomial("a1", shape)
        lam = functional(shape, {one(shape): 3.0})
        values, known = act(Polynomial(shape, {x: 2.0}), lam, [one(shape), x])
        assert known.tolist() == [False, False]
        values, known = act(
            Polynomial(shape, {one(shape): 2.0}), lam, [one(shape), x]
        )
        assert known.tolist() == [True, False]
        assert values[0] == 6.0

    @given(st.integers(-5, 5), st.integers(-5, 5))
    def test_linear_in_p(self, c1, c2):
        shape = Shape(dims=(2,), degrees=(2,))
        x = variable(shape, 0, 0)
        y = variable(shape, 0, 1)
        lam = functional(shape, {one(shape): 1.0, x: 2.0, y: -1.0})
        p = Polynomial(shape, {x: c1})
        q = Polynomial(shape, {y: c2, one(shape): 1})
        dom = [one(shape), x]
        left, known = act(poly_add(p, q), lam, dom)
        a, known_p = act(p, lam, dom)
        b, known_q = act(q, lam, dom)
        assert known.tolist() == (known_p & known_q).tolist()
        np.testing.assert_allclose(left[known], (a + b)[known])

    def test_module_structure(self, tensor1, shape1):
        # (pq) * lam == p * (q * lam) on fully known entries
        lam = build_moment_functional(tensor1)
        p = poly(shape1, {"a1": 2.0, "1": 1.0})
        q = poly(shape1, {"b2": -3.0})
        domain = [m("1"), m("c1"), m("c3")]
        inner = domain + [mm * m("a1") for mm in domain]
        values, known = act(q, lam, inner)
        assert known.all()
        via_q = functional(shape1, dict(zip(inner, values)))
        lhs, _ = act(p * q, lam, domain)
        rhs, _ = act(p, via_q, domain)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


class TestEvaluationFunctional:
    def test_origin(self):
        zeta = Point(((0, 0, 0), (0, 0, 0), (0, 0, 0)))
        dom = [m("1"), m("a1"), m("a1*b2")]
        lam = evaluation_functional(zeta, S3, dom)
        assert moment(lam, m("1")) == 1
        assert moment(lam, m("a1")) == 0
        assert moment(lam, m("a1*b2")) == 0

    def test_all_ones(self):
        zeta = Point(((1, 1, 1), (1, 1, 1), (1, 1, 1)))
        dom = S3.monomials(enumerate_monomials(S3, [1, 1, 1]))
        lam = evaluation_functional(zeta, S3, dom)
        assert all(moment(lam, mm) == 1 for mm in dom)

    def test_demo_point(self, points1):
        zeta = points1[1]  # (-1,-2,3 | -1,-1,-1 | -1,-2,-3)
        lam = evaluation_functional(zeta, S3, [m("a3*b1")])
        assert moment(lam, m("a3*b1")) == -3

    @given(
        st.tuples(*[st.integers(-3, 3) for _ in range(4)]),
    )
    def test_multiplicative(self, coords):
        shape = Shape(dims=(2, 2), degrees=(2, 2))
        zeta = Point(((coords[0], coords[1]), (coords[2], coords[3])))
        m1 = parse_monomial("a1*b2", shape)
        m2 = parse_monomial("a2*b1", shape)
        dom = [m1, m2, m1 * m2]
        lam = evaluation_functional(zeta, shape, dom)
        lhs = moment(lam, m1 * m2)
        rhs = moment(lam, m1) * moment(lam, m2)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestEvaluate:
    @pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
    def test_matches_python_products(self, cplx):
        # the weight fit evaluates at complex roots: there the values are
        # Python's products to the last bit; numpy's real power may round
        # differently from Python's
        rng = np.random.default_rng(3)
        shape = Shape(dims=(2, 3), degrees=(3, 2))

        def draw(n):
            x = rng.normal(size=n)
            return x + 1j * rng.normal(size=n) if cplx else x

        pts = [Point(tuple(tuple(draw(n).tolist()) for n in shape.dims)) for _ in range(4)]
        V = evaluate(shape, pts, shape.table.exps)
        monos = shape.monomials(shape.table.exps)
        want = np.array([[monomial_value(p, m) for p in pts] for m in monos])
        assert V.dtype == want.dtype
        if cplx:
            assert V.tobytes() == want.tobytes()
        else:
            np.testing.assert_allclose(V, want, rtol=1e-14)

    @pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
    def test_bit_equal_to_loop(self, cplx):
        # zero coordinates of either sign and exponent-0 rows are where a
        # product by z ** 0 = 1 + 0j could move the sign of a zero part
        rng = np.random.default_rng(5)
        zeros = [0.0, -0.0]
        for dims, degrees, n_pts in [
            ((2, 3), (3, 2), 4), ((1,), (6,), 9), ((3, 3, 5), (1, 1, 1), 7),
            ((2, 2), (2, 2), 1), ((4,), (4,), 0),
        ]:
            shape = Shape(dims=dims, degrees=degrees)
            n = sum(dims)
            Z = rng.normal(size=(n_pts, n))
            if cplx:
                Z = Z + 1j * rng.normal(size=(n_pts, n))
                Z.real[rng.random(Z.shape) < 0.3] = rng.choice(zeros)
            Z[rng.random(Z.shape) < 0.3] = rng.choice(zeros)
            ends = np.cumsum(dims).tolist()
            spans = list(zip([0, *ends[:-1]], ends))
            pts = [Point(tuple(tuple(z[a:b].tolist()) for a, b in spans)) for z in Z]
            exps = shape.table.exps
            got = evaluate(shape, pts, exps)
            want = evaluate_loop(shape, pts, exps)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            # rows in any order, repeated, and the monomial 1 alone
            rows = rng.permutation(np.concatenate([np.arange(len(exps)), [0, 0]]))
            assert (evaluate(shape, pts, exps[rows]).tobytes()
                    == evaluate_loop(shape, pts, exps[rows]).tobytes())
            assert (evaluate(shape, pts, exps[:1]).tobytes()
                    == evaluate_loop(shape, pts, exps[:1]).tobytes())

    def test_zero_parts_keep_their_sign(self):
        # a1*a2 at (0, -1 - 0j, 0) is 0 - 0j; a product by a3 ** 0 = 1 + 0j
        # would add 0 * 0.0 to the imaginary part and make it +0.0
        shape = Shape(dims=(3,), degrees=(3,))
        pts = [Point(((0j, complex(-1.0, -0.0), 0j),))]
        exps = np.array([[1, 1, 0], [2, 1, 0]])
        got = evaluate(shape, pts, exps)
        assert got.tobytes() == evaluate_loop(shape, pts, exps).tobytes()
        assert np.signbit(got.imag).all() and not np.signbit(got.real).any()

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            evaluate(S3, [Point(((1.0,), (1.0,), (1.0,)))], S3.table.exps)


class TestApolar:
    """The apolar duality: the moment functional T* of a tensor T applied to
    g is sum_a T_a g_a / C(d, a), so multinomial weights enter once."""

    def test_constants(self):
        unit = Polynomial(S3, {one(S3): 1})
        assert pair(build_moment_functional(unit), unit) == 1

    def test_binary_quadratic(self):
        shape = Shape(dims=(1,), degrees=(2,))
        x = parse_monomial("a1", shape)
        xx = x * x
        f = Polynomial(shape, {xx: 1})
        assert pair(build_moment_functional(f), f) == 1
        g = Polynomial(shape, {x: 1})
        assert pair(build_moment_functional(g), g) == 0.5

    def test_degree_overflow(self):
        shape = Shape(dims=(1,), degrees=(1,))
        x = parse_monomial("a1", shape)
        with pytest.raises(DegreeOverflowError):
            Polynomial(shape, {x * x: 1.0})

    @given(
        st.integers(-4, 4), st.integers(-4, 4),
        st.integers(-4, 4), st.integers(-4, 4),
        st.integers(-4, 4),
    )
    def test_symmetric_bilinear(self, a, b, c, d, s):
        shape = Shape(dims=(2,), degrees=(2,))
        x, y = variable(shape, 0, 0), variable(shape, 0, 1)
        f = Polynomial(shape, {x: a, x * y: b})
        g = Polynomial(shape, {y: c, x * y: d})
        h = Polynomial(shape, {one(shape): s, x: 1})

        def apolar(u, v):
            return pair(build_moment_functional(u), v)

        assert apolar(f, g) == pytest.approx(apolar(g, f))
        assert apolar(poly_add(f, h), g) == pytest.approx(apolar(f, g) + apolar(h, g))
        assert apolar(f * s, g) == pytest.approx(s * apolar(f, g))

    def test_agrees_with_moment_functional_multilinear(self, tensor1, shape1):
        # all multinomials are 1, so T*(g) is the plain coefficient sum
        lam = build_moment_functional(tensor1)
        g = poly(shape1, {"a1*b1*c1": 2.0, "b2": -1.0, "1": 0.5})
        plain = sum(c * tensor1.terms.get(mm, 0) for mm, c in g.terms.items())
        assert pair(lam, g) == pytest.approx(plain, rel=1e-10)


class TestEvaluatePoly:
    """Evaluating p at zeta is the evaluation form 1_zeta applied to p."""

    @staticmethod
    def evaluate(p, zeta):
        return pair(evaluation_functional(zeta, p.shape, list(p.terms)), p)

    def test_affine_constant(self, shape1):
        p = poly(shape1, {"1": 1, "a1": 1})
        zeta = Point(((0, 5, 5), (1, 1, 1), (1, 1, 1)))
        assert self.evaluate(p, zeta) == 1

    def test_sum_of_coefficients(self, tensor1):
        ones = Point(((1, 1, 1), (1, 1, 1), (1, 1, 1)))
        assert self.evaluate(tensor1, ones) == sum(gd.COEFFS1.values())

    def test_product(self, shape1):
        p = poly(shape1, {"a1*b1": 1})
        zeta = Point(((2, 9, 9), (3, 9, 9), (9, 9, 9)))
        assert self.evaluate(p, zeta) == 6


class TestGoldenTensors:
    def test_expansion_matches_typed_coefficients(
        self, shape1, tensor1, points1, shape2, tensor2, points2
    ):
        built1 = rank_one_expand(shape1, gd.WEIGHTS1, points1)
        assert built1.terms == tensor1.terms
        built2 = rank_one_expand(shape2, gd.WEIGHTS2, points2)
        assert built2.terms == tensor2.terms


class TestPolynomialVector:
    SHAPE = Shape(dims=(2, 1), degrees=(2, 1))

    @pytest.mark.parametrize(
        "coeffs",
        [
            {"1": 2.0, "a1": -1.5, "a2*b1": 3},
            {"1": 1 + 2j, "a1": 0.5},
            {"a1^2": 1 + 0j, "b1": -2.0},
            {"1": 0.0, "a1": -0.0, "a2": 0j, "b1": 2.0, "a1*a2": complex(-0.0, 0.0)},
            {"a1": complex(-0.0, 1.0)},
            {},
        ],
        ids=["real", "complex", "complex-typed-real", "zeros", "signed-zero-real-part",
             "empty"],
    )
    def test_round_trip_through_vector(self, coeffs):
        P = poly(self.SHAPE, coeffs)
        v = P.vector()
        assert not v.flags.writeable
        with pytest.raises(ValueError):
            v[0] = 1.0
        Q = Polynomial.from_vector(self.SHAPE, v)
        assert Q.terms == P.terms
        assert np.iscomplexobj(Q.vector()) == np.iscomplexobj(P.vector()) == any(
            isinstance(c, complex) and c != 0 for c in coeffs.values()
        )
        assert Q.is_real() == P.is_real()
        assert Q.is_zero() == P.is_zero() == (not P.terms)
        assert Q.vector().tobytes() == v.tobytes()
        assert not Q.vector().flags.writeable
        assert Q == P

    def test_from_vector_stores_no_negative_zero_and_keeps_the_input(self):
        n = len(self.SHAPE.table.exps)
        values = np.zeros(n)
        values[:3] = [-0.0, 1.5, -0.0]
        P = Polynomial.from_vector(self.SHAPE, values)
        assert not np.signbit(P.vector()).any()
        assert list(P.terms.values()) == [1.5]
        values[1] = 7.0  # the caller's array stays its own
        assert values.flags.writeable and P.vector()[1] == 1.5
        complex_values = np.zeros(n, dtype=complex)
        complex_values[0] = complex(-0.0, -0.0)
        complex_values[1] = complex(-0.0, 2.0)
        C = Polynomial.from_vector(self.SHAPE, complex_values)
        assert not np.signbit(C.vector().view(float)[:2]).any()
        assert np.signbit(C.vector()[1].real)  # a non-zero keeps its parts
        assert list(C.terms) == self.SHAPE.monomials(self.SHAPE.table.exps[1:2])

    def test_is_real_tolerance(self):
        # the threshold is a fixed 1e-12 on the largest imaginary part
        below = poly(self.SHAPE, {"1": 1 + 1e-13j, "a1": 2.0})
        above = poly(self.SHAPE, {"1": 1 + 1e-11j, "a1": 2.0})
        assert below.is_real() and not above.is_real()
        assert Polynomial.from_vector(self.SHAPE, below.vector()).is_real()
        assert not Polynomial.from_vector(self.SHAPE, above.vector()).is_real()

    def test_term_beyond_the_table(self):
        with pytest.raises(DegreeOverflowError):
            poly(self.SHAPE, {"a1^3": 1.0, "b1": 2.0})
        # a negative exponent has a code, (-R, 1) that of the monomial 1
        radix = self.SHAPE.radix[0]
        with pytest.raises(DegreeOverflowError):
            Polynomial(self.SHAPE, {Monomial(((-radix, 1), (0,))): 1.0})

    def test_monomial_of_another_grouping(self):
        # the same three exponents grouped (1, 2) instead of (2, 1)
        with pytest.raises(ShapeMismatchError):
            Polynomial(self.SHAPE, {Monomial(((1,), (0, 0))): 1.0})

    def test_vector_of_the_wrong_length(self):
        with pytest.raises(ShapeMismatchError):
            Polynomial.from_vector(self.SHAPE, np.ones(3))
