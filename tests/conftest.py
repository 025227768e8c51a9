import importlib
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import golden_data as gd
from tdec.algebra import (
    GROUP_LETTERS,
    Monomial,
    MomentFunctional,
    Point,
    Polynomial,
    Shape,
    ShapeMismatchError,
    canonical_order,
    multinomial,
)
from tdec.decompose import array_to_poly
from tdec.moment import MonomialBasis, enumerate_monomials, hankel


def parse_monomial(text: str, shape: Shape) -> Monomial:
    """Inverse of str(Monomial): e.g. "a1*b3^2" -> Monomial."""
    exps = [[0] * n for n in shape.dims]
    text = text.strip()
    if text != "1":
        for factor in text.split("*"):
            name, _, power = factor.partition("^")
            g = GROUP_LETTERS.index(name[0])
            j = int(name[1:]) - 1
            exps[g][j] += int(power) if power else 1
    return Monomial(tuple(tuple(e) for e in exps))


def is_real_decomposition(dec, tol: float = 1e-8) -> bool:
    """Every weight and point coordinate of ``dec`` has an imaginary part
    of at most ``tol``."""
    return all(
        abs(complex(x).imag) <= tol
        for w, p in dec.terms
        for x in (w, *(x for c in p.coords for x in c))
    )


def one(shape: Shape) -> Monomial:
    """The monomial 1 of the shape."""
    return Monomial(tuple((0,) * n for n in shape.dims))


def variable(shape: Shape, g: int, j: int) -> Monomial:
    """The variable x_j of group g."""
    return parse_monomial(shape.var_name(g, j), shape)


def canonical_sorted(shape: Shape, monos) -> list[Monomial]:
    """The monomials in canonical order, equal ones in their given order."""
    monos = list(monos)
    return [monos[i] for i in canonical_order(shape.exponents(monos))]


def code(shape: Shape, m: Monomial) -> int:
    """The exact integer code of a monomial in ``shape``."""
    return int(shape.codes(shape.exponents([m]))[0])


def data_table(lam: MomentFunctional, B: MonomialBasis, Bp: MonomialBasis, g, j):
    """The table of x_j of group g from moments alone: the solve of
    lam(b'_i b_j) against lam(x b'_i b_j), both fully known."""
    shape = lam.shape
    H, known = hankel(lam, Bp.exps, B.exps)
    shifted = [variable(shape, g, j) * q for q in shape.monomials(Bp.exps)]
    Hs, known_s = hankel(lam, shape.exponents(shifted), B.exps)
    assert known.all() and known_s.all()
    return np.linalg.solve(H, Hs)


def functional(shape: Shape, entries: dict) -> MomentFunctional:
    """The functional knowing the moments of a {Monomial: value} dict."""
    return MomentFunctional(
        shape, shape.codes(shape.exponents(list(entries))), list(entries.values())
    )


def moment(lam: MomentFunctional, m: Monomial):
    """The known moment of m; KeyError when it is unknown."""
    values, known = lam.lookup(lam.shape.codes(lam.shape.exponents([m])))
    if not known[0]:
        raise KeyError(f"moment of {m} is unknown")
    return values[0].item()


def rows_of(shape: Shape, names) -> np.ndarray:
    """Exponent rows of the monomials named like str(Monomial)."""
    return shape.exponents([parse_monomial(s, shape) for s in names])


def basis_of(shape: Shape, names) -> MonomialBasis:
    return MonomialBasis(shape, rows_of(shape, names))


def shuffled_border(B: MonomialBasis, seed: int) -> MonomialBasis:
    """A copy of B whose cached border, the completion's targets, is
    permuted by ``np.random.default_rng(seed)``.  Completion plans are
    cached under B's codes, which the copy keeps, so a test passing it
    builds its plans uncached."""
    out = MonomialBasis(B.shape, B.exps)
    border = B.border[np.random.default_rng(seed).permutation(len(B.border))]
    # border is a cached_property, read from the instance dict once set
    out.__dict__["border"] = border
    return out


def poly(shape: Shape, coeffs: dict[str, complex]) -> Polynomial:
    return Polynomial(
        shape, {parse_monomial(s, shape): c for s, c in coeffs.items()}
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
    result = Polynomial(p.shape, {one(p.shape): 1})
    for _ in range(n):
        result = result * p
    return result


def rank_one_expand(shape: Shape, weights, points) -> Polynomial:
    """Expand sum_i gamma_i prod_g (1 + <zeta_g, x_g>)^(d_g) term by term."""
    total = Polynomial(shape, {})
    for w, pt in zip(weights, points):
        term = Polynomial(shape, {one(shape): w})
        for g, coords in enumerate(pt.coords):
            linear = poly_add(
                Polynomial(shape, {one(shape): 1}),
                *(Polynomial(shape, {variable(shape, g, j): z}) for j, z in enumerate(coords)),
            )
            term = term * poly_pow(linear, shape.degrees[g])
        total = poly_add(total, term)
    return total


def count_calls(monkeypatch, *names, owner=np.linalg):
    """Count the calls of the named functions of ``owner`` (a module or a
    class; np.linalg by default)."""
    calls = {name: 0 for name in names}
    for name in names:
        fn = getattr(owner, name)

        def counted(*a, _name=name, _fn=fn, **k):
            calls[_name] += 1
            return _fn(*a, **k)

        monkeypatch.setattr(owner, name, counted)
    return calls


def count_split_factorizations(monkeypatch) -> list:
    """Record the shape of every block that ``numerical_rank`` factors
    while a ``Catalecticants`` is built; the selection's staircases, which
    run later, are not recorded."""
    moment = importlib.import_module("tdec.moment")
    rank, init = moment.numerical_rank, moment.Catalecticants.__init__
    shapes, building = [], [False]

    def counted_rank(A, *a, **k):
        if building[0]:
            shapes.append(A.shape)
        return rank(A, *a, **k)

    def counted_init(self, *a, **k):
        building[0] = True
        try:
            init(self, *a, **k)
        finally:
            building[0] = False

    monkeypatch.setattr(moment, "numerical_rank", counted_rank)
    monkeypatch.setattr(moment.Catalecticants, "__init__", counted_init)
    return shapes


def near_collinear_tensor(seed: int) -> Polynomial:
    """Rank 3 on (2,2,2)/(1,1,1), weights 1, -1, 1, with the second point
    within 1e-3 to 1e-5 of the first.  At seeds 1, 34 and 103, selection at
    tol_rank 1e-12 admits a block whose rank at the default 1e-8 is 2."""
    rng = np.random.default_rng(seed)
    base = rng.uniform(-1, 1, (3, 6))
    base[1] = base[0] + rng.choice([1e-3, 1e-4, 1e-5]) * rng.normal(size=6)
    points = [Point((tuple(b[:2]), tuple(b[2:4]), tuple(b[4:]))) for b in base]
    return rank_one_expand(Shape((2, 2, 2), (1, 1, 1)), [1.0, -1.0, 1.0], points)


def term_at_infinity_tensor() -> Polynomial:
    """a (x) b (x) c + a' (x) b' (x) c' on 4x4x4, where a = (0, 1, 0.5, -0.3)
    has homogenizing coordinate 0: the first term has no affine point.  Its
    multilinear rank is (2, 2, 2), so --reduce decomposes a 2x2x2 core and
    lifts the term to infinity."""
    rng = np.random.default_rng(0)
    a = np.array([0.0, 1.0, 0.5, -0.3])
    b, c, a2, b2, c2 = (
        np.concatenate(([1.0], rng.uniform(-1, 1, 3))) for _ in range(5)
    )
    return array_to_poly(
        np.einsum("i,j,k->ijk", a, b, c) + np.einsum("i,j,k->ijk", a2, b2, c2)
    )


def substitute_reference(T: Polynomial, mats) -> Polynomial:
    """T(A_1 y_1, ..., A_k y_k) by expanding products of affine-linear
    polynomials: homogeneous variable i of group g becomes
    A_g[i, 0] + sum_l A_g[i, l + 1] y_l."""
    shape = T.shape
    subs = [
        [
            Polynomial(shape, {
                one(shape): A[i, 0],
                **{variable(shape, g, l): A[i, l + 1] for l in range(shape.dims[g])},
            })
            for i in range(shape.dims[g] + 1)
        ]
        for g, A in enumerate(mats)
    ]
    total = Polynomial(shape, {})
    for m, c in T.terms.items():
        term = Polynomial(shape, {one(shape): c})
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


def evaluate_loop(shape: Shape, points, exps: np.ndarray) -> np.ndarray:
    """The per-variable loop that ``evaluate`` stacked: the rows with a
    non-zero exponent of x_v are gathered, multiplied by z_v ** e by the
    re/im product rule and scattered back.  The reference for its bits."""
    Z = np.array([[x for c in p.coords for x in c] for p in points])
    Z = Z.astype(np.result_type(Z, float)).reshape(len(points), sum(shape.dims))
    re, im = np.ones((len(exps), len(points))), np.zeros((len(exps), len(points)))
    for v in range(Z.shape[1]):
        rows = np.flatnonzero(exps[:, v])
        power = Z[None, :, v] ** exps[rows, v][:, None]
        a, b = re[rows], im[rows]
        re[rows] = a * power.real - b * power.imag
        im[rows] = a * power.imag + b * power.real
    if not np.iscomplexobj(Z):
        return re
    V = re.astype(complex)
    V.imag = im
    return V


def evaluation_functional(zeta: Point, shape: Shape, domain) -> MomentFunctional:
    """The evaluation form 1_zeta: m -> m(zeta), on the given domain."""
    if tuple(len(c) for c in zeta.coords) != shape.dims:
        raise ShapeMismatchError("point does not match shape")
    return functional(shape, {m: monomial_value(zeta, m) for m in domain})


def weighted_evaluation(weights, points, shape: Shape, domain) -> MomentFunctional:
    """The rank-r form sum_i gamma_i 1_{zeta_i} on the given domain."""
    return functional(shape, {
        m: sum(w * monomial_value(z, m) for w, z in zip(weights, points))
        for m in domain
    })


def relation_for(ext, B: MonomialBasis, m: Monomial):
    """The tail of the border relation of m over B, read from the tables of
    the extension ``ext`` as column s of M_v for some m = x_v * b_s, or
    None when m is no such product."""
    row = B.shape.exponents([m])[0]
    for v in np.flatnonzero(row):
        below = row.copy()
        below[v] -= 1
        s = np.flatnonzero((B.exps == below).all(axis=1))
        if len(s):
            return ext.tables[v][:, s[0]]
    return None


def functional_to_tensor(lam: MomentFunctional, shape: Shape) -> Polynomial:
    """Inverse of build_moment_functional: each moment of the degree-bounded
    range times its multinomial; every moment must be known."""
    terms = {}
    for m in shape.monomials(enumerate_monomials(shape, list(shape.degrees))):
        mult = math.prod(multinomial(d, e) for d, e in zip(shape.degrees, m.exps))
        terms[m] = moment(lam, m) * mult
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


def syzygy_reference(prop, unresolved):
    """The syzygy rows of a propagator, one pair and one side at a time:
    rows over the coefficient blocks of the unresolved targets, right-hand
    sides, and the largest inconsistency met (pairs with no unknown, and
    rows left all zero)."""
    r, dtype = prop.r, prop.dtype
    tails = [
        prop.table[r + t] if prop.known[r + t] else None
        for t in range(len(prop.plan.targets))
    ]

    def shifted(v, s):
        # x_v * b_s as ("known", vec) or ("unknown", target index)
        slot = prop.plan.shift[v][s]
        if slot < r:
            return "known", np.eye(r, dtype=dtype)[slot]
        if tails[slot - r] is not None:
            return "known", tails[slot - r]
        return "unknown", slot - r

    def side(v, t):
        # x_v * N(m_t) (N(m_t) when v < 0) as (const, {target: matrix}),
        # or None when it is not linear in the unresolved coefficients
        const = np.zeros(r, dtype=dtype)
        lin = {}
        tail = tails[t]
        if v < 0:
            if tail is not None:
                return tail.copy(), lin
            lin[t] = np.eye(r, dtype=dtype)
            return const, lin
        if tail is not None:
            for s in range(r):
                if tail[s] == 0:
                    continue
                kind, val = shifted(v, s)
                if kind == "known":
                    const += tail[s] * val
                else:
                    mat = lin.setdefault(val, np.zeros((r, r), dtype=dtype))
                    mat += tail[s] * np.eye(r, dtype=dtype)
            return const, lin
        V = np.zeros((r, r), dtype=dtype)
        for s in range(r):
            kind, val = shifted(v, s)
            if kind != "known":
                return None
            V[:, s] = val
        lin[t] = V
        return const, lin

    inconsistency = 0.0
    X, b = [], []
    for t1, t2, v1, v2 in prop.plan.syzygy_pairs.tolist():
        s1, s2 = side(v1, t1), side(v2, t2)
        if s1 is None or s2 is None:
            continue
        (c1, l1), (c2, l2) = s1, s2
        if not l1 and not l2:
            gap = np.linalg.norm(c1 - c2) / max(
                1.0, np.linalg.norm(c1), np.linalg.norm(c2)
            )
            inconsistency = max(inconsistency, gap)
            continue
        rows = np.zeros((r, len(unresolved) * r), dtype=dtype)
        zero = np.zeros((r, r), dtype=dtype)
        for t in set(l1) | set(l2):
            k = unresolved.index(t)
            rows[:, k * r:(k + 1) * r] = l1.get(t, zero) - l2.get(t, zero)
        for row, rhs in zip(rows, c2 - c1):
            if row.any():
                X.append(row)
                b.append(rhs)
            else:
                inconsistency = max(inconsistency, abs(rhs))
    X = np.array(X, dtype=dtype).reshape(-1, len(unresolved) * r)
    return X, np.array(b, dtype=dtype), inconsistency


def assert_same_output(got, want, path="$"):
    """Integers, strings and structure exactly; floats to rel 1e-9."""
    if isinstance(want, float):
        assert isinstance(got, float), path
        assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12), (path, got, want)
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), path
        for key in want:
            assert_same_output(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same_output(g, w, f"{path}[{i}]")
    else:
        assert type(got) is type(want) and got == want, (path, got, want)
