"""Multi-graded monomials, the per-shape monomial table, and the moment
functional.

Polynomials live in the dehomogenized multi-graded ring: variables come in
``k`` groups of sizes ``dims = (n_1, ..., n_k)``, and a polynomial of
multi-degree at most ``degrees = (d_1, ..., d_k)`` has, in each group ``g``,
total degree at most ``d_g``.  The homogenizing variable of each group is
implicit (set to 1).  ``Polynomial`` holds a tensor as its coefficient
vector over the shape's one table of its monomial range (``Shape.table``),
and nothing else: a monomial -> coefficient dict is read into that vector
at once, and ``Polynomial.terms`` forms the dict back, in table order, only
when asked.  The table itself holds arrays only (exponents, codes,
multinomials); ``Shape.monomials`` and ``Shape.exponents`` convert between
``Monomial`` objects and exponent rows.  ``evaluate`` gives monomial values
at points.

Every monomial of a shape has an exact integer code, its exponents read as
the digits of a mixed-radix number, so that code(m * m') = code(m) +
code(m') as long as no exponent reaches the radix of its group.  The radix
2 d_g + 3 exceeds every exponent the pipeline forms (products of two
monomials of degree at most d_g + 1), and a product that would reach it
raises instead of wrapping; codes of shapes whose code space exceeds 63 bits
are Python integers.  Moment matrices, product tables and syzygy
pairs are built by adding codes in numpy.

The dual side is represented by ``MomentFunctional``: the codes of the
known moments in increasing order and their values.  A monomial whose code
has no entry has an unknown moment; moment completion solves for such
moments as plain linear unknowns and returns a new functional that knows
them.  One search in the sorted codes reads a whole block of codes at once.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cache, cached_property
from types import MappingProxyType
from typing import Iterable

import numpy as np

GROUP_LETTERS = "abcdefghijklmnopqrstuvwxyz"


class ShapeMismatchError(ValueError):
    pass


class DegreeOverflowError(ValueError):
    pass


@dataclass(frozen=True)
class Shape:
    """The multi-grading: group sizes (affine variables) and degrees."""

    dims: tuple[int, ...]
    degrees: tuple[int, ...]

    def __post_init__(self):
        # operator.index refuses floats instead of truncating them
        object.__setattr__(self, "dims", tuple(map(operator.index, self.dims)))
        object.__setattr__(self, "degrees", tuple(map(operator.index, self.degrees)))
        if len(self.dims) != len(self.degrees) or not self.dims:
            raise ValueError("dims and degrees must be non-empty and equally long")
        if any(n < 1 for n in self.dims) or any(d < 1 for d in self.degrees):
            raise ValueError("dims and degrees must be positive")

    @property
    def k(self) -> int:
        return len(self.dims)

    @property
    def ambient_dim(self) -> int:
        """Number of coefficients of a full multi-graded polynomial."""
        return math.prod(
            math.comb(n + d, d) for n, d in zip(self.dims, self.degrees)
        )

    def variables(self) -> list[tuple[int, int]]:
        """All variable indices (group, slot), canonical order."""
        return [(g, j) for g in range(self.k) for j in range(self.dims[g])]

    def var_name(self, g: int, j: int) -> str:
        return f"{GROUP_LETTERS[g]}{j + 1}"

    @property
    def radix(self) -> tuple[int, ...]:
        """Per group, one more than the largest exponent formed by
        multiplying two monomials of degree at most d_g + 1 (a known-range
        monomial times a variable), as the once-prolonged moment matrices
        of two bases inside the known range do."""
        return tuple(2 * d + 3 for d in self.degrees)

    @cached_property
    def _digit_radix(self) -> np.ndarray:
        return np.repeat(np.array(self.radix, dtype=np.int64), self.dims)

    @cached_property
    def variable_codes(self) -> np.ndarray:
        """Codes of the variables in canonical order: the place values of
        the code's digits."""
        places = [1]
        for radix in self._digit_radix.tolist():
            places.append(places[-1] * radix)
        # codes that need more than 63 bits stay exact as Python integers
        fits = places[-1] <= np.iinfo(np.int64).max
        return np.array(places[:-1], dtype=np.int64 if fits else object)

    @property
    def table(self) -> "MonomialTable":
        """The full monomial range, built once per format: equal shapes
        share one read-only table."""
        return _monomial_table(self)

    def monomials(self, exps: np.ndarray) -> list["Monomial"]:
        """Monomials of the rows of an exponent matrix (inverse of
        ``exponents``)."""
        ends = np.cumsum(self.dims).tolist()
        spans = list(zip([0] + ends[:-1], ends))
        parts: dict = {}  # monomials share their group parts: less memory
        out = []
        for row in exps.tolist():
            groups = (tuple(row[a:b]) for a, b in spans)
            out.append(Monomial(tuple(parts.setdefault(e, e) for e in groups)))
        return out

    def exponents(self, monos) -> np.ndarray:
        """Exponent matrix of a monomial sequence, one row per monomial and
        one column per variable in canonical order."""
        groups = list(itertools.chain.from_iterable(m.exps for m in monos))
        if list(map(len, groups)) != list(self.dims) * len(monos):
            raise ShapeMismatchError("monomials do not match the shape")
        flat = np.fromiter(itertools.chain.from_iterable(groups), dtype=np.int64)
        return flat.reshape(len(monos), sum(self.dims))

    def codes(self, exps: np.ndarray) -> np.ndarray:
        """Codes of the rows of an exponent matrix; DegreeOverflowError when
        an exponent is negative or reaches its radix."""
        if exps.size and (
            (exps.max(axis=0) >= self._digit_radix).any() or exps.min() < 0
        ):
            raise DegreeOverflowError("exponent outside the monomial code range")
        return exps @ self.variable_codes

    def product_codes(self, *factors: np.ndarray) -> np.ndarray:
        """codes[i, j, ...] = code of the product of factors[0][i],
        factors[1][j], ..., one axis per exponent matrix, checked before any
        product exponent can reach its radix."""
        if all(len(e) for e in factors):
            # the elementwise largest product must have a code
            self.codes(sum(e.max(axis=0) for e in factors)[None, :])
        out = self.codes(factors[0])
        for e in factors[1:]:
            out = np.add.outer(out, self.codes(e))
        return out


@dataclass(frozen=True, slots=True)
class Monomial:
    """Exponent vectors, one per variable group."""

    exps: tuple[tuple[int, ...], ...]

    @property
    def total_degree(self) -> int:
        return sum(sum(e) for e in self.exps)

    def is_one(self) -> bool:
        return self.total_degree == 0

    def __mul__(self, other: "Monomial") -> "Monomial":
        if len(self.exps) != len(other.exps) or any(
            len(a) != len(b) for a, b in zip(self.exps, other.exps)
        ):
            raise ShapeMismatchError("monomials of different shapes")
        return Monomial(
            tuple(
                tuple(x + y for x, y in zip(a, b))
                for a, b in zip(self.exps, other.exps)
            )
        )

    def __str__(self) -> str:
        if self.is_one():
            return "1"
        parts = []
        for g, e in enumerate(self.exps):
            for j, x in enumerate(e):
                if x == 1:
                    parts.append(f"{GROUP_LETTERS[g]}{j + 1}")
                elif x > 1:
                    parts.append(f"{GROUP_LETTERS[g]}{j + 1}^{x}")
        return "*".join(parts)


def multinomial(degree: int, alpha: Iterable[int]) -> int:
    """degree! / (alpha_1! ... alpha_n! (degree - |alpha|)!), exact."""
    alpha = tuple(alpha)
    rest = degree - sum(alpha)
    if rest < 0:
        raise DegreeOverflowError(f"|{alpha}| exceeds degree {degree}")
    num = math.factorial(degree)
    den = math.prod(math.factorial(x) for x in alpha) * math.factorial(rest)
    return num // den


def graded_exponents(n: int, bound: int) -> np.ndarray:
    """Exponent vectors of n variables with sum at most ``bound``, graded and
    decreasing lexicographic within a degree: the multisets of variables
    in lexicographic order."""
    combos = [
        c
        for t in range(bound + 1)
        for c in itertools.combinations_with_replacement(range(n), t)
    ]
    exps = np.zeros((len(combos), n), dtype=np.int64)
    rows = [i for i, c in enumerate(combos) for _ in c]
    np.add.at(exps, (rows, [v for c in combos for v in c]), 1)
    return exps


def canonical_order(exps: np.ndarray) -> np.ndarray:
    """Row order of an exponent matrix: by total degree, then by decreasing
    exponent of the first variable, then of the second, and so on
    (group-major: 1, a1, a3, b1, a1*b1).  Stable: equal rows keep their
    order."""
    return np.lexsort(np.vstack([-exps[:, ::-1].T, exps.sum(axis=1)]))


def graded_range(dims, bounds):
    """All exponent rows with group-g degree at most bounds[g], in canonical
    order (``canonical_order``: by total degree, then decreasing
    lexicographic in the variables).

    Returns the exponent matrix, the position of each row's group parts
    among the groups' own graded exponents, and those per-group exponents.
    """
    groups = [graded_exponents(n, b) for n, b in zip(dims, bounds)]
    index = np.indices([len(G) for G in groups]).reshape(len(groups), -1).T
    exps = np.hstack([G[index[:, g]] for g, G in enumerate(groups)])
    order = canonical_order(exps)
    return exps[order], index[order], groups


class MonomialTable:
    """The monomials of a shape within its degree bounds, canonical order.

    ``exps`` is their exponent matrix and ``multinomials`` the products of
    the per-group multinomials C(d_g; alpha_g), exact integers held as
    floats.  ``group_exps[g]`` lists the graded monomials of group g alone
    and ``group_index[m, g]`` the position of row m's group-g part among
    them, so ``A[tuple(group_index.T)]`` reads a coefficient array with one
    axis per group (the Kronecker layout) in table order.  ``codes`` are the
    rows' codes, ``sorted_codes`` the same in increasing order (the codes of
    the functional of a tensor) and ``rows`` maps codes to rows.  Every
    attribute is a read-only array.
    """

    def __init__(self, shape: Shape):
        self.exps, self.group_index, self.group_exps = graded_range(
            shape.dims, shape.degrees
        )
        self.codes = shape.codes(self.exps)
        self._code_order = np.argsort(self.codes)
        self.sorted_codes = self.codes[self._code_order]
        per_group = [
            np.array([multinomial(d, e) for e in G.tolist()], dtype=np.int64)
            for d, G in zip(shape.degrees, self.group_exps)
        ]
        self.multinomials = np.prod(
            [c[self.group_index[:, g]] for g, c in enumerate(per_group)], axis=0
        ).astype(float)
        self.group_exps = tuple(self.group_exps)
        for a in (self.exps, self.group_index, self.multinomials, self.codes,
                  self._code_order, self.sorted_codes, *self.group_exps):
            a.setflags(write=False)  # shared by every user of the format

    def rows(self, codes: np.ndarray) -> np.ndarray:
        """Rows of the monomials with the given codes; DegreeOverflowError
        for a code outside the table."""
        keys = self.sorted_codes
        pos = np.minimum(np.searchsorted(keys, codes), len(keys) - 1)
        if (keys[pos] != codes).any():
            raise DegreeOverflowError("monomial beyond the table of the shape")
        return self._code_order[pos]


@cache
def _monomial_table(shape: Shape) -> MonomialTable:
    return MonomialTable(shape)


@dataclass(frozen=True)
class Point:
    """Affine evaluation point, one coordinate vector per group."""

    coords: tuple[tuple[complex, ...], ...]

    def real(self) -> "Point":
        return Point(tuple(tuple(complex(x).real for x in c) for c in self.coords))


def evaluate(shape: Shape, points, exps: np.ndarray) -> np.ndarray:
    """V[m, i] = the monomial with exponent row exps[m] at points[i].

    The factors z_v ** e with e > 0 are multiplied in variable order.
    Complex products are formed from real and imaginary parts, as Python
    forms them, because numpy's complex multiply may fuse its operations and
    round differently: at complex points (the roots the weight fit reads) V
    holds Python's products to the last bit.  The powers of every
    coordinate up to the largest exponent are taken in one call, and each
    variable's products run over all rows at once; a row whose exponent of
    x_v is 0 keeps its value, since a product by 1 + 0j can move the sign
    of a zero part.
    """
    if any(tuple(len(c) for c in p.coords) != shape.dims for p in points):
        raise ShapeMismatchError("point does not match shape")
    Z = np.array([[x for c in p.coords for x in c] for p in points])
    Z = Z.astype(np.result_type(Z, float)).reshape(len(points), sum(shape.dims))
    exps = np.asarray(exps).T  # exps[v, m]: the exponent of x_v in row m
    table = Z.T ** np.arange(exps.max(initial=0) + 1)[:, None, None]
    # powers[v, m, i] = z_v ** exps[v, m] at points[i]
    powers = table[exps, np.arange(len(exps))[:, None]]
    re, im = np.ones(powers.shape[1:]), np.zeros(powers.shape[1:])
    for p_re, p_im, factor in zip(powers.real, powers.imag, exps[:, :, None] != 0):
        a, b = re * p_re, im * p_im
        c, d = re * p_im, im * p_re
        np.subtract(a, b, out=re, where=factor)
        np.add(c, d, out=im, where=factor)
    if not np.iscomplexobj(Z):
        return re
    V = re.astype(complex)
    V.imag = im
    return V


class Polynomial:
    """Multi-graded polynomial: a shape and one read-only coefficient vector
    over the rows of the shape's monomial table (``vector``), its only
    storage.

    Built from a monomial -> coefficient dict or from the vector itself
    (``from_vector``); either raises ValueError for a non-finite
    coefficient.  ``terms``, the dict of the non-zero coefficients in
    table order, is a view formed when asked for: files and equality read
    it; computation reads the vector."""

    __slots__ = ("shape", "_vector", "_terms", "_max_imag")

    def __init__(self, shape: Shape, terms: dict[Monomial, complex] | None = None):
        """The vector is complex when any non-zero coefficient is stored as
        a complex type; DegreeOverflowError for a term outside the table."""
        terms = {m: c for m, c in (terms or {}).items() if c != 0}
        table = shape.table
        cplx = any(isinstance(c, complex) for c in terms.values())
        vec = np.zeros(len(table.exps), dtype=complex if cplx else float)
        vec[table.rows(shape.codes(shape.exponents(list(terms))))] = list(
            terms.values()
        )
        self._store(shape, vec)

    @staticmethod
    def from_vector(shape: Shape, values: np.ndarray) -> "Polynomial":
        """The polynomial with coefficients ``values`` over the table rows,
        kept as a read-only copy in which zeros of either sign read 0.0."""
        values = np.asarray(values)
        vec = np.where(values == 0, 0, values).astype(
            np.result_type(values, float), copy=False
        )
        if vec.shape != (len(shape.table.exps),):
            raise ShapeMismatchError("coefficient vector does not match the table")
        P = Polynomial.__new__(Polynomial)
        P._store(shape, vec)
        return P

    def _store(self, shape: Shape, vec: np.ndarray):
        if not np.isfinite(vec).all():
            raise ValueError("tensor has a non-finite coefficient")
        vec.setflags(write=False)
        self.shape, self._vector, self._terms, self._max_imag = shape, vec, None, None

    @property
    def terms(self) -> MappingProxyType:
        """Monomial -> coefficient of the non-zero coefficients, in table
        order, read-only."""
        if self._terms is None:
            rows = np.flatnonzero(self._vector)
            monomials = self.shape.monomials(self.shape.table.exps[rows])
            self._terms = dict(zip(monomials, self._vector[rows].tolist()))
        return MappingProxyType(self._terms)

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.shape == other.shape
            and self.terms == other.terms
        )

    def is_zero(self) -> bool:
        return not self._vector.any()

    def is_real(self) -> bool:
        """Negligible imaginary parts, none above 1e-12 (values, not storage
        types)."""
        if self._max_imag is None:
            self._max_imag = float(np.abs(self._vector.imag).max(initial=0.0))
        return self._max_imag <= 1e-12

    def vector(self) -> np.ndarray:
        """Coefficients over the rows of the shape's monomial table,
        read-only."""
        return self._vector

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return Polynomial(self.shape, {m: c * other for m, c in self.terms.items()})
        if self.shape != other.shape:
            raise ShapeMismatchError("polynomial shapes differ")
        terms: dict[Monomial, complex] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1 * m2
                terms[m] = terms.get(m, 0) + c1 * c2
        return Polynomial(self.shape, terms)

    __rmul__ = __mul__


@dataclass(frozen=True, eq=False)
class MomentFunctional:
    """Partial linear form on the monomials: the codes of the known moments
    in increasing order and their values, two read-only arrays.

    A code without an entry has an unknown moment.  ``lookup`` reads a block
    of codes; ``extended`` returns a new functional with more moments, so a
    functional never changes after construction.  Values are float, or
    complex when given complex; codes take the shape's code dtype (Python
    integers past 63 bits).
    """

    shape: Shape
    codes: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        codes = np.asarray(self.codes, dtype=self.shape.variable_codes.dtype)
        values = np.asarray(self.values)
        if codes.ndim != 1 or codes.shape != values.shape:
            raise ValueError("codes and values must be equally long vectors")
        order = np.argsort(codes)
        codes = codes[order]
        values = values[order].astype(np.result_type(values, float), copy=False)
        if (codes[1:] == codes[:-1]).any():
            raise ValueError("duplicate moment codes")
        for name, a in (("codes", codes), ("values", values)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    def lookup(self, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Values of the moments with the given codes (0 where unknown) and
        the mask of the known ones, both shaped like ``codes``."""
        pos = self.positions(codes)
        return self.values_at(pos), pos >= 0

    def positions(self, codes: np.ndarray) -> np.ndarray:
        """Positions in ``values`` of the moments with the given codes, -1
        where unknown, shaped like ``codes``."""
        keys = self.codes
        if not len(keys):
            return np.full(np.shape(codes), -1)
        pos = np.minimum(np.searchsorted(keys, codes), len(keys) - 1)
        return np.where(keys[pos] == codes, pos, -1)

    def values_at(self, pos: np.ndarray) -> np.ndarray:
        """The values at positions from ``positions``, 0 at -1."""
        values = self.values
        if not len(values):  # every position is -1
            values = np.zeros(1, dtype=values.dtype)
        return np.where(pos >= 0, values[pos], 0)

    def extended(self, codes, values) -> "MomentFunctional":
        """A functional that also knows the moments ``values`` of ``codes``:
        known codes keep their values and, of a code given more than once,
        the first value wins.  With no code new and no wider value type the
        functional is ``self``, which it equals."""
        codes = np.asarray(codes, dtype=self.codes.dtype)
        values = np.asarray(values)
        new = first_unknown(self, codes)
        if not len(new) and np.result_type(self.values, values) == self.values.dtype:
            return self
        return MomentFunctional(
            self.shape,
            np.concatenate([self.codes, codes[new]]),
            np.concatenate([self.values, values[new]]),
        )


def first_unknown(lam: MomentFunctional, codes: np.ndarray) -> np.ndarray:
    """Positions of the codes unknown to ``lam``, each at its first
    occurrence, in increasing order."""
    _, first = np.unique(codes, return_index=True)
    first.sort()
    _, known = lam.lookup(codes[first])
    return first[~known]
