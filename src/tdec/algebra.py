"""Multi-graded monomials, the per-shape monomial table, and the moment
functional.

Polynomials live in the dehomogenized multi-graded ring: variables come in
``k`` groups of sizes ``dims = (n_1, ..., n_k)``, and a polynomial of
multi-degree at most ``degrees = (d_1, ..., d_k)`` has, in each group ``g``,
total degree at most ``d_g``.  The homogenizing variable of each group is
implicit (set to 1).  ``Polynomial`` is a container of coefficients;
computation goes through arrays over the shape's one table of its monomial
range (``Shape.table``), and ``evaluate`` gives monomial values at points.

Every monomial of a shape has an exact integer code, its exponents read as
the digits of a mixed-radix number, so that code(m * m') = code(m) +
code(m') as long as no exponent reaches the radix of its group.  The radix
2 d_g + 3 exceeds every exponent the pipeline forms (products of two
monomials of degree at most d_g + 1), and a product that would reach it
raises instead of wrapping; codes of shapes whose code space exceeds 63 bits
are Python integers.  Moment matrices, product tables and syzygy
pairs are built by adding codes in numpy.

The dual side is represented by ``MomentFunctional``: a partial map from
monomials to numbers.  A monomial without an entry has an unknown moment;
moment completion solves for such moments as plain linear unknowns.  A
code-sorted view of the known moments looks up a whole block of codes at
once.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property
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

    def one(self) -> "Monomial":
        return Monomial(tuple((0,) * n for n in self.dims))

    def variable(self, g: int, j: int) -> "Monomial":
        exps = [[0] * n for n in self.dims]
        exps[g][j] = 1
        return Monomial(tuple(tuple(e) for e in exps))

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

    @cached_property
    def table(self) -> "MonomialTable":
        """The full monomial range, built once per shape."""
        return MonomialTable(self)

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
        n_vars = sum(self.dims)
        flat = np.fromiter(
            itertools.chain.from_iterable(
                itertools.chain.from_iterable(m.exps for m in monos)
            ),
            dtype=np.int64,
        )
        if flat.size != len(monos) * n_vars:
            raise ShapeMismatchError("monomials do not match the shape")
        return flat.reshape(len(monos), n_vars)

    def codes(self, exps: np.ndarray) -> np.ndarray:
        """Codes of the rows of an exponent matrix; DegreeOverflowError when
        an exponent reaches its radix."""
        if exps.size and (exps.max(axis=0) >= self._digit_radix).any():
            raise DegreeOverflowError("exponent beyond the monomial code radix")
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

    def code(self, shape: Shape) -> int:
        """The exact integer code of the monomial in ``shape``."""
        return int(shape.codes(shape.exponents([self]))[0])

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

    def sort_key(self):
        """Graded order, group-major lexicographic within a degree."""
        flat = tuple(x for e in self.exps for x in e)
        return (self.total_degree, tuple(-x for x in flat))

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

    @staticmethod
    def parse(text: str, shape: Shape) -> "Monomial":
        """Inverse of str(): e.g. "a1*b3^2" -> Monomial."""
        exps = [[0] * n for n in shape.dims]
        text = text.strip()
        if text != "1":
            for factor in text.split("*"):
                name, _, power = factor.partition("^")
                g = GROUP_LETTERS.index(name[0])
                j = int(name[1:]) - 1
                exps[g][j] += int(power) if power else 1
        return Monomial(tuple(tuple(e) for e in exps))


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
    """Row order of an exponent matrix by ``Monomial.sort_key``: graded,
    then decreasing lexicographic (np.lexsort is stable, as sorted() is)."""
    return np.lexsort(np.vstack([-exps[:, ::-1].T, exps.sum(axis=1)]))


def graded_range(dims, bounds):
    """All exponent rows with group-g degree at most bounds[g], in canonical
    order (``Monomial.sort_key``: graded, then decreasing lexicographic).

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

    ``exps`` is their exponent matrix, ``degrees`` their per-group degrees
    and ``multinomials`` the products of the per-group multinomials
    C(d_g; alpha_g), exact integers held as floats.  ``group_exps[g]``
    lists the graded monomials of group g alone and ``group_index[m, g]``
    the position of row m's group-g part among them, so
    ``A[tuple(group_index.T)]`` reads a coefficient array with one axis per
    group (the Kronecker layout) in table order.  ``index`` maps a monomial
    to its row.
    """

    def __init__(self, shape: Shape):
        self.exps, self.group_index, self.group_exps = graded_range(
            shape.dims, shape.degrees
        )
        self.degrees = np.column_stack([
            G.sum(axis=1)[self.group_index[:, g]]
            for g, G in enumerate(self.group_exps)
        ])
        self.monomials = tuple(shape.monomials(self.exps))
        self.index = {m: i for i, m in enumerate(self.monomials)}
        per_group = [
            np.array([multinomial(d, e) for e in G.tolist()], dtype=np.int64)
            for d, G in zip(shape.degrees, self.group_exps)
        ]
        self.multinomials = np.prod(
            [c[self.group_index[:, g]] for g, c in enumerate(per_group)], axis=0
        ).astype(float)
        for a in (self.exps, self.degrees, self.group_index, self.multinomials):
            a.setflags(write=False)  # shared by every user of the shape


@dataclass(frozen=True)
class Point:
    """Affine evaluation point, one coordinate vector per group."""

    coords: tuple[tuple[complex, ...], ...]

    def is_real(self, tol: float = 1e-12) -> bool:
        return all(
            abs(complex(x).imag) <= tol for c in self.coords for x in c
        )

    def real(self) -> "Point":
        return Point(tuple(tuple(complex(x).real for x in c) for c in self.coords))


def evaluate(shape: Shape, points, exps: np.ndarray) -> np.ndarray:
    """V[m, i] = the monomial with exponent row exps[m] at points[i].

    The factors z_v ** e are multiplied in variable order.  Complex products
    are formed from real and imaginary parts, as Python forms them, because
    numpy's complex multiply may fuse its operations and round differently:
    at complex points (the roots the weight fit reads) V holds Python's
    products to the last bit.
    """
    if any(tuple(len(c) for c in p.coords) != shape.dims for p in points):
        raise ShapeMismatchError("point does not match shape")
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


class Polynomial:
    """Sparse multi-graded polynomial: shape plus monomial -> coefficient.

    A container: arithmetic on tensors goes through ``vector`` and
    ``from_vector``, the coefficients over the shape's monomial table."""

    __slots__ = ("shape", "terms")

    def __init__(self, shape: Shape, terms: dict[Monomial, complex] | None = None):
        self.shape = shape
        self.terms = {m: c for m, c in (terms or {}).items() if c != 0}

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.shape == other.shape
            and self.terms == other.terms
        )

    def coeff(self, m: Monomial) -> complex:
        return self.terms.get(m, 0)

    def is_zero(self) -> bool:
        return not self.terms

    def is_real(self, tol: float = 1e-12) -> bool:
        """Negligible imaginary parts (values, not storage types)."""
        return all(abs(complex(c).imag) <= tol for c in self.terms.values())

    def uses_complex(self) -> bool:
        """Any coefficient stored as a complex type; drives array dtypes."""
        return any(isinstance(c, complex) for c in self.terms.values())

    def vector(self) -> np.ndarray:
        """Coefficients over the rows of the shape's monomial table, complex
        when any coefficient is stored as a complex type;
        DegreeOverflowError for a term outside the table."""
        table = self.shape.table
        out = np.zeros(
            len(table.monomials), dtype=complex if self.uses_complex() else float
        )
        try:
            rows = [table.index[m] for m in self.terms]
        except KeyError as exc:
            raise DegreeOverflowError(f"term {exc.args[0]} beyond the shape") from None
        out[rows] = list(self.terms.values())
        return out

    @staticmethod
    def from_vector(shape: Shape, values: np.ndarray) -> "Polynomial":
        """Inverse of ``vector``: zero coefficients are dropped."""
        return Polynomial(shape, dict(zip(shape.table.monomials, values.tolist())))

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

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        items = sorted(self.terms.items(), key=lambda t: t[0].sort_key())
        return " + ".join(f"{c}*{m}" for m, c in items)


class MomentFunctional:
    """Partial linear form on the monomials: monomial -> number.

    Monomials absent from ``entries`` have unknown moments.  ``entries`` is
    a read-only view; moments are written through ``set``, so the
    code-sorted view that ``lookup`` reads is never stale.
    """

    __slots__ = ("shape", "_entries", "_view")

    def __init__(self, shape: Shape, entries: dict | None = None):
        self.shape = shape
        self._entries = dict(entries or {})
        self._view = None

    @property
    def entries(self) -> MappingProxyType:
        return MappingProxyType(self._entries)

    def known(self, m: Monomial) -> bool:
        return m in self._entries

    def known_value(self, m: Monomial) -> complex:
        if m not in self._entries:
            raise KeyError(f"moment of {m} is unknown")
        return self._entries[m]

    def set(self, m: Monomial, value) -> None:
        self._entries[m] = value
        self._view = None

    def uses_complex(self) -> bool:
        return any(isinstance(v, complex) for v in self._entries.values())

    def copy(self) -> "MomentFunctional":
        out = MomentFunctional(self.shape, self._entries)
        out._view = self._view
        return out

    def _sorted(self) -> tuple[np.ndarray, np.ndarray]:
        """Codes of the known moments in increasing order, and their values
        (complex when any value is stored as a complex type)."""
        if self._view is None:
            codes = self.shape.codes(self.shape.exponents(list(self._entries)))
            values = np.array(
                list(self._entries.values()),
                dtype=complex if self.uses_complex() else float,
            )
            order = np.argsort(codes)
            self._view = (codes[order], values[order])
        return self._view

    def lookup(self, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Values of the moments with the given codes (0 where unknown) and
        the mask of the known ones, both shaped like ``codes``."""
        keys, values = self._sorted()
        if not len(keys):  # a sentinel no code matches: codes are >= 0
            keys, values = np.array([-1]), np.zeros(1, dtype=values.dtype)
        pos = np.minimum(np.searchsorted(keys, codes), len(keys) - 1)
        known = keys[pos] == codes
        return np.where(known, values[pos], 0), known
