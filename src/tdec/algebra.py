"""Multi-graded monomial/polynomial arithmetic and dual-space machinery.

Polynomials live in the dehomogenized multi-graded ring: variables come in
``k`` groups of sizes ``dims = (n_1, ..., n_k)``, and a polynomial of
multi-degree at most ``degrees = (d_1, ..., d_k)`` has, in each group ``g``,
total degree at most ``d_g``.  The homogenizing variable of each group is
implicit (set to 1).

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
        object.__setattr__(self, "dims", tuple(int(n) for n in self.dims))
        object.__setattr__(self, "degrees", tuple(int(d) for d in self.degrees))
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
    def _place_values(self) -> np.ndarray:
        places = [1]
        for radix in self._digit_radix.tolist():
            places.append(places[-1] * radix)
        # codes that need more than 63 bits stay exact as Python integers
        fits = places[-1] <= np.iinfo(np.int64).max
        return np.array(places[:-1], dtype=np.int64 if fits else object)

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
        return exps @ self._place_values

    def product_codes(self, rows, cols) -> np.ndarray:
        """codes[i, j] = code(rows[i] * cols[j]), checked before any
        product exponent can reach its radix."""
        er, ec = self.exponents(rows), self.exponents(cols)
        if len(er) and len(ec):
            # the elementwise largest product must have a code
            self.codes((er.max(axis=0) + ec.max(axis=0))[None, :])
        return self.codes(er)[:, None] + self.codes(ec)[None, :]


@dataclass(frozen=True)
class Monomial:
    """Exponent vectors, one per variable group."""

    exps: tuple[tuple[int, ...], ...]

    def group_degree(self, g: int) -> int:
        return sum(self.exps[g])

    def degrees(self) -> tuple[int, ...]:
        return tuple(sum(e) for e in self.exps)

    @property
    def total_degree(self) -> int:
        return sum(sum(e) for e in self.exps)

    def is_one(self) -> bool:
        return self.total_degree == 0

    def code(self, shape: Shape) -> int:
        """The exact integer code of the monomial in ``shape``."""
        return int(shape.codes(shape.exponents([self]))[0])

    def within(self, shape: Shape) -> bool:
        """True when the monomial lies inside the multi-degree bounds."""
        return all(
            len(e) == n and sum(e) <= d
            for e, n, d in zip(self.exps, shape.dims, shape.degrees)
        )

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

    def divides(self, other: "Monomial") -> bool:
        return all(
            x <= y
            for a, b in zip(self.exps, other.exps)
            for x, y in zip(a, b)
        )

    def divide(self, other: "Monomial") -> "Monomial":
        """self / other; requires other | self."""
        if not other.divides(self):
            raise ValueError(f"{other} does not divide {self}")
        return Monomial(
            tuple(
                tuple(x - y for x, y in zip(a, b))
                for a, b in zip(self.exps, other.exps)
            )
        )

    def lcm(self, other: "Monomial") -> "Monomial":
        return Monomial(
            tuple(
                tuple(max(x, y) for x, y in zip(a, b))
                for a, b in zip(self.exps, other.exps)
            )
        )

    def gcd(self, other: "Monomial") -> "Monomial":
        return Monomial(
            tuple(
                tuple(min(x, y) for x, y in zip(a, b))
                for a, b in zip(self.exps, other.exps)
            )
        )

    def variable_factors(self) -> list[tuple[int, int]]:
        """Variables (group, slot) dividing the monomial."""
        return [
            (g, j)
            for g, e in enumerate(self.exps)
            for j, x in enumerate(e)
            if x > 0
        ]

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


def monomial_multinomial(shape: Shape, m: Monomial) -> int:
    """Product of per-group multinomials C(d_g, alpha_g)."""
    return math.prod(
        multinomial(d, e) for d, e in zip(shape.degrees, m.exps)
    )


@dataclass(frozen=True)
class Point:
    """Affine evaluation point, one coordinate vector per group."""

    coords: tuple[tuple[complex, ...], ...]

    def coord(self, g: int, j: int) -> complex:
        return self.coords[g][j]

    def eval_monomial(self, m: Monomial) -> complex:
        val = 1.0
        for c, e in zip(self.coords, m.exps):
            for x, power in zip(c, e):
                if power:
                    val *= x**power
        return val

    def is_real(self, tol: float = 1e-12) -> bool:
        return all(
            abs(complex(x).imag) <= tol for c in self.coords for x in c
        )

    def real(self) -> "Point":
        return Point(tuple(tuple(complex(x).real for x in c) for c in self.coords))


class Polynomial:
    """Sparse multi-graded polynomial: shape plus monomial -> coefficient."""

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

    def within_bounds(self) -> bool:
        return all(m.within(self.shape) for m in self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def is_real(self, tol: float = 1e-12) -> bool:
        """Negligible imaginary parts (values, not storage types)."""
        return all(abs(complex(c).imag) <= tol for c in self.terms.values())

    def uses_complex(self) -> bool:
        """Any coefficient stored as a complex type; drives array dtypes."""
        return any(isinstance(c, complex) for c in self.terms.values())

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if self.shape != other.shape:
            raise ShapeMismatchError("polynomial shapes differ")
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) + c
        return Polynomial(self.shape, terms)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (other * -1)

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

    def __pow__(self, n: int) -> "Polynomial":
        result = Polynomial(self.shape, {self.shape.one(): 1})
        for _ in range(n):
            result = result * self
        return result

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

    def is_real(self, tol: float = 1e-12) -> bool:
        return all(abs(complex(v).imag) <= tol for v in self._entries.values())

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


def evaluation_functional(
    zeta: Point, shape: Shape, domain: list[Monomial]
) -> MomentFunctional:
    """The evaluation form 1_zeta: m -> m(zeta), on the given domain."""
    if tuple(len(c) for c in zeta.coords) != shape.dims:
        raise ShapeMismatchError("point does not match shape")
    return MomentFunctional(shape, {m: zeta.eval_monomial(m) for m in domain})


def weighted_evaluation(
    weights: Iterable[complex], points: Iterable[Point], shape: Shape,
    domain: list[Monomial],
) -> MomentFunctional:
    """The rank-r form sum_i gamma_i 1_{zeta_i} on the given domain."""
    weights = list(weights)
    points = list(points)
    entries = {}
    for m in domain:
        entries[m] = sum(
            w * z.eval_monomial(m) for w, z in zip(weights, points)
        )
    return MomentFunctional(shape, entries)
