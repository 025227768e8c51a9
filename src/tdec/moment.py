"""Moment functionals, monomial bases and quasi-Hankel matrices.

The central objects are the truncated moment functional of a tensor (its
coefficient vector over the shape's monomial table divided by the table's
multinomials) and the matrices
``H[i, j] = lam(rows[i] * cols[j])`` indexed by two monomial bases connected
to 1.  Every such matrix comes from ``hankel(lam, rows, cols)``, which
returns the values and a known mask: rows and columns may be any monomial
sequences, and entries whose product monomial has no known moment are False
in the mask (and read 0).  ``hankel`` never multiplies monomials: the
product codes are row codes plus column codes, and one search in the
functional's code-sorted moments reads the whole block.

A monomial sequence here (a basis, a degree-bounded pool, B+ and the
border) is an int64 exponent matrix, one row per monomial and one column
per variable in canonical order.  ``MonomialBasis`` adds the rows' codes,
checks that the basis lists 1 first, has no duplicate and is connected to 1
on those codes, and builds its B+ (``plus``), border and names once.  The
selection hands out one interned basis per format and exponent rows
(``_interned_basis``), so a basis that later calls select again is not
checked or built again.
``Shape.monomials`` turns rows into ``Monomial`` objects for names and
files.

``split_pools`` builds each degree split's pools and product codes once per
format, like ``Shape.table``.  ``Catalecticants`` holds a functional and its
rank tolerance, and reads and factors one block per complementary pair of
splits (beta and degrees - beta, whose blocks are transposes), when it is
built; the flattening rank and ``select_bases_candidates`` share it.

``select_bases_candidates`` is the one place that decides whether the
block of a basis pair is invertible; the later stages take it as given.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict, namedtuple
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .algebra import (
    MomentFunctional,
    Polynomial,
    Shape,
    canonical_order,
    graded_range,
)

DEFAULT_TOL_RANK = 1e-8
MAX_COND = 1e10


@dataclass(frozen=True, eq=False)
class MonomialBasis:
    """Ordered monomials as exponent rows (variables in canonical order)
    with their codes; lists 1 first, duplicate-free and connected to 1.
    ``exps`` (a copy of the rows given) and ``codes`` are read-only.
    ``plus`` (B+ = B union x*B over every variable) and ``border``
    (B+ minus B) are read-only exponent rows in canonical order, built
    once, like the names."""

    shape: Shape
    exps: np.ndarray
    codes: np.ndarray = field(init=False)

    def __post_init__(self):
        exps = np.array(self.exps, dtype=np.int64)
        codes = self.shape.codes(exps)
        for a in (exps, codes):
            a.setflags(write=False)
        object.__setattr__(self, "exps", exps)
        object.__setattr__(self, "codes", codes)
        seen = set(codes.tolist())
        if len(seen) != len(codes):
            raise ValueError("duplicate monomials in basis")
        if not len(codes) or codes[0] != 0:
            raise ValueError("basis must list the monomial 1 first")
        for i, (code, parents) in enumerate(
            zip(codes.tolist(), _parent_codes(self.shape, exps, codes))
        ):
            if code and not any(p in seen for p in parents):
                raise ValueError(f"basis not connected to 1 at {self.names()[i]}")

    def __len__(self):
        return len(self.codes)

    def names(self) -> list[str]:
        """The monomials as text (``str(Monomial)``), a fresh list."""
        return list(self._names)

    @cached_property
    def _names(self) -> tuple[str, ...]:
        return tuple(str(m) for m in self.shape.monomials(self.exps))

    @cached_property
    def plus(self) -> np.ndarray:
        E = self.exps
        n = E.shape[1]
        shifted = (E[:, None, :] + np.eye(n, dtype=np.int64)).reshape(-1, n)
        plus = np.vstack([E, shifted])
        _, first = np.unique(self.shape.codes(plus), return_index=True)
        plus = plus[first]
        plus = plus[canonical_order(plus)]
        plus.flags.writeable = False
        return plus

    @cached_property
    def border(self) -> np.ndarray:
        inside = set(self.codes.tolist())
        keep = [c not in inside for c in self.shape.codes(self.plus).tolist()]
        border = self.plus[np.array(keep, dtype=bool)]
        border.flags.writeable = False
        return border


# the bases handed out, each under its format and exponent rows; the least
# recently used goes first.  The lock makes each lookup and update one step
# for threads that share the cache.
_BASIS_CACHE_SIZE = 128
_bases: OrderedDict = OrderedDict()
_bases_lock = threading.Lock()


def _interned_basis(shape: Shape, exps: np.ndarray) -> MonomialBasis:
    """The one ``MonomialBasis`` of these exponent rows in ``shape`` kept in
    a bounded cache, so that its checks, B+, border and names are computed
    once however often the basis is selected."""
    exps = np.ascontiguousarray(exps, dtype=np.int64)
    key = (shape, exps.tobytes())
    with _bases_lock:
        basis = _bases.get(key)
        if basis is None:
            basis = _bases[key] = MonomialBasis(shape, exps)
            if len(_bases) > _BASIS_CACHE_SIZE:
                _bases.popitem(last=False)
        else:
            _bases.move_to_end(key)
    return basis


def _parent_codes(shape: Shape, exps: np.ndarray, codes: np.ndarray) -> list:
    """Per exponent row, the code of row / x_v for each variable x_v dividing
    it and -1 (no monomial) for the others: a row other than 1 is connected
    to 1 through a set of monomials holding one of these."""
    return np.where(exps > 0, codes[:, None] - shape.variable_codes, -1).tolist()


def enumerate_monomials(shape: Shape, bounds: list[int]) -> np.ndarray:
    """Exponent rows of all monomials with per-group degree at most
    bounds[g], canonical order."""
    if len(bounds) != shape.k or any(b < 0 for b in bounds):
        raise ValueError("bounds must list one non-negative integer per group")
    return graded_range(shape.dims, bounds)[0]


def moment_vector(T: Polynomial) -> np.ndarray:
    """Moments of a tensor over its shape's monomial table: the coefficient
    vector divided by the multinomial vector.  Real and imaginary parts are
    divided on their own, as Python divides a complex number by an integer.
    """
    coef = T.vector()
    parts = coef.reshape(-1, 1).view(float) / T.shape.table.multinomials[:, None]
    return parts.view(coef.dtype).ravel()


def build_moment_functional(T: Polynomial) -> MomentFunctional:
    """Moments of a tensor as a functional: every monomial inside the
    multi-degree bounds gets a known entry, zero coefficients included;
    nothing outside the bounds is recorded."""
    shape = T.shape
    return MomentFunctional(shape, shape.table.codes, moment_vector(T))


def hankel(
    lam: MomentFunctional, rows: np.ndarray, cols: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The matrix lam(rows[i] * cols[j]) and its per-entry known mask.

    Rows and columns are any exponent matrices; an entry without a known
    moment reads 0 and is False in the mask.  The block of product codes
    is the sum of the row and column codes, looked up in one pass.
    """
    return lam.lookup(lam.shape.product_codes(rows, cols))


def numerical_rank(A: np.ndarray, tol_rank: float = DEFAULT_TOL_RANK) -> int:
    """Singular values above tol_rank * sigma_max count toward the rank."""
    s = np.linalg.svd(A, compute_uv=False)
    if s.size == 0 or s[0] == 0:
        return 0
    return int(np.sum(s > tol_rank * s[0]))


def degree_splits(shape: Shape) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Column/row degree-bound pairs (beta, degrees - beta).

    Any pair of bases drawn from such pools has a fully known product block.
    Balanced splits come first (they leave the most known data around the
    block for the completion stage), then larger column sides, then
    lexicographic order, so the search is deterministic.
    """
    betas = list(itertools.product(*(range(d + 1) for d in shape.degrees)))
    betas.sort(
        key=lambda b: (
            sum(abs(2 * x - d) for x, d in zip(b, shape.degrees)),
            -sum(b),
            tuple(-x for x in b),
        )
    )
    return [
        (beta, tuple(d - x for d, x in zip(shape.degrees, beta)))
        for beta in betas
    ]


# one degree split: its bounds, the exponent rows of its pools and the codes
# of their products, codes[i, j] = code(rows[i] * cols[j]); read-only arrays
Split = namedtuple("Split", "col_bounds row_bounds rows cols codes")


@cache
def split_pools(shape: Shape) -> tuple[Split, ...]:
    """Every degree split of the format in ``degree_splits`` order, built
    once per format: equal shapes share one tuple."""
    splits = []
    for col_bounds, row_bounds in degree_splits(shape):
        rows = enumerate_monomials(shape, list(row_bounds))
        cols = enumerate_monomials(shape, list(col_bounds))
        codes = shape.product_codes(rows, cols)
        for a in (rows, cols, codes):
            a.setflags(write=False)
        splits.append(Split(col_bounds, row_bounds, rows, cols, codes))
    return tuple(splits)


class Catalecticants:
    """The split blocks of one functional, in ``split_pools`` order, read and
    ranked at ``tol_rank`` up front, once per complementary pair of splits:
    the block of degrees - beta is the transpose of the block of beta, so
    the later split of a pair takes a transposed view of the earlier one's
    block and its rank.  ``blocks`` and ``ranks`` are read-only tuples, one
    entry per split."""

    def __init__(self, lam: MomentFunctional, tol_rank: float = DEFAULT_TOL_RANK):
        self.lam, self.tol_rank = lam, tol_rank
        self.splits = split_pools(lam.shape)
        index = {split.col_bounds: i for i, split in enumerate(self.splits)}
        blocks, ranks = [], []
        for i, split in enumerate(self.splits):
            j = index[split.row_bounds]  # the complementary split
            if j < i:
                blocks.append(blocks[j].T)
                ranks.append(ranks[j])
                continue
            A = lam.lookup(split.codes)[0]
            A.setflags(write=False)
            blocks.append(A)
            ranks.append(numerical_rank(A, tol_rank))
        self.blocks, self.ranks = tuple(blocks), tuple(ranks)

    def flattening_rank(self) -> int:
        """Largest numerical rank over the splits."""
        return max(self.ranks)


def _greedy_staircase(
    A: np.ndarray, exps: np.ndarray, shape: Shape, target: int,
    tol_rank: float, axis: int,
) -> list[int] | None:
    """Pick `target` columns (axis=1) or rows (axis=0) of A, whose monomials
    are the rows of ``exps``, scanning in canonical order, keeping the
    selection connected to 1 and accepting a monomial only when it raises
    the numerical rank."""
    selected: list[int] = []
    chosen: set[int] = set()
    rank = 0
    codes = shape.codes(exps)
    for idx, (code, parents) in enumerate(
        zip(codes.tolist(), _parent_codes(shape, exps, codes))
    ):
        if code and not any(p in chosen for p in parents):
            continue
        trial = selected + [idx]
        block = A[:, trial] if axis == 1 else A[trial, :]
        new_rank = numerical_rank(block, tol_rank)
        if new_rank > rank:
            selected = trial
            chosen.add(code)
            rank = new_rank
            if rank == target:
                return selected
    return None


def select_bases_candidates(cats: Catalecticants, r: int):
    """Yield candidate basis pairs (B columns, B' rows) of size r, each with
    a fully known, invertible, well conditioned block lam(b' * b) of the
    functional ``cats.lam``: rank r at ``cats.tol_rank`` and condition
    number at most MAX_COND.

    Candidate pools come from complementary degree splits, so every product
    stays inside the known range; within a pool the staircase grows greedily
    in canonical order.  An r x r block of rank r at ``tol_rank`` has
    condition number below 1 / ``tol_rank``, so MAX_COND only refuses a pair
    when ``tol_rank`` < 1 / MAX_COND = 1e-10.  Equal rows yield the same
    interned basis (``_interned_basis``).
    """
    if r < 1:
        raise ValueError("r must be positive")
    shape, tol_rank = cats.lam.shape, cats.tol_rank
    for split, A, rank in zip(cats.splits, cats.blocks, cats.ranks):
        if rank < r:
            continue
        rows, cols = split.rows, split.cols
        col_sel = _greedy_staircase(A, cols, shape, r, tol_rank, axis=1)
        if col_sel is None:
            continue
        if split.row_bounds == split.col_bounds:
            row_sel = col_sel
        else:
            row_sel = _greedy_staircase(
                A[:, col_sel], rows, shape, r, tol_rank, axis=0
            )
        if row_sel is None:
            continue
        s = np.linalg.svd(A[np.ix_(row_sel, col_sel)], compute_uv=False)
        if np.sum(s > tol_rank * s[0]) < r or s[0] / s[-1] > MAX_COND:
            continue
        yield (_interned_basis(shape, cols[col_sel]),
               _interned_basis(shape, rows[row_sel]))
