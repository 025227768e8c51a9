"""Moment functionals, monomial bases and quasi-Hankel matrices.

The central objects are the truncated moment functional of a tensor (its
coefficient vector over the shape's monomial table divided by the table's
multinomials) and the matrices
``H[i, j] = lam(rows[i] * cols[j])`` indexed by two monomial bases connected
to 1.  Every such matrix comes from ``hankel``: rows and columns may be any
monomial sequences, and entries whose product monomial has no known moment
are flagged in a mask (and read 0).  ``hankel`` never multiplies monomials:
the product codes are row codes plus column codes, and one search in the
functional's code-sorted moments reads the whole block.

A monomial sequence here (a basis, a degree-bounded pool, B+ and the
border) is an int64 exponent matrix, one row per monomial and one column
per variable in canonical order; ``MonomialBasis`` adds the rows' codes and
checks that the basis contains 1, has no duplicate and is connected to 1 on
those codes.  ``Shape.monomials`` turns rows into ``Monomial`` objects for
names and files.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

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


class UnresolvedParameterError(RuntimeError):
    pass


@dataclass(frozen=True, eq=False)
class MonomialBasis:
    """Ordered monomials as exponent rows (variables in canonical order)
    with their codes; contains 1, duplicate-free and connected to 1."""

    shape: Shape
    exps: np.ndarray
    codes: np.ndarray = field(init=False)

    def __post_init__(self):
        exps = np.asarray(self.exps, dtype=np.int64)
        codes = self.shape.codes(exps)
        object.__setattr__(self, "exps", exps)
        object.__setattr__(self, "codes", codes)
        seen = set(codes.tolist())
        if len(seen) != len(codes):
            raise ValueError("duplicate monomials in basis")
        if 0 not in seen:
            raise ValueError("basis must contain the monomial 1")
        for i, (code, parents) in enumerate(
            zip(codes.tolist(), _parent_codes(self.shape, exps, codes))
        ):
            if code and not any(p in seen for p in parents):
                raise ValueError(f"basis not connected to 1 at {self.names()[i]}")

    def __len__(self):
        return len(self.codes)

    def names(self) -> list[str]:
        return [str(m) for m in self.shape.monomials(self.exps)]


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
    if all(b <= d for b, d in zip(bounds, shape.degrees)):
        # inside the degree bounds: a subsequence of the shape's table
        table = shape.table
        return table.exps[(table.degrees <= bounds).all(axis=1)]
    return graded_range(shape.dims, bounds)[0]


def basis_plus(B: MonomialBasis) -> np.ndarray:
    """Exponent rows of B+ = B union x*B over every variable, canonical
    order."""
    E = B.exps
    n = E.shape[1]
    shifted = (E[:, None, :] + np.eye(n, dtype=np.int64)).reshape(-1, n)
    plus = np.vstack([E, shifted])
    _, first = np.unique(B.shape.codes(plus), return_index=True)
    plus = plus[first]
    return plus[canonical_order(plus)]


def border(B: MonomialBasis) -> np.ndarray:
    """Exponent rows of B+ \\ B in canonical order."""
    plus = basis_plus(B)
    inside = set(B.codes.tolist())
    keep = [c not in inside for c in B.shape.codes(plus).tolist()]
    return plus[np.array(keep, dtype=bool)]


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
    table = T.shape.table
    return MomentFunctional(
        T.shape, dict(zip(table.monomials, moment_vector(T).tolist()))
    )


class HankelMatrix:
    """Matrix lam(rows[i] * cols[j]) with a per-entry known mask.

    Rows and columns are any exponent matrices; an entry without a known
    moment reads 0 and is False in ``known``.  The block of product codes
    is the sum of the row and column codes, looked up in one pass.
    """

    def __init__(self, lam: MomentFunctional, rows: np.ndarray, cols: np.ndarray):
        self.values, self.known = lam.lookup(lam.shape.product_codes(rows, cols))

    @property
    def fully_known(self) -> bool:
        return bool(self.known.all())

    def numeric(self) -> np.ndarray:
        if not self.fully_known:
            raise UnresolvedParameterError("matrix has unknown entries")
        return self.values


def hankel(lam: MomentFunctional, rows: np.ndarray, cols: np.ndarray) -> HankelMatrix:
    return HankelMatrix(lam, rows, cols)


def numerical_rank(A: np.ndarray, tol_rank: float = DEFAULT_TOL_RANK) -> int:
    """Singular values above tol_rank * sigma_max count toward the rank."""
    if A.size == 0:
        return 0
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


def catalecticant(
    lam: MomentFunctional,
    row_bounds: tuple[int, ...],
    col_bounds: tuple[int, ...],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The full moment matrix between two degree-bounded monomial pools,
    and the pools' exponent rows."""
    rows = enumerate_monomials(lam.shape, list(row_bounds))
    cols = enumerate_monomials(lam.shape, list(col_bounds))
    return hankel(lam, rows, cols).numeric(), rows, cols


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


def select_bases_candidates(
    lam: MomentFunctional,
    r: int,
    tol_rank: float = DEFAULT_TOL_RANK,
):
    """Yield candidate basis pairs (B columns, B' rows) of size r, each with
    a fully known, invertible, well conditioned block lam(b' * b).

    Candidate pools come from complementary degree splits, so every product
    stays inside the known range; within a pool the staircase grows greedily
    in canonical order.
    """
    if r < 1:
        raise ValueError("r must be positive")
    shape = lam.shape
    for col_bounds, row_bounds in degree_splits(shape):
        A, rows, cols = catalecticant(lam, row_bounds, col_bounds)
        if min(A.shape) < r or numerical_rank(A, tol_rank) < r:
            continue
        col_sel = _greedy_staircase(A, cols, shape, r, tol_rank, axis=1)
        if col_sel is None:
            continue
        if row_bounds == col_bounds:
            row_sel = col_sel
        else:
            row_sel = _greedy_staircase(
                A[:, col_sel], rows, shape, r, tol_rank, axis=0
            )
        if row_sel is None:
            continue
        block = A[np.ix_(row_sel, col_sel)]
        if numerical_rank(block, tol_rank) < r or np.linalg.cond(block) > MAX_COND:
            continue
        B = MonomialBasis(shape, cols[col_sel])
        Bp = MonomialBasis(shape, rows[row_sel])
        yield B, Bp
