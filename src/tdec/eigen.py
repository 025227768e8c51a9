"""Multiplication operators, joint eigenvectors, roots and weights.

A flat extension over a basis B has one multiplication table per variable,
stacked in canonical variable order: the completion returns the tables
whose commutation it checked, and ``family_from_functional`` reads the same
tables from the completed functional as a reference.  Their transposes
share eigenvectors, and each eigenvector is (up to scale) the vector of
values of B at one root.
Coordinates are read off eigenvector entries and eigenvalues, and weights
come from a Vandermonde-type fit against the tensor coefficients.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .algebra import MomentFunctional, Point, Polynomial, Shape, evaluate
from .moment import (
    DEFAULT_TOL_RANK,
    MonomialBasis,
    hankel,
    moment_vector,
    numerical_rank,
)

log = logging.getLogger("tdec")

SIMPLE_GAP_TOL = 1e-6


class WeightSolveError(RuntimeError):
    pass


class CoordinateRecoveryError(RuntimeError):
    pass


def family_from_functional(
    lam: MomentFunctional,
    B: MonomialBasis,
    Bp: MonomialBasis,
) -> np.ndarray:
    """The tables M_v of multiplication by x_v on B, H M_v = lam(x_v b'_i b_j):
    one (n_vars, r, r) array in canonical variable order.

    The base block H[i, j] = lam(b'_i b_j) is taken as known and invertible
    (``select_bases_candidates`` decides that).  The shifted blocks of all
    variables are read from one block of product codes and solved against H
    together; an unknown entry in them raises ValueError.  ``decompose`` no
    longer calls it: the roots are read from the tables of the completion
    (``ExtensionResult.tables``), which this independent reading checks.
    """
    shape = lam.shape
    H, _ = hankel(lam, Bp.exps, B.exps)
    rows = np.eye(sum(shape.dims), dtype=np.int64)
    shifted, known = lam.lookup(shape.product_codes(rows, Bp.exps, B.exps))
    if not known.all():
        raise ValueError("shifted block has unknown entries")
    return np.linalg.solve(H, shifted)


@dataclass
class RootSet:
    """Joint eigenvectors as roots: row t of ``eigvecs`` holds the values of
    B at root t, row v of ``eigenvalues`` the eigenvalues of M_v^T."""

    basis: MonomialBasis
    eigvecs: np.ndarray
    eigenvalues: np.ndarray
    simple: bool
    points: list[Point] = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)

    @property
    def shape(self) -> Shape:
        return self.basis.shape


def _dots(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """X[i] @ Y[i] for every row i, one stacked product running the same
    dot per row."""
    return np.matmul(X[:, None, :], Y[:, :, None])[:, 0, 0]


def _norms(X: np.ndarray) -> np.ndarray:
    """np.linalg.norm of every row of X, to the bit: numpy takes the norm of
    a vector x as sqrt(x.real @ x.real + x.imag @ x.imag), and for a real x
    the imaginary dot is +0.0, so the sum is x @ x."""
    return np.sqrt(_dots(X.real, X.real) + _dots(X.imag, X.imag))


@lru_cache(maxsize=16)
def _mix(seed: int, n: int) -> np.ndarray:
    """The random mix of ``joint_eigenvectors``: n draws of
    ``default_rng(seed)`` from [-1, 1), read-only, made once per seed and
    count."""
    t = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
    t.setflags(write=False)
    return t


def joint_eigenvectors(
    B: MonomialBasis, tables: np.ndarray, seed: int = 0
) -> RootSet:
    """Common eigenvectors of the transposed tables via one random real mix
    t, for complex tables too: the t with t . d = 0, for the difference d of
    two distinct joint eigenvalue tuples, are a proper subspace of R^n.

    The eigenvectors are normalized so the coordinate on the monomial 1 is
    one; per-variable eigenvalues are Rayleigh quotients.  ``simple`` is
    False when eigenvalue tuples collide or the mix is defective.
    """
    mats = tables.transpose(0, 2, 1)
    n, r = len(mats), len(B)
    # one draw: the next frame, drawn with the next seed, retries an eigen
    # failure that depends on the mix
    t = _mix(seed, n)
    _, vecs = np.linalg.eig(sum(tv * M for tv, M in zip(t, mats)))
    defective = numerical_rank(vecs) < r
    # one eigenvector per row, scaled to 1 on the monomial 1 unless it has
    # (numerically) no such coordinate
    E = np.ascontiguousarray(vecs.T)
    lead = E[:, 0]
    no_lead = np.abs(lead) < 1e-12 * _norms(E)
    degenerate = bool(no_lead.any())
    E[~no_lead] = E[~no_lead] / lead[~no_lead, None]

    # MW[v, i] = M_v @ w_i, the gemv per variable and row; the Rayleigh
    # quotients and residuals run over the n * r rows at once
    MW = np.matmul(mats[:, None], E[None, :, :, None]).reshape(n * r, r)
    Ec, Es = np.tile(E.conj(), (n, 1)), np.tile(E, (n, 1))
    quotients = _dots(Ec, MW) / np.tile(_dots(Ec[:r], E), n)
    eigenvalues = quotients.astype(complex).reshape(n, r)
    # the norm of each table apart: a stacked norm rounds otherwise
    sizes = np.outer([np.linalg.norm(M) for M in mats], _norms(E)).ravel()
    res = _norms(MW - eigenvalues.reshape(-1, 1) * Es) / np.maximum(1.0, sizes)
    eig_residual = np.maximum.reduce(res, initial=0.0)  # NaN kept

    # joint eigenvalue tuples must be pairwise distinct
    tuples = eigenvalues.T
    upper = np.triu_indices(r, 1)  # the pairs i < j
    scale = 1.0 + np.abs(tuples).max()
    collision = bool(
        (np.abs(tuples[upper[0]] - tuples[upper[1]]).max(axis=1)
         <= SIMPLE_GAP_TOL * scale).any()
    )
    simple = not (defective or degenerate or collision)
    return RootSet(
        basis=B,
        eigvecs=E,
        eigenvalues=eigenvalues,
        simple=simple,
        diagnostics={
            "defective": defective,
            "collision": collision,
            "eig_residual": float(eig_residual),
        },
    )


def read_coordinates(roots: RootSet) -> RootSet:
    """Fill coordinates from eigenvector entries (variables inside the
    roots' basis B) and eigenvalue rows (all other variables)."""
    shape = roots.shape
    where = {c: i for i, c in enumerate(roots.basis.codes.tolist())}
    coords = roots.eigenvalues.T.copy()  # coords[t, v]: x_v at root t
    for v, c in enumerate(shape.variable_codes.tolist()):
        if c in where:
            coords[:, v] = roots.eigvecs[:, where[c]]
    ends = np.cumsum(shape.dims).tolist()
    pts = [
        Point(tuple(tuple(flat[a:b]) for a, b in zip([0, *ends[:-1]], ends)))
        for flat in coords.tolist()
    ]
    return replace(roots, points=pts)


def recover_missing_coordinates(
    lam: MomentFunctional,
    roots: RootSet,
    weights,
    B: MonomialBasis,
    missing: list[tuple[int, int]],
) -> RootSet:
    """Re-read the coordinates of the given variables from lam(b x_v):
    express each x_v over B and evaluate on the eigenvectors.

    The block lam(b_i b_j) is rebuilt from the recovered roots and weights
    (products of eigenvector entries), while the right-hand columns
    lam(b_i x_v) must be known data.
    """
    if not missing:
        return roots
    r = len(B)
    W = roots.eigvecs  # W[t, i] = B_i at root t
    gam = np.asarray(weights)
    H_BB = (W * gam[:, None]).T @ W
    singular = numerical_rank(H_BB) < r
    shape = roots.shape
    pts = [[list(c) for c in p.coords] for p in roots.points]
    unit = np.eye(sum(shape.dims), dtype=np.int64)
    every = shape.variables()
    for (g, j) in missing:
        col, known = hankel(lam, B.exps, unit[[every.index((g, j))]])
        if singular or not known.all():
            raise CoordinateRecoveryError(
                f"not enough known moments to recover {shape.var_name(g, j)}"
            )
        col = col[:, 0]
        sol, *_ = np.linalg.lstsq(H_BB, col, rcond=None)
        if np.linalg.norm(H_BB @ sol - col) > 1e-6 * max(
            1.0, np.linalg.norm(col)
        ):
            raise CoordinateRecoveryError(
                f"inconsistent data while recovering {shape.var_name(g, j)}"
            )
        values = W @ sol
        for t in range(len(pts)):
            pts[t][g][j] = complex(values[t])
    points = [Point(tuple(tuple(c) for c in p)) for p in pts]
    return replace(roots, points=points)


def solve_weights(T: Polynomial, points: list[Point]) -> tuple[np.ndarray, float]:
    """Fit T* = sum_i gamma_i 1_{zeta_i} by least squares on the moments,
    every table row in table order; the residual of the fit is returned
    alongside the weights.
    """
    V = evaluate(T.shape, points, T.shape.table.exps)
    rhs = moment_vector(T)
    gam, _, _, s = np.linalg.lstsq(V, rhs, rcond=None)
    # numerical_rank(V), from the singular values that lstsq has taken
    if np.sum(s > DEFAULT_TOL_RANK * s.max(initial=0.0)) < len(points):
        raise WeightSolveError("evaluation system is rank deficient")
    residual = np.linalg.norm(V @ gam - rhs) / max(1.0, np.linalg.norm(rhs))
    return gam, residual
