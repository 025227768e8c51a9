"""Multiplication operators, joint eigenvectors, roots and weights.

A completed functional with basis B and invertible block H yields one
multiplication table per variable; their transposes share eigenvectors, and
each eigenvector is (up to scale) the vector of values of B at one root.
Coordinates are read off eigenvector entries and eigenvalues, and weights
come from a Vandermonde-type fit against the tensor coefficients.  A family
from a flat extension has a table for every variable.  For a partial family
(a library use; ``decompose`` refuses any completion that does not extend)
the coordinates of variables without a table stay NaN, the weight fit skips
the coefficients they touch, and ``recover_missing_coordinates`` fills them
through one more linear solve against the weighted evaluations.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from .algebra import MomentFunctional, Point, Polynomial, Shape, evaluate
from .moment import MonomialBasis, hankel, moment_vector, numerical_rank

log = logging.getLogger("tdec")

SIMPLE_GAP_TOL = 1e-6
EIG_RETRY_GAP = 1e-10


class WeightSolveError(RuntimeError):
    pass


class CoordinateRecoveryError(RuntimeError):
    pass


@dataclass
class MultiplicationFamily:
    basis: MonomialBasis
    matrices: dict[tuple[int, int], np.ndarray]

    def variables(self) -> list[tuple[int, int]]:
        return sorted(self.matrices)


def family_from_functional(
    lam: MomentFunctional,
    B: MonomialBasis,
    Bp: MonomialBasis,
) -> MultiplicationFamily:
    """Tables M_v of multiplication by x_v on B, for every variable whose
    shifted block lam(x_v b'_i b_j) is fully known.

    The base block H[i, j] = lam(b'_i b_j) is taken as known and invertible
    (``select_bases_candidates`` decides that).  The shifted blocks of all
    variables are read from one block of product codes; each table is one
    solve against H.
    """
    shape = lam.shape
    H, _ = hankel(lam, Bp.exps, B.exps)
    rows = np.eye(sum(shape.dims), dtype=np.int64)
    shifted, known = lam.lookup(shape.product_codes(rows, Bp.exps, B.exps))
    return MultiplicationFamily(B, {
        var: np.linalg.solve(H, Hs)
        for var, Hs, ok in zip(shape.variables(), shifted, known.all(axis=(1, 2)))
        if ok
    })


@dataclass
class RootSet:
    shape: Shape
    basis: MonomialBasis
    eigvecs: list[np.ndarray]
    eigenvalues: dict[tuple[int, int], np.ndarray]
    simple: bool
    points: list[Point] = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)

    @property
    def count(self) -> int:
        return len(self.eigvecs)


def joint_eigenvectors(
    family: MultiplicationFamily, seed: int = 0
) -> RootSet:
    """Common eigenvectors of the transposed family via one random mix.

    The eigenvectors are normalized so the coordinate on the monomial 1 is
    one; per-variable eigenvalues are Rayleigh quotients.  ``simple`` is
    False when eigenvalue tuples collide or the mix is defective.
    """
    B = family.basis
    if not family.matrices:
        raise ValueError("empty multiplication family")
    variables = family.variables()
    mats = [family.matrices[v].T for v in variables]
    r = len(B)
    rng = np.random.default_rng(seed)
    complex_data = any(np.iscomplexobj(M) for M in mats)

    vals = vecs = None
    for _ in range(2):  # one retry with a fresh draw on tiny gaps
        if complex_data:
            radius = np.sqrt(rng.uniform(0.0, 1.0, len(mats)))
            t = radius * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, len(mats)))
        else:
            t = rng.uniform(-1.0, 1.0, len(mats))
        A = sum(tv * M for tv, M in zip(t, mats))
        vals, vecs = np.linalg.eig(A)
        if r == 1:
            break
        gaps = min(
            abs(vals[i] - vals[j])
            for i in range(r)
            for j in range(i + 1, r)
        )
        if gaps > EIG_RETRY_GAP * (1.0 + np.abs(vals).max()):
            break

    defective = numerical_rank(vecs, 1e-8) < r
    eigvecs = []
    degenerate = False
    for i in range(r):
        w = vecs[:, i]
        if abs(w[0]) < 1e-12 * np.linalg.norm(w):
            degenerate = True
            eigvecs.append(w)
            continue
        eigvecs.append(w / w[0])

    eigenvalues = {}
    eig_residual = 0.0
    for v, M in zip(variables, mats):
        lam_v = np.empty(r, dtype=complex)
        for i, w in enumerate(eigvecs):
            lam_v[i] = (w.conj() @ (M @ w)) / (w.conj() @ w)
            eig_residual = max(
                eig_residual,
                np.linalg.norm(M @ w - lam_v[i] * w)
                / max(1.0, np.linalg.norm(M) * np.linalg.norm(w)),
            )
        eigenvalues[v] = lam_v

    # joint eigenvalue tuples must be pairwise distinct
    tuples = np.array([eigenvalues[v] for v in variables]).T if variables else np.zeros((r, 0))
    scale = 1.0 + (np.abs(tuples).max() if tuples.size else 0.0)
    collision = False
    for i in range(r):
        for j in range(i + 1, r):
            if tuples.size and np.abs(tuples[i] - tuples[j]).max() <= SIMPLE_GAP_TOL * scale:
                collision = True
    simple = not (defective or degenerate or collision)
    return RootSet(
        shape=B.shape,
        basis=B,
        eigvecs=eigvecs,
        eigenvalues=eigenvalues,
        simple=simple,
        diagnostics={
            "defective": defective,
            "collision": collision,
            "eig_residual": float(eig_residual),
        },
    )


def read_coordinates(
    roots: RootSet, B: MonomialBasis, family: MultiplicationFamily
) -> RootSet:
    """Fill coordinates from eigenvector entries (variables inside B) and
    eigenvalues (variables with a table); the rest stay NaN."""
    shape = roots.shape
    where = {c: i for i, c in enumerate(B.codes.tolist())}
    # each variable with its position in B, or None
    inside = [
        (v, where.get(c))
        for v, c in zip(shape.variables(), shape.variable_codes.tolist())
    ]
    ends = np.cumsum(shape.dims).tolist()
    pts = []
    for i, w in enumerate(roots.eigvecs):
        flat = [
            complex(w[b]) if b is not None
            else complex(roots.eigenvalues[v][i]) if v in family.matrices
            else complex(np.nan)
            for v, b in inside
        ]
        pts.append(Point(tuple(
            tuple(flat[a:b]) for a, b in zip([0, *ends[:-1]], ends)
        )))
    return replace(roots, points=pts)


def _missing(points: list[Point]) -> np.ndarray:
    """Per variable, in canonical order: some point lacks its coordinate."""
    coords = [[x for c in p.coords for x in c] for p in points]
    return np.isnan(coords).reshape(len(points), -1).any(axis=0)


def missing_variables(roots: RootSet) -> list[tuple[int, int]]:
    flags = _missing(roots.points)
    return [v for v, miss in zip(roots.shape.variables(), flags) if miss]


def recover_missing_coordinates(
    lam: MomentFunctional,
    roots: RootSet,
    weights,
    B: MonomialBasis,
    missing: list[tuple[int, int]],
) -> RootSet:
    """Express each missing variable over B and evaluate on the eigenvectors.

    The block lam(b_i b_j) is rebuilt from the recovered roots and weights
    (products of eigenvector entries), while the right-hand columns
    lam(b_i x_v) must be known data.
    """
    if not missing:
        return roots
    r = len(B)
    W = np.array([w for w in roots.eigvecs])  # W[t, i] = B_i at root t
    gam = np.asarray(weights)
    H_BB = (W * gam[:, None]).T @ W
    singular = numerical_rank(H_BB) < r
    shape = roots.shape
    pts = [
        [list(c) for c in p.coords] for p in roots.points
    ]
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
    """Fit T* = sum_i gamma_i 1_{zeta_i} by least squares on the moments.

    Only the table rows free of any still-missing coordinate are used, in
    table order; the residual of the fit is returned alongside the weights.
    """
    shape = T.shape
    exps = shape.table.exps
    rows = np.flatnonzero(~exps[:, _missing(points)].any(axis=1))
    V = evaluate(shape, points, exps[rows])
    rhs = moment_vector(T)[rows]
    if numerical_rank(V) < len(points):
        raise WeightSolveError("evaluation system is rank deficient")
    gam, *_ = np.linalg.lstsq(V, rhs, rcond=None)
    residual = np.linalg.norm(V @ gam - rhs) / max(1.0, np.linalg.norm(rhs))
    return gam, residual
