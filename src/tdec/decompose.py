"""Rank bounds, HOSVD reduction and the main decomposition attempt.

The only rank tried is the flattening lower bound: no fully known
invertible moment block is larger, in any frame.  At that rank the attempt
walks the deterministic basis candidates, completes the moments by
commutation propagation, checks flatness, computes joint eigenvectors of the
multiplication family, reads/recovers coordinates, solves for weights and
accepts on a small reconstruction residual.  On failure it retries under a
random (seeded, invertible) change of coordinates per group, and finally
raises with the last failure.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .algebra import DegreeOverflowError, Point, Polynomial, Shape
from .eigen import (
    CoordinateRecoveryError,
    WeightSolveError,
    family_from_functional,
    joint_eigenvectors,
    missing_variables,
    read_coordinates,
    recover_missing_coordinates,
    solve_weights,
)
from .extension import flat_extension_check, propagate_commutation
from .moment import (
    DEFAULT_TOL_RANK,
    build_moment_functional,
    degree_splits,
    catalecticant,
    numerical_rank,
    select_bases_candidates,
)

log = logging.getLogger("tdec")

MAX_COORD_CHANGES = 3
MAX_BASIS_CANDIDATES = 4


class UnsupportedShapeError(ValueError):
    pass


class NonAffineTermError(RuntimeError):
    pass


class DecompositionError(RuntimeError):
    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report or {}


@dataclass
class DecomposeOptions:
    max_rank: int | None = None
    tol_rank: float = DEFAULT_TOL_RANK
    tol_resid: float = 1e-6
    seed: int = 0
    reduce: bool = False


@dataclass
class Decomposition:
    shape: Shape
    terms: list[tuple[complex, Point]]
    residual: float
    coordinate_change: list[np.ndarray] | None = None
    meta: dict = field(default_factory=dict)

    @property
    def rank(self) -> int:
        return len(self.terms)

    def weights(self):
        return [w for w, _ in self.terms]

    def points(self):
        return [p for _, p in self.terms]

    def is_real(self, tol=1e-8) -> bool:
        return all(
            abs(complex(w).imag) <= tol and p.is_real(tol)
            for w, p in self.terms
        )


@dataclass
class RankBounds:
    lower: int
    upper: int
    expected: int
    kruskal: int | None


# --- bounds -----------------------------------------------------------------


def rank_lower_bound(T: Polynomial, tol_rank: float = DEFAULT_TOL_RANK) -> int:
    """Largest numerical rank over all degree-split moment matrices."""
    lam = build_moment_functional(T)
    best = 0
    for col_bounds, row_bounds in degree_splits(T.shape):
        A, _, _ = catalecticant(lam, row_bounds, col_bounds)
        best = max(best, numerical_rank(A, tol_rank))
    return best


def rank_upper_bound(dims) -> int:
    """Maximal rank bound for an order-3 multilinear format (full dims)."""
    dims = sorted(int(d) for d in dims)
    if len(dims) != 3 or any(d < 1 for d in dims):
        raise UnsupportedShapeError("bound applies to order-3 formats only")
    d1, d2, d3 = dims
    return d1 + d2 * (d3 // 2)


def expected_rank(shape: Shape) -> int:
    """Dimension-count threshold below which finitely many decompositions
    are expected; evaluated on full dimensions n_i + 1."""
    return math.ceil(shape.ambient_dim / (1 + sum(shape.dims)))


def kruskal_bound(shape: Shape) -> int:
    """Generic uniqueness bound for order >= 3 multilinear formats."""
    if shape.k < 3 or any(d != 1 for d in shape.degrees):
        raise UnsupportedShapeError("bound applies to order >= 3 multilinear")
    return sum(n + 1 for n in shape.dims) // 2 - 1


def rank_bounds(T: Polynomial, tol_rank: float = DEFAULT_TOL_RANK) -> RankBounds:
    shape = T.shape
    multilinear = all(d == 1 for d in shape.degrees)
    try:
        upper = rank_upper_bound([n + 1 for n in shape.dims]) if multilinear else None
    except UnsupportedShapeError:
        upper = None
    if upper is None:
        upper = shape.ambient_dim
    try:
        kruskal = kruskal_bound(shape)
    except UnsupportedShapeError:
        kruskal = None
    return RankBounds(
        lower=rank_lower_bound(T, tol_rank),
        upper=upper,
        expected=expected_rank(shape),
        kruskal=kruskal,
    )


def default_max_rank(shape: Shape) -> int:
    multilinear = all(d == 1 for d in shape.degrees)
    caps = [math.ceil(shape.ambient_dim / 2), 30]
    if multilinear and shape.k == 3:
        caps.append(rank_upper_bound([n + 1 for n in shape.dims]))
    return min(caps)


# --- multilinear arrays and HOSVD --------------------------------------------


def _require_multilinear(shape: Shape):
    if any(d != 1 for d in shape.degrees):
        raise UnsupportedShapeError("operation requires a multilinear shape")


def poly_to_array(T: Polynomial) -> np.ndarray:
    """Coefficient array over full dimensions, index 0 = homogenizing slot."""
    shape = T.shape
    _require_multilinear(shape)
    dims = tuple(n + 1 for n in shape.dims)
    A = np.zeros(dims, dtype=complex if T.uses_complex() else float)
    for m, c in T.terms.items():
        idx = []
        for g, e in enumerate(m.exps):
            nz = [j for j, x in enumerate(e) if x]
            idx.append(nz[0] + 1 if nz else 0)
        A[tuple(idx)] = c
    return A


def array_to_poly(A: np.ndarray) -> Polynomial:
    shape = Shape(dims=tuple(d - 1 for d in A.shape), degrees=(1,) * A.ndim)
    terms = {}
    for idx in np.ndindex(A.shape):
        c = A[idx]
        if c == 0:
            continue
        mono = shape.one()
        for g, i in enumerate(idx):
            if i > 0:
                mono = mono * shape.variable(g, i - 1)
        terms[mono] = c
    return Polynomial(shape, terms)


def _unfold(A: np.ndarray, mode: int) -> np.ndarray:
    return np.reshape(np.moveaxis(A, mode, 0), (A.shape[mode], -1))


def _mode_product(A: np.ndarray, mode: int, U: np.ndarray) -> np.ndarray:
    moved = np.moveaxis(A, mode, 0)
    out = np.tensordot(U, moved, axes=(1, 0))
    return np.moveaxis(out, 0, mode)


def multilinear_rank(T: Polynomial, tol: float = DEFAULT_TOL_RANK) -> list[int]:
    """Per-mode numerical ranks of the unfoldings (full dimensions)."""
    A = poly_to_array(T)
    return [numerical_rank(_unfold(A, g), tol) for g in range(A.ndim)]


def hosvd_reduce(
    T: Polynomial, target: list[int], max_iter: int = 2
) -> tuple[Polynomial, list[np.ndarray], float]:
    """Truncated higher-order SVD with a few alternating refinement passes.

    Returns the core as a polynomial over the reduced dimensions, the
    orthonormal factors (one per mode), and the relative reconstruction
    error of the compression.
    """
    A = poly_to_array(T)
    if len(target) != A.ndim or any(
        not 1 <= t <= d for t, d in zip(target, A.shape)
    ):
        raise ValueError("target must satisfy 1 <= target_i <= n_i + 1")
    if any(t < 2 for t in target):
        raise UnsupportedShapeError(
            "mode collapsed to one dimension; drop the mode instead"
        )
    factors = []
    for g in range(A.ndim):
        U, _, _ = np.linalg.svd(_unfold(A, g), full_matrices=False)
        factors.append(U[:, : target[g]])
    for _ in range(max_iter):
        for g in range(A.ndim):
            partial = A
            for h in range(A.ndim):
                if h != g:
                    partial = _mode_product(partial, h, factors[h].conj().T)
            U, _, _ = np.linalg.svd(_unfold(partial, g), full_matrices=False)
            factors[g] = U[:, : target[g]]
    core = A
    for g in range(A.ndim):
        core = _mode_product(core, g, factors[g].conj().T)
    approx = core
    for g in range(A.ndim):
        approx = _mode_product(approx, g, factors[g])
    err = np.linalg.norm(A - approx) / max(np.linalg.norm(A), 1e-300)
    return array_to_poly(core), factors, err


def map_back(
    core_dec: Decomposition,
    factors: list[np.ndarray],
    original: Polynomial | None = None,
) -> Decomposition:
    """Lift a core decomposition through the orthonormal factors.

    Each rank-one term's homogeneous vector per mode is multiplied by the
    factor and re-dehomogenized; a vanishing homogenizing coordinate means
    the lifted term is not affine.
    """
    terms = []
    for w, p in core_dec.terms:
        weight = w
        coords = []
        for g, U in enumerate(factors):
            hom = np.concatenate(([1.0], np.asarray(p.coords[g])))
            v = U @ hom
            if abs(v[0]) < 1e-12 * np.linalg.norm(v):
                raise NonAffineTermError(
                    f"lifted term has vanishing homogenizing coordinate in mode {g}"
                )
            weight = weight * v[0]
            coords.append(tuple(v[1:] / v[0]))
        terms.append((weight, Point(tuple(coords))))
    shape = Shape(
        dims=tuple(U.shape[0] - 1 for U in factors),
        degrees=(1,) * len(factors),
    )
    residual = float("nan")
    out = Decomposition(shape, terms, residual, meta=dict(core_dec.meta))
    if original is not None:
        out.residual = verify(original, out)
    return out


# --- reconstruction and verification -----------------------------------------


def reconstruct(shape: Shape, weights, points) -> Polynomial:
    """Expand sum_i gamma_i prod_g (1 + <zeta_g, x_g>)^(d_g)."""
    total = Polynomial(shape, {})
    for w, pt in zip(weights, points):
        term = Polynomial(shape, {shape.one(): w})
        for g in range(shape.k):
            linear = Polynomial(shape, {shape.one(): 1})
            for j in range(shape.dims[g]):
                linear = linear + Polynomial(
                    shape, {shape.variable(g, j): pt.coord(g, j)}
                )
            term = term * linear ** shape.degrees[g]
        total = total + term
    return total


def coefficient_distance(T: Polynomial, S: Polynomial) -> float:
    """Relative Euclidean distance between coefficient tables."""
    num = 0.0
    for m in set(T.terms) | set(S.terms):
        num += abs(T.coeff(m) - S.coeff(m)) ** 2
    den = sum(abs(c) ** 2 for c in T.terms.values())
    if den == 0:
        return math.sqrt(num)
    return math.sqrt(num / den)


def verify(T: Polynomial, D: Decomposition) -> float:
    if T.shape != D.shape:
        raise ValueError("tensor and decomposition shapes differ")
    return coefficient_distance(T, reconstruct(D.shape, D.weights(), D.points()))


# --- change of coordinates ----------------------------------------------------


def random_coordinate_change(shape: Shape, rng) -> list[np.ndarray]:
    """One random orthogonal matrix per group, acting on homogeneous
    coordinates."""
    mats = []
    for n in shape.dims:
        Q, _ = np.linalg.qr(rng.normal(size=(n + 1, n + 1)))
        mats.append(Q)
    return mats


def substitute_linear(T: Polynomial, mats: list[np.ndarray]) -> Polynomial:
    """T(A_1 y_1, ..., A_k y_k) on homogeneous coordinates, dehomogenized."""
    shape = T.shape
    # homogeneous variable i of group g becomes an affine-linear polynomial
    subs = []
    for g, A in enumerate(mats):
        group = []
        for i in range(shape.dims[g] + 1):
            terms = {shape.one(): A[i, 0]}
            for l in range(shape.dims[g]):
                terms[shape.variable(g, l)] = A[i, l + 1]
            group.append(Polynomial(shape, terms))
        subs.append(group)
    total = Polynomial(shape, {})
    for m, c in T.terms.items():
        term = Polynomial(shape, {shape.one(): c})
        for g in range(shape.k):
            exps = m.exps[g]
            hom0 = shape.degrees[g] - sum(exps)
            if hom0:
                term = term * subs[g][0] ** hom0
            for j, e in enumerate(exps):
                if e:
                    term = term * subs[g][j + 1] ** e
        total = total + term
    return total


# --- the main loop -------------------------------------------------------------


def _attempt_rank(T: Polynomial, lam, r: int, opts: DecomposeOptions, seed: int):
    """Try to decompose at one fixed rank with the current coordinates.

    Returns a Decomposition or a failure dict.
    """
    failure = {"rank": r, "stage": "bases", "detail": "no invertible block"}
    count = 0
    for B, Bp in select_bases_candidates(lam, r, opts.tol_rank):
        count += 1
        if count > MAX_BASIS_CANDIDATES:
            break
        ext = propagate_commutation(lam, B, Bp, tol=max(opts.tol_resid, 1e-8))
        log.info(
            "r=%d bases %s | %s -> %s",
            r,
            [str(m) for m in B],
            [str(m) for m in Bp],
            ext.status,
        )
        if ext.status == "inconsistent":
            failure = {
                "rank": r,
                "stage": "extension",
                "detail": f"inconsistent ({ext.diagnostics['inconsistency']:.2e})",
            }
            continue
        if ext.status == "extended":
            if not flat_extension_check(ext.functional, B, Bp, opts.tol_rank):
                failure = {"rank": r, "stage": "flat-check", "detail": "rank grew"}
                continue
        elif ext.commutator_residual > max(opts.tol_resid, 1e-8):
            failure = {
                "rank": r,
                "stage": "extension",
                "detail": f"partial tables do not commute "
                f"({ext.commutator_residual:.2e})",
            }
            continue
        fam = family_from_functional(ext.functional, B, Bp)
        if not fam.matrices:
            failure = {"rank": r, "stage": "family", "detail": "no tables resolved"}
            continue
        roots = joint_eigenvectors(fam, seed=seed)
        if not roots.simple:
            failure = {
                "rank": r,
                "stage": "eigen",
                "detail": f"roots not simple ({roots.diagnostics})",
            }
            continue
        roots = read_coordinates(roots, B, fam)
        try:
            gam, _ = solve_weights(T, roots.points)
            missing = missing_variables(roots)
            if missing:
                roots = recover_missing_coordinates(
                    ext.functional, roots, gam, B, missing
                )
                gam, _ = solve_weights(T, roots.points)
        except (WeightSolveError, CoordinateRecoveryError) as exc:
            failure = {"rank": r, "stage": "recovery", "detail": str(exc)}
            continue
        if np.abs(gam).min() <= 1e-10 * np.abs(gam).max():
            failure = {"rank": r, "stage": "weights", "detail": "vanishing weight"}
            continue
        dec = Decomposition(
            T.shape,
            list(zip(gam.tolist(), roots.points)),
            residual=0.0,
            meta={"basis": [str(m) for m in B], "dual_basis": [str(m) for m in Bp]},
        )
        dec = _realify(dec, T)
        dec.residual = verify(T, dec)
        if np.isfinite(dec.residual) and dec.residual <= opts.tol_resid:
            return dec
        failure = {
            "rank": r,
            "stage": "verify",
            "detail": f"residual {dec.residual:.2e}",
            "residual": dec.residual,
        }
    return failure


def decompose(T: Polynomial, opts: DecomposeOptions | None = None) -> Decomposition:
    """Minimal rank-one decomposition of a multi-graded tensor.

    Raises DecompositionError with the last failure when no attempt at the
    flattening rank produces simple roots and a small reconstruction
    residual.
    """
    opts = opts or DecomposeOptions()
    shape = T.shape
    if T.is_zero():
        raise ValueError("zero tensor")
    if not T.within_bounds():
        raise DegreeOverflowError("tensor exceeds its degree bounds")

    if opts.reduce:
        return _decompose_reduced(T, opts)

    rng = np.random.default_rng(opts.seed)
    lam = build_moment_functional(T)
    lower = max(1, rank_lower_bound(T, opts.tol_rank))
    max_rank = opts.max_rank if opts.max_rank is not None else default_max_rank(shape)
    if max_rank < lower:
        raise DecompositionError(
            f"lower bound {lower} exceeds max rank {max_rank}",
            report={"lower": lower, "max_rank": max_rank},
        )

    # split ranks are invariant under per-group changes of coordinates, so
    # no fully known invertible block larger than `lower` exists in any frame
    r = lower
    best_residual = float("inf")
    report = {}
    for change in range(MAX_COORD_CHANGES + 1):
        if change == 0:
            work, mats = T, None
        else:
            mats = random_coordinate_change(shape, rng)
            work = substitute_linear(T, mats)
        work_lam = lam if change == 0 else build_moment_functional(work)
        out = _attempt_rank(work, work_lam, r, opts, seed=opts.seed + change)
        if isinstance(out, Decomposition) and mats is not None:
            out = _undo_coordinate_change(out, mats, T, opts.tol_resid)
        if isinstance(out, Decomposition):
            out.meta.update(
                rank=r,
                seed=opts.seed,
                coordinate_change_applied=mats is not None,
            )
            log.info("accepted r=%d residual %.2e", r, out.residual)
            return out
        if "residual" in out:
            best_residual = min(best_residual, out["residual"])
        report = out
        log.info("r=%d attempt %d failed: %s", r, change, out)
    raise DecompositionError(
        f"no decomposition at rank {r}"
        + (f"; best residual {best_residual:.2e}" if best_residual < float("inf") else ""),
        report={**report, "best_residual": best_residual},
    )


def _undo_coordinate_change(dec: Decomposition, mats, T: Polynomial, tol_resid: float):
    """Map points of a decomposition of T(Ay) back to the original frame.

    The frame change is real, so terms already realified against T(Ay) map
    to real terms.  Returns the mapped Decomposition when its residual
    against T, recomputed from the returned terms, is at most tol_resid, and
    a failure dict otherwise.
    """
    shape = T.shape
    r = dec.rank
    terms = []
    for w, p in dec.terms:
        weight = w
        coords = []
        for g, A in enumerate(mats):
            v = np.linalg.solve(A.T, np.concatenate(([1.0], p.coords[g])))
            if abs(v[0]) < 1e-12 * np.linalg.norm(v):
                return {"rank": r, "stage": "frame", "detail": "point at infinity"}
            weight = weight * v[0].item() ** shape.degrees[g]
            coords.append(tuple((v[1:] / v[0]).tolist()))
        terms.append((weight, Point(tuple(coords))))
    out = Decomposition(
        shape,
        terms,
        residual=0.0,
        coordinate_change=mats,
        meta=dict(dec.meta),
    )
    out.residual = verify(T, out)
    if np.isfinite(out.residual) and out.residual <= tol_resid:
        return out
    return {
        "rank": r,
        "stage": "frame",
        "detail": f"back-mapped residual {out.residual:.2e}",
        "residual": out.residual,
    }


def _realify(dec: Decomposition, T: Polynomial) -> Decomposition:
    """Drop negligible imaginary parts when the input is real."""
    if not T.is_real() or not dec.terms:
        return dec
    scale = max(
        [abs(complex(w)) for w, _ in dec.terms]
        + [abs(x) for _, p in dec.terms for c in p.coords for x in c]
        + [1.0]
    )
    imag = max(
        [abs(complex(w).imag) for w, _ in dec.terms]
        + [abs(complex(x).imag) for _, p in dec.terms for c in p.coords for x in c]
    )
    if imag <= 1e-8 * scale:
        dec.terms = [
            (complex(w).real, p.real())
            for w, p in dec.terms
        ]
    return dec


def _decompose_reduced(T: Polynomial, opts: DecomposeOptions) -> Decomposition:
    """HOSVD-compress to the detected multilinear rank, decompose the core,
    and lift the result back."""
    _require_multilinear(T.shape)
    ranks = multilinear_rank(T, opts.tol_rank)
    full = [n + 1 for n in T.shape.dims]
    target = [max(2, min(r, f)) for r, f in zip(ranks, full)]
    inner_opts = replace(opts, reduce=False)
    if target == full:
        dec = decompose(T, inner_opts)
        dec.meta["reduced"] = False
        return dec
    core, factors, err = hosvd_reduce(T, target)
    log.info("reduced %s -> %s (compression error %.2e)", full, target, err)
    core_dec = decompose(core, inner_opts)
    out = _realify(map_back(core_dec, factors), T)
    out.residual = verify(T, out)
    out.meta.update(
        reduced=True,
        multilinear_rank=ranks,
        target=target,
        compression_error=err,
        rank=core_dec.rank,
        seed=opts.seed,
        coordinate_change_applied=False,
    )
    if not (np.isfinite(out.residual) and out.residual <= opts.tol_resid):
        raise DecompositionError(
            f"lifted residual {out.residual:.2e} above tolerance",
            report={"residual": out.residual, "compression_error": err},
        )
    return out
