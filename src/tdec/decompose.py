"""Rank bounds, HOSVD reduction and the main decomposition attempt.

The only rank tried is the flattening lower bound: no fully known
invertible moment block is larger, in any frame.  At that rank the attempt
walks the deterministic basis candidates, completes the moments by
commutation propagation, checks flatness, computes joint eigenvectors of the
multiplication family, reads coordinates, solves for weights and accepts on
a small reconstruction residual.  A completion that does not extend (its
relations stay free, or contradict the data) is refused at the extension
stage: without a flat extension there is no commuting family to read
points from.  On failure the attempt is retried under a random (seeded,
invertible) change of coordinates per group, at most MAX_COORD_CHANGES
times.  Whether a moment completion extends does not depend on which
generic frame is used, so the retries stop after the first random frame in
which no completion ends ``extended``: what fails after an extension
(colliding roots, a vanishing weight, the residual, the back-map) depends
on the frame drawn, and only that is retried.  The input's own frame is not
generic for sparse input and always goes on to a random frame.  The refusal
raises with the last failure, the number of frames tried and the reason
the retries stopped.

Tensors are arrays over the shape's monomial table: a rank-one sum expands
as the multinomials times ``V @ weights`` (V the monomials' values at the
points), and a change of coordinates is one mode product per group with
the symmetric power Sym^{d_g}(A_g) of the group's matrix.  Every returned
decomposition passes one acceptance check on its residual.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .algebra import Point, Polynomial, Shape, evaluate
from .eigen import (
    WeightSolveError,
    family_from_functional,
    joint_eigenvectors,
    read_coordinates,
    solve_weights,
)
from .extension import flat_extension_check, propagate_commutation
from .moment import (
    DEFAULT_TOL_RANK,
    Catalecticants,
    build_moment_functional,
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

    def __post_init__(self):
        for name in ("tol_rank", "tol_resid"):
            value = getattr(self, name)
            if not 0.0 <= value < float("inf"):
                raise ValueError(
                    f"{name} must be finite and non-negative, got {value!r}"
                )


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
    return Catalecticants(build_moment_functional(T), tol_rank).flattening_rank()


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


def rank_bounds(
    T: Polynomial, tol_rank: float = DEFAULT_TOL_RANK, lower: int | None = None
) -> RankBounds:
    """The rank bounds of T.  ``lower``, the flattening rank, is computed
    unless given (a plain ``decompose`` reports it as
    ``meta["lower_bound"]``)."""
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
        lower=rank_lower_bound(T, tol_rank) if lower is None else lower,
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
    """Coefficient array with one axis per group over that group's graded
    monomials; for a multilinear shape these are the full dimensions, index
    0 being the homogenizing slot."""
    table = T.shape.table
    A = np.zeros(
        [len(G) for G in table.group_exps],
        dtype=complex if T.uses_complex() else float,
    )
    A[tuple(table.group_index.T)] = T.vector()
    return A


def array_to_poly(A: np.ndarray, shape: Shape | None = None) -> Polynomial:
    """Inverse of poly_to_array; the shape is multilinear (axis sizes
    n_g + 1) when not given."""
    if shape is None:
        shape = Shape(dims=tuple(d - 1 for d in A.shape), degrees=(1,) * A.ndim)
    return Polynomial.from_vector(shape, A[tuple(shape.table.group_index.T)])


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
    _require_multilinear(T.shape)
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


def map_back(core_dec: Decomposition, factors: list[np.ndarray]) -> Decomposition:
    """Lift a core decomposition through the orthonormal factors.

    Each rank-one term's homogeneous vector per mode is multiplied by the
    factor and re-dehomogenized; a vanishing homogenizing coordinate means
    the lifted term is not affine.  The residual is left unset (NaN).
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
    return Decomposition(shape, terms, float("nan"), meta=dict(core_dec.meta))


# --- reconstruction and verification -----------------------------------------


def _expand(shape: Shape, weights, points) -> np.ndarray:
    """Coefficients of sum_i gamma_i prod_g (1 + <zeta_g, x_g>)^(d_g) over
    the shape's monomial table."""
    table = shape.table
    V = evaluate(shape, points, table.exps)
    return table.multinomials * (V @ np.asarray(weights))


def reconstruct(shape: Shape, weights, points) -> Polynomial:
    """Expand sum_i gamma_i prod_g (1 + <zeta_g, x_g>)^(d_g)."""
    return Polynomial.from_vector(shape, _expand(shape, weights, points))


def verify(T: Polynomial, D: Decomposition) -> float:
    """Relative Euclidean distance between the coefficients of T and of the
    expansion of D (the absolute distance when T is zero)."""
    if T.shape != D.shape:
        raise ValueError("tensor and decomposition shapes differ")
    t = T.vector()
    dist = np.linalg.norm(t - _expand(D.shape, D.weights(), D.points()))
    norm = np.linalg.norm(t)
    return float(dist / norm if norm else dist)


# --- change of coordinates ----------------------------------------------------


def random_coordinate_change(shape: Shape, rng) -> list[np.ndarray]:
    """One random orthogonal matrix per group, acting on homogeneous
    coordinates."""
    mats = []
    for n in shape.dims:
        Q, _ = np.linalg.qr(rng.normal(size=(n + 1, n + 1)))
        mats.append(Q)
    return mats


def symmetric_power(A: np.ndarray, exps: np.ndarray, d: int) -> np.ndarray:
    """Sym^d(A) over ``exps``, the graded monomials of degree <= d of one
    group: column j holds the coefficients of prod_i L_i^(alpha_i), where
    L_i = A[i, 0] + sum_l A[i, l + 1] y_l and alpha = (d - |e_j|, e_j).

    Built in d steps of multiplication by one linear form, each an index
    add: code(y_l * m) = code(y_l) + code(m), and h_0 shifts by nothing.
    """
    group = Shape((exps.shape[1],), (d,))
    codes = group.codes(exps).tolist()
    shift = [0, *group.variable_codes.tolist()]
    row_of = {c: i for i, c in enumerate(codes)}
    degree = exps.sum(axis=1)
    P = np.ones((1, 1), dtype=A.dtype)
    for t in range(d):
        size = int(np.sum(degree <= t + 1))
        # column j of degree t + 1 is L_i times the column src[j] of degree t
        lead = np.where(degree[:size] <= t, 0, exps[:size].argmax(axis=1) + 1)
        src = [row_of[codes[j] - shift[i]] for j, i in enumerate(lead.tolist())]
        Q = np.zeros((size, size), dtype=np.result_type(A, P))
        for l, step in enumerate(shift):
            Q[[row_of[c + step] for c in codes[: len(P)]]] += P[:, src] * A[lead, l]
        P = Q
    return P


def substitute_linear(T: Polynomial, mats: list[np.ndarray]) -> Polynomial:
    """T(A_1 y_1, ..., A_k y_k) on homogeneous coordinates, dehomogenized:
    one mode product per group with the symmetric power of A_g."""
    shape, table = T.shape, T.shape.table
    C = poly_to_array(T)
    for g, A in enumerate(mats):
        S = symmetric_power(A, table.group_exps[g], shape.degrees[g])
        C = _mode_product(C, g, S)
    return array_to_poly(C, shape)


# --- the main loop -------------------------------------------------------------


def _attempt_rank(
    T: Polynomial, lam, r: int, opts: DecomposeOptions, seed: int, cats=None
):
    """Try to decompose at one fixed rank with the current coordinates;
    ``cats`` are the ``Catalecticants`` of ``lam`` already read, if any.

    Returns a Decomposition or a failure dict, and whether any moment
    completion ended ``extended``.
    """
    failure = {"rank": r, "stage": "bases", "detail": "no invertible block"}
    extended = False
    count = 0
    for B, Bp in select_bases_candidates(lam, r, opts.tol_rank, cats):
        count += 1
        if count > MAX_BASIS_CANDIDATES:
            break
        ext = propagate_commutation(lam, B, Bp, tol=max(opts.tol_resid, 1e-8))
        if log.isEnabledFor(logging.INFO):
            log.info("r=%d bases %s | %s -> %s", r, B.names(), Bp.names(), ext.status)
        if not ext.extended:
            diag = ext.diagnostics
            detail = (
                f"inconsistent ({diag['inconsistency']:.2e})"
                if ext.status == "inconsistent"
                else f"rank deficient (nullity {diag['nullity']}, "
                f"{len(diag['unresolved'])} unresolved)"
            )
            failure = {"rank": r, "stage": "extension", "detail": detail}
            continue
        extended = True
        if not flat_extension_check(ext.functional, B, Bp, opts.tol_rank):
            failure = {"rank": r, "stage": "flat-check", "detail": "rank grew"}
            continue
        fam = family_from_functional(ext.functional, B, Bp)
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
        except WeightSolveError as exc:
            failure = {"rank": r, "stage": "weights", "detail": str(exc)}
            continue
        if np.abs(gam).min() <= 1e-10 * np.abs(gam).max():
            failure = {"rank": r, "stage": "weights", "detail": "vanishing weight"}
            continue
        dec = Decomposition(
            T.shape,
            list(zip(gam.tolist(), roots.points)),
            residual=0.0,
            meta={"basis": B.names(), "dual_basis": Bp.names()},
        )
        out = _accept(dec, T, opts.tol_resid, "verify", "residual")
        if isinstance(out, Decomposition):
            return out, extended
        failure = out
    return failure, extended


def decompose(T: Polynomial, opts: DecomposeOptions | None = None) -> Decomposition:
    """Minimal rank-one decomposition of a multi-graded tensor.

    Raises DecompositionError with the last failure when no attempt at the
    flattening rank produces simple roots and a small reconstruction
    residual; its report adds ``frames`` (frames tried, the input's own
    included) and ``stop`` (why the retries ended).  The returned ``meta``
    names the basis pair, the rank, the seed, whether the frame was changed
    and ``lower_bound``, the flattening rank of T.
    """
    opts = opts or DecomposeOptions()
    shape = T.shape
    if T.is_zero():
        raise ValueError("zero tensor")

    if opts.reduce:
        return _decompose_reduced(T, opts)

    rng = np.random.default_rng(opts.seed)
    cats = Catalecticants(build_moment_functional(T), opts.tol_rank)
    flattening_rank = cats.flattening_rank()
    lower = max(1, flattening_rank)
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
    stop = "frame limit"
    for change in range(MAX_COORD_CHANGES + 1):
        if change == 0:
            work, mats = T, None
        else:
            mats = random_coordinate_change(shape, rng)
            work = substitute_linear(T, mats)
            # read lazily: a random frame reads the splits selection visits
            cats = Catalecticants(build_moment_functional(work), opts.tol_rank)
        out, extended = _attempt_rank(
            work, cats.lam, r, opts, seed=opts.seed + change, cats=cats
        )
        if isinstance(out, Decomposition) and mats is not None:
            out = _undo_coordinate_change(out, mats, T, opts.tol_resid)
        if isinstance(out, Decomposition):
            out.meta.update(
                rank=r,
                seed=opts.seed,
                coordinate_change_applied=mats is not None,
                lower_bound=flattening_rank,
            )
            log.info("accepted r=%d residual %.2e", r, out.residual)
            return out
        if "residual" in out:
            best_residual = min(best_residual, out["residual"])
        report = out
        log.info("r=%d attempt %d failed: %s", r, change, out)
        # whether the completion extends does not depend on which generic
        # frame is used; frame 0 is the input's own, not generic when sparse
        if change > 0 and not extended:
            stop = f"random frame {change}: no completion extended"
            break
    raise DecompositionError(
        f"no decomposition at rank {r}"
        + (f"; best residual {best_residual:.2e}" if best_residual < float("inf") else ""),
        report={
            **report,
            "best_residual": best_residual,
            "frames": change + 1,
            "stop": stop,
        },
    )


def _undo_coordinate_change(dec: Decomposition, mats, T: Polynomial, tol_resid: float):
    """Map points of a decomposition of T(Ay) back to the original frame.

    The frame change is real, so terms already realified against T(Ay) map
    to real terms.  Returns the mapped Decomposition when it passes the
    acceptance check against T, and a failure dict otherwise.
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
    return _accept(out, T, tol_resid, "frame", "back-mapped residual")


def _canonical_order(values: np.ndarray, scale: float) -> np.ndarray:
    """The permutation that sorts terms by weight, then by point, each
    number by its real part, then its imaginary part; row k of ``values``
    holds the weight and then the coordinates of term k.  Numbers are
    compared on a grid of 1e-6 * ``scale`` (the largest modulus in the
    decomposition, at least 1), so that rounding-level noise does not
    decide between terms whose weights agree."""
    keys = np.rint(values.view(float) * (1e6 / scale))
    # np.lexsort sorts by its last key first
    return np.lexsort(keys.T[::-1])


def _accept(dec: Decomposition, T: Polynomial, tol_resid: float, stage, label):
    """The one acceptance check of a returned decomposition.  When T is real
    and the imaginary parts of the terms are at most 1e-8 of their largest
    modulus (or of 1), the terms are made real.  The terms are put in
    canonical order (_canonical_order), so that a rounding-level change does
    not permute them, and the residual is then recomputed from the returned
    terms.  Returns the decomposition when the residual is at most
    tol_resid, and otherwise the failure dict of ``stage``, its detail led
    by ``label``."""
    values = np.array(
        [[w, *(x for c in p.coords for x in c)] for w, p in dec.terms],
        dtype=complex,
    )
    scale = np.abs(values).max(initial=1.0)
    if T.is_real() and np.abs(values.imag).max(initial=0.0) <= 1e-8 * scale:
        dec.terms = [(complex(w).real, p.real()) for w, p in dec.terms]
    # ordered on the values from before the terms were made real: the
    # imaginary parts dropped lie below the grid of the order
    dec.terms = [dec.terms[i] for i in _canonical_order(values, scale).tolist()]
    dec.residual = verify(T, dec)
    if np.isfinite(dec.residual) and dec.residual <= tol_resid:
        return dec
    return {
        "rank": dec.rank,
        "stage": stage,
        "detail": f"{label} {dec.residual:.2e}",
        "residual": dec.residual,
    }


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
    out = _accept(
        map_back(core_dec, factors), T, opts.tol_resid, "lift", "lifted residual"
    )
    if not isinstance(out, Decomposition):
        raise DecompositionError(
            f"{out['detail']} above tolerance",
            report={**out, "compression_error": err},
        )
    # the core's flattening rank is not a bound on the rank of T
    del out.meta["lower_bound"]
    out.meta.update(
        reduced=True,
        multilinear_rank=ranks,
        target=target,
        compression_error=err,
        rank=core_dec.rank,
        seed=opts.seed,
        coordinate_change_applied=False,
    )
    return out
