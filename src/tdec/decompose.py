"""Rank bounds, HOSVD reduction and the main decomposition attempt.

The only rank tried is the flattening lower bound: no fully known
invertible moment block is larger, in any frame.  At that rank the attempt
walks the deterministic basis candidates, completes the moments by
commutation propagation, checks flatness, computes joint eigenvectors of the
multiplication tables whose commutation the completion checked, reads
coordinates, solves for weights and accepts on a small reconstruction
residual.  A completion that leaves relations free is finished by the
parametric step (``Family.commuting_member``), which takes a member of its
family whose tables commute; after MAX_VAIN_SEARCHES searches of a frame
that find none, the frame's later families are only checked at t = 0.  A
completion that contradicts the data, or a family with no commuting member
within the step's caps, is refused at the extension stage: without a flat
extension there is no commuting family to read points from.  On failure the attempt is retried under a random (seeded,
orthogonal) change of coordinates per group, at most MAX_COORD_CHANGES
times.  Whether the linear completion extends does not depend on which
generic frame is used, and a family that the parametric step leaves without
a commuting member in one random frame is taken as having none, so the
retries stop after the first random frame in which no completion ends
``extended``: what fails after an extension (the flat check, colliding
roots, a vanishing weight, the residual, the back-map) depends on the frame
drawn, and only that is retried.  The input's own frame is not generic for
sparse input and always goes on to a random frame.  The refusal
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
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .algebra import Point, Polynomial, Shape, evaluate
from .eigen import (
    WeightSolveError,
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
# searches of the parametric step in one frame that may end without a
# commuting member before the frame's later families are only evaluated
# at t = 0
MAX_VAIN_SEARCHES = 2
MAX_RANK = 30


class UnsupportedShapeError(ValueError):
    pass


class DecompositionError(RuntimeError):
    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report or {}


@dataclass
class DecomposeOptions:
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
    # the random frame the terms were found in, if any
    coordinate_change: list[np.ndarray] | None = None
    meta: dict = field(default_factory=dict)

    @property
    def rank(self) -> int:
        return len(self.terms)

    def weights(self):
        return [w for w, _ in self.terms]

    def points(self):
        return [p for _, p in self.terms]


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
    """Generic uniqueness bound for order >= 3 multilinear formats: the
    largest R with sum_g min(n_g + 1, R) >= 2R + k - 1, Kruskal's condition
    with each factor's k-rank at its generic value min(n_g + 1, R)
    (Sidiropoulos and Bro, J. Chemometrics 14, 2000)."""
    if shape.k < 3 or any(d != 1 for d in shape.degrees):
        raise UnsupportedShapeError("bound applies to order >= 3 multilinear")
    full = [n + 1 for n in shape.dims]
    # R = 2 always qualifies, as every n_g + 1 >= 2 and k >= 3
    return max(
        R for R in range(2, sum(full))
        if sum(min(f, R) for f in full) >= 2 * R + shape.k - 1
    )


def rank_bounds(
    T: Polynomial, tol_rank: float = DEFAULT_TOL_RANK, lower: int | None = None
) -> RankBounds:
    """The rank bounds of T.  ``lower``, the flattening rank, is computed
    unless given (a plain ``decompose`` reports it as
    ``meta["lower_bound"]``)."""
    shape = T.shape
    multilinear = all(d == 1 for d in shape.degrees)
    return RankBounds(
        lower=rank_lower_bound(T, tol_rank) if lower is None else lower,
        upper=(
            rank_upper_bound([n + 1 for n in shape.dims])
            if multilinear and shape.k == 3 else shape.ambient_dim
        ),
        expected=expected_rank(shape),
        kruskal=kruskal_bound(shape) if multilinear and shape.k >= 3 else None,
    )


# --- multilinear arrays and HOSVD --------------------------------------------


def _require_multilinear(shape: Shape):
    if any(d != 1 for d in shape.degrees):
        raise UnsupportedShapeError("operation requires a multilinear shape")


def poly_to_array(T: Polynomial) -> np.ndarray:
    """Coefficient array with one axis per group over that group's graded
    monomials; for a multilinear shape these are the full dimensions, index
    0 being the homogenizing slot."""
    table, coef = T.shape.table, T.vector()
    A = np.zeros([len(G) for G in table.group_exps], dtype=coef.dtype)
    A[tuple(table.group_index.T)] = coef
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
    T: Polynomial, target: list[int]
) -> tuple[Polynomial, list[np.ndarray], float]:
    """Truncated higher-order SVD with two alternating refinement passes.

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
    for _ in range(2):
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
    return array_to_poly(core), factors, float(err)


def map_back(dec: Decomposition, mats: list[np.ndarray]) -> Decomposition:
    """Lift a decomposition through per-group matrices G_g with orthonormal
    columns: the HOSVD factors of a compressed core, or the orthogonal
    matrices of a random frame.

    Per group each term's homogeneous vector v = G_g (1, zeta_g) gives the
    lifted point v[1:] / v[0], and the weight takes the factor
    v[0] ** d_g, d_g the group's degree.  A vanishing v[0] puts the term at
    infinity, outside the affine chart: DecompositionError, stage "lift".
    The residual is left unset (NaN).
    """
    degrees = dec.shape.degrees
    terms = []
    for w, p in dec.terms:
        coords = []
        for g, G in enumerate(mats):
            v = G @ np.concatenate(([1.0], np.asarray(p.coords[g])))
            if abs(v[0]) < 1e-12 * np.linalg.norm(v):
                detail = f"point at infinity in group {g}"
                raise DecompositionError(
                    detail, report={"rank": dec.rank, "stage": "lift", "detail": detail}
                )
            w = w * v[0] ** degrees[g]
            coords.append(tuple(v[1:] / v[0]))
        terms.append((w, Point(tuple(coords))))
    shape = Shape(dims=tuple(len(G) - 1 for G in mats), degrees=degrees)
    return Decomposition(shape, terms, float("nan"), meta=dict(dec.meta))


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


def _try_pair(
    T: Polynomial, lam, B, Bp, opts: DecomposeOptions, seed: int, search: bool
):
    """Decompose T at rank len(B) through one basis pair of its moments
    ``lam``: the completion (ExtensionResult) and a Decomposition or a
    failure dict.  A rank-deficient completion goes on to the parametric
    step, which searches its family only when ``search`` is set."""
    r = len(B)
    ext = propagate_commutation(lam, B, Bp, tol=opts.tol_resid)
    if ext.family is not None:
        ext = ext.family.commuting_member(search)
    if not ext.extended:
        diag = ext.diagnostics
        detail = (
            f"inconsistent ({diag['inconsistency']:.2e})"
            if ext.status == "inconsistent"
            else f"not unique: family of dimension {diag['family_dimension']}, "
            f"commutator {diag['commutator_end']:.2e}"
        )
        return ext, {"rank": r, "stage": "extension", "detail": detail}
    if not flat_extension_check(ext.functional, B, Bp, opts.tol_rank):
        return ext, {"rank": r, "stage": "flat-check", "detail": "rank grew"}
    roots = joint_eigenvectors(B, ext.tables, seed=seed)
    if not roots.simple:
        return ext, {
            "rank": r,
            "stage": "eigen",
            "detail": f"roots not simple ({roots.diagnostics})",
        }
    roots = read_coordinates(roots)
    try:
        gam, _ = solve_weights(T, roots.points)
    except WeightSolveError as exc:
        return ext, {"rank": r, "stage": "weights", "detail": str(exc)}
    if np.abs(gam).min() <= 1e-10 * np.abs(gam).max():
        return ext, {"rank": r, "stage": "weights", "detail": "vanishing weight"}
    dec = Decomposition(
        T.shape,
        list(zip(gam.tolist(), roots.points)),
        residual=0.0,
        meta={"basis": B.names(), "dual_basis": Bp.names()},
    )
    return ext, _accept(dec, T, opts.tol_resid, "verify", "residual")


def _attempt_rank(
    T: Polynomial, cats: Catalecticants, r: int, opts: DecomposeOptions, seed: int
):
    """Try to decompose at one fixed rank with the current coordinates,
    ``cats`` being the ``Catalecticants`` of the moments of T.

    Returns a Decomposition or a failure dict, whether any moment completion
    ended ``extended``, and the smallest residual checked (inf if none).  A
    pair that the selection yields again (another degree split can pick the
    same bases) has the same outcome, so it is tried once; a repeat still
    counts toward MAX_BASIS_CANDIDATES.  Once the parametric step has
    searched MAX_VAIN_SEARCHES families of the frame without finding a
    commuting member, the families of its later pairs are only evaluated
    at t = 0.  They complete the same data: in ``scripts/integer_sweep.py``,
    ``scripts/generic_sweep.py`` and the benchmark's hard inputs, no frame
    found a commuting member after two vain searches, and a refused input
    paid a third of its time for the later ones.
    """
    failure = {"rank": r, "stage": "bases", "detail": "no invertible block"}
    extended = False
    best_residual = float("inf")
    outcomes = {}
    vain = 0
    for B, Bp in islice(select_bases_candidates(cats, r), MAX_BASIS_CANDIDATES):
        key = (tuple(B.codes.tolist()), tuple(Bp.codes.tolist()))
        if key not in outcomes:
            search = vain < MAX_VAIN_SEARCHES
            ext, out = _try_pair(T, cats.lam, B, Bp, opts, seed, search)
            outcomes[key] = ext, out
            if ext.status == "rank_deficient" and ext.diagnostics["evaluations"] > 1:
                vain += 1
        ext, out = outcomes[key]
        if log.isEnabledFor(logging.INFO):
            log.info("r=%d bases %s | %s -> %s", r, B.names(), Bp.names(), ext.status)
        extended = extended or ext.extended
        if isinstance(out, Decomposition):
            return out, extended, best_residual
        best_residual = min(best_residual, out.get("residual", best_residual))
        failure = out
    return failure, extended, best_residual


def decompose(T: Polynomial, opts: DecomposeOptions | None = None) -> Decomposition:
    """Minimal rank-one decomposition of a multi-graded tensor.

    With ``opts.reduce`` a multilinear T below full multilinear rank is
    compressed by ``hosvd_reduce``, and the attempts run on the core
    (``base``); a success is lifted through the factors times the frame's
    matrices and accepted against T.  A failed lift through the factors (a
    term at infinity, or the residual the compression leaves) is T's, and
    ends the retries.

    Raises DecompositionError with the last failure when no attempt at the
    flattening rank of ``base`` produces simple roots and a small
    reconstruction residual, or at once for a flattening rank above
    MAX_RANK; its report adds ``best_residual`` (the smallest residual
    checked in any frame), ``frames`` (frames tried, the input's own
    included), ``stop`` (why the retries ended) and, when compressed,
    ``compression_error``.  The returned ``meta`` names the basis pair, the
    rank, the seed, whether the frame was changed (``coordinate_change``
    holds its matrices), ``lower_bound`` (the flattening rank of T, left
    out when compressed) and, under ``opts.reduce``, the compression.
    """
    opts = opts or DecomposeOptions()
    if T.is_zero():
        raise ValueError("zero tensor")

    base, factors, reduced = T, None, {}
    if opts.reduce:
        _require_multilinear(T.shape)
        ranks = multilinear_rank(T, opts.tol_rank)
        full = [n + 1 for n in T.shape.dims]
        target = [max(2, min(r, f)) for r, f in zip(ranks, full)]
        reduced = {"reduced": target != full}
        if target != full:
            base, factors, err = hosvd_reduce(T, target)
            log.info("reduced %s -> %s (compression error %.2e)", full, target, err)
            reduced.update(multilinear_rank=ranks, target=target, compression_error=err)

    rng = None  # the frames' generator, made when frame 1 is drawn
    cats = Catalecticants(build_moment_functional(base), opts.tol_rank)
    flattening_rank = cats.flattening_rank()
    lower = max(1, flattening_rank)
    if lower > MAX_RANK:
        raise DecompositionError(
            f"lower bound {lower} exceeds max rank {MAX_RANK}",
            report={"lower": lower, "max_rank": MAX_RANK},
        )

    # split ranks are invariant under per-group changes of coordinates, so
    # no fully known invertible block larger than `lower` exists in any frame
    r = lower
    best_residual = float("inf")
    report = {}
    stop = "frame limit"
    for change in range(MAX_COORD_CHANGES + 1):
        if change == 0:
            work, mats = base, None
        else:
            rng = rng or np.random.default_rng(opts.seed)
            mats = random_coordinate_change(base.shape, rng)
            work = substitute_linear(base, mats)
            cats = Catalecticants(build_moment_functional(work), opts.tol_rank)
        out, extended, tried = _attempt_rank(work, cats, r, opts, opts.seed + change)
        # lifting through F_g M_g is lifting through M_g and then F_g: the
        # factors v[0] ** d_g of map_back telescope
        if isinstance(out, Decomposition) and factors is not None:
            lift = factors if mats is None else [F @ M for F, M in zip(factors, mats)]
            out = _lift(out, lift, T, opts.tol_resid, "lift", "lifted residual")
        elif isinstance(out, Decomposition) and mats is not None:
            out = _lift(out, mats, T, opts.tol_resid, "frame", "back-mapped residual")
        if isinstance(out, Decomposition):
            out.coordinate_change = mats
            out.meta.update(
                rank=r, seed=opts.seed, coordinate_change_applied=mats is not None
            )
            # the core's flattening rank is not a bound on the rank of T
            if factors is None:
                out.meta["lower_bound"] = flattening_rank
            out.meta.update(reduced)
            log.info("accepted r=%d residual %.2e", r, out.residual)
            return out
        best_residual = min(best_residual, tried, out.get("residual", tried))
        report = out
        log.info("r=%d attempt %d failed: %s", r, change, out)
        # whether the completion extends does not depend on which generic
        # frame is used; frame 0 is the input's own, not generic when sparse
        if change > 0 and not extended:
            stop = f"random frame {change}: no completion extended"
            break
        # a term at infinity, or the residual that the compression leaves,
        # is a property of T, not of the frame drawn
        if out["stage"] == "lift":
            stop = f"frame {change}: lift through the HOSVD factors"
            break
        if out["stage"] == "frame" and "residual" not in out:
            stop = f"random frame {change}: term at infinity"
            break
    raise DecompositionError(
        f"no decomposition at rank {r}"
        + (f"; best residual {best_residual:.2e}" if best_residual < float("inf") else ""),
        report={
            **report,
            "best_residual": best_residual,
            "frames": change + 1,
            "stop": stop,
            **({"compression_error": err} if factors is not None else {}),
        },
    )


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


def _lift(dec: Decomposition, mats, T: Polynomial, tol_resid: float, stage, label):
    """``dec`` mapped back through ``mats`` by map_back and accepted against
    T (_accept); real matrices keep terms that were made real real.
    Returns the decomposition, or the failure dict of ``stage`` for a term
    at infinity or a residual above tol_resid."""
    try:
        lifted = map_back(dec, mats)
    except DecompositionError as exc:
        return {**exc.report, "stage": stage}
    return _accept(lifted, T, tol_resid, stage, label)
