"""Moment completion and flat-extension decisions.

Given bases B (columns) and B' (rows) with a fully known invertible block
``H[i, j] = lam(b'_i b_j)``, as ``select_bases_candidates`` yields them,
every monomial of ``B.border`` carries an unknown normal form over B (its
relation in the quotient).  Invertibility is decided in the selection, once:
the completion and the flat check take it as given and only refuse unknown
moments they need.  Relations whose full column over B' is known follow
from one linear solve.  The rest are determined by a linear fixpoint that
harvests, in canonical order:

* column equations against any row monomial whose products with B are known,
* placeholder equations tying rows to shared unknown moments (the
  quasi-Hankel structure),
* pairwise syzygies between border relations whose leading monomials share
  an lcm one variable away, expanded only while they stay linear in the
  unknown relation coefficients.

Each pass projects the placeholders out exactly, which leaves a system in
the relation coefficients alone with the same least-squares residual and
the same determined coefficients.  Two targets are coupled when some row
has nonzeros in both of their coefficient blocks; the connected components
of that relation are independent systems side by side.  Each is solved by
the SVD of the R factor of its QR decomposition, against one rank
threshold set by the largest singular value of any component, which is the
truncated SVD of the whole system up to rounding.  A pass that is one
component, or too small for the smaller factorizations to pay for the
extra calls, is solved whole.  A tall pass whose full rank a lower bound on
its smallest singular value proves against that same threshold (the last
pass of every flat instance) skips the factorizations: it is solved through
the Cholesky factor of X^H X with one refinement step, and every relation
it touches is determined, as the truncated SVD would find.  The factor is
inverted by recursive 2 x 2 blocks, matrix products around LU inverses of
diagonal blocks of at most 64, and the residual of the computed inverse,
formed block by block, is what makes the lower bound a proof.

The monomial bookkeeping is index arithmetic on exponent rows and their
codes, done once per plan (below): the targets (the border of B) are an
exponent matrix; the reduction table stacks the unit vectors of B and the
tails of the targets, and it and the mask of its known slots are the whole
state of the completion; the moments of every target times every known row
are one lookup of a block of code sums; the shift table places each product
``x_v * b`` in a slot of the reduction table; and the syzygy pairs are
screened all at once on the targets' exponent matrix.  Each pass builds the
syzygy rows of all pairs at once through the shift table: the constant side
of every pair, and its coefficient blocks (a scalar times the identity for a
resolved tail meeting an unresolved target, the shift matrix of an
unresolved target), the two sides of a pair summed into one r x r block per
unresolved target it meets.  The pass's system is written once: the moment
rows and the nonzero rows of those blocks go straight into one zero array,
and the blocks they touch are the incidence that splits the system into
components.  The multiplication tables read the same reduction table, and
an extension returns the tables whose commutation it checked, for the roots
to be read from.  The completed moments are added by code, in two batches.
``Monomial`` objects appear only in the products of B' with the leads of
the targets; the normal forms are reduced on exponent rows and codes.

The equations of a border basis depend on B and its border alone; only the
moment values change from tensor to tensor.  So everything a completion
derives from the format, the bases and the codes of the known moments is
one plan: the positions in the functional's values of the base block, of
the fully known rows and of the target x row products (with the
placeholder ids of the unknown ones), the shift table, the syzygy pairs,
the directly solvable columns, the unknown codes of B'+ x B+ with their
normal-form walk, and the leads of the targets.  A call reads its values
through those positions and runs the fixpoint, the solves and the tables on
its own.  The functional of a tensor knows exactly the moments of the
format's table, so those functionals share one plan per format and basis
pair, kept in a small cache of the most recently used behind a lock; any
other functional gets a plan of its own.  The plan's arrays are read-only,
as calls share them.

When the fixpoint resolves everything and the multiplication tables
commute, they define the unique extension of the data, and any moment is
obtained by reducing its monomial to a normal form and pairing against the
values on B.  NF(m) = M_v NF(m / x_v) for the last variable v of m, so the
unknown products of B'+ x B+ are reduced together, one degree at a time,
and each degree is one stacked product of the monomials' last-variable
tables with their parents' forms.  Their pairings with the values on B,
the moments of B' x border and the relations solved directly from H are
stacked in the same way.  A stacked product or solve runs the same BLAS or
LAPACK call per item as the single product or solve, so the completed
moments are the same to the bit.  A completion whose equations or tables
contradict the data is no flat extension and completes no moment.

A completion that leaves relations free (``rank_deficient``) has a family
of solutions: the tails of its last fixpoint pass are x0 + N t, N the null
space of that pass's system from the SVDs it already took, and each member
whose multiplication tables commute is a flat extension of the data (the
border-basis form of the flat-extension criterion; Bernardi, Brachat,
Comon and Mourrain, J. Symb. Comput. 52, 2013).  propagate_commutation
reports such a completion as ``rank_deficient`` with its ``Family``, whose
``commuting_member`` searches it from t = 0 by a damped Gauss-Newton solve
on the commutators, whose Jacobian is affine in t, with caps on the
evaluations and on the size of the Jacobian, and completes the member it
finds as an extension.
"""

from __future__ import annotations

import copy
import logging
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .algebra import MomentFunctional, Shape, canonical_order, first_unknown
from .moment import DEFAULT_TOL_RANK, MonomialBasis, hankel, numerical_rank

log = logging.getLogger("tdec")

DEFAULT_TOL_EXTEND = 1e-6
_NULLSPACE_TOL = 1e-7


@dataclass
class ExtensionResult:
    """The outcome of a moment completion.  ``functional`` (the data
    extended to B'+ x B+) and ``tables`` (the commuting multiplication
    tables, one (n_vars, r, r) array in canonical variable order, column s
    of M_v the normal form of x_v * b_s over B) are set only when ``status``
    is "extended", ``commutator_residual`` only once every table is known,
    ``diagnostics`` always, and ``family`` (the solutions the completion
    leaves, which ``Family.commuting_member`` searches) only when ``status``
    is "rank_deficient"."""

    status: str  # "extended" | "rank_deficient" | "inconsistent"
    functional: MomentFunctional | None
    tables: np.ndarray | None
    commutator_residual: float | None
    diagnostics: dict = field(default_factory=dict)
    family: Family | None = field(default=None, repr=False, compare=False)

    @property
    def extended(self) -> bool:
        return self.status == "extended"


def commutator_residual(mats: list[np.ndarray] | np.ndarray) -> float:
    """Max over pairs i < j of ||M_i M_j - M_j M_i||_F, scale normalized
    (see _residual).  Takes a list or a stacked array of the matrices; a
    NaN anywhere gives NaN, which no tolerance passes."""
    M = np.stack(mats)
    i, j = np.triu_indices(len(M), 1)
    return _residual(M, _brackets(M, i, j), i, j)


def _brackets(M: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """[M_i, M_j] for the pairs (i, j), one stacked product per side."""
    return M[i] @ M[j] - M[j] @ M[i]


def _residual(M: np.ndarray, F: np.ndarray, i: np.ndarray, j: np.ndarray) -> float:
    """The commutator residual of the brackets F of the pairs (i, j): the
    largest ||[M_i, M_j]||_F / max(1, ||M_i||_F ||M_j||_F), 0 without
    pairs."""
    norms = np.linalg.norm(M, axis=(1, 2))
    ratio = np.linalg.norm(F, axis=(1, 2)) / np.maximum(1.0, norms[i] * norms[j])
    return float(ratio.max(initial=0.0))


# the fixed cost of one more QR and SVD call, in the units of _solve_cost
# (about 0.1 ms next to 1e9 multiply-adds per second)
_CALL_COST = 1e5


def _solve_cost(m, n):
    """Multiply-adds, up to a constant, of the QR of an m x n block and the
    SVD of its R factor (arrays of sizes give arrays of costs)."""
    k = np.minimum(m, n)
    return (m + k) * n * k


def _components(nz: np.ndarray) -> np.ndarray:
    """Per column block, the smallest block of its connected component,
    given the incidence nz[row, block]: two blocks are linked when some row
    touches both."""
    incidence = nz.astype(float)
    linked = incidence.T @ incidence > 0
    n_blocks = nz.shape[1]
    label = np.arange(n_blocks)
    while True:
        new = np.minimum(label, np.where(linked, label, n_blocks).min(axis=1))
        new = new[new]
        if (new == label).all():
            return label
        label = new


def _factor(X: np.ndarray, b: np.ndarray):
    """The R factor of [X | b] as R_x and c, and the SVD of R_x, which has
    the singular values and right singular vectors of X (all n of them: a
    wide R_x gets its full square of right singular vectors)."""
    R = np.linalg.qr(np.column_stack([X, b]), mode="r")
    R_x, c = R[:, :-1], R[:, -1]
    wide = R_x.shape[0] < R_x.shape[1]
    return (R_x, c, *np.linalg.svd(R_x, full_matrices=wide))


def _truncated(R_x, c, U, s, Vt, cutoff: float):
    """The solution over the singular values above cutoff, its residual
    vector in the rotated system, per unknown its distance from the row
    space, and the rank.

    The distance is the norm of the unknown's entries in the trailing right
    singular vectors, the orthonormal null-space basis, which is exactly 0
    at full rank and free of the cancellation of 1 - ||V_k[:, j]||^2."""
    k = int(np.sum(s > cutoff))
    x = Vt[:k].conj().T @ ((U[:, :k].conj().T @ c) / s[:k])
    return x, R_x @ x - c, np.linalg.norm(Vt[k:], axis=0), k


# the rounding of forming X^H X and of factoring it, in units of (m + n) *
# eps * ||X||_F^2, and of the products of the residual Y L - I, in units of
# n * eps * ||Y||_F * ||L||_F; the first-order bounds (Higham, Accuracy and
# Stability of Numerical Algorithms, sec. 3.5 and ch. 10) have constants
# near 1/2 and 1
_GRAM_ROUNDING = 4.0
# the largest diagonal block that _inverse_lower hands to np.linalg.inv
_LEAF = 64


def _inverse_lower(L: np.ndarray):
    """The inverse of the lower-triangular L by recursive 2 x 2 blocks
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., sec.
    14.2.2; Du Croz and Higham, IMA J. Numer. Anal. 12, 1992): X11 and X22
    invert the diagonal blocks and X21 = -X22 (L21 X11), two matrix products,
    about 2n^3/3 multiply-adds where the LU-based np.linalg.inv takes 2n^3.
    A block of at most _LEAF rows goes to np.linalg.inv, so that an L of
    that size gets the same inverse as from np.linalg.inv itself.

    Returns the computed inverse Y and ||Y L - I||_F^2, formed block by
    block.  Above a split Y12 and L12 are zero, so the upper block of Y L is
    exactly zero and its diagonal blocks are Y11 L11 and Y22 L22, whose
    residuals the recursion returns; the lower block Y21 L11 + Y22 L21 is
    one product of the computed rows [Y21 Y22] with the columns [L11; L21].
    This costs about a third of the product Y L.
    """
    n = len(L)
    if n <= _LEAF:
        Y = np.linalg.inv(L)
        return Y, float(np.linalg.norm(Y @ L - np.eye(n))) ** 2
    h = n // 2
    Y11, r11 = _inverse_lower(L[:h, :h])
    Y22, r22 = _inverse_lower(L[h:, h:])
    Y = np.zeros_like(L)
    Y[:h, :h] = Y11
    Y[h:, h:] = Y22
    Y21 = Y[h:, :h]
    LY = L[h:, :h] @ Y11
    np.matmul(Y22, LY, out=Y21)
    np.negative(Y21, out=Y21)
    # the lower block of Y L - I, in the buffer of L21 Y11
    R21 = np.matmul(Y[h:], L[:, :h], out=LY)
    return Y, r11 + r22 + float(np.linalg.norm(R21)) ** 2


def _certified(X: np.ndarray, b: np.ndarray, cutoff_scale: float):
    """Least squares of a tall X through the Cholesky factor L of X^H X,
    when a lower bound on sigma_min(X) proves full rank; else None.

    L L^H equals X^H X up to E with ||E||_2 <= _GRAM_ROUNDING * (m + n) *
    eps * ||X||_F^2, so sigma_min(X)^2 >= 1 / ||L^-1||_2^2 - that margin.
    With R = Y L - I for the computed inverse Y, L^-1 = (I + R)^-1 Y, so
    ||L^-1||_2 <= ||Y||_F / (1 - rho) for any rho >= ||R||_2 below 1.  rho
    is ||R||_F from _inverse_lower plus the rounding of its products, at
    most gamma_n |Y| |L| (Higham sec. 3.5, eq. 3.13), taken as
    _GRAM_ROUNDING * n * eps * ||Y||_F * ||L||_F, which leaves room for the
    subtraction and the norms; rho not below 1/3 refuses, as does a NaN.
    The solve is certified when the bound on sigma_min(X)^2 exceeds the
    square of the QR path's cutoff ``cutoff_scale * sigma_max``, with
    ||X||_F >= sigma_max in its place: the truncated SVD would keep every
    singular value, so the rank is n and every unknown is determined.  The
    solution takes one step of refinement against b - X x (the corrected
    semi-normal equations of Bjorck, Numerical Methods for Least Squares
    Problems).  Returns x, the residual norm and the bound on sigma_min(X).
    """
    m, n = X.shape
    Xh = X.conj().T
    G = Xh @ X
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        return None
    eps = np.finfo(float).eps
    frob_sq = float(np.trace(G).real)
    margin = _GRAM_ROUNDING * (m + n) * eps * frob_sq
    floor = cutoff_scale**2 * frob_sq
    # sigma_min(L) <= min |L_ii|: a small pivot refuses before the inverse
    if np.min(np.abs(np.diagonal(L))) ** 2 - margin <= floor:
        return None
    L_inv, r_sq = _inverse_lower(L)
    inv_norm = float(np.linalg.norm(L_inv))
    rho = np.sqrt(r_sq) + _GRAM_ROUNDING * n * eps * np.linalg.norm(L) * inv_norm
    bound = (1.0 - rho) ** 2 / inv_norm**2 - margin
    if not (rho < 1.0 / 3.0 and bound > floor):
        return None

    def solve(rhs):
        return L_inv.conj().T @ (L_inv @ (Xh @ rhs))

    x = solve(b)
    x += solve(b - X @ x)
    return x, float(np.linalg.norm(X @ x - b)), float(np.sqrt(bound))


def _parts(label, row_label, n_rows, n_cols, r: int):
    """The rows and columns of each component that has rows, and the
    all-zero rows.  A system better solved whole (it has at most one
    component of rows, or the extra calls would cost more than the smaller
    factorizations save) is one part of every row and column, with no
    all-zero rows.  Takes the block labels, the label of each row (-1 for
    an all-zero row), and the row and column counts by label."""
    linked = np.flatnonzero(n_rows)
    split_cost = (
        _solve_cost(n_rows[linked], n_cols[linked]).sum() + _CALL_COST * len(linked)
    )
    if len(linked) <= 1 or split_cost >= _solve_cost(len(row_label), len(label) * r):
        return [(slice(None), slice(None))], []
    column_label = np.repeat(label, r)
    parts = [
        (np.flatnonzero(row_label == c), np.flatnonzero(column_label == c))
        for c in linked
    ]
    return parts, np.flatnonzero(row_label < 0)


def _least_squares(
    X: np.ndarray, b: np.ndarray, size: int, r: int, nz: np.ndarray
):
    """Least squares of X x = b: a certified full-rank solve when X is tall
    and provably of full numerical rank, else the truncated SVD through the
    R factor of [X | b], one connected component of X's r-column blocks at
    a time.  ``nz[row, block]`` tells whether the row has a nonzero in that
    block of r columns.

    The rank threshold is global, ``size * eps * 100`` times the largest
    singular value of X, where ``size`` is the larger dimension of the
    system before placeholder projection.  An X whose every component has
    at least as many rows as columns first tries _certified, which proves
    against that same threshold that no singular value falls below it; a
    rank-deficient X can never pass, so the determined unknowns are those
    the truncated SVD finds, and a certified solve has rank n and no
    freedom.  Otherwise the rows of a component touch only its columns,
    so X is block diagonal up to permutation and the SVD of each
    component's R factor gives the singular values and right singular
    vectors of X restricted to it; the tall factor Q is never formed.
    All-zero rows add their right-hand side to the residual.  The system
    is solved whole when splitting does not pay (see _parts).

    Returns the solution, the residual norm, per unknown its distance from
    the row space (0 when the unknown is determined), the numerical rank of
    X, the column count of each component, the certified lower bound on
    sigma_min(X) (None on the truncated-SVD path), and the null space of
    X as (columns, Vt) pairs, the trailing right singular vectors of each
    factored part as rows over its columns (none when certified).  The
    columns of no part (a component that no row touches) are free.
    """
    n = X.shape[1]
    label = _components(nz)
    # a row touches one component, the one of its first nonzero block
    row_label = np.where(nz.any(axis=1), label[nz.argmax(axis=1)], -1)
    n_rows = np.bincount(row_label[row_label >= 0], minlength=len(label))
    n_cols = np.bincount(label, minlength=len(label)) * r
    sizes = n_cols[n_cols > 0]
    eps = size * np.finfo(float).eps * 100
    # full column rank needs as many rows as columns in every component,
    # including a block that no row touches
    if (n_rows >= n_cols).all():
        certified = _certified(X, b, eps)
        if certified is not None:
            x, resid, bound = certified
            return x, resid, np.zeros(n), n, sizes, bound, []
    parts, zero_rows = _parts(label, row_label, n_rows, n_cols, r)
    factors = [_factor(X[rows][:, cols], b[rows]) for rows, cols in parts]
    cutoff = eps * max(s.max(initial=0.0) for _, _, _, s, _ in factors)
    x = np.zeros(n, dtype=np.result_type(X, b))
    freedom = np.ones(n)
    gaps = [b[zero_rows]]
    rank = 0
    null = []
    for (_, cols), part in zip(parts, factors):
        x[cols], gap, freedom[cols], k = _truncated(*part, cutoff)
        gaps.append(gap)
        rank += k
        null.append((cols, part[4][k:]))
    return (
        x, float(np.linalg.norm(np.concatenate(gaps))), freedom, rank, sizes, None,
        null,
    )


def _syzygy_pairs(exps: np.ndarray) -> np.ndarray:
    """Target pairs, rows (t1, t2, v1, v2) with lcm = x_v1 * m_t1 =
    x_v2 * m_t2 (v = -1 for the factor 1), in canonical order of the lcm.

    ``exps`` holds the targets' exponent rows; the lcm is their elementwise
    maximum, and a pair is kept when it is at most one variable above each
    target.
    """
    i, j = np.triu_indices(len(exps), 1)
    lcm = np.maximum(exps[i], exps[j])
    q1, q2 = lcm - exps[i], lcm - exps[j]
    keep = (q1.sum(axis=1) <= 1) & (q2.sum(axis=1) <= 1)
    i, j, lcm, q1, q2 = i[keep], j[keep], lcm[keep], q1[keep], q2[keep]
    v1 = np.where(q1.any(axis=1), q1.argmax(axis=1), -1)
    v2 = np.where(q2.any(axis=1), q2.argmax(axis=1), -1)
    return np.stack([i, j, v1, v2], axis=1)[canonical_order(lcm)]


@dataclass(frozen=True, eq=False)
class _Plan:
    """Everything a completion derives from the format, the bases and the
    codes of the known moments, and nothing from their values: positions in
    the functional's ``values`` (``MomentFunctional.positions``, -1 where a
    moment is unknown) and index tables, all read-only, as calls share
    them."""

    targets: np.ndarray  # exponent rows of B.border, whose relations are sought
    leads: tuple  # the Monomial of each target
    base: np.ndarray  # lam(b'_i * b_j)
    rows: np.ndarray  # every fully known row times B
    products: np.ndarray  # every target times every fully known row
    prod_place: np.ndarray  # placeholder id of each unknown product, else -1
    shift: np.ndarray  # shift[v, s]: the reduction-table slot of x_v * b_s
    syzygy_pairs: np.ndarray
    direct: np.ndarray  # the targets whose column over B' is known
    direct_cols: np.ndarray  # those columns, |B'| x len(direct)
    moments_B: np.ndarray  # lam(b) for b in B
    unknown_codes: np.ndarray  # the unknown moments of B'+ x B+, by code
    walk: tuple  # the _reduction_walk of those


def _build_plan(lam: MomentFunctional, B: MonomialBasis, Bp: MonomialBasis) -> _Plan:
    shape = lam.shape
    base = lam.positions(shape.product_codes(Bp.exps, B.exps))
    if (base < 0).any():
        raise ValueError("base block has unknown entries")
    targets = B.border
    # any monomial whose products with B are known yields valid
    # constraints; scan the whole known range plus the prolonged rows
    # beyond it (those over some group's degree bound)
    plus = Bp.plus
    starts = np.cumsum((0,) + shape.dims[:-1])
    beyond = (np.add.reduceat(plus, starts, axis=1) > shape.degrees).any(axis=1)
    row_pool = np.vstack([shape.table.exps, plus[beyond]])
    rows = lam.positions(shape.product_codes(row_pool, B.exps))
    full = (rows >= 0).all(axis=1)
    # moment of every target times every fully known row; an unknown
    # product gets a placeholder id shared by all pairs with that product
    codes = shape.product_codes(targets, row_pool[full])
    products = lam.positions(codes)
    unknown = products < 0
    # ids count the unknown products in order of first appearance,
    # target-major, so that they do not depend on the code layout
    _, first, inverse = np.unique(
        codes[unknown], return_index=True, return_inverse=True
    )
    place = np.empty_like(first)
    place[np.argsort(first)] = np.arange(len(first))
    prod_place = np.full(codes.shape, -1)
    prod_place[unknown] = place[inverse]
    # x_v * b_s lies in B+ = B u B.border: shift[v, s] is its slot in
    # the reduction table, found by code
    slot_codes = np.concatenate([B.codes, shape.codes(targets)])
    order = np.argsort(slot_codes)
    variables = np.eye(B.exps.shape[1], dtype=np.int64)
    shift = order[np.searchsorted(
        slot_codes[order], shape.product_codes(variables, B.exps)
    )]
    cols = lam.positions(shape.product_codes(Bp.exps, targets))
    direct = np.flatnonzero((cols >= 0).all(axis=0))
    # the moments of B'+ x B+ that a completion adds, and their reduction
    codes = shape.product_codes(Bp.plus, B.plus).ravel()
    add = first_unknown(lam, codes)
    n_cols = len(B.plus)
    exps = Bp.plus[add // n_cols] + B.plus[add % n_cols]
    plan = _Plan(
        targets=targets,
        leads=tuple(shape.monomials(targets)),
        base=base,
        rows=rows[full],
        products=products,
        prod_place=prod_place,
        shift=shift,
        syzygy_pairs=_syzygy_pairs(targets),
        direct=direct,
        direct_cols=cols[:, direct],
        moments_B=lam.positions(B.codes),
        unknown_codes=codes[add],
        walk=_reduction_walk(shape, exps, codes[add]),
    )
    ones, levels = plan.walk
    for a in (
        base, plan.rows, products, prod_place, shift,
        plan.syzygy_pairs, direct, plan.direct_cols, plan.moments_B,
        plan.unknown_codes, ones, *(a for level in levels for a in level),
    ):
        a.setflags(write=False)
    return plan


# the completion plans kept, each under the format and the codes of its
# bases; the least recently used goes first.  The lock makes each lookup
# and update one step for threads that share the cache.
_PLAN_CACHE_SIZE = 64
_plans: OrderedDict = OrderedDict()
_plans_lock = threading.Lock()


def _plan(lam: MomentFunctional, B: MonomialBasis, Bp: MonomialBasis) -> _Plan:
    """The plan of completing lam over (B, B').  A functional that knows
    exactly the moments of the format's table (every functional of a
    tensor) shares one cached plan per basis pair; any other gets its own.
    The key needs no border: B's codes fix its border and the border's
    canonical order, which sets the order of the targets."""
    shape = lam.shape
    if not np.array_equal(lam.codes, shape.table.sorted_codes):
        return _build_plan(lam, B, Bp)
    key = (shape, tuple(B.codes.tolist()), tuple(Bp.codes.tolist()))
    with _plans_lock:
        plan = _plans.get(key)
        if plan is None:
            plan = _plans[key] = _build_plan(lam, B, Bp)
            if len(_plans) > _PLAN_CACHE_SIZE:
                _plans.popitem(last=False)
        else:
            _plans.move_to_end(key)
    return plan


class _Propagator:
    def __init__(self, lam, B, Bp, tol):
        self.plan = plan = _plan(lam, B, Bp)
        self.tol = tol
        self.r = r = len(B)
        values = self.values = lam.values
        self.dtype = values.dtype
        self.H = values[plan.base]
        # the normal forms over B that shifted products reduce to, by slot:
        # slot s < r holds the unit vector of b_s and slot r + t the tail of
        # the t-th target, a row of zeros until ``known`` marks it resolved
        self.table = np.zeros((r + len(plan.targets), r), dtype=self.dtype)
        self.table[:r] = np.eye(r)
        self.known = np.arange(len(self.table)) < r
        self.rows = values[plan.rows]
        self.prod_data = lam.values_at(plan.products)
        self.inconsistency = 0.0
        # the last fixpoint pass: its free relation coefficients, the number
        # of independent blocks of its system and the columns of the
        # largest, how it was solved ("certified" or "qr_svd", None when no
        # pass solved a system) and its certified bound on sigma_min
        self.last_pass = dict(
            nullity=0, components=0, largest_component=0, solve=None,
            sigma_min_bound=None,
        )
        # when the last pass leaves every unresolved target free: those
        # targets, the pass's solution and its null-space blocks
        # (_least_squares), from which a Family is built
        self.free = None

    # --- reductions -----------------------------------------------------

    def tables(self) -> np.ndarray:
        """The tables M_v with columns the normal forms of x_v * b, once
        every target is resolved: one C-contiguous (n_vars, r, r) array in
        canonical variable order."""
        return np.ascontiguousarray(self.table[self.plan.shift].transpose(0, 2, 1))

    # --- equation harvesting ---------------------------------------------

    def _moment_equations(self):
        """Pair every target with every fully known row, placeholders
        projected out.

        A known product moment gives a data row for an unresolved target and
        a consistency check for a resolved one.  An unknown product moment is
        a placeholder shared by every pair with that product; this is where
        the quasi-Hankel coupling between different relations enters.  Each
        such row holds its placeholder once, with coefficient -1 (unresolved
        target) or +1 (resolved target), so flipping rows to +1 and
        subtracting the mean of each placeholder's group of rows is the
        orthogonal projection that removes the placeholders.  It keeps the
        least-squares residual and the row space over the coefficients.

        Returns the right-hand sides of the projected rows; ``write(out,
        touched)``, which writes the rows over the coefficients of the
        unresolved targets into the zero array ``out`` (one row each, block k
        for the k-th in target order, r columns each) and marks in
        ``touched`` which blocks each row touches; and the row count,
        squared right-hand-side norm and placeholder count of the system
        before projection.
        """
        r, dtype, prod_place = self.r, self.dtype, self.plan.prod_place
        solved = self.known[r:]
        res_t, unr_t = np.flatnonzero(solved), np.flatnonzero(~solved)
        n_unres = len(unr_t)
        tails = self.table[r + res_t]
        pred = tails @ self.rows.T
        measured = prod_place[res_t] < 0
        if measured.any():
            data = self.prod_data[res_t][measured]
            gap = np.abs(data - pred[measured]) / np.maximum(1.0, np.abs(data))
            self.inconsistency = max(self.inconsistency, float(gap.max()))

        k_d, q_d = np.nonzero(prod_place[unr_t] < 0)
        n_d = len(k_d)
        b_data = self.prod_data[unr_t[k_d], q_d]

        place_u = prod_place[unr_t]
        place_r = prod_place[res_t]
        k_u, q_u = np.nonzero(place_u >= 0)
        t_r, q_r = np.nonzero(place_r >= 0)
        n_u = len(k_u)
        b_place = np.concatenate(
            [np.zeros(n_u, dtype=dtype), pred[t_r, q_r]]
        )
        # the placeholders met, numbered in increasing order of their ids
        places = np.concatenate([place_u[k_u, q_u], place_r[t_r, q_r]])
        count = np.bincount(places)
        met = count > 0
        group = (np.cumsum(met) - 1)[places]
        count = count[met]
        x_sum = np.zeros((len(count), n_unres, r), dtype=dtype)
        np.add.at(x_sum, (group[:n_u], k_u), -self.rows[q_u])
        b_sum = np.zeros(len(count), dtype=dtype)
        np.add.at(b_sum, group, b_place)
        mean = x_sum / count[:, None, None]
        b_proj = b_place - b_sum[group] / count[group]
        # a placeholder met once is free: its row projects to zero
        shared = count[group] > 1
        # the unresolved targets' own rows come first among the shared ones
        own = shared[:n_u]
        own_row = np.arange(np.count_nonzero(own))

        def write(out, touched):
            out[np.arange(n_d), k_d] = self.rows[q_d]
            place = out[n_d:]
            place[:] = -mean[group[shared]]
            place[own_row, k_u[own]] -= self.rows[q_u[own]]
            np.any(out, axis=2, out=touched)

        b = np.concatenate([b_data, b_proj[shared]])
        n_raw = n_d + len(group)
        b_raw_sq = float(np.sum(np.abs(b_data) ** 2) + np.sum(np.abs(b_place) ** 2))
        return b, write, n_raw, b_raw_sq, len(count)

    def _sides(self, t, v):
        """The products x_v * N(m_t) (N(m_t) when v < 0), one per entry of
        t and v, kept affine in the unresolved relation coefficients.

        Returns the constant parts, whether each product is linear (false
        when the target is unresolved and some x_v * b is not known), and
        the linear terms as (entry, slot, coefficient matrix) arrays: the
        identity for an unresolved N(m_t), the shift matrix V with columns
        the normal forms of x_v * b for an unresolved x_v * N(m_t), and
        tail[s] times the identity for each unknown x_v * b_s met by a
        resolved tail.
        """
        r, dtype, table = self.r, self.dtype, self.table
        own = r + t
        # an unresolved target's tail is a row of zeros, which adds nothing
        tails = table[own]
        solved = self.known[own]
        moved = v >= 0
        slots = self.plan.shift[np.maximum(v, 0)]
        slot_known = self.known[slots]
        # x_v * b_s over the known slots, summed in order of s
        coef = np.where(slot_known & moved[:, None], tails, 0)
        const = (coef[:, :, None] * table[slots]).sum(axis=1)
        const[~moved] = tails[~moved]
        ok = solved | ~moved | slot_known.all(axis=1)

        fixed = np.flatnonzero(~moved & ~solved)
        shifted = np.flatnonzero(moved & ~solved & ok)
        p_c, s_c = np.nonzero(~slot_known & moved[:, None] & (tails != 0))
        eye = np.eye(r, dtype=dtype)
        entry = np.concatenate([fixed, shifted, p_c])
        where = np.concatenate([own[fixed], own[shifted], slots[p_c, s_c]])
        mats = np.concatenate([
            np.broadcast_to(eye, (len(fixed), r, r)),
            table[slots[shifted]].transpose(0, 2, 1),
            tails[p_c, s_c, None, None] * eye,
        ])
        return const, ok, (entry, where, mats)

    def _syzygy_equations(self):
        """Rows equating the two reductions of each pair's lcm, over the
        coefficient blocks of the unresolved targets (block k for the k-th
        in target order).  A pair whose sides are both constant is a
        consistency check, and so is a row that comes out all zero.

        A pair with a linear side gives r rows, one per coordinate over B,
        and meets each block through at most one matrix per side: its r x r
        block is side 1's matrix less side 2's, summed in that order into
        zeros, which gives the same rows to the bit as a dense scatter of
        each side.  Returns the right-hand sides of the rows that are not
        all zero, in pair order, and ``write(out, touched)``, which writes
        those rows into the zero array ``out`` (one row each, r columns per
        block) and marks in the zero array ``touched`` which blocks each row
        touches.
        """
        r, dtype = self.r, self.dtype
        unresolved = np.flatnonzero(~self.known[r:])
        n_unres = len(unresolved)
        n_pairs = len(self.plan.syzygy_pairs)
        t1, t2, v1, v2 = self.plan.syzygy_pairs.T
        # both sides in one batch: side 1 of pair p is entry p, side 2 is
        # entry n_pairs + p
        const, ok, (entry, where, mats) = self._sides(
            np.concatenate([t1, t2]), np.concatenate([v1, v2])
        )
        c1, c2 = const[:n_pairs], const[n_pairs:]
        ok = ok[:n_pairs] & ok[n_pairs:]
        second = entry >= n_pairs
        pair = entry - n_pairs * second
        linear = np.zeros(n_pairs, dtype=bool)
        linear[pair] = True
        check = ok & ~linear
        if check.any():
            d1, d2 = c1[check], c2[check]
            scale = np.maximum(np.linalg.norm(d1, axis=1), np.linalg.norm(d2, axis=1))
            gap = np.linalg.norm(d1 - d2, axis=1) / np.maximum(1.0, scale)
            self.inconsistency = max(self.inconsistency, float(gap.max()))
        rows = ok & linear
        row_of = np.cumsum(rows) - 1
        n_rows = int(row_of[-1]) + 1 if n_pairs else 0
        block_of = np.full(len(self.table), -1)
        block_of[r + unresolved] = np.arange(n_unres)
        use = rows[pair]
        # one r x r block per (row, block) met, in row-major order
        key = row_of[pair] * n_unres + block_of[where]
        met = np.zeros(n_rows * n_unres, dtype=np.int64)
        met[key[use]] = 1
        slot = np.cumsum(met) - 1
        cells = np.flatnonzero(met)
        blocks = np.zeros((len(cells), r, r), dtype=dtype)
        first, later = use & ~second, use & second
        blocks[slot[key[first]]] += mats[first]
        blocks[slot[key[later]]] -= mats[later]
        # the nonzero rows of the blocks: row i of a block in row p of pairs
        # is row p * r + i before the all-zero rows are dropped
        k, i = np.nonzero(blocks.any(axis=2))
        row, block = np.divmod(cells[k], n_unres)
        flat = row * r + i
        used = np.zeros(n_rows * r, dtype=bool)
        used[flat] = True
        b = (c2[rows] - c1[rows]).ravel()
        if not used.all():
            self.inconsistency = max(self.inconsistency, float(np.abs(b[~used]).max()))
        at = (np.cumsum(used) - 1)[flat]

        def write(out, touched):
            out[at, block] = blocks[k, i]
            touched[at, block] = True

        return b[used], write

    # --- main loop --------------------------------------------------------

    def resolve_direct(self):
        direct = self.plan.direct
        if not len(direct):
            return
        cols = self.values[self.plan.direct_cols]
        # one stacked solve runs the same LU solve per column as solve(H, c)
        tails = np.linalg.solve(self.H[None], cols.T[:, :, None])
        self.table[self.r + direct] = tails[:, :, 0]
        self.known[self.r + direct] = True

    def run(self):
        self.resolve_direct()
        r = self.r
        # the fully known row of 1 (B' lists 1 first) meets every unresolved
        # target, so each pass has equations and checks what it harvested
        for _ in range(len(self.plan.targets) + 1):
            unresolved = np.flatnonzero(~self.known[r:])
            if not len(unresolved):
                break
            b_m, write_m, n_raw, b_raw_sq, n_places = self._moment_equations()
            b_s, write_s = self._syzygy_equations()
            n_raw += len(b_s)
            # the moment rows and then the syzygy rows, each written once
            n_m = len(b_m)
            b = np.concatenate([b_m, b_s])
            X = np.zeros((len(b), len(unresolved), r), dtype=self.dtype)
            nz = np.zeros((len(b), len(unresolved)), dtype=bool)
            write_m(X[:n_m], nz[:n_m])
            write_s(X[n_m:], nz[n_m:])
            X = X.reshape(len(b), -1)
            size = max(n_raw, X.shape[1] + n_places)
            x, resid, freedom, rank, sizes, bound, null = _least_squares(
                X, b, size, r, nz
            )
            self.last_pass = dict(
                nullity=X.shape[1] - rank, components=len(sizes),
                largest_component=int(sizes.max()),
                solve="qr_svd" if bound is None else "certified",
                sigma_min_bound=bound,
            )
            b_norm = np.sqrt(b_raw_sq + np.sum(np.abs(b_s) ** 2))
            self.inconsistency = max(
                self.inconsistency, float(resid / max(1.0, b_norm))
            )
            if self.inconsistency > self.tol:
                return "inconsistent"
            # a NaN freedom compares false: its block counts as determined
            free = freedom.reshape(-1, r).max(axis=1) > _NULLSPACE_TOL
            if free.all():
                self.free = unresolved, x, null
                break
            # the null-space blocks are views of whole Vt factors: let them
            # go before the next pass assembles its system
            del null
            self.table[r + unresolved[~free]] = x.reshape(-1, r)[~free]
            self.known[r + unresolved[~free]] = True
        if not self.known.all():
            return "rank_deficient"
        return "extended"


def _reduction_walk(shape: Shape, exps: np.ndarray, codes: np.ndarray):
    """The walk that reduces the monomials with exponent rows ``exps`` and
    codes ``codes`` to normal forms over B: the mask of the rows of degree 0
    and, per degree from 1 up, the rows of that degree, the position of each
    among the degree's monomials, and per monomial its last variable and the
    position of its parent one degree down.  NF(1) = e_1 (B lists 1 first)
    and NF(m) = M_v NF(m / x_v) for the last variable v of m; a degree's
    monomials are the given ones and the parents of those one degree up,
    once per code.  The walk depends on the monomials alone, so a completion
    plan keeps it and only the products run per call (``_walk_forms``)."""
    n_vars = exps.shape[1]
    degree = exps.sum(axis=1)
    # top down: per degree, its monomials by code (sorted), the positions
    # of the given rows among them, their last variables and parents' codes
    levels = []
    up_exps, up_codes = exps[:0], codes[:0]
    for d in range(int(degree.max(initial=0)), 0, -1):
        mine = np.flatnonzero(degree == d)
        level, first, place = np.unique(
            np.concatenate([codes[mine], up_codes]),
            return_index=True, return_inverse=True,
        )
        level_exps = np.concatenate([exps[mine], up_exps])[first]
        last = n_vars - 1 - (level_exps[:, ::-1] > 0).argmax(axis=1)
        up_exps = level_exps.copy()
        up_exps[np.arange(len(last)), last] -= 1
        up_codes = level - shape.variable_codes[last]
        levels.append((mine, place[:len(mine)], last, level, up_codes))
    # bottom up from 1, the one monomial of degree 0
    below = np.zeros(1, dtype=codes.dtype)
    walk = []
    for mine, place, last, level, up in reversed(levels):
        walk.append((mine, place, last, np.searchsorted(below, up)))
        below = level
    return degree == 0, tuple(walk)


def _walk_forms(walk, tables: np.ndarray) -> np.ndarray:
    """The normal forms along a ``_reduction_walk``, one row per monomial,
    given the tables of the variables stacked in canonical order: one
    stacked product per degree, the same matrix-vector product per monomial
    as ``M_v @ NF(m / x_v)``."""
    ones, levels = walk
    r, dtype = tables.shape[1], tables.dtype
    out = np.zeros((len(ones), r), dtype=dtype)
    out[ones, 0] = 1.0
    nf = np.zeros((1, r), dtype=dtype)
    nf[0, 0] = 1.0
    for mine, place, last, parent in levels:
        nf = (tables[last] @ nf[parent][:, :, None])[:, :, 0]
        out[mine] = nf[place]
    return out


def propagate_commutation(
    lam: MomentFunctional,
    B: MonomialBasis,
    Bp: MonomialBasis,
    tol: float = DEFAULT_TOL_EXTEND,
) -> ExtensionResult:
    """Determine the unknown border relations and extend the moments.

    Returns Extended with the completed functional on products of the
    enlarged bases, Inconsistent when the equations contradict the data or
    the tables of an extension do not commute, or RankDeficient when the
    linearly reachable part leaves relations free, with the ``family`` of
    solutions that the parametric step searches.  The diagnostics are
    reported whatever the status, the functional and the commuting tables
    only for an extension, and the commutator residual once every relation
    is resolved.  ``tol``, floored at 1e-8, bounds the inconsistency and the
    commutator residual.  The block lam(b' * b) is taken as invertible; a
    ValueError refuses one with unknown entries.
    """
    prop = _Propagator(lam, B, Bp, max(tol, 1e-8))
    status = prop.run()
    result = _result(lam, Bp, prop, status, _diagnostics(prop))
    log.debug(
        "propagation: status=%s commute=%s unresolved=%d",
        result.status, result.commutator_residual,
        result.diagnostics["unresolved"],
    )
    if result.status == "rank_deficient":
        result.family = Family(lam, Bp, prop)
    return result


def _diagnostics(prop) -> dict:
    """A completion's diagnostics: its largest inconsistency, its last
    pass (see _Propagator.last_pass) and the count of unresolved
    targets."""
    return {
        "inconsistency": prop.inconsistency,
        **prop.last_pass,
        "unresolved": int(np.count_nonzero(~prop.known)),
    }


def _result(lam, Bp, prop, status, diagnostics) -> ExtensionResult:
    """The ExtensionResult of a completion that ended in ``status``: when
    every relation is resolved, the commutator check of its tables, and
    for commuting ones the completed functional."""
    completed = tables = commute = None
    if status == "extended":
        tables = prop.tables()
        commute = commutator_residual(tables)
        if not commute <= prop.tol:  # a NaN residual refuses
            status, tables = "inconsistent", None
        else:
            completed = _complete(lam, Bp, prop, tables)
    return ExtensionResult(
        status=status,
        functional=completed,
        tables=tables,
        commutator_residual=commute,
        diagnostics=diagnostics,
    )


# the parametric step: the most evaluations of the commutators, the largest
# k * pairs * r^2 (free coefficients times variable pairs times table
# entries, the size of the Jacobian) it takes on, and the commutator
# residual at which a member counts as commuting
MAX_EVALUATIONS = 30
MAX_FAMILY_WORK = 200_000
COMMUTE_TOL = 1e-12


class Family:
    """The solutions that a rank-deficient completion leaves: the tails
    that its last fixpoint pass left free are x0 + N t, x0 the pass's
    truncated solution and N the trailing right singular vectors of each
    factored part (and unit vectors for columns that no row touched), over
    ``dimension`` (k, the pass's nullity) parameters t.  Every table
    M_v(t) is affine in t, so the commutators [M_u(t), M_v(t)] are
    quadratic, and each member whose tables commute is a flat extension of
    the data (Bernardi, Brachat, Comon and Mourrain, J. Symb. Comput. 52,
    2013).  ``propagate_commutation`` builds it; ``commuting_member``
    searches it."""

    def __init__(self, lam: MomentFunctional, Bp: MonomialBasis, prop: _Propagator):
        self.lam, self.Bp, self.prop = lam, Bp, prop
        self.dimension = prop.last_pass["nullity"]

    def commuting_member(self, search: bool = True) -> ExtensionResult:
        """The parametric step: a member of the family whose multiplication
        tables commute, completed as an extension.

        One damped Gauss-Newton (Levenberg-Marquardt) solve runs from
        t = 0: mu starts at 1e-3 times the largest diagonal entry of J^H J,
        is divided by 3 after a step that lowers ||F|| and doubled
        otherwise, and the solve stops once the commutator residual is at
        most COMMUTE_TOL or after MAX_EVALUATIONS evaluations of the
        commutators (t = 0 included).  The tables of a trial t are M(0)
        plus their derivatives along t, and J^H J and J^H F are formed once
        per accepted step (_normal_equations).  t has the dtype of the
        data: for complex data F is holomorphic in t, and the complex step
        is the real one over the real and imaginary parts.  Only t = 0 is
        evaluated, before anything of size k is formed, when ``search`` is
        false or k * pairs * r^2 exceeds MAX_FAMILY_WORK.

        A commuting member's tails are written into a copy of the
        reduction table, and the usual commutator check and completion
        follow (the result's ``tables`` are the member's).  Any other
        outcome keeps the status "rank_deficient".  The diagnostics are the
        completion's plus the family dimension, the evaluations made, and
        the commutator residual at t = 0 and at the last accepted t.  The
        family is left as it was: a second call gives the same bits.
        """
        prop, k = self.prop, self.dimension
        unresolved, x0, null = prop.free
        r, shift = prop.r, prop.plan.shift
        i, j = np.triu_indices(len(shift), 1)
        slots = r + unresolved
        table = prop.table.copy()
        table[slots] = x0.reshape(-1, r)
        M = table[shift].transpose(0, 2, 1)
        F = _brackets(M, i, j)
        start = end = _residual(M, F, i, j)
        tails, evaluations = x0, 1
        if search and start > COMMUTE_TOL and k * len(i) * r * r <= MAX_FAMILY_WORK:
            N = _null_basis(null, len(x0), k, x0.dtype)
            # D[v, s, e, l]: entry e of column s of dM_v / dt_l, every
            # table affine in t
            D = np.zeros((len(table), r, k), dtype=x0.dtype)
            D[slots] = N.reshape(-1, r, k)
            D = D[shift]
            along = D.transpose(3, 0, 2, 1).reshape(k, -1)
            # A[v, a, l, b]: entry (a, b) of dM_v / dt_l, read as an (r k) x r
            # column of blocks and as an r x (k r) row of blocks, for the
            # first and the second table of each pair
            A = np.ascontiguousarray(D.transpose(0, 2, 3, 1))
            column, row = A.reshape(len(A), r * k, r), A.reshape(len(A), r, k * r)
            sides = column[i], row[i], column[j], row[j]
            M0 = M
            G, g = _normal_equations(sides, i, j, M, F)
            mu = 1e-3 * float(np.diagonal(G).real.max(initial=0.0))
            cost = np.vdot(F, F).real
            t, eye = np.zeros(k, dtype=x0.dtype), np.eye(k)
            while mu > 0.0 and evaluations < MAX_EVALUATIONS:
                trial = t + np.linalg.solve(G + mu * eye, -g)
                M_trial = M0 + (trial @ along).reshape(M0.shape)
                F_trial = _brackets(M_trial, i, j)
                evaluations += 1
                trial_cost = np.vdot(F_trial, F_trial).real
                if not trial_cost < cost:  # a NaN is no descent either
                    mu *= 2.0
                    continue
                t, M, F, cost = trial, M_trial, F_trial, trial_cost
                end = _residual(M, F, i, j)
                mu /= 3.0
                if end <= COMMUTE_TOL or evaluations == MAX_EVALUATIONS:
                    break
                G, g = _normal_equations(sides, i, j, M, F)
            tails = x0 + N @ t
        diagnostics = {
            **_diagnostics(prop),
            "family_dimension": int(k),
            "evaluations": evaluations,
            "commutator_start": start,
            "commutator_end": end,
        }
        log.debug(
            "commuting member: family %d, %d evaluations, commutator %.2e -> %.2e",
            k, evaluations, start, end,
        )
        if not end <= COMMUTE_TOL:
            return ExtensionResult("rank_deficient", None, None, None, diagnostics)
        table[slots] = tails.reshape(-1, r)
        member = copy.copy(prop)
        member.table, member.known = table, np.ones_like(prop.known)
        return _result(self.lam, self.Bp, member, "extended", diagnostics)


def _null_basis(null, n: int, k: int, dtype) -> np.ndarray:
    """The n x k null-space basis of a pass from _least_squares's blocks:
    each part's trailing right singular vectors over its columns, then a
    unit vector per column of no part."""
    N = np.zeros((n, k), dtype=dtype)
    covered = np.zeros(n, dtype=bool)
    at = 0
    for cols, Vt in null:
        N[cols, at:at + len(Vt)] = Vt.conj().T
        covered[cols] = True
        at += len(Vt)
    free = np.flatnonzero(~covered)
    N[free, at + np.arange(len(free))] = 1.0
    return N


def _normal_equations(
    sides, i: np.ndarray, j: np.ndarray, M: np.ndarray, F: np.ndarray
):
    """J^H J and J^H F of the brackets F = [M_u, M_v] over the pairs
    (u, v) = (i, j) as functions of the parameters t, from the constant
    derivatives A_v^l = dM_v / dt_l: the derivative of [M_u, M_v] along t_l
    is [A_u^l, M_v] + [M_u, A_v^l].  ``sides`` holds A_u and A_v of each
    pair as an (r k) x r column and an r x (k r) row of blocks, so each of
    the four products is one matrix product per pair over all k
    parameters, and every product lands in the same (a, l, b) layout.  J
    is formed for all pairs at once: the work cap bounds it to
    MAX_FAMILY_WORK entries."""
    column_u, row_u, column_v, row_v = sides
    r, k = row_u.shape[1], row_u.shape[2] // row_u.shape[1]
    shape = (len(i), r, k, r)
    M_u, M_v = M[i], M[j]
    J = (column_u @ M_v).reshape(shape)
    J -= (M_v @ row_u).reshape(shape)
    J += (M_u @ row_v).reshape(shape)
    J -= (column_v @ M_u).reshape(shape)
    J = J.transpose(2, 0, 1, 3).reshape(k, -1)
    return J.conj() @ J.T, J.conj() @ F.ravel()


def _complete(lam, Bp, prop, tables) -> MomentFunctional:
    """lam extended to every product of B'+ x B+ and of B' x border, from
    the commuting tables of every variable and the resolved tails."""
    shape, r, plan = lam.shape, prop.r, prop.plan
    lam_B = lam.values_at(plan.moments_B)
    nf = _walk_forms(plan.walk, tables)
    values = (lam_B[None, None, :] @ nf[:, :, None])[:, 0, 0]
    completed = lam.extended(plan.unknown_codes, values)
    # B' x border lies in B'+ x B+, whose moments are all known by now, so
    # these products add none; they are the only Monomial.__mul__ calls of
    # a decomposition, which perfbench's tracer test expects to count
    # (ROADMAP item 2 moves that probe)
    Bp_monomials = shape.monomials(Bp.exps)
    products = [q * lead for lead in plan.leads for q in Bp_monomials]
    codes = shape.codes(shape.exponents(products))
    unknown = first_unknown(completed, codes)
    k, i = np.divmod(unknown, len(Bp))
    values = (prop.H[i][:, None, :] @ prop.table[r + k][:, :, None])[:, 0, 0]
    return completed.extended(codes[unknown], values)


def flat_extension_check(
    lam: MomentFunctional,
    B: MonomialBasis,
    Bp: MonomialBasis,
    tol: float = DEFAULT_TOL_RANK,
) -> bool:
    """Rank of the once-prolonged matrix lam(B'+ x B+) equals |B|, the base
    block being invertible.  All required moments must be resolved."""
    Hn, known = hankel(lam, Bp.plus, B.plus)
    if not known.all():
        raise ValueError("prolonged block has unknown entries")
    return numerical_rank(Hn, tol) == len(B)
