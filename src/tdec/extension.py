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
diagonal blocks of at most 64, with a rounding bound that keeps the lower
bound a proof, or, where that bound is too loose, the computed residual of
the inverse.

The monomial bookkeeping is index arithmetic on exponent rows and their
codes, done once per propagator: the targets (the border of B) are an
exponent matrix and their tails a list indexed by target; the moments of
every target times every known row are one lookup of a block of code sums;
the shift table places each product ``x_v * b`` in a slot of the reduction
table, which stacks the unit vectors of B and the tails of the targets with
a known mask; and the syzygy pairs are screened all at once on the targets'
exponent matrix.  Each pass builds the syzygy rows of all pairs at once
through the shift table: the constant side of every pair, and its
coefficient blocks (a scalar times the identity for a resolved tail meeting
an unresolved target, the shift matrix of an unresolved target), the two
sides of a pair summed into one r x r block per unresolved target it
meets.  The pass's system is written once: the moment rows and the nonzero
rows of those blocks go straight into one zero array, and the blocks they
touch are the incidence that splits the system into components.  The
multiplication tables read the same reduction table.  The completed
moments are added by code, in two batches.  ``Monomial`` objects appear
only where results leave (the leads of the returned relations, the names in
the diagnostics) and in the products of B' with those leads; the normal
forms are reduced on exponent rows and codes.

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
moments are the same to the bit.  A completion that leaves relations
free, or whose equations or tables contradict the data, is no flat
extension and completes no moment.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .algebra import Monomial, MomentFunctional, Shape, canonical_order, first_unknown
from .moment import MonomialBasis, hankel, numerical_rank

log = logging.getLogger("tdec")

DEFAULT_TOL_EXTEND = 1e-6
_NULLSPACE_TOL = 1e-7


@dataclass
class BorderRelation:
    """lead = sum(tail[j] * B[j]) in the quotient algebra."""

    lead: Monomial
    tail: np.ndarray

    def __str__(self):
        return f"{self.lead} == {self.tail}"


@dataclass
class ExtensionResult:
    """The outcome of a moment completion.  ``functional`` (the data
    extended to B'+ x B+) is set only when ``status`` is "extended", and
    ``commutator_residual`` only once every table is known; ``relations``
    (the resolved border relations) and ``diagnostics`` always are."""

    status: str  # "extended" | "rank_deficient" | "inconsistent"
    functional: MomentFunctional | None
    relations: list[BorderRelation]
    commutator_residual: float | None
    diagnostics: dict = field(default_factory=dict)

    @property
    def extended(self) -> bool:
        return self.status == "extended"


def commutator_residual(mats: list[np.ndarray]) -> float:
    """Max over pairs of ||M_i M_j - M_j M_i||_F, scale normalized."""
    worst = 0.0
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            a, b = mats[i], mats[j]
            num = np.linalg.norm(a @ b - b @ a)
            den = max(1.0, np.linalg.norm(a) * np.linalg.norm(b))
            worst = max(worst, num / den)
    return worst


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


# the rounding of forming X^H X and of factoring and inverting it, in units
# of (m + n) * eps * ||X||_F^2 and of n * eps * cond_F(L); the first-order
# bounds (Higham, Accuracy and Stability of Numerical Algorithms, sec. 3.5
# and ch. 10) have constants near 1/2 and 1
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

    Returns the computed inverse Y, a bound e on ||Y - L^-1||_F, and
    ||Y||_F^2.  A leaf's e is _GRAM_ROUNDING * k * eps * ||L||_F * ||Y||_F^2
    (k rows, the LU bound that _certified assumed before blocking).  A
    product's rounding is at most gamma_k |A| |B| for inner size k (Higham
    sec. 3.5, eq. 3.13), taken as k * eps, and to first order
    Y21 - X21 = -E22 L21 Y11 - X22 L21 E11 plus that rounding, where E11 and
    E22 are the errors of the diagonal blocks and ||X22||_F <= ||Y22||_F +
    e22; so e21 = ||L21||_F (e22 ||Y11|| + (||Y22|| + e22) e11 + n eps
    ||Y22|| ||Y11||) in Frobenius norms, and e the root of e11^2 + e22^2 +
    e21^2.  The bound compounds with the depth of the recursion; it is far
    above the error actually made, and only needs to stay small next to
    ||Y||_F.  Where it does not, _certified bounds ||L^-1|| from the
    residual Y L - I instead.
    """
    n = len(L)
    eps = np.finfo(float).eps
    if n <= _LEAF:
        Y = np.linalg.inv(L)
        sq = float(np.sum(np.abs(Y) ** 2))
        return Y, _GRAM_ROUNDING * n * eps * float(np.linalg.norm(L)) * sq, sq
    h = n // 2
    Y11, e11, sq11 = _inverse_lower(L[:h, :h])
    Y22, e22, sq22 = _inverse_lower(L[h:, h:])
    L21 = L[h:, :h]
    Y = np.zeros_like(L)
    Y[:h, :h] = Y11
    Y[h:, h:] = Y22
    Y21 = Y[h:, :h]
    np.matmul(Y22, L21 @ Y11, out=Y21)
    np.negative(Y21, out=Y21)
    y11, y22 = np.sqrt(sq11), np.sqrt(sq22)
    e21 = float(np.linalg.norm(L21)) * (
        e22 * y11 + (y22 + e22) * e11 + n * eps * y22 * y11
    )
    sq = sq11 + sq22 + float(np.sum(np.abs(Y21) ** 2))
    return Y, float(np.sqrt(e11**2 + e22**2 + e21**2)), sq


def _certified(X: np.ndarray, b: np.ndarray, cutoff_scale: float):
    """Least squares of a tall X through the Cholesky factor L of X^H X,
    when a lower bound on sigma_min(X) proves full rank; else None.

    L L^H equals X^H X up to E with ||E||_2 <= _GRAM_ROUNDING * (m + n) *
    eps * ||X||_F^2, so sigma_min(X)^2 >= 1 / ||L^-1||_F^2 - that margin.
    ||L^-1||_F is at most ||Y||_F + e for the computed inverse Y and its
    error bound e from _inverse_lower; a bound e not below ||Y||_F / 2 says
    too little for a first-order argument.  That bound compounds with the
    depth of the recursion (on a 448-column factor of condition 2.6e4 it
    exceeds ||Y||_F), so when it does not certify an L of more than _LEAF
    rows, the residual R = Y L - I decides: L^-1 = (I + R)^-1 Y, so
    ||L^-1||_F <= ||Y||_F / (1 - rho) for any rho >= ||R||_2 below 1.  rho
    is the norm of the computed residual plus the rounding of the product,
    at most gamma_n |Y| |L| (Higham sec. 3.5, eq. 3.13), taken as
    _GRAM_ROUNDING * n * eps * ||Y||_F * ||L||_F, which leaves room for the
    subtraction and the norms; rho not below 1/3 refuses.  This costs one
    matrix product, a quarter of the LU-based np.linalg.inv, and does not
    compound.  The solve is
    certified when the bound on sigma_min(X)^2 exceeds the square of the QR
    path's cutoff ``cutoff_scale * sigma_max``, with ||X||_F >= sigma_max in
    its place: the truncated SVD would keep every singular value, so the
    rank is n and every unknown is determined.  The solution takes one step
    of refinement against the true residual b - X x (the corrected
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
    L_inv, err, inv_sq = _inverse_lower(L)
    slack = 1.0 + err / np.sqrt(inv_sq)
    bound = 1.0 / (inv_sq * slack**2) - margin
    if (slack >= 1.5 or bound <= floor) and n > _LEAF:
        R = L_inv @ L
        R[np.diag_indices(n)] -= 1.0
        rho = float(np.linalg.norm(R)) + _GRAM_ROUNDING * n * eps * float(
            np.linalg.norm(L)
        ) * np.sqrt(inv_sq)
        slack = 1.0 / (1.0 - rho) if rho < 1.0 / 3.0 else np.inf
        bound = 1.0 / (inv_sq * slack**2) - margin
    if slack >= 1.5 or bound <= floor:
        return None

    def solve(rhs):
        return L_inv.conj().T @ (L_inv @ (Xh @ rhs))

    x = solve(b)
    x += solve(b - X @ x)
    return x, float(np.linalg.norm(X @ x - b)), float(np.sqrt(bound))


def _parts(label, row_label, n_rows, n_cols, r: int):
    """The rows and columns of each component that has rows, and the
    all-zero rows; None when the system is better solved whole: it has at
    most one component of rows, or the extra calls would cost more than
    the smaller factorizations save.  Takes the block labels, the label of
    each row (-1 for an all-zero row), and the row and column counts by
    label."""
    whole_cost = _solve_cost(len(row_label), len(label) * r)
    if whole_cost <= 2 * _CALL_COST:
        return None
    linked = np.flatnonzero(n_rows)
    split_cost = (
        _solve_cost(n_rows[linked], n_cols[linked]).sum() + _CALL_COST * len(linked)
    )
    if len(linked) <= 1 or split_cost >= whole_cost:
        return None
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
    X, the column count of each component, and the certified lower bound
    on sigma_min(X) (None on the truncated-SVD path).
    """
    m, n = X.shape
    label = _components(nz)
    # a row touches one component, the one of its first nonzero block
    row_label = np.where(nz.any(axis=1), label[nz.argmax(axis=1)], -1)
    n_rows = np.bincount(row_label[row_label >= 0], minlength=len(label))
    n_cols = np.bincount(label, minlength=len(label)) * r
    sizes = n_cols[n_cols > 0]
    if not m:
        return np.zeros(n, dtype=X.dtype), 0.0, np.ones(n), 0, sizes, None
    eps = size * np.finfo(float).eps * 100
    # full column rank needs as many rows as columns in every component,
    # including a block that no row touches
    if (n_rows >= n_cols).all():
        certified = _certified(X, b, eps)
        if certified is not None:
            x, resid, bound = certified
            return x, resid, np.zeros(n), n, sizes, bound
    split = _parts(label, row_label, n_rows, n_cols, r)
    if split is None:
        factors = _factor(X, b)
        s = factors[3]
        x, gap, freedom, rank = _truncated(*factors, eps * (s[0] if s.size else 0.0))
        return x, float(np.linalg.norm(gap)), freedom, rank, sizes, None
    parts, zero_rows = split
    factors = [_factor(X[rows][:, cols], b[rows]) for rows, cols in parts]
    cutoff = eps * max(s[0] for _, _, _, s, _ in factors)
    x = np.zeros(n, dtype=np.result_type(X, b))
    freedom = np.ones(n)
    gaps = [b[zero_rows]]
    rank = 0
    for (_, cols), part in zip(parts, factors):
        x[cols], gap, freedom[cols], k = _truncated(*part, cutoff)
        gaps.append(gap)
        rank += k
    return (
        x, float(np.linalg.norm(np.concatenate(gaps))), freedom, rank, sizes, None
    )


class _Propagator:
    def __init__(self, lam, B, Bp, tol, rng=None):
        self.lam = lam
        self.B = B
        self.Bp = Bp
        self.tol = tol
        self.rng = rng
        self.shape: Shape = lam.shape
        self.r = len(B)
        self.dtype = lam.values.dtype
        H, known = hankel(lam, Bp.exps, B.exps)
        if not known.all():
            raise ValueError("base block has unknown entries")
        self.H = H.astype(self.dtype)
        shape = self.shape
        # exponent rows of the border monomials whose relations are sought
        self.targets = B.border
        if rng is not None:
            self.targets = self.targets[rng.permutation(len(self.targets))]
        # tails[t] is the resolved relation tail of the t-th target, or None
        self.tails: list[np.ndarray | None] = [None] * len(self.targets)
        # any monomial whose products with B are known yields valid
        # constraints; scan the whole known range plus the prolonged rows
        # beyond it (those over some group's degree bound)
        plus = Bp.plus
        starts = np.cumsum((0,) + shape.dims[:-1])
        beyond = (np.add.reduceat(plus, starts, axis=1) > shape.degrees).any(axis=1)
        row_pool = np.vstack([shape.table.exps, plus[beyond]])
        rows, known = hankel(lam, row_pool, B.exps)
        full = known.all(axis=1)
        self.rows = rows[full]
        # moment of every target times every fully known row; an unknown
        # product gets a placeholder id shared by all pairs with that product
        codes = shape.product_codes(self.targets, row_pool[full])
        self.prod_data, known = lam.lookup(codes)
        # ids count the unknown products in order of first appearance,
        # target-major, so that they do not depend on the code layout
        _, first, inverse = np.unique(
            codes[~known], return_index=True, return_inverse=True
        )
        rank = np.empty_like(first)
        rank[np.argsort(first)] = np.arange(len(first))
        self.prod_place = np.full(codes.shape, -1)
        self.prod_place[~known] = rank[inverse]
        # x_v * b_s lies in B+ = B u B.border: shift[v, s] is its slot in
        # the reduction table (see _table), s' < r for the basis element b_s'
        # and r + t for the t-th target
        where = {c: i for i, c in enumerate(B.codes.tolist())}
        for t, c in enumerate(shape.codes(self.targets).tolist()):
            where[c] = self.r + t
        variables = np.eye(B.exps.shape[1], dtype=np.int64)
        self.shift = np.array(
            [
                [where[c] for c in row]
                for row in shape.product_codes(variables, B.exps).tolist()
            ],
            dtype=np.int64,
        )
        self.syzygy_pairs = self._syzygy_pairs(self.targets)
        self.inconsistency = 0.0
        # free relation coefficients left by the last fixpoint pass, and
        # the number of independent blocks of its system and the columns of
        # the largest
        self.nullity = 0
        self.components = 0
        self.largest_component = 0
        # how the last pass was solved ("certified" or "qr_svd", None when
        # no pass solved a system) and its certified bound on sigma_min
        self.solve = None
        self.sigma_min_bound = None

    # --- reductions -----------------------------------------------------

    def _table(self):
        """The normal forms over B that shifted products reduce to, by slot:
        slot s < r holds the unit vector of b_s and slot r + t the tail of
        the t-th target (zeros while unresolved).  Returns the table and
        which of its slots are known."""
        r = self.r
        table = np.zeros((r + len(self.tails), r), dtype=self.dtype)
        table[:r] = np.eye(r)
        known = np.ones(len(table), dtype=bool)
        for t, tail in enumerate(self.tails):
            if tail is None:
                known[r + t] = False
            else:
                table[r + t] = tail
        return table, known

    def tables(self) -> dict[tuple[int, int], np.ndarray]:
        """Per-variable tables M_v with columns the normal forms of x_v * b,
        once every target is resolved."""
        table, _ = self._table()
        return {
            var: table[self.shift[v]].T.copy()
            for v, var in enumerate(self.shape.variables())
        }

    # --- equation harvesting ---------------------------------------------

    def _moment_equations(self, table, known):
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
        ``table`` and ``known`` are the pass's reduction table (_table),
        whose slots tell which targets are resolved and hold their tails.

        Returns the right-hand sides of the projected rows; ``write(out,
        touched)``, which writes the rows over the coefficients of the
        unresolved targets into the zero array ``out`` (one row each, block k
        for the k-th in target order, r columns each) and marks in
        ``touched`` which blocks each row touches; and the row count,
        squared right-hand-side norm and placeholder count of the system
        before projection.
        """
        r, dtype = self.r, self.dtype
        solved = known[r:]
        res_t, unr_t = np.flatnonzero(solved), np.flatnonzero(~solved)
        n_unres = len(unr_t)
        tails = table[r + res_t]
        pred = tails @ self.rows.T
        measured = self.prod_place[res_t] < 0
        if measured.any():
            data = self.prod_data[res_t][measured]
            gap = np.abs(data - pred[measured]) / np.maximum(1.0, np.abs(data))
            self.inconsistency = max(self.inconsistency, float(gap.max()))

        k_d, q_d = np.nonzero(self.prod_place[unr_t] < 0)
        n_d = len(k_d)
        b_data = self.prod_data[unr_t[k_d], q_d]

        place_u = self.prod_place[unr_t]
        place_r = self.prod_place[res_t]
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

    def _syzygy_pairs(self, exps: np.ndarray) -> np.ndarray:
        """Target pairs, rows (t1, t2, v1, v2) with lcm = x_v1 * m_t1 =
        x_v2 * m_t2 (v = -1 for the factor 1), in canonical order of the lcm.

        ``exps`` holds the targets' exponent rows; the lcm is their
        elementwise maximum, and a pair is kept when it is at most one
        variable above each target.
        """
        i, j = np.triu_indices(len(exps), 1)
        lcm = np.maximum(exps[i], exps[j])
        q1, q2 = lcm - exps[i], lcm - exps[j]
        keep = (q1.sum(axis=1) <= 1) & (q2.sum(axis=1) <= 1)
        i, j, lcm, q1, q2 = i[keep], j[keep], lcm[keep], q1[keep], q2[keep]
        v1 = np.where(q1.any(axis=1), q1.argmax(axis=1), -1)
        v2 = np.where(q2.any(axis=1), q2.argmax(axis=1), -1)
        return np.stack([i, j, v1, v2], axis=1)[canonical_order(lcm)]

    def _sides(self, t, v, table, known):
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
        r, dtype = self.r, self.dtype
        own = r + t
        # an unresolved target's tail is a row of zeros, which adds nothing
        tails = table[own]
        solved = known[own]
        moved = v >= 0
        slots = self.shift[np.maximum(v, 0)]
        slot_known = known[slots]
        # x_v * b_s over the known slots, accumulated one s at a time
        const = np.zeros((len(t), r), dtype=dtype)
        coef = np.where(slot_known & moved[:, None], tails, 0)
        for s in range(r):
            const += coef[:, s, None] * table[slots[:, s]]
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

    def _syzygy_equations(self, table, known):
        """Rows equating the two reductions of each pair's lcm, over the
        coefficient blocks of the unresolved targets (block k for the k-th
        in target order), given the pass's reduction table (_table).  A pair
        whose sides are both constant is a consistency check, and so is a
        row that comes out all zero.

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
        unresolved = np.flatnonzero(~known[r:])
        n_unres = len(unresolved)
        n_pairs = len(self.syzygy_pairs)
        t1, t2, v1, v2 = self.syzygy_pairs.T
        # both sides in one batch: side 1 of pair p is entry p, side 2 is
        # entry n_pairs + p
        const, ok, (entry, where, mats) = self._sides(
            np.concatenate([t1, t2]), np.concatenate([v1, v2]), table, known
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
        block_of = np.full(len(table), -1)
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
        cols, known = hankel(self.lam, self.Bp.exps, self.targets)
        direct = np.flatnonzero(known.all(axis=0))
        if not len(direct):
            return
        # one stacked solve runs the same LU solve per column as solve(H, c)
        tails = np.linalg.solve(self.H[None], cols[:, direct].T[:, :, None])
        for j, tail in zip(direct.tolist(), tails[:, :, 0]):
            self.tails[j] = tail

    def run(self):
        self.resolve_direct()
        r = self.r
        for _ in range(len(self.targets) + 1):
            unresolved = [t for t, tail in enumerate(self.tails) if tail is None]
            if not unresolved:
                break
            table, known = self._table()
            b_m, write_m, n_raw, b_raw_sq, n_places = self._moment_equations(
                table, known
            )
            b_s, write_s = self._syzygy_equations(table, known)
            n_raw += len(b_s)
            if not n_raw:
                self.nullity = len(unresolved) * r
                self.components, self.largest_component = len(unresolved), r
                self.solve = self.sigma_min_bound = None
                break
            # the moment rows and then the syzygy rows, each written once
            n_m = len(b_m)
            b = np.concatenate([b_m, b_s])
            X = np.zeros((len(b), len(unresolved), r), dtype=self.dtype)
            nz = np.zeros((len(b), len(unresolved)), dtype=bool)
            write_m(X[:n_m], nz[:n_m])
            write_s(X[n_m:], nz[n_m:])
            X = X.reshape(len(b), -1)
            size = max(n_raw, X.shape[1] + n_places)
            x, resid, freedom, rank, sizes, bound = _least_squares(X, b, size, r, nz)
            self.solve = "qr_svd" if bound is None else "certified"
            self.sigma_min_bound = bound
            self.nullity = X.shape[1] - rank
            self.components = len(sizes)
            self.largest_component = int(sizes.max())
            b_norm = np.sqrt(b_raw_sq + np.sum(np.abs(b_s) ** 2))
            self.inconsistency = max(
                self.inconsistency, float(resid / max(1.0, b_norm))
            )
            if self.inconsistency > self.tol:
                return "inconsistent"
            progress = False
            for k, t in enumerate(unresolved):
                block = slice(k * r, (k + 1) * r)
                if freedom[block].max() > _NULLSPACE_TOL:
                    continue
                self.tails[t] = x[block]
                progress = True
            if not progress:
                break
        if self.inconsistency > self.tol:
            return "inconsistent"
        if any(tail is None for tail in self.tails):
            return "rank_deficient"
        return "extended"


def _normal_forms(shape: Shape, tables, exps: np.ndarray, codes: np.ndarray, r, dtype):
    """Normal forms over B of the monomials with exponent rows ``exps`` and
    codes ``codes``, one row each, given the table of every variable.

    NF(1) = e_1 (B lists 1 first) and NF(m) = M_v NF(m / x_v) for the last
    variable v of m, which is the chain of products that applies each table
    in canonical variable order.  The chains are walked all at once,
    degree by degree: the monomials of one degree are the given ones and
    the parents of those one degree up, once per code, and each degree is
    one stacked product of their last variables' tables with their parents'
    forms, which runs the same matrix-vector product per monomial as
    ``M_v @ NF(m / x_v)``.
    """
    n_vars = exps.shape[1]
    mats = np.array([tables[var] for var in shape.variables()], dtype=dtype)
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
    # bottom up from NF(1), the one monomial of degree 0
    out = np.zeros((len(codes), r), dtype=dtype)
    out[degree == 0, 0] = 1.0
    below = np.zeros(1, dtype=codes.dtype)
    nf = np.zeros((1, r), dtype=dtype)
    nf[0, 0] = 1.0
    for mine, place, last, level, up in reversed(levels):
        parent = np.searchsorted(below, up)
        below, nf = level, (mats[last] @ nf[parent][:, :, None])[:, :, 0]
        out[mine] = nf[place]
    return out


def propagate_commutation(
    lam: MomentFunctional,
    B: MonomialBasis,
    Bp: MonomialBasis,
    tol: float = DEFAULT_TOL_EXTEND,
    order_seed: int | None = None,
) -> ExtensionResult:
    """Determine the unknown border relations and extend the moments.

    Returns Extended with the completed functional on products of the
    enlarged bases, Inconsistent when the equations contradict the data or
    the tables of an extension do not commute, or RankDeficient when the
    linearly reachable part leaves relations free.  The resolved relations
    and the diagnostics are reported whatever the status, the functional
    only for an extension, and the commutator residual once every relation
    is resolved.  The block lam(b' * b) is taken as invertible; a
    ValueError refuses one with unknown entries.
    """
    rng = np.random.default_rng(order_seed) if order_seed is not None else None
    prop = _Propagator(lam, B, Bp, tol, rng)
    status = prop.run()

    shape = lam.shape
    solved = [t for t, tail in enumerate(prop.tails) if tail is not None]
    unresolved = [t for t, tail in enumerate(prop.tails) if tail is None]
    solved = [solved[i] for i in canonical_order(prop.targets[solved])]
    relations = [
        BorderRelation(m, prop.tails[t])
        for m, t in zip(shape.monomials(prop.targets[solved]), solved)
    ]
    diagnostics = {
        "inconsistency": prop.inconsistency,
        "nullity": prop.nullity,
        "components": prop.components,
        "largest_component": prop.largest_component,
        "solve": prop.solve,
        "sigma_min_bound": prop.sigma_min_bound,
        "unresolved": [str(m) for m in shape.monomials(prop.targets[unresolved])],
    }
    completed = commute = None
    if status == "extended":
        tables = prop.tables()
        commute = commutator_residual([tables[v] for v in sorted(tables)])
        if commute > max(tol, 1e-8):
            status = "inconsistent"
        else:
            completed = _complete(lam, B, Bp, prop, tables, relations)
    log.debug(
        "propagation: status=%s commute=%s unresolved=%d",
        status, commute, len(unresolved),
    )
    return ExtensionResult(
        status=status,
        functional=completed,
        relations=relations,
        commutator_residual=commute,
        diagnostics=diagnostics,
    )


def _complete(lam, B, Bp, prop, tables, relations) -> MomentFunctional:
    """lam extended to every product of B'+ x B+ and of B' x border, from
    the commuting tables of every variable and the relations."""
    shape, r, dtype = lam.shape, len(B), prop.dtype
    lam_B, _ = lam.lookup(B.codes)
    codes = shape.product_codes(Bp.plus, B.plus).ravel()
    unknown = first_unknown(lam, codes)
    n_cols = len(B.plus)
    exps = Bp.plus[unknown // n_cols] + B.plus[unknown % n_cols]
    nf = _normal_forms(shape, tables, exps, codes[unknown], r, dtype)
    values = (lam_B[None, None, :] @ nf[:, :, None])[:, 0, 0]
    completed = lam.extended(codes[unknown], values)
    # B' x border lies in B'+ x B+, whose moments are all known by now, so
    # these products add none; they are the only Monomial.__mul__ calls of
    # a decomposition, which perfbench's tracer test expects to count
    # (ROADMAP item 3 moves that probe)
    Bp_monomials = shape.monomials(Bp.exps)
    products = [q * rel.lead for rel in relations for q in Bp_monomials]
    codes = shape.codes(shape.exponents(products))
    unknown = first_unknown(completed, codes)
    k, i = np.divmod(unknown, len(Bp))
    tails = np.array([rel.tail for rel in relations], dtype=dtype).reshape(-1, r)
    values = (prop.H[i][:, None, :] @ tails[k][:, :, None])[:, 0, 0]
    return completed.extended(codes[unknown], values)


def flat_extension_check(
    lam: MomentFunctional,
    B: MonomialBasis,
    Bp: MonomialBasis,
    tol: float = 1e-8,
) -> bool:
    """Rank of the once-prolonged matrix lam(B'+ x B+) equals |B|, the base
    block being invertible.  All required moments must be resolved."""
    Hn, known = hankel(lam, Bp.plus, B.plus)
    if not known.all():
        raise ValueError("prolonged block has unknown entries")
    return numerical_rank(Hn, tol) == len(B)
