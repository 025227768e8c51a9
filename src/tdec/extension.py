"""Moment completion and flat-extension decisions.

Given bases B (columns) and B' (rows) with a fully known invertible block
``H[i, j] = lam(b'_i b_j)``, every monomial of the border of B carries an
unknown normal form over B (its relation in the quotient).  Relations whose
full column over B' is known follow from one linear solve.  The rest are
determined by a linear fixpoint that harvests, in canonical order:

* column equations against any row monomial whose products with B are known,
* placeholder equations tying rows to shared unknown moments (the
  quasi-Hankel structure),
* pairwise syzygies between border relations whose leading monomials share
  an lcm one variable away, expanded only while they stay linear in the
  unknown relation coefficients.

Each pass projects the placeholders out exactly, which leaves a system in
the relation coefficients alone with the same least-squares residual and
the same determined coefficients, and solves it by the SVD of the R factor
of its QR decomposition.

The monomial bookkeeping is index arithmetic on exponent rows and their
codes, done once per propagator: the targets (the border of B) are an
exponent matrix and their tails a list indexed by target; the moments of
every target times every known row are one lookup of a block of code sums;
the table placing each shifted product ``x_v * b`` in B or among the targets
adds the variables' identity rows; and the syzygy pairs are screened all at
once on the targets' exponent matrix.  The completed moments are added by
code, in two batches.  ``Monomial`` objects appear only where results
leave (the leads of the returned relations, the names in the diagnostics)
and in the products of B' with those leads.

When the fixpoint resolves everything, the commuting multiplication tables
define the unique extension of the data, and any moment is obtained by
reducing its monomial to a normal form and pairing against the values on B.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .algebra import Monomial, MomentFunctional, Shape, canonical_order, first_unknown
from .moment import (
    MonomialBasis,
    UnresolvedParameterError,
    basis_plus,
    border,
    hankel,
    numerical_rank,
)

log = logging.getLogger("tdec")

DEFAULT_TOL_EXTEND = 1e-6
_NULLSPACE_TOL = 1e-7


class SingularBlockError(RuntimeError):
    pass


@dataclass
class BorderRelation:
    """lead = sum(tail[j] * B[j]) in the quotient algebra."""

    lead: Monomial
    tail: np.ndarray

    def __str__(self):
        return f"{self.lead} == {self.tail}"


@dataclass
class ExtensionResult:
    status: str  # "extended" | "rank_deficient" | "inconsistent"
    functional: MomentFunctional | None
    relations: list[BorderRelation]
    commutator_residual: float
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


def _least_squares(X: np.ndarray, b: np.ndarray, size: int):
    """Truncated-SVD least squares of X x = b through the R factor of [X | b].

    The SVD is taken of the R factor of X, which has at most one row more
    than X has columns and the singular values and right singular vectors of
    X; the tall factor Q is never formed.
    ``size`` is the larger dimension of the system before placeholder
    projection and scales the rank threshold.  Returns the solution, the
    residual norm, per unknown its distance from the row space (0 when the
    unknown is determined), and the numerical rank of X.
    """
    n = X.shape[1]
    if not X.shape[0]:
        return np.zeros(n, dtype=X.dtype), 0.0, np.ones(n), 0
    R = np.linalg.qr(np.column_stack([X, b]), mode="r")
    R_x, c = R[:, :n], R[:, n]
    U, s, Vt = np.linalg.svd(R_x, full_matrices=False)
    rank = (
        int(np.sum(s > size * np.finfo(float).eps * 100 * s[0]))
        if s.size and s[0] > 0
        else 0
    )
    x = Vt[:rank].conj().T @ ((U[:, :rank].conj().T @ c) / s[:rank])
    resid = float(np.linalg.norm(R_x @ x - c))
    in_row_space = np.linalg.norm(Vt[:rank], axis=0) ** 2
    return x, resid, np.sqrt(np.maximum(0.0, 1.0 - in_row_space)), rank


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
        H = hankel(lam, Bp.exps, B.exps)
        if not H.fully_known:
            raise UnresolvedParameterError("base block has unknown entries")
        self.H = H.numeric().astype(self.dtype)
        if numerical_rank(self.H) < self.r:
            raise SingularBlockError("base block is singular")
        shape = self.shape
        # exponent rows of the border monomials whose relations are sought
        self.targets = border(B)
        if rng is not None:
            self.targets = self.targets[rng.permutation(len(self.targets))]
        # tails[t] is the resolved relation tail of the t-th target, or None
        self.tails: list[np.ndarray | None] = [None] * len(self.targets)
        # any monomial whose products with B are known yields valid
        # constraints; scan the whole known range plus the prolonged rows
        # beyond it (those over some group's degree bound)
        plus = basis_plus(Bp)
        starts = np.cumsum((0,) + shape.dims[:-1])
        beyond = (np.add.reduceat(plus, starts, axis=1) > shape.degrees).any(axis=1)
        row_pool = np.vstack([shape.table.exps, plus[beyond]])
        rows = hankel(lam, row_pool, B.exps)
        full = rows.known.all(axis=1)
        self.rows = rows.values[full]
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
        # x_v * b_s lies in B+ = B u border(B): shift[v][s] is the index of
        # the product in B, or -1 - t for the t-th target
        where = {c: i for i, c in enumerate(B.codes.tolist())}
        for t, c in enumerate(shape.codes(self.targets).tolist()):
            where[c] = -1 - t
        variables = np.eye(B.exps.shape[1], dtype=np.int64)
        self.shift = [
            [where[c] for c in row]
            for row in shape.product_codes(variables, B.exps).tolist()
        ]
        self.unit = np.eye(self.r, dtype=self.dtype)
        self.syzygy_pairs = self._syzygy_pairs(self.targets)
        self.inconsistency = 0.0
        # free relation coefficients left by the last fixpoint pass
        self.nullity = 0

    # --- reductions -----------------------------------------------------

    def _reduce_shift(self, v: int, s: int, tails):
        """x_v * b_s as ('known', vec) or ('unknown', target index), where
        tails[t] is the resolved tail of the t-th target or None."""
        j = self.shift[v][s]
        if j >= 0:
            return "known", self.unit[j]
        if tails[-1 - j] is not None:
            return "known", tails[-1 - j]
        return "unknown", -1 - j

    def _side(self, v: int, t: int, tails):
        """x_v * N(m) for the t-th target m (N(m) when v < 0) as
        (const_vec, {target index: coeff matrix}), or None.

        The expansion is kept affine in the unresolved relation coefficients.
        """
        r, dtype = self.r, self.dtype
        const = np.zeros(r, dtype=dtype)
        lin: dict[int, np.ndarray] = {}
        tail = tails[t]
        if v < 0:
            if tail is not None:
                return tail.copy(), lin
            lin[t] = np.eye(r, dtype=dtype)
            return const, lin
        if tail is not None:
            for s in range(r):
                if tail[s] == 0:
                    continue
                kind, val = self._reduce_shift(v, s, tails)
                if kind == "known":
                    const += tail[s] * val
                else:
                    mat = lin.setdefault(val, np.zeros((r, r), dtype=dtype))
                    mat += tail[s] * np.eye(r, dtype=dtype)
            return const, lin
        # target unresolved: need every shifted basis element known
        V = np.zeros((r, r), dtype=dtype)
        for s in range(r):
            kind, val = self._reduce_shift(v, s, tails)
            if kind != "known":
                return None
            V[:, s] = val
        lin[t] = V
        return const, lin

    def tables(self) -> dict[tuple[int, int], np.ndarray]:
        """Per-variable tables M_v with columns the normal forms of x_v * b,
        for each variable whose shifted products are in B or resolved."""
        out = {}
        for v, var in enumerate(self.shape.variables()):
            cols = [self._reduce_shift(v, s, self.tails) for s in range(self.r)]
            if all(kind == "known" for kind, _ in cols):
                out[var] = np.column_stack([vec for _, vec in cols])
        return out

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

        Returns the projected rows over the coefficients of the unresolved
        targets (block k*r:(k+1)*r for the k-th in target order), their
        right-hand sides, and the row count, squared right-hand-side norm and
        placeholder count of the system before projection.
        """
        r, dtype = self.r, self.dtype
        solved = np.array([tail is not None for tail in self.tails], dtype=bool)
        res_t, unr_t = np.flatnonzero(solved), np.flatnonzero(~solved)
        n_unres = len(unr_t)
        tails = np.zeros((len(res_t), r), dtype=dtype)
        for i, t in enumerate(res_t):
            tails[i] = self.tails[t]
        pred = tails @ self.rows.T
        known = self.prod_place[res_t] < 0
        if known.any():
            data = self.prod_data[res_t][known]
            gap = np.abs(data - pred[known]) / np.maximum(1.0, np.abs(data))
            self.inconsistency = max(self.inconsistency, float(gap.max()))

        k_d, q_d = np.nonzero(self.prod_place[unr_t] < 0)
        X_data = np.zeros((len(k_d), n_unres, r), dtype=dtype)
        X_data[np.arange(len(k_d)), k_d] = self.rows[q_d]
        b_data = self.prod_data[unr_t[k_d], q_d]

        place_u = self.prod_place[unr_t]
        place_r = self.prod_place[res_t]
        k_u, q_u = np.nonzero(place_u >= 0)
        t_r, q_r = np.nonzero(place_r >= 0)
        n_u = len(k_u)
        b_place = np.concatenate(
            [np.zeros(n_u, dtype=dtype), pred[t_r, q_r]]
        )
        ids, group = np.unique(
            np.concatenate([place_u[k_u, q_u], place_r[t_r, q_r]]),
            return_inverse=True,
        )
        count = np.bincount(group, minlength=len(ids))
        x_sum = np.zeros((len(ids), n_unres, r), dtype=dtype)
        np.add.at(x_sum, (group[:n_u], k_u), -self.rows[q_u])
        b_sum = np.zeros(len(ids), dtype=dtype)
        np.add.at(b_sum, group, b_place)
        X_place = -(x_sum / count[:, None, None])[group]
        X_place[np.arange(n_u), k_u] -= self.rows[q_u]
        b_proj = b_place - b_sum[group] / count[group]
        # a placeholder met once is free: its row projects to zero
        shared = count[group] > 1

        X = np.concatenate([X_data, X_place[shared]]).reshape(-1, n_unres * r)
        b = np.concatenate([b_data, b_proj[shared]])
        n_raw = len(k_d) + len(group)
        b_raw_sq = float(np.sum(np.abs(b_data) ** 2) + np.sum(np.abs(b_place) ** 2))
        return X, b, n_raw, b_raw_sq, len(ids)

    def _syzygy_pairs(self, exps: np.ndarray):
        """Target pairs (t1, t2, v1, v2) with lcm = x_v1 * m_t1 = x_v2 * m_t2
        (v = -1 for the factor 1), in canonical order of the lcm.

        ``exps`` holds the targets' exponent rows; the lcm is their
        elementwise maximum, and a pair is kept when it is at most one
        variable above each target.
        """
        i, j = np.triu_indices(len(exps), 1)
        lcm = np.maximum(exps[i], exps[j])
        q1, q2 = lcm - exps[i], lcm - exps[j]
        keep = (q1.sum(axis=1) <= 1) & (q2.sum(axis=1) <= 1)
        i, j, lcm, q1, q2 = i[keep], j[keep], lcm[keep], q1[keep], q2[keep]
        order = canonical_order(lcm)
        v1 = np.where(q1.any(axis=1), q1.argmax(axis=1), -1)
        v2 = np.where(q2.any(axis=1), q2.argmax(axis=1), -1)
        return list(zip(*(a[order].tolist() for a in (i, j, v1, v2))))

    def _syzygy_equations(self, unresolved: list[int]):
        """Rows equating the two reductions of each pair's lcm, over the
        coefficient blocks of the unresolved targets (block k for the
        target ``unresolved[k]``)."""
        r, dtype = self.r, self.dtype
        tails = self.tails
        block_of = [None] * len(tails)
        for k, t in enumerate(unresolved):
            block_of[t] = k
        at, blocks, mats, rhs = [], [], [], []
        zero = np.zeros((r, r), dtype=dtype)
        for t1, t2, v1, v2 in self.syzygy_pairs:
            s1 = self._side(v1, t1, tails)
            s2 = self._side(v2, t2, tails)
            if s1 is None or s2 is None:
                continue
            c1, l1 = s1
            c2, l2 = s2
            keys = set(l1) | set(l2)
            if not keys:
                gap = np.linalg.norm(c1 - c2) / max(
                    1.0, np.linalg.norm(c1), np.linalg.norm(c2)
                )
                self.inconsistency = max(self.inconsistency, gap)
                continue
            for t in keys:
                at.append(len(rhs))
                blocks.append(block_of[t])
                mats.append(l1.get(t, zero) - l2.get(t, zero))
            rhs.append(c2 - c1)
        X = np.zeros((len(rhs), r, len(unresolved), r), dtype=dtype)
        if rhs:
            X[at, :, blocks, :] = mats
        X = X.reshape(len(rhs) * r, len(unresolved) * r)
        b = np.concatenate(rhs) if rhs else np.zeros(0, dtype=dtype)
        used = X.any(axis=1)
        if not used.all():
            self.inconsistency = max(self.inconsistency, float(np.abs(b[~used]).max()))
        return X[used], b[used]

    # --- main loop --------------------------------------------------------

    def resolve_direct(self):
        cols = hankel(self.lam, self.Bp.exps, self.targets)
        for j in np.flatnonzero(cols.known.all(axis=0)):
            self.tails[j] = np.linalg.solve(self.H, cols.values[:, j])

    def run(self):
        self.resolve_direct()
        r = self.r
        for _ in range(len(self.targets) + 1):
            unresolved = [t for t, tail in enumerate(self.tails) if tail is None]
            if not unresolved:
                break
            X_m, b_m, n_raw, b_raw_sq, n_places = self._moment_equations()
            X_s, b_s = self._syzygy_equations(unresolved)
            n_raw += len(b_s)
            if not n_raw:
                self.nullity = len(unresolved) * r
                break
            X = np.concatenate([X_m, X_s])
            b = np.concatenate([b_m, b_s])
            size = max(n_raw, X.shape[1] + n_places)
            x, resid, freedom, rank = _least_squares(X, b, size)
            self.nullity = X.shape[1] - rank
            b_norm = np.sqrt(b_raw_sq + np.sum(np.abs(b_s) ** 2))
            self.inconsistency = max(self.inconsistency, resid / max(1.0, b_norm))
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


class _NormalForms:
    """Normal forms over B of monomials given by exponent row and code,
    through a code-keyed memo: NF(1) = e_1 (B lists 1 first) and
    NF(m) = M_v NF(m / x_v) for the last variable v of m, which is the chain
    of products that applies each table in canonical variable order.  None
    when a variable on the chain has no table."""

    def __init__(self, shape: Shape, tables, r, dtype):
        self.tables = [tables.get(v) for v in shape.variables()]
        self.places = shape.variable_codes.tolist()
        one = np.zeros(r, dtype=dtype)
        one[0] = 1.0
        self.memo = {0: one}

    def __call__(self, exps: list[int], code: int):
        chain = []
        while code not in self.memo:
            v = max(i for i, e in enumerate(exps) if e)
            chain.append((v, code))
            exps = [*exps[:v], exps[v] - 1, *exps[v + 1:]]
            code -= self.places[v]
        vec = self.memo[code]
        for v, c in reversed(chain):
            M = self.tables[v]
            vec = None if vec is None or M is None else M @ vec
            self.memo[c] = vec
        return vec


def propagate_commutation(
    lam: MomentFunctional,
    B: MonomialBasis,
    Bp: MonomialBasis,
    tol: float = DEFAULT_TOL_EXTEND,
    order_seed: int | None = None,
) -> ExtensionResult:
    """Determine the unknown border relations and extend the moments.

    Returns Extended with the completed functional on products of the
    enlarged bases, Inconsistent when the equations contradict the data, or
    RankDeficient when the linearly reachable part leaves relations free
    (whatever was resolved is still reported).
    """
    if B.codes[0] != 0:
        raise ValueError("basis must list the monomial 1 first")
    rng = np.random.default_rng(order_seed) if order_seed is not None else None
    prop = _Propagator(lam, B, Bp, tol, rng)
    status = prop.run()
    r = len(B)
    dtype = prop.dtype

    tables = prop.tables()
    shape = lam.shape
    solved = [t for t, tail in enumerate(prop.tails) if tail is not None]
    unresolved = [t for t, tail in enumerate(prop.tails) if tail is None]
    solved = [solved[i] for i in canonical_order(prop.targets[solved])]
    relations = [
        BorderRelation(m, prop.tails[t])
        for m, t in zip(shape.monomials(prop.targets[solved]), solved)
    ]

    commute = commutator_residual([tables[v] for v in sorted(tables)])
    if status == "extended" and commute > max(tol, 1e-8):
        status = "inconsistent"

    lam_B, _ = lam.lookup(B.codes)
    plus_rows = basis_plus(Bp)
    plus_cols = basis_plus(B)
    codes = shape.product_codes(plus_rows, plus_cols).ravel()
    unknown = first_unknown(lam, codes)
    n_cols = len(plus_cols)
    exps = plus_rows[unknown // n_cols] + plus_cols[unknown % n_cols]
    normal_form = _NormalForms(shape, tables, r, dtype)
    new_codes, new_values = [], []
    for e, code in zip(exps.tolist(), codes[unknown].tolist()):
        nf = normal_form(e, code)
        if nf is not None:
            new_codes.append(code)
            new_values.append(lam_B @ nf)
    completed = lam.extended(new_codes, np.array(new_values, dtype=dtype))
    # moments of B' x border follow from the relations even when some
    # variables stay unresolved
    Bp_monomials = shape.monomials(Bp.exps)
    products = [q * rel.lead for rel in relations for q in Bp_monomials]
    codes = shape.codes(shape.exponents(products))
    unknown = first_unknown(completed, codes)
    pairs = [divmod(p, len(Bp)) for p in unknown.tolist()]
    values = [prop.H[i] @ relations[k].tail for k, i in pairs]
    completed = completed.extended(codes[unknown], np.array(values, dtype=dtype))

    diagnostics = {
        "inconsistency": prop.inconsistency,
        "nullity": prop.nullity,
        "unresolved": [str(m) for m in shape.monomials(prop.targets[unresolved])],
    }
    log.debug(
        "propagation: status=%s commute=%.2e unresolved=%d",
        status, commute, len(diagnostics["unresolved"]),
    )
    return ExtensionResult(
        status=status,
        functional=completed,
        relations=relations,
        commutator_residual=commute,
        diagnostics=diagnostics,
    )


def flat_extension_check(
    lam: MomentFunctional,
    B: MonomialBasis,
    Bp: MonomialBasis,
    tol: float = 1e-8,
) -> bool:
    """Rank of the once-prolonged matrix equals |B| and the base block is
    invertible.  All required moments must be resolved."""
    Hn = hankel(lam, basis_plus(Bp), basis_plus(B)).numeric()
    base = hankel(lam, Bp.exps, B.exps).numeric()
    return (
        numerical_rank(base, tol) == len(B)
        and numerical_rank(Hn, tol) == len(B)
    )
