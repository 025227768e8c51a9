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

When the fixpoint resolves everything, the commuting multiplication tables
define the unique extension of the data, and any moment is obtained by
reducing its monomial to a normal form and pairing against the values on B.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .algebra import Monomial, MomentFunctional, Shape
from .moment import (
    MonomialBasis,
    UnresolvedParameterError,
    basis_plus,
    border,
    enumerate_monomials,
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

    def relation_for(self, m: Monomial) -> BorderRelation | None:
        for rel in self.relations:
            if rel.lead == m:
                return rel
        return None


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


class _LinearSystem:
    """Sparse accumulator for equations over target coefficients and moments."""

    def __init__(self, dtype):
        self.dtype = dtype
        self.cols: dict = {}
        self.rows: list[dict] = []
        self.rhs: list = []

    def col(self, key) -> int:
        if key not in self.cols:
            self.cols[key] = len(self.cols)
        return self.cols[key]

    def add(self, coeffs: dict, rhs) -> None:
        self.rows.append({self.col(k): v for k, v in coeffs.items()})
        self.rhs.append(rhs)

    def dense(self):
        A = np.zeros((len(self.rows), len(self.cols)), dtype=self.dtype)
        for i, row in enumerate(self.rows):
            for j, v in row.items():
                A[i, j] = v
        return A, np.asarray(self.rhs, dtype=self.dtype)


class _Propagator:
    def __init__(self, lam, B, Bp, tol, rng=None):
        self.lam = lam
        self.B = B
        self.Bp = Bp
        self.tol = tol
        self.rng = rng
        self.shape: Shape = lam.shape
        self.r = len(B)
        self.dtype = complex if lam.uses_complex() else float
        H = hankel(lam, Bp, B)
        if not H.fully_known:
            raise UnresolvedParameterError("base block has unknown entries")
        self.H = H.numeric().astype(self.dtype)
        if numerical_rank(self.H) < self.r:
            raise SingularBlockError("base block is singular")
        self.index_in_B = {m: i for i, m in enumerate(B)}
        self.targets = border(B)
        if rng is not None:
            order = rng.permutation(len(self.targets))
            self.targets = [self.targets[i] for i in order]
        self.resolved: dict[Monomial, np.ndarray] = {}
        # any monomial whose products with B are known yields valid
        # constraints; scan the whole known range plus the prolonged rows
        in_range = enumerate_monomials(self.shape, list(self.shape.degrees))
        in_range_set = set(in_range)
        extra = [q for q in basis_plus(Bp) if q not in in_range_set]
        self.row_pool = in_range + extra
        rows = hankel(lam, self.row_pool, B)
        full = rows.known.all(axis=1)
        self.row_known = {
            q: rows.values[i] if full[i] else None
            for i, q in enumerate(self.row_pool)
        }
        self.inconsistency = 0.0

    # --- reductions -----------------------------------------------------

    def _reduce_shift(self, var_mono: Monomial, b: Monomial):
        """x_v * b as ('known', vec) or ('unknown', monomial)."""
        m = var_mono * b
        if m in self.index_in_B:
            vec = np.zeros(self.r, dtype=self.dtype)
            vec[self.index_in_B[m]] = 1.0
            return "known", vec
        if m in self.resolved:
            return "known", self.resolved[m]
        return "unknown", m

    def _side(self, quot: Monomial, m: Monomial):
        """quot * N(m) as (const_vec, {target: coeff matrix}), or None.

        quot is 1 or a single variable; the expansion is kept affine in the
        unresolved relation coefficients.
        """
        const = np.zeros(self.r, dtype=self.dtype)
        lin: dict[Monomial, np.ndarray] = {}
        if quot.is_one():
            if m in self.resolved:
                return self.resolved[m].copy(), lin
            lin[m] = np.eye(self.r, dtype=self.dtype)
            return const, lin
        if m in self.resolved:
            tail = self.resolved[m]
            for s, b in enumerate(self.B):
                if tail[s] == 0:
                    continue
                kind, val = self._reduce_shift(quot, b)
                if kind == "known":
                    const += tail[s] * val
                else:
                    mat = lin.setdefault(
                        val, np.zeros((self.r, self.r), dtype=self.dtype)
                    )
                    mat += tail[s] * np.eye(self.r, dtype=self.dtype)
            return const, lin
        # m unresolved: need every shifted basis element known
        V = np.zeros((self.r, self.r), dtype=self.dtype)
        for s, b in enumerate(self.B):
            kind, val = self._reduce_shift(quot, b)
            if kind != "known":
                return None
            V[:, s] = val
        lin[m] = V
        return const, lin

    # --- equation harvesting ---------------------------------------------

    def _moment_equations(self, sys: _LinearSystem):
        """Pair every target against every row with known products.

        A known product moment gives a data equation (or, for resolved
        targets, a consistency check); an unknown one is a shared placeholder
        unknown, which is where the quasi-Hankel coupling between different
        relations enters.
        """
        for m in self.targets:
            tail = self.resolved.get(m)
            for q in self.row_pool:
                row = self.row_known[q]
                if row is None:
                    continue
                prod = q * m
                if self.lam.known(prod):
                    data = self.lam.known_value(prod)
                    if tail is None:
                        sys.add(
                            {("x", m, j): row[j] for j in range(self.r)}, data
                        )
                    else:
                        gap = data - row @ tail
                        self.inconsistency = max(
                            self.inconsistency, abs(gap) / max(1.0, abs(data))
                        )
                elif tail is None:
                    coeffs = {("x", m, j): row[j] for j in range(self.r)}
                    coeffs[("h", prod)] = -1.0
                    sys.add(coeffs, 0.0)
                else:
                    sys.add({("h", prod): 1.0}, row @ tail)

    def _syzygy_equations(self, sys: _LinearSystem):
        pairs = []
        n = len(self.targets)
        for i in range(n):
            for j in range(i + 1, n):
                m1, m2 = self.targets[i], self.targets[j]
                lcm = m1.lcm(m2)
                q1 = lcm.divide(m1)
                q2 = lcm.divide(m2)
                if q1.total_degree > 1 or q2.total_degree > 1:
                    continue
                pairs.append((lcm, m1, m2, q1, q2))
        pairs.sort(key=lambda t: t[0].sort_key())
        for _, m1, m2, q1, q2 in pairs:
            s1 = self._side(q1, m1)
            s2 = self._side(q2, m2)
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
            zero = np.zeros((self.r, self.r), dtype=self.dtype)
            for comp in range(self.r):
                coeffs = {}
                for mono in keys:
                    row = (l1.get(mono, zero) - l2.get(mono, zero))[comp]
                    for s in range(self.r):
                        if row[s] != 0:
                            coeffs[("x", mono, s)] = row[s]
                if coeffs:
                    sys.add(coeffs, c2[comp] - c1[comp])
                else:
                    self.inconsistency = max(
                        self.inconsistency, abs(c2[comp] - c1[comp])
                    )

    # --- main loop --------------------------------------------------------

    def resolve_direct(self):
        cols = hankel(self.lam, self.Bp, self.targets)
        for j in np.flatnonzero(cols.known.all(axis=0)):
            self.resolved[self.targets[j]] = np.linalg.solve(
                self.H, cols.values[:, j]
            )

    def run(self):
        self.resolve_direct()
        for _ in range(len(self.targets) + 1):
            unresolved = [m for m in self.targets if m not in self.resolved]
            if not unresolved:
                break
            sys = _LinearSystem(self.dtype)
            self._moment_equations(sys)
            self._syzygy_equations(sys)
            if not sys.rows:
                break
            A, b = sys.dense()
            U, s, Vt = np.linalg.svd(A, full_matrices=False)
            rank = (
                int(np.sum(s > max(A.shape) * np.finfo(float).eps * 100 * s[0]))
                if s.size and s[0] > 0
                else 0
            )
            x = Vt[:rank].conj().T @ ((U[:, :rank].conj().T @ b) / s[:rank])
            resid = np.linalg.norm(A @ x - b) / max(1.0, np.linalg.norm(b))
            self.inconsistency = max(self.inconsistency, resid)
            if self.inconsistency > self.tol:
                return "inconsistent"
            # a component is determined exactly when its axis lies in the
            # row space: the matching column of the leading right singular
            # vectors then has unit norm
            row_space = Vt[:rank]
            in_row_space = np.linalg.norm(row_space, axis=0) ** 2
            freedom = np.sqrt(np.maximum(0.0, 1.0 - in_row_space))
            progress = False
            for m in unresolved:
                idx = [sys.cols.get(("x", m, j)) for j in range(self.r)]
                if any(i is None for i in idx):
                    continue
                if freedom[idx].max() > _NULLSPACE_TOL:
                    continue
                self.resolved[m] = np.asarray(
                    [x[i] for i in idx], dtype=self.dtype
                )
                progress = True
            if not progress:
                break
        if self.inconsistency > self.tol:
            return "inconsistent"
        if any(m not in self.resolved for m in self.targets):
            return "rank_deficient"
        return "extended"


def multiplication_tables(
    shape: Shape,
    B: MonomialBasis,
    relations: dict[Monomial, np.ndarray],
    dtype=float,
) -> dict[tuple[int, int], np.ndarray]:
    """Per-variable tables M_v with columns = normal forms of x_v * b."""
    index = {m: i for i, m in enumerate(B)}
    out = {}
    r = len(B)
    for g, j in shape.variables():
        v = shape.variable(g, j)
        M = np.zeros((r, r), dtype=dtype)
        ok = True
        for c, b in enumerate(B):
            m = v * b
            if m in index:
                M[index[m], c] = 1.0
            elif m in relations:
                M[:, c] = relations[m]
            else:
                ok = False
                break
        if ok:
            out[(g, j)] = M
    return out


def _normal_form(m: Monomial, shape, tables, r, dtype):
    vec = np.zeros(r, dtype=dtype)
    vec[0] = 1.0  # B is connected to 1 and listed with 1 first
    for g, e in enumerate(m.exps):
        for j, power in enumerate(e):
            if not power:
                continue
            M = tables.get((g, j))
            if M is None:
                return None
            for _ in range(power):
                vec = M @ vec
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
    if B[0] != B.shape.one():
        raise ValueError("basis must list the monomial 1 first")
    rng = np.random.default_rng(order_seed) if order_seed is not None else None
    prop = _Propagator(lam, B, Bp, tol, rng)
    status = prop.run()
    r = len(B)
    dtype = prop.dtype

    tables = multiplication_tables(lam.shape, B, prop.resolved, dtype)
    relations = [
        BorderRelation(m, prop.resolved[m])
        for m in sorted(prop.resolved, key=lambda t: t.sort_key())
    ]

    commute = commutator_residual([tables[v] for v in sorted(tables)])
    if status == "extended" and commute > max(tol, 1e-8):
        status = "inconsistent"

    completed = lam.copy()
    lam_B = np.asarray([lam.known_value(b) for b in B], dtype=dtype)
    plus_rows = basis_plus(Bp)
    plus_cols = basis_plus(B)
    for mr in plus_rows:
        for mc in plus_cols:
            m = mr * mc
            if completed.known(m):
                continue
            nf = _normal_form(m, lam.shape, tables, r, dtype)
            if nf is not None:
                completed.set(m, lam_B @ nf)
    # moments of B' x border follow from the relations even when some
    # variables stay unresolved
    Hn = prop.H
    for rel in relations:
        for i, q in enumerate(Bp):
            m = q * rel.lead
            if not completed.known(m):
                completed.set(m, Hn[i] @ rel.tail)

    diagnostics = {
        "inconsistency": prop.inconsistency,
        "unresolved": [
            str(m) for m in prop.targets if m not in prop.resolved
        ],
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
    Hplus = hankel(lam, basis_plus(Bp), basis_plus(B))
    Hn = Hplus.numeric()
    base = hankel(lam, Bp, B).numeric()
    return (
        numerical_rank(base, tol) == len(B)
        and numerical_rank(Hn, tol) == len(B)
    )
