"""Dense two-phase revised simplex and the one builder of atom LPs.

Solves  min c.x  subject to  A x = b, x >= 0  where A has few rows (the
homogeneous-marginal constraint families) and possibly very many columns
(one per grid atom).  The basis inverse is kept explicitly and updated by
pivoting, with periodic refactorisation; pricing is a single dense
mat-vec over all columns.  Dantzig pricing with a Bland fallback after a
degenerate stall guarantees termination.

``atom_lp`` assembles every LP of the package: an atom cost tensor plus
constraint families, each a (rows, coeff, target) triple broadcast over the
tensor.  Every lift, the extended-space LP and classical transport go
through it.

Desk scale only: a few hundred rows; the matrix is dense, so memory is
8 bytes per row and column (20 rows by 1.4e6 columns is about 220 MB, and
phase 1 holds a second copy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

_REFACTOR_EVERY = 64
_STALL_LIMIT = 60


@dataclass
class LpResult:
    status: str  # optimal | infeasible | unbounded | iteration_limit
    x: np.ndarray | None
    value: float
    iterations: int

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def _pivot_update(binv: np.ndarray, d: np.ndarray, row: int) -> None:
    """In-place product-form update of the basis inverse after a pivot."""
    piv = d[row]
    binv[row, :] /= piv
    others = np.arange(binv.shape[0]) != row
    binv[others, :] -= np.outer(d[others], binv[row, :])


def _simplex_phase(c, A, b, basis, binv, max_iters, tol):
    """Run primal simplex from a feasible basis; mutates basis/binv.

    Returns (status, xB, iterations).
    """
    m, n = A.shape
    xb = binv @ b
    if n == 0:
        return "optimal", xb, 0
    stall = 0
    bland = False
    iters = 0
    last_value = math.inf
    for iters in range(1, max_iters + 1):
        if iters % _REFACTOR_EVERY == 0:
            binv[:] = np.linalg.inv(A[:, basis])
            xb = binv @ b
        y = binv.T @ c[basis]
        reduced = c - A.T @ y
        reduced[basis] = 0.0
        if bland:
            candidates = np.flatnonzero(reduced < -tol)
            if candidates.size == 0:
                return "optimal", xb, iters
            enter = int(candidates[0])
        else:
            enter = int(np.argmin(reduced))
            if reduced[enter] >= -tol:
                return "optimal", xb, iters
        d = binv @ A[:, enter]
        pos = d > tol
        if not np.any(pos):
            return "unbounded", xb, iters
        ratios = np.full(m, math.inf)
        ratios[pos] = xb[pos] / d[pos]
        leave = int(np.argmin(ratios))
        if bland:
            # smallest basic-variable index among the minimal ratios
            best = ratios[leave]
            ties = np.flatnonzero(ratios <= best + tol)
            leave = int(ties[np.argmin(np.asarray(basis)[ties])])
        step = ratios[leave]
        value = float(c[basis] @ xb)
        if step <= tol and value >= last_value - tol * (1.0 + abs(value)):
            stall += 1
            if stall > _STALL_LIMIT:
                bland = True
        else:
            stall = 0
        last_value = value
        _pivot_update(binv, d, leave)
        basis[leave] = enter
        xb = xb - step * d
        xb[leave] = step
        xb = np.maximum(xb, 0.0)
    return "iteration_limit", xb, iters


def solve_lp(c, A, b, max_iters: int | None = None, tol: float = 1e-11) -> LpResult:
    """Minimize c.x over {A x = b, x >= 0} by two-phase revised simplex."""
    c = np.asarray(c, dtype=float).copy()
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).copy()
    m, n = A.shape
    if b.shape != (m,) or c.shape != (n,):
        raise ValueError("inconsistent LP dimensions")
    if max_iters is None:
        max_iters = 50 * (m + n) + 1000

    flip = b < 0
    if np.any(flip):
        A = A.copy()
        A[flip, :] *= -1.0
        b[flip] *= -1.0

    # Phase 1: artificial identity basis.
    A1 = np.hstack([A, np.eye(m)])
    c1 = np.concatenate([np.zeros(n), np.ones(m)])
    basis = list(range(n, n + m))
    binv = np.eye(m)
    status, xb, it1 = _simplex_phase(c1, A1, b, basis, binv, max_iters, tol)
    feas = float(c1[basis] @ xb)
    scale = 1.0 + float(np.max(np.abs(b))) if m else 1.0
    if status == "iteration_limit":
        return LpResult("iteration_limit", None, math.nan, it1)
    if feas > 1e-8 * scale:
        return LpResult("infeasible", None, math.inf, it1)

    # Drive leftover artificials out of the basis; drop redundant rows.
    keep_rows = np.ones(m, dtype=bool)
    for r in range(m):
        if basis[r] >= n:
            row = binv[r, :] @ A
            pivots = np.flatnonzero(np.abs(row) > 1e-9)
            if pivots.size:
                d = binv @ A[:, pivots[0]]
                _pivot_update(binv, d, r)
                basis[r] = int(pivots[0])
            else:
                keep_rows[r] = False
    if not np.all(keep_rows):
        rows = np.flatnonzero(keep_rows)
        A = A[rows, :]
        b = b[rows]
        basis = [basis[r] for r in rows]
        m = len(rows)
        binv = np.linalg.inv(A[:, basis])

    status, xb, it2 = _simplex_phase(c, A, b, basis, binv, max_iters, tol)
    if status != "optimal":
        return LpResult(status, None, math.nan if status != "unbounded" else -math.inf, it1 + it2)
    x = np.zeros(n)
    x[np.asarray(basis, dtype=int)] = np.maximum(xb, 0.0)
    return LpResult("optimal", x, float(c @ x), it1 + it2)


def atom_lp(cost, families, slack_cost: float | None = None) -> LpResult:
    """Minimise <cost, x> over nonnegative atom tensors x under equality
    constraint families.

    Each family is a (rows, coeff, target) triple: atom a adds coeff[a] to
    row rows[a] of the family, whose right-hand sides are ``target``
    (raveled); rows and coeff broadcast to ``cost.shape``.  Atoms whose cost
    is not finite are dropped; the others become columns in the C order of
    the tensor.  ``slack_cost`` adds one identity slack column per row at
    that price, which relaxes every constraint to <=.  The result's ``x``
    is a read-only array of the tensor's shape (0 on dropped atoms, slacks
    left out), or None when the LP is not solved to optimality.
    """
    cost = np.asarray(cost, dtype=float)
    keep = np.flatnonzero(np.isfinite(cost))
    b = np.concatenate([np.ravel(target) for _, _, target in families])
    n_slack = 0 if slack_cost is None else b.size
    A = np.zeros((b.size, keep.size + n_slack))
    cols = np.arange(keep.size)
    offset = 0
    for rows, coeff, target in families:
        rows = np.broadcast_to(rows, cost.shape).ravel()[keep]
        A[offset + rows, cols] += np.broadcast_to(coeff, cost.shape).ravel()[keep]
        offset += np.size(target)
    A[np.arange(n_slack), keep.size + np.arange(n_slack)] = 1.0
    c = np.append(cost.ravel()[keep], [slack_cost] * n_slack)
    res = solve_lp(c, A, b)
    if not res.optimal:
        return res
    x = np.zeros(cost.size)
    x[keep] = res.x[:keep.size]
    x = x.reshape(cost.shape)
    x.flags.writeable = False
    return replace(res, x=x)


def balanced_masses(m0: float, m1: float) -> bool:
    """Whether two total masses agree to 1e-9 relative to 1 + m0 + m1: the
    one mass-balance test of the balanced LPs and solves."""
    return abs(m0 - m1) <= 1e-9 * (1.0 + m0 + m1)


def transport_lp(mu: np.ndarray, nu: np.ndarray, cost: np.ndarray
                 ) -> tuple[np.ndarray | None, float, str]:
    """Classical balanced optimal transport as a dense LP.

    Returns (plan, value, status); value is +inf with status 'infeasible'
    when the masses differ (``balanced_masses``) or when infinite costs
    block every coupling.
    """
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    if not balanced_masses(float(mu.sum()), float(nu.sum())):
        return None, math.inf, "infeasible"
    # both row and column sums; the simplex drops the one redundant row
    i, j = np.ix_(np.arange(mu.size), np.arange(nu.size))
    res = atom_lp(cost, [(i, 1.0, mu), (j, 1.0, nu)])
    if not res.optimal:
        return None, math.inf, res.status
    return res.x, res.value, "optimal"
