"""Two-phase revised simplex with implicit pricing, and the one builder of
atom LPs.

Solves  min c.x  subject to  A x = b, x >= 0  where A has few rows (the
homogeneous-marginal constraint families) and possibly very many columns
(one per grid atom).  A is never formed: an ``AtomMatrix`` keeps each
constraint family as its (rows, coeff) pair broadcast over the atom cost
tensor, and phase 1's artificial columns as an implicit identity block.
A full pricing pass computes the reduced costs c - A^T y by broadcasting
the row duals over the tensor, one family at a time, and keeps the
``_CANDIDATES`` columns that price lowest, ties going to the lowest
index, as a candidate list (``AtomMatrix._select``).  Each pivot prices
only that list, with the same arithmetic as a full pass, and enters its
most negative column (first index on ties); a full pass runs again only
when no candidate prices negative, and then either refills the list or
proves optimality.  The first pivot after a full pass is the Dantzig choice
over every column (first index in C order on ties), and ``full_pricing``
makes every pivot one.  The basis inverse is kept explicitly and updated by
pivoting; only the entering column and, at each refactorisation, the m
basic columns are formed.  A Bland fallback after a degenerate stall,
pricing every column, guarantees termination.  A start basis (basic
columns and kept rows) replaces phase 1, and an optimal result carries
its basis and row duals, so one solve can start another.  Two crash
builders make starts: a matrix-minimum allocation for transport LPs and
one singleton atom per row (the apex atoms of radial node 0); each returns
None when it has no feasible start, and only then does phase 1 run.

``atom_lp`` assembles every LP of the package: an atom cost tensor plus
constraint families, each a (rows, coeff, target) triple whose constraints
are sharp equalities.  Every lift, the extended-space LP and classical
transport go through it, and its ``LpResult`` is the one outcome type of
every LP.  A dense ``A`` given to ``solve_lp`` runs as an ``AtomMatrix``
with one single-row family per row, through the same loop.

Desk scale only: a few hundred rows.  Memory is a few arrays the size of
the cost tensor (costs of each phase and the reduced costs) plus the
O(m^2) basis inverse; the 1.4e6-atom second-order lift needs tens of MB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

_REFACTOR_EVERY = 64
_CANDIDATES = 200  # columns kept from a full pricing pass
_SELECT_BLOCK = 1 << 16  # reduced costs scanned at a time when selecting them
_STALL_LIMIT = 60
_TOL = 1e-11  # pricing, ratio-test and stall tolerance
_FEASIBLE = 1e-8  # infeasibility accepted, relative to 1 + sum |b|


@dataclass
class LpResult:
    status: str  # optimal | infeasible | unbounded | iteration_limit
    x: np.ndarray | None
    value: float
    iterations: int
    basis: tuple[np.ndarray, np.ndarray] | None = None  # (basic columns, kept rows)
    duals: np.ndarray | None = None  # row duals, 0 on dropped rows

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


class AtomMatrix:
    """Equality-constraint matrix of an atom LP, kept as its families.

    Columns are the atoms of a tensor of shape ``atoms`` in C order, then,
    when ``artificial`` holds, phase 1's m artificial columns: column r of
    that block is the unit vector e_r.
    Atom a adds coeff[a] to row rows[a] of the whole matrix for every
    (rows, coeff) pair of ``families``; both broadcast to ``atoms``.
    ``kept`` lists the rows that remain after redundant ones are dropped
    (all m when None).
    """

    def __init__(self, atoms: tuple, families: tuple, m: int, artificial: bool = False,
                 kept: np.ndarray | None = None):
        self.atoms = atoms
        self.families = families
        self.m = m
        self.artificial = artificial
        self.kept = kept
        self._n_atoms = math.prod(atoms)

    @cached_property
    def _broadcast(self) -> tuple:
        """The families as read-only views of the tensor's shape, for columns."""
        return tuple((np.broadcast_to(rows, self.atoms), np.broadcast_to(coeff, self.atoms))
                     for rows, coeff in self.families)

    @property
    def shape(self) -> tuple[int, int]:
        rows = self.m if self.kept is None else self.kept.size
        return rows, self._n_atoms + (self.m if self.artificial else 0)

    def _price(self, c: np.ndarray, y: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out = c - A^T y over every column: the one pricing routine."""
        if self.kept is not None:  # dropped rows price at 0
            full = np.zeros(self.m)
            full[self.kept] = y
            y = full
        n_atoms = self._n_atoms
        acc = out[:n_atoms].reshape(self.atoms)
        if self.families:
            (rows, coeff), *rest = self.families
            np.multiply(y[rows], coeff, out=acc)
            for rows, coeff in rest:
                acc += y[rows] * coeff
            np.subtract(c[:n_atoms].reshape(self.atoms), acc, out=acc)
        else:
            out[:n_atoms] = c[:n_atoms]
        if self.artificial:
            np.subtract(c[n_atoms:], y, out=out[n_atoms:])
        return out

    def _select(self, cols) -> AtomMatrix:
        """The columns ``cols`` as a matrix of their own, one atom each.

        Every family keeps each atom column's row and coefficient (row 0
        and coefficient 0 on artificial columns), and the artificials' unit
        entries form one family more (row 0 and 0 on atom columns).
        ``_price`` on it with c[cols] gives exactly the reduced costs of a
        full pass on those columns: the same products and sums, in the
        same order, plus exact zeros.
        """
        cols = np.asarray(cols, dtype=np.intp)
        n_atoms = self._n_atoms
        atom = cols < n_atoms
        at = np.unravel_index(np.where(atom, cols, 0), self.atoms)
        families = [(np.where(atom, rows[at], 0), np.where(atom, coeff[at], 0.0))
                    for rows, coeff in self._broadcast]
        if self.artificial:
            families.append((np.where(atom, 0, cols - n_atoms), np.where(atom, 0.0, 1.0)))
        return AtomMatrix((cols.size,), tuple(families), self.m, kept=self.kept)

    def _columns(self, cols) -> np.ndarray:
        """The dense m x len(cols) submatrix A[:, cols]."""
        select = self._select(cols)
        out = np.zeros((self.m, select._n_atoms))
        pos = np.arange(select._n_atoms)
        # one column lands in one row per family, so no (row, pos) pair repeats
        for rows, coeff in select.families:
            out[rows, pos] += coeff
        return out if self.kept is None else out[self.kept]

    def _flipped(self, flip: np.ndarray) -> AtomMatrix:
        """The matrix with the rows where ``flip`` holds negated."""
        sign = np.where(flip, -1.0, 1.0)
        families = tuple((rows, sign[rows] * coeff) for rows, coeff in self.families)
        return AtomMatrix(self.atoms, families, self.m)


def _pivot_update(binv: np.ndarray, d: np.ndarray, row: int) -> None:
    """In-place product-form update of the basis inverse after a pivot."""
    piv = d[row]
    binv[row, :] /= piv
    others = np.arange(binv.shape[0]) != row
    binv[others, :] -= np.outer(d[others], binv[row, :])


def _candidates(reduced: np.ndarray, k: int) -> np.ndarray:
    """Ascending indices of the k columns that come first in the order
    (reduced cost, index) among those pricing below -_TOL: on ties at the
    cut the lowest indices stay, as in Dantzig's rule.  Scans ``reduced``
    block by block so that no temporary grows with its length."""
    best = np.empty(0, dtype=np.intp)
    bound = -_TOL  # once the list is full, a column must price below its worst
    for start in range(0, reduced.size, _SELECT_BLOCK):
        block = reduced[start:start + _SELECT_BLOCK]
        # later blocks hold higher indices, so the pool stays ascending
        pool = np.concatenate([best, np.flatnonzero(block < bound) + start])
        if pool.size > k:
            values = reduced[pool]
            bound = float(np.partition(values, k - 1)[k - 1])
            below = values < bound
            ties = np.flatnonzero(values == bound)[:k - np.count_nonzero(below)]
            below[ties] = True
            pool = pool[below]
        best = pool
    return best


def _simplex_phase(c, A, b, basis, binv, max_iters, list_size):
    """Run primal simplex from a feasible basis; mutates basis/binv.

    Prices a list of ``list_size`` candidates at each pivot and every
    column only to refill the list, to prove optimality or under Bland's
    rule; a list size of 0 prices every column at every pivot.
    Returns (status, xB, iterations).
    """
    m, n = A.shape
    xb = binv @ b
    if n == 0:
        return "optimal", xb, 0
    reduced = np.empty(n)
    cand = np.empty(0, dtype=np.intp)
    stall = 0
    bland = False
    iters = 0
    last_value = math.inf
    for iters in range(1, max_iters + 1):
        if iters % _REFACTOR_EVERY == 0:
            binv[:] = np.linalg.inv(A._columns(basis))
            xb = binv @ b
        y = binv.T @ c[basis]
        enter = None
        if not bland and cand.size:
            listed._price(c_listed, y, priced)
            slot = np.minimum(np.searchsorted(cand, basis), cand.size - 1)
            priced[slot[cand[slot] == basis]] = 0.0  # basic columns price at 0
            i = int(np.argmin(priced))
            if priced[i] < -_TOL:
                enter = int(cand[i])
        if enter is None:
            A._price(c, y, reduced)
            reduced[basis] = 0.0
            if bland:
                negative = np.flatnonzero(reduced < -_TOL)
                if negative.size == 0:
                    return "optimal", xb, iters
                enter = int(negative[0])
            else:
                enter = int(np.argmin(reduced))
                if reduced[enter] >= -_TOL:
                    return "optimal", xb, iters
                if list_size:
                    cand = _candidates(reduced, list_size)
                    listed, c_listed, priced = A._select(cand), c[cand], np.empty(cand.size)
        col = A._columns([enter])[:, 0]
        d = binv @ col
        pos = d > _TOL
        if not np.any(pos):
            return "unbounded", xb, iters
        ratios = np.full(m, math.inf)
        ratios[pos] = xb[pos] / d[pos]
        leave = int(np.argmin(ratios))
        if bland:
            # smallest basic-variable index among the minimal ratios
            best = ratios[leave]
            ties = np.flatnonzero(ratios <= best + _TOL)
            leave = int(ties[np.argmin(np.asarray(basis)[ties])])
        step = ratios[leave]
        value = float(c[basis] @ xb)
        if step <= _TOL and value >= last_value - _TOL * (1.0 + abs(value)):
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


def solve_lp(c, A, b, *, full_pricing: bool = False, start=None) -> LpResult:
    """Minimize c.x over {A x = b, x >= 0} by two-phase revised simplex.

    ``A`` is an ``AtomMatrix`` or a dense array.  Columns whose cost is not
    finite cost +inf in both phases, so they never enter the basis.  Each
    phase stops with status 'iteration_limit' after 50 (m + n') + 1000
    pivots, n' the number of finite-cost columns.  ``full_pricing`` prices
    every column at every pivot (Dantzig's rule) instead of a candidate
    list: slower on wide LPs, and on LPs with several optimal vertices it
    returns the one that rule reaches.

    ``start`` = (basic columns, kept rows), the ``basis`` of an earlier
    result or a crash builder's, is a primal feasible basis that replaces
    phase 1: column k is basic in row kept[k], and the rows not kept are
    taken as redundant (one that is not is pivoted back in).  A start that
    is singular, holds a column of infinite cost or is infeasible raises
    ValueError.  An optimal result carries its ``basis`` in the same form
    and the row ``duals`` y of that basis, c - A^T y >= 0 up to _TOL, 0 on
    dropped rows.
    """
    if not isinstance(A, AtomMatrix):
        # a dense matrix: one single-row family per row
        A = np.asarray(A, dtype=float)
        if A.ndim != 2:
            raise ValueError("inconsistent LP dimensions")
        A = AtomMatrix((A.shape[1],), tuple((np.intp(r), row) for r, row in enumerate(A)),
                       A.shape[0])
    c = np.asarray(c, dtype=float)
    b = np.asarray(b, dtype=float).copy()
    m, n = A.shape
    if b.shape != (m,) or c.shape != (n,):
        raise ValueError("inconsistent LP dimensions")
    n_finite = int(np.count_nonzero(np.isfinite(c)))
    if n_finite < n:
        c = np.where(np.isfinite(c), c, math.inf)
    max_iters = 50 * (m + n_finite) + 1000
    list_size = 0 if full_pricing else _CANDIDATES

    flip = b < 0
    if np.any(flip):
        A = A._flipped(flip)
        b[flip] *= -1.0
    tol = _feasibility_tol(b)
    A1 = AtomMatrix(A.atoms, A.families, m, artificial=True)

    it1 = 0
    if start is None:
        # Phase 1: implicit artificial identity basis.
        c1 = np.zeros(n + m)
        c1[:n][c == math.inf] = math.inf
        c1[n:] = 1.0
        basis = list(range(n, n + m))
        binv = np.eye(m)
        status, xb, it1 = _simplex_phase(c1, A1, b, basis, binv, max_iters, list_size)
        if status == "iteration_limit":
            return LpResult("iteration_limit", None, math.nan, it1)
        if float(c1[basis] @ xb) > tol:
            return LpResult("infeasible", None, math.inf, it1)
        del c1
    else:
        basis, binv = _start_basis(c, A1, b, start, tol)

    # Drive leftover artificials out of the basis; drop redundant rows.
    # Pricing row r of binv against costs 0 (+inf on non-finite columns)
    # gives -(binv A)[r] on the finite columns and +inf on the others,
    # which may not pivot in.
    keep_rows = np.ones(m, dtype=bool)
    for r in range(m):
        if basis[r] >= n:
            row = A._price(np.where(c < math.inf, 0.0, math.inf), binv[r, :], np.empty(n))
            pivots = np.flatnonzero(np.isfinite(row) & (np.abs(row) > 1e-9))
            if pivots.size:
                d = binv @ A._columns(pivots[:1])[:, 0]
                _pivot_update(binv, d, r)
                basis[r] = int(pivots[0])
            else:
                keep_rows[r] = False
    kept = np.flatnonzero(keep_rows)
    if kept.size < m:
        A = AtomMatrix(A.atoms, A.families, A.m, kept=kept)
        b = b[kept]
        basis = [basis[r] for r in kept]
        binv = np.linalg.inv(A._columns(basis))

    status, xb, it2 = _simplex_phase(c, A, b, basis, binv, max_iters, list_size)
    if status != "optimal":
        return LpResult(status, None, math.nan if status != "unbounded" else -math.inf, it1 + it2)
    xb = np.maximum(xb, 0.0)
    x = np.zeros(n)
    x[basis] = xb
    duals = np.zeros(m)
    duals[kept] = binv.T @ c[basis]
    duals[flip] *= -1.0
    # c.x over the basic entries alone: a nonbasic atom is 0 and may cost +inf
    return LpResult("optimal", x, float(c[basis] @ xb), it1 + it2,
                    basis=(np.array(basis, dtype=np.intp), kept), duals=duals)


def _feasibility_tol(b) -> float:
    """Infeasibility solve_lp accepts: no less than balanced_masses allows."""
    return _FEASIBLE * (1.0 + float(np.sum(np.abs(b))))


def _start_basis(c, A1, b, start, tol) -> tuple[list, np.ndarray]:
    """The basis and basis inverse of a start, checked, over the matrix
    ``A1`` with its artificial block: each row that is not kept holds its
    artificial, which carries that row's residual."""
    m, n_all = A1.shape
    n = n_all - m
    cols, kept = (np.asarray(part, dtype=np.intp).ravel() for part in start)
    if (cols.size != kept.size or np.unique(kept).size != kept.size
            or not (np.all((cols >= 0) & (cols < n)) and np.all((kept >= 0) & (kept < m)))):
        raise ValueError("a start pairs each basic column with a kept row of its own")
    if not np.all(np.isfinite(c[cols])):
        raise ValueError("start basis holds a column of infinite cost")
    basis = list(range(n, n + m))
    for col, r in zip(cols, kept):
        basis[r] = int(col)
    columns = A1._columns(basis)
    try:
        binv = np.linalg.inv(columns)
    except np.linalg.LinAlgError:
        binv = None
    # singular to working precision: no inverse, or one whose product with
    # the basis misses the identity by about cond(B)·eps > 1e-6
    if binv is None or np.max(np.abs(binv @ columns - np.eye(m)), initial=0.0) > 1e-6:
        raise ValueError("start basis is singular")
    xb = binv @ b
    artificial = np.asarray(basis) >= n
    if np.any(xb[~artificial] < -tol) or float(np.sum(np.abs(xb[artificial]))) > tol:
        raise ValueError("start basis is infeasible")
    return basis, binv


def atom_lp(cost, families, *, full_pricing: bool = False, start=None) -> LpResult:
    """Minimise <cost, x> over nonnegative atom tensors x under equality
    constraint families.

    Each family is a (rows, coeff, target) triple: atom a adds coeff[a] to
    row rows[a] of the family, whose right-hand sides are ``target``
    (raveled); rows and coeff broadcast to ``cost.shape``.  The families
    stay in that broadcast form: the LP is priced on the cost tensor and
    only basic columns are ever formed (``AtomMatrix``).  Atoms whose cost
    is not finite never enter the basis.  ``full_pricing`` and ``start``
    go to ``solve_lp``; the LP's columns are the atoms in C order and its
    rows the families' rows in family order, in ``start``, ``basis`` and
    ``duals`` alike.  The result's ``x`` is a read-only array of the
    tensor's shape (0 on atoms of non-finite cost), or None when the LP is
    not solved to optimality.
    """
    cost = np.asarray(cost, dtype=float)
    b = np.concatenate([np.ravel(target) for _, _, target in families])
    pairs = [(offset + np.asarray(rows), np.asarray(coeff, dtype=float))
             for offset, (rows, coeff, _) in zip(_offsets(families), families)]
    # reshape, not ravel: a strided slice of a larger tensor stays a view
    res = solve_lp(cost.reshape(-1), AtomMatrix(cost.shape, tuple(pairs), b.size), b,
                   full_pricing=full_pricing, start=start)
    if not res.optimal:
        return res
    x = res.x.reshape(cost.shape)
    x.flags.writeable = False
    return replace(res, x=x)


def _offsets(families) -> list[int]:
    """The LP row of each family's first row: families stack in order."""
    return np.cumsum([0] + [np.size(target) for _, _, target in families])[:-1].tolist()


def _singleton_crash(cost, families):
    """A start for ``atom_lp(cost, families)`` made of singleton atoms.

    For each row it takes the cheapest atom of finite cost (the first in C
    order on ties) whose coefficient is positive in that row's family and 0
    in every other family, such as the apex atoms of a radial grid's node
    0.  The basis is diagonal, so it is feasible when every target is
    nonnegative.  None when a target is negative or a row has no such atom.
    """
    cost = np.asarray(cost, dtype=float)
    coeffs = [np.asarray(coeff) for _, coeff, _ in families]
    cols, kept = [], []
    for f, (offset, (rows, _, target)) in enumerate(zip(_offsets(families), families)):
        if np.any(np.asarray(target) < 0):
            return None
        alone = coeffs[f] > 0
        for g, other in enumerate(coeffs):
            if g != f:
                alone = alone & (other == 0)
        atoms = np.flatnonzero(np.broadcast_to(alone, cost.shape))
        at = np.unravel_index(atoms, cost.shape)
        row, price = np.broadcast_to(rows, cost.shape)[at], cost[at]
        pick = np.lexsort((atoms, price, row))  # non-finite prices sort last
        found, first = np.unique(row[pick], return_index=True)
        pick = pick[first]
        if found.size < np.size(target) or not np.all(np.isfinite(price[pick])):
            return None
        cols.append(atoms[pick])
        kept.append(offset + found)
    return np.concatenate(cols), np.concatenate(kept)


def _transport_crash(cost, families):
    """A start for a transport atom LP: ``cost`` holds the (i, j) cells in C
    order, and ``families`` are the rows i with masses mu, then the rows j
    with masses nu, as ``transport_lp`` builds them, or such an LP with
    every coefficient scaled by one positive factor.

    A matrix-minimum allocation.  Cells are taken in the order (cost,
    index), skipping those whose row or column is closed, and each take
    closes the row or the column with less mass left (the row on ties; the
    only other one once a single row or column is open).  The n0 + n1 - 1
    cells taken, zero cells among them, span a tree, and the last row is
    dropped as redundant.  None when a take would need a cell of infinite
    cost, or when a coefficient that is not positive, a negative mass or
    masses unbalanced past solve_lp's feasibility test leave no feasible
    start.
    """
    (_, coeff0, mu), (_, coeff1, nu) = families
    mu = np.array(mu, dtype=float).ravel()
    nu = np.array(nu, dtype=float).ravel()
    n0, n1 = mu.size, nu.size
    cost = np.asarray(cost, dtype=float).reshape(n0, n1)
    # half solve_lp's tolerance, so that the start always passes its test
    if (n0 == 0 or n1 == 0 or np.any(np.asarray(coeff0) <= 0) or np.any(np.asarray(coeff1) <= 0)
            or np.any(mu < 0) or np.any(nu < 0)
            or abs(float(mu.sum() - nu.sum())) > 0.5 * _feasibility_tol(np.r_[mu, nu])):
        return None
    open0, open1 = np.ones(n0, dtype=bool), np.ones(n1, dtype=bool)
    left0, left1 = n0, n1
    cells = []
    for cell in np.argsort(cost, axis=None, kind="stable").tolist():
        i, j = divmod(cell, n1)
        if not (open0[i] and open1[j]):
            continue
        if not math.isfinite(cost[i, j]):
            return None
        cells.append(cell)
        if left0 == 1 and left1 == 1:
            break
        if left1 > 1 and (left0 == 1 or nu[j] < mu[i]):
            mu[i] -= nu[j]
            open1[j] = False
            left1 -= 1
        else:
            nu[j] -= mu[i]
            open0[i] = False
            left0 -= 1
    return np.array(cells, dtype=np.intp), np.arange(n0 + n1 - 1)


def balanced_masses(m0: float, m1: float) -> bool:
    """Whether two total masses agree to 1e-9 relative to 1 + m0 + m1: the
    one mass-balance test of the balanced LPs and solves."""
    return abs(m0 - m1) <= 1e-9 * (1.0 + m0 + m1)


def transport_lp(mu: np.ndarray, nu: np.ndarray, cost: np.ndarray) -> LpResult:
    """Classical balanced optimal transport as an atom LP over the (i, j) pairs.

    Returns ``atom_lp``'s result, whose ``x`` is the plan.  The status is
    'infeasible', with value +inf and no plan, when the masses differ
    (``balanced_masses``) or when infinite costs block every coupling.
    """
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    if not balanced_masses(float(mu.sum()), float(nu.sum())):
        return LpResult("infeasible", None, math.inf, 0)
    # both row and column sums; one of them is redundant
    i, j = np.ix_(np.arange(mu.size), np.arange(nu.size))
    families = [(i, 1.0, mu), (j, 1.0, nu)]
    return atom_lp(cost, families, start=_transport_crash(cost, families))
