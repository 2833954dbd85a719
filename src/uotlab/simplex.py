"""Two-phase revised simplex with implicit pricing, and the one builder of
atom LPs.

Solves  min c.x  subject to  A x = b, x >= 0  where A has few rows (the
homogeneous-marginal constraint families) and possibly very many columns
(one per grid atom).  A is never formed: an ``AtomMatrix`` keeps each
constraint family as its (rows, coeff) pair broadcast over the atom cost
tensor, and phase 1's artificial columns as an implicit identity block.
A full pricing pass computes the reduced costs c - A^T y by broadcasting
the row duals over the tensor, one family at a time, summed in family
order on the families' own mesh until it spans the tensor, and keeps the
``_CANDIDATES`` columns that price lowest, ties going to the lowest
index, as a candidate list (``AtomMatrix._select``).  Each pivot prices
only that list, with the same arithmetic as a full pass, and enters its
most negative column (first index on ties); a full pass runs again only
when no candidate prices negative, and then either refills the list or
proves optimality.  The first pivot after a full pass is the Dantzig choice
over every column (first index in C order on ties), and ``full_pricing``
makes every pivot one.  The basis inverse is kept explicitly and updated by
pivoting; only the entering column and, at each refactorisation, the m
basic columns are formed, gathered from the families' broadcast views one
family at a time.  A Bland fallback after a degenerate stall, pricing
every column, guarantees termination.  Every result counts its work per
run of the loop (``PhaseCounts``: pivots, full pricing passes, list
refills, refactorisations, whether Bland's rule fired).  A start basis (basic
columns and kept rows) replaces phase 1, and an optimal result carries
its basis and row duals, so one solve can start another.  Two crash
builders make starts: a matrix-minimum allocation for transport LPs and
one singleton atom per row (the apex atoms of radial node 0); each returns
None when it has no feasible start, and only then does phase 1 run.

The wide atom LPs take one multiscale start (``_multiscale_lp``), after
Schmitzer's sparse multiscale transport solver (arXiv:1510.05466), in
three stages over the tensor's radial axes: the LP on a sub-grid of those
axes, from the apex-atom crash; then on the shielding neighbourhood of the
basis (every atom within one radial node of a basic atom along each
thinned axis) from that basis, again while the neighbourhood changes; and
last the full LP from the final basis, so the tensor is priced about
once, to prove optimality.

``atom_lp`` assembles every LP of the package: an atom cost tensor plus
constraint families, each a (rows, coeff, target) triple whose constraints
are sharp equalities.  Every lift, the extended-space LP and classical
transport go through it, and its ``LpResult`` is the one outcome type of
every LP.  A dense ``A`` given to ``solve_lp`` runs as an ``AtomMatrix``
with one single-row family per row, through the same loop.

Desk scale only: a few hundred rows.  Memory is a few arrays the size of
the cost tensor (costs of each phase and the reduced costs) plus the
O(m^2) basis inverse, 8 bytes per atom each: 3.6 MB for the 455,877
atoms of an extended lift on three 37-node grids and three points a side.
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
_SUB_GRID_STRIDE = 3  # positive nodes per kept node of a multiscale start's sub-grid
_SHIELD_ROUNDS = 8  # neighbourhood solves of a multiscale start, at most


@dataclass(frozen=True)
class PhaseCounts:
    """The work of one run of the simplex loop, phase 1 or phase 2."""
    phase: int
    pivots: int  # iterations of the loop; an optimal run's last one proves it
    full_passes: int  # pricing passes over every column
    refills: int  # candidate lists made from a full pass
    refactorisations: int  # basis inverses formed anew
    bland: bool  # whether Bland's rule took over after a degenerate stall


@dataclass
class LpResult:
    status: str  # optimal | infeasible | unbounded | iteration_limit
    x: np.ndarray | None
    value: float
    iterations: int  # the pivots of every phase run
    basis: tuple[np.ndarray, np.ndarray] | None = None  # (basic columns, kept rows)
    duals: np.ndarray | None = None  # row duals, 0 on dropped rows
    phases: tuple[PhaseCounts, ...] = ()  # in the order they ran; no phase 1 from a start
    rows_dropped: int = 0  # rows found redundant after phase 1 or in the start
    started: bool = False  # whether a start basis replaced phase 1

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

    @cached_property
    def _spans(self) -> tuple:
        """Per family, whether ``_price``'s running sum of the family terms
        up to it spans the whole tensor, and so is summed in place."""
        spans, shape = [], ()
        for rows, coeff in self.families:
            shape = np.broadcast_shapes(np.shape(rows), np.shape(coeff), shape)
            spans.append(math.prod(shape) >= self._n_atoms)
            if spans[-1]:
                shape = self.atoms
        return tuple(spans)

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
            # Sum the family terms in order on their joint broadcast mesh
            # while it is smaller than the tensor, then in ``acc``: the same
            # additions, so the same bits, in fewer full-size passes.
            total = None
            for (rows, coeff), spans in zip(self.families, self._spans):
                into = acc if spans else None
                if total is None:
                    total = np.multiply(y[rows], coeff, out=into)
                else:
                    total = np.add(total, y[rows] * coeff, out=into)
            np.subtract(c[:n_atoms].reshape(self.atoms), total, out=acc)
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
        """The dense m x len(cols) submatrix A[:, cols], gathered from the
        family views one family at a time, in family order, then the
        artificial columns' unit entries."""
        cols = np.asarray(cols, dtype=np.intp)
        n_atoms = self._n_atoms
        out = np.zeros((self.m, cols.size))
        pos = np.flatnonzero(cols < n_atoms)
        at = np.unravel_index(cols[pos], self.atoms)
        # one column lands in one row per family, so no (row, pos) pair repeats
        for rows, coeff in self._broadcast:
            out[rows[at], pos] += coeff[at]
        if self.artificial:
            pos = np.flatnonzero(cols >= n_atoms)
            out[cols[pos] - n_atoms, pos] = 1.0
        return out if self.kept is None else out[self.kept]

    def _column(self, col: int) -> np.ndarray:
        """Column ``col`` of A, as ``_columns([col])[:, 0]`` gathers it, with
        scalar reads of the family views: the entering column of a pivot."""
        out = np.zeros(self.m)
        if col < self._n_atoms:
            at = np.unravel_index(col, self.atoms)
            for rows, coeff in self._broadcast:
                out[rows[at]] += coeff[at]
        else:
            out[col - self._n_atoms] = 1.0
        return out if self.kept is None else out[self.kept]

    def _flipped(self, flip: np.ndarray) -> AtomMatrix:
        """The matrix with the rows where ``flip`` holds negated."""
        sign = np.where(flip, -1.0, 1.0)
        families = tuple((rows, sign[rows] * coeff) for rows, coeff in self.families)
        return AtomMatrix(self.atoms, families, self.m)


def _pivot_update(binv: np.ndarray, d: np.ndarray, row: int, outer: np.ndarray) -> None:
    """In-place product-form update of the basis inverse after a pivot:
    each other row takes off d[i] times the scaled pivot row.  ``outer`` is
    an m x m work buffer."""
    binv[row, :] /= d[row]
    pivot_row = binv[row, :].copy()
    np.multiply(d[:, None], pivot_row, out=outer)
    binv -= outer  # the pivot row too, restored below
    binv[row, :] = pivot_row


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


def _simplex_phase(c, A, b, basis, binv, max_iters, list_size, phase):
    """Run primal simplex from a feasible basis; mutates basis/binv.

    Prices a list of ``list_size`` candidates at each pivot and every
    column only to refill the list, to prove optimality or under Bland's
    rule; a list size of 0 prices every column at every pivot.
    Returns (status, xB, the run's PhaseCounts).
    """
    m, n = A.shape
    xb = binv @ b
    if n == 0:
        return "optimal", xb, PhaseCounts(phase, 0, 0, 0, 0, False)
    status = "iteration_limit"
    reduced = np.empty(n)
    ratios = np.empty(m)  # ratio-test buffer, refilled at each pivot
    outer = np.empty((m, m))  # the basis inverse's update
    shift = np.empty(m)  # step * d
    cb = c[basis]  # the basic costs, kept in step with the basis
    cand = np.empty(0, dtype=np.intp)
    stall = passes = refills = refactors = 0
    bland = False
    iters = 0
    last_value = math.inf
    for iters in range(1, max_iters + 1):
        if iters % _REFACTOR_EVERY == 0:
            binv[:] = np.linalg.inv(A._columns(basis))
            xb = binv @ b
            refactors += 1
        y = binv.T @ cb
        enter = None
        if not bland and cand.size:
            listed._price(c_listed, y, priced)
            priced[basic] = 0.0  # basic columns price at 0
            i = priced.argmin()
            if priced[i] < -_TOL:
                enter = int(cand[i])
        if enter is None:
            A._price(c, y, reduced)
            passes += 1
            reduced[basis] = 0.0
            if bland:
                negative = np.flatnonzero(reduced < -_TOL)
                if negative.size == 0:
                    status = "optimal"
                    break
                enter = int(negative[0])
            else:
                enter = int(reduced.argmin())
                if reduced[enter] >= -_TOL:
                    status = "optimal"
                    break
                if list_size:
                    # columns that price below -_TOL, so none of them is basic
                    cand = _candidates(reduced, list_size)
                    refills += 1
                    listed, c_listed, priced = A._select(cand), c[cand], np.empty(cand.size)
                    basic = np.zeros(cand.size, dtype=bool)
        d = binv @ A._column(enter)
        pos = d > _TOL
        if not pos.any():
            status = "unbounded"
            break
        ratios.fill(math.inf)
        np.divide(xb, d, out=ratios, where=pos)
        leave = int(ratios.argmin())
        if bland:
            # smallest basic-variable index among the minimal ratios
            best = ratios[leave]
            ties = np.flatnonzero(ratios <= best + _TOL)
            leave = int(ties[basis[ties].argmin()])
        step = ratios[leave]
        value = float(cb @ xb)
        if step <= _TOL and value >= last_value - _TOL * (1.0 + abs(value)):
            stall += 1
            if stall > _STALL_LIMIT:
                bland = True
        else:
            stall = 0
        last_value = value
        _pivot_update(binv, d, leave, outer)
        if cand.size:
            for col, mark in ((int(basis[leave]), False), (enter, True)):
                slot = int(np.searchsorted(cand, col))
                if slot < cand.size and cand[slot] == col:
                    basic[slot] = mark
        basis[leave] = enter
        cb[leave] = c[enter]
        np.multiply(d, step, out=shift)
        xb -= shift
        xb[leave] = step
        np.maximum(xb, 0.0, out=xb)
    return status, xb, PhaseCounts(phase, iters, passes, refills, refactors, bland)


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

    phases = []
    if start is None:
        # Phase 1: implicit artificial identity basis.
        c1 = np.zeros(n + m)
        c1[:n][c == math.inf] = math.inf
        c1[n:] = 1.0
        basis = np.arange(n, n + m, dtype=np.intp)
        binv = np.eye(m)
        status, xb, counts = _simplex_phase(c1, A1, b, basis, binv, max_iters, list_size, 1)
        phases.append(counts)
        if status == "iteration_limit":
            return LpResult("iteration_limit", None, math.nan, counts.pivots, phases=(counts,))
        if float(c1[basis] @ xb) > tol:
            return LpResult("infeasible", None, math.inf, counts.pivots, phases=(counts,))
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
                d = binv @ A._column(int(pivots[0]))
                _pivot_update(binv, d, r, np.empty((m, m)))
                basis[r] = int(pivots[0])
            else:
                keep_rows[r] = False
    kept = np.flatnonzero(keep_rows)
    if kept.size < m:
        A = AtomMatrix(A.atoms, A.families, A.m, kept=kept)
        b = b[kept]
        basis = basis[kept]
        binv = np.linalg.inv(A._columns(basis))

    status, xb, counts = _simplex_phase(c, A, b, basis, binv, max_iters, list_size, 2)
    phases.append(counts)
    work = dict(iterations=sum(ph.pivots for ph in phases), phases=tuple(phases),
                rows_dropped=m - kept.size, started=start is not None)
    if status != "optimal":
        return LpResult(status, None, math.nan if status != "unbounded" else -math.inf, **work)
    xb = np.maximum(xb, 0.0)
    x = np.zeros(n)
    x[basis] = xb
    duals = np.zeros(m)
    duals[kept] = binv.T @ c[basis]
    duals[flip] *= -1.0
    # c.x over the basic entries alone: a nonbasic atom is 0 and may cost +inf
    return LpResult("optimal", x, float(c[basis] @ xb),
                    basis=(basis, kept), duals=duals, **work)


def _feasibility_tol(b) -> float:
    """Infeasibility solve_lp accepts: no less than balanced_masses allows."""
    return _FEASIBLE * (1.0 + float(np.sum(np.abs(b))))


def _start_basis(c, A1, b, start, tol) -> tuple[np.ndarray, np.ndarray]:
    """The basis and basis inverse of a start, checked, over the matrix
    ``A1`` with its artificial block: each row that is not kept holds its
    artificial, which carries that row's residual."""
    m, n_all = A1.shape
    n = n_all - m
    cols, kept = (np.asarray(part, dtype=np.intp).ravel() for part in start)
    # no np.unique here or in _singleton_crash: its first call imports
    # numpy.ma, about 2 MB resident that no LP has a use for
    if (cols.size != kept.size or len(set(kept.tolist())) != kept.size
            or not (np.all((cols >= 0) & (cols < n)) and np.all((kept >= 0) & (kept < m)))):
        raise ValueError("a start pairs each basic column with a kept row of its own")
    if not np.all(np.isfinite(c[cols])):
        raise ValueError("start basis holds a column of infinite cost")
    basis = np.arange(n, n + m, dtype=np.intp)
    basis[kept] = cols
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
    artificial = basis >= n
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
    res.x.flags.writeable = False  # and so its reshaped view, which value types share
    return replace(res, x=res.x.reshape(cost.shape))


def _multiscale_lp(cost, families, axes) -> LpResult:
    """``atom_lp(cost, families)`` from a multiscale start over the radial
    axes ``axes`` of the tensor: solved on their sub-grid (``_sub_grid``)
    from the apex-atom crash (``_singleton_crash``), then on the shielding
    neighbourhood of that basis (``_neighbourhood``) from it, again while
    that neighbourhood changes, at most ``_SHIELD_ROUNDS`` times, and last in
    full from the final basis, so that the full tensor is priced about once,
    to prove optimality.  Rows and coefficients are arrays of the tensor's
    ndim (``np.ix_``).  When the sub-grid is the whole tensor, the LP is
    solved once, from the crash.

    Each restricted LP has the full LP's rows and a subset of its columns
    holding the last basis, so that basis is feasible in the next LP, and
    its value is never below the full LP's: each is feasible and bounded
    whenever the full LP is, given a sub-grid that holds the apex atoms
    that alone meet every constraint (node 0 and the top node of each
    axis).  A restricted result that is not optimal is returned as it is.
    """
    cost = np.asarray(cost, dtype=float)
    keep = [_sub_grid(k) if ax in axes else np.arange(k) for ax, k in enumerate(cost.shape)]
    if all(k.size == n for k, n in zip(keep, cost.shape)):
        return atom_lp(cost, families, start=_singleton_crash(cost, families))
    sub = _restrict(cost, keep)
    sub_families = [(_restrict(rows, keep), _restrict(coeff, keep), target)
                    for rows, coeff, target in families]
    res = atom_lp(sub, sub_families, start=_singleton_crash(sub, sub_families))
    if not res.optimal:
        return res
    cols, kept = res.basis
    at = np.unravel_index(cols, sub.shape)
    cols = np.ravel_multi_index(tuple(k[i] for k, i in zip(keep, at)), cost.shape)
    near = None
    for _ in range(_SHIELD_ROUNDS):
        around = _neighbourhood(cols, cost.shape, axes)
        if near is not None and np.array_equal(around, near):
            break  # the basis is optimal on its own neighbourhood
        near = around
        at = np.unravel_index(near, cost.shape)
        near_families = [(np.broadcast_to(rows, cost.shape)[at],
                          np.broadcast_to(coeff, cost.shape)[at], target)
                         for rows, coeff, target in families]
        res = atom_lp(cost[at], near_families, start=(np.searchsorted(near, cols), kept))
        if not res.optimal:
            return res
        cols, kept = near[res.basis[0]], res.basis[1]
    return atom_lp(cost, families, start=(cols, kept))


def _neighbourhood(cols, shape, axes) -> np.ndarray:
    """The ascending flat indices of the atoms within one node of an atom
    of ``cols`` along each axis of ``axes``, and equal to it along the
    others: the shielding neighbourhood of a basis."""
    at = np.unravel_index(np.asarray(cols, dtype=np.intp), shape)
    steps = np.indices((3,) * len(axes)).reshape(len(axes), -1) - 1
    index = [np.broadcast_to(i[:, None], (i.size, steps.shape[1])) for i in at]
    for ax, step in zip(axes, steps):
        index[ax] = np.clip(at[ax][:, None] + step, 0, shape[ax] - 1)
    # sorted and deduplicated by hand: np.unique's first call imports numpy.ma
    near = np.sort(np.ravel_multi_index(tuple(index), shape), axis=None)
    return near[np.diff(near, prepend=-1) != 0]


def _restrict(a, keep) -> np.ndarray:
    """The open-mesh array ``a`` on the indices ``keep`` of each axis along
    which it varies, ``a[np.ix_(*keep)]`` there."""
    a = np.asarray(a)
    return a[np.ix_(*(k if n > 1 else np.zeros(1, dtype=np.intp)
                      for k, n in zip(keep, a.shape)))]


def _sub_grid(k: int) -> np.ndarray:
    """Node 0, every ``_SUB_GRID_STRIDE``-th positive node and the top node
    of a k-node radial grid."""
    return np.array(sorted({0, k - 1, *range(1, k, _SUB_GRID_STRIDE)}))


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
        row = row[pick]  # ascending
        first = np.flatnonzero(np.diff(row, prepend=-1))  # each row's cheapest atom
        found, pick = row[first], pick[first]
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
