"""Extended-space formulation over location-radial atoms.

A plan here is an ``AtomPlan``: a nonnegative weight tensor over atoms
(x0, s0, x1, s1) where the s_i run over finite radial grids (the lifting
module adds a pair-space radial axis S to the same type).  A radial node is
a homogeneous-mass coordinate: the homogeneous marginal of a plan is the
projection to X weighted by s_i, and the problem

    inf (H, alpha)   s.t.  h_i alpha = mu_i,   H = H(s0, s1, c),

is a linear program over the atoms because the objective is linear in the
weights; ``simplex.atom_lp`` builds and solves it from the cost tensor and
the two s_i-weighted families.  The constraints are sharp: an atom with
s_j = 0 (the apex of the cone) costs s_i, the defect price F(0) = 1 per
unit of unmatched mass.  The entropic regularisation adds eps * Div(alpha |
nu_Y) for a probability reference nu_Y and is solved by alternating KL
projections onto the two homogeneous-marginal constraint families
(generalized iterative scaling): each projection multiplies alpha by
exp(lambda(x_i) s_i).  As an (n0 K0) x (n1 K1) matrix over (point,
radial node) lines, alpha is nu_Y exp(-H/eps) scaled by the line
potentials lambda_i s_k, so these are the iterations of
``solver_x.scaling_kernel`` from zero tilts, on the log-kernel that
``solver_x.log_kernel`` builds from nu_Y and H, with another marginal
step, a ``ScalingStep`` with no translation: its mat-vec gives each line's
log-sum-exp over the other side's atoms, M[i, k] once the line's own tilt
is added, and the tilt changes delta_i solve

    LSE_k(M[i, k] + log s_k + delta_i s_k) = log mu_i

for all points at once by a batched Newton iteration from delta = 0.  The
step over-relaxes its own tilts, point by point: lambda_i moves by
omega delta_i, omega = max(1, 2/(1 + sqrt(eps/2))), where that does not
lower the dual, which given the other side's tilts is separable over the
points, and by delta_i elsewhere.

Radial grids default to geometric spacing below the mass cap
s* = mu0(X) + mu1(X); rescaling by the pushforward
(x0, s0, x1, s1) -> (x0, s0/theta, x1, s1/theta) with
theta = (s0 + s1) / s* normalises any plan to unit mass without
changing the objective, which is exact thanks to the 1-homogeneity of H.
The rescaled atoms leave the grid and form an ``AtomCloud``; plans and clouds
share one implementation of the marginals, the objective and the rescaling.

The stop test reads the homogeneous marginals off the line marginals the
kernel computes every iteration; the row mat-vec they need is the next
iteration's first reduction; the report reads the primal value off the
same marginal defects.  Plans are immutable snapshots.

A plan's ordinary marginals on X x R+, its (x0, s0) and (x1, s1)
projections, pose balanced transport under H (the cone construction of
Liero, Mielke and Savare, arXiv:1508.07941); ``extended_ot_value`` solves
it, equal to (H, alpha) at an optimal plan and below it elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .costs import CostMatrix, perspective_H, perspective_H_eps
from .measures import (DiscreteMeasure, GroundMismatchError, GroundSet, Plan, _frozen_array,
                       _read_only)
from .simplex import LpResult, _multiscale_lp, transport_lp
from .solver_x import (ScalingStep, SolveReport, SolverConfig, _check_instance, log_kernel,
                       scaling_kernel)

_TILT_TOL = 1e-14           # stop when |LSE - log mu| falls below this
_TILT_MAX_STEPS = 200       # Newton steps per tilt before giving up


class InfeasibleProblemError(RuntimeError):
    """No grid atom can carry the mass a constraint requires."""


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

def _check_cost(cost: CostMatrix, row_ground: GroundSet, col_ground: GroundSet) -> None:
    """GroundMismatchError unless the cost is over the two grounds' point pairs."""
    if cost.shape != (row_ground.size, col_ground.size):
        raise GroundMismatchError(f"cost shape {cost.shape} does not match the plan's grounds")


@dataclass(frozen=True)
class RadialGrid:
    """Strictly increasing radial nodes including 0, bounded by a cap."""

    nodes: np.ndarray
    cap: float

    def __post_init__(self):
        nodes = _frozen_array(self, "nodes", "radial nodes", ndim=1)
        if not math.isfinite(self.cap):
            raise ValueError("radial grid cap must be finite")
        if nodes.size == 0 or nodes[0] != 0.0:
            raise ValueError("radial grids include the node 0")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("radial nodes must be strictly increasing")
        if nodes[-1] > self.cap * (1 + 1e-12):
            raise ValueError("radial nodes must not exceed the cap")

    @property
    def size(self) -> int:
        return self.nodes.size

    @staticmethod
    def geometric(cap: float, n_nodes: int = 64, smin_frac: float = 1e-4) -> "RadialGrid":
        """Node 0 plus a geometric ladder on [smin_frac*cap, cap]."""
        if cap <= 0:
            raise ValueError("cap must be positive")
        if not (0.0 < smin_frac < 1.0):  # NaN fails both
            raise ValueError(f"smin_frac must lie in (0, 1), got {smin_frac}")
        if n_nodes < 2:
            raise ValueError("need at least two nodes")
        ladder = np.geomspace(smin_frac * cap, cap, n_nodes - 1)
        ladder[-1] = cap
        return RadialGrid(np.concatenate([[0.0], ladder]), cap)


@dataclass(frozen=True)
class AtomCloud:
    """Weighted atoms (x0, s0, x1, s1[, S]) with off-grid radial coordinates.

    S is the pair-space radial value of the extended form of the
    original-space regularisation; the extended-space problem has none.
    """

    row_ground: GroundSet
    col_ground: GroundSet
    x0: np.ndarray
    s0: np.ndarray
    x1: np.ndarray
    s1: np.ndarray
    weights: np.ndarray
    S: Optional[np.ndarray] = None

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.weights))

    def homogeneous_marginal(self, index: int) -> DiscreteMeasure:
        """h_i: the projection to one point set weighted by s_i."""
        if index not in (0, 1):
            raise ValueError("index must be 0 or 1")
        ground = (self.row_ground, self.col_ground)[index]
        x, s = ((self.x0, self.s0), (self.x1, self.s1))[index]
        w = np.bincount(x, weights=s * self.weights, minlength=ground.size)
        return DiscreteMeasure(ground, w)

    def pair_marginal(self) -> Plan:
        """The S-weighted projection to the pair space."""
        if self.S is None:
            raise ValueError("only atoms with an S coordinate have a pair marginal")
        n0, n1 = self.row_ground.size, self.col_ground.size
        w = np.bincount(self.x0 * n1 + self.x1, weights=self.S * self.weights,
                        minlength=n0 * n1)
        return Plan(self.row_ground, self.col_ground, w.reshape(n0, n1))

    def objective(self, cost: CostMatrix, eps: Optional[float] = None) -> float:
        """(H, atoms), or (H_eps, atoms) with the given eps when S is present.
        Raises GroundMismatchError on a cost not over the two grounds."""
        _check_cost(cost, self.row_ground, self.col_ground)
        c = cost.values[self.x0, self.x1]
        if self.S is None:
            h = perspective_H(self.s0, self.s1, c)
        else:
            h = perspective_H_eps(self.s0, self.s1, self.S, c, eps)
        return float(np.sum(h * self.weights))

    def rescale(self) -> "AtomCloud":
        """Normalise to unit mass by the radial pushforward.

        With r the sum of an atom's radial coordinates and s* the total
        homogeneous mass (the sum of r times the weights), theta = r / s*
        per atom; each atom moves to its coordinates divided by theta with
        weight theta times its own.  Atoms whose radial coordinates all
        vanish are dropped.  The objective and every homogeneous marginal
        are preserved to rounding, by the 1-homogeneity of H and H_eps.
        """
        radial = (self.s0, self.s1, self.S)
        r = sum(s for s in radial if s is not None)
        keep = r > 0
        theta = r[keep] / float(np.sum(r[keep] * self.weights[keep]))
        s0, s1, S = (None if s is None else s[keep] / theta for s in radial)
        return replace(self, x0=self.x0[keep], s0=s0, x1=self.x1[keep], s1=s1, S=S,
                       weights=theta * self.weights[keep])


@dataclass(frozen=True)
class AtomPlan:
    """Weights over the grid atoms (x0, s0-node, x1, s1-node[, S-node]).

    ``grids`` holds the radial grids of s0 and s1, plus that of S for the
    extended form of the original-space regularisation.  Marginals, the
    objective and the rescaling act on the plan's nonzero atoms.
    """

    row_ground: GroundSet
    col_ground: GroundSet
    grids: tuple[RadialGrid, ...]
    weights: np.ndarray

    def __post_init__(self):
        if len(self.grids) not in (2, 3):
            raise ValueError("an atom plan has two or three radial grids")
        g = self.grids
        shape = (self.row_ground.size, g[0].size, self.col_ground.size,
                 *(grid.size for grid in g[1:]))
        _frozen_array(self, "weights", "atom plan weights", shape=shape, nonnegative=True)

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.weights))

    def atoms(self) -> AtomCloud:
        """The nonzero atoms, with their grid nodes as radial coordinates."""
        idx = np.nonzero(self.weights)
        s = [grid.nodes[k] for grid, k in zip(self.grids, (idx[1], idx[3]) + idx[4:])]
        return AtomCloud(self.row_ground, self.col_ground, idx[0], s[0], idx[2], s[1],
                         self.weights[idx], *s[2:])

    def homogeneous_marginal(self, index: int) -> DiscreteMeasure:
        return self.atoms().homogeneous_marginal(index)

    def pair_marginal(self) -> Plan:
        return self.atoms().pair_marginal()

    def objective(self, cost: CostMatrix, eps: Optional[float] = None) -> float:
        return self.atoms().objective(cost, eps)

    def rescale(self) -> AtomCloud:
        return self.atoms().rescale()


# ---------------------------------------------------------------------------
# Construction helpers
# ---------------------------------------------------------------------------

def default_grids(mu0: DiscreteMeasure, mu1: DiscreteMeasure,
                  n_nodes: int = 64, smin_frac: float = 1e-4
                  ) -> tuple[RadialGrid, RadialGrid]:
    """One geometric grid for both sides, capped at the total mass m0 + m1."""
    cap = mu0.total_mass + mu1.total_mass
    grid = RadialGrid.geometric(cap, n_nodes=n_nodes, smin_frac=smin_frac)
    return grid, grid


def default_nu_y(mu0: DiscreteMeasure, mu1: DiscreteMeasure,
                 grids: tuple[RadialGrid, RadialGrid]) -> AtomPlan:
    """Uniform probability over all atoms with both radial values positive.
    Its ``.weights`` is a read-only broadcast view of one (1, K0, 1, K1)
    array, not an atom tensor."""
    grid0, grid1 = grids
    shape = (mu0.ground.size, grid0.size, mu1.ground.size, grid1.size)
    positive = np.outer(grid0.nodes > 0.0, grid1.nodes > 0.0)
    total = np.count_nonzero(positive) * shape[0] * shape[2]
    if total <= 0:
        raise ValueError("reference needs at least one positive radial node per side")
    w = _read_only(positive / total)[None, :, None, :]
    return AtomPlan(mu0.ground, mu1.ground, (grid0, grid1), np.broadcast_to(w, shape))


def h_tensor(cost: CostMatrix, grid0: RadialGrid, grid1: RadialGrid) -> np.ndarray:
    """H over the atom tensor, shape (n0, K0, n1, K1)."""
    return perspective_H(
        grid0.nodes[None, :, None, None],
        grid1.nodes[None, None, None, :],
        cost.values[:, None, :, None],
    )


# ---------------------------------------------------------------------------
# Unregularised LP
# ---------------------------------------------------------------------------

def _optimal(res: LpResult, what: str) -> LpResult:
    """``res`` when optimal; raises InfeasibleProblemError when the LP is
    infeasible and RuntimeError on any other status."""
    if res.status == "infeasible":
        raise InfeasibleProblemError(f"{what} constraints are infeasible on this grid")
    if not res.optimal:
        raise RuntimeError(f"{what} LP failed with status {res.status}")
    return res


def solve_y_unreg(mu0: DiscreteMeasure, mu1: DiscreteMeasure, cost: CostMatrix,
                  grids: tuple[RadialGrid, RadialGrid]) -> tuple[AtomPlan, float]:
    """Linear program min (H, alpha) under the sharp constraints h_i alpha = mu_i,
    solved with the multiscale start over its (K0, K1) axes
    (``simplex._multiscale_lp``), from the apex atoms of node 0."""
    _check_instance(mu0, mu1, cost, None)
    grid0, grid1 = grids
    i0, s0, i1, s1 = np.ix_(np.arange(mu0.ground.size), grid0.nodes,
                            np.arange(mu1.ground.size), grid1.nodes)
    families = [(i0, s0, mu0.weights), (i1, s1, mu1.weights)]
    h = h_tensor(cost, grid0, grid1)
    res = _optimal(_multiscale_lp(h, families, (1, 3)), "homogeneous-marginal")
    return AtomPlan(mu0.ground, mu1.ground, (grid0, grid1), res.x), res.value


# ---------------------------------------------------------------------------
# Entropic solve: alternating KL projections on the scaling kernel
# ---------------------------------------------------------------------------

def _tilt_values(w: np.ndarray, a: np.ndarray, target: np.ndarray,
                 delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise LSE_k(w + delta * a) - target and its derivative in delta."""
    z = w + delta[:, None] * a
    top = z.max(axis=1)
    e = np.exp(z - top[:, None])
    se = e.sum(axis=1)
    return top + np.log(se) - target, (e @ a) / se


def _solve_tilts(red: np.ndarray, s: np.ndarray, mu_w: np.ndarray) -> np.ndarray:
    """Every point's tilt change, solved from the reduction ``red``.

    For each support point i with mass, finds delta_i with
    LSE_k(red[i, k] + log s_k + delta_i s_k) = log mu_i by Newton's
    method from delta = 0, run on all rows at once.  It needs no bracket:
    the s = 0 node has log 0 = -inf, so every finite term has s_k > 0 and
    the slope, their softmax mean, is positive, so every step is finite; the
    left side is convex, increasing and unbounded both ways, so the first
    step lands at or right of the root and the iterates then decrease to it.
    A row stops when its residual is below ``_TILT_TOL`` or, after the first
    step, stops decreasing (rounding at the root); a row that does neither
    in ``_TILT_MAX_STEPS`` steps raises RuntimeError.  Returns delta, 0 at
    zero-mass points, as the kernel empties their lines.
    """
    rows = np.flatnonzero(mu_w > 0)
    with np.errstate(divide="ignore"):
        w = red[rows] + np.log(s)
    if not np.all(np.any(w > -math.inf, axis=1)):
        raise InfeasibleProblemError(
            "a support point carries mass but no reachable atom has a positive radial node"
        )
    target = np.log(mu_w[rows])

    delta = np.zeros(rows.size)
    val, slope = _tilt_values(w, s, target, delta)
    active = np.abs(val) >= _TILT_TOL
    for step in range(_TILT_MAX_STEPS):
        if not active.any():
            break
        delta = np.where(active, delta - val / slope, delta)
        prev, (val, slope) = val, _tilt_values(w, s, target, delta)
        active &= (np.abs(val) >= _TILT_TOL) & ((step == 0) | (val < prev))
    if active.any():
        i = np.flatnonzero(active)[0]
        raise RuntimeError(
            f"tilt Newton for support point {rows[i]} did not converge in "
            f"{_TILT_MAX_STEPS} steps (last residual {val[i]:.3e})"
        )
    out = np.zeros(mu_w.size)
    out[rows] = delta
    return out


def _tilt_step(nodes, mus, lams, omega: float) -> ScalingStep:
    """The y step of ``scaling_kernel``: side's tilts solved from its
    reduction, over-relaxed per point under a guard from the dual.

    m holds LSE over the other side's atoms of log nu_Y - H/eps plus their
    tilts, per (point, radial node) line; adding the side's own tilts gives
    the reduction red of the tilted tensor, so the Newton change delta_i is
    taken from the current tilt.  Given the other side's tilts the dual over
    eps is separable: moving lambda_i by t changes it by
    mu_i t - sum_k exp(red[i, k]) expm1(t s_k).  Each point takes
    t = omega delta_i where that change is finite and nonnegative, and the
    plain t = delta_i (the exact projection) elsewhere, so the dual never
    decreases; omega 1 is the plain projection.  ``lams`` is updated in
    place and the update returns the new line potentials lambda_i s_k; it
    reads the current tilts from ``lams``, not from the kernel's ``old``.
    """
    def _update(side, m, _old):
        s, lam, mu = nodes[side], lams[side], mus[side]
        red = m.reshape(lam.size, s.size) + lam[:, None] * s
        delta = _solve_tilts(red, s, mu)
        t = omega * delta
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite change rejects
            gain = mu * t - np.sum(np.exp(red) * np.expm1(t[:, None] * s), axis=1)
        lam += np.where((gain >= 0.0) & (gain < math.inf), t, delta)
        return (lam[:, None] * s).ravel()
    return ScalingStep(_update, None)


def solve_y_eps(mu0: DiscreteMeasure, mu1: DiscreteMeasure, cost: CostMatrix,
                grids: tuple[RadialGrid, RadialGrid],
                nu_y: Optional[AtomPlan], config: SolverConfig,
                ) -> tuple[AtomPlan, SolveReport]:
    """Entropic extended-space solve by generalized iterative scaling.

    Minimises (H, alpha) + eps * Div(alpha | nu_Y) subject to
    h_i alpha = mu_i, with eps = ``config.eps``.  nu_Y must be a probability
    measure over the atom tensor on the grounds of mu0 and mu1 (default:
    ``default_nu_y``); H is dropped once ``log_kernel`` has built the
    log-kernel.  One ``scaling_kernel`` call runs the guarded over-relaxed
    tilt steps (``_tilt_step``) at eps from zero tilts for at most
    ``config.max_iters`` iterations, and stops when the largest
    homogeneous-marginal residual, relative to the mass scale, is at most
    ``config.tolerance``.  The report is the assessment made at the loop's
    last check, which sees both line marginals of the returned plan, so
    ``converged`` is the stop test itself.
    ``dual`` is the weak-duality lower bound.  The plan is the scaling plan
    nu_Y exp(-H/eps + lambda_0 s0 + lambda_1 s1) of the tilts, so its
    primal value is dual + eps * sum_i (lambda_i, d_i) over the defects
    d_i = h_i alpha - mu_i; the gap eps * sum_i (|lambda_i|, |d_i|) is
    nonnegative by construction and at least |primal - dual|.
    """
    grid0, grid1 = grids
    if nu_y is None:
        nu_y = default_nu_y(mu0, mu1, grids)
    _check_instance(mu0, mu1, cost, nu_y)
    for side, (ref, grid) in enumerate(zip(nu_y.grids, grids)):
        if ref is not grid and not np.array_equal(ref.nodes, grid.nodes):
            raise GroundMismatchError(f"reference grid does not match grid{side}")
    nu_mass = nu_y.total_mass
    if abs(nu_mass - 1.0) > 1e-8:
        raise ValueError("nu_Y must be a probability measure over the atoms")
    eps = config.eps
    omega = max(1.0, 2.0 / (1.0 + math.sqrt(eps / 2.0)))

    nodes = (grid0.nodes, grid1.nodes)
    mus = (mu0.weights, mu1.weights)
    lams = (np.zeros(mu0.ground.size), np.zeros(mu1.ground.size))
    # the s = 0 lines carry no homogeneous mass, so no constraint empties them
    masses = [np.where(s > 0, mu[:, None], 1.0).ravel() for mu, s in zip(mus, nodes)]
    log_k = log_kernel(nu_y.weights, h_tensor(cost, grid0, grid1), eps)
    scale = max(1.0, float(np.max(mu0.weights)), float(np.max(mu1.weights)))

    def check(_f, _g, *margs):
        """The stop test on the line marginals; its result holds the defects,
        the residuals, the plan's mass and the verdict for the report."""
        d = [m.reshape(mu.size, -1) @ s - mu for m, s, mu in zip(margs, nodes, mus)]
        res = tuple(float(np.max(np.abs(x))) / scale for x in d)
        converged = max(res) <= config.tolerance
        return converged, (d, res, float(np.sum(margs[1])), converged)

    iters, alpha_w, (d, res, mass, converged) = scaling_kernel(
        log_k.reshape(masses[0].size, -1), *masses,
        _tilt_step(nodes, mus, lams, omega), config.max_iters, 1, check)

    alpha = AtomPlan(mu0.ground, mu1.ground, (grid0, grid1), alpha_w.reshape(log_k.shape))
    dual = eps * (float(lams[0] @ mu0.weights) + float(lams[1] @ mu1.weights)
                  + nu_mass - mass)
    primal = dual + eps * sum(float(lam @ x) for lam, x in zip(lams, d))
    gap = eps * sum(float(np.abs(lam) @ np.abs(x)) for lam, x in zip(lams, d))
    return alpha, SolveReport(primal, dual, gap, iters, res, converged)


# ---------------------------------------------------------------------------
# The transport decomposition
# ---------------------------------------------------------------------------

def extended_ot_value(alpha: AtomPlan, cost: CostMatrix) -> float:
    """Balanced transport under the cost H between the two marginals of
    ``alpha`` on X x R+, on the plan's own grids.

    Re-solving the coupling of those marginals can only improve on
    (H, alpha), with equality at an optimal alpha.  Raises ValueError on a
    plan with an S grid, which has no such decomposition.
    """
    if len(alpha.grids) != 2:
        raise ValueError("a plan with an S grid has no transport decomposition")
    _check_cost(cost, alpha.row_ground, alpha.col_ground)
    w = alpha.weights
    n0, k0, n1, k1 = w.shape
    beta0, beta1 = w.sum(axis=(2, 3)).ravel(), w.sum(axis=(0, 1)).ravel()
    pairs = h_tensor(cost, *alpha.grids).reshape(n0 * k0, n1 * k1)
    return _optimal(transport_lp(beta0, beta1, pairs), "transport").value
