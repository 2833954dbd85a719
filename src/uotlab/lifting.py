"""Lifted formulations over location-radial atom grids.

Four liftings, each solved as a linear program over grid atoms and verified
against baseline solvers on small instances:

* balanced transport as a constrained problem over (x0, x1, s) atoms with
  objective s^p * c and s^p-weighted point marginals;
* its entropic version over (x0, x1, s, S) atoms, whose per-atom cost adds
  eps * s^p * R(S^p / s^p) and whose S^p-weighted pair marginal is pinned
  to the reference nu_X;
* the extended form of the original-space regularisation over
  (x0, s0, x1, s1, S) atoms with cost H_eps(s0^p, s1^p, S^p, c) under both
  homogeneous point marginals and the S^p-weighted pair marginal;
* the second-order lift over (x0, x1, s0, s1, w) atoms with cost
  w * H(s0^p, s1^p, c) under s_i^p w-weighted point marginals, where the
  shared w coordinate is forced by the sharp second-order perspective.

Each lift broadcasts its atom cost tensor over the open mesh (``np.ix_``)
of point indices and radial powers, takes its constraint families from the
same mesh, and solves with ``simplex.atom_lp``; every constraint is sharp.
The extended lift returns an ``AtomPlan`` with an S axis and its value; the
reduced lifts return ``atom_lp``'s ``LpResult`` as it is, whose ``x`` is
the read-only weight tensor.

The balanced and second-order lifts are 1-homogeneous along their last
axis (s, or w): each column and its cost are (s / s_top)^p, or w / w_top,
times those of the same atom at the top node, so moving each atom's weight
onto the top node at that factor maps feasible points of the full LP onto
its top-node slice at equal value (the cone construction of Liero, Mielke
and Savaré, arXiv:1508.07941).  They build and solve that slice alone, and
their plan has one node on the last axis.

The extended lift on explicit grids and the second-order slice take the
multiscale start of the wide atom LPs (``simplex._multiscale_lp``, a
coarse-to-fine start as in Schmitzer's sparse multiscale transport solver,
arXiv:1510.05466) over their radial axes: a sub-grid of each (node 0,
every third positive node and the top node) from the apex-atom crash,
then the shielding neighbourhood of the basis, every atom within one
radial node of a basic atom along those axes, while it changes, then the
full LP from that basis, whose first full pricing pass usually proves it
optimal.  The coarse LP of ``solve_x_extended_refined`` is a cold Dantzig
solve, because the fine grids follow its vertex.
"""

from __future__ import annotations

import math

import numpy as np

from .costs import CostMatrix, perspective_H, perspective_H_eps
from . import entropy
from .measures import DiscreteMeasure, Plan
from .simplex import LpResult, _multiscale_lp, _transport_crash, atom_lp, balanced_masses
from .solver_x import _check_instance
from .solver_y import AtomPlan, RadialGrid, _optimal


# ---------------------------------------------------------------------------
# Balanced lifting
# ---------------------------------------------------------------------------

def solve_lifted_balanced(mu0: DiscreteMeasure, mu1: DiscreteMeasure,
                          cost: CostMatrix, p: float, grid: RadialGrid) -> LpResult:
    """Balanced transport lifted over a shared radial coordinate.

    min sum s^p c(x0, x1) beta  s.t.  s^p-weighted marginals equal mu_i.
    Mass-unbalanced inputs are infeasible, mirroring the +inf value of the
    sharp-marginal problem; every status is returned, none raised.

    The lift is 1-homogeneous in s, so only the top node's slice is built
    and solved (transport scaled by s_top^p): the result's ``x`` and
    ``basis`` are over that slice, ``x`` of shape (n0, n1, 1).
    """
    _check_instance(mu0, mu1, cost, None)
    if not balanced_masses(mu0.total_mass, mu1.total_mass):
        return LpResult("infeasible", None, math.inf, 0)
    i0, i1, sp = np.ix_(np.arange(mu0.ground.size), np.arange(mu1.ground.size),
                        (grid.nodes ** p)[-1:])
    with np.errstate(invalid="ignore"):  # a top node 0 at an infinite cost: NaN, priced +inf
        atom_cost = sp * cost.values[i0, i1]
    families = [(i0, sp, mu0.weights), (i1, sp, mu1.weights)]
    return atom_lp(atom_cost, families, start=_transport_crash(atom_cost, families))


def solve_lifted_balanced_eps(mu0: DiscreteMeasure, mu1: DiscreteMeasure,
                              cost: CostMatrix, nu_x: Plan, p: float,
                              grids: tuple[RadialGrid, RadialGrid],
                              eps: float) -> LpResult:
    """Entropic balanced lifting over (x0, x1, s, S) atoms.

    Per-atom cost s^p c + eps s^p R(S^p / s^p), with the conventions
    s = 0 -> eps S^p (the vanishing-scale limit) and S = 0 < s -> +inf.
    Constraints: s^p-weighted point marginals equal mu_i and the
    S^p-weighted pair marginal equals nu_X.
    """
    _check_instance(mu0, mu1, cost, nu_x)
    if not balanced_masses(mu0.total_mass, mu1.total_mass):
        return LpResult("infeasible", None, math.inf, 0)
    n1 = mu1.ground.size
    i0, i1, sp, ssp = np.ix_(np.arange(mu0.ground.size), np.arange(n1),
                             grids[0].nodes ** p, grids[1].nodes ** p)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(sp > 0, ssp / np.where(sp > 0, sp, 1.0), 0.0)
        penalty = np.where(sp > 0, np.where(ssp > 0, sp * entropy.R(ratio), math.inf), ssp)
        # s = 0 at an infinite cost moves no mass, so it costs eps S^p alone
        transport = np.where(sp > 0, sp * cost.values[i0, i1], 0.0)
    families = [(i0, sp, mu0.weights), (i1, sp, mu1.weights),
                (i0 * n1 + i1, ssp, nu_x.weights)]
    return atom_lp(transport + eps * penalty, families)


# ---------------------------------------------------------------------------
# Extended form of the original-space regularisation
# ---------------------------------------------------------------------------

def solve_x_extended(mu0: DiscreteMeasure, mu1: DiscreteMeasure, cost: CostMatrix,
                     nu_x: Plan, eps: float, p: float,
                     grids: tuple[RadialGrid, RadialGrid, RadialGrid], *,
                     full_pricing: bool = False) -> tuple[AtomPlan, float]:
    """LP over (x0, s0, x1, s1, S) atoms with cost H_eps(s0^p, s1^p, S^p, c).

    Sharp constraints h_i^p eta = mu_i and S^p pair marginal = nu_X; an atom
    with one nonzero radial value costs s0^p, s1^p or eps S^p, the defect
    prices F(0) and eps F(0).

    The LP takes the multiscale start over its three radial axes
    (``simplex._multiscale_lp``): a sub-grid (node 0, every third positive
    node and the top node), which keeps the apex atoms that alone meet
    every constraint, then shielding neighbourhoods, then the full LP from
    their basis; on grids of at most three nodes the sub-grid is the whole
    grid, and one LP runs.  ``full_pricing`` solves the full LP alone,
    cold, with Dantzig's rule at every pivot (``simplex.solve_lp``).
    """
    _check_instance(mu0, mu1, cost, nu_x)
    n0, n1 = mu0.ground.size, mu1.ground.size
    i0, s0p, i1, s1p, ssp = np.ix_(np.arange(n0), grids[0].nodes ** p,
                                   np.arange(n1), grids[1].nodes ** p, grids[2].nodes ** p)
    h = perspective_H_eps(s0p, s1p, ssp, cost.values[i0, i1], eps)
    families = [(i0, s0p, mu0.weights), (i1, s1p, mu1.weights),
                (i0 * n1 + i1, ssp, nu_x.weights)]
    if full_pricing:
        res = atom_lp(h, families, full_pricing=True)
    else:
        res = _multiscale_lp(h, families, (1, 3, 4))
    res = _optimal(res, "extended")
    return AtomPlan(mu0.ground, mu1.ground, tuple(grids), p, res.x), res.value


_REFINE_COARSE_NODES = 20  # positive nodes of the wide first-pass grids on [1e-2, 1e2]
_REFINE_FINE_NODES = 36    # positive nodes of each rebuilt grid
_REFINE_PAD = 3.0          # factor the rebuilt grids extend past the coarse radial support


def solve_x_extended_refined(mu0: DiscreteMeasure, mu1: DiscreteMeasure,
                             cost: CostMatrix, nu_x: Plan, eps: float, p: float
                             ) -> tuple[AtomPlan, float]:
    """Two-pass extended solve: wide coarse grids, then grids rebuilt around
    the radial support of the coarse optimum.  Self-contained grid choice
    for cross-solver comparisons.

    The coarse LP can have several optimal vertices, with different
    supports, and the grids follow the one it returns; it is solved with
    full Dantzig pricing, so that vertex is the one that rule reaches
    whatever the simplex's candidate list does."""
    def build(lo, hi, k, padf):
        lo = max(lo / padf, 1e-6)
        hi = hi * padf
        return RadialGrid(np.concatenate([[0.0], np.geomspace(lo, hi, k)]), hi)

    wide = build(1e-2, 1e2, _REFINE_COARSE_NODES, 1.0)
    eta, _ = solve_x_extended(mu0, mu1, cost, nu_x, eps, p, (wide, wide, wide),
                              full_pricing=True)
    atoms = eta.atoms()
    if atoms.weights.size == 0:
        return eta, 0.0
    grids = tuple(
        build(max(float(np.min(v)), 1e-3), max(float(np.max(v)), 1e-3), _REFINE_FINE_NODES,
              _REFINE_PAD)
        for v in (atoms.s0, atoms.s1, atoms.S)
    )
    return solve_x_extended(mu0, mu1, cost, nu_x, eps, p, grids)


# ---------------------------------------------------------------------------
# Second-order lift
# ---------------------------------------------------------------------------

def solve_second_order_lift(mu0: DiscreteMeasure, mu1: DiscreteMeasure,
                            cost: CostMatrix, p: float,
                            grids: tuple[RadialGrid, RadialGrid, RadialGrid]
                            ) -> LpResult:
    """LP over (x0, x1, s0, s1, w) atoms with cost w * H(s0^p, s1^p, c).

    The sharp second-order perspective forces a shared density w on both
    sides, so the reduced plan carries a single w coordinate; constraints
    are the s_i^p w-weighted point marginals.  Returns the optimal result;
    raises InfeasibleProblemError when the LP is infeasible and
    RuntimeError on any other status.

    The lift is 1-homogeneous in w, so only the top node's slice is built
    and solved, with the multiscale start over its (K0, K1) axes
    (``simplex._multiscale_lp``): the result's ``x`` and ``basis`` are over
    that slice, ``x`` of shape (n0, n1, K0, K1, 1).
    """
    _check_instance(mu0, mu1, cost, None)
    i0, i1, s0p, s1p, w = np.ix_(np.arange(mu0.ground.size), np.arange(mu1.ground.size),
                                 grids[0].nodes ** p, grids[1].nodes ** p, grids[2].nodes[-1:])
    families = [(i0, s0p * w, mu0.weights), (i1, s1p * w, mu1.weights)]
    atom_cost = perspective_H(s0p, s1p, cost.values[i0, i1]) * w
    return _optimal(_multiscale_lp(atom_cost, families, (2, 3)), "second-order")
