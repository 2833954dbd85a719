"""Balanced entropic transport variants on grid measures and their relations.

Three conventions for the same family of problems on probability measures
mu, nu over a uniform grid in R^d, with cost c(x, y) = |x - y|^2:

    V1 = min (c, g) + eps * H(g)           H(.) against the Lebesgue measure
    V2 = min (c, g) + eps * H(g | mu x nu)
    V3 = min eps * H(g | K)                K the heat kernel at time eps/2

all over couplings g of (mu, nu).  On the grid, the Lebesgue measure weights
each plan atom by cellVolume^2 and the relative entropy is discretised as
H(mu) = sum mu_i log(mu_i / cellVolume), which makes the relations

    V2 = V1 - eps * (H(mu) + H(nu))
    V3 = (1/2) * V1(2 eps) + (d eps / 2) * log(2 pi eps)

exact identities at any fixed coupling, hence exact at the optimum; the
optimal plans of the related problems coincide.  Each problem is solved by
the balanced steps of the stabilised scaling kernel of ``solver_x`` with
the matching reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .costs import squared_distances
from .measures import _frozen_array
from .solver_x import log_kernel, proximal_step, scaling_kernel


@dataclass(frozen=True)
class GridMeasure:
    """Probability weights over the cell centers of a uniform grid in R^d."""

    points: np.ndarray
    cell_volume: float
    weights: np.ndarray

    def __post_init__(self):
        if not (0.0 < self.cell_volume < math.inf):
            raise ValueError("cell volume must be positive and finite")
        pts = _frozen_array(self, "points", "grid points", ndim=2)
        w = _frozen_array(self, "weights", "grid weights", shape=pts.shape[:1], nonnegative=True)
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("grid measures are probability measures")

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def grid_measure(n_per_side: int, dim: int,
                 rng: Optional[np.random.Generator] = None) -> GridMeasure:
    """Uniform grid of cell centers over [0, 1]^dim; uniform weights, or
    weights drawn uniformly from [0.2, 1] by ``rng`` and normalised."""
    if n_per_side < 1 or dim < 1:
        raise ValueError("grid measures need at least one cell per side and dimension")
    side = 1.0 / n_per_side
    axes = [(np.arange(n_per_side) + 0.5) * side] * dim
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=1)
    n = points.shape[0]
    if rng is None:
        w = np.full(n, 1.0 / n)
    else:
        w = rng.uniform(0.2, 1.0, size=n)
        w = w / w.sum()
    return GridMeasure(points, side ** dim, w)


def entropy_against_lebesgue(mu: GridMeasure) -> float:
    """Discretised differential entropy sum mu_i log(mu_i / cellVolume)."""
    w = mu.weights
    pos = w > 0
    return float(np.sum(w[pos] * np.log(w[pos] / mu.cell_volume)))


# ---------------------------------------------------------------------------
# Balanced Sinkhorn with an explicit reference
# ---------------------------------------------------------------------------

SINKHORN_TOL = 1e-13  # default marginal tolerance of balanced_sinkhorn


def balanced_sinkhorn(mu_w: np.ndarray, nu_w: np.ndarray, cost: np.ndarray,
                      eps: float, reference: np.ndarray, tol: float = SINKHORN_TOL,
                      max_iters: int = 200_000
                      ) -> tuple[np.ndarray, int, float, tuple[float, float]]:
    """Solve min (c, g) + eps * H(g | reference) over couplings of (mu, nu).

    Balanced steps (proximal exponent 1) of the stabilised scaling kernel
    on reference * exp(-c/eps); stops when the worst marginal deviation,
    checked every 10 iterations, falls below ``tol``.  Returns (plan,
    iterations, value, (side 0, side 1) marginal residuals) of the loop's
    last check.  The plan P = reference * exp(f_i + g_j - c/eps) of the
    log-potentials (f, g) has (c, P) + eps * sum P log(P / reference) =
    eps * (f . P_0 + g . P_1), so the value is read off its marginals, in O(n).
    """
    def check(f, g, marg0, marg1):
        residuals = (float(np.max(np.abs(marg0 - mu_w))), float(np.max(np.abs(marg1 - nu_w))))
        # over the lines with mass: an empty line may have an infinite potential
        value = eps * sum(float(p[m > 0] @ m[m > 0]) for p, m in ((f, marg0), (g, marg1)))
        return max(residuals) <= tol, (value, residuals)

    _, _, iters, gamma, (value, residuals) = scaling_kernel(
        log_kernel(reference, cost, eps), mu_w, nu_w, proximal_step(mu_w, nu_w, 1.0),
        np.zeros(nu_w.size), max_iters, 10, check)
    return gamma, iters, value, residuals


# ---------------------------------------------------------------------------
# The three conventions
# ---------------------------------------------------------------------------

def _solve(mu: GridMeasure, nu: GridMeasure, eps: float,
           convention: int) -> tuple[float, np.ndarray, tuple[float, float]]:
    """Value, plan and balanced Sinkhorn residuals of one convention."""
    cost = squared_distances(mu.points, nu.points)
    if convention == 1:
        ref = np.full(cost.shape, mu.cell_volume * nu.cell_volume)
    elif convention == 2:
        ref = np.outer(mu.weights, nu.weights)
    else:  # the heat kernel absorbs the cost
        ref = ((2.0 * math.pi * eps) ** (-mu.dim / 2.0) * np.exp(-cost / (2.0 * eps))
               * (mu.cell_volume * nu.cell_volume))
        cost = np.zeros_like(cost)
    gamma, _, value, residuals = balanced_sinkhorn(mu.weights, nu.weights, cost, eps, ref)
    return value, gamma, residuals


def _matched(mu: GridMeasure, nu: GridMeasure, first: tuple, second: tuple) -> tuple:
    """Values, largest plan difference and residuals of two matched problems."""
    (v0, g0, r0), (v1, g1, r1) = _solve(mu, nu, *first), _solve(mu, nu, *second)
    return v0, v1, float(np.max(np.abs(g1 - g0))), r0 + r1


def verify_identities(mu: GridMeasure, nu: GridMeasure, eps: float) -> dict:
    """Residuals of the affine relations between the three conventions.

    Each problem is solved independently; the relations are algebraic at a
    fixed coupling with consistent references, so residuals sit at solver
    precision, and the optimal plans of matched problems coincide.
    ``sinkhorn_residual`` is the worst final marginal residual, over both
    sides, of the four balanced Sinkhorn solves.
    """
    if mu.dim != nu.dim:
        raise ValueError("grid measures must share the ambient dimension")
    if not (0.0 < eps < math.inf):
        raise ValueError("eps must be positive and finite")
    d = mu.dim
    v1, v2, plan_residual_w2, r_w2 = _matched(mu, nu, (eps, 1), (eps, 2))
    v1_2eps, v3, plan_residual_w3, r_w3 = _matched(mu, nu, (2.0 * eps, 1), (eps, 3))
    h_mu = entropy_against_lebesgue(mu)
    h_nu = entropy_against_lebesgue(nu)
    return {
        "w1": v1,
        "w2": v2,
        "w3": v3,
        "w1_double_eps": v1_2eps,
        "entropy_mu": h_mu,
        "entropy_nu": h_nu,
        "residual_w2": abs(v2 - (v1 - eps * (h_mu + h_nu))),
        "residual_w3": abs(v3 - (0.5 * v1_2eps + 0.5 * d * eps * math.log(2.0 * math.pi * eps))),
        "plan_residual_w2": plan_residual_w2,
        "plan_residual_w3": plan_residual_w3,
        "sinkhorn_residual": max(r_w2 + r_w3),
    }
