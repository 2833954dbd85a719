"""Ground costs and marginal perspective cost functions.

The marginal perspective cost of a pair of radial values (s0, s1) at ground
cost c is the shared-scale infimum

    H(s0, s1, c) = inf_{t>0} t * (R(s0/t) + R(s1/t) + c),

with R the reverse KL entropy, which closes to
``s0 + s1 - 2 sqrt(s0 s1) exp(-c/2)``.  Its regularised counterpart adds a
third radial value S weighted by eps inside the infimum and closes to

    H_eps(s0, s1, S, c) = s0 + s1 + eps*S
        - (2+eps) * (s0 s1)^(1/(2+eps)) * S^(eps/(2+eps)) * exp(-c/(2+eps)).

Both are 1-homogeneous in their radial arguments.  Conventions:

* if any base in the product term is 0, the whole product term is 0 (the
  t -> 0 limit of the defining infimum at degenerate radial values);
* +inf costs short-circuit, the exponential factor is exactly 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import GroundSet, _frozen_array

HALF_PI = math.pi / 2.0


@dataclass(frozen=True)
class CostMatrix:
    """Extended-real cost matrix over point pairs of two ground sets."""

    values: np.ndarray

    def __post_init__(self):
        _frozen_array(self, "values", "cost entries", ndim=2, nonnegative=True, infinite=True)

    @property
    def shape(self):
        return self.values.shape


def hk_cost(d):
    """Cone-type cost -log(cos^2 d) for d < pi/2, +inf beyond."""
    arr = np.asarray(d, dtype=float)
    scalar = arr.ndim == 0
    if np.any(arr < 0):
        raise ValueError("distances must be nonnegative")
    inside = arr < HALF_PI
    with np.errstate(divide="ignore", invalid="ignore"):
        cos2 = np.cos(np.where(inside, arr, 0.0)) ** 2
        out = np.where(inside, -np.log(cos2), math.inf)
    return float(out) if scalar else out


def squared_distances(points0: np.ndarray, points1: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of two (count, dim)
    arrays, summed one coordinate at a time into one n0 x n1 array."""
    out = np.subtract.outer(points0[:, 0], points1[:, 0])
    np.square(out, out=out)
    for k in range(1, points0.shape[1]):
        diff = np.subtract.outer(points0[:, k], points1[:, k])
        out += np.square(diff, out=diff)
    return out


def sqeuclidean_matrix(g0: GroundSet, g1: GroundSet) -> CostMatrix:
    return CostMatrix(squared_distances(g0.points, g1.points))


def hk_matrix(g0: GroundSet, g1: GroundSet) -> CostMatrix:
    d = squared_distances(g0.points, g1.points)
    return CostMatrix(hk_cost(np.sqrt(d, out=d)))


# ---------------------------------------------------------------------------
# Perspective costs
# ---------------------------------------------------------------------------

def perspective_H(s0, s1, c):
    """Marginal perspective cost H(s0, s1, c); vectorized over arrays."""
    a0, a1, cc = np.broadcast_arrays(
        np.asarray(s0, dtype=float), np.asarray(s1, dtype=float), np.asarray(c, dtype=float)
    )
    scalar = a0.ndim == 0
    if np.any(a0 < 0) or np.any(a1 < 0):
        raise ValueError("radial arguments must be nonnegative")
    infc = np.isinf(cc)
    expf = np.where(infc, 0.0, np.exp(-np.where(infc, 0.0, cc) / 2.0))
    out = np.maximum(a0 + a1 - 2.0 * np.sqrt(a0 * a1) * expf, 0.0)
    return float(out) if scalar else out


def perspective_H_eps(s0, s1, S, c, eps: float):
    """Regularised marginal perspective cost H_eps(s0, s1, S, c)."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    a0, a1, aS, cc = np.broadcast_arrays(
        np.asarray(s0, dtype=float),
        np.asarray(s1, dtype=float),
        np.asarray(S, dtype=float),
        np.asarray(c, dtype=float),
    )
    scalar = a0.ndim == 0
    if np.any(a0 < 0) or np.any(a1 < 0) or np.any(aS < 0):
        raise ValueError("radial arguments must be nonnegative")
    q = 2.0 + eps
    degenerate = (a0 == 0) | (a1 == 0) | (aS == 0) | np.isinf(cc)
    safe0 = np.where(degenerate, 1.0, a0)
    safe1 = np.where(degenerate, 1.0, a1)
    safeS = np.where(degenerate, 1.0, aS)
    safec = np.where(degenerate, 0.0, cc)
    term = np.where(
        degenerate,
        0.0,
        q * np.exp((np.log(safe0) + np.log(safe1) + eps * np.log(safeS) - safec) / q),
    )
    out = np.maximum(a0 + a1 + eps * aS - term, 0.0)
    return float(out) if scalar else out
