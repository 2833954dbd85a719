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
* +inf costs short-circuit, the exponential factor is exactly 0;
* radial arguments must be finite and nonnegative, and costs must not be
  NaN: each raises ValueError.

The arguments are usually an open mesh (``np.ix_``): radial nodes along
their own axes and costs along the point axes.  Each term is evaluated on
its own arguments' broadcast shape, never on the full mesh: sqrt(s0 s1),
the sum of the logs and the sum of the radial values on the radial axes,
and the cost's exponential factor (for H) on the cost's shape.  Only the
product with the cost factor, or the cost subtracted from the log sum and
the exponential (for H_eps), and the result are full-size, computed in
place in one output array.  Every operation keeps its place in the
formula, so the values are those of a full broadcast evaluation, bit for
bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import GroundMismatchError, GroundSet, _frozen_array, _read_only

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
    out = np.where(inside, arr, 0.0)  # the one full-size array: each step is in place
    np.cos(out, out=out)
    np.square(out, out=out)
    with np.errstate(divide="ignore"):
        np.log(out, out=out)
    np.negative(out, out=out)
    out[~inside] = math.inf
    return float(out) if scalar else out


def squared_distances(points0: np.ndarray, points1: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of two (count, dim)
    arrays, summed one coordinate at a time into one n0 x n1 array.  Raises
    GroundMismatchError when the two dims differ."""
    d0, d1 = points0.shape[1], points1.shape[1]
    if d0 != d1:
        raise GroundMismatchError(f"points of dimension {d0} and {d1} have no common distance")
    out = np.subtract.outer(points0[:, 0], points1[:, 0])
    np.square(out, out=out)
    for k in range(1, points0.shape[1]):
        diff = np.subtract.outer(points0[:, k], points1[:, k])
        out += np.square(diff, out=diff)
    return out


def sqeuclidean_matrix(g0: GroundSet, g1: GroundSet) -> CostMatrix:
    return CostMatrix(_read_only(squared_distances(g0.points, g1.points)))


def hk_matrix(g0: GroundSet, g1: GroundSet) -> CostMatrix:
    d = squared_distances(g0.points, g1.points)
    return CostMatrix(_read_only(hk_cost(np.sqrt(d, out=d))))


# ---------------------------------------------------------------------------
# Perspective costs
# ---------------------------------------------------------------------------

def _radial(s) -> np.ndarray:
    """A radial argument as a float array, checked: finite and nonnegative."""
    arr = np.asarray(s, dtype=float)
    if not np.all((arr >= 0) & (arr < math.inf)):  # NaN fails both
        raise ValueError("radial arguments must be finite and nonnegative")
    return arr


def _cost(c) -> np.ndarray:
    """A cost argument as a float array, checked: +inf allowed, NaN not."""
    arr = np.asarray(c, dtype=float)
    if np.any(np.isnan(arr)):
        raise ValueError("costs must not be NaN")
    return arr


def perspective_H(s0, s1, c):
    """Marginal perspective cost H(s0, s1, c); vectorized over arrays."""
    a0, a1, cc = _radial(s0), _radial(s1), _cost(c)
    infc = np.isinf(cc)
    expf = np.where(infc, 0.0, np.exp(-np.where(infc, 0.0, cc) / 2.0))
    out = np.empty(np.broadcast_shapes(a0.shape, a1.shape, cc.shape))
    np.multiply(2.0 * np.sqrt(a0 * a1), expf, out=out)
    np.subtract(a0 + a1, out, out=out)
    np.maximum(out, 0.0, out=out)
    return float(out) if out.ndim == 0 else out


def perspective_H_eps(s0, s1, S, c, eps: float):
    """Regularised marginal perspective cost H_eps(s0, s1, S, c)."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    a0, a1, aS, cc = _radial(s0), _radial(s1), _radial(S), _cost(c)
    q = 2.0 + eps
    # a zero base or an infinite cost makes the exponent -inf, and the term 0
    with np.errstate(divide="ignore"):
        logs = np.log(a0) + np.log(a1) + eps * np.log(aS)
    out = np.empty(np.broadcast_shapes(logs.shape, cc.shape))
    np.subtract(logs, cc, out=out)
    np.divide(out, q, out=out)
    np.exp(out, out=out)
    np.multiply(out, q, out=out)
    np.subtract(a0 + a1 + eps * aS, out, out=out)
    np.maximum(out, 0.0, out=out)
    return float(out) if out.ndim == 0 else out
