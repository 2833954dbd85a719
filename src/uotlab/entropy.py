"""The KL entropy function, its reverse and Legendre duals, and the divergence.

    F(s)     = s log s - s + 1,   F(0) = 1,   recession F'_inf = +inf,
    F*(p)    = exp(p) - 1,
    R(s)     = s F(1/s) = s - log s - 1,   R(0) = F'_inf = +inf,
    R*(q)    = -log(1 - q),

and the recession constant of the reverse entropy is R'_inf = F(0) = 1.
Conventions: 0 log 0 = 0, and the singular term F'_inf * (singular mass) is
0 when the singular mass is exactly 0 and +inf otherwise.
"""

from __future__ import annotations

import math

import numpy as np

from .measures import DiscreteMeasure, GroundMismatchError, Plan, split_arrays

F_ZERO = 1.0
"""F(0), which is also the reverse recession constant R'_inf."""


def _as_array(s):
    arr = np.asarray(s, dtype=float)
    return arr, arr.ndim == 0


def F(s):
    arr, scalar = _as_array(s)
    if np.any(arr < 0):
        raise ValueError("entropy functions are defined on s >= 0")
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(arr > 0, arr * np.log(np.where(arr > 0, arr, 1.0)) - arr + 1.0, 1.0)
    return float(out) if scalar else out


def R(s):
    arr, scalar = _as_array(s)
    if np.any(arr < 0):
        raise ValueError("reverse entropies are defined on s >= 0")
    with np.errstate(divide="ignore"):
        out = np.where(arr > 0, arr - np.log(np.where(arr > 0, arr, 1.0)) - 1.0, math.inf)
    return float(out) if scalar else out


def F_star(phi):
    arr, scalar = _as_array(phi)
    out = np.expm1(arr)
    return float(out) if scalar else out


def R_star(psi):
    arr, scalar = _as_array(psi)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(arr < 1.0, -np.log1p(-np.where(arr < 1.0, arr, 0.0)), math.inf)
    return float(out) if scalar else out


def divergence_arrays(measure: np.ndarray, reference: np.ndarray) -> float:
    """KL divergence sum_ref F(measure/reference) * reference, +inf when the
    measure has singular mass against the reference.

    Shared array-level core for measures and plans.
    """
    m = np.asarray(measure, dtype=float)
    r = np.asarray(reference, dtype=float)
    density, singular = split_arrays(m, r)
    pos = r > 0
    values = F(density[pos])
    if float(np.sum(singular)) > 0:
        return math.inf
    return float(np.sum(values * r[pos]))


def divergence(measure, reference) -> float:
    """KL divergence of a measure (or plan) against a reference on the same ground."""
    if isinstance(measure, DiscreteMeasure) and isinstance(reference, DiscreteMeasure):
        if measure.ground is not reference.ground:
            raise GroundMismatchError("divergence requires a shared ground set")
        return divergence_arrays(measure.weights, reference.weights)
    if isinstance(measure, Plan) and isinstance(reference, Plan):
        if measure.row_ground is not reference.row_ground or (
            measure.col_ground is not reference.col_ground
        ):
            raise GroundMismatchError("divergence requires shared ground sets")
        return divergence_arrays(measure.weights, reference.weights)
    return divergence_arrays(measure, reference)
