"""Entropy functions, their reverses and Legendre duals, and divergences.

Two kinds ship as a closed enumeration:

* ``kl``        F(s) = s log s - s + 1, recession F'_inf = +inf,
                F*(p) = exp(p) - 1, R(s) = s - log s - 1, R*(q) = -log(1 - q).
* ``balanced``  the sharp indicator F(s) = 0 iff s = 1 else +inf, whose
                divergence pins a measure to its reference exactly;
                F*(p) = p and R*(q) = q.

The reverse entropy is R(s) = s F(1/s) for s > 0 with R(0) = F'_inf, and
R'_inf = F(0) in both cases.  Conventions: 0 log 0 = 0, and the singular
term F'_inf * (singular mass) is 0 when the singular mass is exactly 0 even
if F'_inf = +inf.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .measures import DiscreteMeasure, GroundMismatchError, Plan, split_arrays


class EntropyKind(enum.Enum):
    KL = "kl"
    BALANCED = "balanced"


def _as_array(s):
    arr = np.asarray(s, dtype=float)
    return arr, arr.ndim == 0


@dataclass(frozen=True)
class EntropyFunction:
    """Bundle of F, F(0), F'_inf and the derived reverse/dual maps."""

    kind: EntropyKind

    # -- primitive values ---------------------------------------------------
    @property
    def F_zero(self) -> float:
        return 1.0 if self.kind is EntropyKind.KL else math.inf

    @property
    def F_inf(self) -> float:
        """Recession constant lim F(s)/s; +inf for both shipped kinds."""
        return math.inf

    @property
    def R_inf(self) -> float:
        """Recession constant of the reverse entropy; equals F(0)."""
        return self.F_zero

    # -- scalar maps (vectorized over numpy arrays) -------------------------
    def F(self, s):
        arr, scalar = _as_array(s)
        if np.any(arr < 0):
            raise ValueError("entropy functions are defined on s >= 0")
        if self.kind is EntropyKind.KL:
            with np.errstate(divide="ignore", invalid="ignore"):
                out = np.where(arr > 0, arr * np.log(np.where(arr > 0, arr, 1.0)) - arr + 1.0, 1.0)
        else:
            out = np.where(arr == 1.0, 0.0, math.inf)
        return float(out) if scalar else out

    def R(self, s):
        arr, scalar = _as_array(s)
        if np.any(arr < 0):
            raise ValueError("reverse entropies are defined on s >= 0")
        if self.kind is EntropyKind.KL:
            with np.errstate(divide="ignore"):
                out = np.where(arr > 0, arr - np.log(np.where(arr > 0, arr, 1.0)) - 1.0, math.inf)
        else:
            out = np.where(arr == 1.0, 0.0, math.inf)
        return float(out) if scalar else out

    def F_star(self, phi):
        arr, scalar = _as_array(phi)
        if self.kind is EntropyKind.KL:
            out = np.expm1(arr)
        else:
            out = arr.copy()
        return float(out) if scalar else out

    def R_star(self, psi):
        arr, scalar = _as_array(psi)
        if self.kind is EntropyKind.KL:
            with np.errstate(divide="ignore", invalid="ignore"):
                out = np.where(arr < 1.0, -np.log1p(-np.where(arr < 1.0, arr, 0.0)), math.inf)
        else:
            out = arr.copy()
        return float(out) if scalar else out


KL = EntropyFunction(EntropyKind.KL)
BALANCED = EntropyFunction(EntropyKind.BALANCED)


def entropy_by_name(name: str) -> EntropyFunction:
    try:
        return EntropyFunction(EntropyKind(name.lower()))
    except ValueError as exc:
        raise ValueError(f"unknown entropy kind {name!r}; use 'kl' or 'balanced'") from exc


def divergence_arrays(e: EntropyFunction, measure: np.ndarray, reference: np.ndarray) -> float:
    """Divergence sum_ref F(measure/reference) * reference + F'_inf * singular mass.

    Shared array-level core for measures and plans.  +inf propagates exactly:
    any singular mass against an infinite recession constant gives +inf, and
    a zero singular mass contributes exactly 0.
    """
    m = np.asarray(measure, dtype=float)
    r = np.asarray(reference, dtype=float)
    density, singular = split_arrays(m, r)
    singular_mass = float(np.sum(singular))
    pos = r > 0
    values = e.F(density[pos]) if np.any(pos) else np.zeros(0)
    if np.any(np.isinf(values) & (r[pos] > 0)):
        return math.inf
    total = float(np.sum(values * r[pos]))
    if singular_mass > 0:
        if math.isinf(e.F_inf):
            return math.inf
        total += e.F_inf * singular_mass
    return total


def divergence(e: EntropyFunction, measure, reference) -> float:
    """Divergence of a measure (or plan) against a reference on the same ground."""
    if isinstance(measure, DiscreteMeasure) and isinstance(reference, DiscreteMeasure):
        if measure.ground is not reference.ground:
            raise GroundMismatchError("divergence requires a shared ground set")
        return divergence_arrays(e, measure.weights, reference.weights)
    if isinstance(measure, Plan) and isinstance(reference, Plan):
        if measure.row_ground is not reference.row_ground or (
            measure.col_ground is not reference.col_ground
        ):
            raise GroundMismatchError("divergence requires shared ground sets")
        return divergence_arrays(e, measure.weights, reference.weights)
    return divergence_arrays(e, measure, reference)
