"""Finitely supported measures on a metric ground set.

Measures are atomic only: a ground set is a finite point cloud in R^n and a
measure is a vector of nonnegative weights over those points.  Plans are
nonnegative matrices over pairs of ground sets.  Continuous singular parts
reduce, in this setting, to atoms sitting where a reference measure has zero
weight, which keeps every Lebesgue decomposition exact.

All types are immutable after construction (weight arrays are frozen), so
values can be shared freely across threads.  Ground sets are compared by
object identity: two measures interoperate only if they were built on the
same GroundSet instance, which prevents silently mixing supports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


class GroundMismatchError(ValueError):
    """Raised when an operation mixes measures living on different grounds."""


def _read_only(arr: np.ndarray) -> np.ndarray:
    """``arr``, marked read-only: how a solver hands a fresh array it keeps
    no writable view of to a frozen value type, which then shares it."""
    arr.flags.writeable = False
    return arr


def _shareable(value) -> bool:
    """Whether ``value`` is a read-only float64 array that no writable array
    reaches: it owns its memory, or its base is such an array."""
    return (type(value) is np.ndarray and value.dtype == np.float64
            and not value.flags.writeable and (value.flags.owndata or _shareable(value.base)))


def _frozen_array(owner, field: str, what: str, *, ndim=None, shape=None,
                  nonnegative: bool = False, infinite: bool = False) -> np.ndarray:
    """Set ``field`` of the frozen dataclass ``owner`` to a read-only float
    array of its value, checked for ``ndim`` or ``shape`` when given, NaN,
    infinity unless ``infinite`` (-inf then fails ``nonnegative``) and sign
    when ``nonnegative``, each by a boolean mask; ``what`` names it in errors.
    A ``_shareable`` value is kept as it is, anything else is copied, so a
    later write to the caller's array never reaches the field.  Every frozen
    value type of the package builds its arrays here."""
    value = getattr(owner, field)
    try:
        arr = value if _shareable(value) else np.array(value, dtype=float)
    except TypeError as exc:  # a value of no numeric type, such as a dict
        raise ValueError(f"{what} must be numbers: {exc}") from exc
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"{what} must be {ndim}-dimensional, got shape {arr.shape}")
    if shape is not None and arr.shape != shape:
        raise ValueError(f"{what} have shape {arr.shape}, expected {shape}")
    if (np.isnan(arr).any() if infinite else not np.isfinite(arr).all()):
        raise ValueError(f"{what} must be finite" + (" or +inf" if infinite else ""))
    if nonnegative and (arr < 0).any():
        raise ValueError(f"{what} must be nonnegative")
    arr.flags.writeable = False
    object.__setattr__(owner, field, arr)
    return arr


@dataclass(frozen=True)
class GroundSet:
    """Finite point cloud in R^n with the Euclidean metric."""

    points: np.ndarray

    def __post_init__(self):
        pts = _frozen_array(self, "points", "ground set points")
        if pts.ndim == 1:  # one coordinate per point; the view stays read-only
            pts = pts[:, None]
            object.__setattr__(self, "points", pts)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError("points must be a nonempty (count, dim) array")
        # pairwise-distinct points; duplicates would make atoms ambiguous
        if len({tuple(p) for p in pts}) != pts.shape[0]:
            raise ValueError("ground set points must be pairwise distinct")

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class DiscreteMeasure:
    """Nonnegative weights over the points of a ground set."""

    ground: GroundSet
    weights: np.ndarray

    def __post_init__(self):
        _frozen_array(self, "weights", "measure weights", shape=(self.ground.size,),
                      nonnegative=True)

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.weights))


@dataclass(frozen=True)
class Plan:
    """Nonnegative matrix of weights over pairs of two ground sets."""

    row_ground: GroundSet
    col_ground: GroundSet
    weights: np.ndarray

    def __post_init__(self):
        _frozen_array(self, "weights", "plan weights",
                      shape=(self.row_ground.size, self.col_ground.size), nonnegative=True)

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.weights))


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def marginal(plan: Plan, index: int) -> DiscreteMeasure:
    """Project a plan to one of its sides by summing over the other."""
    if index == 0:
        return DiscreteMeasure(plan.row_ground, np.sum(plan.weights, axis=1))
    if index == 1:
        return DiscreteMeasure(plan.col_ground, np.sum(plan.weights, axis=0))
    raise ValueError("marginal index must be 0 or 1")


def split_arrays(measure: np.ndarray, reference: np.ndarray):
    """Array-level Lebesgue split used by the functional evaluators.

    Works for measures and plans alike; returns (density, singular) with
    measure = density * reference + singular elementwise.
    """
    pos = reference > 0
    density = np.zeros_like(measure, dtype=float)
    np.divide(measure, reference, out=density, where=pos)
    singular = np.where(pos, 0.0, measure)
    return density, singular


def product(mu0: DiscreteMeasure, mu1: DiscreteMeasure) -> Plan:
    """Product measure mu0 (x) mu1 as a plan over the two grounds."""
    return Plan(mu0.ground, mu1.ground, np.outer(mu0.weights, mu1.weights))


# ---------------------------------------------------------------------------
# Serialization: measures as {"points": ..., "weights": ...}, plans as
# {"rows": ..., "cols": ..., "weights": ...}
# ---------------------------------------------------------------------------

def measure_to_dict(measure: DiscreteMeasure) -> dict:
    return {
        "points": measure.ground.points.tolist(),
        "weights": measure.weights.tolist(),
    }


def measure_from_dict(data: dict) -> DiscreteMeasure:
    try:
        return DiscreteMeasure(GroundSet(data["points"]), data["weights"])
    except KeyError as exc:
        raise ValueError(f"measure object is missing field {exc}") from exc
    except TypeError as exc:  # not an object: a list, a number, null
        raise ValueError(f"malformed measure object: {exc}") from exc


def plan_to_dict(plan: Plan) -> dict:
    return {
        "rows": plan.row_ground.size,
        "cols": plan.col_ground.size,
        "weights": plan.weights.tolist(),
    }


def plan_weights_from_dict(data: dict) -> np.ndarray:
    """Plan weights from the wire format; grounds are supplied separately."""
    try:
        w = np.array(data["weights"], dtype=float)
        shape = (int(data["rows"]), int(data["cols"]))
    except KeyError as exc:
        raise ValueError(f"plan object is missing field {exc}") from exc
    except TypeError as exc:  # not an object, or a field of the wrong type
        raise ValueError(f"malformed plan object: {exc}") from exc
    if w.shape != shape:
        raise ValueError(f"plan weights shape {w.shape} does not match rows/cols {shape}")
    return w


def load_measure(path) -> DiscreteMeasure:
    with open(path, "r", encoding="utf-8") as fh:
        return measure_from_dict(json.load(fh))


def save_measure(measure: DiscreteMeasure, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(measure_to_dict(measure), fh, sort_keys=True, indent=2)
        fh.write("\n")
