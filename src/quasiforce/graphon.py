"""Step-function graphons: part weights plus a symmetric value matrix.

A step graphon with m parts is the pair (weights, values) where weights is a
positive vector summing to 1 and values is a symmetric m x m matrix with
entries in [0, 1].  The step graphon of a finite graph has uniform weights
1/n and 0/1 values, which makes homomorphism densities in graphs a special
case of graphon densities.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import _check_count
from .graphs import Graph, _fields
from .serialize import record_dict

__all__ = [
    "StepGraphon",
    "constant_graphon",
    "from_graph",
    "random_near_constant",
]


def _check_in_order(w: np.ndarray, v: np.ndarray) -> None:
    """The value checks of StepGraphon, one at a time, first failure raised."""
    # NaN fails every comparison below, so finiteness comes first
    if not (np.all(np.isfinite(w)) and np.all(np.isfinite(v))):
        raise ValueError("weights and values must be finite numbers")
    if np.any(w <= 0):
        raise ValueError("weights must be strictly positive")
    if abs(float(w.sum()) - 1.0) > 1e-12:
        raise ValueError("weights must sum to 1 (within 1e-12)")
    if not np.array_equal(v, v.T):
        raise ValueError("values must be symmetric: values[i][j] == values[j][i]")
    if np.any(v < 0.0) or np.any(v > 1.0):
        raise ValueError("values must lie in [0, 1]")


@dataclass(frozen=True, eq=False)
class StepGraphon:
    weights: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        w = np.array(self.weights, dtype=float)
        v = np.array(self.values, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a non-empty 1-d sequence")
        if v.shape != (w.size, w.size):
            raise ValueError(
                f"values must be a {w.size} x {w.size} matrix matching the weights"
            )
        # a valid input passes one combined test, whose every reduction
        # fails on NaN; any other input is run through the checks in their
        # documented order, so it meets the first one it fails
        if not (w.min() > 0.0 and abs(float(w.sum()) - 1.0) <= 1e-12
                and v.min() >= 0.0 and v.max() <= 1.0 and (v == v.T).all()):
            _check_in_order(w, v)
        w.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "values", v)

    @property
    def num_parts(self) -> int:
        return int(self.weights.size)

    to_dict = record_dict

    @classmethod
    def from_dict(cls, data: dict) -> "StepGraphon":
        weights, values = _fields(data, "graphon", "weights", "values")
        try:
            weights, values = np.asarray(weights, float), np.asarray(values, float)
        except (TypeError, ValueError):
            raise ValueError(
                'graphon needs "weights" and "values" as arrays of numbers'
            ) from None
        return cls(weights, values)


def constant_graphon(p: float, parts: int = 1) -> StepGraphon:
    """The graphon identically equal to p, on the given number of parts."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    _check_count("parts", parts)
    if parts < 1:
        raise ValueError("parts must be at least 1")
    return StepGraphon(np.full(parts, 1.0 / parts), np.full((parts, parts), float(p)))


def _adjacency(g: Graph, dtype=float) -> np.ndarray:
    """The 0/1 adjacency matrix of g; the integer 1 keeps an object
    matrix exact."""
    a = np.zeros((g.n, g.n), dtype=dtype)
    for u, v in g.edges:
        a[u, v] = a[v, u] = 1
    return a


def from_graph(g: Graph) -> StepGraphon:
    """The step graphon of a finite graph: uniform weights, 0/1 values."""
    if g.n == 0:
        raise ValueError("graph must have at least one vertex")
    return StepGraphon(np.full(g.n, 1.0 / g.n), _adjacency(g))


@functools.lru_cache(maxsize=16)
def _mirror(parts: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices that read every entry of a parts x parts
    matrix from its upper triangle, built once per size (for the last 16
    sizes) and read-only."""
    i = np.arange(parts)
    rows, cols = np.minimum.outer(i, i), np.maximum.outer(i, i)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def random_near_constant(
    p: float, parts: int, spread: float, rng: np.random.Generator
) -> StepGraphon:
    """Constant-p values plus independent uniform noise in [-spread, spread],
    for a spread >= 0 whose range 2 * spread is a finite double.

    The upper triangle (including the diagonal) is drawn and mirrored, then
    clamped to [0, 1]; weights stay uniform.
    """
    _check_count("parts", parts)
    if parts < 1:
        raise ValueError("parts must be at least 1")
    # the draw needs its range 2 * spread finite; NaN fails the comparison too
    if not 0.0 <= 2.0 * spread < np.inf:
        raise ValueError(
            f"spread must be non-negative with 2 * spread finite; got {spread}")
    noise = rng.uniform(-spread, spread, size=(parts, parts))
    values = np.clip(p + noise[_mirror(parts)], 0.0, 1.0)
    return StepGraphon(np.full(parts, 1.0 / parts), values)
