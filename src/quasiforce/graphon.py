"""Step-function graphons: part weights plus a symmetric value matrix.

A step graphon with m parts is the pair (weights, values) where weights is a
positive vector summing to 1 and values is a symmetric m x m matrix with
entries in [0, 1].  The step graphon of a finite graph has uniform weights
1/n and 0/1 values, which makes homomorphism densities in graphs a special
case of graphon densities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph, _fields

__all__ = [
    "StepGraphon",
    "constant_graphon",
    "from_graph",
    "random_near_constant",
]


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
        w.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "values", v)

    @property
    def num_parts(self) -> int:
        return int(self.weights.size)

    def to_dict(self) -> dict:
        return {
            "weights": [float(x) for x in self.weights],
            "values": [[float(x) for x in row] for row in self.values],
        }

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

    @classmethod
    def _wrap(cls, weights: np.ndarray, values: np.ndarray) -> "StepGraphon":
        # validation-free path for optimizer inner loops; the caller must
        # guarantee symmetric values in [0, 1] and weights as in __init__
        self = object.__new__(cls)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "values", values)
        return self


def constant_graphon(p: float, parts: int = 1) -> StepGraphon:
    """The graphon identically equal to p, on the given number of parts."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if parts < 1:
        raise ValueError("parts must be at least 1")
    return StepGraphon(np.full(parts, 1.0 / parts), np.full((parts, parts), float(p)))


def from_graph(g: Graph) -> StepGraphon:
    """The step graphon of a finite graph: uniform weights, 0/1 values."""
    if g.n == 0:
        raise ValueError("graph must have at least one vertex")
    values = np.zeros((g.n, g.n))
    for u, v in g.edges:
        values[u, v] = values[v, u] = 1.0
    return StepGraphon(np.full(g.n, 1.0 / g.n), values)


def random_near_constant(
    p: float, parts: int, spread: float, rng: np.random.Generator
) -> StepGraphon:
    """Constant-p values plus independent uniform noise in [-spread, spread].

    The upper triangle (including the diagonal) is drawn and mirrored, then
    clamped to [0, 1]; weights stay uniform.
    """
    if parts < 1:
        raise ValueError("parts must be at least 1")
    noise = rng.uniform(-spread, spread, size=(parts, parts))
    upper = np.triu(noise)
    sym = upper + np.triu(noise, 1).T
    values = np.clip(p + sym, 0.0, 1.0)
    return StepGraphon(np.full(parts, 1.0 / parts), values)
