"""Seeded random graph generation from an edge probability or a step graphon.

All sampling uses numpy's PCG64 generator with a documented draw order, so
a (source, n, seed) triple reproduces the same graph on every platform:
first one uniform per vertex (part assignment, graphon sampling only),
then one uniform per unordered pair in lexicographic order (0,1), (0,2),
..., (n-2, n-1); a pair is an edge when its uniform falls below the pair's
probability.  Seeds must be non-negative integers (numpy integers too);
bools, floats and negative values are refused with a ValueError naming
``seed``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import _check_count
from .graphon import StepGraphon
from .graphs import Graph

__all__ = ["SampleSpec", "gnp", "w_random", "sample"]

MAX_SAMPLE_VERTICES = 10_000


def _check_n(n: int) -> None:
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > MAX_SAMPLE_VERTICES:
        raise ValueError(f"n must not exceed {MAX_SAMPLE_VERTICES}")


def _edges_from_probs(n: int, probs: np.ndarray, pair_u: np.ndarray,
                      iu: np.ndarray, iv: np.ndarray) -> Graph:
    mask = pair_u < probs
    edges = list(zip(iu[mask].tolist(), iv[mask].tolist()))
    return Graph(n, edges)


def gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi sample: each pair is an edge independently with
    probability p."""
    _check_n(n)
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    _check_count("seed", seed)
    rng = np.random.Generator(np.random.PCG64(seed))
    iu, iv = np.triu_indices(n, 1)
    pair_u = rng.random(iu.size)
    return _edges_from_probs(n, float(p), pair_u, iu, iv)


def w_random(graphon: StepGraphon, n: int, seed: int) -> Graph:
    """Graphon sample: vertices draw parts by weight, pairs flip coins by
    value.

    Part assignment inverts the cumulative weight distribution on one
    uniform per vertex; with a single part the result matches gnp at the
    part's value in distribution (the draw order differs, so the same
    seed gives a different but equally distributed graph).
    """
    _check_n(n)
    _check_count("seed", seed)
    rng = np.random.Generator(np.random.PCG64(seed))
    vertex_u = rng.random(n)
    cum = np.cumsum(graphon.weights)
    parts = np.minimum(
        np.searchsorted(cum, vertex_u, side="right"), graphon.num_parts - 1
    )
    iu, iv = np.triu_indices(n, 1)
    pair_u = rng.random(iu.size)
    probs = graphon.values[parts[iu], parts[iv]]
    return _edges_from_probs(n, probs, pair_u, iu, iv)


@dataclass(frozen=True, eq=False)
class SampleSpec:
    """A reproducible sampling request: size, source, and seed.

    ``source`` is either a bare probability (Erdos-Renyi) or a
    StepGraphon.
    """

    n: int
    source: float | StepGraphon
    seed: int

    def __post_init__(self) -> None:
        _check_n(self.n)
        _check_count("seed", self.seed)
        if not isinstance(self.source, StepGraphon):
            p = float(self.source)
            if not 0.0 <= p <= 1.0:
                raise ValueError("constant source must lie in [0, 1]")

    def to_dict(self) -> dict:
        source = (
            self.source.to_dict()
            if isinstance(self.source, StepGraphon)
            else float(self.source)
        )
        return {"n": self.n, "source": source, "seed": self.seed}


def sample(spec: SampleSpec) -> Graph:
    """Draw the graph a SampleSpec describes."""
    if isinstance(spec.source, StepGraphon):
        return w_random(spec.source, spec.n, spec.seed)
    return gnp(spec.n, float(spec.source), spec.seed)
