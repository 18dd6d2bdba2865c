"""Pointwise clique-factorization identities and the Cauchy-Schwarz chain.

For a constant-p graphon the density of K_t factors pointwise: pinning k
vertices at parts x_1..x_k, the product of the pinned pairs' values times
the conditional density of the remaining t-k vertices equals p^binom(t,2)
at every tuple.  check_identity measures the worst-case failure of that
factorization, which is zero iff the graphon behaves p-randomly at the
pinned tuples.

cs_chain_check verifies the inequality chain d_j >= d_{j-1}^2 along
iterated doublings, where each step is an integral of a square, and probes
the equality case through the variance of the pinned density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# unused names kept importable here: the benchmark's tracer wraps them by name
from .density import (
    DEFAULT_BUDGET,
    doubling_density,  # noqa: F401
    doubling_step_moments,  # noqa: F401
    graphon_density,  # noqa: F401
    pinned_density,
    pinned_table,
    _Doubling,
)
from .errors import UnsupportedSizeError
from .graphon import StepGraphon
from .graphs import Graph, complete_graph
from .serialize import record_dict

__all__ = [
    "IdentityResidualReport",
    "ChainRecord",
    "check_identity",
    "identity_residual_at",
    "cs_chain_check",
    "default_doublings",
]


def default_doublings(t: int) -> int:
    """Number of doublings paired with K_t by default: ceil((t+1)/2)."""
    return (t + 2) // 2


def _rest_motif(t: int, k: int) -> Graph:
    """K_t with the edges among the first k vertices removed."""
    return Graph(t, [(i, j) for i in range(t) for j in range(i + 1, t) if j >= k])


def _clique_factor_table(values: np.ndarray, k: int) -> np.ndarray:
    m = values.shape[0]
    out = np.ones((m,) * k)
    for i in range(k):
        for j in range(i + 1, k):
            shape = [1] * k
            shape[i] = shape[j] = m
            out = out * values.reshape(shape)
    return out


@dataclass(frozen=True, eq=False)
class IdentityResidualReport:
    """Worst deviation of the pinned clique factorization from p^binom(t,2).

    ``argmax_tuple`` is the lexicographically smallest part tuple attaining
    ``max_residual``; ``per_tuple`` optionally carries the full residual
    array, axis i indexed by the part of pinned vertex i.
    """

    t: int
    k: int
    p: float
    max_residual: float
    argmax_tuple: tuple[int, ...]
    per_tuple: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.max_residual < 0:
            raise ValueError("max_residual must be non-negative")
        if len(self.argmax_tuple) != self.k:
            raise ValueError("argmax_tuple must have one part index per pinned vertex")

    to_dict = record_dict


def _check_tk(t: int, k: int) -> None:
    if not 3 <= t <= 6:
        raise ValueError(f"t must lie in [3, 6]; got {t}")
    if not 1 <= k <= t:
        raise ValueError(f"k must lie in [1, {t}]; got {k}")


def check_identity(graphon: StepGraphon, p: float, t: int, k: int | None = None,
                   include_table: bool = True,
                   budget: int = DEFAULT_BUDGET) -> IdentityResidualReport:
    """Max over part tuples of |clique factor x conditional rest - p^binom(t,2)|.

    Pins the first k vertices of K_t at every k-tuple of parts; the clique
    factor multiplies the values of the pinned pairs and the conditional
    rest integrates the remaining t-k vertices.  k defaults to
    ceil((t+1)/2).  Residuals are absolute deviations; ties in the argmax
    break toward the lexicographically smallest tuple.
    """
    if k is None:
        k = default_doublings(t)
    _check_tk(t, k)
    if not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0, 1]")
    m = graphon.num_parts
    if m**k > budget:
        raise UnsupportedSizeError(
            f"{m}^{k} pinned tuples exceed the budget of {budget}"
        )
    rest = pinned_table(_rest_motif(t, k), tuple(range(k)), graphon, budget=budget)
    clique = _clique_factor_table(graphon.values, k)
    residual = np.abs(clique * rest - p ** (t * (t - 1) // 2))
    flat_arg = int(np.argmax(residual))  # first max in C order = lex smallest
    argmax = tuple(int(i) for i in np.unravel_index(flat_arg, residual.shape))
    return IdentityResidualReport(
        t, k, float(p), float(residual[argmax]), argmax,
        residual if include_table else None,
    )


def identity_residual_at(graphon: StepGraphon, p: float, t: int, k: int,
                         parts, budget: int = DEFAULT_BUDGET) -> float:
    """Residual at one pinned tuple, recomputed by direct enumeration.

    Independent of the table route in check_identity: the conditional rest
    comes from pinned_density's per-assignment sum.
    """
    _check_tk(t, k)
    parts = tuple(int(x) for x in parts)
    if len(parts) != k:
        raise ValueError(f"expected {k} part indices, got {len(parts)}")
    values = graphon.values
    clique = 1.0
    for i in range(k):
        for j in range(i + 1, k):
            clique *= values[parts[i], parts[j]]
    rest = pinned_density(
        _rest_motif(t, k), tuple(range(k)), dict(enumerate(parts)), graphon,
        budget=budget,
    )
    return abs(clique * rest - p ** (t * (t - 1) // 2))


@dataclass(frozen=True)
class ChainRecord:
    """Densities along iterated doublings and their squared-step gaps.

    ``densities[j]`` is the density of the j-times-doubled K_t;
    ``slacks[j-1] = densities[j] - densities[j-1]**2`` is non-negative up to
    rounding because each doubling integrates a square.  ``variances[j-1]``
    is the variance of the pinned density summed out by step j, computed
    from its first two moments rather than as the difference of chain
    entries; slack and variance agree, and both vanish exactly when the
    conditional density is constant.
    """

    t: int
    k: int
    densities: tuple[float, ...]
    slacks: tuple[float, ...]
    variances: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.densities) != self.k + 1:
            raise ValueError("need one density per chain level, 0 through k")
        if len(self.slacks) != self.k or len(self.variances) != self.k:
            raise ValueError("need one slack and one variance per doubling step")

    to_dict = record_dict


def cs_chain_check(t: int, k: int, graphon: StepGraphon,
                   budget: int = DEFAULT_BUDGET) -> ChainRecord:
    """Chain d_0 = t(K_t, W), ..., d_k with per-step slacks and variances.

    Each step satisfies d_j >= d_{j-1}^2 (integral of a square); the
    variance of the pinned density is the same gap measured independently,
    so near-zero slack certifies a near-constant conditional density.
    Every level is read off one run of the gluing recursion: d_j for j < k
    is the mean of level j's pinned density and d_k is the final table.
    Binding checks every level against the budget before any contraction.
    """
    if t < 2:
        raise ValueError("t must be at least 2")
    if not 0 <= k <= t:
        raise ValueError(f"k must lie in [0, {t}]; got {k}")
    doubling = _Doubling(complete_graph(t), k, graphon.weights, budget)
    run = doubling.forward(graphon.values)
    moments = doubling.moments(run)
    densities = tuple(mean for mean, _, _ in moments) + (float(run.table[()]),)
    slacks = tuple(densities[j + 1] - densities[j] ** 2 for j in range(k))
    variances = tuple(var for _, _, var in moments)
    return ChainRecord(t, k, densities, slacks, variances)
