"""Pinned clique-density identities and the Cauchy-Schwarz chain.

For a constant-p graphon the density of K_t with k vertices pinned at
parts x_1..x_k equals p^binom(t,2) at every tuple: the pinned pairs
multiply in their values and the other t-k vertices are integrated out.
check_identity reads that density for every tuple off one pinned K_t
table and measures its worst-case deviation from p^binom(t,2), which is
zero iff the graphon behaves p-randomly at the pinned tuples.

cs_chain_check verifies the inequality chain d_j >= d_{j-1}^2 along
iterated doublings, where each step is an integral of a square, and probes
the equality case through the variance of the pinned density.
"""

from __future__ import annotations

import functools
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
from .errors import _check_budget, _check_count
from .graphon import StepGraphon
from .graphs import complete_graph
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
    return (_check_count("t", t) + 2) // 2


@dataclass(frozen=True, eq=False)
class IdentityResidualReport:
    """Worst deviation of the pinned K_t density from p^binom(t,2).

    ``argmax_tuple`` is the lexicographically smallest non-decreasing part
    tuple attaining ``max_residual``; ``per_tuple`` optionally carries the
    full residual array, axis i indexed by the part of pinned vertex i.
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


def _check_tkp(t: int, k: int | None, p: float) -> int:
    """Check the clique size t, the pinned count k and p; returns k,
    ceil((t+1)/2) when None."""
    _check_count("t", t)
    if not 3 <= t <= 6:
        raise ValueError(f"t must lie in [3, 6]; got {t}")
    if k is None:
        k = default_doublings(t)
    _check_count("k", k)
    if not 1 <= k <= t:
        raise ValueError(f"k must lie in [1, {t}]; got {k}")
    if not 0.0 < p <= 1.0:  # NaN fails here too
        raise ValueError("p must lie in (0, 1]")
    return k


@functools.lru_cache(maxsize=8)
def _non_decreasing(m: int, k: int) -> np.ndarray:
    """The flat C-order indices of the non-decreasing k-tuples of m parts,
    ascending, built once per (m, k) and read-only."""
    # x_i <= x_{i+1} on every pair of neighbouring axes: m^k bytes
    upper = np.triu(np.ones((m, m), dtype=bool))
    mask = np.ones((m,) * k, dtype=bool)
    for i in range(k - 1):
        mask &= upper.reshape((1,) * i + upper.shape + (1,) * (k - i - 2))
    flat = np.flatnonzero(mask)
    flat.flags.writeable = False
    return flat


def check_identity(graphon: StepGraphon, p: float, t: int, k: int | None = None,
                   include_table: bool = True,
                   budget: int = DEFAULT_BUDGET) -> IdentityResidualReport:
    """Max over part tuples of |pinned K_t density - p^binom(t,2)|.

    Pins the first k vertices of K_t at every k-tuple of parts and reads
    all the pinned densities off one pinned_table, whose budget check
    refuses m^k tuples over ``budget`` before any table is built.  k
    defaults to ceil((t+1)/2).  Residuals are absolute deviations.  The
    table is symmetric in its k axes, but its rounding is not, so the
    maximum is taken over non-decreasing tuples only and ties break toward
    the lexicographically smallest of them: which permutation of a tuple
    happens to round highest never decides the report.
    """
    budget = _check_budget(budget)
    k = _check_tkp(t, k, p)
    table = pinned_table(complete_graph(t).graph, tuple(range(k)), graphon,
                         budget=budget)
    residual = np.abs(table - p ** (t * (t - 1) // 2))
    flat = _non_decreasing(graphon.num_parts, k)
    # the first max in C order is the lex smallest
    flat_arg = int(flat[np.argmax(residual.reshape(-1)[flat])])
    argmax = tuple(int(i) for i in np.unravel_index(flat_arg, residual.shape))
    return IdentityResidualReport(t, k, float(p), float(residual[argmax]), argmax,
                                  residual if include_table else None)


def identity_residual_at(graphon: StepGraphon, p: float, t: int, k: int,
                         parts, budget: int = DEFAULT_BUDGET) -> float:
    """Residual at one pinned tuple, recomputed by direct enumeration.

    Independent of the table route in check_identity: the pinned K_t
    density comes from pinned_density's exactly rounded per-assignment sum.
    """
    budget = _check_budget(budget)
    _check_tkp(t, k, p)
    parts = tuple(parts)
    if len(parts) != k:
        raise ValueError(f"expected {k} part indices, got {len(parts)}")
    density = pinned_density(complete_graph(t).graph, tuple(range(k)),
                             dict(enumerate(parts)), graphon, budget=budget)
    return abs(density - p ** (t * (t - 1) // 2))


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
    budget = _check_budget(budget)
    _check_count("t", t)
    if t < 2:
        raise ValueError("t must be at least 2")
    _check_count("k", k)
    if not 0 <= k <= t:
        raise ValueError(f"k must lie in [0, {t}]; got {k}")
    doubling = _Doubling(complete_graph(t), k, graphon.weights, budget)
    run = doubling.forward(graphon.values)
    moments = doubling.moments(run)
    densities = tuple(mean for mean, _, _ in moments) + (float(run.table[()]),)
    slacks = tuple(densities[j + 1] - densities[j] ** 2 for j in range(k))
    variances = tuple(var for _, _, var in moments)
    return ChainRecord(t, k, densities, slacks, variances)
