"""Quasirandomness diagnostics for graphs and constancy metrics for graphons.

A graph is (eps, p)-quasirandom when every vertex subset U satisfies
|e(U) - p * binom(|U|, 2)| <= eps * n^2.  The exact checker maximizes the
left side over all 2^n subsets; beyond the exact cap a seeded local-search
heuristic reports the best subset it finds, which lower-bounds the truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedSizeError
from .graphon import StepGraphon
from .graphs import Graph

__all__ = [
    "QuasirandomReport",
    "ConstancyReport",
    "graph_quasirandomness",
    "graphon_constancy",
    "row_oscillation",
]

_EXACT_HARD_CAP = 26
_CUT_MAX_PARTS = 15

_POP16 = None


def _popcount(arr: np.ndarray) -> np.ndarray:
    """Bit counts of non-negative int64 entries below 2**32, via a 16-bit table."""
    global _POP16
    if _POP16 is None:
        _POP16 = (
            ((np.arange(1 << 16, dtype=np.uint32)[:, None] >> np.arange(16)) & 1)
            .sum(axis=1)
            .astype(np.int64)
        )
    return _POP16[arr & 0xFFFF] + _POP16[(arr >> 16) & 0xFFFF]


def _mask_to_tuple(mask: int) -> tuple[int, ...]:
    out = []
    v = 0
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return tuple(out)


@dataclass(frozen=True)
class QuasirandomReport:
    """Outcome of a quasirandomness check.

    ``deviation`` is |e(U) - p*binom(|U|,2)| / n^2 at the reported witness;
    ``epsilon_star`` is the smallest eps the run can certify.  In exact mode
    the two coincide; in heuristic mode epsilon_star falls back to the
    trivial certificate max(p, 1-p) * binom(n,2) / n^2 and the deviation is
    only a lower bound on the true maximum.
    """

    n: int
    p: float
    epsilon_star: float
    deviation: float
    witness: tuple[int, ...]
    exact: bool

    def __post_init__(self) -> None:
        if self.epsilon_star < self.deviation - 1e-12:
            raise ValueError("epsilon_star must dominate the witnessed deviation")

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "p": self.p,
            "epsilon_star": self.epsilon_star,
            "deviation": self.deviation,
            "witness": list(self.witness),
            "exact": self.exact,
        }


def _subset_deviation(g: Graph, p: float, subset) -> float:
    inside = set(subset)
    e = sum(1 for u, v in g.edges if u in inside and v in inside)
    u = len(inside)
    return abs(e - p * u * (u - 1) / 2) / g.n**2


def _exact_max(g: Graph, p: float):
    n = g.n
    adj_masks = np.zeros(n, dtype=np.int64)
    for u, v in g.edges:
        adj_masks[u] |= 1 << v
        adj_masks[v] |= 1 << u
    # subset DP over prefixes: adding vertex v to U changes e(U) by |N(v) & U|
    # and |U| by one.  The tables are allocated once and filled in place;
    # concatenating new ones at every level made the peak memory depend on
    # how the allocator happened to reuse the freed ones
    masks = np.zeros(1 << n, dtype=np.int64)
    e = np.zeros(1 << n, dtype=np.int64)
    sizes = np.zeros(1 << n, dtype=np.int64)
    for v in range(n):
        half = 1 << v
        np.bitwise_or(masks[:half], np.int64(half), out=masks[half:2 * half])
        np.add(e[:half], _popcount(masks[:half] & adj_masks[v]), out=e[half:2 * half])
        np.add(sizes[:half], 1, out=sizes[half:2 * half])
    # |e - p * |U| * (|U| - 1) / 2| / n^2, evaluated in place in that order
    dev = p * sizes
    np.subtract(sizes, 1, out=sizes)
    dev *= sizes
    dev /= 2.0
    np.subtract(e, dev, out=dev)
    np.abs(dev, out=dev)
    dev /= n**2
    best = float(dev.max())
    if dev[0] == best:
        return best, ()
    cands = np.flatnonzero(dev == best)
    witness = min(_mask_to_tuple(int(masks[i])) for i in cands)
    return best, witness


def _heuristic_max(g: Graph, p: float, seed: int, restarts: int):
    n = g.n
    a = np.zeros((n, n))
    for u, v in g.edges:
        a[u, v] = a[v, u] = 1.0
    m0 = a - p * (1.0 - np.eye(n))  # x' m0 x = 2 (e(U) - p binom(|U|,2))
    vals, vecs = np.linalg.eigh(a - p)
    top = vecs[:, int(np.argmax(np.abs(vals)))]
    starts = [top > 0, top < 0]
    rng = np.random.Generator(np.random.PCG64(seed))
    starts += [rng.random(n) < 0.5 for _ in range(restarts)]

    best_dev = -1.0
    best_key: tuple[int, ...] = ()
    for start in starts:
        x = start.astype(float)
        grad = m0 @ x
        s = float(x @ grad)
        while True:
            cand = s + (1.0 - 2.0 * x) * 2.0 * grad
            v = int(np.argmax(np.abs(cand)))
            if abs(cand[v]) <= abs(s) + 1e-12:
                break
            sign = 1.0 - 2.0 * x[v]
            x[v] = 1.0 - x[v]
            s = float(cand[v])
            grad = grad + sign * m0[:, v]
        subset = tuple(int(i) for i in np.flatnonzero(x > 0.5))
        dev = _subset_deviation(g, p, subset)
        if dev > best_dev or (dev == best_dev and subset < best_key):
            best_dev, best_key = dev, subset
    return best_dev, best_key


def graph_quasirandomness(g: Graph, p: float, mode: str = "auto",
                          exact_max_n: int = 22, seed: int = 0,
                          restarts: int = 32) -> QuasirandomReport:
    """Largest subset deviation from p-random edge counts, with a witness.

    ``mode='exact'`` enumerates all subsets (vectorized prefix DP, capped at
    ``exact_max_n`` vertices); ``'heuristic'`` runs greedy single-vertex
    flips from the top-eigenvector sign pattern of A - pJ plus ``restarts``
    random starts.  ``'auto'`` picks exact when the graph fits under the
    cap.  Ties between witnesses break toward the lexicographically
    smallest vertex tuple.
    """
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if not 1 <= exact_max_n <= _EXACT_HARD_CAP:
        raise ValueError(f"exact_max_n must lie in [1, {_EXACT_HARD_CAP}]")
    if mode == "auto":
        mode = "exact" if g.n <= exact_max_n else "heuristic"
    if mode == "exact":
        if g.n > exact_max_n:
            raise UnsupportedSizeError(
                f"exact enumeration is capped at {exact_max_n} vertices; got {g.n}"
            )
        dev, witness = _exact_max(g, p)
        return QuasirandomReport(g.n, float(p), dev, dev, witness, True)
    if mode == "heuristic":
        dev, witness = _heuristic_max(g, p, seed, restarts)
        bound = max(p, 1.0 - p) * (g.n * (g.n - 1) / 2) / g.n**2
        return QuasirandomReport(g.n, float(p), bound, dev, witness, False)
    raise ValueError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class ConstancyReport:
    """Distances of a step graphon from the constant-p graphon.

    ``cut`` is None when the part count exceeds the exact-enumeration cap;
    otherwise cut <= l2 <= linf always holds (up to rounding).
    ``oscillation`` ignores p: it is the largest within-row spread, zero
    exactly when the graphon is constant at some value.
    """

    p: float
    linf: float
    l2: float
    cut: float | None
    oscillation: float
    oscillation_part: int

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "linf": self.linf,
            "l2": self.l2,
            "cut": self.cut,
            "oscillation": self.oscillation,
            "oscillation_part": self.oscillation_part,
        }


def row_oscillation(graphon: StepGraphon) -> tuple[float, int]:
    """Largest within-row value spread and the first part attaining it."""
    spread = graphon.values.max(axis=1) - graphon.values.min(axis=1)
    part = int(np.argmax(spread))
    return float(spread[part]), part


def graphon_constancy(graphon: StepGraphon, p: float) -> ConstancyReport:
    """linf, weighted l2, and cut-norm distances from the constant p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    m = graphon.num_parts
    w = graphon.weights
    diff = graphon.values - p
    linf = float(np.abs(diff).max())
    wd = np.outer(w, w) * diff
    l2 = float(np.sqrt((wd * diff).sum()))
    cut = None
    if m <= _CUT_MAX_PARTS:
        # for each row subset S the optimal column subset is the positive
        # (or negative) part of the combined row, so 2^m rows suffice
        bits = ((np.arange(1 << m)[:, None] >> np.arange(m)) & 1).astype(float)
        combined = bits @ wd
        pos = np.maximum(combined, 0.0).sum(axis=1)
        neg = np.maximum(-combined, 0.0).sum(axis=1)
        cut = float(max(pos.max(), neg.max()))
    osc, part = row_oscillation(graphon)
    return ConstancyReport(float(p), linf, l2, cut, osc, part)
