"""Quasirandomness diagnostics for graphs and constancy metrics for graphons.

A graph is (eps, p)-quasirandom when every vertex subset U satisfies
|e(U) - p * binom(|U|, 2)| <= eps * n^2.  The exact checker maximizes the
left side over all 2^n subsets by a blocked meet-in-the-middle: the
vertices split into halves, and for a block of subsets of one half a
single matrix product gives e(U) against every subset of the other half.
Each high-half subset first gets a cheap upper bound on its deviation:
its cross term per low size lies between the sums of its smallest and
largest edge counts to single low vertices.  The bound is built
size-major, one row per low size, with those sums as one product of the
sorted counts with a 0/1 triangular matrix.  The search scores a small
seed block of the highest bounds, then only the rows whose bound reaches
the best deviation found so far, dropping rows again as the best rises.
Rows that can only tie the best are still scored, so the tie-break sees
every maximizer.  The worst case, where every row ties at the best, is
still O(2^n * n/2) time; memory is O(2^(n/2)) plus one fixed-size block.
Beyond the exact cap a seeded local-search heuristic reports the best
subset it finds, which lower-bounds the truth.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import UnsupportedSizeError, _check_count
from .graphon import StepGraphon, _adjacency
from .graphs import Graph
from .serialize import record_dict

__all__ = [
    "QuasirandomReport",
    "ConstancyReport",
    "graph_quasirandomness",
    "graphon_constancy",
    "row_oscillation",
]

_EXACT_HARD_CAP = 26
# random starts of the heuristic; each is a full greedy descent
_MAX_RESTARTS = 10_000
_CUT_MAX_PARTS = 15
# entries in one block of the exact search's cross-term product
_BLOCK_ENTRIES = 1 << 18
# high subsets in the exact search's seed block, the highest bounds; on
# gnp(22, 1/2) inputs 16 to 48 rows time alike and 8 rows 5-15% slower
_SEED_ROWS = 16
# (n, p) pairs whose input-independent exact-search tables stay cached;
# at the hard cap of 26 vertices one entry holds about 4 MiB
_EXACT_TABLES_CACHE_SIZE = 16


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

    to_dict = record_dict


def _subset_deviation(g: Graph, p: float, subset) -> float:
    inside = set(subset)
    e = sum(1 for u, v in g.edges if u in inside and v in inside)
    u = len(inside)
    return abs(e - p * u * (u - 1) / 2) / g.n**2


@functools.lru_cache(maxsize=_CUT_MAX_PARTS + 1)
def _subset_bits(k: int) -> np.ndarray:
    """0/1 matrix whose row i holds the bits of i, lowest first, built once
    per k and read-only: graphon_constancy sums over its rows, and the
    exact search keeps it among its tables."""
    bits = ((np.arange(1 << k)[:, None] >> np.arange(k)) & 1).astype(float)
    bits.flags.writeable = False
    return bits


def _deviation(e, q, n: int, out=None):
    """|e - q| / n^2, rounded step by step as _subset_deviation rounds."""
    dev = np.subtract(e, q, out=out)
    np.abs(dev, out=dev)
    dev /= n**2
    return dev


def _lex_smallest(masks: np.ndarray) -> int:
    """The mask whose sorted vertex tuple is lexicographically smallest.

    Candidates sharing the tuple prefix chosen so far are narrowed to those
    whose next vertex is smallest; one that has no next vertex wins."""
    prefix = 0
    while not (masks == prefix).any():
        rest = masks ^ prefix
        lowest = rest & -rest
        step = int(lowest.min())
        masks = masks[lowest == step]
        prefix |= step
    return prefix


def _row_bounds(xh, adj_hl, e_high, e_low, starts, tri, qs, n: int):
    """Per high subset, an upper bound on its largest rounded deviation.

    With c = x_H' A_HL the high subset's edge counts to each low vertex,
    the cross term of a low subset of size s lies between the sums of the
    s smallest and the s largest entries of c, and e(U_L) between its
    extremes over size s (``e_low`` is ordered by size, one run per
    ``starts`` entry).  All terms are integers, so the ends are exact, and
    the rounded deviation is monotone in |e - q|: the bound holds bit for
    bit.  Every table here is size-major, one row per low size s: row s of
    ``tri`` sums the s smallest sorted counts, and ``qs`` holds q per (low
    size, high subset) and is overwritten."""
    counts = xh @ adj_hl
    counts.sort(axis=1)
    smallest = tri @ counts.T
    del counts
    largest = smallest[-1] - smallest[::-1]
    smallest += np.minimum.reduceat(e_low, starts)[:, None] + e_high
    largest += np.maximum.reduceat(e_low, starts)[:, None] + e_high
    _deviation(smallest, qs, n, out=smallest)
    _deviation(largest, qs, n, out=qs)
    return np.maximum(qs, smallest, out=qs).max(axis=0)


class _ExactTables(NamedTuple):
    """The tables of _exact_max that depend only on n and p."""

    low: int  # vertices in the low half
    xl: np.ndarray  # bits of every low subset, ordered by size
    order: np.ndarray  # the low subset mask of each row of xl
    size_low: np.ndarray  # size of each row of xl, int8 (sums stay <= 26)
    starts: np.ndarray  # first row of xl of each size
    tri: np.ndarray  # 0/1, row s has ones in its first s columns
    xh: np.ndarray  # bits of every high subset, by mask
    size_high: np.ndarray
    left: np.ndarray  # xh with a column of ones for e(U_L)
    q: np.ndarray  # p * s * (s - 1) / 2 per size s, evaluated in that order
    size_q: np.ndarray  # q per (low size, high subset)
    # the low subset mask of each row of xl with vertex 0 as its top bit,
    # int16 (at most 13 bits)
    reversed_low: np.ndarray


@functools.lru_cache(maxsize=_EXACT_TABLES_CACHE_SIZE)
def _exact_tables(n: int, p: float) -> _ExactTables:
    low = (n + 1) // 2
    xl, xh = _subset_bits(low), _subset_bits(n - low)
    # low subsets ordered by size, so each size is one contiguous run of
    # columns of the cross-term product
    order = np.argsort(xl.sum(axis=1), kind="stable")
    xl = xl[order]
    size_low = xl.sum(axis=1).astype(np.int8)
    size_high = xh.sum(axis=1).astype(np.int8)
    s = np.arange(n + 1.0)
    q = p * s
    q *= s - 1
    q /= 2.0
    tables = _ExactTables(
        low, xl, order, size_low, np.searchsorted(size_low, np.arange(low + 1)),
        np.tri(low + 1, low, -1), xh, size_high,
        np.hstack([xh, np.ones((len(xh), 1))]), q,
        q[np.arange(low + 1)[:, None] + size_high],
        (xl @ (1 << np.arange(low)[::-1])).astype(np.int16))
    for a in tables[1:]:
        a.flags.writeable = False
    return tables


def _score_block(t: _ExactTables, right, e_high, block, n: int, best, witness):
    """Score the high subsets ``block`` against every low subset.

    Returns the best deviation and its lexicographically smallest witness
    over the block and the (``best``, ``witness``) carried in.  Each
    rounding step is monotone, so for a fixed size the rounded deviation
    never falls as e moves away from q: per (low size, high subset) the
    largest or the smallest edge count attains the maximum, bit for bit."""
    cross = t.left[block] @ right
    eh = e_high[block, None]
    qs = t.size_q[:, block].T
    row_best = np.maximum(
        _deviation(np.maximum.reduceat(cross, t.starts, axis=1) + eh, qs, n),
        _deviation(np.minimum.reduceat(cross, t.starts, axis=1) + eh, qs, n),
    ).max(axis=1)
    block_best = float(row_best.max())
    if block_best < best:
        return best, witness
    if block_best > best:
        best, witness = block_best, None
    # the full deviation, only on the rows that reach the best value, a
    # quarter block of them at a time: where every row ties (an empty or
    # complete graph at p = 0 or 1) the tables of a whole block, beside
    # cross, outgrow glibc's trim threshold, and each block faults its
    # pages in anew (384,688 minor faults at n = 26)
    hit = np.flatnonzero(row_best == best)
    chunk = max(1, _BLOCK_ENTRIES // 4 // cross.shape[1])
    masks = []
    for start in range(0, hit.size, chunk):
        rows = hit[start:start + chunk]
        high = block[rows]
        e = cross[rows]
        e += eh[rows]
        at_best = _deviation(e, t.q[t.size_high[high, None] + t.size_low], n,
                             out=e) == best
        # two subsets with the same nonempty high part first differ at a
        # low vertex, and the one holding it is lexicographically smaller:
        # per row the largest bit-reversed low mask wins.  The empty high
        # part keeps all its maximizers.
        col = np.where(at_best, t.reversed_low, -1).argmax(axis=1)
        masks += [t.order[col] | high << t.low,
                  t.order[at_best[high == 0].any(axis=0)]]
    cand = _mask_to_tuple(_lex_smallest(np.concatenate(masks)))
    if witness is None or cand < witness:
        witness = cand
    return best, witness


def _exact_max(g: Graph, p: float):
    n = g.n
    t = _exact_tables(n, float(p))
    low, xl, xh = t.low, t.xl, t.xh
    adj = _adjacency(g)
    # U splits into its low part (vertices below `low`) and its high part:
    # e(U) = e(U_L) + e(U_H) + x_H' A_HL x_L.  Every term is an integer far
    # below 2^53, so the float64 products and sums here are exact.
    e_low = np.einsum("ij,ij->i", xl @ adj[:low, :low], xl) / 2
    e_high = np.einsum("ij,ij->i", xh @ adj[low:, low:], xh) / 2
    # e(U_L) rides along as a last row against the column of ones of left
    right = np.vstack([adj[low:, :low] @ xl.T, e_low])
    bound = _row_bounds(xh, adj[low:, :low], e_high, e_low, t.starts, t.tri,
                        t.size_q.copy(), n)
    # a seed block of the highest bounds sets a first best; after it only
    # rows whose bound reaches the best found so far are scored, and a
    # scored row's bound drops to -1, below every deviation.  A row whose
    # bound equals the best may still tie it, so it is scored for the
    # tie-break.  Each block is scored in its own call, so its arrays are
    # freed before the next block allocates and glibc serves every block
    # from pages it already holds: under one minor fault per call at n = 22,
    # against about 190 with a block's arrays alive until the next one's
    # are allocated.
    rows = max(1, _BLOCK_ENTRIES >> low)
    k = min(rows, _SEED_ROWS, len(bound))
    block = np.argpartition(bound, len(bound) - k)[len(bound) - k:]
    best, witness = -1.0, None
    while len(block):
        bound[block] = -1.0
        best, witness = _score_block(t, right, e_high, block, n, best, witness)
        block = np.flatnonzero(bound >= best)[:rows]
    return best, witness


def _heuristic_max(g: Graph, p: float, seed: int, restarts: int):
    n = g.n
    a = _adjacency(g)
    m0 = a - p * (1.0 - np.eye(n))  # x' m0 x = 2 (e(U) - p binom(|U|,2))
    vals, vecs = np.linalg.eigh(a - p)
    top = vecs[:, int(np.argmax(np.abs(vals)))]
    rng = np.random.Generator(np.random.PCG64(seed))
    starts = itertools.chain(
        (top > 0, top < 0), (rng.random(n) < 0.5 for _ in range(restarts)))

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

    ``mode='exact'`` maximizes over all subsets (blocked meet-in-the-middle
    over the two vertex halves, capped at ``exact_max_n`` vertices).  It
    scores the high-half subsets with the highest upper bounds on their
    deviation first, then only those whose bound reaches the best found,
    so typically only a few percent of them are scored; when every one
    ties at the best it is still O(2^n * n/2) time, in O(2^(n/2)) memory.
    ``'heuristic'`` runs greedy single-vertex flips from the
    top-eigenvector sign pattern of A - pJ plus ``restarts`` random starts
    (at most 10,000; more raise UnsupportedSizeError).  ``'auto'`` picks
    exact when the graph fits under the cap.  Ties between witnesses break
    toward the lexicographically smallest vertex tuple.  ``exact_max_n``,
    ``seed`` and ``restarts`` must be integers (numpy integers too; bools
    and floats are refused), and ``seed`` and ``restarts`` non-negative.
    """
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    exact_max_n = _check_count("exact_max_n", exact_max_n)
    seed = _check_count("seed", seed)
    restarts = _check_count("restarts", restarts)
    if not 1 <= exact_max_n <= _EXACT_HARD_CAP:
        raise ValueError(f"exact_max_n must lie in [1, {_EXACT_HARD_CAP}]")
    if restarts > _MAX_RESTARTS:
        raise UnsupportedSizeError(
            f"restarts are capped at {_MAX_RESTARTS}; got {restarts}")
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

    to_dict = record_dict


def row_oscillation(graphon: StepGraphon) -> tuple[float, int]:
    """Largest within-row value spread and the first part attaining it."""
    spread = graphon.values.max(axis=1) - graphon.values.min(axis=1)
    part = int(np.argmax(spread))
    return float(spread[part]), part


def _l2sq(values: np.ndarray, weights: np.ndarray, p: float) -> float:
    """Squared weighted l2 distance of a value matrix from the constant p."""
    return float((np.outer(weights, weights) * (values - p) ** 2).sum())


def graphon_constancy(graphon: StepGraphon, p: float) -> ConstancyReport:
    """linf, weighted l2, and cut-norm distances from the constant p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    m = graphon.num_parts
    w = graphon.weights
    diff = graphon.values - p
    linf = float(np.abs(diff).max())
    l2 = float(np.sqrt(_l2sq(graphon.values, w, p)))
    cut = None
    if m <= _CUT_MAX_PARTS:
        # for each row subset S the optimal column subset is the positive
        # (or negative) part of the combined row, so 2^m rows suffice
        combined = _subset_bits(m) @ (w[:, None] * w * diff)
        pos = np.maximum(combined, 0.0).sum(axis=1)
        neg = np.maximum(-combined, 0.0).sum(axis=1)
        cut = float(max(pos.max(), neg.max()))
    osc, part = row_oscillation(graphon)
    return ConstancyReport(float(p), linf, l2, cut, osc, part)
