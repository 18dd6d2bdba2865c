"""Homomorphism counts and motif densities in graphs and step graphons.

Three evaluation strategies share one sum-product core:

* brute-force map enumeration (the oracle-friendly naive path),
* variable elimination along a greedy fill-in order, polynomial for motifs
  of bounded width, compiled once per motif shape into a fixed sequence
  of einsum steps and replayed on every call, and
* a copy-gluing recursion for iterated doublings that collapses the
  blown-up motif onto tables indexed by assignments of the glued classes,
  one diagonal-weighted matmul per doubling level.

The density of a motif F in a step graphon W is the sum over all maps
phi: V(F) -> parts of prod_v weights[phi(v)] * prod_{uv in E} values[phi(u)][phi(v)];
for the step graphon of a finite graph G this equals hom(F, G) / n^{|V(F)|}.
"""

from __future__ import annotations

import functools
import math
import string
from dataclasses import dataclass
from itertools import product as iter_product
from typing import NamedTuple

import numpy as np

from .errors import UnsupportedSizeError
from .graphon import StepGraphon
from .graphs import ColoredGraph, Graph

__all__ = [
    "hom_count",
    "hom_density",
    "graphon_density",
    "pinned_density",
    "pinned_table",
    "PinnedDensity",
    "evaluate_pinned",
    "doubling_density",
    "doubling_step_moments",
    "graphon_density_gradient",
    "doubling_density_gradient",
]

_BRUTE_MOTIF_CAP = 12
DEFAULT_BUDGET = 1 << 24  # max entries of any intermediate table
# compiled plans kept per process; a forcing run needs fewer than ten
_PLAN_CACHE_SIZE = 256


# ---------------------------------------------------------------------------
# sum-product core


def _min_fill_order(num_vertices: int, scopes, free) -> list[int]:
    """Greedy minimum-fill elimination order over the `free` vertices."""
    adj: dict[int, set[int]] = {v: set() for v in range(num_vertices)}
    for sc in scopes:
        for u in sc:
            for v in sc:
                if u != v:
                    adj[u].add(v)
    order: list[int] = []
    left = set(free)
    while left:

        def fill(v: int) -> int:
            nb = sorted(adj[v])
            cnt = 0
            for i, a in enumerate(nb):
                for b in nb[i + 1 :]:
                    if b not in adj[a]:
                        cnt += 1
            return cnt

        v = min(left, key=lambda x: (fill(x), len(adj[x]), x))
        order.append(v)
        nb = sorted(adj[v])
        for a in nb:
            adj[a].discard(v)
            adj[a].update(b for b in nb if b != a)
        del adj[v]
        left.remove(v)
    return order


class _Step(NamedTuple):
    """One contraction of a compiled plan."""

    expr: str
    operands: tuple[int, ...]  # slot ids, see _EDGE below
    optimize: bool
    axes: int  # vertices spanned by the step's table
    entries: int  # size ** axes


# operand slots of a plan: the edge matrix, the free-vertex weight, the
# all-ones vector of a kept vertex, the scalar one of an empty motif, then
# the result of each step in step order
_EDGE, _WEIGHT, _ONE, _UNIT = range(4)
_FIRST_TEMP = 4


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _compile_plan(size: int, num_vertices: int, edges, keep) -> tuple[_Step, ...]:
    """The contractions of _sum_product, one per eliminated vertex plus the
    final combine onto the kept vertices.

    Pure in its hashable arguments; the budget is checked against the
    stored table sizes on every call, so it is not part of the key.
    """
    keep_set = set(keep)
    factors: list[tuple[tuple[int, ...], int]] = [((u, v), _EDGE) for u, v in edges]
    for v in range(num_vertices):
        factors.append(((v,), _ONE if v in keep_set else _WEIGHT))
    steps: list[_Step] = []

    def emit(group, union, out_vars) -> int:
        letters = {u: string.ascii_letters[i] for i, u in enumerate(union)}
        expr = ",".join("".join(letters[x] for x in vars_) for vars_, _ in group)
        expr += "->" + "".join(letters[x] for x in out_vars)
        entries = size ** len(union)
        # path search costs more than the contraction on small tables
        steps.append(_Step(expr, tuple(slot for _, slot in group), entries > 4096,
                           len(union), entries))
        return _FIRST_TEMP + len(steps) - 1

    free = [v for v in range(num_vertices) if v not in keep_set]
    for v in _min_fill_order(num_vertices, [f[0] for f in factors], free):
        group = [f for f in factors if v in f[0]]
        rest = [f for f in factors if v not in f[0]]
        union = sorted(set().union(*[set(f[0]) for f in group]))
        out_vars = tuple(u for u in union if u != v)
        factors = rest + [(out_vars, emit(group, union, out_vars))]

    # everything left lives on kept vertices (or is scalar); combine
    emit(factors or [((), _UNIT)], list(keep), keep)
    return tuple(steps)


def _sum_product(size, num_vertices, edges, edge_matrix, free_weight, keep=(),
                 budget=DEFAULT_BUDGET):
    """Sum over all maps of vertex factors times edge factors.

    Computes sum over phi: [num_vertices] -> [size] of
    prod_{v not in keep} free_weight[phi(v)] * prod_{(u,v) in edges}
    edge_matrix[phi(u), phi(v)], returning an array whose axes are the
    vertices in `keep`, in that order (kept vertices get no weight factor).
    The contraction plan is compiled once per (size, vertices, edges, keep)
    and replayed; every table it builds is checked against `budget` first.
    """
    keep = tuple(keep)
    if num_vertices > 50:
        raise UnsupportedSizeError("sum-product core supports at most 50 vertices")
    if size ** len(keep) > budget:
        raise UnsupportedSizeError(
            f"output table with {len(keep)} axes of size {size} exceeds the budget"
        )
    plan = _compile_plan(size, num_vertices, tuple(edges), keep)
    for step in plan:
        if step.entries > budget:
            raise UnsupportedSizeError(
                f"intermediate table over {step.axes} vertices of size {size} "
                f"exceeds the budget of {budget} entries"
            )
    # object arrays hold exact big integers; einsum keeps them exact, but a
    # scalar result comes back as a bare Python int, so rewrap every result
    obj_mode = edge_matrix.dtype == object or free_weight.dtype == object
    dtype = object if obj_mode else float
    inputs = (
        edge_matrix,
        free_weight,
        np.ones(size, dtype=dtype) if keep else None,
        None if num_vertices else np.ones((), dtype=dtype),
    )
    temps: dict[int, np.ndarray] = {}
    for slot, step in enumerate(plan, _FIRST_TEMP):
        # each step result feeds exactly one later step: pop it when read
        ops = [temps.pop(i) if i >= _FIRST_TEMP else inputs[i] for i in step.operands]
        out = np.einsum(step.expr, *ops, optimize=step.optimize)
        temps[slot] = np.asarray(out, dtype=object) if obj_mode else out
    return temps[slot]


def _adjacency(g: Graph, dtype) -> np.ndarray:
    a = np.zeros((g.n, g.n), dtype=dtype)
    for u, v in g.edges:
        a[u, v] = 1
        a[v, u] = 1
    return a


# ---------------------------------------------------------------------------
# homomorphism counting


def _hom_count_brute(motif: Graph, target: Graph) -> int:
    n = motif.n
    order: list[int] = []
    seen: set[int] = set()
    for start in sorted(range(n), key=lambda v: (-motif.degree(v), v)):
        if start in seen:
            continue
        queue = [start]
        seen.add(start)
        while queue:
            v = queue.pop(0)
            order.append(v)
            for u in sorted(motif.neighbors[v]):
                if u not in seen:
                    seen.add(u)
                    queue.append(u)
    pos = {v: i for i, v in enumerate(order)}
    anchors = [
        sorted(pos[u] for u in motif.neighbors[v] if pos[u] < i)
        for i, v in enumerate(order)
    ]
    tneigh = target.neighbors
    everything = frozenset(range(target.n))
    assign = [0] * n

    def rec(i: int) -> int:
        if i == n:
            return 1
        anc = anchors[i]
        cand = everything
        for j in anc:
            cand = cand & tneigh[assign[j]]
            if not cand:
                return 0
        total = 0
        for w in cand:
            assign[i] = w
            total += rec(i + 1)
        return total

    return rec(0)


def hom_count(motif: Graph, target: Graph, method: str = "auto",
              budget: int = DEFAULT_BUDGET) -> int:
    """Number of homomorphisms (edge-preserving maps) from motif to target.

    ``method='brute'`` enumerates maps with backtracking and handles motifs
    of up to 12 vertices; ``'eliminate'`` contracts along a greedy
    elimination order and handles larger motifs of bounded width.  ``'auto'``
    picks brute force for small inputs and elimination otherwise.  The count
    is exact (arbitrary-precision once int64 could overflow).
    """
    if motif.n == 0:
        return 1
    if target.n == 0:
        return 0
    if method == "auto":
        method = "brute" if motif.n <= _BRUTE_MOTIF_CAP and target.n <= 32 else "eliminate"
    if method == "brute":
        if motif.n > _BRUTE_MOTIF_CAP:
            raise UnsupportedSizeError(
                f"the naive path handles motifs with at most {_BRUTE_MOTIF_CAP} "
                "vertices; use method='eliminate'"
            )
        return _hom_count_brute(motif, target)
    if method == "eliminate":
        dtype = np.int64 if target.n ** motif.n < 2**62 else object
        res = _sum_product(
            target.n, motif.n, motif.edges, _adjacency(target, dtype),
            np.ones(target.n, dtype=dtype), budget=budget,
        )
        return int(res[()])
    raise ValueError(f"unknown method {method!r}")


def hom_density(motif: Graph, target: Graph, method: str = "auto",
                budget: int = DEFAULT_BUDGET) -> float:
    """hom(F, G) / n^{|V(F)|}: the probability a uniform map is a homomorphism."""
    if target.n == 0:
        raise ValueError("target graph must have at least one vertex")
    return hom_count(motif, target, method=method, budget=budget) / target.n ** motif.n


# ---------------------------------------------------------------------------
# graphon densities


def graphon_density(motif: Graph, graphon: StepGraphon,
                    budget: int = DEFAULT_BUDGET) -> float:
    """Density t(F, W) of a motif in a step graphon."""
    if motif.n == 0:
        return 1.0
    try:
        res = _sum_product(
            graphon.num_parts, motif.n, motif.edges, graphon.values,
            graphon.weights, budget=budget,
        )
    except UnsupportedSizeError as exc:
        raise UnsupportedSizeError(
            f"{exc}; for iterated doublings use doubling_density"
        ) from None
    return float(res[()])


def _check_pinned(motif: Graph, pinned, assignment, num_parts: int):
    pinned = tuple(int(v) for v in pinned)
    if len(set(pinned)) != len(pinned):
        raise ValueError("pinned vertices must be distinct")
    fixed: dict[int, int] = {}
    for v in pinned:
        if not 0 <= v < motif.n:
            raise ValueError(f"pinned vertex {v} outside [0, {motif.n})")
        if assignment is None:
            continue
        if v not in assignment:
            raise ValueError(f"assignment is missing pinned vertex {v}")
        part = int(assignment[v])
        if not 0 <= part < num_parts:
            raise ValueError(
                f"assignment maps vertex {v} to part {part} outside [0, {num_parts})"
            )
        fixed[v] = part
    return pinned, fixed


def pinned_density(motif: Graph, pinned, assignment, graphon: StepGraphon,
                   budget: int = DEFAULT_BUDGET) -> float:
    """Density of `motif` with the `pinned` vertices held at fixed parts.

    Free vertices are summed over parts with their weights; pinned vertices
    contribute no weight factor; an edge between two pinned vertices
    multiplies in its fixed value.  Terms accumulate through math.fsum, so
    the sum is exactly rounded however many parts there are.
    """
    m = graphon.num_parts
    pinned, fixed = _check_pinned(motif, pinned, assignment, m)
    free = [v for v in range(motif.n) if v not in fixed]
    if m ** len(free) > budget:
        raise UnsupportedSizeError(
            f"{len(free)} free vertices over {m} parts exceed the budget"
        )
    weights = graphon.weights
    values = graphon.values
    slot = {v: i for i, v in enumerate(free)}
    edges = [
        (fixed.get(u), slot.get(u), fixed.get(v), slot.get(v))
        for u, v in motif.edges
    ]
    terms = []
    for combo in iter_product(range(m), repeat=len(free)):
        prod = 1.0
        for x in combo:
            prod *= weights[x]
        for pu, su, pv, sv in edges:
            xu = pu if pu is not None else combo[su]
            xv = pv if pv is not None else combo[sv]
            prod *= values[xu, xv]
        terms.append(prod)
    return float(math.fsum(terms))


def pinned_table(motif: Graph, pinned, graphon: StepGraphon,
                 budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """All pinned densities at once: an array over assignments of `pinned`.

    Axis i ranges over the part assigned to pinned[i]; entry-by-entry this
    agrees with pinned_density, but the whole table is produced by one
    elimination pass.
    """
    m = graphon.num_parts
    pinned, _ = _check_pinned(motif, pinned, None, m)
    return _sum_product(
        m, motif.n, motif.edges, graphon.values, graphon.weights,
        keep=pinned, budget=budget,
    )


@dataclass(frozen=True)
class PinnedDensity:
    """A recorded pinned-density evaluation.

    ``assignment`` stores (vertex, part) pairs in pinned order; ``value`` is
    the conditional density, which for a graphon always lies in [0, 1].
    """

    motif: Graph
    pinned: tuple[int, ...]
    assignment: tuple[tuple[int, int], ...]
    value: float

    def __post_init__(self) -> None:
        if set(v for v, _ in self.assignment) != set(self.pinned):
            raise ValueError("assignment must cover exactly the pinned vertices")
        if not -1e-12 <= self.value <= 1.0 + 1e-12:
            raise ValueError("pinned density must lie in [0, 1] (within 1e-12)")


def evaluate_pinned(motif: Graph, pinned, assignment, graphon: StepGraphon,
                    budget: int = DEFAULT_BUDGET) -> PinnedDensity:
    pinned = tuple(int(v) for v in pinned)
    value = pinned_density(motif, pinned, assignment, graphon, budget=budget)
    return PinnedDensity(
        motif, pinned, tuple((v, int(assignment[v])) for v in pinned), value
    )


# ---------------------------------------------------------------------------
# iterated doublings: the copy-gluing recursion


def _weight_products(w: np.ndarray, g: int) -> np.ndarray:
    d = np.ones(1)
    for _ in range(g):
        d = np.multiply.outer(d, w).reshape(-1)
    return d


class _Level(NamedTuple):
    """Axis layout of one doubling level of the gluing recursion."""

    g: int  # axes of the class glued at this level
    r: int  # axes of the classes still pinned after it
    perm: tuple[int, ...]  # glued-table axes into (class, vertex, version) order
    inv: tuple[int, ...]  # the inverse of perm, for the reverse pass


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _doubling_layout(classes, k: int) -> tuple[tuple[int, ...], tuple[_Level, ...]]:
    """Pinned vertices of the base table and the axis layout of each level.

    Axis labels (class, vertex, version) keep the copies straight across
    levels: doubling class j leaves two versions of every later axis, and
    perm sorts the glued product's axes back into label order.
    """
    pinned0 = tuple(v for c in range(k) for v in classes[c])
    labels = [(c, i, 0) for c in range(k) for i in range(len(classes[c]))]
    levels = []
    for j in range(k):
        g_axes = sum(1 for lab in labels if lab[0] == j)
        half = 1 << j
        rest = labels[g_axes:]
        raw = list(rest) + [(c, i, ver + half) for (c, i, ver) in rest]
        target = sorted(raw)
        perm = tuple(raw.index(lab) for lab in target)
        inv = tuple(int(x) for x in np.argsort(perm))
        levels.append(_Level(g_axes, len(rest), perm, inv))
        labels = target
    return pinned0, tuple(levels)


def _doubling_forward(colored: ColoredGraph, k: int, graphon: StepGraphon,
                      budget: int):
    """Forward tables of the gluing recursion, innermost doubling first.

    Level j holds the densities of the j-times-doubled motif with every copy
    ("version") of classes j..k-1 pinned.  Doubling class j identifies the
    shared copies, so the level-(j+1) table is A^T diag(weights) A where A is
    the level-j table split into (class-j assignments) x (the rest); the two
    factors of A are the two glued copies.  Returns the final table and one
    (level, A, diag(weights)) triple per level.
    """
    m = graphon.num_parts
    g = colored.graph
    pinned0, levels = _doubling_layout(colored.classes, k)
    table = _sum_product(
        m, g.n, g.edges, graphon.values, graphon.weights, keep=pinned0, budget=budget,
    )
    steps = []
    for j, level in enumerate(levels):
        if m ** (level.g + level.r) > budget or m ** (2 * level.r) > budget:
            raise UnsupportedSizeError(
                f"doubling level {j} needs tables beyond the budget of {budget} entries"
            )
        a = table.reshape(m**level.g, m**level.r)
        d = _weight_products(graphon.weights, level.g)
        t = a.T @ (d[:, None] * a)
        table = (
            t.reshape((m,) * (2 * level.r)).transpose(level.perm)
            if level.r else t.reshape(())
        )
        steps.append((level, a, d))
    return table, steps


def doubling_density(colored: ColoredGraph, k: int, graphon: StepGraphon,
                     budget: int = DEFAULT_BUDGET) -> float:
    """Density of the k-times-doubled motif, without ever building it.

    Equals graphon_density(iterated_double(colored, k).graph, graphon) but
    runs in time polynomial in the table sizes of the glued classes instead
    of exponential in the doubled motif's vertex count.
    """
    if not 0 <= k <= colored.num_classes:
        raise ValueError(
            f"number of doublings {k} out of range for {colored.num_classes} classes"
        )
    if k == 0:
        return graphon_density(colored.graph, graphon, budget=budget)
    table, _ = _doubling_forward(colored, k, graphon, budget)
    return float(table[()])


def doubling_step_moments(colored: ColoredGraph, j: int, graphon: StepGraphon,
                          budget: int = DEFAULT_BUDGET):
    """Moments of the pinned density summed out by doubling step j (1-based).

    Returns (mean, second_moment, variance) of the (j-1)-times-doubled
    motif's density pinned on the class being doubled, weighted by the part
    weights of that class.  The mean is the (j-1)-st density in the
    Cauchy-Schwarz chain, the second moment is the j-th, and the variance is
    their gap, computed directly rather than as a difference.
    """
    if not 1 <= j <= colored.num_classes:
        raise ValueError(f"step {j} out of range for {colored.num_classes} classes")
    _, steps = _doubling_forward(colored, j, graphon, budget)
    _, a, d = steps[-1]
    a = a.reshape(-1)
    mean = float(d @ a)
    second = float(d @ (a * a))
    variance = float(d @ (a - mean) ** 2)
    return mean, second, variance


# ---------------------------------------------------------------------------
# gradients with respect to the value matrix


def _symmetrize_param_grad(m_ordered: np.ndarray) -> np.ndarray:
    """Fold an ordered-entry gradient onto the symmetric parameters.

    Off-diagonal parameters appear at two positions of the value matrix, so
    their derivatives add; diagonal ones appear once.
    """
    return m_ordered + m_ordered.T - np.diag(np.diag(m_ordered))


class _EdgeTerm(NamedTuple):
    """One edge's share of the base-table gradient."""

    rest: tuple[tuple[int, int], ...]  # the motif's edges without this one
    keep: tuple[int, ...]  # the pinned vertices plus the edge's unpinned ends
    expr: str  # folds tbar times the table of `rest` onto the edge's two parts
    weights: int  # weight-vector operands of expr after tbar and the table
    transpose: bool  # expr yields the (v, u) orientation of edge (u, v)


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _edge_terms(edges, pinned) -> tuple[_EdgeTerm, ...]:
    """Per-edge derivative tables: remove the edge, pin its ends, fold."""
    idx = {v: i for i, v in enumerate(pinned)}
    letters = string.ascii_letters
    base = "".join(letters[i] for i in range(len(pinned)))
    x, y = letters[len(pinned)], letters[len(pinned) + 1]
    terms = []
    for e in edges:
        u, v = e
        rest = tuple(f for f in edges if f != e)
        if u in idx and v in idx:
            out = letters[idx[u]] + letters[idx[v]]
            terms.append(_EdgeTerm(rest, pinned, f"{base},{base}->{out}", 0, False))
        elif u in idx or v in idx:
            pv, fv = (u, v) if u in idx else (v, u)
            expr = f"{base},{base}{x},{x}->{letters[idx[pv]]}{x}"
            terms.append(_EdgeTerm(rest, pinned + (fv,), expr, 1, pv != u))
        else:
            expr = f"{base},{base}{x}{y},{x},{y}->{x}{y}"
            terms.append(_EdgeTerm(rest, pinned + (u, v), expr, 2, False))
    return tuple(terms)


def graphon_density_gradient(motif: Graph, graphon: StepGraphon,
                             budget: int = DEFAULT_BUDGET):
    """t(F, W) together with its gradient in the symmetric value matrix.

    Assembled edge by edge: pinning an edge's endpoints at parts (a, b) and
    removing the edge itself gives the derivative of that edge's factor,
    i.e. the weighted two-vertex pinned table of F minus the edge.
    """
    m = graphon.num_parts
    w = graphon.weights
    if motif.n == 0:
        return 1.0, np.zeros((m, m))
    value = graphon_density(motif, graphon, budget=budget)
    ww = np.outer(w, w)
    ordered = np.zeros((m, m))
    # with nothing pinned, each term keeps exactly the edge's two ends
    for term in _edge_terms(motif.edges, ()):
        q = _sum_product(m, motif.n, term.rest, graphon.values, w,
                         keep=term.keep, budget=budget)
        ordered += ww * q
    return value, _symmetrize_param_grad(ordered)


def _base_table_gradient(colored: ColoredGraph, pinned0, graphon: StepGraphon,
                         tbar: np.ndarray, budget: int) -> np.ndarray:
    g = colored.graph
    w = graphon.weights
    m = graphon.num_parts
    if len(pinned0) + 2 > 50:
        raise UnsupportedSizeError("too many pinned vertices for the gradient pass")
    ordered = np.zeros((m, m))
    for term in _edge_terms(g.edges, pinned0):
        q = _sum_product(m, g.n, term.rest, graphon.values, w,
                         keep=term.keep, budget=budget)
        contrib = np.einsum(term.expr, tbar, q, *(w,) * term.weights)
        ordered += contrib.T if term.transpose else contrib
    return _symmetrize_param_grad(ordered)


def doubling_density_gradient(colored: ColoredGraph, k: int,
                              graphon: StepGraphon,
                              budget: int = DEFAULT_BUDGET):
    """Doubling density and its gradient, by reverse accumulation.

    Runs the gluing recursion forward, then pushes the adjoint back through
    each diagonal-weighted matmul down to the base table, whose gradient is
    assembled edge by edge like graphon_density_gradient's.
    """
    if not 0 <= k <= colored.num_classes:
        raise ValueError(
            f"number of doublings {k} out of range for {colored.num_classes} classes"
        )
    if k == 0:
        return graphon_density_gradient(colored.graph, graphon, budget=budget)
    m = graphon.num_parts
    table, steps = _doubling_forward(colored, k, graphon, budget)
    value = float(table[()])
    tbar = np.ones(())
    for level, a, d in reversed(steps):
        r = level.r
        if r:
            tflat = tbar.transpose(level.inv).reshape(m**r, m**r)
        else:
            tflat = tbar.reshape(1, 1)
        abar = d[:, None] * (a @ (tflat + tflat.T))
        tbar = abar.reshape((m,) * (level.g + r))
    pinned0, _ = _doubling_layout(colored.classes, k)
    return value, _base_table_gradient(colored, pinned0, graphon, tbar, budget)
