"""Homomorphism counts and motif densities in graphs and step graphons.

Three evaluation strategies share one sum-product core:

* brute-force map enumeration (the oracle-friendly naive path),
* variable elimination along a greedy fill-in order, polynomial for motifs
  of bounded width, compiled once per motif shape into a fixed sequence
  of einsum steps and replayed on every call, and
* a copy-gluing recursion for iterated doublings that collapses the
  blown-up motif onto tables indexed by assignments of the glued classes.
  Each table axis carries the square root of its part's weight, so every
  doubling level is one symmetric Gram product A^T A (BLAS syrk, half the
  flops of a general product) and the last level is a dot product.

Gradients in the value matrix come from reverse accumulation over the same
compiled plan: the forward replay keeps every step's table (the tape), and
each step also carries, for every edge-matrix or intermediate operand, the
einsum of its adjoint (the output adjoint contracted with the step's other
operands).  Replaying those backwards from an output adjoint gives the
whole gradient at the cost of about two more forward passes, whatever the
number of edges.

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
    # (operand position, einsum of that operand's adjoint) for every
    # edge-matrix or step-result operand; the adjoint einsum reads the
    # output adjoint first, then the other operands in order
    adjoints: tuple[tuple[int, str], ...]


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
        subs = ["".join(letters[x] for x in vars_) for vars_, _ in group]
        out = "".join(letters[x] for x in out_vars)
        slots = tuple(slot for _, slot in group)
        # every letter of an operand is either kept in the output or is the
        # eliminated vertex, whose weight or ones factor is another operand,
        # so each adjoint einsum sees all the letters it must produce
        adjoints = tuple(
            (i, ",".join([out, *subs[:i], *subs[i + 1:]]) + "->" + subs[i])
            for i, slot in enumerate(slots) if slot == _EDGE or slot >= _FIRST_TEMP
        )
        entries = size ** len(union)
        # path search costs more than the contraction on small tables
        steps.append(_Step(",".join(subs) + "->" + out, slots, entries > 4096,
                           len(union), entries, adjoints))
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


def _checked_plan(size, num_vertices, edges, keep, budget) -> tuple[_Step, ...]:
    """The compiled plan of _sum_product, once every table it builds, the
    output included, has been checked against `budget`."""
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
    return plan


def _plan_inputs(edge_matrix, free_weight, dtype) -> tuple:
    """The operands of slots _EDGE.._UNIT."""
    return (edge_matrix, free_weight, np.ones(free_weight.shape[0], dtype=dtype),
            np.ones((), dtype=dtype))


def _forward(plan, edge_matrix, free_weight, keep_tape: bool = False) -> list:
    """Replay a compiled plan; returns every step's result, the output last.

    Each step result feeds exactly one later step, so unless `keep_tape`
    asks for the whole tape (the reverse pass reads it), a result is
    released as soon as that step has run.
    """
    # object arrays hold exact big integers; einsum keeps them exact, but a
    # scalar result comes back as a bare Python int, so rewrap every result
    obj_mode = edge_matrix.dtype == object or free_weight.dtype == object
    inputs = _plan_inputs(edge_matrix, free_weight, object if obj_mode else float)
    tape: list = []
    for step in plan:
        ops = [tape[i - _FIRST_TEMP] if i >= _FIRST_TEMP else inputs[i]
               for i in step.operands]
        if not keep_tape:
            for i in step.operands:
                if i >= _FIRST_TEMP:
                    tape[i - _FIRST_TEMP] = None
        out = np.einsum(step.expr, *ops, optimize=step.optimize)
        tape.append(np.asarray(out, dtype=object) if obj_mode else out)
    return tape


def _reverse(plan, tape, edge_matrix, free_weight, out_bar) -> np.ndarray:
    """Gradient of sum(out_bar * output) in the ordered edge-matrix entries.

    Walks the plan backwards: each step's adjoint einsums turn the adjoint
    of its result into the adjoints of its edge-matrix operands, which
    accumulate into the gradient, and of its step-result operands, which
    the step that produced them consumes in turn.  No adjoint is larger
    than an operand of the forward step, so the forward budget check
    covers the reverse pass too.
    """
    inputs = _plan_inputs(edge_matrix, free_weight, float)
    grad = np.zeros(edge_matrix.shape)
    bars = {_FIRST_TEMP + len(plan) - 1: np.asarray(out_bar, dtype=float)}
    for slot, step in reversed(list(enumerate(plan, _FIRST_TEMP))):
        ybar = bars.pop(slot)
        ops = [tape[i - _FIRST_TEMP] if i >= _FIRST_TEMP else inputs[i]
               for i in step.operands]
        for pos, expr in step.adjoints:
            bar = np.einsum(expr, ybar, *ops[:pos], *ops[pos + 1:],
                            optimize=step.optimize)
            if step.operands[pos] == _EDGE:
                grad += bar
            else:
                bars[step.operands[pos]] = bar
    return grad


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
    plan = _checked_plan(size, num_vertices, edges, keep, budget)
    return _forward(plan, edge_matrix, free_weight)[-1]


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
    eliminates whenever the checked plan fits the budget, and backtracks
    only when elimination refuses a motif of at most 12 vertices:
    backtracking visits every homomorphism, so it can run for minutes where
    elimination takes milliseconds.  The count is exact
    (arbitrary-precision once int64 could overflow).
    """
    if motif.n == 0:
        return 1
    if target.n == 0:
        return 0
    if method not in ("auto", "brute", "eliminate"):
        raise ValueError(f"unknown method {method!r}")
    if method != "brute":
        try:
            plan = _checked_plan(target.n, motif.n, motif.edges, (), budget)
        except UnsupportedSizeError:
            if method == "eliminate" or motif.n > _BRUTE_MOTIF_CAP:
                raise
        else:
            dtype = np.int64 if target.n ** motif.n < 2**62 else object
            tape = _forward(plan, _adjacency(target, dtype),
                            np.ones(target.n, dtype=dtype))
            return int(tape[-1][()])
    if motif.n > _BRUTE_MOTIF_CAP:
        raise UnsupportedSizeError(
            f"the naive path handles motifs with at most {_BRUTE_MOTIF_CAP} "
            "vertices; use method='eliminate'"
        )
    return _hom_count_brute(motif, target)


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
    plan = _density_plan(motif, graphon.num_parts, budget)
    return float(_forward(plan, graphon.values, graphon.weights)[-1][()])


def _density_plan(motif: Graph, num_parts: int, budget: int) -> tuple[_Step, ...]:
    """The checked plan of t(motif, W) for W with `num_parts` parts."""
    try:
        return _checked_plan(num_parts, motif.n, motif.edges, (), budget)
    except UnsupportedSizeError as exc:
        raise UnsupportedSizeError(
            f"{exc}; for iterated doublings use doubling_density"
        ) from None


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
    """prod_i w[x_i] over g axes, flattened in C order."""
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
    perm sorts the glued product's axes back into label order.  The level
    before the last keeps its product's axes in place: the last level
    glues every axis that is left, and it reads them only through a
    product of part weights over all of them, which no order changes.
    """
    pinned0 = tuple(v for c in range(k) for v in classes[c])
    labels = [(c, i, 0) for c in range(k) for i in range(len(classes[c]))]
    levels = []
    for j in range(k):
        g_axes = sum(1 for lab in labels if lab[0] == j)
        half = 1 << j
        rest = labels[g_axes:]
        raw = list(rest) + [(c, i, ver + half) for (c, i, ver) in rest]
        target = raw if j == k - 2 else sorted(raw)
        perm = tuple(raw.index(lab) for lab in target)
        inv = tuple(int(x) for x in np.argsort(perm))
        levels.append(_Level(g_axes, len(rest), perm, inv))
        labels = target
    return pinned0, tuple(levels)


class _DoublingRun(NamedTuple):
    """The forward tables of one evaluation of the gluing recursion."""

    values: np.ndarray  # the value matrix evaluated at
    tape: list  # the base plan's step results, the base table last
    factors: list  # each level's root-weighted factor, innermost level first
    table: np.ndarray  # the final table: a scalar once every class is glued


class _Doubling:
    """The gluing recursion of one colored motif and k doublings, bound to
    fixed part weights and a table budget.

    The recursion runs on root-weighted tables: every axis of a level's
    table carries the square root of its part's weight, so gluing a class
    is the plain Gram A^T A of the table split into (glued class) x (the
    rest), and the last level, which glues everything left, is a dot
    product.  Binding checks the base plan and every level's tables against
    the budget, so an oversized request fails before any contraction runs.
    """

    def __init__(self, colored: ColoredGraph, k: int, weights: np.ndarray,
                 budget: int):
        if not 0 <= k <= colored.num_classes:
            raise ValueError(
                f"number of doublings {k} out of range for "
                f"{colored.num_classes} classes"
            )
        m = weights.size
        g = colored.graph
        self.pinned, self.levels = _doubling_layout(colored.classes, k)
        self.plan = _checked_plan(m, g.n, g.edges, self.pinned, budget)
        for j, level in enumerate(self.levels):
            if m ** (level.g + level.r) > budget or m ** (2 * level.r) > budget:
                raise UnsupportedSizeError(
                    f"doubling level {j} needs tables beyond the budget of "
                    f"{budget} entries"
                )
        self.m = m
        self.weights = weights
        self.roots = np.sqrt(weights)
        # the root products over the pinned vertices, shaped as the base table
        self.base_roots = _weight_products(self.roots, len(self.pinned)).reshape(
            (m,) * len(self.pinned))

    @functools.cached_property
    def base_weights(self) -> np.ndarray:
        """Weight products over the pinned vertices.  Pinned vertices carry
        no weight in the base table, so summing it against these gives the
        density of the undoubled motif."""
        return _weight_products(self.weights, len(self.pinned))

    def moments(self, run: _DoublingRun) -> list[tuple[float, float, float]]:
        """(mean, second moment, variance) of the pinned density that each
        level sums out, innermost level first.

        Level j's factor holds the j-times-doubled motif's density pinned on
        classes j..k-1, times the root weights of those classes; summing
        its columns against the root products of the classes still pinned
        after level j leaves q = sqrt(w_g) p, for p the density pinned on
        class j alone.  So the mean is sqrt(w_g) . q, the j-th density in
        the Cauchy-Schwarz chain; the second moment is q . q, the (j+1)-st;
        and the variance, their gap, is |q - mean sqrt(w_g)|^2, computed
        directly rather than as a difference.  The root products over the
        g glued axes do not depend on their order, so q is read as a matrix
        over the first g//2 axes and the rest, and sqrt(w_g) as the outer
        product of two short vectors; the last level's never exists whole.
        """
        m, out = self.m, []
        for level, a in zip(self.levels, run.factors):
            q = a @ _weight_products(self.roots, level.r) if level.r else a
            h = level.g // 2
            q = q.reshape(m**h, m ** (level.g - h))
            s1 = _weight_products(self.roots, h)
            s2 = _weight_products(self.roots, level.g - h)
            mean = float(s1 @ q @ s2)
            diff = np.multiply.outer(s1, -mean * s2)
            diff += q
            out.append((mean, float(np.vdot(q, q)), float(np.vdot(diff, diff))))
        return out

    def forward(self, values: np.ndarray, keep_tape: bool = False) -> _DoublingRun:
        """Level j holds the densities of the j-times-doubled motif with
        every copy ("version") of classes j..k-1 pinned, times the root
        weight of every pinned axis.  Doubling class j identifies the
        shared copies, so the level-(j+1) table is the Gram A^T A where A is
        the level-j table split into (class-j assignments) x (the rest):
        the two factors of A are the two glued copies, and their roots
        multiply to the weights the glued class is summed with."""
        m = self.m
        tape = _forward(self.plan, values, self.weights, keep_tape)
        table = tape[-1] * self.base_roots
        factors = []
        for level in self.levels:
            a = table.reshape(m**level.g, m**level.r)
            factors.append(a)
            # the reshape copies a permuted table: free that before the Gram
            del table
            if level.r:
                table = (a.T @ a).reshape((m,) * (2 * level.r)).transpose(level.perm)
            else:
                table = np.asarray(np.dot(a[:, 0], a[:, 0]))
        return _DoublingRun(values, tape, factors, table)

    def base_adjoint(self, run: _DoublingRun, scale: float) -> np.ndarray:
        """Adjoint on the base table of `scale` times the final density:
        a @ (T + T^T) back through each Gram, 2 T a through the last
        level's dot product, then one multiply by the root products."""
        m = self.m
        tbar = np.full((), float(scale))
        for level, a in zip(reversed(self.levels), reversed(run.factors)):
            r = level.r
            if r:
                tbar = tbar.transpose(level.inv).reshape(m**r, m**r)
                tbar = a @ (tbar + tbar.T)
            else:
                tbar = (2.0 * float(tbar)) * a
            tbar = tbar.reshape((m,) * (level.g + r))
        return tbar * self.base_roots

    def gradient(self, run: _DoublingRun, base_bar: np.ndarray) -> np.ndarray:
        """Gradient in the symmetric value matrix of sum(base_bar * base
        table), from one reverse pass over a tape kept by forward."""
        return _symmetrize_param_grad(
            _reverse(self.plan, run.tape, run.values, self.weights, base_bar))


def doubling_density(colored: ColoredGraph, k: int, graphon: StepGraphon,
                     budget: int = DEFAULT_BUDGET) -> float:
    """Density of the k-times-doubled motif, without ever building it.

    Equals graphon_density(iterated_double(colored, k).graph, graphon) but
    runs in time polynomial in the table sizes of the glued classes instead
    of exponential in the doubled motif's vertex count.
    """
    run = _Doubling(colored, k, graphon.weights, budget).forward(graphon.values)
    return float(run.table[()])


def doubling_step_moments(colored: ColoredGraph, j: int, graphon: StepGraphon,
                          budget: int = DEFAULT_BUDGET):
    """Moments of the pinned density summed out by doubling step j (1-based).

    Returns (mean, second_moment, variance) of the (j-1)-times-doubled
    motif's density pinned on the class being doubled, weighted by the part
    weights of that class: the (j-1)-st and j-th densities of the
    Cauchy-Schwarz chain and their gap (see _Doubling.moments).
    """
    if not 1 <= j <= colored.num_classes:
        raise ValueError(f"step {j} out of range for {colored.num_classes} classes")
    doubling = _Doubling(colored, j, graphon.weights, budget)
    return doubling.moments(doubling.forward(graphon.values))[-1]


# ---------------------------------------------------------------------------
# gradients with respect to the value matrix


def _symmetrize_param_grad(m_ordered: np.ndarray) -> np.ndarray:
    """Fold an ordered-entry gradient onto the symmetric parameters.

    Off-diagonal parameters appear at two positions of the value matrix, so
    their derivatives add; diagonal ones appear once.
    """
    return m_ordered + m_ordered.T - np.diag(np.diag(m_ordered))


def graphon_density_gradient(motif: Graph, graphon: StepGraphon,
                             budget: int = DEFAULT_BUDGET):
    """t(F, W) together with its gradient in the symmetric value matrix.

    One forward pass over the motif's compiled plan, keeping its tape, and
    one reverse pass from the unit adjoint of the density.
    """
    m = graphon.num_parts
    if motif.n == 0:
        return 1.0, np.zeros((m, m))
    plan = _density_plan(motif, m, budget)
    tape = _forward(plan, graphon.values, graphon.weights, keep_tape=True)
    ordered = _reverse(plan, tape, graphon.values, graphon.weights, 1.0)
    return float(tape[-1][()]), _symmetrize_param_grad(ordered)


def doubling_density_gradient(colored: ColoredGraph, k: int,
                              graphon: StepGraphon,
                              budget: int = DEFAULT_BUDGET):
    """Doubling density and its gradient, by reverse accumulation.

    Runs the gluing recursion forward, pushes the adjoint back through each
    level's Gram product and the root weights down to the base table, then
    takes one reverse pass over the base table's compiled plan.
    """
    doubling = _Doubling(colored, k, graphon.weights, budget)
    run = doubling.forward(graphon.values, keep_tape=True)
    grad = doubling.gradient(run, doubling.base_adjoint(run, 1.0))
    return float(run.table[()]), grad
