"""Homomorphism counts and motif densities in graphs and step graphons.

Three evaluation strategies share one sum-product core:

* brute-force map enumeration (the oracle-friendly naive path),
* variable elimination along a greedy fill-in order, polynomial for motifs
  of bounded width, compiled once per motif shape into a fixed sequence
  of einsum and matmul steps on fixed layouts and replayed on every call,
  and
* a copy-gluing recursion for iterated doublings that collapses the
  blown-up motif onto tables indexed by assignments of the glued classes.
  Each table axis carries the square root of its part's weight, so every
  doubling level is one symmetric Gram product A^T A (BLAS syrk, half the
  flops of a general product) and the last level is a dot product.  Each
  Gram is copied once into the axis order the next level reads (not at
  all where that is its own order), so the recursion keeps one table
  per level and every split is a view.  From
  three doublings on, neither of the last two Grams is built in full:
  swapping the two copies glued at any earlier level changes nothing, so
  level k-2's table commutes with the version group (Z2)^(k-2).  Level
  k-3's Gram, which is that table, is formed only at the rows of the
  group's orbit representatives, and the last two levels run on one block
  per character of the group, which costs a few small Grams and products
  instead of two m^r x m^r syrks and gemms.  One more symmetry sigma of
  that table shrinks the blocks: from four doublings on, a motif with an
  automorphism that swaps classes 0 and 1 (every K_t has one) makes the
  copies of the first two doublings interchangeable too, and sigma is
  the swap of version bits 0 and 1; otherwise sigma is the identity.
  The orbits are ordered [F, P1, P2], F those sigma maps to themselves
  and P2 the images of P1, the P2 rows are never formed, a pair of
  characters that sigma swaps keeps one block counted twice, and a
  character it fixes splits into a sigma-even and a sigma-odd half, all
  cut from the blocks by slices (under the identity: every orbit in F,
  one half per character).  The blocks are a linear map of the kept
  rows that acts on every row alike, and each column orbit reads only its
  own columns, so the kept rows are gathered once, transposed, into the
  order of runs of orbits that share one small coefficient matrix, and
  each run is one product into the blocks, stored transposed.  Level
  k-2's kept rows, the blocks, their Grams and (where a reverse pass
  follows) the adjoint of the kept rows share one buffer per run: as one
  freed allocation it is what sets glibc's trim threshold, which then
  covers a whole call, so the next call reuses mapped pages rather than
  faulting its working set back in.

Gradients in the value matrix come from reverse accumulation over the same
compiled plan: the forward replay keeps every step's table (the tape), and
each step also carries, for every edge-matrix or intermediate operand, the
einsum of its adjoint (the output adjoint contracted with the step's other
operands), or, for a step that runs as a matmul, how to form its adjoint
as one.  An elimination over 1,024 entries runs as pairwise steps, each
with at most two adjoints, whatever the number of edges; an adjoint with
leading batch axes gives the gradient of each of its adjoints in that one
replay.
Through the dense gluing recursion the adjoint of every Gram output is
symmetric, because swapping the two glued copies changes nothing, so each
level's adjoint is one product 2 A T, not A (T + T^T).  On version blocks
the reverse pass is the exact adjoint of the maps that read only the kept
rows, with A (T + T^T) from level k-3 down, averaged over sigma's map of
the base table (see _Doubling.base_adjoint).

The density of a motif F in a step graphon W is the sum over all maps
phi: V(F) -> parts of prod_v weights[phi(v)] * prod_{uv in E} values[phi(u)][phi(v)];
for the step graphon of a finite graph G this equals hom(F, G) / n^{|V(F)|}.
"""

from __future__ import annotations

import functools
import math
import string
from dataclasses import dataclass
from itertools import combinations, groupby, product as iter_product
from typing import NamedTuple

import numpy as np

from .errors import UnsupportedSizeError, _check_budget, _check_count
from .graphon import StepGraphon, _adjacency
from .graphs import ColoredGraph, Graph

__all__ = [
    "DEFAULT_BUDGET",
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
    """One einsum or one matmul of a compiled plan, replayed with no path
    search.  Each operand's letters in `expr` name its axes in the order
    they are stored (an edge matrix's read transposed, see below), and the
    output's the order the step stores its result in."""

    expr: str
    operands: tuple[int, ...]  # slot ids, see _EDGE below
    # one entry for every edge-matrix or step-result operand.  An einsum
    # step: (operand position, einsum of that operand's adjoint), which
    # reads the output adjoint, then the other operands in order, and keeps
    # the adjoint's batch axes.  A matmul step: (operand position, whether
    # it is an edge matrix read transposed), its adjoint a matmul too
    adjoints: tuple[tuple[int, str | bool], ...]
    # np.matmul of the first operand viewed as (its other axes, its last)
    # by the second viewed as (its first, its other axes): both read the
    # summed letter there, and they share no other
    matmul: bool


# operand slots of a plan: the edge matrix, the free-vertex weight, the
# all-ones vector of a kept vertex, the scalar one of an empty motif, then
# the result of each step in step order
_EDGE, _WEIGHT, _ONE, _UNIT = range(4)
_FIRST_TEMP = 4
# an elimination over more entries runs as pairwise steps
_SPLIT_ENTRIES = 1024
# an operand over more letters is an elimination's big table, which meets
# the product of its other operands only in its last step
_SMALL_LETTERS = 3


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _eliminate(num_vertices: int, edges, keep) -> tuple:
    """The sum over phi: [num_vertices] -> parts of prod_{v not in keep}
    free_weight[phi(v)] * prod_{(u,v) in edges} edge_matrix[phi(u), phi(v)]
    as (factors, union, out) per vertex eliminated in min-fill order, then
    the combine onto `keep` (kept vertices get no weight): the (vertices,
    slot) factors, slot _FIRST_TEMP + i the result of triple i, and the
    vertices the table spans and keeps.  The combine drops a ones factor
    where another carries its vertex, unless one factor would remain."""
    keep_set = set(keep)
    factors: list[tuple[tuple[int, ...], int]] = [((u, v), _EDGE) for u, v in edges]
    for v in range(num_vertices):
        factors.append(((v,), _ONE if v in keep_set else _WEIGHT))
    eliminations = []
    free = [v for v in range(num_vertices) if v not in keep_set]
    for v in _min_fill_order(num_vertices, [f[0] for f in factors], free):
        group = tuple(f for f in factors if v in f[0])
        union = tuple(sorted(set().union(*[f[0] for f in group])))
        out = tuple(u for u in union if u != v)
        factors = [f for f in factors if v not in f[0]]
        factors.append((out, _FIRST_TEMP + len(eliminations)))
        eliminations.append((group, union, out))
    covered = {x for vars_, slot in factors if slot != _ONE for x in vars_}
    needed = [f for f in factors if f[1] != _ONE or f[0][0] not in covered]
    factors = needed if len(needed) > 1 else factors or [((), _UNIT)]
    return (*eliminations, (tuple(factors), keep, keep))


def _halves(operands, summed: set) -> list[list]:
    """`operands` as two sides that share no vertex but the summed one, or
    as one side where they cannot be split: operands linked by another
    shared vertex stay together, the linked groups go in order of their
    lowest vertex, the first to the left until it holds half the other
    vertices, and an operand with no other (the weight) to the side with
    fewer."""
    groups: list[tuple[set, list]] = []
    for op in operands:
        own = set(op[0]) - summed
        linked = [g for g in groups if g[0] & own]
        groups = [g for g in groups if not g[0] & own]
        groups.append((own.union(*(g[0] for g in linked)),
                       [x for g in linked for x in g[1]] + [op]))
    total = sum(len(own) for own, _ in groups)
    left, right, count = [], [], 0
    for own, ops in sorted((g for g in groups if g[0]), key=lambda g: min(g[0])):
        if 2 * count < total:
            left += ops
            count += len(own)
        else:
            right += ops
    (left if 2 * count < total else right).extend(
        op for own, ops in groups if not own for op in ops)
    return [side for side in (left, right) if side]


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _compile_plan(size: int, num_vertices: int, edges, keep) -> tuple[_Step, ...]:
    """_eliminate's eliminations over `size` parts as the steps _forward
    replays, every layout fixed here.

    An elimination of at most _SPLIT_ENTRIES entries is one einsum step.
    A larger one runs as pairwise steps.  Its big table (over
    _SMALL_LETTERS letters) stands alone against the product of its small
    operands; with none, its operands split into two halves that share only
    the summed vertex (_halves).  Each side is multiplied out by halving it
    again, pairwise (the smallest product first) where it cannot be
    halved, so the small factors meet each other before the big table and
    each product's letters run in two blocks.  The last step joins the two
    sides and sums the vertex: one matmul where they share no other
    vertex, else an einsum.  Operands that cannot be halved (each over the
    summed vertex alone, or a combine's, all linked) are one side, whose
    last pairwise product is the join.  Every step but the last keeps
    every letter, so each adjoint sees every letter it produces.

    A matmul reads its first operand with the summed letter last and its
    second with it first, so the step that feeds it stores its result that
    way, and an edge matrix stored the other way is read transposed, which
    is the same matrix (it is symmetric); its adjoint is formed
    transposed, in the stored order.  A matmul's result is its first
    operand's other letters, then its second's, so a matmul that feeds
    another takes its operands in the order that puts the letters the
    consumer needs at the ends, or, where no order does, runs as an
    einsum.  Every other result is stored in letter order, the plan's
    output in `keep`'s, and each einsum names the order it reads.  The
    budget is checked before, by _checked_plan, so it is not part of the
    key."""
    # the steps as [operands, out, letters, lowered]: each operand a
    # (vertices, slot) pair, `out` the vertices the step keeps, `letters`
    # its elimination's, and `lowered` whether it may run as a matmul
    steps: list[list] = []
    results: list[int] = []  # the slot of each elimination's result

    def emit(operands, out, letters, lowered=False):
        steps.append([list(operands), out, letters, lowered])
        return out, _FIRST_TEMP + len(steps) - 1

    def product(side, summed, letters):
        # halves that share no other vertex than the summed one, each
        # multiplied out, so each product's letters run in two blocks;
        # operands that cannot be halved go in pairs, the smallest
        # product first
        halves = _halves(side, summed) if len(side) > 2 else []
        if len(halves) == 2:
            side = [product(half, summed, letters) for half in halves]
        side = list(side)
        while len(side) > 1:
            i, j = min(combinations(range(len(side)), 2), key=lambda p: (
                len(set(side[p[0]][0] + side[p[1]][0])),
                max(len(side[p[0]][0]), len(side[p[1]][0]))))
            b, a = side.pop(j), side.pop(i)
            side.append(emit((a, b), tuple(sorted(set(a[0] + b[0]))), letters))
        return side[0]

    for factors, union, kept in _eliminate(num_vertices, edges, keep):
        letters = dict(zip(union, string.ascii_letters))
        operands = [(vars_, results[slot - _FIRST_TEMP] if slot >= _FIRST_TEMP else slot)
                    for vars_, slot in factors]
        if size ** len(union) <= _SPLIT_ENTRIES or len(operands) == 1:
            results.append(emit(operands, kept, letters)[1])
            continue
        summed = set(union) - set(kept)  # empty for the combine
        big = max(operands, key=lambda op: len(op[0]))
        sides = ([[big], [op for op in operands if op is not big]]
                 if len(big[0]) > _SMALL_LETTERS else _halves(operands, summed))
        tables = [product(side, summed, letters) for side in sides]
        if len(tables) == 1:
            # one side (every operand over the summed vertex alone, or a
            # combine whose operands are all linked): its last product is
            # the join, emitted again to keep only `kept`
            tables = steps.pop()[0]
        lowered = bool(summed) and set(tables[0][0]) & set(tables[1][0]) == summed
        results.append(emit(tables, kept, letters, lowered)[1])

    # last step first: the (first, last) vertex each result's consumer
    # needs, and the operand order of each matmul
    need = [(None, None)] * len(steps)
    flipped = set()  # (step, operand position) of each edge read transposed
    for j in range(len(steps) - 1, -1, -1):
        operands, _, _, lowered = steps[j]
        if not lowered:
            continue
        first, last = need[j]
        (s,) = set(operands[0][0]) & set(operands[1][0])
        for x, y in (operands, operands[::-1]):
            if ((first is None or first in set(x[0]) - {s})
                    and (last is None or last in set(y[0]) - {s})):
                break
        else:
            steps[j][3] = False
            continue
        steps[j][0] = [x, y]
        for pos, ((vars_, slot), want) in enumerate(((x, (first, s)), (y, (s, last)))):
            if slot >= _FIRST_TEMP:
                need[slot - _FIRST_TEMP] = want
            elif slot == _EDGE and (vars_[0] == s) != (pos == 1):
                flipped.add((j, pos))

    plan: list[_Step] = []
    layouts: list[tuple[int, ...]] = []  # each result's vertices, as stored
    for j, (operands, out, letters, lowered) in enumerate(steps):
        reads = [layouts[slot - _FIRST_TEMP] if slot >= _FIRST_TEMP
                 else vars_[::-1] if (j, pos) in flipped else vars_
                 for pos, (vars_, slot) in enumerate(operands)]
        if lowered:
            layout = reads[0][:-1] + reads[1][1:]
        elif j == len(steps) - 1:
            layout = tuple(keep)
        else:
            first, last = need[j]
            layout = tuple([first] * (first is not None)
                           + [x for x in out if x not in (first, last)]
                           + [last] * (last not in (None, first)))
        layouts.append(layout)
        subs = ["".join(letters[x] for x in vars_) for vars_ in reads]
        res = "".join(letters[x] for x in layout)
        slots = tuple(slot for _, slot in operands)
        owed = [i for i, slot in enumerate(slots) if slot == _EDGE or slot >= _FIRST_TEMP]
        # the leading ... carries any batch axes of the output adjoint through
        adjoints = tuple(
            (i, (j, i) in flipped) if lowered else
            (i, ",".join(["..." + res, *subs[:i], *subs[i + 1:]]) + "->..." + subs[i])
            for i in owed)
        plan.append(_Step(",".join(subs) + "->" + res, slots, adjoints, lowered))
    return tuple(plan)


def _checked_plan(size, num_vertices, edges, keep, budget) -> tuple[_Step, ...]:
    """The plan _compile_plan compiles, once every table of its eliminations,
    the output included, fits `budget`: a refused plan compiles nothing."""
    if num_vertices > 50:
        raise UnsupportedSizeError("sum-product core supports at most 50 vertices")
    if size ** len(keep) > budget:
        raise UnsupportedSizeError(
            f"output table with {len(keep)} axes of size {size} exceeds the budget"
        )
    for _, union, _ in _eliminate(num_vertices, edges, keep):
        if size ** len(union) > budget:
            raise UnsupportedSizeError(
                f"intermediate table over {len(union)} vertices of size {size} "
                f"exceeds the budget of {budget} entries"
            )
    return _compile_plan(size, num_vertices, edges, keep)


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _float_ones(size: int) -> tuple[np.ndarray, np.ndarray]:
    """The float operands of slots _ONE and _UNIT, built once per size and
    read-only, since every replay of a plan shares them."""
    ones = (np.ones(size), np.ones(()))
    for a in ones:
        a.flags.writeable = False
    return ones


def _plan_inputs(edge_matrix, free_weight, dtype) -> tuple:
    """The operands of slots _EDGE.._UNIT."""
    if dtype is float:
        return (edge_matrix, free_weight, *_float_ones(free_weight.shape[0]))
    return (edge_matrix, free_weight, np.ones(free_weight.shape[0], dtype=dtype),
            np.ones((), dtype=dtype))


def _matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """A matmul step: x's other axes by y's, summing x's last and y's first."""
    s = x.shape[-1]
    out = np.matmul(x.reshape(-1, s), y.reshape(s, -1))
    return out.reshape(x.shape[:-1] + y.shape[1:])


def _forward(plan, edge_matrix, free_weight, keep_tape: bool = False) -> list:
    """Replay a compiled plan; returns every step's result, the output last.

    Each step is one np.einsum, or one np.matmul of reshaped operands,
    with no path search; object and integer operands stay exact through
    both.  Each step result feeds exactly one later step, so unless
    `keep_tape` asks for the whole tape (the reverse pass reads it), a
    result is released as soon as that step has run.
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
        out = _matmul(*ops) if step.matmul else np.einsum(step.expr, *ops)
        tape.append(np.asarray(out, dtype=object) if obj_mode else out)
    return tape


def _matmul_adjoint(pos: int, flipped: bool, x, y, ybar) -> np.ndarray:
    """The adjoint of operand `pos` of a matmul step with operands x, y
    from its output adjoint ybar, batch axes leading: one matmul, formed
    transposed where the operand is an edge matrix read transposed, so it
    comes out in the stored order."""
    s = x.shape[-1]
    x2, y2 = x.reshape(-1, s), y.reshape(s, -1)
    batch = ybar.shape[:ybar.ndim - (x.ndim + y.ndim - 2)]
    z = ybar.reshape(batch + (x2.shape[0], y2.shape[1]))
    if pos == 0:
        bar = np.matmul(y2, z.swapaxes(-1, -2)) if flipped else np.matmul(z, y2.T)
    else:
        bar = np.matmul(z.swapaxes(-1, -2), x2) if flipped else np.matmul(x2.T, z)
    return bar.reshape(batch + (x, y)[pos].shape)


def _reverse(plan, tape, edge_matrix, free_weight, out_bar) -> np.ndarray:
    """Gradient of sum(out_bar * output) in the ordered edge-matrix entries.

    Walks the plan backwards: each step's adjoints turn the adjoint of its
    result into the adjoints of its edge-matrix operands, which accumulate
    into the gradient, and of its step-result operands, which the step
    that produced them consumes in turn.  An einsum step's adjoints are
    einsums, a matmul step's matmuls.  Axes of `out_bar` before the
    output's are batch axes: one pass gives the gradient of every adjoint
    in the batch, stacked along them.  Each adjoint is no larger than an
    operand of its step times the batch, so the forward budget check
    covers an unbatched reverse pass too.
    """
    inputs = _plan_inputs(edge_matrix, free_weight, float)
    out_bar = np.asarray(out_bar, dtype=float)
    grad = None
    # the adjoint of each step's result, by step; each result feeds exactly
    # one later step, so each slot is set once and released once read
    bars = [None] * (len(plan) - 1) + [out_bar]
    for j in range(len(plan) - 1, -1, -1):
        step, ybar, bars[j] = plan[j], bars[j], None
        ops = [tape[i - _FIRST_TEMP] if i >= _FIRST_TEMP else inputs[i]
               for i in step.operands]
        for pos, adjoint in step.adjoints:
            if step.matmul:
                bar = _matmul_adjoint(pos, adjoint, *ops, ybar)
            else:
                bar = np.einsum(adjoint, ybar, *ops[:pos], *ops[pos + 1:])
            if step.operands[pos] != _EDGE:
                bars[step.operands[pos] - _FIRST_TEMP] = bar
            else:  # the first edge adjoint, a fresh array, accumulates the rest
                grad = bar if grad is None else np.add(grad, bar, out=grad)
    if grad is None:  # no edge-matrix operand: the gradient is zero
        return np.zeros(out_bar.shape[:out_bar.ndim - np.ndim(tape[-1])]
                        + edge_matrix.shape)
    return grad


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
    budget = _check_budget(budget)
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
    budget = _check_budget(budget)
    if target.n == 0:
        raise ValueError("target graph must have at least one vertex")
    return hom_count(motif, target, method=method, budget=budget) / target.n ** motif.n


# ---------------------------------------------------------------------------
# graphon densities


def graphon_density(motif: Graph, graphon: StepGraphon,
                    budget: int = DEFAULT_BUDGET) -> float:
    """Density t(F, W) of a motif in a step graphon."""
    budget = _check_budget(budget)
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
    pinned = tuple(_check_count("pinned vertex", v) for v in pinned)
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
        part = _check_count("assigned part", assignment[v])
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
    budget = _check_budget(budget)
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
    budget = _check_budget(budget)
    m = graphon.num_parts
    pinned, _ = _check_pinned(motif, pinned, None, m)
    plan = _checked_plan(m, motif.n, motif.edges, pinned, budget)
    return _forward(plan, graphon.values, graphon.weights)[-1]


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
    budget = _check_budget(budget)
    pinned, fixed = _check_pinned(motif, pinned, assignment, graphon.num_parts)
    value = pinned_density(motif, pinned, fixed, graphon, budget=budget)
    return PinnedDensity(motif, pinned, tuple(fixed.items()), value)


# ---------------------------------------------------------------------------
# iterated doublings: the copy-gluing recursion


def _weight_products(w: np.ndarray, g: int) -> np.ndarray:
    """prod_i w[x_i] over g axes, flattened in C order, as a new array.
    The product over one axis is w itself: 1.0 * x is x exactly."""
    d = w.copy() if g else np.ones(1)
    for _ in range(g - 1):
        d = np.multiply.outer(d, w).reshape(-1)
    return d


# entries of q - mean u v^T built at a time when summing a variance
_ROW_BLOCK = 1 << 14


def _centered_sq(q: np.ndarray, u: np.ndarray, v: np.ndarray, mean: float) -> float:
    """|q - mean u v^T|^2, summed over blocks of rows of q, so no table of
    q's size is built beside it."""
    mv = -mean * v
    step = max(1, _ROW_BLOCK // q.shape[1])
    out = 0.0
    for i in range(0, q.shape[0], step):
        diff = np.multiply.outer(u[i:i + step], mv)
        diff += q[i:i + step]
        out += float(np.vdot(diff, diff))
    return out


# entries of level k-2's table from which its Gram runs on version blocks
# (and level k-3's Gram at the row orbit representatives only).  The
# blocks cost about a dozen more numpy calls per forward and adjoint, and
# a few more per class k-2 part on level k-3, which outweigh the flops
# they save on small tables.  Forward plus adjoint on blocks over the
# dense Gram, K_4 and K_5 at k = 3 (m^4 entries), K_5 and K_6 at k = 4
# (m^8), min of 15 repeats on one thread of a 2-core Xeon: at k = 3, 1.7
# to 5.6 times the time up to 10,000 entries, 1.2 to 1.7 at 20,736 and
# 28,561, even at 38,416 and 0.6 to 0.9 at 50,625; at k = 4, 2.4 to 4.9
# times at 256 and 6,561 entries and 0.3 at 65,536.
_VERSION_BLOCK_MIN = 1 << 15


def _characters(bits: int) -> np.ndarray:
    """chi[c, h] = (-1)^popcount(c & h): character c of (Z2)^bits at h."""
    order = 1 << bits
    return np.array([[-1 if bin(c & h).count("1") & 1 else 1 for h in range(order)]
                     for c in range(order)])


def _swap_low_bits(v: int) -> int:
    """v with bits 0 and 1 swapped: the swap sigma on versions and on
    characters of the version group."""
    return v ^ 3 if (v ^ v >> 1) & 1 else v


class _VersionOrbits(NamedTuple):
    """Index maps of the version group on the assignments of one class,
    for its n orbits and N assignments, H = 2^bits group elements."""

    reps: np.ndarray  # (n,) the representative of each orbit, a flat index
    rep_images: np.ndarray  # (n, H): h . reps[o]
    # (H, n): 1/sqrt|S_o| where character c is trivial on S_o, else 0
    weight: np.ndarray
    root_stab: np.ndarray  # (n,): sqrt|S_o|, S_o the stabilizer
    orbit: np.ndarray  # (N,): the orbit of every assignment x
    # the orbits run [F, P1, P2]: F the orbits sigma maps to themselves,
    # then `pairs` orbits P1 and their images P2 in the same order,
    # reps[P2] = sigma(reps[P1]); pairs is 0 where sigma is the identity
    pairs: int
    # (n,): on F the h with sigma(reps[o]) = h . reps[o] (0 where sigma
    # fixes reps[o]), elsewhere 0
    swap_shift: np.ndarray


def _version_orbits(m: int, n: int, bits: int, sigma=lambda v: v) -> _VersionOrbits:
    """The group (Z2)^bits acting on [m]^(n 2^bits), whose axes are
    vertex-major, version-minor: h sends the axis of (vertex i, version v)
    to that of (i, v XOR h).

    For a character c and an orbit O, the entries of O signed by c (the
    sign of x = h . rep is c(h)), over sqrt|O|, make a unit vector, and a
    nonzero one exactly when c is trivial on O's stabilizer.  Over every c
    and O they form an orthonormal basis in which a table that commutes
    with the group, acting on its rows and columns at once, is block
    diagonal, one block per character.  By that invariance, the entry of
    block c at row orbit O and column orbit O' reads only O's
    representative row: sum_h c(h) a[rep_O, h . rep_O'] / sqrt|S_O||S_O'|.
    The maps hold a few entries per assignment of one class, not per
    entry of the table.

    The orbits are ordered for `sigma`, a map on versions (see _Doubling),
    as [F, P1, P2] of _VersionOrbits.  F takes the smallest assignment
    sigma fixes as its representative where the orbit has one, so that
    sigma maps it to itself; a pair puts first the orbit whose stabilizer
    holds the larger group elements.  F runs from the largest stabilizers
    down and P1 from the smallest up, so that at two version bits the
    orbits on which each character is nonzero make one run of F and one
    of P1.  Under the identity every orbit is in F, represented by its
    smallest assignment.
    """
    versions = 1 << bits
    flat = np.arange(m ** (n * versions)).reshape((m,) * (n * versions))

    def images_of(vmap) -> np.ndarray:
        return flat.transpose([i * versions + vmap(v) for i in range(n)
                               for v in range(versions)]).reshape(-1)

    images = np.stack([images_of(lambda v, h=h: v ^ h) for h in range(versions)])
    reps, orbit = np.unique(images.min(axis=0), return_inverse=True)
    sigma = images_of(sigma)  # from here on, sigma on assignments
    stab = images[:, reps] == reps
    size = stab.sum(axis=0)
    # the elements of each stabilizer as a bit mask
    elements = (stab << np.arange(versions)[:, None]).sum(axis=0)
    partner = orbit[sigma[reps]]
    index = np.arange(reps.size)
    fixed_points = np.flatnonzero(sigma == np.arange(sigma.size))
    has, first = np.unique(orbit[fixed_points], return_index=True)
    reps[has] = fixed_points[first]
    fixed = np.flatnonzero(partner == index)
    ahead = (elements > elements[partner]) | (
        (elements == elements[partner]) & (index < partner))
    p1 = np.flatnonzero((partner != index) & ahead)
    fixed = fixed[np.lexsort((fixed, -size[fixed]))]
    p1 = p1[np.lexsort((p1, size[p1]))]
    order = np.concatenate([fixed, p1, partner[p1]])
    reps = np.concatenate([reps[fixed], reps[p1], sigma[reps[p1]]])
    orbit = np.argsort(order)[orbit]
    swap_shift = np.zeros(reps.size, dtype=np.int64)
    swap_shift[:fixed.size] = np.argmax(
        images[:, reps[:fixed.size]] == sigma[reps[:fixed.size]], axis=0)
    # the indicator of each orbit's stabilizer S_o, summed against every
    # character c: |S_o| where c is trivial on S_o, else 0
    trivial = _characters(bits) @ (images[:, reps] == reps)
    root_stab = np.sqrt(trivial[0])
    return _VersionOrbits(reps, images[:, reps].T.copy(),
                          (trivial != 0) / root_stab, root_stab, orbit,
                          p1.size, swap_shift)


class _Level(NamedTuple):
    """Axis layout of one doubling level of the gluing recursion."""

    g: int  # axes of the class glued at this level
    r: int  # axes of the classes still pinned after it
    perm: tuple[int, ...]  # glued-table axes into (class, vertex, version) order
    inv: tuple[int, ...]  # the inverse of perm, for the reverse pass


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


class _OrbitRows(NamedTuple):
    """Index maps between level k-3's Gram and level k-2's rows at the
    version orbit representatives, for G assignments of class k-2 and R
    of class k-1 in one copy of level k-3's columns, whose two copies
    (u, v) the Gram pairs."""

    u_of: np.ndarray  # (nK,): the first copy's class k-2 part u_g of each kept row
    v_of: np.ndarray  # (nK,): the second copy's part v_g
    # u_of and v_of grouped by v for _rep_rows_adjoint's loop, (v, us,
    # dest): the kept rows x = (u, v) for u in us, and where they go among
    # the kept rows (a slice when contiguous)
    groups: tuple[tuple[int, np.ndarray, slice | np.ndarray], ...]


def _orbit_rows(levels, reps: np.ndarray, m: int) -> tuple[_OrbitRows, np.ndarray]:
    """Level k-2's table is level k-3's Gram with its raw axes (u_g, u_r,
    v_g, v_r), the class k-2 and class k-1 parts of the two copies, sorted
    into (class, vertex, version) order.  So row x of it is a pair (u_g,
    v_g) of class k-2 parts, column y a pair (u_r, v_r), and the entry is
    the (u_r, v_r) entry of C[:, u_g, :]^T C[:, v_g, :], for C level k-3's
    factor split as (glued) x (class k-2) x (class k-1).  These maps hold
    a few entries per row and column of level k-2, not per entry.  `levels`
    is the layout of k levels, `reps` the kept rows of level k-2.  Also
    returns the raw column u_r R + v_r of each column y of level k-2."""
    k = len(levels)
    prev, level = levels[k - 3], levels[k - 2]
    half = level.g // 2

    def pairs(start, stop, lo, n):
        # flat (u part, v part) index of each table index over axes
        # start..stop, whose raw axes are lo..lo+n of either copy
        pos = [p - lo if p < prev.r else n + p - prev.r - lo
               for p in prev.perm[start:stop]]
        return np.arange(m ** (2 * n)).reshape((m,) * (2 * n)).transpose(pos).reshape(-1)

    size_g = m**half
    rep_pairs = pairs(0, level.g, 0, half)[reps]
    us, vs = np.divmod(rep_pairs, size_g)
    order = np.argsort(vs, kind="stable")  # the kept rows by v_g
    starts = np.flatnonzero(np.diff(vs[order], prepend=-1))
    groups = []
    for start, stop in zip(starts, [*starts[1:], vs.size]):
        dest = order[start:stop]
        if np.array_equal(dest, np.arange(dest[0], dest[0] + dest.size)):
            dest = slice(int(dest[0]), int(dest[0]) + dest.size)
        groups.append((int(vs[order[start]]), us[dest], dest))
    return (_OrbitRows(us, vs, tuple(groups)),
            pairs(level.g, 2 * prev.r, half, level.r // 2))


class _Half(NamedTuple):
    """One diagonal block of level k-2's table in the version basis: d_k
    adds `weight` times the squared norm of its Gram.  Its rows are those
    of the `parts`, (character, kept rows, column orbits) of the blocks
    table, stacked (a conjugate pair reads its second orbit of each row
    pair from the partner character); the columns of every part are the
    same."""

    weight: float
    parts: tuple[tuple[int, slice, slice | np.ndarray], ...]


class _Run(NamedTuple):
    """Consecutive column orbits of level k-2 whose blocks read the kept
    rows through one coefficient matrix K: single orbits (pp = 1) or sigma
    pairs, a P1 orbit with its P2 image (pp = 2).  An orbit's sources are
    its columns h . rep for h = 0..H-1, first occurrences only (a pair's
    those of P1, then those of P2), and the column of block c at output p
    is sum_j K[p, c, j] times source j: the character sum, the column
    scale, the pair's (x + y, x - y) and the partner sign in one map."""

    rows: slice  # its rows of the gathered table, s sources by n orbits
    cols: tuple[slice, ...]  # for each output p, its n column orbits
    coef: np.ndarray  # (pp, H, s): K


class _VersionBlocks(NamedTuple):
    """The maps of the last two gluing levels on version blocks, for H
    characters, nK kept rows and nY column orbits of level k-2."""

    rows: _VersionOrbits  # the version maps of class k-2 and of class k-1
    cols: _VersionOrbits
    orbit_rows: _OrbitRows  # level k-2's kept rows from level k-3's factor
    row_of: np.ndarray  # (m^g,): the kept row that holds each row's values
    # (m^r,): the column of the kept rows (in their raw order, see
    # _Doubling._rep_rows) at each row of the gathered table, laid out run
    # by run as (source, orbit); and its inverse
    perm: np.ndarray
    unperm: np.ndarray
    runs: tuple[_Run, ...]
    row_scale: np.ndarray  # (H, 1, nK)
    halves: tuple[_Half, ...]  # the sigma-even half of the trivial block first
    # the first half's column scale beyond sqrt(H / |S_o|): sqrt 2 on P1
    # and 0 on P2, the coordinates of a sigma-fixed vector on the pair
    # columns (x + y)/sqrt 2, else 1
    pair_scale: np.ndarray
    swap_axes: tuple[int, ...]  # sigma on the base table's axes
    # (area, shape) in the buffer of one run, which ends with the last
    # area, each table at the start of its area: the kept rows, transposed
    # and gathered by perm (the raw kept rows first), the blocks, the Gram
    # of each half, then the reverse pass's adjoint of the first
    tables: tuple[tuple[slice, tuple[int, ...]], ...]


def _span(needed: np.ndarray, forbidden: np.ndarray | None = None
          ) -> slice | np.ndarray | None:
    """The indices where `needed` holds: the slice that spans them where
    it spans no `forbidden` index, else the indices themselves; None where
    there are none.  A spanned index that is not needed is a zero row or
    column of its block (up to rounding, for an F row of the other sign
    in a sigma half), which changes neither its Gram's norm nor the
    adjoint."""
    hits = np.flatnonzero(needed)
    if not hits.size:
        return None
    span = slice(int(hits[0]), int(hits[-1]) + 1)
    return hits if forbidden is not None and forbidden[span].any() else span


def _swaps_first_classes(colored: ColoredGraph) -> bool:
    """Whether swapping vertex i of class 0 with vertex i of class 1, for
    every i, and fixing every other vertex is an automorphism."""
    a, b = colored.classes[0], colored.classes[1]
    if len(a) != len(b):
        return False
    image = list(range(colored.graph.n))
    for u, v in zip(a, b):
        image[u], image[v] = v, u
    edges = set(colored.graph.edges)
    return all((min(image[u], image[v]), max(image[u], image[v])) in edges
               for u, v in edges)


def _version_blocks(colored: ColoredGraph, levels, k: int, m: int) -> _VersionBlocks:
    """The maps of _VersionBlocks for k >= 3 doublings over m parts.  sigma
    (see _Doubling) is the swap of version bits 0 and 1 from k = 4 on where
    the motif swaps classes 0 and 1, and the identity otherwise, which
    fixes every orbit and character: each character makes one half, its
    sigma-even one."""
    bits = k - 2
    order = 1 << bits  # elements and characters of the group
    swap = bits >= 2 and _swaps_first_classes(colored)
    sigma = _swap_low_bits if swap else lambda v: v
    rows, cols = (_version_orbits(m, len(colored.classes[c]), bits, sigma)
                  for c in (k - 2, k - 1))
    kept = rows.reps.size - rows.pairs
    fixed = kept - rows.pairs
    nf, npair = cols.reps.size - 2 * cols.pairs, cols.pairs
    chi = _characters(bits)
    odd = chi < 0
    conj = [sigma(c) for c in range(order)]
    row_nz = rows.weight[:, :kept] != 0
    col_nz = cols.weight != 0
    row_scale = rows.weight[:, :kept].copy()
    col_scale = cols.weight.copy()
    halves = []
    # -1 at the characters whose odd pair columns change sign
    sign = np.ones(order)
    # a pair column of the sigma basis is nonzero where either orbit is
    pair_nz = col_nz[:, nf:nf + npair] | col_nz[:, nf + npair:]
    col_nz = np.concatenate([col_nz[:, :nf], pair_nz, pair_nz], axis=1)
    col_scale[:, nf:] /= math.sqrt(2)
    in_p1 = np.arange(kept) >= fixed
    for c in range(order):
        sc = conj[c]
        if sc == c:
            # sigma-even and sigma-odd halves: the F orbits of that sign
            # and the pair columns x + y or x - y; each pair row stands
            # for both of its orbits, sqrt 2 times
            row_scale[c, fixed:] *= math.sqrt(2)
            row_odd = odd[c, rows.swap_shift[:kept]] & ~in_p1
            col_odd = odd[c, cols.swap_shift]
            for parity in (False, True):
                want = np.zeros(cols.reps.size, dtype=bool)
                want[:nf] = col_odd[:nf] == parity
                want[nf + npair * parity:nf + npair * (parity + 1)] = True
                needed_rows = row_nz[c] & ((row_odd == parity) | in_p1)
                r = _span(needed_rows)
                cs = _span(col_nz[c] & want, col_nz[c] & ~want)
                if r is not None and cs is not None:
                    halves.append(_Half(1.0, ((c, r, cs),)))
        elif c < sc:
            # B_sc is B_c up to a signed permutation, so |G_sc| = |G_c|;
            # the second orbits of B_c's row pairs are sc's P1 rows, whose
            # F columns take the sign of c at sigma's shift and whose odd
            # pair columns change sign
            cs = _span(col_nz[c])
            parts = tuple((char, r, cs) for char, r in (
                (c, _span(row_nz[c])), (sc, _span(row_nz[sc] & in_p1)))
                if r is not None)
            if parts and cs is not None:
                halves.append(_Half(2.0, parts))
            col_scale[sc, :nf] *= np.where(odd[c, cols.swap_shift[:nf]], -1.0, 1.0)
            sign[sc] = -1.0
    runs, perm = _column_runs(cols, col_scale, chi, sign)
    orbit_rows, raw_col = _orbit_rows(levels, rows.reps[:kept], m)
    perm = raw_col[perm]
    size_y = perm.size
    # before the blocks fill their area, it holds _rep_rows' gathers of
    # level k-3's factor at the kept rows' class k-2 parts (two copies of
    # at least one row at a time) and then the kept rows transposed (H nY
    # >= m^r, as no orbit has more than H members), so the forward pass
    # allocates nothing else.  Gathering every kept row at once into fresh
    # arrays instead (1.2 MB at K_5, k = 4, m = 5) keeps the page-fault and
    # peak-memory tests' bounds but lifts cs_chain_check's traced peak from
    # 2.67 to 3.62 MiB and the chain workload's peak RSS by about 0.3 MiB,
    # and ran its op 1.5-3% slower (one thread of a 2-core Xeon)
    copy_row = m ** (levels[k - 3].g + levels[k - 2].r // 2)
    shapes = [((size_y, kept), 0), ((order, cols.reps.size, kept), 2 * copy_row)]
    for half in halves:
        n = np.arange(cols.reps.size)[half.parts[0][2]].size
        shapes.append(((n, n), 0))
    shapes.append(((size_y, kept), 0))
    # every area starts on a 64-byte boundary, so each table keeps the
    # buffer's alignment for the vectorized kernels
    tables, size = [], 0
    for shape, least in shapes:
        n = max(math.prod(shape), least)
        tables.append((slice(size, size + n), shape))
        size += -(-n // 8) * 8
    pair_scale = np.ones(cols.reps.size)
    pair_scale[nf:nf + npair] = math.sqrt(2)
    pair_scale[nf + npair:] = 0.0
    # the vertices that sigma swaps: those of class 0 with those of class 1,
    # or none
    n0 = len(colored.classes[0]) if swap else 0
    pinned = sum(len(colored.classes[c]) for c in range(k))
    swap_axes = tuple(range(n0, 2 * n0)) + tuple(range(n0)) + tuple(range(2 * n0, pinned))
    row_of = np.where(rows.orbit < kept, rows.orbit, rows.orbit - rows.pairs)
    return _VersionBlocks(
        rows, cols, orbit_rows, row_of, perm, np.argsort(perm), runs,
        row_scale[:, None, :], tuple(halves), pair_scale[halves[0].parts[0][2]],
        swap_axes, tuple(tables))


def _column_runs(cols: _VersionOrbits, col_scale: np.ndarray, chi: np.ndarray,
                 sign: np.ndarray) -> tuple[tuple[_Run, ...], np.ndarray]:
    """The runs of level k-2's column orbits (see _Run), and the column of
    level k-2 that each row of the gathered table reads.  col_scale[c, o]
    is the scale of block c's column o before the pairs' (x + y, x - y),
    chi the characters (_characters), and sign[c] the sign of block c's
    P2 columns after it."""
    order, npair = chi.shape[0], cols.pairs
    nf = cols.reps.size - 2 * npair
    images = cols.rep_images
    # lead[o, h]: the first h' with h' . rep_o = h . rep_o; the h that
    # lead themselves give the sources, and source[o, h] is the one h
    # reaches
    lead = np.argmax(images[:, :, None] == images[:, None, :], axis=2)
    leads = lead == np.arange(order)
    source = np.take_along_axis(np.cumsum(leads, axis=1) - 1, lead, axis=1)
    # each orbit's own K[c, j]: its column scale times the sum of
    # character c over the h that reach source j
    reach = (source[:, :, None] == np.arange(order)).astype(float)
    coef = np.einsum("ch,ohj->ocj", chi.astype(float), reach)
    coef *= col_scale.T[:, :, None]
    units = []  # (first column orbit, K, sources) of each orbit or pair
    for o in range(nf):
        s = np.count_nonzero(leads[o])
        units.append((o, coef[o, :, :s][None], images[o, leads[o]]))
    for o in range(nf, nf + npair):
        s = np.count_nonzero(leads[o])
        k1, k2 = coef[o, :, :s], coef[o + npair, :, :s]
        k = np.stack([np.hstack([k1, k2]), sign[:, None] * np.hstack([k1, -k2])])
        src = np.concatenate([images[o, leads[o]], images[o + npair, leads[o + npair]]])
        units.append((o, k, src))
    runs, perm, start = [], [], 0
    # consecutive equal K make a run; adding 0.0 turns -0.0 into 0.0, so
    # that equal K have equal bytes
    for _, group in groupby(units, key=lambda unit: (unit[1].shape,
                                                     (unit[1] + 0.0).tobytes())):
        (first, *_), (k, *_), srcs = zip(*group)
        sources = np.stack(srcs, axis=1)  # (s, n)
        runs.append(_Run(slice(start, start + sources.size),
                         tuple(slice(first + p * npair, first + p * npair + len(srcs))
                               for p in range(len(k))), k))
        perm.append(sources.reshape(-1))
        start += sources.size
    return tuple(runs), np.concatenate(perm)


class _DoublingRun(NamedTuple):
    """The forward tables of one evaluation of the gluing recursion."""

    values: np.ndarray  # the value matrix evaluated at
    tape: list  # the base plan's step results, the base table last
    # each level's root-weighted factor, innermost level first; with version
    # blocks level k-2's factor holds only its kept rows, transposed and
    # gathered by perm into (m^r, nK), the last level's factor, the Gram of
    # level k-2, is never formed, and only the blocks of level k-2 are kept
    factors: list
    # (H, nY, nK): the character blocks of the kept rows, transposed (block
    # c's column orbits by its kept rows), each run of like column orbits
    # written by one product of its K with its gathered source rows
    blocks: np.ndarray | None
    grams: list | None  # the Gram of each half (_VersionBlocks.halves)
    # (m^r, nK): room in the same buffer for the reverse pass's adjoint of
    # level k-2's factor, on a run that keeps its tape; else None
    rows_bar: np.ndarray | None
    table: np.ndarray  # the final table: a scalar once every class is glued


class _DoublingShape(NamedTuple):
    """The part of a _Doubling that does not depend on the part weights."""

    pinned: tuple[int, ...]
    levels: tuple[_Level, ...]
    plan: tuple[_Step, ...]
    versions: _VersionBlocks | None  # with version blocks, else None


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _doubling_shape(colored: ColoredGraph, k: int, m: int,
                    budget: int) -> _DoublingShape:
    """The layout, checked plan, budget checks, version maps and buffer
    slices of k doublings of `colored` over m parts, built once per
    argument tuple: everything _Doubling binds but the weights.  Level
    k-2 runs on version blocks from _VERSION_BLOCK_MIN entries up."""
    if not 0 <= k <= colored.num_classes:
        raise ValueError(
            f"number of doublings {k} out of range for "
            f"{colored.num_classes} classes"
        )
    g = colored.graph
    pinned, levels = _doubling_layout(colored.classes, k)
    plan = _checked_plan(m, g.n, g.edges, pinned, budget)
    for j, level in enumerate(levels):
        if m ** (level.g + level.r) > budget or m ** (2 * level.r) > budget:
            raise UnsupportedSizeError(
                f"doubling level {j} needs tables beyond the budget of "
                f"{budget} entries"
            )
    last = levels[k - 2] if k >= 3 else None
    if last is None or m ** (last.g + last.r) < _VERSION_BLOCK_MIN:
        return _DoublingShape(pinned, levels, plan, None)
    return _DoublingShape(pinned, levels, plan, _version_blocks(colored, levels, k, m))


class _Doubling:
    """The gluing recursion of one colored motif and k doublings, bound to
    fixed part weights and a table budget.

    The recursion runs on root-weighted tables: every axis of a level's
    table carries the square root of its part's weight, so gluing a class
    is the plain Gram A^T A of the table split into (glued class) x (the
    rest), and the last level, which glues everything left, is a dot
    product.  Each level keeps only its own table, stored in the axis
    order the next level reads; the reverse pass relies on the symmetry
    of every Gram's adjoint (see base_adjoint).  Binding takes everything
    but the weights from _doubling_shape, built once per (motif, k, part
    count, budget), which checks the base plan and every level's tables
    against the budget, so an oversized request fails before any
    contraction runs; only the root products are computed per binding.

    From k = 3 on, the last two levels run on version blocks.  Swapping
    the two copies glued at any level changes nothing, and on level k-2's
    table A that swap flips one bit of the version of every axis, rows and
    columns at once.  So A commutes with the version group (Z2)^(k-2) and
    is block diagonal in the basis of its characters (_version_orbits),
    one block A_c per character c.  The last level is the squared norm of
    the Gram A^T A, so d_k = sum_c |A_c^T A_c|^2, and the m^(2r) Gram is
    never built.  The blocks read A only at the rows of its orbit
    representatives, and A is itself level k-3's Gram, so that Gram is
    formed at those rows only (_orbit_rows), and the adjoint goes back
    through level k-3 without building either m^(2r) table.  Each block
    keeps only the orbits on which its character is nonzero.

    sigma is one more map on A's rows and columns at once that leaves A
    unchanged.  From k = 4 on, where the motif has the automorphism that
    swaps vertex i of class 0 with vertex i of class 1 and fixes every
    other vertex (every K_t has one), the first two doublings are
    interchangeable, and sigma is the swap of version bits 0 and 1;
    elsewhere it is the identity.  sigma permutes the orbits, so they are
    ordered [F, P1, P2]: F the orbits it maps to themselves, P1 one of
    each other pair and P2 = sigma(P1) in the same order.  A is formed
    at the F and P1 representatives only (kept rows).  sigma maps block
    c to block sigma(c) up to signs and a permutation, so where c !=
    sigma(c) one block of the pair is kept and counted twice, its P2 rows
    read off the partner's P1 rows.  Where c = sigma(c), the block splits
    into a sigma-even half on the columns F+ and (P1 + P2)/sqrt 2 and a
    sigma-odd half on F- and (P1 - P2)/sqrt 2, each pair row standing in
    for both of its orbits sqrt 2 times; F+ and F- are the F orbits on
    which sigma acts on c's basis vector by +1 or -1 (all of F at k = 4).
    Over the even and odd pair columns of every block, each half and each
    kept block is a slice of the blocks table.  The identity fixes every
    orbit and character, so it keeps every row orbit and makes one
    sigma-even half per character.  At K_5, k = 4, m = 5 the kept rows
    are 120 of 625 (175 under the identity), and four 175 x 175 blocks
    become halves of 120 and 55, one block of 105 + 45 rows by 160
    columns counted twice, and halves of 105 and 45.

    The map from the kept rows to the blocks acts on every row alike, and
    each column orbit (or sigma pair of orbits) reads only its own
    columns of A, so it is one small matrix K per orbit (_Run): the
    character sums, the column scales, the pair's even and odd columns
    and the partner's signs at once.  Orbits with the same K lie next to
    each other, so the kept rows, transposed, are gathered once into
    (source, orbit) order (perm) and each run of like orbits is one
    product K times its rows, written straight into the blocks, which are
    stored transposed (H, nY, nK); at K_5, k = 4, m = 5 the 175 column
    orbits make 5 runs.  The reverse pass applies K^T to each run and
    the inverse gather.

    Those kept rows, the blocks, the Grams of their halves and the
    reverse pass's adjoint of the kept rows live and die with one run,
    so each run takes them as views of one buffer, at the starts fixed in
    the shape (_VersionBlocks.tables), and the steps between them reuse
    areas read no more; a run that keeps no tape stops the buffer before
    the adjoint's area.  glibc hands freed heap back to the system above
    twice the largest mapped block freed so far.  Three tables of about 1
    MB each (K_5, k = 4, m = 5, sigma the identity) keep that threshold under
    a call's working set, and every call faults about 1,800 pages in
    anew; one buffer of their joint size lifts it above.
    """

    def __init__(self, colored: ColoredGraph, k: int, weights: np.ndarray,
                 budget: int):
        # before the cache, which would take k=True for k=1
        _check_count("k", k)
        self.pinned, self.levels, self.plan, self.versions = _doubling_shape(
            colored, k, weights.size, budget)
        self.m = m = weights.size
        self.weights = weights
        self.roots = np.sqrt(weights)
        # the root products over the pinned vertices, shaped as the base table
        self.base_roots = _weight_products(self.roots, len(self.pinned)).reshape(
            (m,) * len(self.pinned))
        if self.versions is not None:
            # the root products of level k-2's columns, which the version
            # group and sigma fix, in the columns of the first half (the
            # trivial block, sigma-even): sqrt|O| times their value at the
            # orbit's representative, in the sigma basis
            vb = self.versions
            cs = vb.halves[0].parts[0][2]
            roots = _weight_products(self.roots, self.levels[-2].r)[vb.cols.reps[cs]]
            self.block_roots = (roots * np.sqrt(1 << (k - 2)) / vb.cols.root_stab[cs]
                                * vb.pair_scale)

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
        product of two short vectors.

        With version blocks level k-2's factor holds only its kept rows,
        transposed and gathered by perm, so q sums it against the root
        products in perm's order; q is fixed by the version group (and
        sigma), so it is read at every row from the kept row of its orbit.
        The last level's q is the Gram G of level k-2 and sqrt(w_g) the
        outer product s s^T of that Gram's root products.  The version
        group and sigma fix s, so s lies in the sigma-even half of the
        trivial block, the first half: the mean is s_1^T G_1 s_1 and the
        variance the weighted sum of |G|^2 over the other halves plus
        |G_1 - mean s_1 s_1^T|^2, still a sum of squares, for G_1 and s_1
        that half and s in its basis.
        """
        m, out = self.m, []
        kept = run.factors[-1] if run.grams is not None else None
        for level, a in zip(self.levels, run.factors):
            if a is kept:  # transposed and gathered by perm
                q = _weight_products(self.roots, level.r)[self.versions.perm] @ a
                q = q[self.versions.row_of]
            else:
                q = a @ _weight_products(self.roots, level.r) if level.r else a
            h = level.g // 2
            q = q.reshape(m**h, m ** (level.g - h))
            s1 = _weight_products(self.roots, h)
            s2 = _weight_products(self.roots, level.g - h)
            mean = float(s1 @ q @ s2)
            out.append((mean, float(np.vdot(q, q)), _centered_sq(q, s1, s2, mean)))
        if run.grams is not None:
            first, s = run.grams[0], self.block_roots
            mean = float(s @ first @ s)
            var = _centered_sq(first, s, s, mean)
            for half, gram in zip(self.versions.halves[1:], run.grams[1:]):
                var += half.weight * float(np.vdot(gram, gram))
            out.append((mean, float(run.table), var))
        return out

    def forward(self, values: np.ndarray, keep_tape: bool = False) -> _DoublingRun:
        """Level j holds the densities of the j-times-doubled motif with
        every copy ("version") of classes j..k-1 pinned, times the root
        weight of every pinned axis.  Doubling class j identifies the
        shared copies, so the level-(j+1) table is the Gram A^T A where A is
        the level-j table split into (class-j assignments) x (the rest):
        the two factors of A are the two glued copies, and their roots
        multiply to the weights the glued class is summed with.

        Every table is stored in the axis order its level reads, so each
        split is a view: a level's Gram is one syrk, copied once into the
        next level's order, with no copy where its perm is the identity.
        With version blocks, level k-3's Gram is formed at the kept rows
        only, level k-2's factor, so formed, is split into its blocks
        (_blocks), and the last level is the weighted sum of the squared
        norms of their Grams; those tables are views of one buffer per run
        (see the class docstring)."""
        m = self.m
        tape = _forward(self.plan, values, self.weights, keep_tape)
        table = tape[-1] * self.base_roots
        factors, blocks, grams, rows_bar = [], None, None, None
        # the level whose table runs on version blocks, if any
        blocked = len(self.levels) - 2 if self.versions is not None else -1
        if blocked >= 0:
            # a run with no tape has no reverse pass: no room for its adjoint
            tables = self.versions.tables[:None if keep_tape else -1]
            buffer = np.empty(tables[-1][0].stop)
            kept, blocks, *grams = (buffer[part][:math.prod(shape)].reshape(shape)
                                    for part, shape in tables)
            rows_bar = grams.pop() if keep_tape else None
            area = buffer[tables[1][0]]  # the blocks' whole area
        for j, level in enumerate(self.levels):
            if j == blocked:
                factors.append(self._gather(table, area))
                table = np.asarray(self._blocks(factors[-1], blocks, grams))
                break
            a = table.reshape(m**level.g, m**level.r)
            factors.append(a)
            if j == blocked - 1:
                table = self._rep_rows(a, kept.reshape(kept.shape[::-1]), area)
            elif not level.r:
                table = np.asarray(np.dot(a[:, 0], a[:, 0]))
            else:
                gram = (a.T @ a).reshape((m,) * (2 * level.r))
                table = np.asarray(gram.transpose(level.perm), order="C")
        return _DoublingRun(values, tape, factors, blocks, grams, rows_bar, table)

    def _gather(self, rows: np.ndarray, spare: np.ndarray) -> np.ndarray:
        """Level k-2's kept rows transposed and gathered by perm, (m^r, nK),
        written over `rows` (through a transposed copy in `spare`) and
        returned."""
        transposed = spare[:rows.size].reshape(rows.shape[::-1])
        np.copyto(transposed, rows.T)
        out = rows.reshape(transposed.shape)
        # every index is in range: "clip" skips the copy "raise" makes of out
        return np.take(transposed, self.versions.perm, axis=0, out=out, mode="clip")

    def _blocks(self, gathered: np.ndarray, blocks: np.ndarray, grams) -> float:
        """d_k from level k-2's kept rows, transposed and gathered: one
        product per run and output (K times the run's sources, straight
        into the run's column orbits of every block), the row scale, then
        the Gram of each half, written into `blocks` and `grams`."""
        vb = self.versions
        order = blocks.shape[0]
        for run in vb.runs:
            src = gathered[run.rows].reshape(run.coef.shape[2], -1)
            for coef, cols in zip(run.coef, run.cols):
                np.matmul(coef, src, out=blocks[:, cols].reshape(order, -1))
        blocks *= vb.row_scale
        total = 0.0
        for half, gram in zip(vb.halves, grams):
            (c, r, cs), *rest = half.parts
            y = blocks[c][cs, r]
            np.matmul(y, y.T, out=gram)
            for c, r, cs in rest:
                y = blocks[c][cs, r]
                gram += y @ y.T
            total += half.weight * float(np.vdot(gram, gram))
        return total

    def base_adjoint(self, run: _DoublingRun) -> np.ndarray:
        """Adjoint on the base table of the final density.

        Swapping the two glued copies of a level leaves the recursion
        unchanged, and every forward table is itself a Gram, so the adjoint
        T of every Gram output is symmetric: the adjoint of a level's
        factor a is 2 a T rather than a (T + T^T), and that of the last
        level's dot product 2 a.  The factors of 2 are exact wherever they
        enter, so they are carried as one scalar and applied once, with
        the root products.  T arrives in the axis order its level stored
        the Gram in, so it is copied once back into the Gram's raw order
        (no copy where the perm is the identity), and a T is one product.

        With version blocks the reverse pass is the exact adjoint of the
        forward maps, which read level k-2 at its kept rows only: each
        half's adjoint G Y, the row scale, K^T for each run and the
        inverse of the gather (_blocks_adjoint), then the transposes of
        _rep_rows' products (_rep_rows_adjoint).  That reduced objective
        is d_k wherever the version group and sigma fix level k-2's
        table, but off it T need not be symmetric, so every level from
        k-3 down takes a (T + T^T).  The version group fixes the table for
        every base table.  A swap sigma fixes it where the base table is
        symmetric under the swap of classes 0 and 1, which the motif's
        automorphism makes it, and d_k is symmetric under that swap too,
        so the adjoint of d_k is the reduced one averaged over sigma's
        map of the base table's axes (swap_axes; an exact no-op where
        sigma is the identity).  At K_5, k = 4, m = 5 the reverse pass
        builds no m^r x m^r table."""
        m = self.m
        if not self.levels:
            return self.base_roots.copy()
        pairs = list(zip(self.levels, run.factors))
        level, a = pairs.pop()
        blocked = run.grams is not None
        if blocked:
            level, a = pairs.pop()
            tbar = self._rep_rows_adjoint(a, self._blocks_adjoint(run))
            scale = 4.0  # the squared norm of a Gram: 2, twice
        else:
            tbar, scale = a, 2.0 ** len(self.levels)
        tbar = tbar.reshape((m,) * (level.g + level.r))
        for level, a in reversed(pairs):
            t = tbar.transpose(level.inv).reshape(m**level.r, m**level.r)
            tbar = a @ (t + t.T if blocked else t)
            tbar = tbar.reshape((m,) * (level.g + level.r))
        out = tbar * self.base_roots
        out *= scale
        if blocked:  # exact where sigma is the identity: (x + x) 0.5 = x
            out += out.transpose(self.versions.swap_axes)
            out *= 0.5
        return out

    def _rep_rows(self, a: np.ndarray, out: np.ndarray, spare: np.ndarray) -> np.ndarray:
        """Level k-2's table at its kept rows only, from level k-3's factor
        a (see _orbit_rows), written into out and returned: the batched
        product C[:, u_g, :]^T C[:, v_g, :] over the kept rows (u_g, v_g),
        so its columns come out in the raw (u_r, v_r) order, which perm
        reads.  C is gathered at the u_g and the v_g of as many rows at a
        time as the flat `spare` holds."""
        maps = self.versions.orbit_rows
        size_r = self.m ** (self.levels[-2].r // 2)
        c = a.reshape(a.shape[0], -1, size_r)  # (glued, class k-2, class k-1)
        # the kept rows whose gathers of both copies fit in spare
        step = spare.size // (2 * a.shape[0] * size_r)
        for start in range(0, out.shape[0], step):
            us, vs = maps.u_of[start:start + step], maps.v_of[start:start + step]
            n = us.size * a.shape[0] * size_r
            u = np.take(c, us, axis=1, out=spare[:n].reshape(a.shape[0], -1, size_r),
                        mode="clip")
            v = np.take(c, vs, axis=1, out=spare[n:2 * n].reshape(u.shape), mode="clip")
            np.matmul(u.transpose(1, 2, 0), v.transpose(1, 0, 2),
                      out=out[start:start + us.size].reshape(-1, size_r, size_r))
        return out

    def _rep_rows_adjoint(self, a: np.ndarray, rbar: np.ndarray) -> np.ndarray:
        """a (T + T^T) for level k-3's factor a and T the adjoint of its
        Gram in raw axis order, which is rbar, the adjoint of the kept rows,
        at those rows and zero elsewhere: the transposes of _rep_rows'
        products, two per class k-2 part v_g, so no table of T's size is
        built."""
        maps = self.versions.orbit_rows
        size_r = self.m ** (self.levels[-2].r // 2)
        # (class k-2, class k-1, glued): each part's C[:, u, :]^T is contiguous
        ct = a.reshape(a.shape[0], -1, size_r).transpose(1, 2, 0).copy()
        out = np.zeros_like(ct)
        for v, us, dest in maps.groups:
            pbar = rbar[dest].reshape(-1, size_r)  # (u_g, u_r) x v_r
            out[v] += pbar.T @ ct[us].reshape(-1, a.shape[0])
            out[us] += (pbar @ ct[v]).reshape(us.size, size_r, -1)
        return out.transpose(2, 0, 1).reshape(a.shape[0], -1)

    def _blocks_adjoint(self, run: _DoublingRun) -> np.ndarray:
        """The adjoint of _blocks' d_k in level k-2's kept rows (nK, m^r),
        over 4: weight G Y for each part Y of each half, into a zeroed
        table of the blocks' layout, the row scale, K^T for each run and
        output into the gathered rows' layout, then the take by the
        inverse of perm and one transposed copy back."""
        vb = self.versions
        bar = np.zeros_like(run.blocks)
        for half, gram in zip(vb.halves, run.grams):
            for c, r, cs in half.parts:
                y = run.blocks[c][cs, r]
                if isinstance(cs, slice):  # a view: G Y goes straight into bar
                    np.matmul(gram, y, out=bar[c][cs, r])
                else:
                    bar[c][cs, r] = gram @ y
                if half.weight != 1.0:
                    bar[c][cs, r] *= half.weight
        bar *= vb.row_scale
        gbar = run.rows_bar
        order = bar.shape[0]
        for r in vb.runs:
            out = gbar[r.rows].reshape(r.coef.shape[2], -1)
            first, *rest = (bar[:, cols].reshape(order, -1) for cols in r.cols)
            np.matmul(r.coef[0].T, first, out=out)
            if rest:
                # a pair's P1 columns of bar are read no more, and each half
                # of its sources (at most H) fits there
                half = out.shape[0] // 2
                for rows in (slice(0, half), slice(half, None)):
                    out[rows] += np.matmul(r.coef[1][:, rows].T, rest[0], out=first[:half])
        # then bar's area, which holds a table of gbar's size, and gbar's
        # are read no more
        rbar = np.take(gbar, vb.unperm, axis=0, mode="clip",
                       out=bar.reshape(-1)[:gbar.size].reshape(gbar.shape))
        out = gbar.reshape(rbar.shape[::-1])
        np.copyto(out, rbar.T)
        return out

    def gradient(self, run: _DoublingRun, base_bar: np.ndarray) -> np.ndarray:
        """Gradient in the ordered value-matrix entries of sum(base_bar *
        base table), from one reverse pass over a tape kept by forward.
        Leading axes of `base_bar` beyond the base table's are a batch:
        one pass gives a gradient per adjoint, stacked along them."""
        return _reverse(self.plan, run.tape, run.values, self.weights, base_bar)


def doubling_density(colored: ColoredGraph, k: int, graphon: StepGraphon,
                     budget: int = DEFAULT_BUDGET) -> float:
    """Density of the k-times-doubled motif, without ever building it.

    Equals graphon_density(iterated_double(colored, k).graph, graphon) but
    runs in time polynomial in the table sizes of the glued classes instead
    of exponential in the doubled motif's vertex count.
    """
    budget = _check_budget(budget)
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
    budget = _check_budget(budget)
    _check_count("j", j)
    if not 1 <= j <= colored.num_classes:
        raise ValueError(f"step {j} out of range for {colored.num_classes} classes")
    doubling = _Doubling(colored, j, graphon.weights, budget)
    return doubling.moments(doubling.forward(graphon.values))[-1]


# ---------------------------------------------------------------------------
# gradients with respect to the value matrix


@functools.lru_cache(maxsize=16)
def _param_maps(m: int):
    """``iu``, ``sym``, ``order`` and ``starts``: the maps between the
    entries of an m x m symmetric value matrix and its P = m(m+1)/2 tied
    parameters, built once per part count (for the last 16) and read-only.
    ``iu`` indexes the parameters in the upper triangle and ``sym`` maps
    every entry to its parameter, so ``step[sym]`` is the symmetric matrix
    of a parameter step.  ``order`` lists the flat entries parameter by
    parameter, the upper one first, and ``starts`` where each parameter's
    run begins: every map has O(m^2) entries."""
    iu = np.triu_indices(m)
    sym = np.empty((m, m), dtype=np.intp)
    sym[iu] = sym.T[iu] = np.arange(iu[0].size)
    order = np.argsort(sym.reshape(-1), kind="stable")
    starts = np.flatnonzero(np.diff(sym.reshape(-1)[order], prepend=-1))
    for a in (*iu, sym, order, starts):
        a.flags.writeable = False
    return iu, sym, order, starts


def _fold(ordered: np.ndarray) -> np.ndarray:
    """Sum a gradient in the ordered entries, over its last two axes, onto
    the tied parameters.  Off-diagonal parameters appear at two positions
    of the value matrix, so their derivatives add, as g + g^T adds them;
    diagonal ones appear once and are kept as they are.  Leading axes are
    a batch."""
    m = ordered.shape[-1]
    _, _, order, starts = _param_maps(m)
    flat = ordered.reshape(*ordered.shape[:-2], m * m)
    return np.add.reduceat(flat[..., order], starts, axis=-1)


def _symmetrize_param_grad(m_ordered: np.ndarray) -> np.ndarray:
    """_fold over the last two axes, spread back over the symmetric
    matrix: every entry holds its parameter's derivative."""
    return _fold(m_ordered)[..., _param_maps(m_ordered.shape[-1])[1]]


def graphon_density_gradient(motif: Graph, graphon: StepGraphon,
                             budget: int = DEFAULT_BUDGET):
    """t(F, W) together with its gradient in the symmetric value matrix.

    One forward pass over the motif's compiled plan, keeping its tape, and
    one reverse pass from the unit adjoint of the density.
    """
    budget = _check_budget(budget)
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
    budget = _check_budget(budget)
    doubling = _Doubling(colored, k, graphon.weights, budget)
    run = doubling.forward(graphon.values, keep_tape=True)
    grad = doubling.gradient(run, doubling.base_adjoint(run))
    return float(run.table[()]), _symmetrize_param_grad(grad)
