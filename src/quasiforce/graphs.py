"""Finite simple graphs, ordered proper colorings, and class doubling.

Doubling a properly colored graph on one of its color classes glues two
disjoint copies of the graph along that class.  Iterating the operation over
the first k classes produces the blown-up motifs whose densities the rest of
the package studies: K_2 doubled on both of its classes is the 4-cycle, and
each doubling exactly doubles the edge count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from numbers import Integral

from .errors import UnsupportedSizeError, _check_count
from .serialize import record_dict

__all__ = [
    "Graph",
    "ColoredGraph",
    "complete_graph",
    "cycle_graph",
    "double",
    "iterated_double",
    "are_isomorphic",
]


def _fields(data, kind: str, *keys) -> list:
    """The values at `keys` of a from_dict payload, or ValueError naming
    the bad shape or the first missing key."""
    if not isinstance(data, dict):
        raise ValueError(f"{kind} must be a JSON object, not {type(data).__name__}")
    for key in keys:
        if key not in data:
            raise ValueError(f"{kind} is missing the key {key!r}")
    return [data[key] for key in keys]


def _integer(value, kind: str, key: str) -> int:
    """A vertex number or count as a Python int.  Integers, numpy integers
    and integral floats are accepted; bools, strings and fractional numbers
    are refused instead of being truncated."""
    if type(value) is int:  # first: the Integral ABC check alone doubles Graph()
        return value
    if isinstance(value, Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f'{kind} needs integers in "{key}"; got {value!r}')


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1.

    Edges are normalized to a lexicographically sorted tuple of (u, v) pairs
    with u < v; loops and duplicate edges are rejected.
    """

    n: int
    edges: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        n = _integer(self.n, "graph", "n")
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        object.__setattr__(self, "n", n)
        seen: set[tuple[int, int]] = set()
        for e in self.edges:
            u, v = _integer(e[0], "graph", "edges"), _integer(e[1], "graph", "edges")
            if u == v:
                raise ValueError(f"loop at vertex {u} is not allowed")
            if u > v:
                u, v = v, u
            if not (0 <= u and v < self.n):
                raise ValueError(
                    f"edge ({u}, {v}) has an endpoint outside [0, {self.n})"
                )
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
        object.__setattr__(self, "edges", tuple(sorted(seen)))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def neighbors(self) -> tuple[frozenset[int], ...]:
        nbrs: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        return tuple(frozenset(s) for s in nbrs)

    def degree(self, v: int) -> int:
        return len(self.neighbors[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.neighbors[u]

    def without_edge(self, u: int, v: int) -> "Graph":
        e = (u, v) if u < v else (v, u)
        if e not in set(self.edges):
            raise ValueError(f"edge {e} not present")
        return Graph(self.n, tuple(f for f in self.edges if f != e))

    to_dict = record_dict

    @classmethod
    def from_dict(cls, data: dict) -> "Graph":
        n, edges = _fields(data, "graph", "n", "edges")
        try:
            edges = tuple((u, v) for u, v in edges)
        except (TypeError, ValueError):
            raise ValueError('graph needs "edges" as [u, v] pairs') from None
        return cls(n, edges)


@dataclass(frozen=True)
class ColoredGraph:
    """A graph together with an ordered proper coloring.

    ``classes`` is a tuple of disjoint, non-empty, independent vertex sets
    covering every vertex.  Class indices are 0-based.
    """

    graph: Graph
    classes: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        norm = tuple(
            tuple(sorted(_integer(v, "colored graph", "classes") for v in c))
            for c in self.classes)
        object.__setattr__(self, "classes", norm)
        if not norm:
            raise ValueError("at least one color class is required")
        seen: set[int] = set()
        for idx, cls_ in enumerate(norm):
            if not cls_:
                raise ValueError(f"color class {idx} is empty")
            for v in cls_:
                if not 0 <= v < self.graph.n:
                    raise ValueError(
                        f"class {idx} contains vertex {v} outside [0, {self.graph.n})"
                    )
                if v in seen:
                    raise ValueError(f"vertex {v} appears in more than one class")
                seen.add(v)
            for u, v in combinations(cls_, 2):
                if self.graph.has_edge(u, v):
                    raise ValueError(
                        f"class {idx} is not independent: contains edge ({u}, {v})"
                    )
        if len(seen) != self.graph.n:
            missing = sorted(set(range(self.graph.n)) - seen)
            raise ValueError(f"classes do not cover vertices {missing}")

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    def to_dict(self) -> dict:
        d = self.graph.to_dict()
        d["classes"] = [list(c) for c in self.classes]
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "ColoredGraph":
        graph = Graph.from_dict(data)
        (classes,) = _fields(data, "colored graph", "classes")
        try:
            classes = tuple(tuple(c) for c in classes)
        except TypeError:
            raise ValueError(
                'colored graph needs "classes" as lists of vertices'
            ) from None
        return cls(graph, classes)


def complete_graph(t: int) -> ColoredGraph:
    """K_t with its unique proper coloring into t singleton classes, built
    once per t: a ColoredGraph is immutable, so every caller shares it."""
    return _complete_graph(_check_count("t", t, 1))


# after the count check, which the cache would skip for True after 1
@lru_cache(maxsize=16)
def _complete_graph(t: int) -> ColoredGraph:
    edges = tuple(combinations(range(t), 2))
    return ColoredGraph(Graph(t, edges), tuple((i,) for i in range(t)))


def cycle_graph(n: int) -> Graph:
    _check_count("n", n, 3)
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def double(colored: ColoredGraph, class_index: int) -> ColoredGraph:
    """Glue two copies of ``colored`` along the color class ``class_index``.

    Copy 0 keeps all original labels; the non-shared vertices of copy 1 are
    appended as n, n+1, ... in ascending order of their original labels, so
    repeated runs produce identical output byte for byte.  The result keeps
    the class structure: the shared class is unchanged, every other class is
    the union of its two copies.  Edge count exactly doubles.
    """
    _check_count("class_index", class_index, 0, colored.num_classes - 1)
    g = colored.graph
    shared = set(colored.classes[class_index])
    rest = [v for v in range(g.n) if v not in shared]
    relabel = {v: v for v in shared}
    for i, v in enumerate(rest):
        relabel[v] = g.n + i
    edges = list(g.edges)
    for u, v in g.edges:
        ru, rv = relabel[u], relabel[v]
        edges.append((ru, rv) if ru < rv else (rv, ru))
    classes = []
    for idx, cls_ in enumerate(colored.classes):
        if idx == class_index:
            classes.append(cls_)
        else:
            classes.append(tuple(sorted(set(cls_) | {relabel[v] for v in cls_})))
    return ColoredGraph(Graph(2 * g.n - len(shared), tuple(edges)), tuple(classes))


def iterated_double(colored: ColoredGraph, k: int) -> ColoredGraph:
    """Double on classes 0, 1, ..., k-1 in order.

    The k-th iterate of K_t has 2^k * t(t-1)/2 edges; up to isomorphism the
    order of the doublings does not matter (see the tests).
    """
    _check_count("k", k, 0, colored.num_classes)
    out = colored
    for i in range(k):
        out = double(out, i)
    return out


def _refine_colors(g: Graph, h: Graph):
    """Lockstep 1-dimensional color refinement of both graphs.

    Returns stable color vectors comparable between the graphs, or None if
    the color histograms ever diverge (certain non-isomorphism).
    """
    cg = [0] * g.n
    ch = [0] * h.n
    while True:
        keys_g = [
            (cg[v], tuple(sorted(cg[u] for u in g.neighbors[v]))) for v in range(g.n)
        ]
        keys_h = [
            (ch[v], tuple(sorted(ch[u] for u in h.neighbors[v]))) for v in range(h.n)
        ]
        palette = {key: i for i, key in enumerate(sorted(set(keys_g) | set(keys_h)))}
        new_g = [palette[k] for k in keys_g]
        new_h = [palette[k] for k in keys_h]
        if sorted(new_g) != sorted(new_h):
            return None
        if new_g == cg and new_h == ch:
            return cg, ch
        cg, ch = new_g, new_h


def are_isomorphic(g: Graph, h: Graph, max_vertices: int = 24) -> bool:
    """Exact isomorphism test: color refinement plus pruned backtracking.

    Intended for the small, highly structured graphs this package builds.
    Graphs larger than ``max_vertices`` are refused with
    UnsupportedSizeError rather than risking an exponential search.
    """
    _check_count("max_vertices", max_vertices)
    if max(g.n, h.n) > max_vertices:
        raise UnsupportedSizeError(
            f"isomorphism testing is capped at {max_vertices} vertices; "
            f"got graphs on {g.n} and {h.n}"
        )
    if g.n != h.n or g.num_edges != h.num_edges:
        return False
    if g.n == 0:
        return True
    refined = _refine_colors(g, h)
    if refined is None:
        return False
    cg, ch = refined

    cells: dict[int, list[int]] = {}
    for w, c in enumerate(ch):
        cells.setdefault(c, []).append(w)

    # Order g's vertices so each new vertex touches the mapped prefix when
    # possible, preferring rare colors; this keeps the search shallow.
    remaining = set(range(g.n))
    order: list[int] = []
    placed: set[int] = set()
    while remaining:
        v = min(
            remaining,
            key=lambda x: (
                -len(g.neighbors[x] & placed),
                len(cells[cg[x]]),
                -g.degree(x),
                x,
            ),
        )
        order.append(v)
        remaining.remove(v)
        placed.add(v)

    mapping = [-1] * g.n
    used = [False] * h.n

    def extend(i: int) -> bool:
        if i == g.n:
            return True
        v = order[i]
        nbrs_v = g.neighbors[v]
        for w in cells[cg[v]]:
            if used[w]:
                continue
            ok = True
            for u in order[:i]:
                if (u in nbrs_v) != (mapping[u] in h.neighbors[w]):
                    ok = False
                    break
            if not ok:
                continue
            mapping[v] = w
            used[w] = True
            if extend(i + 1):
                return True
            mapping[v] = -1
            used[w] = False
        return False

    return extend(0)
