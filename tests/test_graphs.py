"""Graph and colored-graph construction, doubling, and isomorphism."""

from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from quasiforce import (
    ColoredGraph,
    Graph,
    UnsupportedSizeError,
    are_isomorphic,
    complete_graph,
    cycle_graph,
    double,
    iterated_double,
)


def test_edges_normalized_sorted():
    g = Graph(4, ((3, 1), (0, 2), (2, 1)))
    assert g.edges == ((0, 2), (1, 2), (1, 3))
    assert g.num_edges == 3
    assert g.has_edge(1, 3) and g.has_edge(3, 1)
    assert not g.has_edge(0, 1)


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(3, ((0, 0),))
    with pytest.raises(ValueError):
        Graph(3, ((0, 3),))
    with pytest.raises(ValueError):
        Graph(3, ((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        Graph(-1)


def test_without_edge():
    g = Graph(3, ((0, 1), (1, 2)))
    assert g.without_edge(2, 1).edges == ((0, 1),)
    with pytest.raises(ValueError):
        g.without_edge(0, 2)


def test_colored_graph_validation():
    g = Graph(3, ((0, 1), (1, 2)))
    ColoredGraph(g, ((0, 2), (1,)))
    with pytest.raises(ValueError):  # class not independent
        ColoredGraph(g, ((0, 1), (2,)))
    with pytest.raises(ValueError):  # not covering
        ColoredGraph(g, ((0,), (1,)))
    with pytest.raises(ValueError):  # vertex reused
        ColoredGraph(g, ((0, 2), (1, 2)))
    with pytest.raises(ValueError):  # empty class
        ColoredGraph(g, ((0, 2), (1,), ()))


def test_complete_graph():
    kt = complete_graph(4)
    assert kt.graph.n == 4
    assert kt.graph.num_edges == 6
    assert kt.classes == ((0,), (1,), (2,), (3,))
    with pytest.raises(ValueError):
        complete_graph(0)


def test_double_k2_by_hand():
    # gluing two copies of a single edge along one endpoint gives a path:
    # shared vertex 0, original leaf 1, and the copy's leaf appended as 2
    k2 = complete_graph(2)
    doubled = double(k2, 0)
    assert doubled.graph.n == 3
    assert doubled.graph.edges == ((0, 1), (0, 2))
    assert doubled.classes == ((0,), (1, 2))


def test_double_validates_class_index():
    with pytest.raises(ValueError):
        double(complete_graph(3), 3)


def test_twice_doubled_edge_is_four_cycle():
    doubled = iterated_double(complete_graph(2), 2)
    assert doubled.graph.n == 4
    assert are_isomorphic(doubled.graph, cycle_graph(4))


def test_doubling_edge_and_vertex_counts():
    # e doubles with every gluing; vertex counts follow the class sizes
    for t in range(2, 7):
        base = complete_graph(t)
        for k in range(0, t + 1):
            g = iterated_double(base, k)
            assert g.graph.num_edges == (1 << k) * t * (t - 1) // 2
    assert iterated_double(complete_graph(4), 3).graph.n == 20
    assert iterated_double(complete_graph(5), 3).graph.n == 28


def test_doubling_order_invariance_small():
    base = complete_graph(3)
    ref = iterated_double(base, 2)
    for perm in permutations(range(2)):
        g = base
        for i in perm:
            g = double(g, i)
        assert are_isomorphic(ref.graph, g.graph)


def test_isomorphism_basics():
    assert are_isomorphic(cycle_graph(5), cycle_graph(5))
    assert not are_isomorphic(cycle_graph(6), Graph(6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 2))))
    # same degree sequence, different structure: two triangles vs 6-cycle
    two_triangles = Graph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)))
    assert not are_isomorphic(cycle_graph(6), two_triangles)


def test_isomorphism_size_cap():
    big = Graph(30)
    with pytest.raises(UnsupportedSizeError):
        are_isomorphic(big, big)
    assert are_isomorphic(big, big, max_vertices=30)


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_isomorphic_under_relabeling(data):
    n = data.draw(st.integers(1, 8))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    picked = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    g = Graph(n, tuple(picked))
    perm = data.draw(st.permutations(range(n)))
    relabeled = Graph(n, tuple((perm[u], perm[v]) for u, v in g.edges))
    assert are_isomorphic(g, relabeled)


def test_graph_round_trip():
    g = Graph(5, ((0, 4), (1, 2)))
    assert Graph.from_dict(g.to_dict()) == g
    cg = complete_graph(3)
    back = ColoredGraph.from_dict(cg.to_dict())
    assert back.graph == cg.graph and back.classes == cg.classes


@pytest.mark.parametrize("data, field", [
    ({"n": 3.9, "edges": [[0, 1]]}, '"n"'),
    ({"n": True, "edges": []}, '"n"'),
    ({"n": "3", "edges": []}, '"n"'),
    ({"n": 3, "edges": [[0, 1.7]]}, '"edges"'),
    ({"n": 3, "edges": [[False, 1]]}, '"edges"'),
])
def test_graph_from_dict_refuses_non_integers(data, field):
    with pytest.raises(ValueError, match=field):
        Graph.from_dict(data)


def test_colored_graph_from_dict_refuses_non_integers():
    data = {"n": 2, "edges": [[0, 1]], "classes": [[0.5], [1.2]]}
    with pytest.raises(ValueError, match='"classes"'):
        ColoredGraph.from_dict(data)


def test_from_dict_accepts_integral_floats():
    g = Graph.from_dict({"n": 3.0, "edges": [[0.0, 2.0]]})
    assert g == Graph(3, ((0, 2),))
    back = ColoredGraph.from_dict({"n": 2, "edges": [[0, 1]],
                                   "classes": [[0.0], [1.0]]})
    assert back.classes == ((0,), (1,))
