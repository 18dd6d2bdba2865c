"""Densities, pinned tables, the doubling recursion, and gradients.

Every nontrivial value is checked against an independent brute-force
evaluation (conftest) or a closed form on constant graphons.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tracemalloc

from conftest import (
    brute_graphon_density,
    brute_graphon_density_gradient,
    brute_hom_count,
)
from quasiforce import density
from quasiforce import (
    ColoredGraph,
    Graph,
    StepGraphon,
    UnsupportedSizeError,
    complete_graph,
    constant_graphon,
    cs_chain_check,
    cycle_graph,
    doubling_density,
    doubling_density_gradient,
    doubling_step_moments,
    evaluate_pinned,
    from_graph,
    gnp,
    graphon_density,
    graphon_density_gradient,
    hom_count,
    hom_density,
    iterated_double,
    pinned_density,
    pinned_table,
    random_near_constant,
)


def _random_graph(rng, n, p=0.5):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return Graph(n, tuple(e for e in pairs if rng.random() < p))


def _random_graphon(rng, m):
    vals = rng.random((m, m))
    vals = (vals + vals.T) / 2
    w = rng.random(m) + 0.2
    return StepGraphon(w / w.sum(), vals)


# ---------------------------------------------------------------------------
# hom counts


def test_hom_count_triangle_in_k4():
    k3 = complete_graph(3).graph
    k4 = complete_graph(4).graph
    assert hom_count(k3, k4) == 4 * 3 * 2
    assert hom_count(k3, k4, method="eliminate") == 24


def test_hom_count_against_brute_maps():
    rng = np.random.default_rng(3)
    for _ in range(15):
        motif = _random_graph(rng, int(rng.integers(1, 5)))
        target = _random_graph(rng, int(rng.integers(1, 6)))
        want = brute_hom_count(motif, target)
        assert hom_count(motif, target, method="brute") == want
        assert hom_count(motif, target, method="eliminate") == want


def test_hom_count_edge_cases():
    k3 = complete_graph(3).graph
    assert hom_count(Graph(0), k3) == 1
    assert hom_count(k3, Graph(0)) == 0
    with pytest.raises(ValueError):
        hom_count(k3, k3, method="nope")


def test_hom_count_big_integers():
    # 12 isolated vertices into a 40-vertex target: 40^12 overflows int64
    motif = Graph(12)
    target = complete_graph(40).graph
    assert hom_count(motif, target, method="eliminate") == 40**12
    # the 13-vertex path: every elimination step multiplies edge tables
    path = Graph(13, tuple((i, i + 1) for i in range(12)))
    count = hom_count(path, target, method="eliminate")
    assert type(count) is int
    assert count == 40 * 39**12


def test_brute_motif_cap():
    motif = Graph(13)
    with pytest.raises(UnsupportedSizeError):
        hom_count(motif, complete_graph(3).graph, method="brute")


def test_auto_eliminates_when_the_plan_fits(monkeypatch):
    def no_backtracking(*args):
        raise AssertionError("auto backtracked although elimination fits")

    monkeypatch.setattr(density, "_hom_count_brute", no_backtracking)
    target = gnp(32, 0.5, 0)
    adj = density._adjacency(target, np.int64)
    # hom(C_6, G) is the trace of the sixth power of the adjacency matrix
    want = int(np.trace(np.linalg.matrix_power(adj, 6)))
    assert hom_count(cycle_graph(6), target) == want


def test_auto_falls_back_to_backtracking():
    k4, k6 = complete_graph(4).graph, complete_graph(6).graph
    with pytest.raises(UnsupportedSizeError):
        hom_count(k4, k6, method="eliminate", budget=10)
    assert hom_count(k4, k6, budget=10) == 6 * 5 * 4 * 3
    # past the backtracking cap, auto reports elimination's refusal
    path = Graph(13, tuple((i, i + 1) for i in range(12)))
    with pytest.raises(UnsupportedSizeError, match="budget"):
        hom_count(path, k6, budget=10)


def test_hom_density_normalization():
    k2 = complete_graph(2).graph
    c5 = cycle_graph(5)
    assert hom_density(k2, c5) == 2 * 5 / 25
    with pytest.raises(ValueError):
        hom_density(k2, Graph(0))


# ---------------------------------------------------------------------------
# graphon densities


def test_graphon_density_against_brute():
    rng = np.random.default_rng(5)
    for _ in range(15):
        motif = _random_graph(rng, int(rng.integers(1, 5)))
        g = _random_graphon(rng, int(rng.integers(1, 4)))
        want = brute_graphon_density(motif, g.weights, g.values)
        assert graphon_density(motif, g) == pytest.approx(want, abs=1e-13)


def test_graphon_density_constant_closed_form():
    for t in (2, 3, 4):
        motif = complete_graph(t).graph
        e = t * (t - 1) // 2
        assert graphon_density(motif, constant_graphon(0.5, 3)) == pytest.approx(
            0.5**e, abs=1e-14
        )
    assert graphon_density(Graph(0), constant_graphon(0.3)) == 1.0


def test_graph_and_graphon_routes_agree():
    rng = np.random.default_rng(11)
    for _ in range(10):
        motif = _random_graph(rng, int(rng.integers(1, 5)))
        target = _random_graph(rng, int(rng.integers(1, 7)))
        assert graphon_density(motif, from_graph(target)) == pytest.approx(
            hom_density(motif, target), abs=1e-13
        )


# ---------------------------------------------------------------------------
# pinned densities


def test_pinned_density_fully_pinned_is_edge_product():
    g = StepGraphon(
        np.array([0.5, 0.5]), np.array([[0.2, 0.9], [0.9, 0.4]])
    )
    k3 = complete_graph(3).graph
    val = pinned_density(k3, (0, 1, 2), {0: 0, 1: 1, 2: 0}, g)
    assert val == pytest.approx(0.9 * 0.2 * 0.9, abs=1e-15)


def test_pinned_density_no_pins_matches_density():
    rng = np.random.default_rng(7)
    g = _random_graphon(rng, 3)
    motif = cycle_graph(4)
    assert pinned_density(motif, (), {}, g) == pytest.approx(
        graphon_density(motif, g), abs=1e-13
    )


def test_pinned_table_matches_pinned_density():
    rng = np.random.default_rng(9)
    g = _random_graphon(rng, 3)
    motif = complete_graph(4).graph
    table = pinned_table(motif, (1, 3), g)
    assert table.shape == (3, 3)
    for a in range(3):
        for b in range(3):
            want = pinned_density(motif, (1, 3), {1: a, 3: b}, g)
            assert table[a, b] == pytest.approx(want, abs=1e-13)


def test_pinned_validation():
    g = constant_graphon(0.5, 2)
    k3 = complete_graph(3).graph
    with pytest.raises(ValueError):
        pinned_density(k3, (0, 0), {0: 0}, g)
    with pytest.raises(ValueError):
        pinned_density(k3, (5,), {5: 0}, g)
    with pytest.raises(ValueError):
        pinned_density(k3, (0,), {}, g)
    with pytest.raises(ValueError):
        pinned_density(k3, (0,), {0: 9}, g)


def test_pinned_budget():
    g = constant_graphon(0.5, 3)
    with pytest.raises(UnsupportedSizeError):
        pinned_density(Graph(30), (), {}, g, budget=100)
    with pytest.raises(UnsupportedSizeError):
        pinned_table(complete_graph(5).graph, (0, 1, 2, 3), g, budget=10)


def test_budget_is_checked_on_every_plan_replay():
    # the plan cache is keyed without the budget: a plan compiled under the
    # default budget must still be refused under a smaller one, and a
    # refusal must not stop the next call from running
    g = constant_graphon(0.5, 3)
    k5 = complete_graph(5).graph
    pinned_table(k5, (0, 1, 2, 3), g)
    with pytest.raises(UnsupportedSizeError, match="output table"):
        pinned_table(k5, (0, 1, 2, 3), g, budget=10)
    graphon_density(k5, g)
    with pytest.raises(UnsupportedSizeError, match="intermediate table over 5"):
        graphon_density(k5, g, budget=100)
    assert graphon_density(k5, g) == pytest.approx(0.5**10, abs=1e-15)
    assert pinned_table(k5, (0, 1, 2, 3), g).shape == (3, 3, 3, 3)


def test_plan_cache_hit_is_bitwise_identical():
    rng = np.random.default_rng(31)
    g = _random_graphon(rng, 3)
    motif = cycle_graph(5)
    density._compile_plan.cache_clear()
    first = pinned_table(motif, (2, 0), g)
    misses = density._compile_plan.cache_info().misses
    again = pinned_table(motif, (2, 0), g)
    info = density._compile_plan.cache_info()
    assert info.misses == misses and info.hits >= 1
    assert again.tobytes() == first.tobytes()
    assert again is not first


def test_evaluate_pinned_record():
    g = constant_graphon(0.5, 2)
    rec = evaluate_pinned(complete_graph(3).graph, (0,), {0: 1}, g)
    assert rec.assignment == ((0, 1),)
    # all three edges contribute: two at the pin plus the free-free edge
    assert rec.value == pytest.approx(0.5**3, abs=1e-14)


# ---------------------------------------------------------------------------
# doubling recursion


def test_doubling_density_constant_closed_form():
    g = constant_graphon(0.5, 2)
    for t in (2, 3):
        colored = complete_graph(t)
        e = t * (t - 1) // 2
        for k in range(0, t + 1):
            want = 0.5 ** ((1 << k) * e)
            assert doubling_density(colored, k, g) == pytest.approx(want, abs=1e-14)


def test_doubling_density_equals_direct_density():
    rng = np.random.default_rng(13)
    for t in (2, 3):
        colored = complete_graph(t)
        for k in (0, 1, 2):
            for m in (1, 2, 3):
                g = _random_graphon(rng, m)
                direct = graphon_density(iterated_double(colored, k).graph, g)
                assert doubling_density(colored, k, g) == pytest.approx(
                    direct, abs=1e-12
                )


def test_doubling_density_against_brute():
    rng = np.random.default_rng(17)
    g = _random_graphon(rng, 2)
    doubled = iterated_double(complete_graph(3), 2).graph
    want = brute_graphon_density(doubled, g.weights, g.values)
    assert doubling_density(complete_graph(3), 2, g) == pytest.approx(want, abs=1e-13)


# motifs whose color classes hold several vertices each
_MULTI_CLASS_MOTIFS = {
    "C6": ColoredGraph(cycle_graph(6), ((0, 3), (1, 4), (2, 5))),
    "P4": ColoredGraph(Graph(4, ((0, 1), (1, 2), (2, 3))), ((0, 2), (1, 3))),
    "C4": ColoredGraph(cycle_graph(4), ((0, 2), (1, 3))),
}


@pytest.mark.parametrize("name", sorted(_MULTI_CLASS_MOTIFS))
@pytest.mark.parametrize("m", (1, 2, 3))
def test_doubling_multi_vertex_classes(name, m):
    colored = _MULTI_CLASS_MOTIFS[name]
    rng = np.random.default_rng(37 + m)
    g = _random_graphon(rng, m)
    for k in range(colored.num_classes + 1):
        doubled = iterated_double(colored, k).graph
        want = graphon_density(doubled, g)
        assert doubling_density(colored, k, g) == pytest.approx(want, abs=1e-13)
        if m ** doubled.n <= 3**8:
            brute = brute_graphon_density(doubled, g.weights, g.values)
            assert want == pytest.approx(brute, abs=1e-13)


@pytest.mark.parametrize("name", sorted(_MULTI_CLASS_MOTIFS))
@pytest.mark.parametrize("m", (1, 2, 3))
def test_doubling_gradient_multi_vertex_classes(name, m):
    colored = _MULTI_CLASS_MOTIFS[name]
    rng = np.random.default_rng(41 + m)
    vals = 0.3 + 0.4 * rng.random((m, m))
    w = rng.random(m) + 0.2
    g = StepGraphon(w / w.sum(), (vals + vals.T) / 2)
    for k in range(colored.num_classes + 1):
        value, grad = doubling_density_gradient(colored, k, g)
        assert value == pytest.approx(doubling_density(colored, k, g), abs=1e-13)
        fd = _fd_gradient(lambda x, k=k: doubling_density(colored, k, x), g)
        scale = max(np.abs(fd).max(), 1e-9)
        assert np.abs(grad - fd).max() / scale < 1e-6


def test_doubling_validation():
    with pytest.raises(ValueError):
        doubling_density(complete_graph(3), 4, constant_graphon(0.5))


def test_step_moments_tie_to_chain():
    rng = np.random.default_rng(19)
    colored = complete_graph(3)
    g = _random_graphon(rng, 3)
    for j in (1, 2, 3):
        mean, second, var = doubling_step_moments(colored, j, g)
        assert mean == pytest.approx(doubling_density(colored, j - 1, g), abs=1e-12)
        assert second == pytest.approx(doubling_density(colored, j, g), abs=1e-12)
        assert var >= -1e-15
        assert var == pytest.approx(second - mean**2, abs=1e-12)
    with pytest.raises(ValueError):
        doubling_step_moments(colored, 0, g)


# ---------------------------------------------------------------------------
# the root-weighted recursion on skewed weights


def _skewed_graphons():
    """Dirichlet(0.2) weight draws, which put parts at weights from 5e-12 to
    1 - 5e-12, and a three-part graphon with one part at weight 1e-9: the
    root weights the gluing recursion multiplies in span many orders of
    magnitude."""
    out = []
    for seed in range(900, 906):
        rng = np.random.default_rng(seed)
        m = 2 + seed % 3
        w = rng.dirichlet(np.full(m, 0.2))
        vals = rng.random((m, m))
        out.append(StepGraphon(w / w.sum(), (vals + vals.T) / 2))
    vals = np.array([[0.9, 0.2, 0.7], [0.2, 0.4, 0.6], [0.7, 0.6, 0.1]])
    out.append(StepGraphon(np.array([1e-9, 0.4, 0.6 - 1e-9]), vals))
    return out


_SKEWED_MOTIFS = {"K2": complete_graph(2), "K3": complete_graph(3),
                  "K4": complete_graph(4), **_MULTI_CLASS_MOTIFS}


def _pinned_moments(colored, j, g):
    """Mean, second moment and variance of the density of the
    (j-1)-times-doubled motif pinned on class j-1, straight from the
    definition: its pinned table, weighted by the pinned parts' weights."""
    doubled = iterated_double(colored, j - 1)
    pinned = doubled.classes[j - 1]
    table = pinned_table(doubled.graph, pinned, g)
    d = np.ones(())
    for _ in pinned:
        d = np.multiply.outer(d, g.weights)
    mean = float((d * table).sum())
    return mean, float((d * table**2).sum()), float((d * (table - mean) ** 2).sum())


@pytest.mark.parametrize("name", sorted(_SKEWED_MOTIFS))
def test_skewed_weights_against_expanded_and_brute(name):
    colored = _SKEWED_MOTIFS[name]
    for g in _skewed_graphons():
        m = g.num_parts
        for k in range(colored.num_classes + 1):
            expanded = iterated_double(colored, k).graph
            if expanded.n > 9:
                break
            value = doubling_density(colored, k, g)
            assert value == pytest.approx(graphon_density(expanded, g),
                                          rel=1e-12, abs=0)
            if m ** expanded.n <= 3**8:
                assert value == pytest.approx(
                    brute_graphon_density(expanded, g.weights, g.values),
                    rel=1e-12, abs=0)


@pytest.mark.parametrize("t", (2, 3, 4))
def test_skewed_chain_against_expanded_and_definition(t):
    colored = complete_graph(t)
    for g in _skewed_graphons():
        rec = cs_chain_check(t, t, g)
        for j, d in enumerate(rec.densities):
            expanded = iterated_double(colored, j).graph
            if expanded.n <= 9:
                assert d == pytest.approx(graphon_density(expanded, g),
                                          rel=1e-12, abs=0)
            if g.num_parts ** expanded.n <= 3**8:
                assert d == pytest.approx(
                    brute_graphon_density(expanded, g.weights, g.values),
                    rel=1e-12, abs=0)
        for j in range(1, t + 1):
            mean, second, var = _pinned_moments(colored, j, g)
            got = doubling_step_moments(colored, j, g)
            assert got[0] == pytest.approx(mean, rel=1e-12, abs=0)
            assert got[1] == pytest.approx(second, rel=1e-12, abs=0)
            for v in (got[2], rec.variances[j - 1]):
                assert v == pytest.approx(var, rel=1e-9, abs=1e-15 * second)


@pytest.mark.parametrize("name", sorted(_SKEWED_MOTIFS))
def test_skewed_gradient_against_differences_and_brute(name):
    colored = _SKEWED_MOTIFS[name]
    for g in _skewed_graphons():
        m = g.num_parts
        for k in range(colored.num_classes + 1):
            expanded = iterated_double(colored, k).graph
            if expanded.n > 9:
                break
            value, grad = doubling_density_gradient(colored, k, g)
            assert value == pytest.approx(doubling_density(colored, k, g),
                                          rel=1e-13, abs=0)
            fd = _fd_gradient(lambda x, k=k: doubling_density(colored, k, x), g,
                              h=1e-6)
            assert np.abs(grad - fd).max() <= 1e-6 * np.abs(fd).max()
            if m ** expanded.n <= 3**8:
                # exact, so the entries of a part at weight 1e-9 are checked
                # to full relative precision too
                want = brute_graphon_density_gradient(expanded, g.weights,
                                                      g.values)
                np.testing.assert_allclose(grad, want, rtol=1e-10, atol=0)


def test_doubling_peak_memory_at_m5():
    rng = np.random.default_rng(61)
    g = _random_graphon(rng, 5)
    colored = complete_graph(5)
    doubling_density_gradient(colored, 4, g)  # compile the plan untraced
    peaks = {}
    for name, call in (("gradient", lambda: doubling_density_gradient(colored, 4, g)),
                       ("chain", lambda: cs_chain_check(5, 4, g))):
        tracemalloc.start()
        try:
            call()
            peaks[name] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    # the diagonal-weighted recursion peaked at 18.1 and 15.0 MiB here
    assert peaks["gradient"] < 18.1
    assert peaks["chain"] < 15.0


# ---------------------------------------------------------------------------
# gradients


def _fd_gradient(fun, graphon, h=1e-5):
    m = graphon.num_parts
    out = np.zeros((m, m))
    base_vals = graphon.values
    for i in range(m):
        for j in range(i, m):
            up = base_vals.copy()
            dn = base_vals.copy()
            up[i, j] += h
            up[j, i] = up[i, j]
            dn[i, j] -= h
            dn[j, i] = dn[i, j]
            diff = fun(StepGraphon(graphon.weights, up)) - fun(
                StepGraphon(graphon.weights, dn)
            )
            out[i, j] = out[j, i] = diff / (2 * h)
    return out


@settings(deadline=None, max_examples=15)
@given(seed=st.integers(0, 10_000))
def test_flat_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    motif = _random_graph(rng, int(rng.integers(2, 6)))
    m = int(rng.integers(1, 4))
    vals = 0.2 + 0.6 * rng.random((m, m))
    g = StepGraphon(np.full(m, 1 / m), (vals + vals.T) / 2)
    value, grad = graphon_density_gradient(motif, g)
    assert value == pytest.approx(graphon_density(motif, g), abs=1e-13)
    fd = _fd_gradient(lambda w: graphon_density(motif, w), g)
    scale = max(np.abs(fd).max(), 1e-9)
    assert np.abs(grad - fd).max() / scale < 1e-6


def test_doubling_gradient_matches_finite_differences():
    rng = np.random.default_rng(23)
    colored = complete_graph(3)
    vals = 0.3 + 0.4 * rng.random((3, 3))
    g = StepGraphon(np.full(3, 1 / 3), (vals + vals.T) / 2)
    for k in (1, 2):
        value, grad = doubling_density_gradient(colored, k, g)
        assert value == pytest.approx(doubling_density(colored, k, g), abs=1e-13)
        fd = _fd_gradient(lambda w, k=k: doubling_density(colored, k, w), g)
        scale = max(np.abs(fd).max(), 1e-9)
        assert np.abs(grad - fd).max() / scale < 1e-6


def test_gradient_zero_doublings_matches_flat():
    rng = np.random.default_rng(29)
    # zero doublings glue nothing: the value and gradient are the plain
    # density's, bit for bit
    for t in (2, 3, 4, 5):
        colored = complete_graph(t)
        for m in (1, 2, 3, 4):
            g = _random_graphon(rng, m)
            v1, g1 = doubling_density_gradient(colored, 0, g)
            v2, g2 = graphon_density_gradient(colored.graph, g)
            assert v1 == v2 == doubling_density(colored, 0, g)
            assert v1 == graphon_density(colored.graph, g)
            assert np.array_equal(g1, g2)


@st.composite
def _colored_motifs(draw):
    """Random properly colored motifs: up to 7 vertices in 1-3 classes,
    with any subset of the edges between different classes."""
    n = draw(st.integers(1, 7))
    c = draw(st.integers(1, min(3, n)))
    colors = list(range(c)) + draw(
        st.lists(st.integers(0, c - 1), min_size=n - c, max_size=n - c))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
             if colors[u] != colors[v]]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    classes = tuple(tuple(v for v in range(n) if colors[v] == j) for j in range(c))
    return ColoredGraph(Graph(n, tuple(e for e, y in zip(pairs, keep) if y)), classes)


def _graphon_from_seed(seed, m, lo, hi):
    rng = np.random.default_rng(seed)
    vals = lo + (hi - lo) * rng.random((m, m))
    w = rng.random(m) + 0.2
    return StepGraphon(w / w.sum(), (vals + vals.T) / 2)


@settings(deadline=None, max_examples=20)
@given(colored=_colored_motifs(), m=st.integers(1, 4), seed=st.integers(0, 2**16))
def test_doubling_gradient_on_random_colored_motifs(colored, m, seed):
    # values away from 0 keep the high-degree doubled densities well scaled
    g = _graphon_from_seed(seed, m, 0.6, 0.95)
    budget = 1 << 16  # big classes double into big tables; keep them small
    for k in range(colored.num_classes + 1):
        try:
            value, grad = doubling_density_gradient(colored, k, g, budget=budget)
        except UnsupportedSizeError:
            break  # further doublings only grow the tables
        try:
            expanded = graphon_density(iterated_double(colored, k).graph, g,
                                       budget=budget)
        except UnsupportedSizeError:
            expanded = None  # the expanded motif is too wide to eliminate
        if expanded is not None:
            assert value == pytest.approx(expanded, rel=1e-10, abs=0.0)
        fd = _fd_gradient(
            lambda x, k=k: doubling_density(colored, k, x, budget=budget), g, h=1e-6)
        assert np.abs(grad - fd).max() <= 1e-5 * np.abs(fd).max()


@settings(deadline=None, max_examples=10)
@given(seed=st.integers(0, 2**16), m=st.integers(1, 3))
def test_flat_gradient_matches_brute_oracle(seed, m):
    motif = _random_graph(np.random.default_rng(seed), 6)
    g = _graphon_from_seed(seed, m, 0.0, 1.0)
    value, grad = graphon_density_gradient(motif, g)
    assert value == pytest.approx(
        brute_graphon_density(motif, g.weights, g.values), rel=1e-12, abs=1e-15)
    want = brute_graphon_density_gradient(motif, g.weights, g.values)
    np.testing.assert_allclose(grad, want, rtol=1e-11, atol=1e-15)
