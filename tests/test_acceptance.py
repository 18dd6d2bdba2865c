"""Top-level acceptance checks, one per numbered criterion.

Each test pins a concrete numeric claim about the doubling construction,
the density oracles, the residual identities, the optimization
experiments, or the sampling bridge, together with a wall-clock budget.
"""

import itertools
import math
import time

import numpy as np
import pytest

from quasiforce import (
    Graph,
    StepGraphon,
    are_isomorphic,
    check_identity,
    complete_graph,
    constant_graphon,
    cs_chain_check,
    cycle_graph,
    double,
    doubling_density,
    doubling_density_gradient,
    forcing_experiment,
    from_graph,
    gnp,
    graph_quasirandomness,
    graphon_constancy,
    graphon_density,
    graphon_density_gradient,
    hom_density,
    identity_residual_at,
    iterated_double,
    w_random,
)


def _random_graph(rng, n_max):
    n = int(rng.integers(1, n_max + 1))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.5]
    return Graph(n, tuple(edges))


def _random_graphon(rng, m, lo=0.0, hi=1.0):
    vals = rng.uniform(lo, hi, size=(m, m))
    return StepGraphon(np.full(m, 1.0 / m), (vals + vals.T) / 2)


def _fd_gradient(fn, graphon, h=1e-5):
    m = graphon.num_parts
    out = np.zeros((m, m))
    for a in range(m):
        for b in range(a, m):
            bump = np.zeros((m, m))
            bump[a, b] = bump[b, a] = h
            up = fn(StepGraphon(graphon.weights, graphon.values + bump))
            dn = fn(StepGraphon(graphon.weights, graphon.values - bump))
            out[a, b] = out[b, a] = (up - dn) / (2 * h)
    return out


def test_criterion_01_construction_anchors():
    t0 = time.perf_counter()
    assert complete_graph(4).graph.num_edges == 6
    assert iterated_double(complete_graph(4), 3).graph.num_edges == 48
    assert are_isomorphic(iterated_double(complete_graph(2), 2).graph,
                          cycle_graph(4))
    for t in range(2, 7):
        for k in range(0, t + 1):
            doubled = iterated_double(complete_graph(t), k)
            assert doubled.graph.num_edges == 2**k * math.comb(t, 2)
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_doubling_order_invariance():
    t0 = time.perf_counter()
    for t in range(2, 6):
        for k in range(0, min(3, t) + 1):
            reference = iterated_double(complete_graph(t), k)
            for order in itertools.permutations(range(k)):
                g = complete_graph(t)
                for idx in order:
                    g = double(g, idx)
                assert are_isomorphic(g.graph, reference.graph,
                                      max_vertices=28)
    assert time.perf_counter() - t0 < 10.0


def test_criterion_03_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(200):
        motif = _random_graph(rng, 5)
        target = _random_graph(rng, 8)
        # backtracking, so the graph route shares no code with the
        # graphon route's elimination
        direct = hom_density(motif, target, method="brute")
        lifted = graphon_density(motif, from_graph(target))
        assert abs(direct - lifted) <= 1e-12
    for t in (2, 3):
        for k in (0, 1, 2):
            for m in (1, 2, 3):
                w = _random_graphon(rng, m)
                via_table = doubling_density(complete_graph(t), k, w)
                expanded = iterated_double(complete_graph(t), k).graph
                assert abs(via_table - graphon_density(expanded, w)) <= 1e-10
    assert time.perf_counter() - t0 < 60.0


def test_criterion_04a_identity_zero_on_constants():
    for t, k in ((3, 2), (4, 3), (5, 3), (6, 4)):
        for p in (0.3, 0.5, 0.77, 1.0):
            for parts in (1, 2):
                rep = check_identity(constant_graphon(p, parts), p, t, k=k)
                assert rep.max_residual <= 1e-12


def test_criterion_04b_worked_example_residual_as_stated():
    # Worked by hand with p^binom(3,2) = 0.125: pinning K_3's first two
    # vertices at parts (a, b) gives the clique factor W[a, b] times the
    # conditional rest sum_c w_c W[a, c] W[b, c].
    #   (0, 0): 0.3 * (0.5 * 0.3^2 + 0.5 * 0.7^2) = 0.3 * 0.29 = 0.087,
    #           residual 0.038, the maximum (tied with (1, 1));
    #   (0, 1): 0.7 * (0.5 * 0.3 * 0.7 + 0.5 * 0.7 * 0.3) = 0.7 * 0.21 = 0.147,
    #           residual 0.022, the stated value, which is off the diagonal.
    g = StepGraphon(np.array([0.5, 0.5]), np.array([[0.3, 0.7], [0.7, 0.3]]))
    W, w = g.values, g.weights
    target = 0.5 ** 3
    diagonal = abs(W[0, 0] * (w[0] * W[0, 0] ** 2 + w[1] * W[0, 1] ** 2)
                   - target)
    stated = abs(W[0, 1] * (w[0] * W[0, 0] * W[1, 0]
                            + w[1] * W[0, 1] * W[1, 1]) - target)
    assert diagonal == pytest.approx(0.038, abs=1e-9)
    assert stated == pytest.approx(0.022, abs=1e-9)

    rep = check_identity(g, 0.5, 3, k=2)
    assert rep.per_tuple[0][1] == pytest.approx(stated, abs=1e-9)
    assert identity_residual_at(g, 0.5, 3, 2, (0, 1)) == pytest.approx(
        stated, abs=1e-9)
    assert rep.max_residual == pytest.approx(diagonal, abs=1e-9)
    assert rep.argmax_tuple == (0, 0)
    assert stated < rep.max_residual


def test_worked_example_actual_table():
    # pins the full 2x2 residual table of the worked example: 0.038 on the
    # diagonal and 0.022 off it, with the maximum at the first diagonal tuple
    g = StepGraphon(np.array([0.5, 0.5]), np.array([[0.3, 0.7], [0.7, 0.3]]))
    rep = check_identity(g, 0.5, 3, k=2)
    np.testing.assert_allclose(rep.per_tuple, [[0.038, 0.022], [0.022, 0.038]],
                               rtol=0, atol=1e-9)
    assert rep.max_residual == pytest.approx(0.038, abs=1e-9)
    assert rep.argmax_tuple == (0, 0)


def test_criterion_05_squared_density_chain():
    t0 = time.perf_counter()
    rng = np.random.default_rng(55)
    for _ in range(200):
        m = int(rng.integers(1, 7))
        w = _random_graphon(rng, m)
        for t in (3, 4, 5):
            rec = cs_chain_check(t, (t + 1 + 1) // 2, w)
            for j in range(1, len(rec.densities)):
                assert (rec.densities[j]
                        >= rec.densities[j - 1] ** 2 - 1e-12)
    for p in (0.3, 0.7, 1.0):
        for t in (3, 4, 5):
            rec = cs_chain_check(t, (t + 1 + 1) // 2, constant_graphon(p, 3))
            assert max(abs(s) for s in rec.slacks) <= 1e-12
            assert max(rec.variances) <= 1e-12
    assert time.perf_counter() - t0 < 300.0


def test_criterion_06_forcing_stress():
    t0 = time.perf_counter()
    res = forcing_experiment(3, 0.5, 4, 100, seed=0, tol=1e-6,
                             adversarial=True)
    assert res.k == 2
    conv = res.converged_trials
    assert conv  # the near-constant basin must capture a healthy share
    assert all(tr.constancy.l2 < 0.05 for tr in conv)
    adversarial = res.pareto_distance_at(1e-8)
    assert adversarial is not None
    assert adversarial < 0.02
    assert time.perf_counter() - t0 < 600.0


def test_criterion_07_non_forcing_contrast():
    t0 = time.perf_counter()

    # independent bisection of (2-2b)^3 + 3(2-2b)b^2 = 1 on (0.5, 0.75)
    def f(b):
        return (2 - 2 * b) ** 3 + 3 * (2 - 2 * b) * b * b - 1

    lo, hi = 0.5, 0.75
    assert f(lo) > 0 > f(hi)
    for _ in range(80):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if f(mid) > 0 else (lo, mid)
    b = (lo + hi) / 2
    a = 2 - 2 * b
    w = StepGraphon(np.array([0.5, 0.5]), np.array([[a, b], [b, 0.0]]))
    edge = graphon_density(Graph(2, ((0, 1),)), w)
    triangle = graphon_density(complete_graph(3).graph, w)
    assert abs(edge - 0.5) <= 1e-10
    assert abs(triangle - 0.125) <= 1e-10
    assert graphon_constancy(w, 0.5).linf > 0.1
    assert time.perf_counter() - t0 < 1.0


def test_criterion_08_contrapositive_residuals():
    t0 = time.perf_counter()
    rng = np.random.default_rng(88)
    for t, k in ((3, 2), (4, 3)):
        done = 0
        while done < 500:
            w = _random_graphon(rng, int(rng.integers(2, 5)))
            if graphon_constancy(w, 0.5).linf <= 0.05:
                continue  # essentially constant draw; does not qualify
            rep = check_identity(w, 0.5, t, k=k, include_table=False)
            assert rep.max_residual > 1e-10
            done += 1
    assert time.perf_counter() - t0 < 300.0


def test_criterion_09_gradient_check():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    for case in range(100):
        m = int(rng.integers(1, 5))
        # keep values off the box edges so symmetric bumps stay valid
        w = _random_graphon(rng, m, lo=0.05, hi=0.95)
        if case % 5 < 3:
            motif = _random_graph(rng, 6)
            value, grad = graphon_density_gradient(motif, w)
            fd = _fd_gradient(lambda g: graphon_density(motif, g), w)
            assert abs(value - graphon_density(motif, w)) <= 1e-12
        else:
            t = int(rng.integers(2, 4))
            k = int(rng.integers(1, 3))
            colored = complete_graph(t)
            value, grad = doubling_density_gradient(colored, k, w)
            fd = _fd_gradient(lambda g: doubling_density(colored, k, g), w)
            assert abs(value - doubling_density(colored, k, w)) <= 1e-12
        np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-9)
    assert time.perf_counter() - t0 < 30.0


def test_criterion_10_sampling_bridge():
    t0 = time.perf_counter()
    hits = 0
    for s in range(3):
        g = w_random(constant_graphon(0.5, 1), 400, s)
        hits += graph_quasirandomness(g, 0.5).deviation < 0.01
    assert hits >= 2
    for n, seed in ((8, 0), (12, 1), (16, 2), (20, 3), (22, 4)):
        g = gnp(n, 0.5, seed)
        exact = graph_quasirandomness(g, 0.5, mode="exact")
        heur = graph_quasirandomness(g, 0.5, mode="heuristic", seed=seed)
        assert heur.deviation <= exact.deviation + 1e-12
    assert time.perf_counter() - t0 < 120.0
