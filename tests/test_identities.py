"""Residual identities for doubled cliques and the inequality chain."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quasiforce import (
    Graph,
    SampleSpec,
    StepGraphon,
    UnsupportedSizeError,
    are_isomorphic,
    check_identity,
    complete_graph,
    constant_graphon,
    contrast_experiment,
    cs_chain_check,
    cycle_graph,
    default_doublings,
    delta_epsilon_probe,
    doubling_density,
    doubling_step_moments,
    forcing_experiment,
    gnp,
    graphon_constancy,
    graphon_density,
    graphon_density_gradient,
    hom_count,
    hom_density,
    identity_residual_at,
    run_forcing_trial,
    double,
    doubling_density_gradient,
    evaluate_pinned,
    iterated_double,
    non_forcing_witness,
    pinned_density,
    pinned_table,
    random_near_constant,
    w_random,
)
from quasiforce import density, identities


def test_default_doublings():
    assert [default_doublings(t) for t in range(2, 7)] == [2, 2, 3, 3, 4]


@settings(deadline=None, max_examples=25)
@given(p=st.floats(0.05, 1.0), t=st.integers(3, 4), parts=st.integers(1, 3))
def test_constant_residual_vanishes(p, t, parts):
    rep = check_identity(constant_graphon(p, parts), p, t)
    assert rep.max_residual <= 1e-12


def test_worked_two_part_example():
    g = StepGraphon(np.array([0.5, 0.5]), np.array([[0.3, 0.7], [0.7, 0.3]]))
    rep = check_identity(g, 0.5, 3, k=2)
    tab = np.asarray(rep.per_tuple)
    # hand derivation: the doubled-pair residual for this graphon splits by
    # whether the two pinned parts agree, giving 0.038 on the diagonal and
    # 0.022 off it; the max sits on the diagonal
    np.testing.assert_allclose(tab, [[0.038, 0.022], [0.022, 0.038]], atol=1e-12)
    assert rep.max_residual == pytest.approx(0.038, abs=1e-12)
    assert rep.argmax_tuple == (0, 0)
    assert rep.per_tuple[0][1] == pytest.approx(0.022, abs=1e-12)


def test_residual_at_matches_table():
    g = StepGraphon(np.array([0.25, 0.75]), np.array([[0.6, 0.3], [0.3, 0.8]]))
    rep = check_identity(g, 0.4, 3, k=2)
    for a in range(2):
        for b in range(2):
            # independent single-tuple route built from pinned densities
            val = identity_residual_at(g, 0.4, 3, 2, (a, b))
            assert val == pytest.approx(rep.per_tuple[a][b], abs=1e-10)


def test_residual_at_needs_one_part_per_pinned_vertex():
    for parts in ((0,), (0, 1, 1)):
        with pytest.raises(ValueError, match=f"expected 2 part indices, got {len(parts)}"):
            identity_residual_at(constant_graphon(0.5, 2), 0.5, 3, 2, parts)


def test_records_check_their_fields():
    with pytest.raises(ValueError, match="max_residual must be non-negative"):
        identities.IdentityResidualReport(3, 2, 0.5, -1e-9, (0, 0))
    with pytest.raises(ValueError, match="one part index per pinned vertex"):
        identities.IdentityResidualReport(3, 2, 0.5, 0.0, (0,))
    with pytest.raises(ValueError, match="one density per chain level"):
        identities.ChainRecord(3, 2, (0.125, 0.0156), (0.0, 0.0), (0.0, 0.0))
    for slacks, variances in (((0.0,), (0.0, 0.0)), ((0.0, 0.0), (0.0,))):
        with pytest.raises(ValueError, match="one slack and one variance"):
            identities.ChainRecord(3, 2, (0.125, 0.0156, 2.4e-4), slacks, variances)


def test_nonconstant_residual_positive():
    rng = np.random.default_rng(7)
    g = random_near_constant(0.5, 3, 0.2, rng)
    for t, k in ((3, 2), (5, 3)):
        rep = check_identity(g, 0.5, t, k=k)
        assert rep.max_residual > 1e-10


def test_check_identity_validation():
    g = constant_graphon(0.5, 2)
    with pytest.raises(ValueError):
        check_identity(g, 0.5, 2)
    with pytest.raises(ValueError):
        check_identity(g, 0.5, 7)
    with pytest.raises(ValueError):
        check_identity(g, 0.5, 3, k=4)
    with pytest.raises(ValueError):
        check_identity(g, 0.0, 3)


@pytest.mark.parametrize("p", [math.nan, 2.0, -1.0, 0.0])
def test_bad_p_refused_by_both_identity_routes(p):
    g = constant_graphon(0.5, 2)
    with pytest.raises(ValueError, match=r"p must lie in \(0, 1\]"):
        check_identity(g, p, 3)
    with pytest.raises(ValueError, match=r"p must lie in \(0, 1\]"):
        identity_residual_at(g, p, 3, 2, (0, 1))


_G = constant_graphon(0.5, 2)
_K3 = complete_graph(3)


@pytest.mark.parametrize("name, call", [
    ("k", lambda: check_identity(_G, 0.5, 3, k=1.5)),
    ("k", lambda: check_identity(_G, 0.5, 3, k=True)),
    ("t", lambda: check_identity(_G, 0.5, 3.0)),
    ("k", lambda: cs_chain_check(4, 2.0, _G)),
    ("k", lambda: cs_chain_check(4, True, _G)),
    ("t", lambda: cs_chain_check(3.5, 2, _G)),
    ("k", lambda: identity_residual_at(_G, 0.5, 3, 2.0, (0, 1))),
    ("assigned part", lambda: identity_residual_at(_G, 0.5, 3, 2, (0, 1.0))),
    ("j", lambda: doubling_step_moments(_K3, 1.5, _G)),
    ("j", lambda: doubling_step_moments(_K3, True, _G)),
    ("k", lambda: doubling_density(_K3, 1.5, _G)),
    ("k", lambda: doubling_density(_K3, True, _G)),
    ("k", lambda: doubling_density_gradient(_K3, 2.0, _G)),
    ("k", lambda: iterated_double(_K3, 1.5)),
    ("class_index", lambda: double(_K3, 1.0)),
    ("t", lambda: complete_graph(3.0)),
    ("n", lambda: cycle_graph(4.0)),
    ("parts", lambda: constant_graphon(0.5, 2.0)),
    ("parts", lambda: constant_graphon(0.5, True)),
    ("parts", lambda: random_near_constant(0.5, 1.5, 0.1, np.random.default_rng(0))),
    ("pinned vertex", lambda: pinned_table(_K3.graph, (0.5, 1), _G)),
    ("pinned vertex", lambda: pinned_density(_K3.graph, (True,), {1: 0}, _G)),
    ("assigned part", lambda: pinned_density(_K3.graph, (1,), {1: 1.7}, _G)),
    ("pinned vertex", lambda: evaluate_pinned(_K3.graph, (0.5,), {0: 0}, _G)),
    ("assigned part", lambda: evaluate_pinned(_K3.graph, (1,), {1: 1.7}, _G)),
    ("t", lambda: default_doublings(3.5)),
    ("t", lambda: default_doublings(True)),
    ("max_vertices", lambda: are_isomorphic(Graph(2), Graph(2), True)),
    ("max_vertices", lambda: are_isomorphic(Graph(2), Graph(2), 4.5)),
    ("max_vertices", lambda: are_isomorphic(Graph(2), Graph(2), -1)),
    ("max_vertices", lambda: are_isomorphic(Graph(2), Graph(2), "9")),
    ("m", lambda: forcing_experiment(3, 0.5, 1.5, 1)),
], ids=lambda x: x if isinstance(x, str) else "")
def test_sizes_refused_by_name(name, call):
    # sizes, doublings, pinned vertices and parts are integers, never
    # truncated or read as bools; checked before any range check
    with pytest.raises(ValueError, match=f"^{name} must be a non-negative integer"):
        call()


@pytest.mark.parametrize("call", [
    lambda: gnp(5.5, 0.5, 0),
    lambda: gnp(True, 0.5, 0),
    lambda: w_random(_G, 4.0, 0),
    lambda: SampleSpec(4.0, 0.5, 0),
])
def test_sample_sizes_refused_by_name(call):
    # sampled graph sizes go through the same integer check as above
    with pytest.raises(ValueError, match="^n must be a non-negative integer"):
        call()


@pytest.mark.parametrize("message, call", [
    (r"n must lie in \[1, 10000\]; got 0", lambda: gnp(0, 0.5, 0)),
    (r"n must lie in \[1, 10000\]; got 10001", lambda: SampleSpec(10001, 0.5, 0)),
    (r"n must be at least 3; got 2", lambda: cycle_graph(2)),
    (r"t must be at least 1; got 0", lambda: complete_graph(0)),
    (r"t must be at least 2; got 1", lambda: cs_chain_check(1, 0, _G)),
    (r"class_index must lie in \[0, 2\]; got 3", lambda: double(_K3, 3)),
    (r"k must lie in \[0, 3\]; got 4", lambda: iterated_double(_K3, 4)),
    (r"k must lie in \[0, 3\]; got 4", lambda: doubling_density(_K3, 4, _G)),
    (r"k must lie in \[1, 3\]; got 4", lambda: forcing_experiment(3, 0.5, 2, 1, k=4)),
    (r"j must lie in \[1, 3\]; got 0", lambda: doubling_step_moments(_K3, 0, _G)),
    (r"pinned vertex must lie in \[0, 2\]; got 3", lambda: pinned_table(_K3.graph, (3,), _G)),
    (r"assigned part must lie in \[0, 1\]; got 2",
     lambda: pinned_density(_K3.graph, (0,), {0: 2}, _G)),
    (r"p must lie in \(0, 1\); got 1.0", lambda: non_forcing_witness(1.0)),
    (r"p must lie in \[0, 1\]; got nan", lambda: graphon_constancy(_G, float("nan"))),
    (r"source must lie in \[0, 1\]; got 1.5", lambda: SampleSpec(5, 1.5, 0)),
], ids=lambda x: x if isinstance(x, str) else "")
def test_ranges_refused_by_name(message, call):
    # one form for every range: the argument's name, its interval, the value
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


_BUDGET_CALLS = {
    "hom_count": lambda b: hom_count(_K3.graph, _K3.graph, budget=b),
    "hom_density": lambda b: hom_density(_K3.graph, _K3.graph, budget=b),
    "graphon_density": lambda b: graphon_density(_K3.graph, _G, budget=b),
    "pinned_density": lambda b: pinned_density(_K3.graph, (0,), {0: 0}, _G, budget=b),
    "pinned_table": lambda b: pinned_table(_K3.graph, (0,), _G, budget=b),
    "evaluate_pinned": lambda b: evaluate_pinned(_K3.graph, (0,), {0: 0}, _G, budget=b),
    "doubling_density": lambda b: doubling_density(_K3, 1, _G, budget=b),
    "doubling_step_moments": lambda b: doubling_step_moments(_K3, 1, _G, budget=b),
    "graphon_density_gradient": lambda b: graphon_density_gradient(_K3.graph, _G, budget=b),
    "doubling_density_gradient": lambda b: doubling_density_gradient(_K3, 1, _G, budget=b),
    "check_identity": lambda b: check_identity(_G, 0.5, 3, budget=b),
    "identity_residual_at": lambda b: identity_residual_at(_G, 0.5, 3, 2, (0, 1), budget=b),
    "cs_chain_check": lambda b: cs_chain_check(3, 2, _G, budget=b),
    "run_forcing_trial": lambda b: run_forcing_trial(3, 0.5, _G, budget=b),
    "forcing_experiment": lambda b: forcing_experiment(3, 0.5, 2, 1, budget=b),
    "delta_epsilon_probe": lambda b: delta_epsilon_probe(3, 0.5, [0.0], 2, budget=b),
    "contrast_experiment": lambda b: contrast_experiment(0.5, budget=b),
}


@pytest.mark.parametrize("budget", [True, 0, -1, 2.5, 16.0])
@pytest.mark.parametrize("name", sorted(_BUDGET_CALLS))
def test_budget_refused_by_name(name, budget):
    # a budget is a positive integer: True is not read as one entry, and
    # neither a fraction nor a count below 1 reaches a size check
    with pytest.raises(ValueError, match="^budget must be a positive integer"):
        _BUDGET_CALLS[name](budget)


def test_no_table_mode():
    g = constant_graphon(0.5, 2)
    rep = check_identity(g, 0.5, 3, include_table=False)
    assert rep.per_tuple is None
    assert rep.max_residual <= 1e-12


def _clique_times_rest(g, t, k):
    """The pinned K_t table as two factors: the values of the pinned pairs
    times the pinned table of the rest motif, K_t without those pairs."""
    m = g.num_parts
    rest = Graph(t, [(i, j) for i in range(t) for j in range(i + 1, t) if j >= k])
    clique = np.ones((m,) * k)
    for i in range(k):
        for j in range(i + 1, k):
            shape = [1] * k
            shape[i] = shape[j] = m
            clique = clique * g.values.reshape(shape)
    return clique * density.pinned_table(rest, tuple(range(k)), g)


def test_table_matches_clique_times_rest():
    rng = np.random.default_rng(61)
    for t in range(3, 7):
        target = 0.5 ** (t * (t - 1) // 2)
        for k in range(1, t + 1):
            for m in range(1, 5):
                w = rng.dirichlet(np.full(m, 0.2))
                vals = rng.random((m, m))
                g = StepGraphon(w / w.sum(), (vals + vals.T) / 2)
                table = _clique_times_rest(g, t, k)
                got = check_identity(g, 0.5, t, k=k).per_tuple
                # relative to the larger side of each residual's subtraction
                err = np.abs(got - np.abs(table - target))
                assert np.all(err <= 1e-12 * np.maximum(table, target))


def test_identity_refuses_over_budget_before_contracting(monkeypatch):
    ran = []
    real_einsum = np.einsum

    def einsum(*args, **kwargs):
        ran.append(args[0])
        return real_einsum(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", einsum)
    g = _random_graphon(np.random.default_rng(59), 3)
    # 3^4 = 81 pinned tuples
    with pytest.raises(UnsupportedSizeError):
        check_identity(g, 0.5, 5, k=4, budget=80)
    assert ran == []
    check_identity(g, 0.5, 5, k=4)
    assert ran


def _exact_pinned_clique(g, t, parts):
    """The pinned K_t density in exact rational arithmetic."""
    vals = [[Fraction(x) for x in row] for row in g.values.tolist()]
    w = [Fraction(x) for x in g.weights.tolist()]
    total = Fraction(0)
    for free in itertools.product(range(g.num_parts), repeat=t - len(parts)):
        xs = tuple(parts) + free
        total += math.prod(w[x] for x in free) * math.prod(
            vals[xs[i]][xs[j]] for i, j in itertools.combinations(range(t), 2))
    return total


def test_argmax_is_the_smallest_non_decreasing_tuple():
    # (1, 0, 1) and (0, 1, 1) tie in exact arithmetic, but the table rounds
    # the first one ulp higher; the tie resolves by symmetry, not rounding
    g = StepGraphon(np.array([0.5, 0.5]), np.array([[0.3, 0.9], [0.9, 0.6]]))
    target = Fraction(1, 2**10)
    exact = {xs: abs(_exact_pinned_clique(g, 5, xs) - target)
             for xs in itertools.product(range(2), repeat=3)}
    assert exact[(1, 0, 1)] == exact[(0, 1, 1)] == max(exact.values())
    rep = check_identity(g, 0.5, 5, k=3)
    assert rep.argmax_tuple == (0, 1, 1)
    assert rep.max_residual == rep.per_tuple[rep.argmax_tuple]


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**16), m=st.integers(2, 6), t=st.integers(3, 5))
def test_argmax_tuple_non_decreasing(seed, m, t):
    rep = check_identity(_random_graphon(np.random.default_rng(seed), m), 0.5, t)
    assert list(rep.argmax_tuple) == sorted(rep.argmax_tuple)
    assert rep.max_residual == rep.per_tuple[rep.argmax_tuple]
    assert rep.max_residual == pytest.approx(rep.per_tuple.max(), rel=1e-12)


# ---------------------------------------------------------------------------
# squared-moment inequality chain


def test_chain_constant_closed_form():
    p = 0.7
    rec = cs_chain_check(4, 3, constant_graphon(p, 1))
    e1 = 6  # clique on 4 vertices
    for j, d in enumerate(rec.densities):
        assert d == pytest.approx(p ** ((2**j) * e1), rel=1e-12)
    assert max(abs(s) for s in rec.slacks) <= 1e-12
    assert max(rec.variances) <= 1e-12


def test_chain_slack_equals_variance():
    rng = np.random.default_rng(11)
    g = random_near_constant(0.4, 3, 0.25, rng)
    rec = cs_chain_check(3, 2, g)
    assert len(rec.densities) == 3
    assert len(rec.slacks) == len(rec.variances) == 2
    for s, v in zip(rec.slacks, rec.variances):
        assert s >= -1e-12
        # each doubling step overshoots the squared density by exactly the
        # variance of the pinned one-step table
        assert s == pytest.approx(v, abs=1e-10)


def test_chain_edge_doubles_to_four_cycle():
    rng = np.random.default_rng(13)
    g = random_near_constant(0.6, 2, 0.2, rng)
    rec = cs_chain_check(2, 2, g)
    # doubling both endpoints of an edge yields the four-cycle
    assert rec.densities[2] == pytest.approx(
        graphon_density(cycle_graph(4), g), rel=1e-12
    )


def test_chain_validation():
    g = constant_graphon(0.5, 1)
    with pytest.raises(ValueError):
        cs_chain_check(1, 0, g)
    with pytest.raises(ValueError):
        cs_chain_check(3, -1, g)
    with pytest.raises(ValueError):
        cs_chain_check(3, 4, g)


def _random_graphon(rng, m):
    vals = rng.random((m, m))
    w = rng.random(m) + 0.2
    return StepGraphon(w / w.sum(), (vals + vals.T) / 2)


def test_chain_matches_the_per_level_queries():
    rng = np.random.default_rng(43)
    for t in (2, 3, 4, 5):
        colored = complete_graph(t)
        for m in (1, 2, 3, 4):
            g = _random_graphon(rng, m)
            for k in range(t + 1):
                try:
                    rec = cs_chain_check(t, k, g)
                except UnsupportedSizeError:
                    # the chain refuses exactly what the deepest query does
                    with pytest.raises(UnsupportedSizeError):
                        doubling_density(colored, k, g)
                    continue
                for j, d in enumerate(rec.densities):
                    assert d == pytest.approx(
                        doubling_density(colored, j, g), rel=1e-13, abs=0)
                    expanded = iterated_double(colored, j).graph
                    if expanded.n <= 9:
                        assert d == pytest.approx(
                            graphon_density(expanded, g), rel=1e-12, abs=0)
                for j in range(1, k + 1):
                    _, _, var = doubling_step_moments(colored, j, g)
                    assert rec.variances[j - 1] == pytest.approx(
                        var, rel=0, abs=1e-13 * rec.densities[j])


def test_chain_runs_one_forward(monkeypatch):
    forwards = []
    real_forward = density._Doubling.forward

    def forward(self, *args, **kwargs):
        forwards.append(len(self.levels))
        return real_forward(self, *args, **kwargs)

    monkeypatch.setattr(density._Doubling, "forward", forward)
    g = _random_graphon(np.random.default_rng(47), 3)
    for k in range(5):
        forwards.clear()
        cs_chain_check(4, k, g)
        assert forwards == [k]


def test_chain_refuses_over_budget_before_contracting(monkeypatch):
    ran = []
    real_einsum = np.einsum

    def einsum(*args, **kwargs):
        ran.append(args[0])
        return real_einsum(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", einsum)
    g = _random_graphon(np.random.default_rng(53), 3)
    # levels 0..3 fit the default budget; the last level's tables do not
    with pytest.raises(UnsupportedSizeError):
        cs_chain_check(5, 5, g)
    assert ran == []
    cs_chain_check(5, 4, g)
    assert ran
