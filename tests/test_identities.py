"""Residual identities for doubled cliques and the inequality chain."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quasiforce import (
    StepGraphon,
    UnsupportedSizeError,
    check_identity,
    complete_graph,
    constant_graphon,
    cs_chain_check,
    cycle_graph,
    default_doublings,
    doubling_density,
    doubling_step_moments,
    graphon_density,
    identity_residual_at,
    iterated_double,
    random_near_constant,
)
from quasiforce import density


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


def test_no_table_mode():
    g = constant_graphon(0.5, 2)
    rep = check_identity(g, 0.5, 3, include_table=False)
    assert rep.per_tuple is None
    assert rep.max_residual <= 1e-12


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
