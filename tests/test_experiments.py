"""Forcing trials, the adversarial frontier, the probe, and the witness."""

import math
import sys

import numpy as np
import pytest

from quasiforce import (
    StepGraphon,
    UnsupportedSizeError,
    complete_graph,
    constant_graphon,
    contrast_experiment,
    delta_epsilon_probe,
    doubling_density,
    forcing_experiment,
    graphon_density,
    iterated_double,
    non_forcing_witness,
    random_near_constant,
    run_forcing_trial,
)
from quasiforce import density, experiments
from quasiforce.identities import default_doublings
from quasiforce.serialize import dumps


def test_constant_start_is_a_fixed_point():
    tr = run_forcing_trial(3, 0.5, constant_graphon(0.5, 3))
    assert tr.converged
    assert tr.iterations == 0
    assert tr.constancy.l2 == 0.0
    assert abs(tr.r1) < 1e-12 and abs(tr.r2) < 1e-12


def test_experiment_deterministic():
    a = forcing_experiment(3, 0.5, 2, 3, seed=5)
    b = forcing_experiment(3, 0.5, 2, 3, seed=5)
    assert dumps(a.to_dict()) == dumps(b.to_dict())


def test_trials_are_seed_prefix_stable():
    # trial i only depends on seed + i, so shorter runs are prefixes
    long = forcing_experiment(3, 0.5, 2, 4, seed=11)
    short = forcing_experiment(3, 0.5, 2, 2, seed=11)
    for lt, st_ in zip(long.trials, short.trials):
        assert dumps(lt.to_dict()) == dumps(st_.to_dict())


def test_nonconvergent_trials_recorded():
    res = forcing_experiment(3, 0.5, 2, 2, seed=0, tol=1e-13, max_iter=5,
                             spread=0.3)
    assert not res.all_converged
    assert res.converged_trials == ()
    assert res.summary_max_distance is None
    for tr in res.trials:
        assert not tr.converged
        assert tr.iterations <= 5
        assert math.isfinite(tr.r1) and math.isfinite(tr.r2)
    assert res.pareto_distance_at(1.0) is None  # no sweep was run


def test_csv_layout():
    res = forcing_experiment(3, 0.5, 2, 2, seed=3)
    lines = res.csv_text().strip().split("\n")
    assert lines[0] == "trial,r1,r2,linf,l2,cut,oscillation"
    assert len(lines) == 3
    assert lines[1].startswith("0,") and lines[2].startswith("1,")


def test_experiment_validation():
    for bad in (lambda: forcing_experiment(1, 0.5, 2, 1),
                lambda: forcing_experiment(3, 0.5, 0, 1),
                lambda: forcing_experiment(3, 0.5, 2, 0),
                lambda: forcing_experiment(3, 0.0, 2, 1)):
        with pytest.raises(ValueError):
            bad()


def test_trials_capped_before_any_trial(monkeypatch):
    def no_trial(*args, **kwargs):
        raise AssertionError("ran a trial before checking the count")

    monkeypatch.setattr(experiments, "run_forcing_trial", no_trial)
    with pytest.raises(ValueError, match="trials"):
        forcing_experiment(3, 0.5, 2, experiments._MAX_TRIALS + 1)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-6])
def test_tol_validated(tol):
    with pytest.raises(ValueError, match="tol"):
        forcing_experiment(3, 0.5, 2, 1, tol=tol)
    with pytest.raises(ValueError, match="tol"):
        run_forcing_trial(3, 0.5, constant_graphon(0.5, 2), tol=tol)


@pytest.mark.parametrize("p", [0.0, -0.5, 1.5, float("nan")])
def test_p_validated(monkeypatch, p):
    def no_binding(*args, **kwargs):
        raise AssertionError("bound a pair evaluator before checking p")

    monkeypatch.setattr(experiments, "_PairEvaluator", no_binding)
    with pytest.raises(ValueError, match="p must lie"):
        forcing_experiment(3, p, 2, 1)
    with pytest.raises(ValueError, match="p must lie"):
        run_forcing_trial(3, p, constant_graphon(0.5, 2))


def test_underflowing_target_refused(monkeypatch):
    # 1e-5 ** (2^3 * C(5,2)) is 1e-400, which is 0.0 in floats: every trial
    # would read as converged at zero iterations
    def no_binding(*args, **kwargs):
        raise AssertionError("bound a pair evaluator before checking the target")

    monkeypatch.setattr(experiments, "_PairEvaluator", no_binding)
    for call in (lambda: forcing_experiment(5, 1e-5, 3, 2, k=3),
                 lambda: run_forcing_trial(5, 1e-5, constant_graphon(0.5, 3), k=3),
                 lambda: delta_epsilon_probe(5, 1e-5, [0.0], 3, k=3)):
        with pytest.raises(ValueError, match="p=1e-05, t=5, k=3"):
            call()
    # normal targets pass, subnormal ones do not
    tiny = sys.float_info.min
    assert experiments._targets(2, 0, tiny) == (tiny, tiny)
    with pytest.raises(ValueError, match="smallest normal float"):
        experiments._targets(2, 0, tiny / 2)


def test_zero_tol_descends_to_the_cap():
    # tol=0 stops only where the optimizer does and converges only at
    # exactly zero residuals
    res = forcing_experiment(3, 0.5, 2, 1, seed=3, tol=0.0, max_iter=5,
                             spread=0.3)
    (trial,) = res.trials
    assert trial.iterations == 5
    assert trial.converged == (trial.r1 == 0.0 and trial.r2 == 0.0)


def test_descent_runs_one_forward_per_evaluation(monkeypatch):
    """Each evaluation is one forward pass over the base plan and each
    gradient one reverse pass over the accepted point's tape."""
    events, points = [], []
    real_forward, real_reverse = density._forward, density._reverse
    real_descend = experiments._descend

    def forward(*args, **kwargs):
        events.append("forward")
        return real_forward(*args, **kwargs)

    def reverse(*args, **kwargs):
        events.append("reverse")
        return real_reverse(*args, **kwargs)

    def descend(values, evaluate, gradient, max_iter, stop=None):
        def counted_evaluate(v):
            events.append("evaluate")
            points.append(v.tobytes())
            return evaluate(v)

        def counted_gradient(state):
            events.append("gradient")
            return gradient(state)

        out = real_descend(values, counted_evaluate, counted_gradient,
                           max_iter, stop)
        events.append("done")
        return out

    monkeypatch.setattr(density, "_forward", forward)
    monkeypatch.setattr(density, "_reverse", reverse)
    monkeypatch.setattr(experiments, "_descend", descend)
    (trial,) = forcing_experiment(3, 0.5, 4, 1, seed=1).trials
    assert trial.converged and trial.iterations > 10

    done = events.index("done")
    loop, after = events[:done], events[done + 1:]
    calls = {name: loop.count(name) for name in set(loop)}
    assert calls["evaluate"] == calls["forward"]
    assert calls["gradient"] == calls["reverse"] == trial.iterations
    # 1 + line-search tries: the start, then only new candidate points,
    # at least one after each gradient; no point is evaluated twice
    outer = [e for e in loop if e in ("evaluate", "gradient")]
    assert outer[0] == "evaluate"
    assert len(set(points)) == len(points) == calls["evaluate"]
    assert all(b == "evaluate" for a, b in zip(outer, outer[1:]) if a == "gradient")
    # the reported residuals come from the public density functions
    assert after == ["forward", "forward"]


def _pair_evaluator(t, m, seed, budget=density.DEFAULT_BUDGET):
    rng = np.random.default_rng(seed)
    w = rng.random(m) + 0.2
    vals = 0.3 + 0.6 * rng.random((m, m))
    g = StepGraphon(w / w.sum(), (vals + vals.T) / 2)
    k = default_doublings(t)
    targets = experiments._targets(t, k, 0.5)
    ev = experiments._PairEvaluator(complete_graph(t), k, g.weights, targets,
                                    budget)
    return ev, g, k, targets


@pytest.mark.parametrize("t", (3, 4, 5))
@pytest.mark.parametrize("m", (1, 2, 3, 4, 5))
def test_pair_evaluator_residuals(t, m):
    ev, g, k, targets = _pair_evaluator(t, m, 100 * t + m)
    pair = ev(g.values)
    k_t = complete_graph(t)
    assert pair.r1 + targets[0] == pytest.approx(
        graphon_density(k_t.graph, g), rel=1e-12, abs=0.0)
    # the expanded motif's density runs plain elimination, not the gluing
    assert pair.r2 + targets[1] == pytest.approx(
        graphon_density(iterated_double(k_t, k).graph, g), rel=1e-10, abs=0.0)


@pytest.mark.parametrize("t, m", ((3, 1), (3, 3), (4, 2), (5, 2)))
def test_pair_evaluator_gradient(t, m):
    ev, g, k, _ = _pair_evaluator(t, m, 7 * t + m)
    c1, c2 = 0.7, -1.3
    h = 1e-6
    colored = complete_graph(t)

    def combo(values):
        x = StepGraphon(g.weights, values)
        return (c1 * graphon_density(colored.graph, x)
                + c2 * doubling_density(colored, k, x))

    fd = np.zeros((m, m))
    for i in range(m):
        for j in range(i, m):
            up, dn = g.values.copy(), g.values.copy()
            up[i, j] = up[j, i] = up[i, j] + h
            dn[i, j] = dn[j, i] = dn[i, j] - h
            fd[i, j] = fd[j, i] = (combo(up) - combo(dn)) / (2 * h)
    grad = ev.gradient(ev(g.values), c1, c2)
    assert np.abs(grad - fd).max() <= 1e-6 * np.abs(fd).max()


def test_pair_evaluator_budget(monkeypatch):
    t, m = 4, 3

    def binds(budget):
        try:
            _pair_evaluator(t, m, 0, budget)
        except UnsupportedSizeError:
            return False
        return True

    lo, hi = 1, density.DEFAULT_BUDGET  # binds(lo) is False, binds(hi) True
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if binds(mid) else (mid, hi)
    largest = hi
    assert largest == m ** round(np.log(largest) / np.log(m))  # a table size

    sizes = []
    real_einsum = np.einsum

    def einsum(*args, **kwargs):
        out = real_einsum(*args, **kwargs)
        sizes.append(np.size(out))
        return out

    monkeypatch.setattr(np, "einsum", einsum)
    with pytest.raises(UnsupportedSizeError):
        _pair_evaluator(t, m, 0, largest - 1)
    assert sizes == []  # refused at bind time, before any contraction
    ev, g, _, _ = _pair_evaluator(t, m, 0, largest)
    pair = ev(g.values)
    grad = ev.gradient(pair, 1.0, 1.0)
    assert sizes and max(sizes) <= largest
    assert np.isfinite(grad).all()


def test_zero_band_penalty_is_the_squared_residuals():
    # forcing's seeded output depends on these being exact, not close
    ev, g, _, _ = _pair_evaluator(3, 4, 5)
    evaluate, gradient = experiments._penalty(ev)
    residuals = []
    for values in (g.values, 1.0 - g.values):
        pair = ev(values)
        residuals += [pair.r1, pair.r2]
        assert pair.excess((0.0, 0.0)) == (pair.r1, pair.r2)
        f, state = evaluate(values)
        assert f == pair.r1 * pair.r1 + pair.r2 * pair.r2
        assert np.array_equal(gradient(state),
                              ev.gradient(pair, 2 * pair.r1, 2 * pair.r2))
    assert min(residuals) < 0.0 < max(residuals)  # both signs exercised


def _near_solution():
    """A K_3 pair evaluator and a 3-part start whose residuals lie outside
    the band of 1% of the targets."""
    start = random_near_constant(0.5, 3, 0.05, np.random.default_rng(3))
    k = default_doublings(3)
    targets = experiments._targets(3, k, 0.5)
    ev = experiments._PairEvaluator(complete_graph(3), k, start.weights,
                                    targets, density.DEFAULT_BUDGET)
    band = (0.01 * targets[0], 0.01 * targets[1])
    assert min(abs(e) for e in ev(start.values).excess(band)) > 0.0
    return ev, start, k, targets, band


def _public_residuals(weights, values, k, targets):
    x = StepGraphon(weights, values)
    colored = complete_graph(3)
    return (graphon_density(colored.graph, x) - targets[0],
            doubling_density(colored, k, x) - targets[1])


def test_levenberg_polishes_to_the_targets():
    ev, start, k, targets, _ = _near_solution()
    v, pair, done = experiments._levenberg(
        start.values, ev, (0.0, 0.0), experiments._sum_sq, 1e-9, 300)
    assert done
    assert max(abs(pair.r1), abs(pair.r2)) <= 1e-9
    r1, r2 = _public_residuals(start.weights, v, k, targets)
    assert r1 == pytest.approx(pair.r1, abs=1e-15)
    assert r2 == pytest.approx(pair.r2, abs=1e-15)


def test_levenberg_restores_into_the_band():
    ev, start, k, targets, band = _near_solution()
    v, pair, done = experiments._levenberg(
        start.values, ev, band, experiments._worst, 1e-10, 120)
    assert done
    assert ((v >= 0.0) & (v <= 1.0)).all()
    r1, r2 = _public_residuals(start.weights, v, k, targets)
    assert abs(r1) <= band[0] + 1e-10 and abs(r2) <= band[1] + 1e-10


@pytest.mark.parametrize("banded, merit", [(False, "_sum_sq"),
                                           (True, "_worst")])
def test_levenberg_unreachable_tol(banded, merit):
    ev, start, _, _, band = _near_solution()
    band = band if banded else (0.0, 0.0)
    merit = getattr(experiments, merit)
    start_merit = merit(*ev(start.values).excess(band))
    merits = []
    for max_iter in range(6):
        v, pair, done = experiments._levenberg(start.values, ev, band, merit,
                                               -1.0, max_iter)
        assert not done
        assert pair.excess(band) == ev(v).excess(band)
        merits.append(merit(*pair.excess(band)))
    assert merits[0] == start_merit
    assert all(b <= a for a, b in zip(merits, merits[1:]))
    assert merits[-1] < start_merit


def test_adversarial_sweep_points_recheck():
    res = forcing_experiment(3, 0.5, 2, 1, seed=1, adversarial=True,
                             max_iter=1000)
    assert res.pareto
    assert {pt.stage for pt in res.pareto} <= {"penalty", "polished", "band"}
    colored = complete_graph(3)
    t1 = 0.5**3
    t2 = 0.5 ** (2**res.k * 3)
    for pt in res.pareto:
        # recompute both residuals and the distance straight from the
        # stored graphon rather than trusting the sweep's bookkeeping
        r1 = graphon_density(colored.graph, pt.graphon) - t1
        r2 = doubling_density(colored, res.k, pt.graphon) - t2
        assert r1 == pytest.approx(pt.r1, abs=1e-12)
        assert r2 == pytest.approx(pt.r2, abs=1e-12)
        w, v = pt.graphon.weights, pt.graphon.values
        dist = math.sqrt(float(np.einsum("a,b,ab->", w, w, (v - 0.5) ** 2)))
        assert dist == pytest.approx(pt.distance_l2, abs=1e-12)
    assert res.pareto_distance_at(-1.0) is None
    best = res.pareto_distance_at(float("inf"))
    assert best == max(pt.distance_l2 for pt in res.pareto)
    assert "adversarial_distance_at_1e-8" in res.to_dict()["summary"]


def test_probe_monotone_and_sorted():
    table = delta_epsilon_probe(3, 0.5, (1.0, 0.0), 2, seed=2, max_iter=400)
    assert [row.delta for row in table.rows] == [0.0, 1.0]
    d0, d1 = (row.distance for row in table.rows)
    assert d0 <= d1 + 1e-12
    header = table.csv_text().split("\n", 1)[0]
    assert header == "delta,distance,r1,r2"


def test_probe_extra_start_honored():
    witness, _ = non_forcing_witness(0.5)
    table = delta_epsilon_probe(3, 0.5, (1.0,), 2, seed=0,
                                extra_starts=(witness,), max_iter=400)
    # the known far witness is feasible at delta = 1, so the probe must
    # report at least its distance
    assert table.rows[0].distance >= 0.3016136593425802 - 1e-9


def test_probe_validation():
    with pytest.raises(ValueError):
        delta_epsilon_probe(3, 0.5, (-0.1, 1.0), 2)
    with pytest.raises(ValueError):
        delta_epsilon_probe(9, 0.5, (0.0,), 2)
    with pytest.raises(ValueError):
        delta_epsilon_probe(3, 0.5, (0.0,), 0)
    # a nan band admits everything: max(0, |r| - nan) is 0
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="finite"):
            delta_epsilon_probe(3, 0.5, (0.0, bad), 2)


def test_witness_values():
    graphon, b = non_forcing_witness(0.5)
    assert b == pytest.approx(0.7380224240549751, abs=1e-12)
    a = 4 * 0.5 - 2 * b
    assert abs(a**3 + 3 * a * b * b - 8 * 0.5**3) < 1e-12
    assert graphon.values[1, 1] == 0.0
    # closed forms: edge density (a + 2b) / 4, triangle (a^3 + 3ab^2) / 8
    assert (a + 2 * b) / 4 == pytest.approx(0.5, abs=1e-10)
    assert (a**3 + 3 * a * b * b) / 8 == pytest.approx(0.125, abs=1e-10)


def test_witness_out_of_range():
    with pytest.raises(ValueError):
        non_forcing_witness(0.9)
    with pytest.raises(ValueError):
        non_forcing_witness(0.0)
    with pytest.raises(ValueError):
        non_forcing_witness(1.0)


def test_contrast_experiment():
    res = contrast_experiment(0.5)
    assert res.edge_density == pytest.approx(0.5, abs=1e-10)
    assert res.triangle_density == pytest.approx(0.125, abs=1e-10)
    assert res.constancy.linf == pytest.approx(0.5, abs=1e-12)
    d = res.to_dict()
    assert set(d) == {"p", "b", "graphon", "edge_density", "triangle_density",
                      "constancy"}
    dumps(d)  # serializable end to end
