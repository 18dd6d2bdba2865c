"""Forcing trials, the adversarial frontier, the probe, and the witness."""

import math
import re
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
    graphon_constancy,
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


@pytest.mark.parametrize("max_iter", [-1, 2.5, True, False, 3.0, "5", None])
def test_max_iter_validated(monkeypatch, max_iter):
    def no_binding(*args, **kwargs):
        raise AssertionError("bound a pair evaluator before checking max_iter")

    monkeypatch.setattr(experiments, "_PairEvaluator", no_binding)
    for call in (lambda: forcing_experiment(3, 0.5, 4, 2, max_iter=max_iter),
                 lambda: run_forcing_trial(3, 0.5, constant_graphon(0.5, 2),
                                           max_iter=max_iter),
                 lambda: delta_epsilon_probe(3, 0.5, (0.0,), 2,
                                             max_iter=max_iter)):
        with pytest.raises(ValueError, match="max_iter"):
            call()


@pytest.mark.parametrize("seed", [-1, np.int64(-3), 2.5, True, "5", None])
def test_seed_validated_before_any_work(monkeypatch, seed):
    def no_binding(*args, **kwargs):
        raise AssertionError("bound a pair evaluator before checking seed")

    monkeypatch.setattr(experiments, "_PairEvaluator", no_binding)
    monkeypatch.setattr(experiments, "run_forcing_trial", no_binding)
    for call in (lambda: forcing_experiment(3, 0.5, 2, 2, seed=seed),
                 lambda: forcing_experiment(3, 0.5, 2, 2, seed=seed,
                                            adversarial=True),
                 lambda: delta_epsilon_probe(3, 0.5, (0.0,), 2, seed=seed),
                 lambda: run_forcing_trial(3, 0.5, constant_graphon(0.5, 2),
                                           seed=seed)):
        with pytest.raises(ValueError, match="seed"):
            call()


@pytest.mark.parametrize("name, call", [
    ("k", lambda: forcing_experiment(3, 0.5, 2, 1, k=-1)),
    ("k", lambda: forcing_experiment(3, 0.5, 2, 1, k=1.5)),
    ("k", lambda: forcing_experiment(3, 0.5, 2, 1, k=True)),
    ("k", lambda: forcing_experiment(3, 0.5, 2, 1, k=0)),
    ("k", lambda: forcing_experiment(3, 0.5, 2, 1, k=4)),
    ("t", lambda: forcing_experiment(3.5, 0.5, 2, 1)),
    ("m", lambda: forcing_experiment(3, 0.5, 2.5, 1)),
    ("trials", lambda: forcing_experiment(3, 0.5, 2, 1.5)),
    ("trials", lambda: forcing_experiment(3, 0.5, 2, True)),
    ("t", lambda: run_forcing_trial(3.0, 0.5, constant_graphon(0.5, 2))),
    ("k", lambda: run_forcing_trial(3, 0.5, constant_graphon(0.5, 2), k=2.0)),
    ("m", lambda: delta_epsilon_probe(3, 0.5, (0.0,), 2.0)),
    ("k", lambda: delta_epsilon_probe(3, 0.5, (0.0,), 2, k=5)),
], ids=lambda x: x if isinstance(x, str) else "")
def test_sizes_refused_by_name(monkeypatch, name, call):
    # t, m, k and trials are integers in their ranges, k in [1, t] as the
    # CLI's --k and the t color classes allow, checked before any binding
    def no_binding(*args, **kwargs):
        raise AssertionError(f"bound a pair evaluator before checking {name}")

    monkeypatch.setattr(experiments, "_PairEvaluator", no_binding)
    monkeypatch.setattr(experiments, "run_forcing_trial", no_binding)
    with pytest.raises(ValueError, match=f"^{name} must"):
        call()


def test_max_iter_accepts_numpy_integers():
    tr = run_forcing_trial(3, 0.5, constant_graphon(0.5, 2),
                           max_iter=np.int64(0))
    assert tr.converged and tr.iterations == 0


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


@pytest.mark.parametrize("spread", [float("inf"), float("nan"), -0.05, 1e308])
def test_spread_validated(spread):
    with pytest.raises(ValueError, match="spread"):
        forcing_experiment(3, 0.5, 2, 1, spread=spread)


@pytest.mark.parametrize("t", [1, 6])
def test_trial_refuses_what_the_experiment_refuses(monkeypatch, t):
    def no_binding(*args, **kwargs):
        raise AssertionError("bound a pair evaluator before checking t")

    monkeypatch.setattr(experiments, "_PairEvaluator", no_binding)
    for call in (lambda: forcing_experiment(t, 0.5, 2, 1),
                 lambda: run_forcing_trial(t, 0.5, constant_graphon(0.5, 2))):
        with pytest.raises(ValueError, match=f"t must lie in \\[2, 5\\]; got {t}"):
            call()


@pytest.mark.parametrize("call", [
    lambda: forcing_experiment(3, 0.5, 0, 1),
    lambda: forcing_experiment(3, 0.5, 9, 1),
    lambda: run_forcing_trial(3, 0.5, constant_graphon(0.5, 9)),
], ids=["experiment m=0", "experiment m=9", "trial m=9"])
def test_part_count_range_refused_as_m(monkeypatch, call):
    # the range failure names the part count as its type failure does
    def no_binding(*args, **kwargs):
        raise AssertionError("bound a pair evaluator before checking m")

    monkeypatch.setattr(experiments, "_PairEvaluator", no_binding)
    with pytest.raises(ValueError, match=r"^m must lie in \[1, 8\]; got (0|9)$"):
        call()


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


def test_zero_tol_runs_to_the_cap():
    # tol=0 stops only where the optimizer does and converges only at
    # exactly zero residuals
    res = forcing_experiment(3, 0.5, 2, 1, seed=3, tol=0.0, max_iter=5,
                             spread=0.3)
    (trial,) = res.trials
    assert trial.iterations == 5
    assert trial.converged == (trial.r1 == 0.0 and trial.r2 == 0.0)


def test_forcing_trial_runs_one_forward_per_evaluation(monkeypatch):
    """Each evaluation of a forcing trial is one forward pass over the base
    plan and each Levenberg step one Jacobian, one reverse pass over the
    tape of the point it steps from.  No forward pass runs after the solver
    stops: the trial reports the residuals of the pair it stopped on."""
    events, points, pairs, solved = [], [], [], []
    real_forward, real_reverse = density._forward, density._reverse
    evaluator = experiments._PairEvaluator
    real_call, real_jacobian = evaluator.__call__, evaluator.jacobian
    real_solve = experiments._solve

    def forward(*args, **kwargs):
        events.append("forward")
        return real_forward(*args, **kwargs)

    def reverse(*args, **kwargs):
        events.append("reverse")
        return real_reverse(*args, **kwargs)

    def call(self, values):
        events.append("evaluate")
        points.append(values.tobytes())
        pairs.append(real_call(self, values))
        return pairs[-1]

    def jacobian(self, pair):
        events.append("jacobian")
        # a step starts from the start or from the candidate it just
        # accepted, which is always the latest point evaluated
        assert pair is pairs[-1]
        return real_jacobian(self, pair)

    def solve(*args):
        solved.append(real_solve(*args))
        events.append("solved")
        return solved[-1]

    monkeypatch.setattr(density, "_forward", forward)
    monkeypatch.setattr(density, "_reverse", reverse)
    monkeypatch.setattr(evaluator, "__call__", call)
    monkeypatch.setattr(evaluator, "jacobian", jacobian)
    monkeypatch.setattr(experiments, "_solve", solve)
    (trial,) = forcing_experiment(3, 0.5, 4, 1, seed=1).trials
    assert trial.converged and trial.stop_reason == "tol"
    assert trial.iterations > 2

    done = events.index("solved")
    loop, after = events[:done], events[done + 1:]
    calls = {name: loop.count(name) for name in set(loop)}
    assert calls["evaluate"] == calls["forward"]
    assert calls["jacobian"] == trial.iterations
    assert calls["reverse"] == trial.iterations
    assert all(b == "forward" for a, b in zip(loop, loop[1:]) if a == "evaluate")
    assert all(b == "reverse" for a, b in zip(loop, loop[1:]) if a == "jacobian")
    # the start, then each step's Jacobian followed by only new candidate
    # points, at least one; no point is evaluated twice
    outer = "".join(e[0] for e in loop if e in ("evaluate", "jacobian"))
    assert re.fullmatch(r"e(je+)*", outer)
    assert len(set(points)) == len(points) == calls["evaluate"]
    # a trial that stops on tol stops on the candidate it just accepted,
    # the latest point evaluated, and reports that pair's residuals
    assert after == []
    (_, pair, _, _), = solved
    assert pair is pairs[-1]
    assert (trial.r1, trial.r2) == (pair.r1, pair.r2)


def test_stop_reasons_are_reachable():
    cases = {
        # a start on the targets needs no step
        "tol": lambda: run_forcing_trial(3, 0.5, constant_graphon(0.5, 3)),
        # on the zero graphon both gradients vanish, so no damping helps
        "no_step": lambda: run_forcing_trial(3, 0.5, constant_graphon(0.0, 3)),
        # no finite decay rate reaches tol = 0
        "slow": lambda: forcing_experiment(3, 0.5, 4, 1, seed=2,
                                           tol=0.0).trials[0],
        "cap": lambda: forcing_experiment(3, 0.5, 2, 1, seed=0, tol=1e-13,
                                          max_iter=5, spread=0.3).trials[0],
    }
    for reason, trial in cases.items():
        tr = trial()
        assert tr.stop_reason == reason
        assert tr.to_dict()["stop_reason"] == reason
        assert tr.converged == (reason == "tol")
    assert cases["cap"]().iterations == 5


def test_constant_starts_above_p_escape_the_box_corner():
    # the first nearly undamped steps from these starts clip onto the
    # block-identity graphon, a 0/1 saddle where both gradients vanish in
    # the off-diagonal entries; a step onto a corner that does not meet
    # tol is refused, so each trial converges instead of stopping there
    t1, t2 = experiments._targets(3, 2, 0.5)
    for c in (0.8, 0.9, 1.0):
        tr = run_forcing_trial(3, 0.5, constant_graphon(c, 3))
        assert tr.converged and tr.stop_reason == "tol"
        v = tr.graphon.values
        assert not np.all((v == 0.0) | (v == 1.0))
        r1 = graphon_density(complete_graph(3).graph, tr.graphon) - t1
        r2 = graphon_density(iterated_double(complete_graph(3), 2).graph,
                             tr.graphon) - t2
        assert max(abs(r1), abs(r2)) <= 1e-6


def test_face_start_keeps_its_recorded_trajectory():
    # two parts from c = 0.9 and 1.0: the off-diagonal entry reaches 0, so
    # every later step builds the box mask; the values were recorded with
    # the mask built at every step
    for c, steps, diagonal in ((0.9, 7, 0.7936924546630494),
                               (1.0, 8, 0.7936924546387469)):
        tr = run_forcing_trial(3, 0.5, constant_graphon(c, 2))
        assert tr.stop_reason == "no_step" and not tr.converged
        assert tr.iterations == steps
        v = tr.graphon.values
        assert v[0, 1] == v[1, 0] == 0.0
        np.testing.assert_allclose(np.diag(v), diagonal, rtol=0, atol=1e-12)
    # three parts from the same starts: here the mask drops coordinates
    # pinned at 1 on the way, and the trials converge
    for c, want in ((0.9, [0.6745439068743122, 0.4100717930614946,
                           0.40988802580775824, 0.6749320805466332,
                           0.40944881136196315, 0.6750945261025616]),
                    (1.0, [0.6748603852912592, 0.40980100404615977,
                           0.409800930467482, 0.6748605153278845,
                           0.4098007833447989, 0.6748605803615247])):
        tr = run_forcing_trial(3, 0.5, constant_graphon(c, 3))
        assert tr.stop_reason == "tol" and tr.iterations == 188
        np.testing.assert_allclose(tr.graphon.values[np.triu_indices(3)], want,
                                   rtol=0, atol=1e-12)


def test_interior_pool_keeps_its_recorded_step_counts():
    # the benchmark's forcing pool never touches a face of the box, so no
    # step builds the box mask; the counts were recorded with the mask
    # built at every step
    trials = forcing_experiment(3, 0.5, 4, 20, seed=0).trials
    assert [tr.iterations for tr in trials] == [
        6, 7, 8, 5, 5, 5, 4, 5, 4, 7, 6, 8, 7, 6, 7, 5, 5, 6, 5, 5]
    assert all(tr.stop_reason == "tol" for tr in trials)


def test_corner_step_taken_when_it_meets_tol():
    # at p = 1 the solution is the all-ones corner, so the rule must not
    # refuse the step onto it
    for c in (0.5, 0.9):
        tr = run_forcing_trial(3, 1.0, constant_graphon(c, 3))
        assert tr.converged and tr.iterations <= 2
        assert np.all(tr.graphon.values == 1.0)


def test_zero_tol_stops_when_progress_stalls():
    # tol = 0 is out of reach, so the stall stop ends each trial long
    # before the step cap, without changing the convergence rule
    res = forcing_experiment(3, 0.5, 4, 3, tol=0.0)
    for tr in res.trials:
        assert tr.stop_reason != "cap"
        assert tr.iterations < experiments._MAX_ITER // 100
        assert tr.converged == (tr.r1 == 0.0 and tr.r2 == 0.0)


def test_every_forcing_trial_converges_and_rechecks():
    res = forcing_experiment(3, 0.5, 4, 20, seed=0)
    assert res.all_converged
    k_3 = complete_graph(3)
    doubled = iterated_double(k_3, res.k).graph
    t1, t2 = experiments._targets(3, res.k, 0.5)
    for tr in res.trials:
        assert tr.stop_reason == "tol"
        # the doubled density through plain elimination on the expanded
        # motif, not through the gluing recursion the trial ran on
        r1 = graphon_density(k_3.graph, tr.graphon) - t1
        r2 = graphon_density(doubled, tr.graphon) - t2
        assert max(abs(r1), abs(r2)) <= res.tol
        assert r1 == pytest.approx(tr.r1, abs=1e-15)
        assert r2 == pytest.approx(tr.r2, abs=1e-15)


@pytest.mark.parametrize("t", (3, 4, 5))
@pytest.mark.parametrize("m", (2, 3, 4, 5))
def test_trials_report_the_pair_they_stopped_on(t, m):
    """A trial is converged exactly when the solver stopped on tol, and its
    residuals are a fresh evaluator's at its graphon, bit for bit: also
    after slow stops, and after no_step stops, where the last points
    evaluated are rejected candidates."""
    k = default_doublings(t)
    targets = experiments._targets(t, k, 0.5)
    for kwargs in ({}, {"tol": 0.0, "spread": 0.3}):
        res = forcing_experiment(t, 0.5, m, 3, seed=10 * t + m, **kwargs)
        for tr in res.trials:
            assert tr.converged == (tr.stop_reason == "tol")
            fresh = experiments._PairEvaluator(
                complete_graph(t), k, np.full(m, 1.0 / m), targets,
                density.DEFAULT_BUDGET)(tr.graphon.values)
            assert (tr.r1, tr.r2) == (fresh.r1, fresh.r2)


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
    # forcing trials step on the zero band's excess, which must be the
    # residual pair itself, bit for bit, on either side of the targets
    for x in (pair, ev(1.0 - g.values)):
        assert x.excess((0.0, 0.0)) == (x.r1, x.r2)


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
    jac = ev.jacobian(ev(g.values))
    assert jac.shape == (2, m * (m + 1) // 2)
    grad = c1 * jac[0] + c2 * jac[1]
    assert np.abs(grad - fd[np.triu_indices(m)]).max() <= 1e-6 * np.abs(fd).max()


@pytest.mark.parametrize("t, m", [*((t, m) for t in (3, 4, 5) for m in (2, 3, 4)),
                                  (5, 6), (5, 8)])
def test_batched_jacobian_matches_single_passes(t, m):
    """The Jacobian's one reverse pass over both adjoints gives the folded
    gradients of one unbatched pass per adjoint bit for bit: every step,
    the pairwise ones of a split elimination included (tables above 1,024
    entries, t=5 from 6 and 8 parts), is one plain einsum, whose batch
    axes do not change how it sums.  A batch of one gives
    doubling_density_gradient bit for bit."""
    rng = np.random.default_rng(11 * t + m)
    w = rng.random(m) ** 4 + 1e-3  # skewed: the heaviest part dominates
    w /= w.sum()
    vals = rng.random((m, m))
    g = StepGraphon(w, (vals + vals.T) / 2)
    k = default_doublings(t)
    ev = experiments._PairEvaluator(complete_graph(t), k, w,
                                    experiments._targets(t, k, 0.5),
                                    density.DEFAULT_BUDGET)
    pair = ev(g.values)
    doubling, run = ev._doubling, pair.run
    bars = (doubling.base_weights.reshape(run.tape[-1].shape),
            doubling.base_adjoint(run))
    single = np.stack([
        density._symmetrize_param_grad(density._reverse(
            doubling.plan, run.tape, run.values, w, bar))[np.triu_indices(m)]
        for bar in bars])
    jac = ev.jacobian(pair)
    assert jac.tobytes() == single.tobytes()

    _, grad = density.doubling_density_gradient(complete_graph(t), k, g)
    batch_of_one = doubling.gradient(run, bars[1][np.newaxis])
    assert batch_of_one.shape == (1, m, m)
    assert density._symmetrize_param_grad(batch_of_one)[0].tobytes() == grad.tobytes()


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
    jac = ev.jacobian(pair)
    assert sizes and max(sizes) <= largest
    assert np.isfinite(jac).all()


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
    v, pair, _, stop_reason = experiments._solve(
        start.values, ev, (0.0, 0.0), experiments._sum_sq, 1e-9, 300)
    assert stop_reason == "tol"
    assert max(abs(pair.r1), abs(pair.r2)) <= 1e-9
    r1, r2 = _public_residuals(start.weights, v, k, targets)
    assert r1 == pytest.approx(pair.r1, abs=1e-15)
    assert r2 == pytest.approx(pair.r2, abs=1e-15)


def test_levenberg_restores_into_the_band():
    ev, start, k, targets, band = _near_solution()
    v, pair, _, stop_reason = experiments._solve(
        start.values, ev, band, experiments._worst, 1e-10, 120)
    assert stop_reason == "tol"
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
        v, pair, steps, stop_reason = experiments._solve(
            start.values, ev, band, merit, -1.0, max_iter)
        assert stop_reason != "tol" and steps <= max_iter
        assert pair.excess(band) == ev(v).excess(band)
        merits.append(merit(*pair.excess(band)))
    assert merits[0] == start_merit
    assert all(b <= a for a, b in zip(merits, merits[1:]))
    assert merits[-1] < start_merit


def test_adversarial_sweep_points_recheck():
    res = forcing_experiment(3, 0.5, 2, 1, seed=1, adversarial=True,
                             max_iter=1000)
    assert res.pareto
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
    # each cap's search keeps the tighter cap's point unless it beats it
    assert [pt.lam for pt in res.pareto] == list(experiments._PARETO_BANDS)
    assert res.pareto_distance_at(1e-6) >= res.pareto_distance_at(1e-8)
    assert res.pareto_distance_at(-1.0) is None
    best = res.pareto_distance_at(float("inf"))
    assert best == max(pt.distance_l2 for pt in res.pareto)
    assert "adversarial_distance_at_1e-8" in res.to_dict()["summary"]


def test_reported_graphons_own_read_only_arrays(monkeypatch):
    # every graphon a result holds is a validated StepGraphon: its arrays
    # are read-only and shared with no other record and no evaluator
    bound = []

    class Recording(experiments._PairEvaluator):
        def __init__(self, *args):
            super().__init__(*args)
            bound.append(self)

    monkeypatch.setattr(experiments, "_PairEvaluator", Recording)
    # one evaluator per experiment: the trials and the sweep share one
    res = forcing_experiment(3, 0.5, 2, 2, seed=1, adversarial=True)
    assert len(bound) == 1
    table = delta_epsilon_probe(3, 0.5, [0.01, 0.1, 1.0], 2, max_iter=50)
    assert len(bound) == 2 and res.pareto and len(table.rows) == 3
    graphons = [*(tr.graphon for tr in res.trials),
                *(pt.graphon for pt in res.pareto),
                *(row.graphon for row in table.rows)]
    arrays = [a for g in graphons for a in (g.weights, g.values)]
    assert not any(a.flags.writeable for a in arrays)
    held = arrays + [ev.weights for ev in bound]
    for i, a in enumerate(held):
        assert not any(np.shares_memory(a, b) for b in held[i + 1:]), i


def test_frontier_step_reuses_the_restored_tape(monkeypatch):
    """Each ascent step of _frontier takes one Jacobian, one reverse pass
    over the tape of the restored point it steps from, and no forward pass
    beyond its candidates'; no candidate is evaluated twice."""
    points, pairs, restored, jacobians = [], [], [], []
    forwards, reversed_tapes = [0], []
    real_forward, real_reverse = density._forward, density._reverse
    evaluator = experiments._PairEvaluator
    real_call, real_jacobian = evaluator.__call__, evaluator.jacobian
    real_restore = experiments._restore

    def forward(*args, **kwargs):
        forwards[0] += 1
        return real_forward(*args, **kwargs)

    def reverse(plan, tape, *args):
        reversed_tapes.append(id(tape))
        return real_reverse(plan, tape, *args)

    def call(self, values):
        points.append(values.tobytes())
        pairs.append(real_call(self, values))
        return pairs[-1]

    def jacobian(self, pair):
        jacobians.append(pair)
        return real_jacobian(self, pair)

    def restore(*args):
        out = real_restore(*args)
        if out is not None:
            restored.append(out[1])
        return out

    monkeypatch.setattr(density, "_forward", forward)
    monkeypatch.setattr(density, "_reverse", reverse)
    monkeypatch.setattr(evaluator, "__call__", call)
    monkeypatch.setattr(evaluator, "jacobian", jacobian)
    monkeypatch.setattr(experiments, "_restore", restore)
    m, p = 4, 0.5
    weights = np.full(m, 1.0 / m)
    ev = experiments._PairEvaluator(complete_graph(3), 2, weights,
                                    experiments._targets(3, 2, p),
                                    density.DEFAULT_BUDGET)
    rng = np.random.default_rng(1)
    starts = [random_near_constant(p, m, s, rng).values for s in (0.02, 0.3)]
    best, feasible = experiments._frontier(starts, weights, ev, p,
                                           (1e-6, 1e-6), 20)
    assert feasible == 2 and best[0] > 0.1

    assert forwards[0] == len(points)  # one forward per evaluation
    assert len(set(points)) == len(points)
    # every Jacobian reads the tape of a point already evaluated, and is
    # exactly one reverse pass over it; no tape is reversed twice
    assert all(any(pair is q for q in pairs) for pair in jacobians)
    assert len(reversed_tapes) == len(jacobians)
    assert sorted(reversed_tapes) == sorted(
        id(pair.run.tape) for pair in jacobians)
    assert len({id(pair) for pair in jacobians}) == len(jacobians)
    steps = [pair for pair in jacobians if any(pair is q for q in restored)]
    assert len(steps) > 10


def test_frontier_stops_where_the_projected_direction_vanishes(monkeypatch):
    # at the constant graphon the distance gradient is zero, so the
    # projected direction is exactly zero and the start takes no step
    restores = []
    real_restore = experiments._restore

    def restore(*args):
        restores.append(args[0])
        return real_restore(*args)

    monkeypatch.setattr(experiments, "_restore", restore)
    m, p = 3, 0.5
    ev = experiments._equal_parts(3, 2, p, m, density.DEFAULT_BUDGET)
    flat = constant_graphon(p, m).values
    best, feasible = experiments._frontier([flat], ev.weights, ev, p,
                                           (0.0, 0.0), 20)
    assert feasible == 1 and len(restores) == 1
    dist, r1, r2, v = best
    assert dist == 0.0 and np.all(v == p)
    assert (r1, r2) == ev(flat)[:2]


@pytest.mark.parametrize("m", (2, 3, 4))
def test_probe_restores_into_the_zero_band(m):
    # every row has a restored start, even at delta=0, and its point
    # rechecks through the public densities inside its band
    table = delta_epsilon_probe(3, 0.5, [0.0, 0.01], m, seed=0)
    colored = complete_graph(3)
    t1, t2 = 0.5**3, 0.5 ** (2**table.k * 3)
    for row in table.rows:
        assert row.feasible_starts >= 1 and row.distance > 0.0
        r1 = graphon_density(colored.graph, row.graphon) - t1
        r2 = doubling_density(colored, table.k, row.graphon) - t2
        assert abs(r1) <= row.delta * t1 + 1e-10
        assert abs(r2) <= row.delta * t2 + 1e-10
        w, v = row.graphon.weights, row.graphon.values
        dist = math.sqrt(float(np.einsum("a,b,ab->", w, w, (v - 0.5) ** 2)))
        assert dist == pytest.approx(row.distance, abs=1e-12)
        # one weighted l2: the search's distance is the constancy report's
        assert row.distance == graphon_constancy(row.graphon, 0.5).l2


def test_probe_monotone_and_sorted():
    table = delta_epsilon_probe(3, 0.5, (1.0, 0.0), 2, seed=2, max_iter=400)
    assert [row.delta for row in table.rows] == [0.0, 1.0]
    d0, d1 = (row.distance for row in table.rows)
    assert d0 <= d1 + 1e-12
    header = table.csv_text().split("\n", 1)[0]
    assert header == "delta,distance,r1,r2"
    rows = table.to_dict()["rows"]
    assert [row["feasible_starts"] for row in rows] == [
        row.feasible_starts for row in table.rows]


def test_probe_fallback_row_reports_no_feasible_start(monkeypatch):
    # no start ends inside the zero band, so that row falls back to the
    # constant graphon at distance 0, and its feasible_starts says so
    search = experiments._frontier
    loose_starts = []

    def none_in_zero_band(starts, weights, pair_eval, p, bounds, *args, **kw):
        if bounds == (0.0, 0.0):
            return kw.get("best"), 0
        loose_starts.extend(starts)
        assert kw.get("best") is None
        return search(starts, weights, pair_eval, p, bounds, *args, **kw)

    monkeypatch.setattr(experiments, "_frontier", none_in_zero_band)
    table = delta_epsilon_probe(3, 0.5, (1.0, 0.0), 2, seed=2, max_iter=400)
    exact, loose = table.rows
    assert exact.feasible_starts == 0 and exact.distance == 0.0
    assert np.all(exact.graphon.values == 0.5)
    # the fallback's residuals are the evaluator's at the constant graphon
    t1, t2 = experiments._targets(3, table.k, 0.5)
    pair = experiments._equal_parts(3, table.k, 0.5, 2, density.DEFAULT_BUDGET)(
        exact.graphon.values)
    assert (exact.r1, exact.r2) == (pair.r1, pair.r2)
    for row in table.rows:
        assert row.distance == graphon_constancy(row.graphon, 0.5).l2
    assert loose.feasible_starts >= 1 and loose.distance > 0.0
    rows = table.to_dict()["rows"]
    assert [row["feasible_starts"] for row in rows] == [0, loose.feasible_starts]
    # the fallback is not carried: the next delta starts from the three
    # fresh seeded starts alone, none of them the constant graphon
    assert len(loose_starts) == 3
    assert not any(np.all(v == 0.5) for v in loose_starts)
    assert loose.feasible_starts <= 3


def test_probe_extra_start_honored():
    witness, _ = non_forcing_witness(0.5)
    table = delta_epsilon_probe(3, 0.5, (1.0,), 2, seed=0,
                                extra_starts=(witness,), max_iter=400)
    # the known far witness is feasible at delta = 1, so the probe must
    # report at least its distance
    assert table.rows[0].distance >= 0.3016136593425802 - 1e-9


def test_probe_refuses_extra_starts_of_another_part_count(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("ran a start before checking extra_starts")

    monkeypatch.setattr(experiments, "_frontier", no_search)
    witness, _ = non_forcing_witness(0.5)  # two parts
    for m in (3, 4):
        with pytest.raises(ValueError, match="extra_starts"):
            delta_epsilon_probe(3, 0.5, (0.0,), m, extra_starts=(witness,))


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
