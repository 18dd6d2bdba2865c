"""Optimization experiments probing whether matched densities force constancy.

The forcing stress test samples step graphons near the constant p, then
drives the pair of densities (clique, iterated doubling) to their
p-random targets by projected gradient descent and measures how far the
solutions land from constant.  The adversarial mode instead maximizes the
distance to constant under an escalating residual penalty and polishes
with damped Gauss-Newton steps, tracing a distance-versus-residual
frontier.  A two-part witness shows the contrast: matching edge and
triangle densities alone leaves plenty of room away from constant.
"""

from __future__ import annotations

import io
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# the two gradient functions are no longer called here, but stay importable
# from this module: the benchmark's tracer wraps them under these names
from .density import (
    DEFAULT_BUDGET,
    doubling_density,
    doubling_density_gradient,  # noqa: F401
    graphon_density,
    graphon_density_gradient,  # noqa: F401
    _density_plan,
    _Doubling,
    _DoublingRun,
    _symmetrize_param_grad,
)
from .graphon import StepGraphon, random_near_constant
from .graphs import Graph, ColoredGraph, complete_graph
from .identities import default_doublings
from .quasirandom import ConstancyReport, graphon_constancy

__all__ = [
    "ForcingTrial",
    "ParetoPoint",
    "ForcingExperimentResult",
    "DeltaEpsilonRow",
    "DeltaEpsilonTable",
    "ContrastResult",
    "run_forcing_trial",
    "forcing_experiment",
    "delta_epsilon_probe",
    "non_forcing_witness",
    "contrast_experiment",
]

_MAX_ITER = 10_000
# a trial can take half a second, so this many is already hours of work
_MAX_TRIALS = 10_000
# the residual term flattens quartically near constant, so the penalty
# weight must climb many decades before it pins the distance down
_PARETO_LAMBDAS = tuple(10.0**e for e in range(2, 11, 2))
# residual caps for the banded frontier points, tightest first
_PARETO_BANDS = (1e-8, 1e-6)


def _targets(t: int, k: int, p: float) -> tuple[float, float]:
    """t(K_t) and t(k-times-doubled K_t) at constant p.  A doubled target
    below the smallest normal float is refused: it is 0.0 or subnormal, so
    every start would read as converged or the residuals lose all digits."""
    e1 = t * (t - 1) // 2
    e2 = (1 << k) * e1
    doubled = p**e2
    if doubled < sys.float_info.min:
        raise ValueError(
            f"the doubled target p^(2^k*C(t,2)) underflows below the smallest "
            f"normal float at p={p!r}, t={t}, k={k}"
        )
    return p**e1, doubled


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and non-negative; got {tol!r}")


def _check_p(p: float) -> None:
    if not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0, 1]")


def _check_problem(t: int, m: int, p: float) -> None:
    if not 2 <= t <= 5:
        raise ValueError(f"t must lie in [2, 5]; got {t}")
    if not 1 <= m <= 8:
        raise ValueError(f"parts must lie in [1, 8]; got {m}")
    _check_p(p)


class _Pair(NamedTuple):
    """Both residuals at one value matrix, with the tape of their forward
    pass for the reverse pass of _PairEvaluator.gradient."""

    r1: float
    r2: float
    run: _DoublingRun

    def excess(self, band) -> tuple[float, float]:
        """Signed excess of each residual beyond [-band, band]; in a zero
        band, the residuals themselves bit for bit."""
        r1, r2, _ = self
        h1, h2 = abs(r1) - band[0], abs(r2) - band[1]
        return (math.copysign(h1 if h1 > 0.0 else 0.0, r1),
                math.copysign(h2 if h2 > 0.0 else 0.0, r2))


class _PairEvaluator:
    """Residuals of the (motif, k-times-doubled motif) pair and gradients of
    their linear combinations, for value matrices with fixed weights.

    One forward pass over the doubling base plan gives both densities: the
    base table pins classes 0..k-1 without weighting them, so summing it
    against the pinned weight products gives t(motif, W), and gluing its
    root-weighted copy level by level gives the doubled density.  Binding
    checks every table against `budget`, as graphon_density and
    doubling_density would.
    """

    def __init__(self, colored: ColoredGraph, k: int, weights: np.ndarray,
                 targets, budget: int):
        _density_plan(colored.graph, weights.size, budget)
        self._doubling = _Doubling(colored, k, weights, budget)
        self._colored, self._k = colored, k
        self._targets, self._budget = targets, budget

    def residuals(self, graphon: StepGraphon) -> tuple[float, float]:
        """Both residuals recomputed through the public density functions,
        as reported results are."""
        r1 = (graphon_density(self._colored.graph, graphon, budget=self._budget)
              - self._targets[0])
        r2 = (doubling_density(self._colored, self._k, graphon,
                               budget=self._budget) - self._targets[1])
        return r1, r2

    def __call__(self, values: np.ndarray) -> _Pair:
        run = self._doubling.forward(_project(values), keep_tape=True)
        d1 = float(self._doubling.base_weights @ run.tape[-1].reshape(-1))
        return _Pair(d1 - self._targets[0], float(run.table[()]) - self._targets[1],
                     run)

    def gradient(self, pair: _Pair, c1: float, c2: float) -> np.ndarray:
        """Gradient of c1 * r1 + c2 * r2 in the symmetric value matrix, by
        one reverse pass over the pair's tape."""
        doubling = self._doubling
        base = pair.run.tape[-1]
        base_bar = (doubling.base_adjoint(pair.run, c2)
                    + c1 * doubling.base_weights.reshape(base.shape))
        return doubling.gradient(pair.run, base_bar)


def _l2sq(values: np.ndarray, weights: np.ndarray, p: float) -> float:
    return float((np.outer(weights, weights) * (values - p) ** 2).sum())


def _l2sq_grad(values: np.ndarray, weights: np.ndarray, p: float) -> np.ndarray:
    return _symmetrize_param_grad(2.0 * np.outer(weights, weights) * (values - p))


def _project(values: np.ndarray) -> np.ndarray:
    """The symmetric value matrix in [0, 1] that an iterate stands for."""
    return np.clip((values + values.T) / 2.0, 0.0, 1.0)


def _graphon(weights: np.ndarray, values: np.ndarray) -> StepGraphon:
    return StepGraphon._wrap(weights, _project(values))


def _sum_sq(e1: float, e2: float) -> float:
    return e1 * e1 + e2 * e2


def _worst(e1: float, e2: float) -> float:
    return max(abs(e1), abs(e2))


def _penalty(pair_eval: _PairEvaluator, band=(0.0, 0.0), away=None):
    """The (evaluate, gradient) pair for _descend on |e|^2, where e is the
    signed excess of the residual pair beyond `band` (the residuals
    themselves in a zero band).

    With ``away=(scale, weights, p)`` the objective is scale * |e|^2 minus
    the squared weighted l2 distance to constant p, so descent pushes away
    from constant while the penalty holds the residuals.  Forcing runs the
    zero-band path without `away` on every line-search try, so there the
    residuals skip the hinge (which would return them unchanged) and the
    gradient is the evaluator's own array, uncopied: a K_3 evaluation is a
    few tens of microseconds, so one more Python call per try shows in the
    run time.
    """
    hinged = band != (0.0, 0.0)

    def evaluate(v):
        pair = pair_eval(v)
        e1, e2 = pair.excess(band) if hinged else pair[:2]
        f = e1 * e1 + e2 * e2
        if away is None:
            return f, (v, pair)
        scale, weights, p = away
        return scale * f - _l2sq(v, weights, p), (v, pair)

    def gradient(state):
        v, pair = state
        e1, e2 = pair.excess(band) if hinged else pair[:2]
        g = pair_eval.gradient(pair, 2 * e1, 2 * e2)
        if away is None:
            return g
        scale, weights, p = away
        return scale * g - _l2sq_grad(v, weights, p)

    return evaluate, gradient


def _descend(values: np.ndarray, evaluate, gradient, max_iter: int, stop=None):
    """Projected gradient descent on the symmetric value matrix.

    ``evaluate(v)`` returns (objective, state) and ``gradient(state)`` the
    objective's gradient at the point that state was evaluated at, so the
    gradient reuses the forward pass of the accepted point instead of
    recomputing it: an iteration costs one evaluation per line-search try
    and one gradient.  Accepts a step only when the objective drops by at
    least a 1e-6 relative margin, halving on rejection and growing after
    success; the iterate stays clipped to [0, 1] and symmetric.  Stops at
    `stop` (an objective threshold), at a stationary point, when no
    acceptable step exists (typically a quartic valley floor where
    first-order progress dies), or at the iteration cap.  Returns (values,
    iterations used).
    """
    v = values.copy()
    f, state = evaluate(v)
    step = 0.25
    it = 0
    window = 150
    window_f = None
    while it < max_iter and (stop is None or f > stop):
        if stop is not None and stop > 0 and it % window == 0:
            # the decay rate only slows on the flat valley floor, so if the
            # cap cannot reach `stop` at the current rate it never will
            if window_f is not None and 0 < f < window_f:
                rate = math.log(window_f / f) / window
                if rate * (max_iter - it) < math.log(f / stop):
                    break
            window_f = f
        g = gradient(state)
        gnorm = float(np.abs(g).max())
        if gnorm < 1e-16:
            break
        improved = False
        for _ in range(60):
            cand = np.clip(v - step * g, 0.0, 1.0)
            fc, cand_state = evaluate(cand)
            if fc < f - 1e-6 * abs(f):
                v, f, state = cand, fc, cand_state
                step = min(step * 2.0, 1e6 / max(gnorm, 1e-16))
                improved = True
                break
            step *= 0.5
        it += 1
        if not improved:
            break
    return v, it


def _triu_vec(mat: np.ndarray) -> np.ndarray:
    return mat[np.triu_indices(mat.shape[0])]


def _vec_to_sym(vec: np.ndarray, m: int) -> np.ndarray:
    out = np.zeros((m, m))
    iu = np.triu_indices(m)
    out[iu] = vec
    return out + np.triu(out, 1).T


def _levenberg(values: np.ndarray, pair_eval: _PairEvaluator, band, merit,
               tol: float, max_iter: int):
    """Drive the signed excess e of both residuals beyond `band` toward
    zero with adaptively damped least-norm steps.

    Solves (J J^T + mu I) y = -e over the tied upper triangle parameters
    and accepts a step only when ``merit(*e)`` drops, shrinking mu after
    accepted steps and inflating it on rejection.  The damping matters
    because the two gradient rows become nearly parallel along the flat
    valley, where the undamped least-norm direction blows up; near the
    solution the Jacobian loses rank and progress is linear rather than
    quadratic.  Coordinates pinned at 0 or 1 whose descent direction points
    outside the box are dropped from the Jacobian, otherwise clipping
    invalidates the step model.  A zero band polishes toward the exact
    targets.  Returns (values, pair, done), done when the largest excess
    fell to `tol` before the step cap ran out.
    """
    m = values.shape[0]
    v = values.copy()
    pair = pair_eval(v)
    e = pair.excess(band)
    mu = 1e-8
    for _ in range(max_iter):
        if _worst(*e) <= tol:
            return v, pair, True
        g1 = pair_eval.gradient(pair, 1.0, 0.0)
        g2 = pair_eval.gradient(pair, 0.0, 1.0)
        jac = np.stack([_triu_vec(g1), _triu_vec(g2)])
        vv = _triu_vec(v)
        ssg = _triu_vec(2 * e[0] * g1 + 2 * e[1] * g2)
        jac[:, ((vv <= 0.0) & (ssg > 0.0)) | ((vv >= 1.0) & (ssg < 0.0))] = 0.0
        r = np.array(e)
        gram = jac @ jac.T
        scale = max(float(np.trace(gram)) / 2.0, 1e-30)
        best = merit(*e)
        for _ in range(45):
            damped = gram + mu * scale * np.eye(2)
            try:
                y = np.linalg.solve(damped, -r)
            except np.linalg.LinAlgError:
                y = -np.linalg.pinv(damped) @ r
            cand = np.clip(v + _vec_to_sym(jac.T @ y, m), 0.0, 1.0)
            cand_pair = pair_eval(cand)
            cand_e = cand_pair.excess(band)
            if merit(*cand_e) < best * (1.0 - 1e-12):
                v, pair, e = cand, cand_pair, cand_e
                mu = max(mu / 4.0, 1e-12)
                break
            mu *= 8.0
        else:
            break
    return v, pair, False


@dataclass(frozen=True, eq=False)
class ForcingTrial:
    """One seeded run: a random near-constant start driven to the targets."""

    seed: int
    converged: bool
    iterations: int
    r1: float
    r2: float
    graphon: StepGraphon
    constancy: ConstancyReport

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "converged": self.converged,
            "iterations": self.iterations,
            "r1": self.r1,
            "r2": self.r2,
            "graphon": self.graphon.to_dict(),
            "constancy": self.constancy.to_dict(),
        }


@dataclass(frozen=True, eq=False)
class ParetoPoint:
    """Distance versus residual at one point of the adversarial frontier.

    ``stage`` is "penalty" for the raw maximizer under lam * residual
    penalty, "polished" after Gauss-Newton refinement toward exact
    targets, or "band" for a maximizer of distance subject to an absolute
    residual cap; for band points ``lam`` holds the cap instead of a
    penalty weight.
    """

    lam: float
    stage: str
    r1: float
    r2: float
    distance_l2: float
    graphon: StepGraphon

    def to_dict(self) -> dict:
        return {
            "lam": self.lam,
            "stage": self.stage,
            "r1": self.r1,
            "r2": self.r2,
            "distance_l2": self.distance_l2,
            "graphon": self.graphon.to_dict(),
        }


@dataclass(frozen=True, eq=False)
class ForcingExperimentResult:
    """All trials of a forcing stress test plus the optional Pareto sweep."""

    t: int
    k: int
    p: float
    tol: float
    trials: tuple[ForcingTrial, ...]
    pareto: tuple[ParetoPoint, ...] | None = None

    @property
    def converged_trials(self) -> tuple[ForcingTrial, ...]:
        return tuple(tr for tr in self.trials if tr.converged)

    @property
    def all_converged(self) -> bool:
        return all(tr.converged for tr in self.trials)

    @property
    def summary_max_distance(self) -> float | None:
        """Largest l2 distance to constant among converged trials."""
        conv = self.converged_trials
        if not conv:
            return None
        return max(tr.constancy.l2 for tr in conv)

    def pareto_distance_at(self, residual: float) -> float | None:
        """Largest frontier distance with both residuals at most ``residual``
        in absolute value, or None when no recorded point qualifies."""
        if self.pareto is None:
            return None
        good = [pt.distance_l2 for pt in self.pareto
                if max(abs(pt.r1), abs(pt.r2)) <= residual]
        return max(good) if good else None

    def to_dict(self) -> dict:
        summary = {
            "num_trials": len(self.trials),
            "num_converged": len(self.converged_trials),
            "max_l2_distance_converged": self.summary_max_distance,
        }
        if self.pareto is not None:
            summary["adversarial_distance_at_1e-8"] = self.pareto_distance_at(1e-8)
        return {
            "pair": [self.t, self.k],
            "p": self.p,
            "tol": self.tol,
            "trials": [tr.to_dict() for tr in self.trials],
            "summary": summary,
            "pareto": None if self.pareto is None
            else [pt.to_dict() for pt in self.pareto],
        }

    def csv_text(self) -> str:
        buf = io.StringIO()
        buf.write("trial,r1,r2,linf,l2,cut,oscillation\n")
        for i, tr in enumerate(self.trials):
            c = tr.constancy
            cut = "" if c.cut is None else repr(c.cut)
            buf.write(f"{i},{tr.r1!r},{tr.r2!r},{c.linf!r},{c.l2!r},"
                      f"{cut},{c.oscillation!r}\n")
        return buf.getvalue()


def run_forcing_trial(t: int, p: float, start: StepGraphon, seed: int = 0,
                      k: int | None = None, tol: float = 1e-6,
                      max_iter: int = _MAX_ITER,
                      budget: int = DEFAULT_BUDGET) -> ForcingTrial:
    """Minimize the squared residual pair from one starting graphon.

    The objective is (t(K_t, W) - p^e)^2 + (t(doubled, W) - p^e')^2 over
    the value matrix with weights held fixed; iteration stops once it
    drops to tol^2.  A start already meeting the targets uses zero
    iterations.  ``tol`` must be finite and non-negative; ``tol=0``
    descends until the optimizer itself stops (no acceptable step, a
    stationary point or the iteration cap) and reports the trial converged
    only when both residuals are exactly zero.  ``p`` must lie in (0, 1],
    as in forcing_experiment.
    """
    if k is None:
        k = default_doublings(t)
    _check_p(p)
    _check_tol(tol)
    weights = start.weights
    pair_eval = _PairEvaluator(complete_graph(t), k, weights, _targets(t, k, p),
                               budget)
    values, iters = _descend(start.values, *_penalty(pair_eval), max_iter,
                             stop=tol * tol)
    final = _graphon(weights, values)
    r1, r2 = pair_eval.residuals(final)
    converged = max(abs(r1), abs(r2)) <= tol
    return ForcingTrial(seed, converged, iters, r1, r2, final,
                        graphon_constancy(final, p))


def _pareto_sweep(t: int, k: int, p: float, m: int, seed: int,
                  budget: int, max_iter: int) -> tuple[ParetoPoint, ...]:
    """Trace the distance-versus-residual frontier three ways.

    A lambda ladder of penalty maximizers gives raw far points, each is
    then polished toward zero residual, and finally banded maximizers push
    distance outward under explicit residual caps (warm-started from the
    polished point, which already sits inside every band).  Every recorded
    distance is a lower bound on the true frontier at its residual level.
    """
    weights = np.full(m, 1.0 / m)
    pair_eval = _PairEvaluator(complete_graph(t), k, weights, _targets(t, k, p),
                               budget)
    rng = np.random.Generator(np.random.PCG64(seed))
    values = random_near_constant(p, m, 0.3, rng).values
    points = []
    per_round = max(400, max_iter // 5)
    refined = values
    for lam in _PARETO_LAMBDAS:
        values, _ = _descend(values, *_penalty(pair_eval, away=(lam, weights, p)),
                             per_round)
        r1, r2 = pair_eval.residuals(_graphon(weights, values))
        points.append(ParetoPoint(
            lam, "penalty", r1, r2, float(np.sqrt(_l2sq(values, weights, p))),
            _graphon(weights, values),
        ))
        refined, pair, _ = _levenberg(values, pair_eval, (0.0, 0.0), _sum_sq,
                                      1e-9, 300)
        points.append(ParetoPoint(
            lam, "polished", pair.r1, pair.r2,
            float(np.sqrt(_l2sq(refined, weights, p))),
            _graphon(weights, refined),
        ))
    # the interior start matters: far penalty points sit on the value box
    # and clipping strangles the banded ascent there
    carried = [refined, random_near_constant(p, m, 0.02, rng).values]
    for band in _PARETO_BANDS:
        # aim at 90% of the cap so restoration slack cannot tip the
        # recorded point past the nominal residual level
        cap = 0.9 * band
        found = _farthest_in_band(carried, weights, pair_eval, p, (cap, cap),
                                  per_round, mus=(1e6, 1e8, 1e10, 1e12))
        if found is None:
            continue
        dist, r1, r2, vb = found
        points.append(ParetoPoint(band, "band", r1, r2, dist,
                                  _graphon(weights, vb)))
        carried.insert(0, vb)
    return tuple(points)


def forcing_experiment(t: int, p: float, m: int, trials: int, seed: int = 0,
                       tol: float = 1e-6, adversarial: bool = False,
                       spread: float = 0.05, k: int | None = None,
                       max_iter: int = _MAX_ITER,
                       budget: int = DEFAULT_BUDGET) -> ForcingExperimentResult:
    """Seeded stress test of the density-matching pair at clique size t.

    Each trial perturbs the constant-p graphon (uniform noise of
    half-width ``spread``), runs projected gradient descent to the
    targets, and records residuals plus constancy metrics; non-convergent
    trials are recorded with their final residuals.  The residual surface
    flattens quartically near the constant solution, so first-order
    descent from wide starts reaches the tolerance only when the start
    already lies within roughly sqrt(tol / curvature) of constant; the
    default spread keeps a healthy share of trials inside that basin.
    With
    ``adversarial=True`` a penalty-weight sweep additionally maximizes the
    distance to constant, reporting penalty, polished and banded Pareto
    points (the banded ones cap both residuals at an absolute level and
    push distance outward under that cap).
    Trial seeds are ``seed + trial index``, so results are reproducible
    and order-independent.  ``tol`` is checked as in run_forcing_trial
    before any trial runs.
    """
    _check_problem(t, m, p)
    if not 1 <= trials <= _MAX_TRIALS:
        raise ValueError(f"trials must lie in [1, {_MAX_TRIALS}]; got {trials}")
    _check_tol(tol)
    if k is None:
        k = default_doublings(t)
    done = []
    for i in range(trials):
        trial_seed = seed + i
        rng = np.random.Generator(np.random.PCG64(trial_seed))
        start = random_near_constant(p, m, spread, rng)
        done.append(run_forcing_trial(t, p, start, seed=trial_seed, k=k,
                                      tol=tol, max_iter=max_iter, budget=budget))
    pareto = None
    if adversarial:
        pareto = _pareto_sweep(t, k, p, m, seed, budget, max_iter)
    return ForcingExperimentResult(t, k, float(p), tol, tuple(done), pareto)


@dataclass(frozen=True, eq=False)
class DeltaEpsilonRow:
    """Largest distance to constant found with both densities within
    a (1 +/- delta) factor of their targets."""

    delta: float
    distance: float
    r1: float
    r2: float
    graphon: StepGraphon

    def to_dict(self) -> dict:
        return {
            "delta": self.delta,
            "distance": self.distance,
            "r1": self.r1,
            "r2": self.r2,
            "graphon": self.graphon.to_dict(),
        }


@dataclass(frozen=True, eq=False)
class DeltaEpsilonTable:
    t: int
    k: int
    p: float
    rows: tuple[DeltaEpsilonRow, ...]

    def to_dict(self) -> dict:
        return {
            "pair": [self.t, self.k],
            "p": self.p,
            "rows": [row.to_dict() for row in self.rows],
        }

    def csv_text(self) -> str:
        buf = io.StringIO()
        buf.write("delta,distance,r1,r2\n")
        for row in self.rows:
            buf.write(f"{row.delta!r},{row.distance!r},{row.r1!r},{row.r2!r}\n")
        return buf.getvalue()


def _farthest_in_band(starts, weights, pair_eval, p, bounds, iters_per_round,
                      mus=(1e2, 1e4, 1e6, 1e8, 1e10), best=None):
    """Maximize weighted l2 distance to constant p subject to absolute
    residual caps ``bounds`` from each start, keeping the farthest feasible
    result as (distance, r1, r2, values); returns `best` when no start
    beats it.

    Escalating hinge penalties keep motion inside the band free of charge
    (the hinge vanishes there, so the flat residual valley cannot stall
    the distance ascent), then a Levenberg restore pulls any overshoot
    back inside the band.
    """
    for v in starts:
        for mu in mus:
            v, _ = _descend(v, *_penalty(pair_eval, bounds, (mu, weights, p)),
                            iters_per_round)
        v, pair, done = _levenberg(v, pair_eval, bounds, _worst, 1e-10, 120)
        # a restore that stalled or ran out of steps still counts when
        # both residuals sit within 1e-10 of their caps
        if not (done or (abs(pair.r1) <= bounds[0] + 1e-10
                         and abs(pair.r2) <= bounds[1] + 1e-10)):
            continue
        dist = float(np.sqrt(_l2sq(v, weights, p)))
        if best is None or dist > best[0]:
            best = (dist, pair.r1, pair.r2, v)
    return best


def delta_epsilon_probe(t: int, p: float, deltas, m: int, seed: int = 0,
                        k: int | None = None, extra_starts=(),
                        max_iter: int = 2000,
                        budget: int = DEFAULT_BUDGET) -> DeltaEpsilonTable:
    """Empirical map delta -> farthest-from-constant feasible graphon.

    For each delta (processed in increasing order) the probe maximizes the
    weighted l2 distance to constant subject to both densities lying
    within (1 +/- delta) of their targets, via escalating hinge penalties
    followed by feasibility restoration.  Warm starts chain from smaller
    deltas, and the best previous solution is always kept, so the reported
    distances are non-decreasing in delta.  ``extra_starts`` may supply
    known graphons (with matching part count) as additional candidates.
    Reported distances are lower bounds on the true optimum.  Every delta
    must be finite and non-negative.
    """
    _check_problem(t, m, p)
    if k is None:
        k = default_doublings(t)
    deltas = sorted(float(d) for d in deltas)
    if not all(math.isfinite(d) and d >= 0 for d in deltas):
        raise ValueError(f"deltas must be finite and non-negative; got {deltas!r}")
    targets = _targets(t, k, p)
    weights = np.full(m, 1.0 / m)
    pair_eval = _PairEvaluator(complete_graph(t), k, weights, targets, budget)
    rng = np.random.Generator(np.random.PCG64(seed))
    extras = [g.values for g in extra_starts if g.num_parts == m]

    rows = []
    best = None  # (distance, r1, r2, values) carried across deltas
    for delta in deltas:
        starts = [] if best is None else [best[3].copy()]
        starts.extend(x.copy() for x in extras)
        starts.append(random_near_constant(p, m, 0.02, rng).values)
        starts.append(random_near_constant(p, m, 0.3, rng).values)
        starts.append(random_near_constant(p, m, 0.5, rng).values)
        best = _farthest_in_band(starts, weights, pair_eval, p,
                                 (delta * targets[0], delta * targets[1]),
                                 max_iter // 5, best=best)
        if best is None:
            # no feasible candidate found; fall back to the constant graphon
            v = np.full((m, m), p)
            best = (0.0, *pair_eval.residuals(_graphon(weights, v)), v)
        rows.append(DeltaEpsilonRow(delta, *best[:3], _graphon(weights, best[3])))
    return DeltaEpsilonTable(t, k, float(p), tuple(rows))


@dataclass(frozen=True, eq=False)
class ContrastResult:
    """The two-part witness that edge plus triangle matching is not forcing."""

    p: float
    b: float
    graphon: StepGraphon
    edge_density: float
    triangle_density: float
    constancy: ConstancyReport

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "b": self.b,
            "graphon": self.graphon.to_dict(),
            "edge_density": self.edge_density,
            "triangle_density": self.triangle_density,
            "constancy": self.constancy.to_dict(),
        }


def non_forcing_witness(p: float = 0.5) -> tuple[StepGraphon, float]:
    """Two-part graphon with edge density p and triangle density p^3, far
    from constant.

    Uniform parts with values [[a, b], [b, 0]] where a = 4p - 2b keeps the
    edge density at p and b solves a^3 + 3ab^2 = 8p^3 (bisection) to put
    the triangle density at p^3.  The zero block keeps the graphon at
    linf distance at least p from constant.  Exists for p up to about
    0.55; outside that range the cubic has no admissible root and a
    ValueError is raised.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")

    def f(b: float) -> float:
        a = 4.0 * p - 2.0 * b
        return a**3 + 3.0 * a * b * b - 8.0 * p**3

    lo, hi = p, min(2.0 * p, 1.0)
    flo, fhi = f(lo), f(hi)
    if not (flo > 0.0 >= fhi):
        raise ValueError(f"no two-part witness with a zero block exists at p={p}")
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    b = (lo + hi) / 2.0
    a = 4.0 * p - 2.0 * b
    if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
        raise ValueError(f"witness values fall outside [0, 1] at p={p}")
    graphon = StepGraphon(np.array([0.5, 0.5]), np.array([[a, b], [b, 0.0]]))
    return graphon, b


def contrast_experiment(p: float = 0.5,
                        budget: int = DEFAULT_BUDGET) -> ContrastResult:
    """Evaluate the non-forcing witness: densities match, distance does not
    shrink."""
    graphon, b = non_forcing_witness(p)
    edge = graphon_density(Graph(2, [(0, 1)]), graphon, budget=budget)
    triangle = graphon_density(complete_graph(3).graph, graphon, budget=budget)
    return ContrastResult(float(p), b, graphon, edge, triangle,
                          graphon_constancy(graphon, p))
