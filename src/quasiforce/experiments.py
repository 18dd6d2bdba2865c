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
from dataclasses import dataclass

import numpy as np

from .density import (
    DEFAULT_BUDGET,
    doubling_density,
    doubling_density_gradient,
    graphon_density,
    graphon_density_gradient,
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
# the residual term flattens quartically near constant, so the penalty
# weight must climb many decades before it pins the distance down
_PARETO_LAMBDAS = tuple(10.0**e for e in range(2, 11, 2))
# residual caps for the banded frontier points, tightest first
_PARETO_BANDS = (1e-8, 1e-6)


def _targets(t: int, k: int, p: float) -> tuple[float, float]:
    e1 = t * (t - 1) // 2
    return p**e1, p ** ((1 << k) * e1)


def _residuals(colored: ColoredGraph, k: int, graphon: StepGraphon,
               targets, budget: int) -> tuple[float, float]:
    r1 = graphon_density(colored.graph, graphon, budget=budget) - targets[0]
    r2 = doubling_density(colored, k, graphon, budget=budget) - targets[1]
    return r1, r2


def _residuals_and_grads(colored: ColoredGraph, k: int, graphon: StepGraphon,
                         targets, budget: int):
    d1, g1 = graphon_density_gradient(colored.graph, graphon, budget=budget)
    d2, g2 = doubling_density_gradient(colored, k, graphon, budget=budget)
    return d1 - targets[0], d2 - targets[1], g1, g2


def _l2sq(values: np.ndarray, weights: np.ndarray, p: float) -> float:
    return float((np.outer(weights, weights) * (values - p) ** 2).sum())


def _l2sq_grad(values: np.ndarray, weights: np.ndarray, p: float) -> np.ndarray:
    return _symmetrize_param_grad(2.0 * np.outer(weights, weights) * (values - p))


def _graphon(weights: np.ndarray, values: np.ndarray) -> StepGraphon:
    sym = (values + values.T) / 2.0
    return StepGraphon._wrap(weights, np.clip(sym, 0.0, 1.0))


def _descend(values: np.ndarray, objective, gradient, max_iter: int, stop=None):
    """Projected gradient descent on the symmetric value matrix.

    Accepts a step only when the objective drops by at least a 1e-6
    relative margin, halving on rejection and growing after success; the
    iterate stays clipped to [0, 1] and symmetric.  Stops at `stop` (an
    objective threshold), at a stationary point, when no acceptable step
    exists (typically a quartic valley floor where first-order progress
    dies), or at the iteration cap.  Returns (values, objective value,
    iterations used).
    """
    v = values.copy()
    f = objective(v)
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
        g = gradient(v)
        gnorm = float(np.abs(g).max())
        if gnorm < 1e-16:
            break
        improved = False
        for _ in range(60):
            cand = np.clip(v - step * g, 0.0, 1.0)
            fc = objective(cand)
            if fc < f - 1e-6 * abs(f):
                v, f = cand, fc
                step = min(step * 2.0, 1e6 / max(gnorm, 1e-16))
                improved = True
                break
            step *= 0.5
        it += 1
        if not improved:
            break
    return v, f, it


def _triu_vec(mat: np.ndarray) -> np.ndarray:
    return mat[np.triu_indices(mat.shape[0])]


def _vec_to_sym(vec: np.ndarray, m: int) -> np.ndarray:
    out = np.zeros((m, m))
    iu = np.triu_indices(m)
    out[iu] = vec
    return out + np.triu(out, 1).T


def _gauss_newton_refine(values: np.ndarray, weights: np.ndarray,
                         colored: ColoredGraph, k: int, targets,
                         budget: int, target_resid: float = 1e-9,
                         max_iter: int = 300):
    """Drive both residuals toward zero with adaptively damped least-norm
    steps.

    Levenberg-style: solves (J J^T + mu I) y = -r over the tied upper
    triangle parameters, shrinking mu after accepted steps and inflating
    it on rejection.  The damping matters because the two gradient rows
    become nearly parallel along the flat valley, where the undamped
    least-norm direction blows up; near the solution the Jacobian loses
    rank and progress is linear rather than quadratic.  Coordinates pinned
    at 0 or 1 whose descent direction points outside the box are dropped
    from the Jacobian, otherwise clipping invalidates the step model.
    """
    m = weights.size
    v = values.copy()
    r1, r2, g1, g2 = _residuals_and_grads(colored, k, _graphon(weights, v),
                                          targets, budget)
    best = r1 * r1 + r2 * r2
    mu = 1e-8
    for _ in range(max_iter):
        if max(abs(r1), abs(r2)) <= target_resid:
            break
        jac = np.stack([_triu_vec(g1), _triu_vec(g2)])
        vv = _triu_vec(v)
        ssg = _triu_vec(2 * r1 * g1 + 2 * r2 * g2)
        jac[:, ((vv <= 0.0) & (ssg > 0.0)) | ((vv >= 1.0) & (ssg < 0.0))] = 0.0
        r = np.array([r1, r2])
        gram = jac @ jac.T
        scale = max(float(np.trace(gram)) / 2.0, 1e-30)
        moved = None
        for _ in range(45):
            try:
                y = np.linalg.solve(gram + mu * scale * np.eye(2), -r)
            except np.linalg.LinAlgError:
                y = -np.linalg.pinv(gram + mu * scale * np.eye(2)) @ r
            cand = np.clip(v + _vec_to_sym(jac.T @ y, m), 0.0, 1.0)
            c1, c2 = _residuals(colored, k, _graphon(weights, cand), targets, budget)
            if c1 * c1 + c2 * c2 < best * (1.0 - 1e-12):
                moved = cand
                mu = max(mu / 4.0, 1e-12)
                break
            mu *= 8.0
        if moved is None:
            break
        v = moved
        r1, r2, g1, g2 = _residuals_and_grads(colored, k, _graphon(weights, v),
                                              targets, budget)
        best = r1 * r1 + r2 * r2
    return v, r1, r2


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
    iterations.
    """
    if k is None:
        k = default_doublings(t)
    colored = complete_graph(t)
    targets = _targets(t, k, p)
    weights = start.weights

    def obj(v):
        a, b = _residuals(colored, k, _graphon(weights, v), targets, budget)
        return a * a + b * b

    def grad(v):
        a, b, g1, g2 = _residuals_and_grads(colored, k, _graphon(weights, v),
                                            targets, budget)
        return 2 * a * g1 + 2 * b * g2

    values, _, iters = _descend(start.values, obj, grad,
                                max_iter, stop=tol * tol)
    final = _graphon(weights, values)
    r1, r2 = _residuals(colored, k, final, targets, budget)
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
    colored = complete_graph(t)
    targets = _targets(t, k, p)
    weights = np.full(m, 1.0 / m)
    rng = np.random.Generator(np.random.PCG64(seed))
    values = random_near_constant(p, m, 0.3, rng).values
    points = []
    per_round = max(400, max_iter // 5)
    refined = values
    for lam in _PARETO_LAMBDAS:

        def obj(v):
            a, b = _residuals(colored, k, _graphon(weights, v), targets, budget)
            return lam * (a * a + b * b) - _l2sq(v, weights, p)

        def grad(v):
            a, b, g1, g2 = _residuals_and_grads(
                colored, k, _graphon(weights, v), targets, budget)
            return lam * (2 * a * g1 + 2 * b * g2) - _l2sq_grad(v, weights, p)

        values, _, _ = _descend(values, obj, grad, per_round)
        r1, r2 = _residuals(colored, k, _graphon(weights, values), targets, budget)
        points.append(ParetoPoint(
            lam, "penalty", r1, r2, float(np.sqrt(_l2sq(values, weights, p))),
            _graphon(weights, values),
        ))
        refined, r1, r2 = _gauss_newton_refine(values, weights, colored, k,
                                               targets, budget)
        points.append(ParetoPoint(
            lam, "polished", r1, r2,
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
        best_band = None
        for v0 in carried:
            vb, r1, r2, feasible = _banded_max(
                v0, weights, colored, k, p, targets, (cap, cap), budget,
                per_round, mus=(1e6, 1e8, 1e10, 1e12))
            if not feasible:
                continue
            dist = float(np.sqrt(_l2sq(vb, weights, p)))
            if best_band is None or dist > best_band[0]:
                best_band = (dist, r1, r2, vb)
        if best_band is None:
            continue
        dist, r1, r2, vb = best_band
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
    and order-independent.
    """
    if not 2 <= t <= 5:
        raise ValueError(f"t must lie in [2, 5]; got {t}")
    if not 1 <= m <= 8:
        raise ValueError(f"parts must lie in [1, 8]; got {m}")
    if trials < 1:
        raise ValueError("need at least one trial")
    if not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0, 1]")
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


def _restore_feasibility(values, weights, colored, k, targets, bounds,
                         budget, max_iter=120):
    """Pull residuals back inside the allowed band with adaptively damped
    least-norm steps (same Levenberg scheme as _gauss_newton_refine)."""
    m = weights.size
    v = values.copy()
    r1, r2, g1, g2 = _residuals_and_grads(colored, k, _graphon(weights, v),
                                          targets, budget)
    mu = 1e-8
    for _ in range(max_iter):
        ex = np.array([
            np.sign(r1) * max(0.0, abs(r1) - bounds[0]),
            np.sign(r2) * max(0.0, abs(r2) - bounds[1]),
        ])
        worst = float(np.abs(ex).max())
        if worst <= 1e-10:
            return v, r1, r2, True
        jac = np.stack([_triu_vec(g1), _triu_vec(g2)])
        vv = _triu_vec(v)
        ssg = _triu_vec(2 * ex[0] * g1 + 2 * ex[1] * g2)
        jac[:, ((vv <= 0.0) & (ssg > 0.0)) | ((vv >= 1.0) & (ssg < 0.0))] = 0.0
        gram = jac @ jac.T
        scale = max(float(np.trace(gram)) / 2.0, 1e-30)
        moved = None
        for _ in range(45):
            try:
                y = np.linalg.solve(gram + mu * scale * np.eye(2), -ex)
            except np.linalg.LinAlgError:
                y = -np.linalg.pinv(gram + mu * scale * np.eye(2)) @ ex
            cand = np.clip(v + _vec_to_sym(jac.T @ y, m), 0.0, 1.0)
            c1, c2 = _residuals(colored, k, _graphon(weights, cand), targets, budget)
            cex = max(max(0.0, abs(c1) - bounds[0]), max(0.0, abs(c2) - bounds[1]))
            if cex < worst * (1.0 - 1e-12):
                moved = cand
                mu = max(mu / 4.0, 1e-12)
                break
            mu *= 8.0
        if moved is None:
            break
        v = moved
        r1, r2, g1, g2 = _residuals_and_grads(colored, k, _graphon(weights, v),
                                              targets, budget)
    feasible = (abs(r1) <= bounds[0] + 1e-10 and abs(r2) <= bounds[1] + 1e-10)
    return v, r1, r2, feasible


def _banded_max(values, weights, colored, k, p, targets, bounds, budget,
                iters_per_round, mus=(1e2, 1e4, 1e6, 1e8, 1e10)):
    """Maximize weighted l2 distance to constant p subject to absolute
    residual caps ``bounds``.

    Escalating hinge penalties keep motion inside the band free of charge
    (the hinge vanishes there, so the flat residual valley cannot stall
    the distance ascent), then feasibility restoration pulls any overshoot
    back; returns (values, r1, r2, feasible).
    """
    v = values
    for mu in mus:

        def obj(x):
            a, b = _residuals(colored, k, _graphon(weights, x), targets, budget)
            h1 = max(0.0, abs(a) - bounds[0])
            h2 = max(0.0, abs(b) - bounds[1])
            return mu * (h1 * h1 + h2 * h2) - _l2sq(x, weights, p)

        def grad(x):
            a, b, g1, g2 = _residuals_and_grads(
                colored, k, _graphon(weights, x), targets, budget)
            h1 = max(0.0, abs(a) - bounds[0]) * np.sign(a)
            h2 = max(0.0, abs(b) - bounds[1]) * np.sign(b)
            return mu * (2 * h1 * g1 + 2 * h2 * g2) - _l2sq_grad(x, weights, p)

        v, _, _ = _descend(v, obj, grad, iters_per_round)
    return _restore_feasibility(v, weights, colored, k, targets, bounds, budget)


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
    Reported distances are lower bounds on the true optimum.
    """
    if not 2 <= t <= 5:
        raise ValueError(f"t must lie in [2, 5]; got {t}")
    if not 1 <= m <= 8:
        raise ValueError(f"parts must lie in [1, 8]; got {m}")
    if not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0, 1]")
    if k is None:
        k = default_doublings(t)
    deltas = sorted(float(d) for d in deltas)
    if any(d < 0 for d in deltas):
        raise ValueError("deltas must be non-negative")
    colored = complete_graph(t)
    targets = _targets(t, k, p)
    weights = np.full(m, 1.0 / m)
    rng = np.random.Generator(np.random.PCG64(seed))
    extras = [g.values for g in extra_starts if g.num_parts == m]

    rows = []
    best_feasible = None  # (distance, r1, r2, values) carried across deltas
    warm = None
    for delta in deltas:
        bounds = (delta * targets[0], delta * targets[1])
        starts = []
        if warm is not None:
            starts.append(warm.copy())
        starts.extend(x.copy() for x in extras)
        starts.append(random_near_constant(p, m, 0.02, rng).values)
        starts.append(random_near_constant(p, m, 0.3, rng).values)
        starts.append(random_near_constant(p, m, 0.5, rng).values)
        best_here = best_feasible
        for v0 in starts:
            v, r1, r2, feasible = _banded_max(
                v0, weights, colored, k, p, targets, bounds, budget,
                max_iter // 5)
            if not feasible:
                continue
            dist = float(np.sqrt(_l2sq(v, weights, p)))
            if best_here is None or dist > best_here[0]:
                best_here = (dist, r1, r2, v.copy())
        if best_here is None:
            # no feasible candidate found; fall back to the constant graphon
            v = np.full((m, m), p)
            r1, r2 = _residuals(colored, k, _graphon(weights, v), targets, budget)
            best_here = (0.0, r1, r2, v)
        rows.append(DeltaEpsilonRow(
            delta, best_here[0], best_here[1], best_here[2],
            _graphon(weights, best_here[3]),
        ))
        best_feasible = best_here
        warm = best_here[3].copy()
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
