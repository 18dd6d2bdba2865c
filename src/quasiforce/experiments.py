"""Optimization experiments probing whether matched densities force constancy.

The forcing stress test samples step graphons near the constant p, then
drives the pair of densities (clique, iterated doubling) to their
p-random targets by damped least-norm (Levenberg) steps and measures how
far the solutions land from constant.  The adversarial mode and the
delta-epsilon probe instead climb away from constant while both residuals
stay inside a band: each step follows the distance gradient projected off
the two residual gradients, and the same damped steps restore the band
after it, tracing a distance-versus-residual frontier.  A two-part witness
shows the contrast: matching edge and triangle densities alone leaves
plenty of room away from constant.
"""

from __future__ import annotations

import io
import itertools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# doubling_density and the two gradient functions are no longer called
# here, but stay importable from this module: the benchmark's tracer wraps
# them under these names
from .density import (
    DEFAULT_BUDGET,
    doubling_density,  # noqa: F401
    doubling_density_gradient,  # noqa: F401
    graphon_density,
    graphon_density_gradient,  # noqa: F401
    _Doubling,
    _DoublingRun,
    _fold,
    _param_maps,
)
from .errors import _check_budget, _check_count
from .graphon import StepGraphon, constant_graphon, random_near_constant
from .graphs import Graph, ColoredGraph, complete_graph
from .identities import default_doublings
from .quasirandom import ConstancyReport, graphon_constancy, _l2sq
from .serialize import record_dict

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


def _check_problem(t: int, m: int, p: float, k: int | None) -> int:
    """Check the clique size t, the part count m, p and the doublings k,
    each an integer in its range; returns k, ceil((t+1)/2) when None."""
    _check_count("t", t)
    if not 2 <= t <= 5:
        raise ValueError(f"t must lie in [2, 5]; got {t}")
    _check_count("m", m)
    if not 1 <= m <= 8:
        raise ValueError(f"parts must lie in [1, 8]; got {m}")
    if not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0, 1]")
    if k is None:
        return default_doublings(t)
    _check_count("k", k)
    if not 1 <= k <= t:
        raise ValueError(f"k must lie in [1, t={t}]; got {k}")
    return k


class _Pair(NamedTuple):
    """Both residuals at one value matrix, with the tape of their forward
    pass for the reverse pass of _PairEvaluator.jacobian."""

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
    """Residuals of the (motif, k-times-doubled motif) pair and their
    gradients, for value matrices with fixed weights.  Every residual an
    experiment reports is one of its evaluations.

    One forward pass over the doubling base plan gives both densities: the
    base table pins classes 0..k-1 without weighting them, so summing it
    against the pinned weight products gives t(motif, W), and gluing its
    root-weighted copy level by level gives the doubled density.  Binding
    checks the base plan and every gluing level against `budget` (see
    _Doubling), so an oversized request fails before any contraction runs.

    The optimizers step over the P = m(m+1)/2 tied parameters of the
    symmetric value matrix: ``iu`` indexes them in its upper triangle and
    ``sym`` maps every entry to its parameter, so ``step[sym]`` is the
    symmetric matrix of a parameter step (density._param_maps), and
    density._fold sums an ordered-entry gradient onto them.  ``weights``
    and ``targets`` are the ones bound.
    """

    def __init__(self, colored: ColoredGraph, k: int, weights: np.ndarray,
                 targets, budget: int):
        self._doubling = _Doubling(colored, k, weights, budget)
        self.weights, self.targets = weights, targets
        self.iu, self.sym = _param_maps(weights.size)[:2]
        # both base-table adjoints of jacobian: r1's is the base weights,
        # shaped as the base table once here; r2's is filled in per call
        self._bars = np.empty((2, *self._doubling.base_roots.shape))
        self._bars[0] = self._doubling.base_weights.reshape(self._bars.shape[1:])

    def __call__(self, values: np.ndarray) -> _Pair:
        """Both residuals at `values`, which must already be symmetric with
        entries in [0, 1], as every optimizer iterate is: the start comes
        from a validated StepGraphon and each step is a symmetric update
        clipped to the box."""
        run = self._doubling.forward(values, keep_tape=True)
        d1 = float(self._doubling.base_weights @ run.tape[-1].reshape(-1))
        return _Pair(d1 - self.targets[0], float(run.table[()]) - self.targets[1],
                     run)

    def jacobian(self, pair: _Pair) -> np.ndarray:
        """The (2, P) gradients of r1 and r2 in the tied parameters, by one
        reverse pass over the pair's tape from both base-table adjoints.
        r1 is the base table summed against fixed weights, so its adjoint
        needs no gluing pass."""
        self._bars[1] = self._doubling.base_adjoint(pair.run)
        return _fold(self._doubling.gradient(pair.run, self._bars))


def _sum_sq(e1: float, e2: float) -> float:
    return e1 * e1 + e2 * e2


def _worst(e1: float, e2: float) -> float:
    return max(abs(e1), abs(e2))


# damped steps between the stall checks of _solve
_WINDOW = 25


def _solve(values: np.ndarray, pair_eval: _PairEvaluator, band, merit,
           tol: float, max_iter: int):
    """Drive the signed excess e of both residuals beyond `band` toward
    zero by adaptively damped least-norm (Levenberg) steps.  Returns
    (values, pair, steps, stop_reason) once the larger excess is at most
    `tol` ("tol"), after `max_iter` steps ("cap"), when progress stalls
    ("slow"), or when no damping gives an acceptable step ("no_step").

    Each step solves (J J^T + mu s I) y = -e over the tied upper triangle
    parameters, where s = trace(J J^T) / 2, floored at 1e-30, makes mu
    relative to the Jacobian's scale.  A step is accepted only when
    ``merit(*e)`` drops, shrinking mu after accepted steps and inflating
    it on rejection.  The damping matters because the two gradient rows
    become nearly parallel along the flat valley, where the undamped
    least-norm direction blows up; near the solution the Jacobian loses
    rank and progress is linear rather than quadratic.  Coordinates
    pinned at 0 or 1 whose descent direction points outside the box are
    dropped from the Jacobian, otherwise clipping invalidates the step
    model; an iterate with no coordinate at 0 or 1 drops none, so that
    mask is built only on a face, which the 0/1 mask of the corner test
    below already tells.  A candidate that clipping lands on a
    corner of the box (every coordinate at 0 or 1) is accepted only when
    its largest excess is at most `tol`: at a 0/1 graphon the gradients
    of both densities can vanish in every coordinate free to move, a
    saddle no later step leaves, and the first, nearly undamped steps
    from a start far above p otherwise clip onto one and stop there.  A
    zero band drives toward the exact targets.

    Every `_WINDOW` steps the merit, which every accepted step lowers, is
    compared with its value a window earlier.  Progress near a solution
    is linear and only slows along the flat valley, so if the window's
    decay rate cannot bring the merit down to ``merit(tol, 0)`` in the
    steps left, no later rate will; no finite rate reaches tol = 0.
    """
    iu, sym, eye = pair_eval.iu, pair_eval.sym, np.eye(2)
    goal = merit(tol, 0.0)
    window_f = None
    v = values.copy()
    pair = pair_eval(v)
    e = pair.excess(band)
    on_face = bool(((v == 0.0) | (v == 1.0)).any())
    mu = 1e-8
    for it in itertools.count():
        if _worst(*e) <= tol:
            return v, pair, it, "tol"
        if it == max_iter:
            return v, pair, it, "cap"
        if it % _WINDOW == 0:
            f = merit(*e)
            if window_f is not None and (
                    goal == 0.0
                    or math.log(window_f / f) / _WINDOW * (max_iter - it)
                    < math.log(f / goal)):
                return v, pair, it, "slow"
            window_f = f
        jac = pair_eval.jacobian(pair)
        if on_face:  # some coordinate of v is at 0 or 1
            vv = v[iu]
            ssg = 2 * e[0] * jac[0] + 2 * e[1] * jac[1]
            jac[:, ((vv <= 0.0) & (ssg > 0.0)) | ((vv >= 1.0) & (ssg < 0.0))] = 0.0
        rhs = -np.array(e)
        gram = jac @ jac.T
        scale = max(float(gram[0, 0] + gram[1, 1]) / 2.0, 1e-30)
        best = merit(*e)
        for _ in range(45):
            damped = gram + mu * scale * eye
            # gram is positive semidefinite, so mu * scale * I keeps every
            # pivot of the solve above zero
            y = np.linalg.solve(damped, rhs)
            cand = v + (jac.T @ y)[sym]
            # clamped to the box as np.clip does, signed zeros included
            np.minimum(np.maximum(0.0, cand, out=cand), 1.0, out=cand)
            cand_pair = pair_eval(cand)
            cand_e = cand_pair.excess(band)
            if merit(*cand_e) < best * (1.0 - 1e-12):
                # the candidate's coordinates at 0 or 1: all of them make a
                # corner, any of them a face
                box = (cand == 0.0) | (cand == 1.0)
                if _worst(*cand_e) <= tol or not box.all():
                    v, pair, e, on_face = cand, cand_pair, cand_e, box.any()
                    mu = max(mu / 4.0, 1e-12)
                    break
            mu *= 8.0
        else:
            return v, pair, it, "no_step"


@dataclass(frozen=True, eq=False)
class ForcingTrial:
    """One seeded run: a random near-constant start driven to the targets.

    ``iterations`` counts accepted Levenberg steps and ``stop_reason`` says
    why they ended: "tol", "no_step", "slow" or "cap" (see _solve).
    """

    seed: int
    converged: bool
    iterations: int
    stop_reason: str
    r1: float
    r2: float
    graphon: StepGraphon
    constancy: ConstancyReport

    to_dict = record_dict


@dataclass(frozen=True, eq=False)
class ParetoPoint:
    """Distance versus residual at one point of the adversarial frontier.

    Each point is the farthest from constant that _frontier found with both
    residuals within an absolute cap, which ``lam`` holds.
    """

    lam: float
    r1: float
    r2: float
    distance_l2: float
    graphon: StepGraphon

    to_dict = record_dict


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
    """Drive both residuals to zero from one starting graphon.

    The residuals t(K_t, W) - p^e and t(doubled, W) - p^e' are solved for
    over the value matrix, with weights held fixed, by damped least-norm
    (Levenberg) steps that must lower their sum of squares; the trial
    stops once both are at most ``tol``, when no damped step is accepted,
    when the decay rate says tol cannot be reached within ``max_iter``
    steps, or at ``max_iter`` steps, and records which in
    ``stop_reason``.  A start already meeting the targets uses zero
    iterations.  ``tol`` must be finite and non-negative; no finite rate
    reaches ``tol=0``, so such a trial stops after its first stall window
    and is reported converged only when both residuals are exactly zero.
    ``t``, ``k``, the start's number of parts, ``p`` and ``seed``, which
    the trial only records, are checked as in forcing_experiment.
    """
    budget = _check_budget(budget)
    k = _check_problem(t, start.num_parts, p, k)
    _check_tol(tol)
    _check_count("max_iter", max_iter)
    _check_count("seed", seed)
    pair_eval = _PairEvaluator(complete_graph(t), k, start.weights,
                               _targets(t, k, p), budget)
    return _trial(pair_eval, start.values, seed, p, tol, max_iter)


def _trial(pair_eval: _PairEvaluator, values: np.ndarray, seed: int, p: float,
           tol: float, max_iter: int) -> ForcingTrial:
    """The forcing trial from `values` on a bound evaluator: it reports the
    residuals of the pair _solve stopped on, and converged when it stopped
    on tol."""
    values, pair, steps, stop_reason = _solve(values, pair_eval, (0.0, 0.0),
                                              _sum_sq, tol, max_iter)
    final = StepGraphon(pair_eval.weights, values)
    return ForcingTrial(seed, stop_reason == "tol", steps, stop_reason, pair.r1,
                        pair.r2, final, graphon_constancy(final, p))


def _equal_parts(t: int, k: int, p: float, m: int, budget: int) -> _PairEvaluator:
    """The pair evaluator of a frontier search: K_t and k doublings at
    their constant-p targets, over m parts of equal weight."""
    return _PairEvaluator(complete_graph(t), k, np.full(m, 1.0 / m),
                          _targets(t, k, p), budget)


def _pareto_sweep(pair_eval: _PairEvaluator, p: float,
                  seed: int) -> tuple[ParetoPoint, ...]:
    """Trace the distance-versus-residual frontier with _sweep: one point
    per residual cap of _PARETO_BANDS that some start reached.  Each
    search aims at 90% of its cap, so restoration slack cannot tip the
    recorded point past the nominal residual level."""
    caps = [(0.9 * band, 0.9 * band) for band in _PARETO_BANDS]
    points = []
    for band, (best, _) in zip(_PARETO_BANDS, _sweep(pair_eval, p, seed, caps, 400)):
        if best is not None:
            dist, r1, r2, graphon = best
            points.append(ParetoPoint(band, r1, r2, dist, graphon))
    return tuple(points)


def forcing_experiment(t: int, p: float, m: int, trials: int, seed: int = 0,
                       tol: float = 1e-6, adversarial: bool = False,
                       spread: float = 0.05, k: int | None = None,
                       max_iter: int = _MAX_ITER,
                       budget: int = DEFAULT_BUDGET) -> ForcingExperimentResult:
    """Seeded stress test of the density-matching pair at clique size t.

    Each trial perturbs the constant-p graphon (uniform noise of
    half-width ``spread``), drives it to the targets as run_forcing_trial
    does, and records residuals, the stop reason and constancy metrics;
    non-convergent trials are recorded with their final residuals.  The
    residual surface flattens quartically near the constant solution,
    where the two gradients become nearly parallel; the damped steps still
    cross that valley, so wide starts converge too (at t=3 with 2 or 4
    parts, spread 0.3 converges 20 of 20 trials), landing farther from
    constant than the default spread's.  With
    ``adversarial=True`` a frontier sweep additionally maximizes the
    distance to constant with both residuals capped at each absolute level
    of _PARETO_BANDS, tightest first, by the same search and starts as
    delta_epsilon_probe, reporting one Pareto point per cap; each cap's
    search keeps the tighter cap's point unless it finds a farther one, so
    the distances never fall as the cap loosens.
    Trial seeds are ``seed + trial index``, so results are reproducible
    and order-independent.  Every argument is checked before any trial
    runs: ``t`` in [2, 5], ``m`` in [1, 8], ``k`` in [1, t] and ``trials``
    in [1, 10000] are integers, ``tol`` is finite and non-negative, and
    ``max_iter`` and ``seed`` are non-negative integers.
    """
    budget = _check_budget(budget)
    k = _check_problem(t, m, p, k)
    _check_count("trials", trials)
    if not 1 <= trials <= _MAX_TRIALS:
        raise ValueError(f"trials must lie in [1, {_MAX_TRIALS}]; got {trials}")
    _check_tol(tol)
    _check_count("max_iter", max_iter)
    _check_count("seed", seed)
    pair_eval = _equal_parts(t, k, p, m, budget)
    done = []
    for trial_seed in range(seed, seed + trials):
        rng = np.random.Generator(np.random.PCG64(trial_seed))
        start = random_near_constant(p, m, spread, rng)
        done.append(_trial(pair_eval, start.values, trial_seed, p, tol, max_iter))
    pareto = _pareto_sweep(pair_eval, p, seed) if adversarial else None
    return ForcingExperimentResult(t, k, float(p), tol, tuple(done), pareto)


@dataclass(frozen=True, eq=False)
class DeltaEpsilonRow:
    """Largest distance to constant found with both densities within
    a (1 +/- delta) factor of their targets.

    ``feasible_starts`` counts the starts tried at this delta that ended
    inside the band.  When it is 0 and no smaller delta found a feasible
    point either, the row holds the constant graphon at distance 0, a
    fallback rather than a forcing result; that graphon is not carried
    into the next delta as a start.
    """

    delta: float
    distance: float
    r1: float
    r2: float
    feasible_starts: int
    graphon: StepGraphon

    to_dict = record_dict


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


def _restore(values, pair_eval, bounds):
    """Damped steps from `values` into the band of absolute residual caps
    `bounds`, lowering the larger excess beyond them; returns (values,
    pair) once both residuals are within 1e-10 of their caps, or None when
    _solve stops short of that (no step, a stall, or 120 steps)."""
    v, pair, _, stop_reason = _solve(values, pair_eval, bounds, _worst, 1e-10,
                                     120)
    return (v, pair) if stop_reason == "tol" else None


def _frontier(starts, weights, pair_eval, p, bounds, steps, best=None):
    """Maximize the weighted l2 distance to constant p with both residuals
    within the absolute caps `bounds`, from each start, keeping the
    farthest feasible result as (distance, r1, r2, values).  Returns that
    result, or `best` when no start beats it, and the number of starts
    that restored into the band.

    Rosen's gradient projection: each start is restored into the band,
    then takes at most `steps` ascent steps.  A step follows the gradient
    of the squared distance with its projection onto the two residual
    gradients removed, over the tied upper triangle parameters, and is
    restored into the band after clipping; it is accepted only when the
    restore succeeds and the squared distance grows by a 1e-6 relative
    margin.  The step length starts at 0.05, doubles up to 0.5 after
    success and is halved on rejection; the start stops after 30 rejected
    lengths in a row.  The residual gradients come from the tape of the
    restored point, so a step costs no forward pass beyond its candidates.
    """
    sym = pair_eval.sym
    feasible = 0
    for v in starts:
        restored = _restore(v, pair_eval, bounds)
        if restored is None:
            continue
        feasible += 1
        v, pair = restored
        f, alpha = _l2sq(v, weights, p), 0.05
        for _ in range(steps):
            jac = pair_eval.jacobian(pair)
            # the distance gradient in the ordered entries, folded
            grad = _fold(2.0 * np.outer(weights, weights) * (v - p))
            y = np.linalg.lstsq(jac @ jac.T, jac @ grad, rcond=None)[0]
            d = grad - jac.T @ y
            norm = float(np.linalg.norm(d))
            if norm == 0.0:
                break
            for _ in range(30):
                moved = _restore(np.clip(v + (alpha / norm * d)[sym], 0.0, 1.0),
                                 pair_eval, bounds)
                if moved is not None and (
                        fc := _l2sq(moved[0], weights, p)) > f * (1.0 + 1e-6):
                    (v, pair), f = moved, fc
                    alpha = min(2.0 * alpha, 0.5)
                    break
                alpha *= 0.5
            else:
                break
        dist = float(np.sqrt(f))
        if best is None or dist > best[0]:
            best = (dist, pair.r1, pair.r2, v)
    return best, feasible


def _sweep(pair_eval: _PairEvaluator, p: float, seed: int, caps, steps: int,
           extras=()):
    """_frontier over the evaluator's parts at each (r1, r2) cap pair of
    `caps` in turn, with at most `steps` ascent steps per start.  Each
    search starts from the farthest point found so far, the value matrices
    `extras` and three fresh seeded starts (spreads 0.02, 0.3, 0.5), and
    keeps that point unless a start beats it.  Returns one (best, feasible)
    per cap: best is (distance, r1, r2, graphon), None until a start
    restores into a band, and feasible counts the starts that restored
    into this one.  Each cap's graphon owns a copy of its arrays.
    """
    weights = pair_eval.weights
    rng = np.random.Generator(np.random.PCG64(seed))
    best, found = None, []
    for cap in caps:
        starts = [] if best is None else [best[3]]
        starts.extend(extras)
        starts.extend(random_near_constant(p, weights.size, spread, rng).values
                      for spread in (0.02, 0.3, 0.5))
        best, feasible = _frontier(starts, weights, pair_eval, p, cap, steps,
                                   best=best)
        found.append((None if best is None else (
            *best[:3], StepGraphon(weights, best[3])), feasible))
    return found


def delta_epsilon_probe(t: int, p: float, deltas, m: int, seed: int = 0,
                        k: int | None = None, extra_starts=(),
                        max_iter: int = 2000,
                        budget: int = DEFAULT_BUDGET) -> DeltaEpsilonTable:
    """Empirical map delta -> farthest-from-constant feasible graphon.

    For each delta (processed in increasing order) the probe maximizes the
    weighted l2 distance to constant subject to both densities lying
    within (1 +/- delta) of their targets, by gradient projection with a
    damped restore into that band after every step (see _frontier); the
    zero band admits residuals up to 1e-10.  Each delta's search starts
    from the farthest point found at a smaller delta, the ``extra_starts``
    (known graphons with m parts each; any other part count is a
    ValueError, raised before any start runs) and three fresh seeded
    starts, and keeps that point unless it finds a farther one, so the
    reported distances are non-decreasing in delta.  Each start takes at
    most ``max_iter // 5`` ascent steps; ``max_iter`` and ``seed`` must be
    non-negative integers, and ``t``, ``m`` and ``k`` are checked as in
    forcing_experiment.  Reported distances are lower bounds on the true
    optimum.  Every delta must be finite and non-negative.  Every argument
    is checked before the search binds its one pair evaluator.
    """
    budget = _check_budget(budget)
    k = _check_problem(t, m, p, k)
    _check_count("max_iter", max_iter)
    _check_count("seed", seed)
    deltas = sorted(float(d) for d in deltas)
    if not all(math.isfinite(d) and d >= 0 for d in deltas):
        raise ValueError(f"deltas must be finite and non-negative; got {deltas!r}")
    extras = [g.values for g in extra_starts]
    if any(len(v) != m for v in extras):
        raise ValueError(f"extra_starts must have m={m} parts each; got "
                         f"{[len(v) for v in extras]}")
    pair_eval = _equal_parts(t, k, p, m, budget)
    targets = pair_eval.targets
    caps = [(delta * targets[0], delta * targets[1]) for delta in deltas]
    rows = []
    for delta, (best, feasible) in zip(deltas, _sweep(
            pair_eval, p, seed, caps, max_iter // 5, extras)):
        if best is None:  # no start restored into this band or a tighter one
            flat = constant_graphon(p, m)
            best = (0.0, *pair_eval(flat.values)[:2], flat)
        dist, r1, r2, graphon = best
        rows.append(DeltaEpsilonRow(delta, dist, r1, r2, feasible, graphon))
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

    to_dict = record_dict


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
    graphon = StepGraphon(np.array([0.5, 0.5]), np.array([[a, b], [b, 0.0]]))
    return graphon, b


def contrast_experiment(p: float = 0.5,
                        budget: int = DEFAULT_BUDGET) -> ContrastResult:
    """Evaluate the non-forcing witness: densities match, distance does not
    shrink."""
    budget = _check_budget(budget)
    graphon, b = non_forcing_witness(p)
    edge = graphon_density(Graph(2, [(0, 1)]), graphon, budget=budget)
    triangle = graphon_density(complete_graph(3).graph, graphon, budget=budget)
    return ContrastResult(float(p), b, graphon, edge, triangle,
                          graphon_constancy(graphon, p))
