"""The benchmark's workloads: seeded inputs, the timed operation, and the
independent check of each operation's output.

A run draws a small pool of inputs and cycles through it until its time is
up, so each input is timed several times and a burst of host noise moves
only some of its repeats.  Chain, subset and frontier draw their pool from
the workload seed S: input i comes from seed ``S * SEED_STRIDE + i``, so
different workload seeds never share an input.  Forcing's pool is fixed,
trial seeds 0..19 of acceptance criterion 06, and S only sets which comes
first: a forcing trial costs between 10 and 500 ms depending on its trial
seed, so a seed-drawn pool moves the run's latency by more than the noise
the benchmark must resolve (benchmarks/README.md).  The warm-up always
uses WARM_SEED, which no op reaches, so set-up does the same work for
every workload seed.

``run`` is the only part that is timed.  ``check`` runs afterwards, outside
the timed region and outside tracing, and returns the list of problems
found (empty when the output is correct) plus counts the summary needs.
Checks recompute what they can through a different path than the one that
produced the value, using the library functions imported here, which the
tracer never replaces.  ``fingerprint`` reduces an output to a value that a
repeat of the same input must reproduce exactly.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
from time import perf_counter

import numpy as np

from quasiforce import (
    StepGraphon,
    complete_graph,
    graph_quasirandomness,
    graphon_density,
    identity_residual_at,
    iterated_double,
)

SEED_STRIDE = 1_000_000
WARM_SEED = SEED_STRIDE - 1

P = 0.5
TOL = 1e-6
ROUNDING = 1e-9  # relative allowance when a check recomputes a value

K3 = complete_graph(3)
# the twice-doubled K_3 as an explicit 12-edge graph: its density comes from
# plain variable elimination, independent of the gluing recursion
DOUBLED_K3 = iterated_double(K3, 2).graph
TARGETS = (P**3, P**12)


def cli_call(api, argv) -> tuple[int, str]:
    """Run the CLI in process with stdout captured; returns (exit, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = api.main(argv)
    return rc, buf.getvalue()


def _l2(graphon: StepGraphon, p: float) -> float:
    w = graphon.weights
    return math.sqrt(float((np.outer(w, w) * (graphon.values - p) ** 2).sum()))


def _close(a: float, b: float, rel: float = ROUNDING, abs_: float = 0.0) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + abs_


def _residuals(graphon: StepGraphon) -> tuple[float, float]:
    """Both residuals, the doubled one on the expanded motif."""
    return (graphon_density(K3.graph, graphon) - TARGETS[0],
            graphon_density(DOUBLED_K3, graphon) - TARGETS[1])


class Workload:
    """Defaults: one throughput unit per op, a pool of ten seed-drawn
    inputs, no workload-specific metrics."""

    units_per_op = 1
    pool_size = 10
    reference = ("interpreter", "kernels", "memory")  # see reference.py

    def pool(self, seed: int) -> list:
        base = seed * SEED_STRIDE
        return [self.op_input(base, i) for i in range(self.pool_size)]

    def summary(self, extras) -> dict:
        """Workload-specific metrics as name -> (value, unit, better)."""
        return {}


class Forcing(Workload):
    """The forcing stress test through the CLI, one trial per call."""

    name = "forcing"
    unit = "trials"
    units_per_op = 1  # trials per call
    pool_size = 20  # trial seeds 0..19
    reference = ("interpreter", "small_arrays")

    @staticmethod
    def argv(seed: int, trials: int) -> list[str]:
        return ["experiment", "forcing", "--t", "3", "--p", str(P),
                "--parts", "4", "--trials", str(trials), "--seed", str(seed)]

    def warm_up(self, api) -> None:
        cli_call(api, self.argv(WARM_SEED, 1))

    def pool(self, seed: int) -> list[int]:
        first = seed % self.pool_size
        return [*range(first, self.pool_size), *range(first)]

    def run(self, api, seed: int):
        return cli_call(api, self.argv(seed, self.units_per_op))

    def fingerprint(self, out):
        return out

    def check(self, seed: int, out) -> tuple[list[str], dict]:
        rc, text = out
        if rc not in (0, 4):  # 4 reports non-converged trials, not an error
            return [f"exit code {rc}"], {}
        trials = json.loads(text)["trials"]
        errors = []
        if [tr["seed"] for tr in trials] != list(range(seed, seed + self.units_per_op)):
            errors.append(f"trial seeds do not start at {seed}")
        converged = [tr for tr in trials if tr["converged"]]
        if (rc == 0) != (len(converged) == len(trials)):
            errors.append(f"exit code {rc} disagrees with {len(converged)} converged")
        for tr in converged:
            graphon = StepGraphon.from_dict(tr["graphon"])
            r1, r2 = _residuals(graphon)
            if max(abs(r1), abs(r2)) > TOL * (1 + ROUNDING):
                errors.append(f"trial {tr['seed']}: converged with residuals "
                              f"({r1!r}, {r2!r}) above {TOL}")
            if not _l2(graphon, P) < 0.05:
                errors.append(f"trial {tr['seed']}: l2 distance {_l2(graphon, P)!r}")
        return errors, {
            "trials": len(trials),
            "converged": len(converged),
            "iterations": sum(tr["iterations"] for tr in trials),
        }

    def summary(self, extras) -> dict:
        trials = sum(x.get("trials", 0) for x in extras)
        return {
            "converged_frac": (sum(x.get("converged", 0) for x in extras)
                               / trials if trials else 0.0, "ratio", "higher"),
        }


class Frontier(Workload):
    """The adversarial Pareto sweep and the delta-epsilon probe, one pair of
    CLI calls per op."""

    name = "frontier"
    unit = "calls"
    units_per_op = 2
    pool_size = 1  # one op takes 20-40 s
    reference = ("interpreter", "small_arrays")

    def warm_up(self, api) -> None:
        seed = str(WARM_SEED)
        cli_call(api, ["experiment", "forcing", "--t", "3", "--parts", "4",
                       "--trials", "1", "--seed", seed])
        cli_call(api, ["experiment", "delta-eps", "--t", "3", "--parts", "2",
                       "--deltas", "0.01", "--seed", seed])

    def op_input(self, base: int, j: int) -> int:
        return base + j

    def run(self, api, seed: int):
        timed = []
        for argv in (
            ["experiment", "forcing", "--t", "3", "--parts", "4", "--trials",
             "1", "--adversarial", "--seed", str(seed)],
            ["experiment", "delta-eps", "--t", "3", "--parts", "2",
             "--seed", str(seed)],
        ):
            start = perf_counter()
            rc, text = cli_call(api, argv)
            timed.append((rc, text, perf_counter() - start))
        return timed

    def fingerprint(self, out):
        return [(rc, text) for rc, text, _ in out]

    def check(self, seed: int, out) -> tuple[list[str], dict]:
        (rc1, sweep, s1), (rc2, probe, s2) = out
        errors = []
        extra = {"pareto_s": s1, "delta_eps_s": s2}
        if rc1 not in (0, 4):
            errors.append(f"Pareto sweep exit code {rc1}")
        else:
            payload = json.loads(sweep)
            dist = payload["summary"]["adversarial_distance_at_1e-8"]
            if dist is None or not dist < 0.02:
                errors.append(f"adversarial_distance_at_1e-8 is {dist!r}")
            extra["trials"] = len(payload["trials"])
            extra["iterations"] = sum(tr["iterations"] for tr in payload["trials"])
        if rc2 != 0:
            errors.append(f"delta-eps exit code {rc2}")
        else:
            rows = sorted(json.loads(probe)["rows"], key=lambda r: r["delta"])
            if [r["delta"] for r in rows] != [0.0, 0.01, 0.1, 1.0]:
                errors.append("delta-eps rows do not cover the default deltas")
            last = -math.inf
            for row in rows:
                d = row["delta"]
                if row["distance"] < last:
                    errors.append(f"distance drops at delta {d!r}")
                last = row["distance"]
                if (abs(row["r1"]) > d * TARGETS[0] + 1e-10
                        or abs(row["r2"]) > d * TARGETS[1] + 1e-10):
                    errors.append(f"row delta {d!r} leaves its (1 +/- delta) band")
                graphon = StepGraphon.from_dict(row["graphon"])
                c1, c2 = _residuals(graphon)
                if not (_close(c1, row["r1"], abs_=1e-15)
                        and _close(c2, row["r2"], abs_=1e-15)):
                    errors.append(f"row delta {d!r}: residuals do not recompute")
                if not _close(_l2(graphon, P), row["distance"], abs_=1e-15):
                    errors.append(f"row delta {d!r}: distance does not recompute")
        return errors, extra

    def summary(self, extras) -> dict:
        out = {}
        for key in ("pareto_s", "delta_eps_s"):
            vals = [x[key] for x in extras if key in x]
            out[key] = (statistics.median(vals) if vals else 0.0, "s", "lower")
        return out


class Chain(Workload):
    """The Cauchy-Schwarz chain, the identity check and a doubling gradient
    on random 5-part step graphons, t alternating 5 and 6."""

    name = "chain"
    unit = "graphons"
    parts = 5
    k = 4

    def warm_up(self, api) -> None:
        for t in (5, 6):  # one call per motif, so per-motif set-up shows here
            self.run(api, (t, self._graphon(WARM_SEED)))

    def _graphon(self, seed: int) -> StepGraphon:
        rng = np.random.Generator(np.random.PCG64(seed))
        weights = rng.dirichlet(np.ones(self.parts))
        upper = np.triu(rng.random((self.parts, self.parts)))
        return StepGraphon(weights / weights.sum(), upper + np.triu(upper, 1).T)

    def op_input(self, base: int, j: int):
        return 5 + j % 2, self._graphon(base + j)

    def run(self, api, inp):
        t, graphon = inp
        chain = api.cs_chain_check(t, self.k, graphon)
        identity = api.check_identity(graphon, P, t)
        value, grad = api.doubling_density_gradient(
            api.complete_graph(t), self.k, graphon)
        return chain, identity, value, grad

    def fingerprint(self, out):
        chain, identity, value, grad = out
        return (chain.densities, chain.slacks, identity.max_residual,
                identity.argmax_tuple, value, grad.tobytes())

    def check(self, inp, out) -> tuple[list[str], dict]:
        t, graphon = inp
        chain, identity, value, grad = out
        errors = []
        d = chain.densities
        if len(d) != self.k + 1:
            errors.append(f"{len(d)} chain densities, expected {self.k + 1}")
            return errors, {}
        for j, (slack, var) in enumerate(zip(chain.slacks, chain.variances), 1):
            if slack < -1e-12:
                errors.append(f"t={t} step {j}: negative slack {slack!r}")
            if not _close(slack, var, abs_=1e-12 * d[j]):
                errors.append(f"t={t} step {j}: slack {slack!r} != variance {var!r}")
        if not _close(value, d[self.k], abs_=1e-300):
            errors.append(f"t={t}: gradient value {value!r} != chain density {d[self.k]!r}")
        if grad.shape != (self.parts, self.parts) or not np.all(np.isfinite(grad)):
            errors.append(f"t={t}: malformed gradient")
        again = identity_residual_at(graphon, P, t, identity.k, identity.argmax_tuple)
        if not _close(again, identity.max_residual, abs_=1e-15):
            errors.append(f"t={t}: max_residual {identity.max_residual!r} "
                          f"recomputes as {again!r}")
        return errors, {}


class Subset(Workload):
    """Exact subset deviation of G(22, 1/2) samples."""

    name = "subset"
    unit = "graphs"
    reference = ("kernels", "memory")
    n = 22
    heuristic_every = 4  # heuristic-vs-exact check on this share of inputs

    def warm_up(self, api) -> None:
        self.run(api, WARM_SEED)

    def op_input(self, base: int, j: int) -> int:
        return base + j

    def run(self, api, seed: int):
        g = api.gnp(self.n, P, seed)
        return g, api.graph_quasirandomness(g, P, mode="exact")

    def fingerprint(self, out):
        g, report = out
        return sorted(g.edges), report.witness, report.deviation

    def check(self, seed: int, out) -> tuple[list[str], dict]:
        g, report = out
        errors = []
        witness = report.witness
        if not report.exact or report.n != self.n:
            errors.append("report is not an exact n=22 report")
        if list(witness) != sorted(set(witness)) or any(
                not 0 <= v < self.n for v in witness):
            errors.append(f"malformed witness {witness!r}")
        inside = set(witness)
        e = sum(1 for u, v in g.edges if u in inside and v in inside)
        size = len(inside)
        dev = abs(e - P * size * (size - 1) / 2) / self.n**2
        if not _close(dev, report.deviation, abs_=1e-15):
            errors.append(f"witness recounts to {dev!r}, reported {report.deviation!r}")
        if report.epsilon_star != report.deviation:
            errors.append("exact epsilon_star differs from the deviation")
        if seed % self.heuristic_every == 0:
            heur = graph_quasirandomness(g, P, mode="heuristic", seed=seed)
            if heur.deviation > report.deviation + 1e-15:
                errors.append(f"heuristic {heur.deviation!r} beats exact "
                              f"{report.deviation!r}")
        return errors, {}


WORKLOADS = {w.name: w for w in (Forcing(), Frontier(), Chain(), Subset())}
