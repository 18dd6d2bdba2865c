"""Span tracing at quasiforce's module boundaries, installed from outside.

The library is not edited.  A Tracer replaces the names one quasiforce
module imports from another (for example ``graphon_density`` inside
``quasiforce.experiments``) and the functions the benchmark itself calls
with wrappers that record, per layer name, the call count, inclusive time
and self time.  Self time is a span's duration minus the time its child
spans cover.  Aggregates stay in memory; nothing is written until the run
ends.
"""

from __future__ import annotations

import contextlib
import importlib
from collections import Counter
from time import perf_counter

# (module, attribute, layer) for every name one module imports from another
# on the paths the workloads run; the module is also the call site
BOUNDARIES = (
    ("quasiforce.experiments", "graphon_density", "density.graphon_density"),
    ("quasiforce.experiments", "doubling_density", "density.doubling_density"),
    ("quasiforce.experiments", "graphon_density_gradient",
     "density.graphon_density_gradient"),
    ("quasiforce.experiments", "doubling_density_gradient",
     "density.doubling_density_gradient"),
    ("quasiforce.experiments", "graphon_constancy",
     "quasirandom.graphon_constancy"),
    ("quasiforce.identities", "graphon_density", "density.graphon_density"),
    ("quasiforce.identities", "doubling_density", "density.doubling_density"),
    ("quasiforce.identities", "doubling_step_moments",
     "density.doubling_step_moments"),
    ("quasiforce.identities", "pinned_table", "density.pinned_table"),
    ("quasiforce.cli", "forcing_experiment", "experiments.forcing_experiment"),
    ("quasiforce.cli", "delta_epsilon_probe",
     "experiments.delta_epsilon_probe"),
    ("quasiforce.cli", "contrast_experiment",
     "experiments.contrast_experiment"),
    ("quasiforce.cli", "dumps", "serialize.dumps"),
)

# layer names of the public functions the benchmark calls itself
API_LAYERS = {
    "main": "cli.main",
    "cs_chain_check": "identities.cs_chain_check",
    "check_identity": "identities.check_identity",
    "doubling_density_gradient": "density.doubling_density_gradient",
    "gnp": "sampling.gnp",
    "graph_quasirandomness": "quasirandom.graph_quasirandomness",
}

DENSITY_FUNCTIONS = (
    "graphon_density",
    "doubling_density",
    "graphon_density_gradient",
    "doubling_density_gradient",
    "doubling_step_moments",
    "pinned_table",
)


class Tracer:
    """Per-layer call counts, inclusive seconds and self seconds."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.total_s: Counter = Counter()
        self.self_s: Counter = Counter()
        # calls per (call site module, layer), for ratios at one site
        self.site_calls: Counter = Counter()
        self._child_s: list[float] = []  # child time of each open span

    def wrap(self, layer: str, fn, site: str = "benchmark"):
        child_s = self._child_s

        def traced(*args, **kwargs):
            child_s.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                inner = child_s.pop()
                if child_s:
                    child_s[-1] += elapsed
                self.calls[layer] += 1
                self.total_s[layer] += elapsed
                self.self_s[layer] += elapsed - inner
                self.site_calls[site, layer] += 1

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self, api):
        """Patch the module boundaries and wrap ``api`` (a namespace of the
        functions the workloads call) for the duration of the block."""
        saved = []
        try:
            for mod_name, attr, layer in BOUNDARIES:
                mod = importlib.import_module(mod_name)
                orig = getattr(mod, attr)
                saved.append((mod, attr, orig))
                setattr(mod, attr, self.wrap(layer, orig, mod_name.split(".")[-1]))
            for attr, layer in API_LAYERS.items():
                orig = getattr(api, attr)
                saved.append((api, attr, orig))
                setattr(api, attr, self.wrap(layer, orig))
            yield self
        finally:
            for obj, attr, orig in reversed(saved):
                setattr(obj, attr, orig)

    def _self(self, prefix: str) -> float:
        return sum((s for name, s in self.self_s.items()
                    if name.startswith(prefix)), 0.0)

    def layer_metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over ``ops`` traced ops as name -> (value, unit).

        Counts and self times are per op, so that they do not grow when a
        faster program fits more ops into the run.  A layer the workload
        never reached reads 0.
        """
        out: dict[str, tuple[float, str]] = {}

        def self_ms(seconds: float) -> float:
            return seconds / ops * 1e3

        for fn in DENSITY_FUNCTIONS:
            layer = f"density.{fn}"
            n = self.calls[layer]
            out[f"{layer}.calls_per_op"] = (n / ops, "count")
            out[f"{layer}.us_per_call"] = (
                self.total_s[layer] / n * 1e6 if n else 0.0, "us")
        out["density.self_ms_per_op"] = (self_ms(self._self("density.")), "ms")
        out["experiments.self_ms_per_op"] = (
            self_ms(self._self("experiments.")), "ms")
        grads = self.site_calls["experiments", "density.doubling_density_gradient"]
        evals = self.site_calls["experiments", "density.doubling_density"]
        out["experiments.evals_per_grad"] = (
            evals / grads if grads else 0.0, "ratio")
        for layer in ("identities.cs_chain_check", "identities.check_identity",
                      "quasirandom.graphon_constancy", "sampling.gnp",
                      "serialize.dumps"):
            out[f"{layer}.self_ms_per_op"] = (self_ms(self.self_s[layer]), "ms")
        qr = "quasirandom.graph_quasirandomness"
        out[f"{qr}.calls_per_op"] = (self.calls[qr] / ops, "count")
        out[f"{qr}.self_ms_per_op"] = (self_ms(self.self_s[qr]), "ms")
        out["cli.self_ms_per_op"] = (self_ms(self.self_s["cli.main"]), "ms")
        return out
