"""Tests of the benchmark itself (not part of the library's test suite).

    PYTHONPATH=src python3 -m pytest -q benchmarks

Checks that corrupted outputs count as failed, that tracing attributes
self time correctly, that a run prints every metric BENCHMARK.json and
benchmarks/README.md name, and that a directory without the source tree
is refused.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from reference import Reference  # noqa: E402
from tracing import Tracer  # noqa: E402
from worker import Record, _api, check_all, pooled_latency_ms, run_ops  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _one_op(name: str, j: int = 0):
    workload = WORKLOADS[name]
    inp = workload.pool(0)[j]
    return workload, inp, workload.run(_api(), inp)


def _record(inp, out, key: int = 0, seconds: float = 0.0) -> Record:
    return Record(key, inp, out, seconds, 0.0, 0.0)


def _failures(workload, inp, out) -> int:
    return len(check_all(workload, [_record(inp, out)])[0])


def test_forcing_corrupted_graphon_fails():
    workload, seed, (rc, text) = _one_op("forcing", 1)  # trial 1 converges
    assert _failures(workload, seed, (rc, text)) == 0
    payload = json.loads(text)
    trial = next(tr for tr in payload["trials"] if tr["converged"])
    values = trial["graphon"]["values"]
    values[0][1] = values[1][0] = values[0][1] + 0.05
    assert _failures(workload, seed, (rc, json.dumps(payload))) == 1
    assert _failures(workload, seed, (2, text)) == 1
    assert _failures(workload, seed, (rc, "not json")) == 1


def test_chain_corrupted_record_fails():
    workload, inp, (chain, identity, value, grad) = _one_op("chain", 1)
    assert _failures(workload, inp, (chain, identity, value, grad)) == 0
    assert _failures(workload, inp, (chain, identity, value * (1 + 1e-6), grad)) == 1
    bad_slack = dataclasses.replace(chain, slacks=(-1e-9,) + chain.slacks[1:])
    assert _failures(workload, inp, (bad_slack, identity, value, grad)) == 1
    bad_identity = dataclasses.replace(identity, max_residual=identity.max_residual * 1.01)
    assert _failures(workload, inp, (chain, bad_identity, value, grad)) == 1


def test_subset_corrupted_report_fails():
    workload, seed, (g, report) = _one_op("subset")
    assert seed % workload.heuristic_every == 0  # the heuristic check runs too
    assert _failures(workload, seed, (g, report)) == 0
    shifted = report.deviation + 1 / 22**2
    bad = dataclasses.replace(report, deviation=shifted, epsilon_star=shifted)
    assert _failures(workload, seed, (g, bad)) == 1


def test_frontier_corrupted_payloads_fail():
    workload = WORKLOADS["frontier"]
    row = {"delta": 0.0, "distance": 0.0, "r1": 0.0, "r2": 0.0,
           "graphon": {"weights": [0.5, 0.5], "values": [[0.5, 0.5], [0.5, 0.5]]}}
    sweep = json.dumps({"summary": {"adversarial_distance_at_1e-8": 0.01},
                        "trials": []})
    rows = [dict(row, delta=d) for d in (0.0, 0.01, 0.1, 1.0)]
    probe = json.dumps({"rows": rows})
    assert _failures(workload, 0, [(0, sweep, 1.0), (0, probe, 1.0)]) == 0
    far = json.dumps({"summary": {"adversarial_distance_at_1e-8": 0.5},
                      "trials": []})
    assert _failures(workload, 0, [(0, far, 1.0), (0, probe, 1.0)]) == 1
    off_band = json.dumps({"rows": [dict(rows[0], r1=1e-3)] + rows[1:]})
    assert _failures(workload, 0, [(0, sweep, 1.0), (0, off_band, 1.0)]) == 1
    missing = json.dumps({"rows": rows[1:]})
    assert _failures(workload, 0, [(0, sweep, 1.0), (0, missing, 1.0)]) == 1


def test_raising_op_counts_as_failed():
    class Broken:
        def run(self, api, inp):
            raise ValueError("boom")

    records, _ = run_ops(Broken(), None, [(0, 1), (1, 2)],
                         Reference(("interpreter",)))
    failures, _ = check_all(Broken(), records)
    assert len(failures) == 2 and "boom" in failures[0]


def test_repeat_with_another_output_fails():
    workload, seed, (rc, text) = _one_op("forcing", 1)
    same = [_record(seed, (rc, text)), _record(seed, (rc, text))]
    assert check_all(workload, same)[0] == []
    changed = text.replace('"converged": true', '"converged": false')
    assert changed != text
    other = [_record(seed, (rc, text)), _record(seed, (rc, changed))]
    failures, _ = check_all(workload, other)
    assert len(failures) == 1 and "differs" in failures[0]


def test_pooled_latency_is_mean_of_per_input_medians():
    records = [_record(None, None, key, s) for key, s in
               [(0, 0.1), (1, 0.3), (0, 0.2), (1, 0.3), (0, 9.0)]]
    assert pooled_latency_ms(records) == pytest.approx((200 + 300) / 2)


def test_tracer_self_time_excludes_children():
    tracer = Tracer()

    def leaf():
        time.sleep(0.02)

    api = _api()
    inner = tracer.wrap("density.graphon_density", leaf)

    def outer():
        inner()
        time.sleep(0.01)

    tracer.wrap("cli.main", outer)()
    assert tracer.calls["density.graphon_density"] == 1
    assert tracer.self_s["cli.main"] == pytest.approx(
        tracer.total_s["cli.main"] - tracer.total_s["density.graphon_density"])
    assert 0.005 < tracer.self_s["cli.main"] < 0.02
    main = api.main
    with tracer.installed(api):
        import quasiforce.experiments as ex
        assert ex.graphon_density.__wrapped__ is not None
        assert api.main.__wrapped__ is main
    assert not hasattr(ex.graphon_density, "__wrapped__")
    assert api.main is main


def _run(workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)


def _printed(stdout: str) -> tuple[dict, dict]:
    """The metric lines ("  name value unit ...") and the env record that
    a run prints above its result line."""
    metrics, env = {}, None
    for line in stdout.splitlines()[:-1]:
        if line.startswith("env "):
            env = json.loads(line[4:])
        elif line.startswith("  "):
            name, value, unit, *_ = line.split()
            metrics[name] = (float(value), unit)
    return metrics, env


# metrics the README lists beyond BENCHMARK.json's bounded ones
EXTRA = {"forcing": {"converged_frac"}, "frontier": {"pareto_s", "delta_eps_s"},
         "chain": set(), "subset": set()}


@pytest.mark.parametrize("workload", ["forcing", "frontier", "chain", "subset"])
def test_run_emits_every_metric(workload):
    proc = _run(workload, 0)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert list(last["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]
        assert last["metrics"][m["name"]]["value"] > 0
    printed, env = _printed(proc.stdout)
    wanted = {m["name"] for m in SPEC["end_to_end"]} | {
        "op_ms", "ref_ms", "ops_per_s", "wall_s", "op_p50_ms", "op_p90_ms",
        "failed_frac"} | EXTRA[workload]
    assert wanted <= set(printed)
    for key in ("git_sha", "python", "numpy", "nproc", "cpu_model",
                "blas_env", "workload_seed"):
        assert key in env
    assert env["blas_env"]["OPENBLAS_NUM_THREADS"] == "1"
    assert env["workload_seed"] == 3


@pytest.mark.parametrize("workload", ["forcing", "chain", "subset"])
def test_traced_run_emits_every_layer_metric(workload):
    proc = _run(workload, 1)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"]
    metrics = last["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    busy = {"forcing": "experiments.iterations_per_trial",
            "chain": "identities.cs_chain_check.self_ms_per_op",
            "subset": "quasirandom.graph_quasirandomness.self_ms_per_op"}[workload]
    assert metrics[busy]["value"] > 0
    assert _printed(proc.stdout)[0].keys() >= metrics.keys()


def test_refuses_a_directory_without_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "chain", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

