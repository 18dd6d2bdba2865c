"""Benchmark entry point: one workload, measured in fresh processes.

    python3 benchmarks/run.py --workload forcing --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout.  Each run starts fresh worker
processes (benchmarks/worker.py) with PYTHONPATH set to the checkout's
``src`` and every BLAS pool capped at one thread.  With ``--trace 0`` it
times set-up in several fresh processes, measures the workload with
tracing off and prints the end-to-end metrics; with ``--trace 1`` it
prints the per-layer metrics of a traced run instead.  A human-readable
report and the environment come first; the last line of standard output
is the JSON result.  See benchmarks/README.md for the workloads and the
meaning of every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 9  # extra fresh processes timing set-up only
TIME_LIMIT_S = 170.0  # a run must end within 180 s
WORKLOAD_NAMES = ("forcing", "frontier", "chain", "subset")


class BenchError(Exception):
    pass


def _worker(root: Path, args: list[str], deadline: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **BLAS_ENV)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args], cwd=root, env=env,
            capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} ran past the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _environment(root: Path, seed: int, result: dict) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        git_sha = sha.stdout.strip() if sha.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        git_sha = None
    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_sha": git_sha,
        "python": result["python"],
        "numpy": result["numpy"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas_env": result["blas_env"],
        "workload_seed": seed,
    }


def _report(name: str, value: float, unit: str, better: str, note: str = "") -> None:
    print(f"  {name:<50} {value:>14.6g} {unit:<6} {better:<6} {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    root = Path.cwd()
    if not (root / "src" / "quasiforce" / "__init__.py").is_file():
        print(f"error: {root} holds no quasiforce source tree (src/quasiforce)",
              file=sys.stderr)
        return 2
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + TIME_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = [] if args.trace else [
            _worker(root, [*common, "--setup-only"], deadline)["setup_s"]
            for _ in range(SETUP_PROBES)]
        result = _worker(root, [*common, "--seconds", str(args.seconds),
                                "--trace", str(args.trace)], deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    env = _environment(root, args.seed, result)
    ops, failed = result["ops"], result["failed"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    metrics: dict[str, dict] = {}
    if args.trace:
        for name, (value, unit) in result["layers"].items():
            metrics[name] = {"value": value, "unit": unit}
        print(f"per-layer metrics over a traced replay of "
              f"{result['traced_ops']} ops")
        better = {m["name"]: m["better"] for m in spec["per_layer"]}
        for name, m in metrics.items():
            _report(name, m["value"], m["unit"], better.get(name, ""))
        names = [m["name"] for m in spec["per_layer"]]
    else:
        setups.append(result["setup_s"])
        measured = {
            "setup_s": (statistics.median(setups), "s", "lower",
                        f"median of {len(setups)} fresh processes"),
            "ops_per_s": (result["ops_per_s"], "1/s", "higher",
                          f"{result['unit']} per second"),
            "op_per_ref": (result["op_ms"] / result["ref_ms"], "ratio", "lower",
                           "op_ms / ref_ms"),
            "op_ms": (result["op_ms"], "ms", "lower",
                      f"per input, median of its repeats; mean over "
                      f"{result['pool_inputs']} inputs, {ops} ops"),
            "ref_ms": (result["ref_ms"], "ms", "",
                       f"reference work beside each op, median over {ops} ops"),
            "peak_rss_mb": (result["peak_rss_mb"], "MiB", "lower",
                            "measuring worker, set-up and first 5 ops"),
            "wall_s": (result["wall_s"], "s", "lower", "measured phase"),
            "op_p50_ms": (result["op_p50_ms"], "ms", "lower",
                          f"median over {ops} ops"),
            "op_p90_ms": (result["op_p90_ms"], "ms", "lower",
                          f"over {ops} ops"
                          + ("" if ops >= 100 else ", too few to rely on")),
            "failed_frac": (failed / ops, "ratio", "lower", f"{failed} of {ops}"),
        }
        measured.update(result["summary"])
        for name, (value, unit, better, *note) in measured.items():
            metrics[name] = {"value": value, "unit": unit}
            _report(name, value, unit, better, *note)
        names = [m["name"] for m in spec["end_to_end"]]
    print("env " + json.dumps(env))
    for msg in result["failures"]:
        print(f"FAILED: {msg}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ops,
        "failed": failed,
        "metrics": {n: metrics[n] for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
