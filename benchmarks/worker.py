"""One fresh benchmark process: set up, measure one workload, check outputs.

Started by run.py with PYTHONPATH pointing at the checkout's ``src`` and
the BLAS pools capped at one thread.  Prints one JSON object as its last
line of standard output.

    python3 benchmarks/worker.py --workload W --seed S --setup-only
    python3 benchmarks/worker.py --workload W --seed S --seconds N --trace 0|1
"""

from time import perf_counter

START = perf_counter()  # before any import, so setup_s covers them

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import types  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402


RSS_OPS = 5  # peak_rss_mb covers set-up and this many ops


def _api():
    """The public functions the workloads call, in a namespace the tracer
    can wrap without touching the library."""
    import quasiforce
    from quasiforce import cli

    return types.SimpleNamespace(
        main=cli.main,
        cs_chain_check=quasiforce.cs_chain_check,
        check_identity=quasiforce.check_identity,
        doubling_density_gradient=quasiforce.doubling_density_gradient,
        complete_graph=quasiforce.complete_graph,
        gnp=quasiforce.gnp,
        graph_quasirandomness=quasiforce.graph_quasirandomness,
    )


class Record(NamedTuple):
    key: int  # position of the input in the workload's pool
    inp: object
    out: object  # the output, or the exception the op raised
    seconds: float
    rss_mb: float  # peak RSS of the process so far
    ref_seconds: float  # the reference, timed just before the op


def run_ops(workload, api, ops, reference, seconds=None):
    """Run ``ops``, an iterable of (key, input), each after one timed run of
    ``reference``, until ``ops`` runs out or, when ``seconds`` is given,
    until that much time has passed (always at least one op).  Returns
    ([Record], wall seconds)."""
    records = []
    start = perf_counter()
    for key, inp in ops:
        if records and seconds is not None and perf_counter() - start >= seconds:
            break
        t0 = perf_counter()
        reference.run()
        ref = perf_counter() - t0
        t0 = perf_counter()
        try:
            out = workload.run(api, inp)
        except Exception:  # the op failed; the check phase counts it
            out = RuntimeError(traceback.format_exc(limit=3))
        elapsed = perf_counter() - t0
        # ru_maxrss is in KiB on Linux
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        records.append(Record(key, inp, out, elapsed, rss, ref))
    return records, perf_counter() - start


def check_all(workload, records):
    """Check every op's output; returns (failure messages, per-op extras),
    the extras in the order of ``records``.

    The first output of each input gets the workload's full check.  A
    repeat must reproduce that output's fingerprint exactly and shares its
    extras.
    """
    failures, extras, first = [], [], {}
    for rec in records:
        if isinstance(rec.out, Exception):
            failures.append(f"op raised: {rec.out}")
            extras.append({})
            continue
        try:
            if rec.key in first:
                seen, extra = first[rec.key]
                errors = ([] if workload.fingerprint(rec.out) == seen else
                          [f"input {rec.key}: output differs from its first run"])
            else:
                errors, extra = workload.check(rec.inp, rec.out)
                first[rec.key] = workload.fingerprint(rec.out), extra
        except Exception as exc:  # malformed output the check cannot read
            errors, extra = [f"unreadable output: {exc!r}"], {}
        failures += errors[:1]  # one failure per op
        extras.append(extra)
    return failures, extras


def pooled_latency_ms(records) -> float:
    """The median latency of each input over its repeats, averaged over the
    inputs: a burst of host noise moves only the repeats it overlaps."""
    by_key = defaultdict(list)
    for rec in records:
        by_key[rec.key].append(rec.seconds)
    return statistics.fmean(statistics.median(v) for v in by_key.values()) * 1e3


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import numpy
    import quasiforce

    src = Path.cwd().resolve() / "src"
    if not Path(quasiforce.__file__).resolve().is_relative_to(src):
        print(f"error: quasiforce imported from {quasiforce.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2

    from reference import Reference
    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    api = _api()
    workload.warm_up(api)
    setup_s = perf_counter() - START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    ops = itertools.cycle(enumerate(workload.pool(args.seed)))
    reference = Reference(workload.reference)
    reference.run()
    result = {
        "setup_s": setup_s,
        "unit": workload.unit,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    if args.trace:
        # untraced first half, then a traced replay of the same ops: the
        # ratio of the two walls is the tracing overhead
        records, plain_wall = run_ops(workload, api, ops, reference,
                                       args.seconds / 2)
        tracer = Tracer()
        with tracer.installed(api):
            replay, wall = run_ops(workload, api,
                                   [(r.key, r.inp) for r in records], reference)
        # the replay's outputs must repeat the untraced ones
        failures, extras = check_all(workload, records + replay)
        extras = extras[len(records):]
        records += replay
        layers = tracer.layer_metrics(len(replay))
        trials = sum(x.get("trials", 0) for x in extras)
        layers["experiments.iterations_per_trial"] = (
            sum(x.get("iterations", 0) for x in extras) / trials
            if trials else 0.0, "count")
        layers["trace_overhead_frac"] = (wall / plain_wall - 1.0, "ratio")
        result["layers"] = layers
        result["traced_ops"] = len(replay)
    else:
        records, wall = run_ops(workload, api, ops, reference, args.seconds)
        failures, extras = check_all(workload, records)
        op_ms = [r.seconds * 1e3 for r in records]
        result.update({
            # heap growth makes the peak creep with the op count, so read it
            # at a fixed op count that a run at any speed reaches
            "peak_rss_mb": records[:RSS_OPS][-1].rss_mb,
            "op_ms": pooled_latency_ms(records),
            "ref_ms": statistics.median(r.ref_seconds for r in records) * 1e3,
            "pool_inputs": len({r.key for r in records}),
            "wall_s": wall,
            "ops_per_s": workload.units_per_op * len(records) / wall,
            "op_p50_ms": statistics.median(op_ms),
            "op_p90_ms": (statistics.quantiles(op_ms, n=10, method="inclusive")[8]
                          if len(op_ms) > 1 else op_ms[0]),
            "summary": workload.summary(extras),
        })
    result.update({
        "ops": len(records),
        "failed": len(failures),
        "failures": failures[:20],
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
