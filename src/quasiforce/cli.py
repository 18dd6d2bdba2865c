"""Command-line surface: subcommands over the library with stable JSON IO.

Exit codes: 0 success, 2 validation failure (including unknown flags),
3 unsupported size, 4 experiment finished with non-converged trials
(partial results are still written).  Floats print with 17 significant
digits so written files round-trip bit-faithfully.
"""

from __future__ import annotations

import argparse
import os
import sys

from .density import doubling_density, graphon_density, hom_density
from .errors import UnsupportedSizeError
from .experiments import (
    contrast_experiment,
    delta_epsilon_probe,
    forcing_experiment,
)
from .graphon import StepGraphon
from .graphs import ColoredGraph, Graph, complete_graph, iterated_double
from .identities import check_identity
from .quasirandom import graph_quasirandomness
from .serialize import dump, dumps, load

__all__ = ["main", "build_parser"]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _load_colored(path: str) -> ColoredGraph:
    data = load(path)
    if isinstance(data, dict) and "classes" not in data:
        raise ValueError(
            f"{path} holds a plain graph; doubling needs color classes"
        )
    return ColoredGraph.from_dict(data)


def _load_motif(path: str) -> tuple[Graph, ColoredGraph | None]:
    data = load(path)
    if isinstance(data, dict) and "classes" in data:
        colored = ColoredGraph.from_dict(data)
        return colored.graph, colored
    return Graph.from_dict(data), None


def _cmd_doubling(args) -> int:
    if args.motif is not None:
        colored = _load_colored(args.motif)
    elif args.t is not None:
        colored = complete_graph(args.t)
    else:
        raise ValueError("provide --t or --motif")
    result = iterated_double(colored, args.k)
    print(f"{result.graph.n} vertices, {result.graph.num_edges} edges")
    if args.out:
        dump(result.to_dict(), args.out)
    return 0


def _cmd_density(args) -> int:
    if args.kt is not None:
        colored: ColoredGraph | None = complete_graph(args.kt)
        motif = colored.graph
    else:
        motif, colored = _load_motif(args.motif)
    if args.double is not None and colored is None:
        raise ValueError("--double needs a motif with color classes (or --kt)")

    if args.graph is not None:
        target = Graph.from_dict(load(args.graph))
        if args.double is not None:
            motif = iterated_double(colored, args.double).graph
        value = hom_density(motif, target)
        kind = "graph"
    else:
        graphon = StepGraphon.from_dict(load(args.graphon))
        if args.double is not None:
            value = doubling_density(colored, args.double, graphon)
        else:
            value = graphon_density(motif, graphon)
        kind = "graphon"
    print(f"{value:.17g}")
    if args.out:
        dump({"value": value, "target_kind": kind,
              "doublings": args.double}, args.out)
    return 0


def _cmd_quasirandom(args) -> int:
    g = Graph.from_dict(load(args.graph))
    report = graph_quasirandomness(
        g, args.p, mode=args.mode, exact_max_n=args.exact_max_n,
        seed=args.seed, restarts=args.restarts,
    )
    label = "exact" if report.exact else "heuristic"
    print(f"deviation {report.deviation:.17g} ({label}), "
          f"witness size {len(report.witness)}")
    if args.out:
        dump(report.to_dict(), args.out)
    return 0


def _cmd_check_identity(args) -> int:
    graphon = StepGraphon.from_dict(load(args.graphon))
    report = check_identity(
        graphon, args.p, args.t, k=args.k, include_table=not args.no_table,
    )
    print(f"max_residual {report.max_residual:.17g} "
          f"at tuple {list(report.argmax_tuple)}")
    if args.out:
        dump(report.to_dict(), args.out)
    return 0


def _parse_deltas(text: str) -> list[float]:
    try:
        deltas = [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise ValueError(f"cannot parse --deltas {text!r}") from None
    if not deltas:
        raise ValueError("--deltas must list at least one value")
    return deltas


def _emit(obj_dict: dict, csv_text: str | None, fmt: str) -> None:
    if fmt == "csv" and csv_text is not None:
        sys.stdout.write(csv_text)
    else:
        print(dumps(obj_dict))


def _cmd_experiment(args) -> int:
    out = args.out
    if out:
        os.makedirs(out, exist_ok=True)
    if args.kind == "forcing":
        result = forcing_experiment(
            args.t, args.p, args.parts, args.trials, seed=args.seed,
            tol=args.tol, adversarial=args.adversarial, k=args.k,
        )
        if out:
            dump(result.to_dict(), os.path.join(out, "forcing_result.json"))
            with open(os.path.join(out, "forcing_trials.csv"), "w") as fh:
                fh.write(result.csv_text())
        _emit(result.to_dict(), result.csv_text(), args.format)
        return 0 if result.all_converged else 4
    if args.kind == "delta-eps":
        extras = ()
        if args.parts == 2 and 0.0 < args.p < 1.0:
            # the two-part edge-and-triangle witness is a known far point;
            # feeding it in anchors the loose-constraint rows
            try:
                extras = (contrast_experiment(args.p).graphon,)
            except ValueError:
                pass  # no witness at this p; the probe runs without it
        table = delta_epsilon_probe(
            args.t, args.p, _parse_deltas(args.deltas), args.parts,
            seed=args.seed, k=args.k, extra_starts=extras,
        )
        if out:
            dump(table.to_dict(), os.path.join(out, "delta_eps.json"))
            with open(os.path.join(out, "delta_eps.csv"), "w") as fh:
                fh.write(table.csv_text())
        _emit(table.to_dict(), table.csv_text(), args.format)
        return 0
    result = contrast_experiment(args.p)
    if out:
        dump(result.to_dict(), os.path.join(out, "contrast.json"))
    _emit(result.to_dict(), None, args.format)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasiforce",
        description="Density, doubling, and quasirandomness toolkit "
                    "for graphs and step graphons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    d = sub.add_parser("doubling", help="iterate the gluing construction")
    d.add_argument("--t", type=_positive_int,
                   help="clique size; builds K_t with singleton classes")
    d.add_argument("--k", type=int, required=True,
                   help="number of classes to double, in order")
    d.add_argument("--motif", help="ColoredGraph JSON file replacing --t")
    d.add_argument("--out", help="write the doubled ColoredGraph JSON here")
    d.set_defaults(func=_cmd_doubling)

    c = sub.add_parser("density", help="homomorphism densities")
    src = c.add_mutually_exclusive_group(required=True)
    src.add_argument("--motif", help="motif graph JSON file")
    src.add_argument("--kt", type=_positive_int, help="use K_t as the motif")
    c.add_argument("--double", type=int,
                   help="double the motif this many times first")
    tgt = c.add_mutually_exclusive_group(required=True)
    tgt.add_argument("--graph", help="target graph JSON file")
    tgt.add_argument("--graphon", help="target step graphon JSON file")
    c.add_argument("--out", help="write {value: ...} JSON here")
    c.set_defaults(func=_cmd_density)

    q = sub.add_parser("quasirandom", help="subset deviation diagnostics")
    q.add_argument("--graph", required=True, help="graph JSON file")
    q.add_argument("--p", type=float, required=True, help="reference density")
    q.add_argument("--exact-max-n", type=_positive_int, default=22,
                   help="largest n checked by full enumeration")
    q.add_argument("--mode", choices=["auto", "exact", "heuristic"],
                   default="auto")
    q.add_argument("--seed", type=int, default=0,
                   help="seed for heuristic restarts")
    q.add_argument("--restarts", type=_positive_int, default=32)
    q.add_argument("--out", help="write the report JSON here")
    q.set_defaults(func=_cmd_quasirandom)

    i = sub.add_parser("check-identity",
                       help="pinned clique factorization residuals")
    i.add_argument("--graphon", required=True, help="step graphon JSON file")
    i.add_argument("--p", type=float, required=True)
    i.add_argument("--t", type=_positive_int, required=True)
    i.add_argument("--k", type=_positive_int, default=None,
                   help="pinned vertices; defaults to ceil((t+1)/2)")
    i.add_argument("--no-table", action="store_true",
                   help="omit the full per-tuple residual table")
    i.add_argument("--out", help="write the report JSON here")
    i.set_defaults(func=_cmd_check_identity)

    e = sub.add_parser("experiment", help="forcing and contrast experiments")
    e.add_argument("kind", choices=["forcing", "delta-eps", "contrast"])
    e.add_argument("--t", type=_positive_int, default=3)
    e.add_argument("--p", type=float, default=0.5)
    e.add_argument("--parts", type=_positive_int, default=4)
    e.add_argument("--trials", type=_positive_int, default=10)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--tol", type=float, default=1e-6)
    e.add_argument("--k", type=_positive_int, default=None,
                   help="doublings; defaults to ceil((t+1)/2)")
    e.add_argument("--adversarial", action="store_true",
                   help="add the distance-maximizing Pareto sweep (forcing)")
    e.add_argument("--deltas", default="0.0,0.01,0.1,1.0",
                   help="comma-separated deltas (delta-eps)")
    e.add_argument("--out", help="directory for result files")
    e.add_argument("--format", choices=["json", "csv"], default="json",
                   help="stdout payload format")
    e.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UnsupportedSizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
