"""Command-line surface: subcommands over the library with stable JSON IO.

Exit codes: 0 success, 2 validation failure (including unknown flags),
3 unsupported size, 4 experiment finished with non-converged trials
(partial results are still written).  Floats print with 17 significant
digits so written files round-trip bit-faithfully.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .density import doubling_density, graphon_density, hom_density
from .errors import UnsupportedSizeError
from .experiments import (
    contrast_experiment,
    delta_epsilon_probe,
    forcing_experiment,
    non_forcing_witness,
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


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be a non-negative integer")
    return value


def _load_motif(path: str, colored: bool = False) -> tuple[Graph, ColoredGraph | None]:
    """The graph in a motif file, with its coloring when the file has color
    classes; `colored` refuses a plain graph before reading its fields."""
    data = load(path)
    if isinstance(data, dict) and "classes" in data:
        motif = ColoredGraph.from_dict(data)
        return motif.graph, motif
    if colored and isinstance(data, dict):
        raise ValueError(f"{path} holds a plain graph; doubling needs color classes")
    return Graph.from_dict(data), None


def _cmd_doubling(args) -> int:
    colored = (complete_graph(args.t) if args.motif is None
               else _load_motif(args.motif, colored=True)[1])
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


def _emit(result, args, json_name: str, csv_name: str | None = None) -> None:
    """Write `result` to the --out files, then its payload to stdout: the
    CSV table under --format csv when the result has one, else the JSON.
    Each form is built once, and the CSV only when something reads it;
    --format is read only for a result with a CSV table."""
    payload = result.to_dict()
    csv_text = None
    if csv_name is not None and (args.out or args.format == "csv"):
        csv_text = result.csv_text()
    if args.out:
        dump(payload, os.path.join(args.out, json_name))
        if csv_text is not None:
            with open(os.path.join(args.out, csv_name), "w") as fh:
                fh.write(csv_text)
    if csv_text is not None and args.format == "csv":
        sys.stdout.write(csv_text)
    else:
        print(dumps(payload))


def _make_out(args) -> None:
    """Create the --out directory, before the experiment runs."""
    if args.out:
        os.makedirs(args.out, exist_ok=True)


def _cmd_forcing(args) -> int:
    _make_out(args)
    result = forcing_experiment(args.t, args.p, args.parts, args.trials, seed=args.seed,
                                tol=args.tol, adversarial=args.adversarial, k=args.k)
    _emit(result, args, "forcing_result.json", "forcing_trials.csv")
    return 0 if result.all_converged else 4


def _cmd_delta_eps(args) -> int:
    _make_out(args)
    extras = ()
    if args.parts == 2:
        # the two-part edge-and-triangle witness is a known far point;
        # feeding it in anchors the loose-constraint rows
        try:
            extras = (non_forcing_witness(args.p)[0],)
        except ValueError:
            pass  # no witness at this p (none outside (0, 1)); run without it
    table = delta_epsilon_probe(args.t, args.p, _parse_deltas(args.deltas), args.parts,
                                seed=args.seed, k=args.k, extra_starts=extras)
    _emit(table, args, "delta_eps.json", "delta_eps.csv")
    return 0


def _cmd_contrast(args) -> int:
    _make_out(args)
    _emit(contrast_experiment(args.p), args, "contrast.json")
    return 0


class _SubParser(argparse.ArgumentParser):
    """A subcommand's parser.  It refuses the arguments it does not know
    itself, so the error shows its own usage: argparse would hand them
    back up to the root parser, which reports them under the root's.

    A parser whose only argument is a nested command, named by `nested`
    (``experiment`` and its kind), takes no flag but help before that
    command, and names any other: argparse would set the flag aside and
    read its value as the command.  An end-of-options ``--`` before the
    command is dropped, and the flags after it are named all the same:
    argparse would read the marker as the command."""

    def __init__(self, *args, nested: str | None = None, **kwargs):
        super().__init__(*args, **kwargs)
        self.nested = nested

    def parse_known_args(self, args=None, namespace=None):
        if self.nested is not None:
            args = list(args)
            end = next((i for i, arg in enumerate(args) if not arg.startswith("-")),
                       len(args))
            for arg in args[:end]:
                if arg not in ("--", "-h") and not (
                        len(arg) > 2 and "--help".startswith(arg)):
                    flag, name = arg.split("=", 1)[0], self.prog.rsplit(" ", 1)[-1]
                    self.error(f"argument {flag}: {name} flags go after the "
                               f"{self.nested}, as in: {self.prog} "
                               f"{self.nested.upper()} {flag} ...")
            args = [arg for arg in args[:end] if arg != "--"] + args[end:]
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasiforce",
        description="Density, doubling, and quasirandomness toolkit "
                    "for graphs and step graphons.",
    )
    # every subcommand, and every kind of experiment, parses with _SubParser
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_SubParser)

    d = sub.add_parser("doubling", help="iterate the gluing construction")
    motif = d.add_mutually_exclusive_group(required=True)
    motif.add_argument("--t", type=_positive_int,
                       help="clique size; builds K_t with singleton classes")
    motif.add_argument("--motif", help="ColoredGraph JSON file replacing --t")
    d.add_argument("--k", type=int, required=True,
                   help="number of classes to double, in order")
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
    q.add_argument("--seed", type=_nonnegative_int, default=0,
                   help="seed for heuristic restarts")
    q.add_argument("--restarts", type=_nonnegative_int, default=32,
                   help="random heuristic starts, at most 10000")
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

    e = sub.add_parser("experiment", help="forcing and contrast experiments",
                       nested="kind")
    kinds = e.add_subparsers(dest="kind", required=True)
    # each kind takes exactly the flags it reads; shared ones come from
    # these parents: every kind reads --p and --out, the searches the rest
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--p", type=float, default=0.5)
    common.add_argument("--out", help="directory for result files")
    search = argparse.ArgumentParser(add_help=False, parents=[common])
    search.add_argument("--t", type=_positive_int, default=3)
    search.add_argument("--parts", type=_positive_int, default=4)
    search.add_argument("--seed", type=_nonnegative_int, default=0)
    search.add_argument("--k", type=_positive_int, default=None,
                        help="doublings; defaults to ceil((t+1)/2)")
    search.add_argument("--format", choices=["json", "csv"], default="json",
                        help="stdout payload format")

    f = kinds.add_parser("forcing", parents=[search])
    f.add_argument("--trials", type=_positive_int, default=10)
    f.add_argument("--tol", type=float, default=1e-6)
    f.add_argument("--adversarial", action="store_true",
                   help="add the distance-maximizing Pareto sweep (forcing)")
    f.set_defaults(func=_cmd_forcing)
    de = kinds.add_parser("delta-eps", parents=[search])
    de.add_argument("--deltas", default="0.0,0.01,0.1,1.0",
                    help="comma-separated deltas (delta-eps)")
    de.set_defaults(func=_cmd_delta_eps)
    kinds.add_parser("contrast", parents=[common]).set_defaults(func=_cmd_contrast)
    return parser


# main's parser, built on first use: argparse keeps no state between
# parse_args calls and no default is mutable, so every call can share it
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
