"""End-to-end runs of the command line against library ground truth."""

import json
import os
import shlex
import subprocess
import sys

import numpy as np
import pytest

from quasiforce import (
    Graph,
    StepGraphon,
    complete_graph,
    constant_graphon,
    graph_quasirandomness,
    graphon_density,
    hom_density,
    iterated_double,
)
import quasiforce
from quasiforce import cli, experiments
from quasiforce.cli import main
from quasiforce.sampling import gnp
from quasiforce.serialize import dump, dumps, load


def _write(tmp_path, name, payload):
    path = str(tmp_path / name)
    dump(payload, path)
    return path


def test_doubling_stdout_and_file(tmp_path, capsys):
    out = str(tmp_path / "doubled.json")
    assert main(["doubling", "--t", "4", "--k", "3", "--out", out]) == 0
    assert capsys.readouterr().out.strip() == "20 vertices, 48 edges"
    want = iterated_double(complete_graph(4), 3).to_dict()
    assert load(out) == want


def test_doubling_from_motif_file(tmp_path, capsys):
    path = _write(tmp_path, "k2.json", complete_graph(2).to_dict())
    assert main(["doubling", "--motif", path, "--k", "2"]) == 0
    assert capsys.readouterr().out.strip() == "4 vertices, 4 edges"


def test_doubling_rejects_plain_graph(tmp_path, capsys):
    path = _write(tmp_path, "plain.json", Graph(3, ((0, 1),)).to_dict())
    assert main(["doubling", "--motif", path, "--k", "1"]) == 2
    assert "color classes" in capsys.readouterr().err


def test_doubling_k_out_of_range(capsys):
    assert main(["doubling", "--t", "4", "--k", "5"]) == 2
    assert "error:" in capsys.readouterr().err


def test_density_graphon_routes(tmp_path, capsys):
    path = _write(tmp_path, "half.json", constant_graphon(0.5, 1).to_dict())
    out = str(tmp_path / "val.json")
    assert main(["density", "--kt", "3", "--graphon", path]) == 0
    assert float(capsys.readouterr().out) == 0.125
    assert main(["density", "--kt", "3", "--double", "2",
                 "--graphon", path, "--out", out]) == 0
    assert float(capsys.readouterr().out) == 0.5**12
    data = load(out)
    assert data["value"] == 0.5**12
    assert data["target_kind"] == "graphon" and data["doublings"] == 2


def test_density_graph_target(tmp_path, capsys):
    g = gnp(12, 0.5, 5)
    motif = _write(tmp_path, "k3.json", complete_graph(3).graph.to_dict())
    target = _write(tmp_path, "g.json", g.to_dict())
    assert main(["density", "--motif", motif, "--graph", target]) == 0
    got = float(capsys.readouterr().out)
    assert got == hom_density(complete_graph(3).graph, g)


def test_density_double_needs_classes(tmp_path, capsys):
    motif = _write(tmp_path, "plain.json",
                   complete_graph(3).graph.to_dict())
    target = _write(tmp_path, "half.json", constant_graphon(0.5, 1).to_dict())
    assert main(["density", "--motif", motif, "--double", "1",
                 "--graphon", target]) == 2
    assert "color classes" in capsys.readouterr().err


def test_quasirandom_report(tmp_path, capsys):
    g = gnp(10, 0.5, 2)
    path = _write(tmp_path, "g.json", g.to_dict())
    out = str(tmp_path / "rep.json")
    assert main(["quasirandom", "--graph", path, "--p", "0.5",
                 "--out", out]) == 0
    text = capsys.readouterr().out
    assert "deviation" in text and "(exact)" in text
    rep = graph_quasirandomness(g, 0.5)
    data = load(out)
    assert data["deviation"] == rep.deviation
    assert data["exact"] is True
    assert tuple(data["witness"]) == rep.witness


def test_quasirandom_zero_restarts(tmp_path, capsys):
    # restarts=0 leaves the heuristic its eigenvector start alone
    g = gnp(30, 0.5, 4)
    path = _write(tmp_path, "g.json", g.to_dict())
    out = str(tmp_path / "rep.json")
    assert main(["quasirandom", "--graph", path, "--p", "0.5", "--mode",
                 "heuristic", "--restarts", "0", "--out", out]) == 0
    assert "(heuristic)" in capsys.readouterr().out
    rep = graph_quasirandomness(g, 0.5, mode="heuristic", restarts=0)
    assert load(out) == json.loads(dumps(rep.to_dict()))


def test_quasirandom_size_exit(tmp_path, capsys):
    path = _write(tmp_path, "big.json", Graph(30).to_dict())
    assert main(["quasirandom", "--graph", path, "--p", "0.5",
                 "--mode", "exact"]) == 3
    assert "error:" in capsys.readouterr().err
    assert main(["quasirandom", "--graph", path, "--p", "0.5",
                 "--restarts", "10001"]) == 3
    assert "restarts are capped" in capsys.readouterr().err


@pytest.mark.parametrize("weights", ["[NaN, NaN]", "[Infinity, 0.5]", "[1e400, 0.5]"])
def test_non_finite_graphon_exits_2(tmp_path, capsys, weights):
    path = tmp_path / "w.json"
    path.write_text('{"weights": %s, "values": [[0.3, 0.7], [0.7, 0.3]]}' % weights)
    assert main(["density", "--kt", "3", "--graphon", str(path)]) == 2
    assert main(["check-identity", "--graphon", str(path), "--p", "0.5",
                 "--t", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error:") == 2


# valid JSON of the wrong shape, by the kind of file it stands in for
_MALFORMED = {
    "graphon": ['{"weights": [1.0]}', "[[1.0], [[0.5]]]",
                '{"weights": [1.0], "values": [[{"a": 1}]]}'],
    "graph": ["[1, 2]", '{"n": 3}', '{"n": [3], "edges": []}',
              '{"n": 3, "edges": [[0, 1, 2]]}', '{"n": 3, "edges": 5}',
              '{"n": 3.9, "edges": [[0, 1]]}', '{"n": 3, "edges": [[0, 1.7]]}',
              '{"n": true, "edges": []}', '{"n": "3", "edges": []}'],
    "motif": ["3", '{"n": 2, "edges": [[0, 1]], "classes": 5}',
              '{"n": 2, "edges": [[0, 1]], "classes": [[0.5], [1.2]]}',
              '{"n": 2, "edges": [[true, 1]], "classes": [[0], [1]]}'],
}
_READERS = {
    "graphon": [["density", "--kt", "3", "--graphon", "BAD"],
                ["check-identity", "--graphon", "BAD", "--p", "0.5", "--t", "3"]],
    "graph": [["density", "--kt", "3", "--graph", "BAD"],
              ["quasirandom", "--graph", "BAD", "--p", "0.5"]],
    "motif": [["density", "--motif", "BAD", "--graphon", "GOOD"],
              ["doubling", "--motif", "BAD", "--k", "1"]],
}


@pytest.mark.parametrize("kind, text", [
    (kind, text) for kind, texts in _MALFORMED.items() for text in texts])
def test_malformed_input_file_exits_2(tmp_path, capsys, kind, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    good = _write(tmp_path, "w.json", constant_graphon(0.5, 1).to_dict())
    for argv in _READERS[kind]:
        argv = [{"BAD": str(bad), "GOOD": good}.get(a, a) for a in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["quasirandom", "--graph", "GRAPH", "--p", "0.5", "--seed", "-1"],
    ["experiment", "forcing", "--trials", "1", "--seed", "-1"],
    ["experiment", "delta-eps", "--parts", "2", "--seed", "-2"],
])
def test_negative_seed_exits_2_naming_the_option(tmp_path, capsys, argv):
    graph = _write(tmp_path, "g.json", gnp(40, 0.5, 0).to_dict())
    with pytest.raises(SystemExit) as exc:
        main([graph if a == "GRAPH" else a for a in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--seed" in captured.err
    assert "non-negative integer" in captured.err


def test_check_identity_worked_example(tmp_path, capsys):
    g = StepGraphon(np.array([0.5, 0.5]), np.array([[0.3, 0.7], [0.7, 0.3]]))
    path = _write(tmp_path, "w.json", g.to_dict())
    out = str(tmp_path / "rep.json")
    assert main(["check-identity", "--graphon", path, "--p", "0.5",
                 "--t", "3", "--out", out]) == 0
    text = capsys.readouterr().out
    assert "0.038000000000000006" in text and "[0, 0]" in text
    np.testing.assert_allclose(load(out)["per_tuple"],
                               [[0.038, 0.022], [0.022, 0.038]], atol=1e-12)
    assert main(["check-identity", "--graphon", path, "--p", "0.5",
                 "--t", "3", "--no-table", "--out", out]) == 0
    assert load(out)["per_tuple"] is None


def test_experiment_forcing_files(tmp_path, capsys):
    out = str(tmp_path / "run")
    # a huge tolerance converges immediately, exercising the success path
    code = main(["experiment", "forcing", "--t", "3", "--parts", "2",
                 "--trials", "2", "--tol", "2.0", "--out", out])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["num_trials"] == 2
    result = load(out + "/forcing_result.json")
    assert result["summary"]["num_converged"] == 2
    csv_text = (tmp_path / "run" / "forcing_trials.csv").read_text()
    assert csv_text.startswith("trial,r1,r2,linf,l2,cut,oscillation\n")


def test_experiment_forcing_nonconverged_exit(capsys):
    # an unreachable tolerance must still emit results, with exit code 4
    code = main(["experiment", "forcing", "--t", "3", "--parts", "2",
                 "--trials", "1", "--tol", "1e-14", "--format", "csv"])
    assert code == 4
    text = capsys.readouterr().out
    assert text.startswith("trial,r1,r2,linf,l2,cut,oscillation\n")


def test_experiment_delta_eps(tmp_path, capsys):
    out = str(tmp_path / "probe")
    code = main(["experiment", "delta-eps", "--t", "3", "--parts", "2",
                 "--deltas", "0.0", "--out", out])
    assert code == 0
    json.loads(capsys.readouterr().out)
    table = load(out + "/delta_eps.json")
    assert table["rows"][0]["delta"] == 0.0
    csv_text = (tmp_path / "probe" / "delta_eps.csv").read_text()
    assert csv_text.startswith("delta,distance,r1,r2\n")


def test_experiment_bad_deltas(capsys):
    assert main(["experiment", "delta-eps", "--deltas", "a,b"]) == 2
    assert "cannot parse" in capsys.readouterr().err
    assert main(["experiment", "delta-eps", "--deltas", ","]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "at least one value" in err
    for deltas in ("nan", "0,inf"):
        assert main(["experiment", "delta-eps", "--deltas", deltas]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "finite" in err


def test_experiment_contrast(tmp_path, capsys):
    out = str(tmp_path / "c")
    assert main(["experiment", "contrast", "--out", out]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["edge_density"] == pytest.approx(0.5, abs=1e-10)
    assert load(out + "/contrast.json") == payload


def test_density_doubled_clique_in_a_graph(tmp_path, capsys):
    # the doubled motif is expanded and counted in the graph
    g = gnp(7, 0.5, 3)
    target = _write(tmp_path, "g.json", g.to_dict())
    assert main(["density", "--kt", "3", "--double", "2", "--graph", target]) == 0
    text = capsys.readouterr().out
    assert text == "0.0005419094258414124\n"
    assert float(text) == hom_density(iterated_double(complete_graph(3), 2).graph, g)


def test_experiment_delta_eps_without_a_witness(capsys):
    # no two-part witness exists at p = 0.9, so the probe runs without one
    assert main(["experiment", "delta-eps", "--parts", "2", "--p", "0.9",
                 "--deltas", "0.0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["p"] == 0.9 and len(payload["rows"]) == 1


def test_argparse_failures():
    # --threads was a documented no-op and is gone: it is an unknown option
    for argv in ([], ["density", "--kt", "3"], ["--threads", "0",
                                                "doubling", "--t", "2",
                                                "--k", "1"],
                 ["doubling", "--t", "2", "--k", "1", "--bogus"],
                 ["experiment", "forcing", "--t", "0"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


# (kind, flag) pairs the experiment parser once accepted and ignored
_UNREAD = [
    ("forcing", "--deltas", "0.1"),
    ("delta-eps", "--trials", "2"),
    ("delta-eps", "--tol", "1e-12"),
    ("delta-eps", "--adversarial"),
    ("contrast", "--t", "5"),
    ("contrast", "--parts", "2"),
    ("contrast", "--trials", "2"),
    ("contrast", "--seed", "1"),
    ("contrast", "--tol", "1e-12"),
    ("contrast", "--k", "2"),
    ("contrast", "--adversarial"),
    ("contrast", "--deltas", "0.1"),
    ("contrast", "--format", "csv"),
]
# each kind, run fast: with the unread flag dropped it exits 0
_FAST = {"forcing": ["--parts", "2", "--trials", "1"],
         "delta-eps": ["--parts", "2", "--deltas", "1.0"], "contrast": []}


@pytest.mark.parametrize("argv", [
    ["experiment", kind, *_FAST[kind], *flag] for kind, *flag in _UNREAD
] + [["doubling", "--t", "4", "--motif", "MOTIF", "--k", "1"]], ids=[
    f"{kind}:{flag}" for kind, flag, *_ in _UNREAD] + ["doubling:--t:--motif"])
def test_unread_flags_exit_2(tmp_path, capsys, argv):
    motif = _write(tmp_path, "k3.json", complete_graph(3).to_dict())
    with pytest.raises(SystemExit) as exc:
        main([motif if a == "MOTIF" else a for a in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err


def test_refused_experiment_flag_shows_the_kind_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "delta-eps", "--tol", "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: quasiforce experiment delta-eps ")
    assert "unrecognized arguments: --tol 1" in err


@pytest.mark.parametrize("argv, flag", [
    (["experiment", "--seed", "3", "forcing"], "--seed"),
    (["experiment", "--adversarial", "forcing", "--trials", "1"], "--adversarial"),
    (["experiment", "--p=0.3", "contrast"], "--p"),
])
def test_experiment_flag_before_the_kind_is_named(capsys, argv, flag):
    # argparse would read "3" as the kind and refuse it as a bad choice
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: quasiforce experiment ")
    assert (f"argument {flag}: experiment flags go after the kind, as in: "
            f"quasiforce experiment KIND {flag} ...") in err
    assert "invalid choice" not in err


def test_experiment_help_before_the_kind_still_helps(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: quasiforce experiment ")


def test_end_of_options_before_the_kind_is_dropped(capsys):
    # argparse would read the marker as the kind and refuse it
    assert main(["experiment", "forcing", "--trials", "1"]) == 0
    want = capsys.readouterr().out
    assert main(["experiment", "--", "forcing", "--trials", "1"]) == 0
    assert capsys.readouterr().out == want
    # after the kind, the flags behind the marker are not the kind's
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "forcing", "--", "--trials", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: -- --trials 1" in capsys.readouterr().err


def test_flag_after_the_end_of_options_marker_is_named(capsys):
    # the marker before the kind is dropped, not the end of the scan
    errs = []
    for argv in (["experiment", "--seed", "3", "forcing"],
                 ["experiment", "--", "--seed", "3", "forcing"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        errs.append(capsys.readouterr().err)
    assert errs[1] == errs[0]
    assert "--seed: experiment flags go after the kind" in errs[1]


def test_readme_cli_lines_parse():
    """Every command in README's CLI block parses: a flag removed from the
    parser cannot linger in the docs."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md")) as fh:
        block = fh.read().split("## CLI", 1)[1].split("```sh\n", 1)[1]
    lines = [line for line in block.split("```", 1)[0].splitlines()
             if line.startswith("quasiforce ")]
    parser = cli.build_parser()
    commands = set()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        commands.add((args.command, getattr(args, "kind", None)))
    assert {command for command, _ in commands} == {
        "doubling", "density", "quasirandom", "check-identity", "experiment"}
    assert {kind for _, kind in commands} >= {"forcing", "delta-eps", "contrast"}


def test_experiment_forcing_trials_cap_exits_2(monkeypatch, capsys):
    def no_trial(*args, **kwargs):
        raise AssertionError("ran a trial before checking --trials")

    monkeypatch.setattr(experiments, "run_forcing_trial", no_trial)
    code = main(["experiment", "forcing", "--t", "3", "--parts", "2",
                 "--trials", str(experiments._MAX_TRIALS + 1)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and "trials" in captured.err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1e-6"])
def test_experiment_forcing_bad_tol_exits_2(capsys, tol):
    code = main(["experiment", "forcing", "--t", "3", "--parts", "2",
                 "--trials", "1", f"--tol={tol}"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and "tol" in captured.err


@pytest.mark.parametrize("experiment", ["forcing", "delta-eps"])
def test_experiment_underflowing_target_exits_2(capsys, experiment):
    code = main(["experiment", experiment, "--t", "5", "--p", "1e-5", "--k", "3",
                 "--parts", "3"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and "p=1e-05, t=5, k=3" in captured.err


def test_reused_parser_matches_fresh_parsers(monkeypatch, capsys):
    """main parses with one parser per process; a run of calls mixing
    subcommands, flags, defaults and a failure gives the exit codes and
    stdout that a fresh build_parser() gives each call."""
    forcing = ["experiment", "forcing", "--t", "3", "--parts", "2"]
    calls = [
        [*forcing, "--trials", "1", "--adversarial"],
        [*forcing, "--trials", "2", "--format", "csv"],
        [*forcing, "--trials", "1", "--tol", "nan"],
        ["doubling", "--t", "3", "--k", "2"],
        [*forcing, "--trials", "1"],
    ]

    def run_all():
        results = []
        for argv in calls:
            code = main(argv)
            results.append((code, capsys.readouterr().out))
        return results

    reused = run_all()
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert reused == run_all()
    assert [code for code, _ in reused] == [0, 0, 2, 0, 0]
    assert reused[1][1].startswith("trial,")  # the csv call printed csv
    assert json.loads(reused[4][1])["pareto"] is None  # --adversarial reset


def test_one_shot_cli_matches_in_process(capsys):
    argv = ["experiment", "forcing", "--trials", "1"]
    assert main(argv) == 0
    root = os.path.dirname(os.path.dirname(os.path.abspath(quasiforce.__file__)))
    env = dict(os.environ, PYTHONPATH=root)
    proc = subprocess.run([sys.executable, "-m", "quasiforce", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout == capsys.readouterr().out
