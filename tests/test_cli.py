"""End-to-end runs of the command line against library ground truth."""

import json

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
from quasiforce import experiments
from quasiforce.cli import main
from quasiforce.sampling import gnp
from quasiforce.serialize import dump, load


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


def test_quasirandom_size_exit(tmp_path, capsys):
    path = _write(tmp_path, "big.json", Graph(30).to_dict())
    assert main(["quasirandom", "--graph", path, "--p", "0.5",
                 "--mode", "exact"]) == 3
    assert "error:" in capsys.readouterr().err


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


def test_argparse_failures():
    # --threads was a documented no-op and is gone: it is an unknown option
    for argv in ([], ["density", "--kt", "3"], ["--threads", "0",
                                                "doubling", "--t", "2",
                                                "--k", "1"],
                 ["doubling", "--t", "2", "--k", "1", "--bogus"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


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
