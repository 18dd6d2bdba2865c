"""Subset-deviation checks and graphon constancy metrics."""

import os
import platform
import subprocess
import sys
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import brute_cut_distance, brute_subset_deviation
from quasiforce import (
    Graph,
    StepGraphon,
    UnsupportedSizeError,
    complete_graph,
    constant_graphon,
    contrast_experiment,
    graph_quasirandomness,
    graphon_constancy,
    row_oscillation,
)
from quasiforce import quasirandom
from quasiforce.graphon import _adjacency
from quasiforce.sampling import gnp


def _count_inside(g, subset):
    inside = set(subset)
    return sum(1 for u, v in g.edges if u in inside and v in inside)


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 10_000), p=st.floats(0.0, 1.0))
def test_exact_matches_brute_enumeration(seed, p):
    # n from 1 to 12 covers both odd and even splits into low and high halves
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 13))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    g = Graph(n, tuple(e for e in pairs if rng.random() < 0.5))
    want, witness = brute_subset_deviation(g, p)
    rep = graph_quasirandomness(g, p, mode="exact")
    assert rep.exact
    assert rep.deviation == want
    assert rep.witness == witness
    assert rep.epsilon_star == rep.deviation


def _matching(n):
    return Graph(n, tuple((2 * i, 2 * i + 1) for i in range(n // 2)))


def _star(n):
    return Graph(n, tuple((0, v) for v in range(1, n)))


@pytest.mark.parametrize("n", [1, 2, 3, 6, 7, 12])
@pytest.mark.parametrize("make", [Graph, lambda n: complete_graph(n).graph,
                                  _matching, _star],
                         ids=["empty", "complete", "matching", "star"])
@pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("one_row_blocks", [False, True])
def test_exact_breaks_ties_like_brute(monkeypatch, n, make, p, one_row_blocks):
    # these graphs tie many subsets at the maximum, so the tie-break decides;
    # one high subset per block also makes it decide between blocks
    if one_row_blocks:
        monkeypatch.setattr(quasirandom, "_BLOCK_ENTRIES", 1)
    g = make(n)
    want, witness = brute_subset_deviation(g, p)
    rep = graph_quasirandomness(g, p, mode="exact")
    assert (rep.deviation, rep.witness) == (want, witness)


@pytest.mark.parametrize("n", [13, 14])
@pytest.mark.parametrize("make", [Graph, lambda n: complete_graph(n).graph,
                                  _matching, _star, lambda n: gnp(n, 0.5, n)],
                         ids=["empty", "complete", "matching", "star", "gnp"])
@pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 1.0])
def test_pruned_search_matches_brute(monkeypatch, n, make, p):
    # with 8 or one high subsets per block the search spans 8 to 128
    # blocks, so rows are pruned between blocks, and the tie graphs make
    # rows whose bound equals the best decide the witness
    g = make(n)
    want = brute_subset_deviation(g, p)
    for entries in (quasirandom._BLOCK_ENTRIES, 8 << (n + 1) // 2, 1):
        monkeypatch.setattr(quasirandom, "_BLOCK_ENTRIES", entries)
        rep = graph_quasirandomness(g, p, mode="exact")
        assert (rep.deviation, rep.witness) == want


# (seed, deviation as float.hex, witness) of the benchmark's inputs
# gnp(22, 0.5, seed), as the unpruned meet-in-the-middle reported them
_PINNED_22 = [
    (0, "0x1.419637021d9ebp-5", (0, 1, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 16,
                                 18, 20, 21)),
    (1, "0x1.b810ecf56be6ap-6", (0, 4, 5, 6, 7, 8, 10, 11, 12, 18, 19, 20, 21)),
    (2, "0x1.d9ead7cd391fcp-6", (0, 1, 2, 3, 6, 8, 11, 12, 15, 16, 17, 18, 19)),
    (3, "0x1.0658dc08767abp-5", (0, 1, 3, 4, 5, 6, 12, 13, 14, 15, 16, 17, 18,
                                 19, 21)),
    (4, "0x1.8dc08767ab5f3p-5", (0, 1, 3, 5, 6, 7, 8, 9, 10, 11, 13, 14, 16, 17,
                                 18, 19, 20, 21)),
    (5, "0x1.0658dc08767abp-5", (0, 1, 2, 4, 6, 7, 9, 11, 12, 13, 14, 15, 16, 17,
                                 19)),
    (6, "0x1.0ecf56be69c90p-5", (0, 1, 3, 4, 5, 6, 7, 8, 9, 11, 12, 14, 16, 19,
                                 20, 21)),
    (7, "0x1.52832c6e043b4p-5", (0, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 17, 18,
                                 19, 20, 21)),
    (8, "0x1.1745d1745d174p-5", (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 15,
                                 18)),
    (9, "0x1.52832c6e043b4p-5", (0, 1, 2, 3, 4, 5, 6, 7, 9, 11, 12, 14, 15, 16,
                                 18, 19, 20)),
]


@pytest.mark.parametrize("seed, deviation, witness", _PINNED_22)
def test_exact_pins_the_benchmark_inputs(seed, deviation, witness):
    rep = graph_quasirandomness(gnp(22, 0.5, seed), 0.5, mode="exact")
    assert rep.deviation == float.fromhex(deviation)
    assert rep.witness == witness


def _spy_search(monkeypatch, g, p):
    """Run the exact search, recording the row bounds and every scored
    block with the best deviation found before it."""
    bounds, blocks = [], []
    row_bounds, score_block = quasirandom._row_bounds, quasirandom._score_block

    def spy_bounds(*args):
        bound = row_bounds(*args)
        bounds.append(bound.copy())
        return bound

    def spy_block(t, right, e_high, block, n, best, witness):
        blocks.append((block.copy(), best))
        return score_block(t, right, e_high, block, n, best, witness)

    monkeypatch.setattr(quasirandom, "_row_bounds", spy_bounds)
    monkeypatch.setattr(quasirandom, "_score_block", spy_block)
    rep = graph_quasirandomness(g, p, mode="exact")
    (bound,) = bounds
    return bound, blocks, rep


def _check_scored_rows(bound, blocks, rep, n):
    rows = max(1, quasirandom._BLOCK_ENTRIES >> (n + 1) // 2)
    seed, first = blocks[0]
    assert first == -1.0
    # the seed holds the highest bounds, never more than one block
    assert len(seed) == min(quasirandom._SEED_ROWS, rows, len(bound))
    assert bound[seed].min() >= np.delete(bound, seed).max(initial=-1.0)
    scored = np.concatenate([block for block, _ in blocks])
    assert len(np.unique(scored)) == len(scored)
    for block, best in blocks[1:]:
        assert 0 < len(block) <= rows
        assert (bound[block] >= best).all()
    # every row that can reach the final best was scored
    assert np.isin(np.flatnonzero(bound >= rep.deviation), scored).all()


@pytest.mark.parametrize("one_row_blocks", [False, True])
@pytest.mark.parametrize("seed, deviation, witness", _PINNED_22)
def test_search_scores_only_rows_the_bound_admits(monkeypatch, seed, deviation,
                                                  witness, one_row_blocks):
    if one_row_blocks:
        monkeypatch.setattr(quasirandom, "_BLOCK_ENTRIES", 1)
    bound, blocks, rep = _spy_search(monkeypatch, gnp(22, 0.5, seed), 0.5)
    assert (rep.deviation, rep.witness) == (float.fromhex(deviation), witness)
    _check_scored_rows(bound, blocks, rep, 22)


@pytest.mark.parametrize("n", [13, 14])
@pytest.mark.parametrize("make", [Graph, lambda n: complete_graph(n).graph,
                                  _matching, _star, lambda n: gnp(n, 0.5, n)],
                         ids=["empty", "complete", "matching", "star", "gnp"])
@pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 1.0])
@pytest.mark.parametrize("rows", [None, 8, 1])
def test_tie_graphs_score_only_rows_the_bound_admits(monkeypatch, n, make, p,
                                                     rows):
    # rows whose bound equals the best are scored, so the tie-break sees
    # every maximizer; with 8 or one high subsets per block the rows after
    # the seed span several blocks
    if rows is not None:
        monkeypatch.setattr(quasirandom, "_BLOCK_ENTRIES", rows << (n + 1) // 2)
    g = make(n)
    bound, blocks, rep = _spy_search(monkeypatch, g, p)
    assert (rep.deviation, rep.witness) == brute_subset_deviation(g, p)
    _check_scored_rows(bound, blocks, rep, n)


def _row_bounds_rowwise(xh, adj_hl, e_high, e_low, starts, qs, n):
    """The row-major bound: per high subset, the cumulative sums of its
    sorted edge counts along the row.  ``qs`` holds q per (high subset,
    low size) and is overwritten."""
    counts = xh @ adj_hl
    counts.sort(axis=1)
    smallest = np.zeros(qs.shape)
    np.cumsum(counts, axis=1, out=smallest[:, 1:])
    largest = smallest[:, -1:] - smallest[:, ::-1]
    smallest += np.minimum.reduceat(e_low, starts) + e_high[:, None]
    largest += np.maximum.reduceat(e_low, starts) + e_high[:, None]
    quasirandom._deviation(smallest, qs, n, out=smallest)
    quasirandom._deviation(largest, qs, n, out=qs)
    return np.maximum(qs, smallest, out=qs).max(axis=1)


@pytest.mark.parametrize("n", range(13, 27))
@pytest.mark.parametrize("p", [0.3, 0.5])
def test_size_major_bound_matches_the_row_wise_one(n, p):
    # uncached, so the hard-cap test below still builds the n = 26 tables
    t = quasirandom._exact_tables.__wrapped__(n, p)
    low, xl, xh = t.low, t.xl, t.xh
    adj = _adjacency(gnp(n, p, n))
    e_low = ((xl @ adj[:low, :low]) * xl).sum(axis=1) / 2
    e_high = ((xh @ adj[low:, low:]) * xh).sum(axis=1) / 2
    want = _row_bounds_rowwise(xh, adj[low:, :low], e_high, e_low, t.starts,
                               t.size_q.T.copy(), n)
    got = quasirandom._row_bounds(xh, adj[low:, :low], e_high, e_low, t.starts,
                                  t.tri, t.size_q.copy(), n)
    assert got.tobytes() == want.tobytes()


_FAULTS_PER_CALL = """
import resource
from quasiforce import graph_quasirandomness
from quasiforce.sampling import gnp

graphs = [gnp(22, 0.5, s) for s in range(10)]
for g in graphs[:2]:
    graph_quasirandomness(g, 0.5, mode="exact")
faults = 0
for g in graphs:
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    graph_quasirandomness(g, 0.5, mode="exact")
    faults += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(faults / len(graphs))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the page reuse relies on glibc's malloc")
def test_exact_search_reuses_its_pages():
    # each block's arrays are freed before the next block allocates its
    # own, so glibc serves every block from pages it already holds.
    # Measured 0.4 minor faults per call at n = 22; with the scoring
    # inline in the search loop, where a block's arrays live until the
    # next block has allocated, about 190.
    root = os.path.dirname(os.path.dirname(os.path.abspath(quasirandom.__file__)))
    env = dict(os.environ, PYTHONPATH=root, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _FAULTS_PER_CALL], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 20


_ALL_TIE_FAULTS = """
import resource
from quasiforce import Graph, graph_quasirandomness

g = Graph(26, ())
graph_quasirandomness(g, 0.0, mode="exact", exact_max_n=26)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
rep = graph_quasirandomness(g, 0.0, mode="exact", exact_max_n=26)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before, rep.deviation,
      rep.witness)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the page reuse relies on glibc's malloc")
def test_all_tie_search_reuses_its_pages():
    # at p = 0 every subset of the empty graph ties, so every row of every
    # block reaches the best value and is scored in full, a quarter block
    # at a time.  Measured about 1,300 minor faults per call; with a whole
    # block's hit tables at once, 384,688
    root = os.path.dirname(os.path.dirname(os.path.abspath(quasirandom.__file__)))
    env = dict(os.environ, PYTHONPATH=root, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _ALL_TIE_FAULTS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    faults, deviation, witness = proc.stdout.split(maxsplit=2)
    assert int(faults) <= 384_688 // 10
    assert (float(deviation), witness.strip()) == (0.0, "()")


@pytest.mark.parametrize("complete", [False, True])
def test_exact_at_the_hard_cap_stays_small(complete):
    # 2^26 subsets; an 8-byte table over all of them alone would be 512 MiB
    n, p = 26, 0.5
    g = Graph(n, tuple(combinations(range(n), 2)) if complete else ())
    tracemalloc.start()
    try:
        rep = graph_quasirandomness(g, p, mode="exact", exact_max_n=n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    pairs = n * (n - 1) // 2
    assert rep.deviation == ((1 - p) if complete else p) * pairs / n**2
    assert rep.witness == tuple(range(n))
    assert peak < 64 * 2**20


def test_perfect_graph_has_empty_witness():
    # at p = 1 a complete graph deviates nowhere, and the tie breaks to ()
    rep = graph_quasirandomness(complete_graph(5).graph, 1.0, mode="exact")
    assert rep.deviation == 0.0
    assert rep.witness == ()
    # an integer p reads as the same float
    assert graph_quasirandomness(complete_graph(5).graph, 1, mode="exact") == rep


def test_report_epsilon_star_dominates_the_deviation():
    with pytest.raises(ValueError, match="epsilon_star must dominate"):
        quasirandom.QuasirandomReport(4, 0.5, 0.1, 0.2, (0, 1), False)
    # within 1e-12 of the deviation, as rounding leaves it
    quasirandom.QuasirandomReport(4, 0.5, 0.2 - 1e-13, 0.2, (0, 1), False)


def test_exact_cap_enforced():
    g = Graph(25)
    with pytest.raises(UnsupportedSizeError):
        graph_quasirandomness(g, 0.5, mode="exact")
    rep = graph_quasirandomness(g, 0.5)  # auto falls back to the heuristic
    assert not rep.exact
    with pytest.raises(ValueError):
        graph_quasirandomness(g, 0.5, exact_max_n=27)


def test_heuristic_never_beats_exact():
    for seed in range(6):
        g = gnp(16, 0.4, seed)
        exact = graph_quasirandomness(g, 0.4, mode="exact")
        heur = graph_quasirandomness(g, 0.4, mode="heuristic", seed=seed)
        assert heur.deviation <= exact.deviation + 1e-12
        assert heur.epsilon_star >= heur.deviation


def test_heuristic_witness_attains_its_deviation():
    g = gnp(40, 0.5, 3)
    rep = graph_quasirandomness(g, 0.5, mode="heuristic")
    u = len(rep.witness)
    attained = abs(_count_inside(g, rep.witness) - 0.5 * u * (u - 1) / 2) / g.n**2
    assert attained == pytest.approx(rep.deviation, abs=1e-12)


# ((n, seed, restarts), deviation as float.hex, witness) of seeded heuristic
# reports on gnp(n, 0.5, seed), as eagerly drawn starts gave them; in the
# last four a random start wins, and another seed's starts report otherwise
_PINNED_HEURISTIC = [
    ((40, 0, 32), "0x1.c7ae147ae147bp-6", (0, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12,
      13, 15, 16, 17, 20, 22, 23, 25, 27, 28, 29, 30, 31, 32, 33, 34, 35, 37,
      38, 39)),
    ((12, 5, 8), "0x1.38e38e38e38e4p-5", (0, 2, 3, 5, 8, 9, 11)),
    ((12, 7, 8), "0x1.5555555555555p-5", (0, 1, 2, 4, 5, 8, 9, 10)),
    ((16, 2, 8), "0x1.7000000000000p-5", (0, 1, 2, 3, 5, 6, 10, 11, 12, 14,
      15)),
    ((16, 12, 8), "0x1.2000000000000p-5", (1, 3, 4, 5, 7, 8, 9, 10, 11, 12, 13,
      14, 15)),
]


@pytest.mark.parametrize("case, deviation, witness", _PINNED_HEURISTIC)
def test_heuristic_seeded_reports_are_pinned(case, deviation, witness):
    n, seed, restarts = case
    rep = graph_quasirandomness(gnp(n, 0.5, seed), 0.5, mode="heuristic",
                                seed=seed, restarts=restarts)
    assert rep.deviation == float.fromhex(deviation)
    assert rep.witness == witness


@pytest.mark.parametrize("name", ["exact_max_n", "seed", "restarts"])
@pytest.mark.parametrize("value", [True, False, 12.5, 3.0, "5", None])
def test_integer_arguments_are_strict(monkeypatch, name, value):
    def fail(*args):
        raise AssertionError("validation must come before any work")

    monkeypatch.setattr(quasirandom, "_adjacency", fail)
    for mode in ("auto", "exact", "heuristic"):
        with pytest.raises(ValueError, match=name):
            graph_quasirandomness(Graph(4), 0.5, mode=mode, **{name: value})


def test_integer_arguments_accept_numpy_integers():
    g = gnp(12, 0.5, 1)
    want = graph_quasirandomness(g, 0.5, mode="heuristic", seed=2, restarts=3)
    got = graph_quasirandomness(g, 0.5, mode="heuristic", seed=np.int64(2),
                                restarts=np.int32(3), exact_max_n=np.uint8(11))
    assert got == want
    assert graph_quasirandomness(g, 0.5, exact_max_n=np.int64(12)).exact


def test_negative_restarts_refused():
    with pytest.raises(ValueError, match="restarts"):
        graph_quasirandomness(gnp(8, 0.5, 0), 0.5, mode="heuristic", restarts=-3)


def test_negative_seed_refused_before_any_work(monkeypatch):
    def fail(*args):
        raise AssertionError("validation must come before any work")

    monkeypatch.setattr(quasirandom, "_adjacency", fail)
    for mode in ("auto", "exact", "heuristic"):
        for seed in (-1, np.int64(-5)):
            with pytest.raises(ValueError, match="seed"):
                graph_quasirandomness(Graph(4), 0.5, mode=mode, seed=seed)


def test_restarts_capped_before_any_work(monkeypatch):
    calls = []
    monkeypatch.setattr(quasirandom, "_heuristic_max",
                        lambda g, p, seed, restarts: calls.append(restarts)
                        or (0.0, ()))
    cap = quasirandom._MAX_RESTARTS
    g = Graph(30)
    graph_quasirandomness(g, 0.5, restarts=cap)
    assert calls == [cap]
    for mode in ("auto", "exact", "heuristic"):
        with pytest.raises(UnsupportedSizeError, match="restarts"):
            graph_quasirandomness(g, 0.5, mode=mode, restarts=cap + 1)
    assert calls == [cap]


def test_quasirandomness_validation():
    g = Graph(3, ((0, 1),))
    with pytest.raises(ValueError):
        graph_quasirandomness(g, 1.5)
    with pytest.raises(ValueError):
        graph_quasirandomness(Graph(0), 0.5)
    with pytest.raises(ValueError):
        graph_quasirandomness(g, 0.5, mode="magic")


# ---------------------------------------------------------------------------
# graphon constancy


def test_constancy_zero_on_constant():
    rep = graphon_constancy(constant_graphon(0.3, 4), 0.3)
    assert rep.linf == 0.0 and rep.l2 == 0.0 and rep.cut == 0.0
    assert rep.oscillation == 0.0


@pytest.mark.parametrize("p", [float("nan"), -0.1, 1.5])
def test_constancy_refuses_p_outside_unit_interval(p):
    with pytest.raises(ValueError, match=r"p must lie in \[0, 1\]"):
        graphon_constancy(constant_graphon(0.5, 2), p)


def test_constancy_cut_matches_brute():
    rng = np.random.default_rng(31)
    for _ in range(10):
        m = int(rng.integers(1, 5))
        vals = rng.random((m, m))
        w = rng.random(m) + 0.2
        g = StepGraphon(w / w.sum(), (vals + vals.T) / 2)
        p = float(rng.random())
        rep = graphon_constancy(g, p)
        want = brute_cut_distance(g.weights, g.values, p)
        assert rep.cut == pytest.approx(want, abs=1e-12)
        assert rep.cut <= rep.l2 + 1e-12
        assert rep.l2 <= rep.linf + 1e-12


def test_constancy_cut_none_beyond_cap():
    g = constant_graphon(0.5, 16)
    rep = graphon_constancy(g, 0.5)
    assert rep.cut is None


def test_row_oscillation():
    g = StepGraphon(
        np.array([0.5, 0.5]), np.array([[0.2, 0.9], [0.9, 0.9]])
    )
    spread, part = row_oscillation(g)
    assert spread == pytest.approx(0.7)
    assert part == 0
    assert graphon_constancy(g, 0.5).oscillation_part == 0


def test_witness_constancy_metrics():
    res = contrast_experiment(0.5)
    assert res.constancy.linf == pytest.approx(0.5, abs=1e-12)
    assert res.constancy.l2 == pytest.approx(0.3016136593425802, abs=1e-12)
