"""Densities, pinned tables, the doubling recursion, and gradients.

Every nontrivial value is checked against an independent brute-force
evaluation (conftest) or a closed form on constant graphons.
"""

import contextlib
import os
import platform
import string
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tracemalloc

from conftest import (
    brute_graphon_density,
    brute_graphon_density_gradient,
    brute_hom_count,
)
from quasiforce import density
from quasiforce import (
    ColoredGraph,
    Graph,
    StepGraphon,
    UnsupportedSizeError,
    complete_graph,
    check_identity,
    constant_graphon,
    cs_chain_check,
    cycle_graph,
    doubling_density,
    doubling_density_gradient,
    doubling_step_moments,
    evaluate_pinned,
    from_graph,
    gnp,
    graphon_density,
    graphon_density_gradient,
    hom_count,
    hom_density,
    iterated_double,
    pinned_density,
    pinned_table,
    random_near_constant,
)


def _random_graph(rng, n, p=0.5):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return Graph(n, tuple(e for e in pairs if rng.random() < p))


def _random_graphon(rng, m):
    vals = rng.random((m, m))
    vals = (vals + vals.T) / 2
    w = rng.random(m) + 0.2
    return StepGraphon(w / w.sum(), vals)


# ---------------------------------------------------------------------------
# hom counts


def test_hom_count_triangle_in_k4():
    k3 = complete_graph(3).graph
    k4 = complete_graph(4).graph
    assert hom_count(k3, k4) == 4 * 3 * 2
    assert hom_count(k3, k4, method="eliminate") == 24


def test_hom_count_against_brute_maps():
    rng = np.random.default_rng(3)
    for _ in range(15):
        motif = _random_graph(rng, int(rng.integers(1, 5)))
        target = _random_graph(rng, int(rng.integers(1, 6)))
        want = brute_hom_count(motif, target)
        assert hom_count(motif, target, method="brute") == want
        assert hom_count(motif, target, method="eliminate") == want


def test_hom_count_edge_cases():
    k3 = complete_graph(3).graph
    assert hom_count(Graph(0), k3) == 1
    assert hom_count(k3, Graph(0)) == 0
    with pytest.raises(ValueError):
        hom_count(k3, k3, method="nope")


def test_hom_count_big_integers():
    # 12 isolated vertices into a 40-vertex target: 40^12 overflows int64
    motif = Graph(12)
    target = complete_graph(40).graph
    assert hom_count(motif, target, method="eliminate") == 40**12
    # the 13-vertex path: every elimination step multiplies edge tables
    path = Graph(13, tuple((i, i + 1) for i in range(12)))
    count = hom_count(path, target, method="eliminate")
    assert type(count) is int
    assert count == 40 * 39**12


def test_brute_motif_cap():
    motif = Graph(13)
    with pytest.raises(UnsupportedSizeError):
        hom_count(motif, complete_graph(3).graph, method="brute")


def test_auto_eliminates_when_the_plan_fits(monkeypatch):
    def no_backtracking(*args):
        raise AssertionError("auto backtracked although elimination fits")

    monkeypatch.setattr(density, "_hom_count_brute", no_backtracking)
    target = gnp(32, 0.5, 0)
    adj = density._adjacency(target, np.int64)
    # hom(C_6, G) is the trace of the sixth power of the adjacency matrix
    want = int(np.trace(np.linalg.matrix_power(adj, 6)))
    assert hom_count(cycle_graph(6), target) == want


def test_auto_falls_back_to_backtracking():
    k4, k6 = complete_graph(4).graph, complete_graph(6).graph
    with pytest.raises(UnsupportedSizeError):
        hom_count(k4, k6, method="eliminate", budget=10)
    assert hom_count(k4, k6, budget=10) == 6 * 5 * 4 * 3
    # past the backtracking cap, auto reports elimination's refusal
    path = Graph(13, tuple((i, i + 1) for i in range(12)))
    with pytest.raises(UnsupportedSizeError, match="budget"):
        hom_count(path, k6, budget=10)


def test_hom_density_normalization():
    k2 = complete_graph(2).graph
    c5 = cycle_graph(5)
    assert hom_density(k2, c5) == 2 * 5 / 25
    with pytest.raises(ValueError):
        hom_density(k2, Graph(0))


# ---------------------------------------------------------------------------
# graphon densities


def test_graphon_density_against_brute():
    rng = np.random.default_rng(5)
    for _ in range(15):
        motif = _random_graph(rng, int(rng.integers(1, 5)))
        g = _random_graphon(rng, int(rng.integers(1, 4)))
        want = brute_graphon_density(motif, g.weights, g.values)
        assert graphon_density(motif, g) == pytest.approx(want, abs=1e-13)


def test_graphon_density_constant_closed_form():
    for t in (2, 3, 4):
        motif = complete_graph(t).graph
        e = t * (t - 1) // 2
        assert graphon_density(motif, constant_graphon(0.5, 3)) == pytest.approx(
            0.5**e, abs=1e-14
        )
    assert graphon_density(Graph(0), constant_graphon(0.3)) == 1.0


def test_graph_and_graphon_routes_agree():
    rng = np.random.default_rng(11)
    for _ in range(10):
        motif = _random_graph(rng, int(rng.integers(1, 5)))
        target = _random_graph(rng, int(rng.integers(1, 7)))
        assert graphon_density(motif, from_graph(target)) == pytest.approx(
            hom_density(motif, target), abs=1e-13
        )


# ---------------------------------------------------------------------------
# pinned densities


def test_pinned_density_fully_pinned_is_edge_product():
    g = StepGraphon(
        np.array([0.5, 0.5]), np.array([[0.2, 0.9], [0.9, 0.4]])
    )
    k3 = complete_graph(3).graph
    val = pinned_density(k3, (0, 1, 2), {0: 0, 1: 1, 2: 0}, g)
    assert val == pytest.approx(0.9 * 0.2 * 0.9, abs=1e-15)


def test_pinned_density_no_pins_matches_density():
    rng = np.random.default_rng(7)
    g = _random_graphon(rng, 3)
    motif = cycle_graph(4)
    assert pinned_density(motif, (), {}, g) == pytest.approx(
        graphon_density(motif, g), abs=1e-13
    )


def test_pinned_table_matches_pinned_density():
    rng = np.random.default_rng(9)
    g = _random_graphon(rng, 3)
    motif = complete_graph(4).graph
    table = pinned_table(motif, (1, 3), g)
    assert table.shape == (3, 3)
    for a in range(3):
        for b in range(3):
            want = pinned_density(motif, (1, 3), {1: a, 3: b}, g)
            assert table[a, b] == pytest.approx(want, abs=1e-13)


def test_pinned_validation():
    g = constant_graphon(0.5, 2)
    k3 = complete_graph(3).graph
    with pytest.raises(ValueError):
        pinned_density(k3, (0, 0), {0: 0}, g)
    with pytest.raises(ValueError):
        pinned_density(k3, (5,), {5: 0}, g)
    with pytest.raises(ValueError):
        pinned_density(k3, (0,), {}, g)
    with pytest.raises(ValueError):
        pinned_density(k3, (0,), {0: 9}, g)


def test_pinned_budget():
    g = constant_graphon(0.5, 3)
    with pytest.raises(UnsupportedSizeError):
        pinned_density(Graph(30), (), {}, g, budget=100)
    with pytest.raises(UnsupportedSizeError):
        pinned_table(complete_graph(5).graph, (0, 1, 2, 3), g, budget=10)


def test_budget_is_checked_on_every_plan_replay():
    # the plan cache is keyed without the budget: a plan compiled under the
    # default budget must still be refused under a smaller one, and a
    # refusal must not stop the next call from running
    g = constant_graphon(0.5, 3)
    k5 = complete_graph(5).graph
    pinned_table(k5, (0, 1, 2, 3), g)
    with pytest.raises(UnsupportedSizeError, match="output table"):
        pinned_table(k5, (0, 1, 2, 3), g, budget=10)
    graphon_density(k5, g)
    with pytest.raises(UnsupportedSizeError, match="intermediate table over 5"):
        graphon_density(k5, g, budget=100)
    assert graphon_density(k5, g) == pytest.approx(0.5**10, abs=1e-15)
    assert pinned_table(k5, (0, 1, 2, 3), g).shape == (3, 3, 3, 3)


def test_plan_cache_hit_is_bitwise_identical():
    rng = np.random.default_rng(31)
    g = _random_graphon(rng, 3)
    motif = cycle_graph(5)
    density._compile_plan.cache_clear()
    first = pinned_table(motif, (2, 0), g)
    misses = density._compile_plan.cache_info().misses
    again = pinned_table(motif, (2, 0), g)
    info = density._compile_plan.cache_info()
    assert info.misses == misses and info.hits >= 1
    assert again.tobytes() == first.tobytes()
    assert again is not first


def _split_plans():
    """(motif, keep, part count) of plans with split eliminations: the
    doubling base plans of K_5 and K_6 at 5 and 6 parts, and W_5 pinned on
    its rim, whose last elimination (the combine) splits too."""
    for t, m in ((5, 5), (6, 5), (5, 6), (6, 6)):
        yield complete_graph(t).graph, (0, 1, 2, 3), m
    for m in (5, 6):
        yield _wheel(5), (0, 1, 2, 3, 4), m


def test_split_eliminations_match_their_whole_contraction():
    # each elimination over 1,024 entries runs as pairwise steps on
    # layouts fixed at compile time: its result, read in the layout its
    # last step names, is the whole contraction of its operands; every
    # step over 1,024 entries whose two operands share only the letter it
    # sums is one matmul, which reads that letter last in its first
    # operand and first in its second; a smaller elimination stays one step
    first = density._FIRST_TEMP
    split = lowered = 0
    for motif, keep, m in _split_plans():
        g = _random_graphon(np.random.default_rng(37), m)
        plan = density._compile_plan(m, motif.n, motif.edges, keep)
        tape = density._forward(plan, g.values, g.weights, keep_tape=True)
        inputs = density._plan_inputs(g.values, g.weights, float)
        stored = []  # each elimination's result: (tape index, vertices as stored)
        pos = 0
        for factors, union, kept in density._eliminate(motif.n, motif.edges, keep):
            letters = dict(zip(union, string.ascii_letters))
            vertex = dict(zip(string.ascii_letters, union))
            subs, ops = [], []
            for vars_, slot in factors:
                if slot >= first:
                    index, vars_ = stored[slot - first]
                    ops.append(tape[index])
                else:
                    ops.append(inputs[slot])
                subs.append("".join(letters[x] for x in vars_))
            pairwise = m ** len(union) > 1024 and len(factors) > 1
            steps = plan[pos:pos + (len(factors) - 1 if pairwise else 1)]
            pos += len(steps)
            out = steps[-1].expr.split("->")[1]
            if not pairwise:
                assert steps[0].expr == ",".join(subs) + "->" + out
                assert not steps[0].matmul
            else:
                split += 1
                want = np.einsum(",".join(subs) + "->" + out, *ops, optimize=True)
                got = tape[pos - 1]
                assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
            for step in steps:
                *lhs, res = step.expr.replace("->", ",").split(",")
                assert len(lhs) <= 2 or not pairwise
                shared = set(lhs[0]).intersection(*lhs[1:])
                summed = set("".join(lhs)) - set(res)
                if step.matmul:
                    lowered += 1
                    (s,) = summed
                    assert shared == summed and lhs[0][-1] == s == lhs[1][0]
                    assert res == lhs[0][:-1] + lhs[1][1:]
                elif m ** len(set("".join(lhs))) > 1024:
                    assert not (len(lhs) == 2 and summed and shared == summed)
            stored.append((pos - 1, tuple(vertex[c] for c in out)))
        assert pos == len(plan)
    # K_5 splits one elimination at 5 parts, and its combine too at 6; K_6
    # two and three; W_5 its hub and its combine: one matmul per split
    # elimination that sums a vertex
    assert (split, lowered) == (12, 6)


def _whole_contraction(motif, keep, g, out_bar):
    """The table of `motif` pinned on `keep` and the gradient of
    sum(out_bar * table) in the ordered value-matrix entries, each one
    np.einsum over the whole motif (one per edge for the gradient), along
    a greedy path allowed tables of up to 2^20 entries."""
    letters = string.ascii_letters
    free = [v for v in range(motif.n) if v not in keep]
    subs = [letters[u] + letters[v] for u, v in motif.edges] + [letters[v] for v in free]
    ops = [g.values] * len(motif.edges) + [g.weights] * len(free)
    out = "".join(letters[v] for v in keep)

    def whole(expr, *operands):
        path = np.einsum_path(expr, *operands, optimize=("greedy", 1 << 20))[0]
        return np.einsum(expr, *operands, optimize=path)

    table = whole(",".join(subs) + "->" + out, *ops)
    grad = sum(whole(",".join([out, *subs[:i], *subs[i + 1:]]) + "->" + subs[i],
                     out_bar, *ops[:i], *ops[i + 1:])
               for i in range(len(motif.edges)))
    return table, grad


def _check_plan_against_whole(motif, keep, g, rng):
    plan = density._compile_plan(g.num_parts, motif.n, motif.edges, keep)
    tape = density._forward(plan, g.values, g.weights, keep_tape=True)
    out_bar = rng.random(tape[-1].shape)
    got = density._reverse(plan, tape, g.values, g.weights, out_bar)
    table, grad = _whole_contraction(motif, keep, g, out_bar)
    assert np.abs(tape[-1] - table).max() <= 1e-14 * np.abs(table).max()
    assert np.abs(got - grad).max() <= 1e-14 * np.abs(grad).max()
    return plan, grad


def test_edge_read_transposed_keeps_ordered_adjoint():
    # the path 1 - 0 - 2 pinned at its ends over 11 parts eliminates vertex
    # 0 over 1,331 entries: the edge (0, 1) alone is the matmul's first
    # operand, read as (1, 0), so its adjoint is formed transposed; the
    # ordered gradient, which is not symmetric, matches the whole one
    rng = np.random.default_rng(59)
    motif = Graph(3, ((0, 1), (0, 2)))
    plan, grad = _check_plan_against_whole(motif, (1, 2), _random_graphon(rng, 11), rng)
    adjoints = [a for step in plan if step.matmul for a in step.adjoints]
    assert adjoints == [(0, True), (1, False)]
    assert np.abs(grad - grad.T).max() > 0.1 * np.abs(grad).max()


def test_matmul_no_operand_order_can_lay_out_runs_as_einsum():
    # here a matmul's result feeds another matmul that needs it laid out
    # with one letter first and another last, and both of those come from
    # the same operand: the step runs as an einsum on its two operands
    rng = np.random.default_rng(73)
    motif = Graph(9, ((0, 1), (0, 3), (1, 4), (1, 7), (1, 8), (2, 5), (2, 6), (2, 8),
                      (3, 6), (3, 7), (4, 5), (4, 8), (5, 7), (5, 8), (6, 8)))
    plan, _ = _check_plan_against_whole(motif, (0,), _random_graphon(rng, 11), rng)
    demoted = 0
    for step in plan:
        *lhs, res = step.expr.replace("->", ",").split(",")
        summed = set("".join(lhs)) - set(res)
        if len(lhs) == 2 and summed and set(lhs[0]) & set(lhs[1]) == summed:
            demoted += not step.matmul
    assert demoted == 1 and any(step.matmul for step in plan)


def test_matmul_adjoints_match_their_einsums():
    # a matmul step and its adjoints, with a batch axis on the output
    # adjoint, against einsums; an edge matrix read transposed gets the
    # transpose of the adjoint of what the step reads: its stored order
    rng = np.random.default_rng(67)
    x, y, ybar = rng.random((4, 3)), rng.random((3, 2, 5)), rng.random((6, 4, 2, 5))
    np.testing.assert_allclose(density._matmul(x, y), np.einsum("ab,bcd->acd", x, y),
                               rtol=1e-14)
    np.testing.assert_allclose(density._matmul_adjoint(0, False, x, y, ybar),
                               np.einsum("...acd,bcd->...ab", ybar, y), rtol=1e-14)
    np.testing.assert_allclose(density._matmul_adjoint(1, False, x, y, ybar),
                               np.einsum("...acd,ab->...bcd", ybar, x), rtol=1e-14)
    e = rng.random((3, 3))
    for pos, ops in ((0, (e, y)), (1, (x, e))):
        ybar = rng.random((6,) + density._matmul(*ops).shape)
        read = density._matmul_adjoint(pos, False, *ops, ybar)
        np.testing.assert_allclose(density._matmul_adjoint(pos, True, *ops, ybar),
                                   read.swapaxes(-1, -2), rtol=1e-14)


def test_batched_reverse_through_matmuls_is_bitwise():
    # one reverse pass with a batch of adjoints equals the single passes
    # bit for bit through the matmul steps of K_6's plan at 5 parts
    rng = np.random.default_rng(71)
    g = _random_graphon(rng, 5)
    plan = density._compile_plan(5, 6, complete_graph(6).graph.edges, (0, 1, 2, 3))
    assert any(step.matmul for step in plan)
    tape = density._forward(plan, g.values, g.weights, keep_tape=True)
    bars = rng.random((3,) + tape[-1].shape)
    batched = density._reverse(plan, tape, g.values, g.weights, bars)
    for bar, got in zip(bars, batched):
        want = density._reverse(plan, tape, g.values, g.weights, bar)
        assert got.tobytes() == want.tobytes()


def _no_path_search(monkeypatch):
    """Make every contraction path search raise, np.einsum's own included."""
    def search(*args, **kwargs):
        raise AssertionError("a contraction path was searched")

    monkeypatch.setattr(np, "einsum_path", search)
    monkeypatch.setitem(np.einsum.__wrapped__.__globals__, "einsum_path", search)


def test_budget_is_checked_before_any_path_search(monkeypatch):
    # K_40 eliminates a vertex over all 40 others first: refused from the
    # table sizes alone, with no path searched for the refused plan
    _no_path_search(monkeypatch)
    with pytest.raises(UnsupportedSizeError, match="intermediate table over 40"):
        graphon_density(complete_graph(40).graph, constant_graphon(0.5, 2))


def test_warm_chain_calls_search_no_path(monkeypatch):
    rng = np.random.default_rng(41)
    g = _random_graphon(rng, 5)

    def chain_op():
        return (cs_chain_check(6, 4, g), check_identity(g, 0.5, 6),
                doubling_density_gradient(complete_graph(6), 4, g))

    warm = chain_op()
    _no_path_search(monkeypatch)
    again = chain_op()
    assert again[0] == warm[0]
    assert again[2][1].tobytes() == warm[2][1].tobytes()


def _wheel(n):
    """The wheel W_n: an n-cycle on 0..n-1 and a hub n joined to each."""
    rim = tuple(tuple(sorted((i, (i + 1) % n))) for i in range(n))
    return Graph(n + 1, rim + tuple((i, n) for i in range(n)))


def _splits(motif, m, keep=()):
    """True when some elimination of the plan runs as pairwise steps, one
    of them a matmul."""
    plan = density._compile_plan(m, motif.n, motif.edges, keep)
    return (len(plan) > len(density._eliminate(motif.n, motif.edges, keep))
            and any(step.matmul for step in plan))


def test_split_plans_against_brute():
    # at 4 parts K_6 eliminates a vertex over 4,096 entries, as does W_5
    # with its rim pinned, so their plans run pairwise steps and a matmul
    rng = np.random.default_rng(43)
    g = _random_graphon(rng, 4)
    k6, w5 = complete_graph(6).graph, _wheel(5)
    for motif in (k6, w5):
        value, grad = graphon_density_gradient(motif, g)
        want = brute_graphon_density(motif, g.weights, g.values)
        assert value == pytest.approx(want, rel=1e-13)
        brute_grad = brute_graphon_density_gradient(motif, g.weights, g.values)
        assert np.abs(grad - brute_grad).max() <= 1e-13 * np.abs(brute_grad).max()
        fd = _fd_gradient(lambda w: brute_graphon_density(motif, w.weights, w.values), g)
        assert np.abs(grad - fd).max() <= 1e-6 * np.abs(fd).max()
    assert _splits(k6, 4)
    for motif, pinned in ((k6, (0, 1)), (w5, (0, 1, 2, 3, 4))):
        assert _splits(motif, 4, pinned)
        table = pinned_table(motif, pinned, g)
        assert table.shape == (4,) * len(pinned)
        for parts in np.ndindex(table.shape):
            want = pinned_density(motif, pinned, dict(zip(pinned, parts)), g)
            assert table[parts] == pytest.approx(want, rel=1e-13)


def test_hom_count_is_exact_on_split_plans():
    # K_4 into 6 vertices eliminates over 1,296 entries: int64 counts
    k4 = complete_graph(4).graph
    target = _random_graph(np.random.default_rng(47), 6, p=0.7)
    assert _splits(k4, 6)
    assert hom_count(k4, target, method="eliminate") == brute_hom_count(k4, target)
    # with 18 isolated vertices into K_8 the count passes 2^62: exact
    # integers in object arrays, through the same split elimination and
    # its matmul
    padded = Graph(22, k4.edges)
    assert _splits(padded, 8)
    count = hom_count(padded, complete_graph(8).graph, method="eliminate")
    assert type(count) is int and count == 8 * 7 * 6 * 5 * 8**18


def test_elimination_over_its_vertex_alone_sums_it():
    # over 1,100 parts the last vertex of K_2 and P_3 is eliminated over
    # 1,100 entries from its weight and tables over that vertex alone,
    # which cannot be halved: the last of their pairwise products sums it
    rng = np.random.default_rng(79)
    n = 1100
    rows, cols = np.nonzero(np.triu(rng.random((n, n)) < 0.01, 1))
    target = Graph(n, tuple(zip(rows.tolist(), cols.tolist())))
    degrees = np.bincount(np.concatenate([rows, cols]), minlength=n)
    edge, path = complete_graph(2).graph, Graph(3, ((0, 1), (1, 2)))
    for motif in (edge, path):
        plan = density._compile_plan(n, motif.n, motif.edges, ())
        assert plan[-1].expr == "->" and plan[-2].matmul
    assert hom_count(edge, target, method="eliminate") == 2 * len(target.edges)
    assert hom_count(path, target, method="eliminate") == int((degrees ** 2).sum())
    g = _random_graphon(rng, n)
    reach = g.values @ g.weights  # each part's edge density to the rest
    assert graphon_density(edge, g) == pytest.approx(g.weights @ reach, rel=1e-13)
    assert graphon_density(path, g) == pytest.approx(g.weights @ reach**2, rel=1e-13)


def test_pinned_isolated_vertex_keeps_its_ones_operand():
    # the combine drops the ones operand of a kept vertex that an edge
    # carries, but an isolated pinned vertex has nothing else to give its
    # axis: the table is the triangle's pinned density times ones
    rng = np.random.default_rng(53)
    g = _random_graphon(rng, 3)
    motif = Graph(4, complete_graph(3).graph.edges)
    combine = density._compile_plan(3, 4, motif.edges, (0, 3))[-1]
    assert combine.operands.count(density._ONE) == 1
    table = pinned_table(motif, (0, 3), g)
    assert table.shape == (3, 3)
    row = pinned_table(complete_graph(3).graph, (0,), g)
    assert table.tobytes() == np.repeat(row[:, None], 3, axis=1).tobytes()


def test_evaluate_pinned_record():
    g = constant_graphon(0.5, 2)
    rec = evaluate_pinned(complete_graph(3).graph, (0,), {0: 1}, g)
    assert rec.assignment == ((0, 1),)
    # all three edges contribute: two at the pin plus the free-free edge
    assert rec.value == pytest.approx(0.5**3, abs=1e-14)


def test_pinned_record_checks():
    k_3 = complete_graph(3).graph
    with pytest.raises(ValueError, match="cover exactly the pinned vertices"):
        density.PinnedDensity(k_3, (0, 1), ((0, 1),), 0.5)
    for value in (-1e-9, 1.0 + 1e-9):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            density.PinnedDensity(k_3, (0,), ((0, 1),), value)


# ---------------------------------------------------------------------------
# doubling recursion


def test_doubling_density_constant_closed_form():
    g = constant_graphon(0.5, 2)
    for t in (2, 3):
        colored = complete_graph(t)
        e = t * (t - 1) // 2
        for k in range(0, t + 1):
            want = 0.5 ** ((1 << k) * e)
            assert doubling_density(colored, k, g) == pytest.approx(want, abs=1e-14)


def test_doubling_density_equals_direct_density():
    rng = np.random.default_rng(13)
    for t in (2, 3):
        colored = complete_graph(t)
        for k in (0, 1, 2):
            for m in (1, 2, 3):
                g = _random_graphon(rng, m)
                direct = graphon_density(iterated_double(colored, k).graph, g)
                assert doubling_density(colored, k, g) == pytest.approx(
                    direct, abs=1e-12
                )


def test_doubling_density_against_brute():
    rng = np.random.default_rng(17)
    g = _random_graphon(rng, 2)
    doubled = iterated_double(complete_graph(3), 2).graph
    want = brute_graphon_density(doubled, g.weights, g.values)
    assert doubling_density(complete_graph(3), 2, g) == pytest.approx(want, abs=1e-13)


# motifs whose color classes hold several vertices each
_MULTI_CLASS_MOTIFS = {
    "C6": ColoredGraph(cycle_graph(6), ((0, 3), (1, 4), (2, 5))),
    "P4": ColoredGraph(Graph(4, ((0, 1), (1, 2), (2, 3))), ((0, 2), (1, 3))),
    "C4": ColoredGraph(cycle_graph(4), ((0, 2), (1, 3))),
}


@pytest.mark.parametrize("name", sorted(_MULTI_CLASS_MOTIFS))
@pytest.mark.parametrize("m", (1, 2, 3))
def test_doubling_multi_vertex_classes(name, m):
    colored = _MULTI_CLASS_MOTIFS[name]
    rng = np.random.default_rng(37 + m)
    g = _random_graphon(rng, m)
    for k in range(colored.num_classes + 1):
        doubled = iterated_double(colored, k).graph
        want = graphon_density(doubled, g)
        assert doubling_density(colored, k, g) == pytest.approx(want, abs=1e-13)
        if m ** doubled.n <= 3**8:
            brute = brute_graphon_density(doubled, g.weights, g.values)
            assert want == pytest.approx(brute, abs=1e-13)


@pytest.mark.parametrize("name", sorted(_MULTI_CLASS_MOTIFS))
@pytest.mark.parametrize("m", (1, 2, 3))
def test_doubling_gradient_multi_vertex_classes(name, m):
    colored = _MULTI_CLASS_MOTIFS[name]
    rng = np.random.default_rng(41 + m)
    vals = 0.3 + 0.4 * rng.random((m, m))
    w = rng.random(m) + 0.2
    g = StepGraphon(w / w.sum(), (vals + vals.T) / 2)
    for k in range(colored.num_classes + 1):
        value, grad = doubling_density_gradient(colored, k, g)
        assert value == pytest.approx(doubling_density(colored, k, g), abs=1e-13)
        fd = _fd_gradient(lambda x, k=k: doubling_density(colored, k, x), g)
        scale = max(np.abs(fd).max(), 1e-9)
        assert np.abs(grad - fd).max() / scale < 1e-6


def test_doubling_validation():
    with pytest.raises(ValueError):
        doubling_density(complete_graph(3), 4, constant_graphon(0.5))


def test_step_moments_tie_to_chain():
    rng = np.random.default_rng(19)
    colored = complete_graph(3)
    g = _random_graphon(rng, 3)
    for j in (1, 2, 3):
        mean, second, var = doubling_step_moments(colored, j, g)
        assert mean == pytest.approx(doubling_density(colored, j - 1, g), abs=1e-12)
        assert second == pytest.approx(doubling_density(colored, j, g), abs=1e-12)
        assert var >= -1e-15
        assert var == pytest.approx(second - mean**2, abs=1e-12)
    with pytest.raises(ValueError):
        doubling_step_moments(colored, 0, g)


# ---------------------------------------------------------------------------
# the root-weighted recursion on skewed weights


def _skewed_graphons():
    """Dirichlet(0.2) weight draws, which put parts at weights from 5e-12 to
    1 - 5e-12, and a three-part graphon with one part at weight 1e-9: the
    root weights the gluing recursion multiplies in span many orders of
    magnitude."""
    out = []
    for seed in range(900, 906):
        rng = np.random.default_rng(seed)
        m = 2 + seed % 3
        w = rng.dirichlet(np.full(m, 0.2))
        vals = rng.random((m, m))
        out.append(StepGraphon(w / w.sum(), (vals + vals.T) / 2))
    vals = np.array([[0.9, 0.2, 0.7], [0.2, 0.4, 0.6], [0.7, 0.6, 0.1]])
    out.append(StepGraphon(np.array([1e-9, 0.4, 0.6 - 1e-9]), vals))
    return out


_SKEWED_MOTIFS = {"K2": complete_graph(2), "K3": complete_graph(3),
                  "K4": complete_graph(4), **_MULTI_CLASS_MOTIFS}


def _pinned_moments(colored, j, g):
    """Mean, second moment and variance of the density of the
    (j-1)-times-doubled motif pinned on class j-1, straight from the
    definition: its pinned table, weighted by the pinned parts' weights."""
    doubled = iterated_double(colored, j - 1)
    pinned = doubled.classes[j - 1]
    table = pinned_table(doubled.graph, pinned, g)
    d = np.ones(())
    for _ in pinned:
        d = np.multiply.outer(d, g.weights)
    mean = float((d * table).sum())
    return mean, float((d * table**2).sum()), float((d * (table - mean) ** 2).sum())


@pytest.mark.parametrize("name", sorted(_SKEWED_MOTIFS))
def test_skewed_weights_against_expanded_and_brute(name):
    colored = _SKEWED_MOTIFS[name]
    for g in _skewed_graphons():
        m = g.num_parts
        for k in range(colored.num_classes + 1):
            expanded = iterated_double(colored, k).graph
            if expanded.n > 9:
                break
            value = doubling_density(colored, k, g)
            assert value == pytest.approx(graphon_density(expanded, g),
                                          rel=1e-12, abs=0)
            if m ** expanded.n <= 3**8:
                assert value == pytest.approx(
                    brute_graphon_density(expanded, g.weights, g.values),
                    rel=1e-12, abs=0)


@pytest.mark.parametrize("t", (2, 3, 4))
def test_skewed_chain_against_expanded_and_definition(t):
    colored = complete_graph(t)
    for g in _skewed_graphons():
        rec = cs_chain_check(t, t, g)
        for j, d in enumerate(rec.densities):
            expanded = iterated_double(colored, j).graph
            if expanded.n <= 9:
                assert d == pytest.approx(graphon_density(expanded, g),
                                          rel=1e-12, abs=0)
            if g.num_parts ** expanded.n <= 3**8:
                assert d == pytest.approx(
                    brute_graphon_density(expanded, g.weights, g.values),
                    rel=1e-12, abs=0)
        for j in range(1, t + 1):
            mean, second, var = _pinned_moments(colored, j, g)
            got = doubling_step_moments(colored, j, g)
            assert got[0] == pytest.approx(mean, rel=1e-12, abs=0)
            assert got[1] == pytest.approx(second, rel=1e-12, abs=0)
            for v in (got[2], rec.variances[j - 1]):
                assert v == pytest.approx(var, rel=1e-9, abs=1e-15 * second)


@pytest.mark.parametrize("name", sorted(_SKEWED_MOTIFS))
def test_skewed_gradient_against_differences_and_brute(name):
    colored = _SKEWED_MOTIFS[name]
    for g in _skewed_graphons():
        m = g.num_parts
        for k in range(colored.num_classes + 1):
            expanded = iterated_double(colored, k).graph
            if expanded.n > 9:
                break
            value, grad = doubling_density_gradient(colored, k, g)
            assert value == pytest.approx(doubling_density(colored, k, g),
                                          rel=1e-13, abs=0)
            fd = _fd_gradient(lambda x, k=k: doubling_density(colored, k, x), g,
                              h=1e-6)
            assert np.abs(grad - fd).max() <= 1e-6 * np.abs(fd).max()
            if m ** expanded.n <= 3**8:
                # exact, so the entries of a part at weight 1e-9 are checked
                # to full relative precision too
                want = brute_graphon_density_gradient(expanded, g.weights,
                                                      g.values)
                np.testing.assert_allclose(grad, want, rtol=1e-10, atol=0)


def test_doubling_peak_memory_at_m5():
    rng = np.random.default_rng(61)
    g = _random_graphon(rng, 5)
    colored = complete_graph(5)
    doubling_density_gradient(colored, 4, g)  # compile the plan untraced
    peaks = {}
    for name, call in (("gradient", lambda: doubling_density_gradient(colored, 4, g)),
                       ("chain", lambda: cs_chain_check(5, 4, g))):
        tracemalloc.start()
        try:
            call()
            peaks[name] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    # measured 3.1 and 2.1 MiB; level k-3's whole 625 x 625 Gram, or its
    # whole adjoint gathered from the version blocks (9.6 and 6.5 MiB with
    # both), breaks these bounds
    assert peaks["gradient"] < 5.0
    assert peaks["chain"] < 5.0
    # a run with no tape reserves no room for the reverse pass's adjoint of
    # the kept rows (0.57 MiB here): 2.7 MiB with it
    doubling = density._Doubling(colored, 4, g.weights, density.DEFAULT_BUDGET)
    assert doubling.forward(g.values).rows_bar is None
    assert doubling.forward(g.values, keep_tape=True).rows_bar is not None
    _, shape = doubling.versions.tables[-1]
    assert peaks["chain"] + 8 * np.prod(shape) / 2**20 < peaks["gradient"]


_FAULTS_PER_ROUND = """
import resource
import numpy as np
from quasiforce import (StepGraphon, complete_graph, cs_chain_check,
                        doubling_density_gradient)

rng = np.random.default_rng(7)
upper = np.triu(rng.random((5, 5)))
g = StepGraphon(rng.dirichlet(np.ones(5)), upper + np.triu(upper, 1).T)


def round_():
    cs_chain_check(5, 4, g)
    doubling_density_gradient(complete_graph(5), 4, g)


for _ in range(2):
    round_()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    round_()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 10)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the page reuse relies on glibc's dynamic trim threshold")
def test_version_block_rounds_reuse_their_pages():
    # glibc hands a freed block back to the system unless it lies under
    # the trim threshold, twice the largest mapped block freed so far.  The
    # block path keeps its three largest tables in one buffer per run, so
    # that buffer sets the threshold and a round at K_5, k = 4, m = 5
    # refills pages already mapped.  Measured 0-1 faults per round; with
    # the three tables allocated apart, about 1,800.
    root = os.path.dirname(os.path.dirname(os.path.abspath(density.__file__)))
    env = dict(os.environ, PYTHONPATH=root, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _FAULTS_PER_ROUND], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 100


# ---------------------------------------------------------------------------
# gradients


def _fd_gradient(fun, graphon, h=1e-5):
    m = graphon.num_parts
    out = np.zeros((m, m))
    base_vals = graphon.values
    for i in range(m):
        for j in range(i, m):
            up = base_vals.copy()
            dn = base_vals.copy()
            up[i, j] += h
            up[j, i] = up[i, j]
            dn[i, j] -= h
            dn[j, i] = dn[i, j]
            diff = fun(StepGraphon(graphon.weights, up)) - fun(
                StepGraphon(graphon.weights, dn)
            )
            out[i, j] = out[j, i] = diff / (2 * h)
    return out


@settings(deadline=None, max_examples=15)
@given(seed=st.integers(0, 10_000))
def test_flat_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    motif = _random_graph(rng, int(rng.integers(2, 6)))
    m = int(rng.integers(1, 4))
    vals = 0.2 + 0.6 * rng.random((m, m))
    g = StepGraphon(np.full(m, 1 / m), (vals + vals.T) / 2)
    value, grad = graphon_density_gradient(motif, g)
    assert value == pytest.approx(graphon_density(motif, g), abs=1e-13)
    fd = _fd_gradient(lambda w: graphon_density(motif, w), g)
    scale = max(np.abs(fd).max(), 1e-9)
    assert np.abs(grad - fd).max() / scale < 1e-6


def test_reverse_without_edge_operand_gives_zeros():
    """A plan with no edge-matrix operand has a zero gradient, batched or
    not: the branch for a reverse pass that never meets an edge adjoint."""
    motif, g = Graph(3, ()), constant_graphon(0.5, 3)
    value, grad = graphon_density_gradient(motif, g)
    assert value == 1.0
    assert grad.shape == (3, 3) and not grad.any()
    plan = density._density_plan(motif, 3, density.DEFAULT_BUDGET)
    tape = density._forward(plan, g.values, g.weights, keep_tape=True)
    out = density._reverse(plan, tape, g.values, g.weights, np.ones(2))
    assert out.shape == (2, 3, 3) and not out.any()


def test_empty_motif_gradient():
    # no vertex: the density is the empty product 1 and moves with no value
    for m in (1, 3):
        value, grad = graphon_density_gradient(Graph(0), constant_graphon(0.5, m))
        assert value == 1.0 and type(value) is float
        assert grad.shape == (m, m) and not grad.any()


@pytest.mark.parametrize("m", range(1, 9))
def test_fold_matches_the_transpose_sum(m):
    """The one fold of an ordered-entry gradient onto the tied parameters
    is g + g^T with the diagonal kept, byte for byte, with and without
    batch axes, signed zeros included."""
    def oracle(g):
        out = g + np.swapaxes(g, -1, -2)
        i = np.arange(m)
        out[..., i, i] = g[..., i, i]
        return out

    rng = np.random.default_rng(m)
    upper = (Ellipsis, *np.triu_indices(m))
    for shape in ((m, m), (3, m, m), (2, 3, m, m)):
        for _ in range(50):
            g = rng.standard_normal(shape) * 10.0 ** rng.integers(-150, 150, shape)
            g[rng.random(shape) < 0.2] = -0.0
            want = oracle(g)
            assert density._symmetrize_param_grad(g).tobytes() == want.tobytes()
            assert density._fold(g).tobytes() == want[upper].tobytes()


def test_doubling_gradient_matches_finite_differences():
    rng = np.random.default_rng(23)
    colored = complete_graph(3)
    vals = 0.3 + 0.4 * rng.random((3, 3))
    g = StepGraphon(np.full(3, 1 / 3), (vals + vals.T) / 2)
    for k in (1, 2):
        value, grad = doubling_density_gradient(colored, k, g)
        assert value == pytest.approx(doubling_density(colored, k, g), abs=1e-13)
        fd = _fd_gradient(lambda w, k=k: doubling_density(colored, k, w), g)
        scale = max(np.abs(fd).max(), 1e-9)
        assert np.abs(grad - fd).max() / scale < 1e-6


def test_gradient_zero_doublings_matches_flat():
    rng = np.random.default_rng(29)
    # zero doublings glue nothing: the value and gradient are the plain
    # density's, bit for bit
    for t in (2, 3, 4, 5):
        colored = complete_graph(t)
        for m in (1, 2, 3, 4):
            g = _random_graphon(rng, m)
            v1, g1 = doubling_density_gradient(colored, 0, g)
            v2, g2 = graphon_density_gradient(colored.graph, g)
            assert v1 == v2 == doubling_density(colored, 0, g)
            assert v1 == graphon_density(colored.graph, g)
            assert np.array_equal(g1, g2)


@st.composite
def _colored_motifs(draw):
    """Random properly colored motifs: up to 7 vertices in 1-3 classes,
    with any subset of the edges between different classes."""
    n = draw(st.integers(1, 7))
    c = draw(st.integers(1, min(3, n)))
    colors = list(range(c)) + draw(
        st.lists(st.integers(0, c - 1), min_size=n - c, max_size=n - c))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
             if colors[u] != colors[v]]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    classes = tuple(tuple(v for v in range(n) if colors[v] == j) for j in range(c))
    return ColoredGraph(Graph(n, tuple(e for e, y in zip(pairs, keep) if y)), classes)


def _graphon_from_seed(seed, m, lo, hi):
    rng = np.random.default_rng(seed)
    vals = lo + (hi - lo) * rng.random((m, m))
    w = rng.random(m) + 0.2
    return StepGraphon(w / w.sum(), (vals + vals.T) / 2)


@settings(deadline=None, max_examples=20)
@given(colored=_colored_motifs(), m=st.integers(1, 4), seed=st.integers(0, 2**16))
def test_doubling_gradient_on_random_colored_motifs(colored, m, seed):
    # values away from 0 keep the high-degree doubled densities well scaled
    g = _graphon_from_seed(seed, m, 0.6, 0.95)
    budget = 1 << 16  # big classes double into big tables; keep them small
    for k in range(colored.num_classes + 1):
        try:
            value, grad = doubling_density_gradient(colored, k, g, budget=budget)
        except UnsupportedSizeError:
            break  # further doublings only grow the tables
        try:
            expanded = graphon_density(iterated_double(colored, k).graph, g,
                                       budget=budget)
        except UnsupportedSizeError:
            expanded = None  # the expanded motif is too wide to eliminate
        if expanded is not None:
            assert value == pytest.approx(expanded, rel=1e-10, abs=0.0)
        fd = _fd_gradient(
            lambda x, k=k: doubling_density(colored, k, x, budget=budget), g, h=1e-6)
        assert np.abs(grad - fd).max() <= 1e-5 * np.abs(fd).max()


@contextlib.contextmanager
def _always_blocked():
    """Version blocks from the smallest table up, so that small cases run
    the block path too (by default tables below _VERSION_BLOCK_MIN entries
    keep the dense Gram).  The shape cache is cleared on entry and on exit,
    so no shape built under one threshold is read under the other."""
    density._doubling_shape.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(density, "_VERSION_BLOCK_MIN", 0)
            yield
    finally:
        density._doubling_shape.cache_clear()


def _root_products(w, n):
    """prod_i sqrt(w[x_i]) over n axes, flattened in C order."""
    d = np.ones(())
    for _ in range(n):
        d = np.multiply.outer(d, np.sqrt(w))
    return d.reshape(-1)


def _assert_gluing_matches_dense(doubling, g, tol=1e-14):
    """The fast recursion takes every Gram output's adjoint as symmetric,
    and from k = 3 on builds level k-2's table only at its row orbit
    representatives and reads the last Gram only through its version
    blocks; check it against the plain forms: each level's whole Gram
    A^T A in the axis order the next level reads, its rows at the
    representatives, its dot product, each level's moments from the whole
    table, and the adjoint a (T + T^T) of the general product.  `tol`
    bounds each level's table error relative to its largest entry."""
    m = g.num_parts
    # with the tape: base_adjoint below runs a reverse pass on it
    run = doubling.forward(g.values, keep_tape=True)
    factors = list(run.factors)
    if run.grams is not None:
        # level k-2's whole table and the last level's factor, which the
        # block path never forms; its kept rows are stored transposed, each
        # column y at the row of the gathered table that perm gives its
        # index in the Gram's raw order, the class k-1 axes of the first
        # copy, then of the second
        prev, level = doubling.levels[-3:-1]
        a = factors[-2]
        gram = (a.T @ a).reshape((m,) * (2 * prev.r))
        full = gram.transpose(prev.perm).reshape(m**level.g, m**level.r)
        raw = gram.transpose(prev.perm[:level.g] + tuple(sorted(prev.perm[level.g:])))
        vb = doubling.versions
        kept = vb.rows.reps.size - vb.rows.pairs
        assert factors[-1].shape == (m**level.r, kept)
        want = raw.reshape(full.shape)[vb.rows.reps[:kept]][:, vb.perm].T
        np.testing.assert_allclose(factors[-1], want, rtol=0, atol=tol * np.abs(full).max())
        factors[-1] = full
        factors.append((full.T @ full).reshape(-1, 1))
    for level, a, nxt in zip(doubling.levels, factors, [*factors[1:], run.table]):
        if level.r:
            want = (a.T @ a).reshape((m,) * (2 * level.r)).transpose(level.perm)
        else:
            want = np.dot(a[:, 0], a[:, 0])
        np.testing.assert_allclose(nxt.reshape(np.shape(want)), want, rtol=0,
                                   atol=tol * np.abs(want).max())
    for level, a, got in zip(doubling.levels, factors, doubling.moments(run)):
        h = level.g // 2
        q = a @ _root_products(g.weights, level.r) if level.r else a
        q = q.reshape(m**h, m ** (level.g - h))
        s1, s2 = _root_products(g.weights, h), _root_products(g.weights, level.g - h)
        mean = s1 @ q @ s2
        second = np.vdot(q, q)
        assert got[0] == pytest.approx(mean, rel=1e-12, abs=0)
        assert got[1] == pytest.approx(second, rel=1e-12, abs=0)
        diff = q - mean * np.outer(s1, s2)
        assert got[2] == pytest.approx(np.vdot(diff, diff), rel=1e-9,
                                       abs=1e-15 * second)
    tbar = np.ones(())
    for level, a in zip(reversed(doubling.levels), reversed(factors)):
        r = level.r
        if r:
            t = tbar.transpose(level.inv).reshape(m**r, m**r)
            assert np.abs(t - t.T).max() <= 1e-13 * np.abs(t).max()
            tbar = a @ (t + t.T)
        else:
            tbar = (2.0 * float(tbar)) * a
        tbar = tbar.reshape((m,) * (level.g + r))
    want = tbar * doubling.base_roots
    np.testing.assert_allclose(doubling.base_adjoint(run), want, rtol=0,
                               atol=1e-13 * np.abs(want).max())


@st.composite
def _swappable_motifs(draw):
    """Random colored motifs of four classes whose classes 0 and 1, of one
    or two vertices each, swap vertex for vertex under an automorphism
    that fixes the two singleton classes 2 and 3: the edges are a random
    union of orbits of that swap."""
    size = draw(st.integers(1, 2))
    classes = (tuple(range(size)), tuple(range(size, 2 * size)),
               (2 * size,), (2 * size + 1,))
    color = {v: j for j, cls in enumerate(classes) for v in cls}
    image = {v: v for v in color}
    for u, v in zip(classes[0], classes[1]):
        image[u], image[v] = v, u
    orbits = sorted({tuple(sorted({(u, v), tuple(sorted((image[u], image[v])))}))
                     for u in color for v in color if u < v and color[u] != color[v]})
    keep = draw(st.lists(st.booleans(), min_size=len(orbits), max_size=len(orbits)))
    edges = sorted({e for orbit, y in zip(orbits, keep) if y for e in orbit})
    return ColoredGraph(Graph(2 * size + 2, tuple(edges)), classes)


@settings(deadline=None, max_examples=30)
@given(colored=st.one_of(_colored_motifs(), _swappable_motifs()),
       m=st.integers(1, 4), seed=st.integers(0, 2**16))
def test_gluing_levels_blocked_and_symmetric(colored, m, seed):
    g = _graphon_from_seed(seed, m, 0.0, 1.0)
    for k in range(1, colored.num_classes + 1):
        try:
            with _always_blocked():
                doubling = density._Doubling(colored, k, g.weights, 1 << 16)
        except UnsupportedSizeError:
            break
        assert (doubling.versions is None) == (k < 3)
        if k == 4:  # every swappable motif takes the swap from four doublings on
            assert doubling.versions.swap_axes != tuple(range(len(doubling.pinned)))
        _assert_gluing_matches_dense(doubling, g)


# ---------------------------------------------------------------------------
# version blocks of the last Gram level

# motifs of three and four classes, some of two vertices, and K_6
_BLOCK_MOTIFS = {
    "C6": (_MULTI_CLASS_MOTIFS["C6"], 3),
    "K211": (ColoredGraph(Graph(4, ((0, 2), (0, 3), (1, 2), (1, 3), (2, 3))),
                          ((0, 1), (2,), (3,))), 3),
    "K121": (ColoredGraph(Graph(4, ((0, 1), (0, 2), (0, 3), (1, 3), (2, 3))),
                          ((0,), (1, 2), (3,))), 3),
    "K4": (complete_graph(4), 4),
    "W5": (ColoredGraph(Graph(5, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3),
                                  (2, 4), (3, 4), (0, 4))),
                        ((0,), (1,), (2, 3), (4,))), 4),
    "K5": (complete_graph(5), 4),
    "K6": (complete_graph(6), 4),
    # class 0 is larger than class 1, so no automorphism swaps them
    "K2111": (ColoredGraph(Graph(5, ((0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4),
                                     (2, 3), (2, 4), (3, 4))),
                           ((0, 1), (2,), (3,), (4,))), 4),
}
# parts above which a motif's cases are left out, to keep the run short
_BLOCK_PARTS = {"K5": 3, "K6": 2, "K2111": 3}
# five doublings, where some halves span their columns by index arrays
_DEEP_BLOCK_CASES = [("K5", 5, 2), ("K6", 5, 2)]


def _blocked_cases():
    for name, (colored, k) in sorted(_BLOCK_MOTIFS.items()):
        _, levels = density._doubling_layout(colored.classes, k)
        for m in range(1, _BLOCK_PARTS.get(name, 5) + 1):
            if m ** (levels[k - 2].g + levels[k - 2].r) <= 5**8:
                yield name, k, m
    yield from _DEEP_BLOCK_CASES


def _skewed_graphons_at(m):
    """Two graphons on m parts with Dirichlet(0.2) weights, as in
    _skewed_graphons; values in [0.5, 1) keep the doubled densities, of
    degree up to 96 in them, well scaled for finite differences."""
    out = []
    for seed in (910 + m, 920 + m):
        rng = np.random.default_rng(seed)
        w = rng.dirichlet(np.full(m, 0.2))
        vals = 0.5 + 0.5 * rng.random((m, m))
        out.append(StepGraphon(w / w.sum(), (vals + vals.T) / 2))
    return out


@pytest.mark.parametrize("name,k,m", list(_blocked_cases()))
def test_version_blocks_against_oracles(name, k, m):
    colored = _BLOCK_MOTIFS[name][0]
    for g in _skewed_graphons_at(m):
        with _always_blocked():
            doubling = density._Doubling(colored, k, g.weights, density.DEFAULT_BUDGET)
            value, grad = doubling_density_gradient(colored, k, g)
        # the character blocks split the rows and the columns of level k-2
        level = doubling.levels[k - 2]
        rows, cols = doubling.versions.rows, doubling.versions.cols
        assert np.count_nonzero(rows.weight) == m**level.g
        assert np.count_nonzero(cols.weight) == m**level.r
        expanded = iterated_double(colored, k).graph
        want = None
        if m ** expanded.n <= 3**9:
            want = brute_graphon_density(expanded, g.weights, g.values)
        else:
            try:
                want = graphon_density(expanded, g)
            except UnsupportedSizeError:
                pass
        if want is None:
            # too wide to eliminate: the dense Gram recursion instead
            doubling.versions = None
            want = float(doubling.forward(g.values).table)
        assert value == pytest.approx(want, rel=1e-12, abs=0)
        with _always_blocked():
            fd = _fd_gradient(lambda x: doubling_density(colored, k, x), g, h=1e-6)
        assert np.abs(grad - fd).max() <= 1e-6 * np.abs(fd).max()


@pytest.mark.parametrize("name,k,m", list(_blocked_cases()))
def test_orbit_rows_against_dense_gram(name, k, m):
    # level k-2's rows at the row orbit representatives, one product per
    # class k-2 part, and the adjoint through level k-3 gathered one part
    # at a time, on classes of one and of two vertices
    colored = _BLOCK_MOTIFS[name][0]
    for g in _skewed_graphons_at(m):
        with _always_blocked():
            doubling = density._Doubling(colored, k, g.weights, density.DEFAULT_BUDGET)
        assert doubling.versions is not None
        # the last level sums up to 5^8 squares, which round to about
        # 1e-14 of the sum in either order
        _assert_gluing_matches_dense(doubling, g, tol=1e-13)


def _stabilizers(reps, m, n, bits):
    """stab[o, h]: h fixes the assignment x with flat index reps[o], where h
    sends the axis of (vertex i, version v) to that of (i, v XOR h), the
    axes vertex-major: x[i, v XOR h] == x[i, v] at every i and v."""
    versions = 1 << bits
    x = np.stack(np.unravel_index(reps, (m,) * (n * versions)), axis=1)
    return np.stack([
        (x[:, [i * versions + (v ^ h) for i in range(n) for v in range(versions)]]
         == x).all(axis=1)
        for h in range(versions)], axis=1)


@pytest.mark.parametrize("bits,m,n", [
    (bits, m, n) for bits in range(4) for m in (1, 2, 3) for n in (1, 2)
    if m ** (n << bits) <= 1 << 16])
def test_character_mask_against_stabilizers(monkeypatch, bits, m, n):
    # the package supports numpy 1.25, which has no np.bitwise_count
    monkeypatch.delattr(np, "bitwise_count", raising=False)
    orbits = density._version_orbits(m, n, bits)
    stab = _stabilizers(orbits.reps, m, n, bits)
    # character c is trivial on S_o when it is +1 at every h in S_o
    odd = np.array([[bin(c & h).count("1") % 2 for h in range(1 << bits)]
                    for c in range(1 << bits)], dtype=bool)
    trivial = ~(odd[:, None, :] & stab[None, :, :]).any(axis=2)
    np.testing.assert_array_equal(orbits.weight != 0, trivial)
    # sqrt is correctly rounded, so this holds exactly iff root_stab**2
    # is |S_o|
    np.testing.assert_array_equal(orbits.root_stab, np.sqrt(stab.sum(axis=1)))


def _block_maps(name, k, m):
    """The version-block maps of a _BLOCK_MOTIFS motif, built on the block
    path whatever its table size."""
    with _always_blocked():
        return density._doubling_shape(_BLOCK_MOTIFS[name][0], k, m,
                                       density.DEFAULT_BUDGET).versions


# every block case, and K_5 at the benchmark's five parts
_RUN_CASES = [*_blocked_cases(), ("K5", 4, 5)]


@pytest.mark.parametrize("name,k,m", _RUN_CASES)
def test_runs_read_each_column_once(name, k, m):
    # perm is a permutation of level k-2's columns, laid out run by run,
    # so each source column is read by exactly one run; the runs' outputs
    # cover every column orbit of the blocks once
    vb = _block_maps(name, k, m)
    _, levels = density._doubling_layout(_BLOCK_MOTIFS[name][0].classes, k)
    size = m ** levels[k - 2].r
    np.testing.assert_array_equal(np.sort(vb.perm), np.arange(size))
    np.testing.assert_array_equal(vb.perm[vb.unperm], np.arange(size))
    start, outputs = 0, []
    for run in vb.runs:
        orbits = [np.arange(vb.cols.reps.size)[cols] for cols in run.cols]
        assert run.rows.start == start
        assert run.rows.stop - start == run.coef.shape[2] * orbits[0].size
        assert run.coef.shape[:2] == (len(run.cols), 1 << (k - 2))
        outputs += orbits
        start = run.rows.stop
    assert start == size
    np.testing.assert_array_equal(np.sort(np.concatenate(outputs)),
                                  np.arange(vb.cols.reps.size))


@pytest.mark.parametrize("name,k,m", _RUN_CASES)
def test_run_coefficients_vanish_where_the_character_is_not_trivial(name, k, m):
    # a run's K reads each orbit's sources (a pair's P1 sources, then its
    # P2 sources) through one row per character c and output: all zero
    # exactly where c is not trivial on the orbit's stabilizer, which is
    # computed here from the assignments, as in
    # test_character_mask_against_stabilizers
    vb = _block_maps(name, k, m)
    bits = k - 2
    stab = _stabilizers(vb.cols.reps, m, len(_BLOCK_MOTIFS[name][0].classes[k - 1]), bits)
    odd = np.array([[bin(c & h).count("1") % 2 for h in range(1 << bits)]
                    for c in range(1 << bits)], dtype=bool)
    trivial = ~(odd[:, None, :] & stab[None, :, :]).any(axis=2)
    for run in vb.runs:
        per_orbit = run.coef.shape[2] // len(run.cols)
        for q, cols in enumerate(run.cols):
            part = run.coef[:, :, q * per_orbit:(q + 1) * per_orbit]
            for o in np.arange(vb.cols.reps.size)[cols]:
                np.testing.assert_array_equal((part != 0).all(axis=(0, 2)), trivial[:, o])
                np.testing.assert_array_equal((part == 0).all(axis=(0, 2)), ~trivial[:, o])


@pytest.mark.parametrize("t", (5, 6))
def test_clique_column_orbits_make_five_runs(t):
    # at K_5 and K_6, k = 4, m = 5 the [F, P1, P2] order puts like orbits
    # next to each other: (sources, orbits, outputs) for the F orbits of
    # stabilizer size 4, 2 and 1, then the pairs of stabilizer size 1 and 2,
    # not one run for each of the 175 column orbits
    vb = density._doubling_shape(complete_graph(t), 4, 5, density.DEFAULT_BUDGET).versions
    got = [(run.coef.shape[2], run.cols[0].stop - run.cols[0].start, len(run.cols))
           for run in vb.runs]
    assert got == [(1, 5, 1), (2, 10, 1), (4, 50, 1), (8, 45, 2), (4, 10, 2)]


def test_flipped_run_coefficient_is_caught():
    # the blocks read the kept rows only through the runs' K: flipping the
    # sign of one entry must move d_k away from the dense Gram recursion,
    # which test_version_blocks_against_oracles compares K_5 with
    colored, k = _BLOCK_MOTIFS["K5"]
    g = _skewed_graphons_at(3)[0]
    with _always_blocked():
        doubling = density._Doubling(colored, k, g.weights, density.DEFAULT_BUDGET)
    vb = doubling.versions
    value = float(doubling.forward(g.values).table)
    coef = vb.runs[-1].coef.copy()
    coef[0, 0, 0] *= -1.0
    doubling.versions = vb._replace(runs=(*vb.runs[:-1], vb.runs[-1]._replace(coef=coef)))
    flipped = float(doubling.forward(g.values).table)
    doubling.versions = None
    want = float(doubling.forward(g.values).table)
    assert value == pytest.approx(want, rel=1e-12, abs=0)
    assert flipped != pytest.approx(want, rel=1e-6, abs=0)


def test_brute_oracles_refuse_too_many_maps():
    # the brute oracles enumerate m^n maps; K_5 doubled four times has 48
    # vertices, which is refused before the first map rather than run
    doubled = iterated_double(complete_graph(5), 4).graph
    for oracle in (brute_graphon_density, brute_graphon_density_gradient):
        with pytest.raises(ValueError, match="brute-force cap"):
            oracle(doubled, [0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]])


def test_swap_of_the_first_two_doublings_for_cliques_only():
    # K_t from four doublings on swaps classes 0 and 1; W5, C6 and K2111
    # (whose classes 0 and 1 differ in size) do not, and three doublings
    # leave one version bit, so sigma is the identity there: no orbit
    # pairs, no axes moved, every orbit in F by falling stabilizer size
    # and one half per character
    g = _random_graphon(np.random.default_rng(59), 2)
    with _always_blocked():
        for colored, k, swapped in [(complete_graph(t), 4, True) for t in (4, 5, 6)] + [
                (*_BLOCK_MOTIFS[name], False) for name in ("W5", "C6", "K2111")] + [
                (complete_graph(4), 3, False)]:
            doubling = density._Doubling(colored, k, g.weights, density.DEFAULT_BUDGET)
            vb = doubling.versions
            assert (vb.swap_axes != tuple(range(len(doubling.pinned)))) == swapped
            assert (vb.cols.pairs > 0) == swapped
            assert (vb.rows.pairs > 0) == swapped
            if not swapped:
                for orbits in (vb.rows, vb.cols):
                    assert not np.any(np.diff(orbits.root_stab) > 0)
                assert [(half.weight, len(half.parts), half.parts[0][0])
                        for half in vb.halves] == [(1.0, 1, c) for c in range(1 << (k - 2))]


def test_deep_blocks_span_columns_by_index_arrays():
    # at five doublings some halves' columns are not one run, so the
    # reverse pass's index-array branch, which the oracle tests cover at
    # these cases, is reached
    for name, k, m in _DEEP_BLOCK_CASES:
        vb = _block_maps(name, k, m)
        assert any(isinstance(cs, np.ndarray) for half in vb.halves
                   for _, _, cs in half.parts)


def test_swap_keeps_one_of_each_conjugate_pair_and_splits_the_rest():
    # K_5, k = 4, m = 5: 120 of the 175 row orbits are formed, and the
    # blocks are the trivial character's even and odd halves, one block of
    # the conjugate pair (1, 2) counted twice, and character 3's halves,
    # with no zero row or column
    vb = density._doubling_shape(complete_graph(5), 4, 5, density.DEFAULT_BUDGET).versions
    assert vb.tables[0][1] == (625, 120)  # transposed: m^r columns by kept rows
    shapes = [(half.weight, [(c, np.arange(175)[r].size, np.arange(175)[cs].size)
                             for c, r, cs in half.parts]) for half in vb.halves]
    assert shapes == [(1.0, [(0, 120, 120)]), (1.0, [(0, 55, 55)]),
                      (2.0, [(1, 105, 160), (2, 45, 160)]),
                      (1.0, [(3, 105, 105)]), (1.0, [(3, 45, 45)])]
    assert all(isinstance(r, slice) and isinstance(cs, slice)
               for half in vb.halves for _, r, cs in half.parts)


def _plain_blocks(doubling, g):
    """The Gram of every character block of level k-2's whole table, from
    the plain version maps: no sigma, no kept rows, no trimming."""
    m, k = g.num_parts, len(doubling.levels)
    a = doubling.forward(g.values).factors[-2]
    prev, level = doubling.levels[-3:-1]
    full = (a.T @ a).reshape((m,) * (2 * prev.r)).transpose(prev.perm)
    full = full.reshape(m**level.g, m**level.r)
    rows, cols = (density._version_orbits(m, 1, k - 2) for _ in range(2))
    out = []
    for c in range(1 << (k - 2)):
        sign = np.array([(-1) ** bin(c & h).count("1") for h in range(1 << (k - 2))])
        block = np.einsum("h,rch->rc", sign, full[rows.reps][:, cols.rep_images])
        block *= rows.weight[c][:, None] * cols.weight[c]
        out.append(block.T @ block)
    return out


@pytest.mark.parametrize("t,m", [(4, 3), (5, 2), (6, 2)])
def test_conjugate_characters_have_equal_squared_grams(t, m):
    # sigma swaps characters 1 and 2: their blocks agree up to a signed
    # permutation, so one of them, counted twice, stands for both; the
    # plain blocks sum to d_k
    for g in _skewed_graphons_at(m):
        with _always_blocked():
            doubling = density._Doubling(complete_graph(t), 4, g.weights,
                                         density.DEFAULT_BUDGET)
            grams = _plain_blocks(doubling, g)
            value = doubling_density(complete_graph(t), 4, g)
        norms = [np.vdot(x, x) for x in grams]
        assert norms[1] == pytest.approx(norms[2], rel=1e-12, abs=0)
        assert norms[1] > 0
        assert sum(norms) == pytest.approx(value, rel=1e-12, abs=0)


def test_swap_forced_onto_an_asymmetric_motif_is_caught(monkeypatch):
    # W5 has no automorphism that swaps classes 0 and 1, so sigma does not
    # fix its level k-2 table; forcing the sigma path onto it must move the
    # value away from the oracle that the version-block tests compare with
    colored, k = _BLOCK_MOTIFS["W5"]
    # the other graphon has a part of weight about 1e-9, so it is nearly
    # constant, and sigma nearly fixes it
    g = _skewed_graphons_at(2)[1]
    want = doubling_density(colored, k, g)  # the dense Gram recursion at m = 2
    assert density._Doubling(colored, k, g.weights, density.DEFAULT_BUDGET).versions is None
    with _always_blocked():
        monkeypatch.setattr(density, "_swaps_first_classes", lambda colored: True)
        value = doubling_density(colored, k, g)
    assert value != pytest.approx(want, rel=1e-6, abs=0)


def test_version_blocks_by_default_on_large_tables():
    g = _random_graphon(np.random.default_rng(61), 5)
    for t, k, blocked in ((3, 2, False), (4, 3, False), (5, 4, True)):
        doubling = density._Doubling(complete_graph(t), k, g.weights,
                                     density.DEFAULT_BUDGET)
        assert (doubling.versions is not None) == blocked


def test_version_block_variance_without_cancellation():
    # on a graphon within 1e-7 of constant the last step's variance is
    # about 1e-14 of its second moment, so the slack d_k - d_(k-1)^2
    # cancels almost every digit; the blocks give the variance as a sum of
    # squares, which matches the definition's pinned-density variance
    rng = np.random.default_rng(67)
    m, k = 4, 4
    noise = 1e-7 * rng.standard_normal((m, m))
    w = rng.random(m) + 0.5
    g = StepGraphon(w / w.sum(), 0.5 + (noise + noise.T) / 2)
    colored = complete_graph(4)
    mean, second, var = _pinned_moments(colored, k, g)
    assert var < 1e-12 * second
    got = doubling_step_moments(colored, k, g)
    assert got[0] == pytest.approx(mean, rel=1e-12, abs=0)
    assert got[1] == pytest.approx(second, rel=1e-12, abs=0)
    assert got[2] == pytest.approx(var, rel=1e-6, abs=0)
    assert cs_chain_check(4, k, g).variances[-1] == pytest.approx(var, rel=1e-6, abs=0)


@pytest.mark.parametrize("t", (5, 6))
def test_version_block_slack_equals_variance(t):
    for seed in range(3):
        g = _random_graphon(np.random.default_rng(71 + seed), 5)
        rec = cs_chain_check(t, 4, g)
        for j, (slack, var) in enumerate(zip(rec.slacks, rec.variances), 1):
            assert slack == pytest.approx(var, rel=1e-9, abs=1e-12 * rec.densities[j])


@settings(deadline=None, max_examples=10)
@given(seed=st.integers(0, 2**16), m=st.integers(1, 3))
def test_flat_gradient_matches_brute_oracle(seed, m):
    motif = _random_graph(np.random.default_rng(seed), 6)
    g = _graphon_from_seed(seed, m, 0.0, 1.0)
    value, grad = graphon_density_gradient(motif, g)
    assert value == pytest.approx(
        brute_graphon_density(motif, g.weights, g.values), rel=1e-12, abs=1e-15)
    want = brute_graphon_density_gradient(motif, g.weights, g.values)
    np.testing.assert_allclose(grad, want, rtol=1e-11, atol=1e-15)
