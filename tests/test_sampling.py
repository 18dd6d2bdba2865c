"""Seeded graph sampling from densities and from step functions."""

import numpy as np
import pytest
from scipy import stats

from quasiforce import (
    Graph,
    SampleSpec,
    StepGraphon,
    complete_graph,
    constant_graphon,
    graphon_density,
    hom_density,
    sample,
)
from quasiforce.sampling import MAX_SAMPLE_VERTICES, gnp, w_random


def _density(g: Graph) -> float:
    return g.num_edges / (g.n * (g.n - 1) / 2)


def test_gnp_frozen_small():
    g = gnp(6, 0.5, 1)
    assert g.edges == ((0, 3), (0, 5), (1, 2), (1, 4), (2, 3), (3, 4), (4, 5))


def test_gnp_frozen_large_density():
    assert _density(gnp(1000, 0.5, 123)) == 0.4997737737737738


def test_gnp_deterministic_and_seed_sensitive():
    assert gnp(50, 0.3, 7).edges == gnp(50, 0.3, 7).edges
    assert gnp(50, 0.3, 7).edges != gnp(50, 0.3, 8).edges


def test_gnp_extremes():
    assert gnp(10, 0.0, 0).num_edges == 0
    assert gnp(10, 1.0, 0).num_edges == 45


def test_gnp_validation():
    with pytest.raises(ValueError):
        gnp(0, 0.5, 0)
    with pytest.raises(ValueError):
        gnp(MAX_SAMPLE_VERTICES + 1, 0.5, 0)
    with pytest.raises(ValueError):
        gnp(5, -0.1, 0)
    with pytest.raises(ValueError):
        gnp(5, 1.1, 0)


def test_gnp_mean_density_in_band():
    # 20 seeds at n = 200: the mean density sits within 4 standard errors
    n, p, seeds = 200, 0.35, 20
    mean = np.mean([_density(gnp(n, p, s)) for s in range(seeds)])
    pairs = n * (n - 1) / 2
    sigma = np.sqrt(p * (1 - p) / pairs / seeds)
    assert abs(mean - p) < 4 * sigma


def test_w_random_one_part_matches_binomial():
    # edge counts over 50 seeds against the binomial null, chi-squared
    n, p = 60, 0.5
    pairs = n * (n - 1) / 2
    counts = [w_random(constant_graphon(p, 1), n, s).num_edges
              for s in range(50)]
    z = (np.asarray(counts, dtype=float) - p * pairs) / np.sqrt(
        pairs * p * (1 - p))
    assert stats.chi2.sf(float(np.sum(z * z)), 50) > 1e-4


def test_w_random_bipartite_kills_triangles():
    g = StepGraphon(np.array([0.5, 0.5]), np.array([[0.0, 1.0], [1.0, 0.0]]))
    sampled = w_random(g, 300, 4)
    # 300^3 tuples; lift the default table budget to let elimination run
    assert hom_density(complete_graph(3).graph, sampled, budget=1 << 25) < 0.01


def test_w_random_three_part_convergence():
    rng = np.random.default_rng(0)
    vals = rng.random((3, 3))
    g = StepGraphon(np.full(3, 1 / 3), (vals + vals.T) / 2)
    want = graphon_density(complete_graph(3).graph, g)
    hits = 0
    for s in range(3):
        got = hom_density(complete_graph(3).graph, w_random(g, 300, s),
                          budget=1 << 25)
        hits += abs(got - want) <= 0.02
    assert hits >= 2


def test_w_random_deterministic():
    g = constant_graphon(0.4, 2)
    assert w_random(g, 30, 9).edges == w_random(g, 30, 9).edges


def test_w_random_degenerate_weights():
    # one part has all the mass, the other none of it matters
    g = StepGraphon(np.array([1.0 - 1e-15, 1e-15]),
                    np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert w_random(g, 20, 0).num_edges == 190


def test_sample_spec_dispatch():
    assert sample(SampleSpec(12, 0.5, 3)).edges == gnp(12, 0.5, 3).edges
    g = constant_graphon(0.5, 2)
    assert sample(SampleSpec(12, g, 3)).edges == w_random(g, 12, 3).edges


def test_sample_spec_validation_and_dict():
    with pytest.raises(ValueError):
        SampleSpec(0, 0.5, 0)
    with pytest.raises(ValueError):
        SampleSpec(5, 1.5, 0)
    with pytest.raises(TypeError):
        SampleSpec(5, None, 0)
    d = SampleSpec(5, constant_graphon(0.5, 1), 2).to_dict()
    assert d["n"] == 5 and d["seed"] == 2 and "weights" in d["source"]
    assert SampleSpec(5, 0.25, 2).to_dict()["source"] == 0.25


@pytest.mark.parametrize("seed", [-1, np.int64(-3), 1.5, True, "5", None])
def test_bad_seed_refused_by_name(seed):
    g = constant_graphon(0.5, 2)
    for call in (lambda: gnp(5, 0.5, seed),
                 lambda: w_random(g, 5, seed),
                 lambda: sample(SampleSpec(5, 0.5, seed)),
                 lambda: sample(SampleSpec(5, g, seed))):
        with pytest.raises(ValueError, match="seed"):
            call()


def test_numpy_integer_seed_accepted():
    assert gnp(12, 0.5, np.int64(3)).edges == gnp(12, 0.5, 3).edges
    g = constant_graphon(0.5, 2)
    assert w_random(g, 12, np.uint8(3)).edges == w_random(g, 12, 3).edges
