"""Step graphon construction, validation, and serialization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quasiforce import (
    Graph,
    StepGraphon,
    constant_graphon,
    from_graph,
    random_near_constant,
)


_HALVES = [0.5, 0.5]
_FLAT = [[0.5, 0.5], [0.5, 0.5]]
# (weights, values, the start of the message), for one fault at a time
# and, further down, for several, where the first check in the
# documented order must be the one reported
_INVALID = [
    ([], np.zeros((0, 0)), "weights must be a non-empty 1-d sequence"),
    ([[1.0]], [[0.5]], "weights must be a non-empty 1-d sequence"),
    ([1.0], [[0.5, 0.5]], "values must be a 1 x 1 matrix matching the weights"),
    (_HALVES, [0.5, 0.5], "values must be a 2 x 2 matrix matching the weights"),
    ([np.nan, 1.0], _FLAT, "weights and values must be finite numbers"),
    ([np.inf, 0.5], _FLAT, "weights and values must be finite numbers"),
    (_HALVES, [[0.5, np.nan], [np.nan, 0.5]], "weights and values must be finite"),
    (_HALVES, [[-np.inf, 0.5], [0.5, 0.5]], "weights and values must be finite"),
    ([1.0, 0.0], _FLAT, "weights must be strictly positive"),
    ([1.5, -0.5], _FLAT, "weights must be strictly positive"),
    ([0.5, 0.6], _FLAT, r"weights must sum to 1 \(within 1e-12\)"),
    ([0.5, 0.5 + 4e-12], _FLAT, r"weights must sum to 1 \(within 1e-12\)"),
    (_HALVES, [[0.1, 0.2], [0.3, 0.1]], r"values must be symmetric: values\[i\]\[j\]"),
    ([1.0], [[1.5]], r"values must lie in \[0, 1\]"),
    (_HALVES, [[0.5, -0.1], [-0.1, 0.5]], r"values must lie in \[0, 1\]"),
    # several faults: the first in check order wins
    ([1.0], [[0.5, np.nan]], "values must be a 1 x 1 matrix"),
    ([-1.0, 2.0], [[0.5, np.nan], [np.nan, 0.5]], "weights and values must be finite"),
    ([-0.5, 0.5], [[2.0, 0.1], [0.3, 0.5]], "weights must be strictly positive"),
    ([0.5, 0.6], [[2.0, 0.1], [0.3, 0.5]], "weights must sum to 1"),
    (_HALVES, [[2.0, 0.1], [0.3, -1.0]], "values must be symmetric"),
]


def test_constructor_validates():
    for weights, values, message in _INVALID:
        with pytest.raises(ValueError, match=f"^{message}"):
            StepGraphon(np.array(weights, dtype=float), np.array(values, dtype=float))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_constructor_rejects_non_finite(bad):
    # NaN slips past the positivity, sum and range checks on its own
    with pytest.raises(ValueError, match="finite"):
        StepGraphon(np.array([bad, bad]), np.full((2, 2), 0.5))
    with pytest.raises(ValueError, match="finite"):
        StepGraphon(np.array([0.5, 0.5]), np.array([[0.5, bad], [bad, 0.5]]))


def test_values_become_read_only():
    g = constant_graphon(0.5, 2)
    with pytest.raises(ValueError):
        g.values[0, 0] = 0.9


def test_constant_graphon():
    g = constant_graphon(0.3, 3)
    assert g.num_parts == 3
    assert np.all(g.values == 0.3)
    assert np.allclose(g.weights, 1 / 3)
    with pytest.raises(ValueError):
        constant_graphon(1.2)
    with pytest.raises(ValueError):
        constant_graphon(0.5, 0)


def test_from_graph():
    g = from_graph(Graph(3, ((0, 1),)))
    assert g.num_parts == 3
    assert g.values[0, 1] == 1.0 and g.values[1, 0] == 1.0
    assert g.values[0, 2] == 0.0 and g.values[0, 0] == 0.0
    with pytest.raises(ValueError):
        from_graph(Graph(0))


@settings(deadline=None, max_examples=50)
@given(
    p=st.floats(0.0, 1.0),
    parts=st.integers(1, 6),
    spread=st.floats(0.0, 0.6),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_near_constant_properties(p, parts, spread, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    g = random_near_constant(p, parts, spread, rng)
    assert g.num_parts == parts
    assert np.array_equal(g.values, g.values.T)
    assert np.all(g.values >= 0.0) and np.all(g.values <= 1.0)
    # off the clamp boundary the noise is bounded by the spread
    assert np.all(np.abs(np.clip(g.values, 1e-9, 1 - 1e-9) - p) <= spread + 1e-9)


def test_random_near_constant_deterministic():
    a = random_near_constant(0.5, 4, 0.2, np.random.Generator(np.random.PCG64(7)))
    b = random_near_constant(0.5, 4, 0.2, np.random.Generator(np.random.PCG64(7)))
    assert np.array_equal(a.values, b.values)


def test_random_near_constant_refuses_no_parts():
    with pytest.raises(ValueError, match="parts must be at least 1"):
        random_near_constant(0.5, 0, 0.1, np.random.default_rng(0))


def test_round_trip():
    g = StepGraphon(np.array([0.25, 0.75]), np.array([[0.1, 0.7], [0.7, 1.0]]))
    back = StepGraphon.from_dict(g.to_dict())
    assert np.array_equal(back.weights, g.weights)
    assert np.array_equal(back.values, g.values)
