"""JSON writing with exact float round-trips."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from quasiforce.serialize import dump, dumps, load


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_floats_round_trip_exactly(x):
    assert json.loads(dumps({"x": x}))["x"] == x


def test_mixed_payload():
    obj = {
        "a": [1, 2.5, True, None],
        "b": {"nested": np.array([0.1, 0.2])},
        "c": np.int64(7),
        "d": np.float64(1 / 3),
        "e": "text",
    }
    parsed = json.loads(dumps(obj))
    assert parsed["a"] == [1, 2.5, True, None]
    assert parsed["b"]["nested"] == [0.1, 0.2]
    assert parsed["c"] == 7
    assert parsed["d"] == 1 / 3


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        dumps({"x": math.nan})
    with pytest.raises(ValueError):
        dumps({"x": math.inf})


def test_unknown_type_rejected():
    with pytest.raises(TypeError):
        dumps({"x": object()})


def test_file_round_trip(tmp_path):
    path = tmp_path / "out.json"
    payload = {"value": 0.1 + 0.2, "items": [[1, 2], [3, 4]]}
    dump(payload, path)
    assert load(path) == {"value": 0.1 + 0.2, "items": [[1, 2], [3, 4]]}


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_load_rejects_non_finite_literals(tmp_path, literal):
    path = tmp_path / "bad.json"
    path.write_text('{"x": [0.5, %s]}' % literal)
    with pytest.raises(ValueError, match=literal):
        load(path)
