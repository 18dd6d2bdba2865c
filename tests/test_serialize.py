"""JSON writing with exact float round-trips."""

import json
import math
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, strategies as st

from quasiforce import (
    Graph,
    StepGraphon,
    check_identity,
    complete_graph,
    constant_graphon,
    contrast_experiment,
    cs_chain_check,
    delta_epsilon_probe,
    forcing_experiment,
    gnp,
    graph_quasirandomness,
    graphon_constancy,
    random_near_constant,
    run_forcing_trial,
)
from quasiforce.experiments import ParetoPoint
from quasiforce.serialize import dump, dumps, load, record_dict


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


def _graphon():
    rng = np.random.Generator(np.random.PCG64(3))
    return random_near_constant(0.5, 2, 0.05, rng)


_GRAPHON_KEYS = {"weights": list, "values": list}
_CONSTANCY_KEYS = {"p": float, "linf": float, "l2": float, "cut": float,
                   "oscillation": float, "oscillation_part": int}

# each record's to_dict keys in order, with the type of each value; the
# key order is the order of the dataclass fields
_RECORDS = {
    "StepGraphon": (_graphon, _GRAPHON_KEYS),
    "Graph": (lambda: Graph(3, ((1, 2), (0, 1))), {"n": int, "edges": list}),
    "QuasirandomReport": (
        lambda: graph_quasirandomness(gnp(8, 0.5, 1), 0.5),
        {"n": int, "p": float, "epsilon_star": float, "deviation": float,
         "witness": list, "exact": bool}),
    "ConstancyReport": (lambda: graphon_constancy(_graphon(), 0.5),
                        _CONSTANCY_KEYS),
    "IdentityResidualReport": (
        lambda: check_identity(_graphon(), 0.5, 3),
        {"t": int, "k": int, "p": float, "max_residual": float,
         "argmax_tuple": list, "per_tuple": list}),
    "IdentityResidualReport-no-table": (
        lambda: check_identity(_graphon(), 0.5, 3, include_table=False),
        {"t": int, "k": int, "p": float, "max_residual": float,
         "argmax_tuple": list, "per_tuple": type(None)}),
    "ChainRecord": (
        lambda: cs_chain_check(3, 2, _graphon()),
        {"t": int, "k": int, "densities": list, "slacks": list,
         "variances": list}),
    "ForcingTrial": (
        lambda: run_forcing_trial(3, 0.5, _graphon(), seed=4),
        {"seed": int, "converged": bool, "iterations": int,
         "stop_reason": str, "r1": float, "r2": float, "graphon": dict,
         "constancy": dict}),
    "ParetoPoint": (
        lambda: ParetoPoint(1e-8, 1e-9, -1e-9, 0.25, _graphon()),
        {"lam": float, "r1": float, "r2": float, "distance_l2": float,
         "graphon": dict}),
    "DeltaEpsilonRow": (
        lambda: delta_epsilon_probe(3, 0.5, [0.1], 2, max_iter=50).rows[0],
        {"delta": float, "distance": float, "r1": float, "r2": float,
         "feasible_starts": int, "graphon": dict}),
    "ContrastResult": (
        contrast_experiment,
        {"p": float, "b": float, "graphon": dict, "edge_density": float,
         "triangle_density": float, "constancy": dict}),
}


def _no_tuples_or_arrays(obj):
    if isinstance(obj, dict):
        return all(_no_tuples_or_arrays(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_no_tuples_or_arrays(v) for v in obj)
    return not isinstance(obj, (tuple, np.ndarray))


@pytest.mark.parametrize("name", list(_RECORDS))
def test_record_dict_key_order_and_types(name):
    build, keys = _RECORDS[name]
    d = build().to_dict()
    assert list(d) == list(keys)
    for key, kind in keys.items():
        assert isinstance(d[key], kind), key
    assert _no_tuples_or_arrays(d)
    for nested, nested_keys in (("graphon", _GRAPHON_KEYS),
                                ("constancy", _CONSTANCY_KEYS)):
        if nested in keys:
            assert list(d[nested]) == list(nested_keys)
    assert json.loads(dumps(d)) == d


# ---------------------------------------------------------------------------
# the renderer against the reference it replaced


def _reference_render(obj, indent: int, level: int) -> str:
    """The renderer dumps used before its exact-type dispatch, kept
    verbatim as the oracle of every byte it writes."""
    pad = " " * (indent * level)
    inner = " " * (indent * (level + 1))
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k))}: {_reference_render(v, indent, level + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{_reference_render(v, indent, level + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, np.ndarray):
        return _reference_render(obj.tolist(), indent, level)
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if x != x or x in (float("inf"), float("-inf")):
            raise ValueError("non-finite floats are not serializable")
        return f"{x:.17g}"
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def _reference_dumps(obj, indent: int = 2) -> str:
    return _reference_render(obj, indent, 0) + "\n"


class _Key(str):
    """A str subclass whose str() differs from its characters."""

    def __str__(self):
        return "renamed"


_finite = st.floats(allow_nan=False, allow_infinity=False)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    _finite,  # -0.0 and subnormals included
    st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, 1e308]),
    st.text(),  # escapes, non-ASCII and surrogates
    st.text().map(_Key),
    _finite.map(np.float64),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    st.booleans().map(np.bool_),
    st.lists(_finite, max_size=6).map(np.array),
    st.lists(st.integers(-9, 9), min_size=4, max_size=4).map(
        lambda xs: np.array(xs).reshape(2, 2)),
    st.booleans().map(np.array),  # a 0-d array
)
_KEYS = st.one_of(st.text(), st.integers(), st.text().map(_Key), st.booleans())
_PAYLOADS = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_KEYS, inner, max_size=4),
    ),
    max_leaves=24,
)


@given(_PAYLOADS, st.sampled_from([2, 0, 1, 4]))
def test_dumps_matches_the_reference_renderer(obj, indent):
    assert dumps(obj, indent) == _reference_dumps(obj, indent)


@pytest.mark.parametrize("name", list(_RECORDS))
def test_record_payload_matches_the_reference_renderer(name):
    payload = _RECORDS[name][0]().to_dict()
    assert dumps(payload) == _reference_dumps(payload)


def test_experiment_payloads_match_the_reference_renderer():
    for result in (
        forcing_experiment(3, 0.5, 2, 2, seed=5),
        delta_epsilon_probe(3, 0.5, [0.0, 0.1], 2, max_iter=50),
        complete_graph(3),
    ):
        payload = result.to_dict()
        assert dumps(payload) == _reference_dumps(payload)


class _Mapping(dict):
    pass


class _Point(NamedTuple):
    x: float
    tags: list


@dataclass(frozen=True)
class _Holder:
    value: object

    to_dict = record_dict


# one value of each type that leaves the exact-type dispatch for the
# general path, and that a record field passes through unconverted unless
# it is a tuple or an array
_GENERAL = {
    "dict-subclass": _Mapping({"a": 1.5, _Key("k"): [np.int64(2)]}),
    "namedtuple": _Point(0.25, [np.float32(0.1), None]),
    "str-subclass": _Key("key"),
    "float32": np.float32(0.1),
    "int64": np.int64(-7),
    "bool_": np.bool_(True),
    "0-d-array": np.array(0.5),
}


@pytest.mark.parametrize("name", list(_GENERAL))
def test_general_path_matches_the_reference_renderer(name):
    value = _GENERAL[name]
    for obj in (value, [value, 1.0], _Mapping(x=value), _Holder(value).to_dict()):
        for indent in (2, 0):
            assert dumps(obj, indent) == _reference_dumps(obj, indent)


@pytest.mark.parametrize("bad", [
    math.nan, -math.inf, np.float64(math.inf), np.float32(math.nan),
    np.array([0.5, math.nan]), object(), {1, 2}, 1j, np.complex128(1.0),
    b"bytes", StepGraphon(np.ones(1), np.ones((1, 1))),
])
def test_refusals_match_the_reference_renderer(bad):
    for obj in (bad, {"x": [1.0, bad]}, (bad,)):
        with pytest.raises((TypeError, ValueError)) as want:
            _reference_dumps(obj)
        with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
            dumps(obj)
