"""JSON output with fixed 17-significant-digit floats.

17 significant decimal digits are enough to round-trip any IEEE 754 double
exactly, so files written here reload bit for bit.  Reading uses the stdlib
parser but rejects its NaN and Infinity extensions, which are not JSON.
Result records render through ``record_dict``, so a record's JSON keys are
its dataclass fields in declaration order.
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

import numpy as np

__all__ = ["dumps", "dump", "load", "record_dict"]


def _plain(value):
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def record_dict(record) -> dict:
    """A dataclass record's fields in declaration order, keyed by name: a
    nested record goes through its own to_dict, a tuple becomes a list and
    an array a nested list.  Records set ``to_dict = record_dict``."""
    return {f.name: _plain(getattr(record, f.name)) for f in fields(record)}


def _render(obj, indent: int, level: int) -> str:
    pad = " " * (indent * level)
    inner = " " * (indent * (level + 1))
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k))}: {_render(v, indent, level + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{_render(v, indent, level + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, np.ndarray):
        return _render(obj.tolist(), indent, level)
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


def dumps(obj, indent: int = 2) -> str:
    return _render(obj, indent, 0) + "\n"


def dump(obj, path) -> None:
    Path(path).write_text(dumps(obj))


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} is not valid JSON")


def load(path):
    return json.loads(Path(path).read_text(), parse_constant=_reject_constant)
