"""JSON output with fixed 17-significant-digit floats.

17 significant decimal digits are enough to round-trip any IEEE 754 double
exactly, so files written here reload bit for bit.  Reading uses the stdlib
parser but rejects its NaN and Infinity extensions, which are not JSON.
Result records render through ``record_dict``, so a record's JSON keys are
its dataclass fields in declaration order; each record class's field names
are read once.

The renderer dispatches on the exact type first: float, str, list and
tuple, dict, int, bool and None, the types every record payload is made
of.  Anything else takes the general path, in this order: dict, list and
tuple subclasses, NumPy arrays (as nested lists), NumPy bools, integers
and floats (as their Python values), and str subclasses; any other type is
a TypeError and a non-finite float a ValueError.  Strings and dict keys
are encoded as ``json.dumps`` encodes a str, keys after ``str(key)``.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import fields
from pathlib import Path

import numpy as np

__all__ = ["dumps", "dump", "load", "record_dict"]

# the encoder json.dumps applies to a str: ASCII-only, with JSON escapes
_encode_str = json.encoder.encode_basestring_ascii
# values a record field holds as they are, with no conversion to make
_PLAIN_TYPES = frozenset({float, int, str, bool, type(None)})


def _plain(value):
    if type(value) in _PLAIN_TYPES:
        return value
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


@functools.cache
def _field_names(cls) -> tuple[str, ...]:
    """The field names of a dataclass, in declaration order, read once per
    class."""
    return tuple(f.name for f in fields(cls))


def record_dict(record) -> dict:
    """A dataclass record's fields in declaration order, keyed by name: a
    nested record goes through its own to_dict, a tuple becomes a list and
    an array a nested list.  Records set ``to_dict = record_dict``."""
    return {name: _plain(getattr(record, name)) for name in _field_names(type(record))}


def _sequence(obj, nl: str, step: str) -> str:
    if not obj:
        return "[]"
    inner = nl + step
    return ("[" + inner + ("," + inner).join([_render(v, inner, step) for v in obj])
            + nl + "]")


def _mapping(obj, nl: str, step: str) -> str:
    if not obj:
        return "{}"
    inner = nl + step
    return ("{" + inner + ("," + inner).join([
        _encode_str(k if type(k) is str else str(k)) + ": " + _render(v, inner, step)
        for k, v in obj.items()]) + nl + "}")


def _render(obj, nl: str, step: str) -> str:
    """obj as indented JSON; `nl` is a newline plus the current level's
    indent, and `step` the indent one level adds."""
    t = type(obj)
    if t is float:
        if math.isfinite(obj):
            return f"{obj:.17g}"
        raise ValueError("non-finite floats are not serializable")
    if t is str:
        return _encode_str(obj)
    if t is list or t is tuple:
        return _sequence(obj, nl, step)
    if t is dict:
        return _mapping(obj, nl, step)
    if t is int:
        return str(obj)
    if t is bool:
        return "true" if obj else "false"
    if obj is None:
        return "null"
    # subclasses of those types, NumPy arrays and scalars
    if isinstance(obj, dict):
        return _mapping(obj, nl, step)
    if isinstance(obj, (list, tuple)):
        return _sequence(obj, nl, step)
    if isinstance(obj, np.ndarray):
        return _render(obj.tolist(), nl, step)
    if isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _render(float(obj), nl, step)
    if isinstance(obj, str):
        return _encode_str(obj)
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def dumps(obj, indent: int = 2) -> str:
    return _render(obj, "\n", " " * indent) + "\n"


def dump(obj, path) -> None:
    Path(path).write_text(dumps(obj))


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} is not valid JSON")


def load(path):
    return json.loads(Path(path).read_text(), parse_constant=_reject_constant)
