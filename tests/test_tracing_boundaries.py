"""The benchmark's tracer patches names that look unused in the library.

``benchmarks/tracing.py`` wraps, for example, ``graphon_density_gradient``
inside ``quasiforce.experiments``, which that module imports only for the
tracer (the ``noqa: F401`` imports).  Deleting such an import breaks
``benchmarks/run.py --trace 1`` and nothing else, so this test reads the
tracer's BOUNDARIES table without importing or executing the file and
checks that every (module, attribute) in it resolves.
"""

import ast
import importlib
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _boundaries():
    tree = ast.parse(_TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "BOUNDARIES"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("benchmarks/tracing.py defines no BOUNDARIES")


@pytest.mark.parametrize("module, attr, layer", _boundaries())
def test_traced_boundary_resolves(module, attr, layer):
    assert callable(getattr(importlib.import_module(module), attr)), layer
