"""Every name a library module imports is used in that module."""

import ast
from pathlib import Path

import pytest

import quasiforce

_MODULES = sorted(Path(quasiforce.__file__).parent.glob("*.py"))


def _unused_imports(source: str) -> list[str]:
    """Imported names the source never reads.  ``__future__`` imports,
    names listed in ``__all__`` (re-exports) and names on a line marked
    ``noqa: F401`` (kept importable on purpose) are exempt."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if "noqa: F401" not in lines[alias.lineno - 1]:
                imported.add(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_checker_finds_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "import numpy as np\n"
        "from json import dumps, loads\n"
        "from itertools import chain  # noqa: F401\n"
        "__all__ = ['loads']\n"
        "np.ones(os.sep)\n"
    )
    assert _unused_imports(source) == ["dumps", "math"]


@pytest.mark.parametrize("path", _MODULES, ids=[p.name for p in _MODULES])
def test_module_imports_are_used(path):
    assert _unused_imports(path.read_text()) == []
