"""Every name a library module imports is used in that module, every
private name it defines at module level is read somewhere in the library,
the private names modules import from one another are pinned, and
importing the package fills none of its caches."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quasiforce

_MODULES = sorted(Path(quasiforce.__file__).parent.glob("*.py"))


def _unused_imports(source: str) -> list[str]:
    """Imported names the source never reads.  ``__future__`` imports,
    names listed in ``__all__`` (re-exports) and names on a line marked
    ``noqa: F401`` (kept importable on purpose) are exempt.  A star import
    ``from m import *`` is reported as ``m.*`` unless the source extends
    ``__all__`` by ``m.__all__``, which republishes it."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if alias.name == "*":
                imported.add(f"{node.module}.*")
            elif "noqa: F401" not in lines[alias.lineno - 1]:
                imported.add(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            used |= set(ast.literal_eval(node.value))
        elif (isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add)
              and isinstance(node.target, ast.Name) and node.target.id == "__all__"):
            value = ast.unparse(node.value)
            if value.endswith(".__all__"):
                used.add(value.removesuffix("__all__") + "*")
            else:
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
        "from . import shapes\n"
        "from .shapes import *  # noqa: F403\n"
        "from .colors import *  # noqa: F403\n"
        "__all__ = ['loads']\n"
        "__all__ += shapes.__all__\n"
        "np.ones(os.sep)\n"
    )
    assert _unused_imports(source) == ["colors.*", "dumps", "math"]


@pytest.mark.parametrize("path", _MODULES, ids=[p.name for p in _MODULES])
def test_module_imports_are_used(path):
    assert _unused_imports(path.read_text()) == []


# the package's public names in order, each module's __all__ in turn:
# a change here is a change of the public API
_PUBLIC = [
    "__version__",
    "UnsupportedSizeError",
    "Graph", "ColoredGraph", "complete_graph", "cycle_graph", "double",
    "iterated_double", "are_isomorphic",
    "StepGraphon", "constant_graphon", "from_graph", "random_near_constant",
    "DEFAULT_BUDGET", "hom_count", "hom_density", "graphon_density",
    "pinned_density", "pinned_table", "PinnedDensity", "evaluate_pinned",
    "doubling_density", "doubling_step_moments", "graphon_density_gradient",
    "doubling_density_gradient",
    "QuasirandomReport", "ConstancyReport", "graph_quasirandomness",
    "graphon_constancy", "row_oscillation",
    "IdentityResidualReport", "ChainRecord", "check_identity",
    "identity_residual_at", "cs_chain_check", "default_doublings",
    "ForcingTrial", "ParetoPoint", "ForcingExperimentResult", "DeltaEpsilonRow",
    "DeltaEpsilonTable", "ContrastResult", "run_forcing_trial",
    "forcing_experiment", "delta_epsilon_probe", "non_forcing_witness",
    "contrast_experiment",
    "SampleSpec", "gnp", "w_random", "sample",
]


def test_package_reexports_each_module_api():
    assert quasiforce.__all__ == _PUBLIC
    modules = [quasiforce.errors, quasiforce.graphs, quasiforce.graphon,
               quasiforce.density, quasiforce.quasirandom, quasiforce.identities,
               quasiforce.experiments, quasiforce.sampling]
    assert ["__version__"] + [name for module in modules
                              for name in module.__all__] == _PUBLIC
    for module in modules:
        for name in module.__all__:
            assert getattr(quasiforce, name) is vars(module)[name], name


def _dead_private_names(source: str, library: list[str]) -> list[str]:
    """Private names (one leading underscore) that the source binds at
    module level by a def, a class or an assignment, and that no source in
    ``library`` reads, as a name or as an attribute."""
    defined = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined |= {sub.id for target in targets for sub in ast.walk(target)
                        if isinstance(sub, ast.Name)}
    read = set()
    for tree in map(ast.parse, library):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(name for name in defined - read
                  if name.startswith("_") and not name.startswith("__"))


def test_checker_finds_dead_private_names():
    source = (
        "_CAP = 3\n"
        "_A, _B = 1, 2\n"
        "_C: int = 4\n"
        "__version__ = '1'\n"
        "def _used():\n"
        "    return _A\n"
        "def _dead():\n"
        "    pass\n"
        "class _Gone:\n"
        "    pass\n"
        "def public():\n"
        "    return _used()\n"
    )
    other = "import mod\nmod._CAP\n"
    assert _dead_private_names(source, [source, other]) == ["_B", "_C", "_Gone", "_dead"]


@pytest.mark.parametrize("path", _MODULES, ids=[p.name for p in _MODULES])
def test_module_private_names_are_read(path):
    library = [p.read_text() for p in _MODULES]
    assert _dead_private_names(path.read_text(), library) == []


def _private_imports(source: str, importer: str) -> dict:
    """{(importer, source module): sorted private names} for every import
    of one leading-underscore name from within the package, relative or
    absolute, at any depth of the source."""
    found = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom) or not (
                node.level or (node.module or "").startswith("quasiforce")):
            continue
        names = [alias.name for alias in node.names
                 if alias.name.startswith("_") and not alias.name.startswith("__")]
        if names:
            key = (importer, (node.module or "").rsplit(".", 1)[-1])
            found[key] = sorted(found.get(key, []) + names)
    return found


def test_checker_finds_private_imports():
    source = (
        "from __future__ import annotations\n"
        "from os import _exit\n"
        "from .density import _plan, public\n"
        "from quasiforce.graphs import _fields, __all__\n"
        "def f():\n"
        "    from .density import _Doubling\n"
    )
    assert _private_imports(source, "mod") == {
        ("mod", "density"): ["_Doubling", "_plan"], ("mod", "graphs"): ["_fields"]}


# every private name one library module imports from another, keyed by
# (importer, source): a new one is a deliberate edit of this table
_PRIVATE_IMPORTS = {
    ("density", "errors"): ["_check_budget", "_check_count"],
    ("density", "graphon"): ["_adjacency"],
    ("experiments", "density"): ["_Doubling", "_DoublingRun", "_density_plan"],
    ("experiments", "errors"): ["_check_budget", "_check_count"],
    ("graphon", "errors"): ["_check_count"],
    ("graphon", "graphs"): ["_fields"],
    ("graphs", "errors"): ["_check_count"],
    ("identities", "density"): ["_Doubling"],
    ("identities", "errors"): ["_check_budget", "_check_count"],
    ("quasirandom", "errors"): ["_check_count"],
    ("quasirandom", "graphon"): ["_adjacency"],
    ("sampling", "errors"): ["_check_count"],
}


def test_private_imports_are_pinned():
    found = {}
    for path in _MODULES:
        found.update(_private_imports(path.read_text(), path.stem))
    assert found == _PRIVATE_IMPORTS


# every functools cache in the library: each table is built on first use,
# so importing the package does none of that work
_CACHES = {
    "quasiforce.cli": ["_parser"],
    "quasiforce.density": ["_compile_plan", "_doubling_shape", "_eliminate",
                           "_float_ones"],
    "quasiforce.experiments": ["_param_maps"],
    "quasiforce.graphon": ["_mirror"],
    "quasiforce.graphs": ["_complete_graph"],
    "quasiforce.identities": ["_non_decreasing"],
    "quasiforce.quasirandom": ["_exact_tables", "_subset_bits"],
    "quasiforce.serialize": ["_field_names"],
}

_CACHE_PROBE = """
import json, sys
import quasiforce
from quasiforce import cli
caches = {}
for name, module in sorted(sys.modules.items()):
    if name == "quasiforce" or name.startswith("quasiforce."):
        for attr, value in sorted(vars(module).items()):
            if callable(getattr(value, "cache_info", None)):
                caches.setdefault(name, {})[attr] = value.cache_info().currsize
print(json.dumps(caches))
"""


def test_import_fills_no_cache():
    # a fresh process: the tests that run before this one fill the caches
    src = os.path.dirname(os.path.dirname(quasiforce.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _CACHE_PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    caches = json.loads(out)
    assert {module: sorted(names) for module, names in caches.items()} == _CACHES
    assert all(size == 0 for names in caches.values() for size in names.values()), caches
