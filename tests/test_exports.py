"""Public surface: every exported name resolves, so deleting a function
cannot leave a stale entry in an ``__all__``, every name the benchmark
under ``perfbench/`` imports still exists, one module turns ratios into
integer pairs, one states the oracle's float domain, the oracle looks up
ratios in one function, and ``reproduce`` builds its checks in two places."""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import harmonicity

MODULES = [harmonicity] + [
    importlib.import_module(f"harmonicity.{info.name}")
    for info in pkgutil.iter_modules(harmonicity.__path__)
]
BENCHMARK = Path(__file__).resolve().parent.parent / "perfbench"
PACKAGE = Path(harmonicity.__file__).resolve().parent


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_every_exported_name_resolves(module):
    assert module.__all__, module.__name__
    stale = [name for name in module.__all__ if not hasattr(module, name)]
    assert stale == [], f"{module.__name__}.__all__ names what it does not define"


def test_package_exports_are_unique():
    # the package star-imports its modules, so a name two modules export
    # would silently hide one of them
    assert len(set(harmonicity.__all__)) == len(harmonicity.__all__)


@pytest.mark.parametrize("script", ["worker.py", "pin.py"])
def test_benchmark_imports_resolve(script):
    # the benchmark imports some names that nothing in the package calls
    # (lcm_many); deleting one would break every benchmark run
    tree = ast.parse((BENCHMARK / script).read_text(encoding="utf-8"))
    imports = [f"{node.module}.{alias.name}" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module.startswith("harmonicity")
               for alias in node.names]
    assert imports
    missing = [name for name in imports if not _resolves(name)]
    assert missing == [], f"perfbench/{script} imports what the package no longer defines"


def test_only_tuning_converts_ratios_to_integer_pairs():
    # every measure computes on the pairs of tuning._ratio_pairs
    callers = sorted(path.name for path in PACKAGE.glob("*.py")
                     for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                     if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                     and node.func.attr == "as_integer_ratio")
    assert callers == ["tuning.py"]


def test_only_the_oracle_states_its_float_domain():
    # the CLI and the library share signal_oracle._check_float_domain
    holders = sorted({path.name for path in PACKAGE.glob("*.py")
                     for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                     if isinstance(node, ast.Constant) and isinstance(node.value, str)
                     and "finite normal float range" in node.value})
    assert holders == ["signal_oracle.py"]


def test_oracle_looks_up_ratios_only_in_its_float_table():
    # one float table per tuning serves every tone stack; a Fraction per
    # tone anywhere else in the oracle would bring back its cost
    tree = ast.parse((PACKAGE / "signal_oracle.py").read_text(encoding="utf-8"))
    table = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "_float_ratios")
    lookups = {"ratios_for", "ratio_for_semitone"}
    named = [node for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id in lookups
             or isinstance(node, ast.Attribute) and node.attr in lookups]
    inside = {id(node) for node in ast.walk(table)}
    outside = [node.lineno for node in named if id(node) not in inside]
    assert named and outside == [], (
        f"signal_oracle.py names a ratio lookup outside _float_ratios on lines {outside}")


def test_reproduce_builds_checks_in_two_places():
    # one construction for golden cells, one for golden-row statistics
    tree = ast.parse((PACKAGE / "empirics.py").read_text(encoding="utf-8"))
    calls = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "ReproductionCheck"]
    assert len(calls) <= 2, f"ReproductionCheck( is called on lines {calls} of empirics.py"


def _resolves(dotted):
    """Whether ``from module import name`` finds ``name``, a submodule included."""
    module, name = dotted.rsplit(".", 1)
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        return importlib.util.find_spec(dotted) is not None
    except ModuleNotFoundError:  # ``module`` is not a package
        return False
