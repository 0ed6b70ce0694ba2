"""Public surface: every exported name resolves, so deleting a function
cannot leave a stale entry in an ``__all__``, the package exports every
module's names in order and loads ``empirics`` and ``enumeration`` only
when they are used, every name the benchmark
under ``perfbench/`` imports still exists, one module turns ratios into
integer pairs, one states the oracle's float domain, only the oracle
imports numpy, the oracle looks up ratios in one function, ``reproduce``
builds its checks in two places, only the lexicographic layout of the
octave sorts on semitones, and one routine ranks every cold column."""

import ast
import importlib
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
import textwrap
from itertools import chain
from pathlib import Path

import pytest

import harmonicity
from harmonicity._ids import DATASET_IDS, REPRODUCTION_TARGETS

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


def test_package_exports_each_modules_names_in_order():
    # the package writes out the names of the modules it loads on first use,
    # so this keeps them equal to those modules' own lists
    modules = ["empirics", "enumeration", "errors", "measures", "periodicity", "rationals",
               "signal_oracle", "tuning"]
    names = chain.from_iterable(importlib.import_module(f"harmonicity.{name}").__all__
                                for name in modules)
    assert harmonicity.__all__ == [*names, "__version__"]
    assert len(harmonicity.__all__) == 49


def test_package_resolves_a_lazy_name_to_its_modules_object():
    assert harmonicity.load_dataset is harmonicity.empirics.load_dataset
    assert harmonicity.rank_table is harmonicity.enumeration.rank_table
    with pytest.raises(AttributeError, match="^module 'harmonicity' has no attribute 'nope'$"):
        harmonicity.nope


LAZY = {"harmonicity.empirics", "harmonicity.enumeration"}


def _child(*args):
    """Run ``python ARGS...`` in a fresh interpreter from this package's
    source root; return its stdout and the modules it imported, read from
    ``-X importtime``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert proc.returncode == 0, proc.stderr
    imported = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    return proc.stdout, imported


# which of the lazy modules each subcommand loads
SUBCOMMAND_LOADS = {
    "analyze --chord 0,4,7": set(),
    "tuning just": set(),
    "approximate --value 1.5 --precision 0.01": set(),
    "oracle --chord 0,4,7": set(),
    "rank --cardinality 3 --top 1": {"harmonicity.enumeration"},
    "correlate --dataset dyads --measure roughness": {"harmonicity.empirics"},
    "reproduce table2": {"harmonicity.empirics"},
}


@pytest.mark.parametrize("argv, loaded", SUBCOMMAND_LOADS.items(),
                         ids=[argv.split()[0] for argv in SUBCOMMAND_LOADS])
def test_each_subcommand_loads_only_the_modules_it_uses(argv, loaded):
    _, imported = _child("-m", "harmonicity.cli", *argv.split())
    assert imported & LAZY == loaded
    assert "numpy" in imported  # the oracle still imports it with the package


def test_a_bare_import_loads_the_lazy_modules_on_first_use():
    # the child reads the lazy modules' names from its arguments
    script = textwrap.dedent("""
        import json, sys
        import harmonicity
        loaded = lambda: sorted(name for name in sys.modules if name in sys.argv[1:])
        steps = [loaded()]
        listed = set(harmonicity.__all__) <= set(dir(harmonicity))
        steps.append(loaded())
        names = {}
        exec("from harmonicity import *", names)
        names.pop("__builtins__")
        bound = sorted(names) == sorted(harmonicity.__all__) and all(
            value is getattr(harmonicity, name) for name, value in names.items())
        steps.append(loaded())
        print(json.dumps([steps, listed, bound, len(names)]))
    """)
    out, _ = _child("-c", script, *sorted(LAZY))
    steps, listed, bound, count = json.loads(out)
    # neither the import nor dir() loads them; the star import loads both
    assert steps == [[], [], sorted(LAZY)]
    assert listed and bound and count == 49


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


def test_registry_ids_are_written_once():
    # the CLI's choices and the registries of empirics read them from _ids.py;
    # only a reproduction target names a dataset id again, as its dataset
    writers = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and node.value in (*DATASET_IDS, *REPRODUCTION_TARGETS):
                writers.setdefault(node.value, []).append(path.name)
    for target in REPRODUCTION_TARGETS:
        assert writers[target] == ["_ids.py"], target
    for dataset in DATASET_IDS:
        assert writers[dataset].count("_ids.py") == 1, dataset
        assert set(writers[dataset]) == {"_ids.py", "empirics.py"}, dataset


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


def test_only_the_oracle_imports_numpy():
    # numpy is most of the package's import time and only the oracle computes
    # on arrays, so importing it lazily stays a change to one module
    importers = sorted({path.name for path in PACKAGE.glob("*.py")
                        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                        if isinstance(node, ast.Import)
                        and any(alias.name.partition(".")[0] == "numpy" for alias in node.names)
                        or isinstance(node, ast.ImportFrom)
                        and (node.module or "").partition(".")[0] == "numpy"})
    assert importers == ["signal_oracle.py"]


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


def test_only_the_lexicographic_layout_sorts_on_semitones():
    # ranked rows sort on values alone and keep the lexicographic order of
    # enumeration._octave for ties, so comparing semitone tuples is that
    # layout's one sort; a key named at module level counts as its value
    tree = ast.parse((PACKAGE / "enumeration.py").read_text(encoding="utf-8"))
    bound = {target.id: node.value for node in tree.body if isinstance(node, ast.Assign)
             for target in node.targets if isinstance(target, ast.Name)}

    def reads_semitones(expression):
        return any(isinstance(node, ast.Attribute) and node.attr == "semitones"
                   or isinstance(node, ast.Constant) and node.value == "semitones"
                   or isinstance(node, ast.Name) and node.id in bound
                   and reads_semitones(bound[node.id])
                   for node in ast.walk(expression))

    layout = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "_octave")
    inside = {id(node) for node in ast.walk(layout)}
    keys = [keyword.value for node in ast.walk(tree) if isinstance(node, ast.Call)
            for keyword in node.keywords if keyword.arg == "key"]
    reading = [key for key in keys if reads_semitones(key)]
    outside = [key.lineno for key in reading if id(key) not in inside]
    assert keys and len(reading) == 1 and outside == [], (
        f"enumeration.py sorts on semitones outside _octave on lines {outside}")


def test_enumeration_ranks_cold_columns_in_one_place():
    # a category and a whole octave go through one kernel call and one row
    # construction, so the two can never rank ties differently
    tree = ast.parse((PACKAGE / "enumeration.py").read_text(encoding="utf-8"))
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    kernel = [node.lineno for node in calls
              if isinstance(node.func, ast.Name) and node.func.id == "_column_values"]
    rows = [node.lineno for node in calls
            if isinstance(node.func, ast.Name) and node.func.id == "map"
            and node.args and isinstance(node.args[0], ast.Name) and node.args[0].id == "_row"]
    assert (len(kernel), len(rows)) == (1, 1), (
        f"enumeration.py calls _column_values on lines {kernel} and maps _row on lines {rows}")


def test_enumeration_stores_tables_only_through_setdefault():
    # no pass replaces a stored table, so a table returned once is the same
    # object later: past its definition, _COLUMNS is only read or given a
    # table through setdefault
    tree = ast.parse((PACKAGE / "enumeration.py").read_text(encoding="utf-8"))
    parents = {id(child): node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    uses = [parents[id(node)] for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == "_COLUMNS"]
    writes = [f"{use.lineno}: {ast.unparse(use)}" for use in uses
              if not (isinstance(use, ast.Attribute) and use.attr in ("get", "setdefault")
                      or isinstance(use, ast.Subscript) and isinstance(use.ctx, ast.Load)
                      or isinstance(use, ast.AnnAssign) and use in tree.body)]
    assert writes == [], f"enumeration.py uses _COLUMNS other than by setdefault: {writes}"
    assert any(isinstance(use, ast.Attribute) and use.attr == "setdefault" for use in uses)


def test_pairwise_terms_are_written_once():
    # an interval a/b's similarity weight and Brefeld factor serve both
    # evaluate_measure and the column kernel's fold table
    tree = ast.parse((PACKAGE / "measures.py").read_text(encoding="utf-8"))
    terms = [ast.unparse(node) for node in ast.walk(tree) if isinstance(node, ast.BinOp)]
    counts = {term: terms.count(term) for term in ("a + b - 1", "a * b")}
    assert counts == {"a + b - 1": 1, "a * b": 1}, f"times each term is written in measures.py: {counts}"


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
