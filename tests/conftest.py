"""Shared fixtures."""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from harmonicity.cli import main

BENCHMARK = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def cli_stdout(capsys):
    """Run ``harmonicity ARGV...`` in process and return its stdout; the run
    must exit 0 with nothing on stderr.  Every output format is printed by
    the CLI alone, so format tests in any module go through here."""

    def run(*argv: str) -> str:
        assert main(list(argv)) == 0
        out, err = capsys.readouterr()
        assert err == ""
        return out

    return run


@pytest.fixture(scope="session")
def perfbench():
    """The benchmark's ``inputs``, ``checks``, ``spans`` and ``worker``
    modules, loaded by path from ``perfbench/`` in that order, so that each
    finds those before it under the bare name it imports them by.  The
    names are in ``sys.modules`` only while the modules load, and no
    ``sys.path`` entry is added."""
    modules = {}
    with pytest.MonkeyPatch.context() as patch:
        for name in ("inputs", "checks", "spans", "worker"):
            spec = importlib.util.spec_from_file_location(name, BENCHMARK / f"{name}.py")
            modules[name] = importlib.util.module_from_spec(spec)
            patch.setitem(sys.modules, name, modules[name])
            spec.loader.exec_module(modules[name])
    return SimpleNamespace(**modules)
