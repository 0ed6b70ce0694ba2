"""Shared fixtures."""

import importlib.util
import os
import resource
import subprocess
import sys
from functools import cache
from pathlib import Path
from types import SimpleNamespace

import pytest

import harmonicity
from harmonicity import enumeration, measures
from harmonicity.cli import main

BENCHMARK = Path(__file__).resolve().parent.parent / "perfbench"

#: Address space of a ``limited_cli`` child: room for numpy and the
#: oracle's largest lattice, 130000 x 12 cells.
CHILD_ADDRESS_SPACE = 1_500_000_000


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


@pytest.fixture
def empty_store(monkeypatch):
    """A callable that empties ``enumeration``'s ranked tables through
    ``monkeypatch``, and with ``kernel=True`` also the column kernel's
    per-tuning tables, so the next query ranks cold; the test's end
    restores the stores it replaced."""

    def empty(kernel: bool = False) -> None:
        monkeypatch.setattr(enumeration, "_COLUMNS", {})
        if kernel:
            for name in ("_octave_pairs", "_interval_folds"):
                monkeypatch.setattr(measures, name, cache(getattr(measures, name).__wrapped__))

    return empty


@pytest.fixture
def limited_cli():
    """Run ``python -m harmonicity.cli ARGV...`` in a child process, from
    this package's own source root, and return the completed process with
    its text output.  The child alone runs under ``cpu_seconds`` of CPU
    time and ``CHILD_ADDRESS_SPACE`` bytes of memory, set through
    ``preexec_fn`` as ``RLIMIT_CPU`` and ``RLIMIT_AS``: past the first it is
    killed by a signal, so its return code is negative, and past the second
    an allocation fails."""

    def run(*argv: str, cpu_seconds: int = 60) -> subprocess.CompletedProcess:
        def limit() -> None:
            resource.setrlimit(resource.RLIMIT_CPU, (cpu_seconds, cpu_seconds + 1))
            resource.setrlimit(resource.RLIMIT_AS, (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))

        return subprocess.run(
            [sys.executable, "-m", "harmonicity.cli", *argv], capture_output=True, text=True,
            # wall time stays generous: a loaded machine slows the child, not its CPU time
            timeout=4 * cpu_seconds + 60, preexec_fn=limit,
            env={**os.environ, "PYTHONPATH": str(Path(harmonicity.__file__).parents[1])},
        )

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
