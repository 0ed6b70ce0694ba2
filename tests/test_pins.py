"""Every CLI output and every cold scan table, against the signatures the
benchmark pins in ``perfbench/pins.json``.

The argv list, the scan plan and the signatures are the benchmark's own
``perfbench/inputs.py`` and ``perfbench/checks.py``, loaded by path, so
there is one list and one pin file.  A signature covers the bytes of an
output, except in two places that ``checks.py`` states: for ``oracle``
output it covers the harmony, the predicted period and the verdict, not the
detected period's last digits, and for a ``similarity`` rank table each
harmony's value and ranks that follow the values, not the row order.  The
byte digests in ``tests/test_cli.py`` stay the strict check there.  An
output changed on purpose is pinned again with ``perfbench/pin.py``.
"""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from harmonicity import builtin_tuning, cli, enumeration, rank_table

BENCHMARK = Path(__file__).resolve().parent.parent / "perfbench"
PINS = json.loads((BENCHMARK / "pins.json").read_text(encoding="utf-8"))


def load(name):
    """``perfbench/<name>.py`` as a module named ``name``."""
    spec = importlib.util.spec_from_file_location(name, BENCHMARK / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


with pytest.MonkeyPatch.context() as patch:
    # checks.py imports inputs by its bare name
    patch.setitem(sys.modules, "inputs", inputs := load("inputs"))
    checks = load("checks")


def run(argv):
    """Exit code and stdout of ``harmonicity ARGV...`` in process; argparse
    reports a usage error by exiting, which comes back as its code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


def test_every_pinned_cli_output_is_unchanged():
    argvs = inputs.all_cli_argvs()
    assert len(argvs) == len(PINS["cli"])
    changed = []
    for argv in argvs:
        code, stdout = run(argv)
        key = inputs.argv_key(argv)
        if [code, checks.cli_signature(argv, code, stdout)] != PINS["cli"][key]:
            changed.append(key)
    assert changed == [], f"{len(changed)} CLI outputs differ from their pins: {changed}"


@pytest.mark.parametrize("reverse", [False, True], ids=["plan-order", "reversed"])
def test_every_pinned_scan_table_is_unchanged(monkeypatch, reverse):
    # every table ranked cold, in the benchmark's order and backwards, so a
    # pass stores its siblings before or after they are asked for
    monkeypatch.setattr(enumeration, "_COLUMNS", {})
    tables = inputs.cold_tables()
    assert len(tables) == len(PINS["scan"])
    changed = []
    for measure, tuning, cardinality in tables[::-1] if reverse else tables:
        rows = rank_table(builtin_tuning(tuning), measure, cardinality).rows
        key = inputs.table_key(measure, tuning, cardinality)
        if checks.table_digest(measure, rows) != PINS["scan"][key]:
            changed.append(key)
    assert changed == [], f"{len(changed)} scan tables differ from their pins: {changed}"
