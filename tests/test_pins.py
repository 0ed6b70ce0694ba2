"""Every CLI output, cold scan table, ``reproduce`` target, correlation and
oracle case, against the signatures the benchmark pins in
``perfbench/pins.json``.

The argv list, the scan plan, the oracle cases and the signatures are the
benchmark's own ``perfbench/inputs.py``, ``checks.py`` and ``worker.py``,
loaded by path, so there is one list and one pin file.  A signature covers
the bytes of an output, except where ``checks.py`` states otherwise: for
``oracle`` output it covers the harmony, the predicted period and the
verdict, not the detected period's last digits, and for a ``similarity``
rank table each harmony's value and ranks that follow the values, not the
row order.  A ``reproduce`` signature covers only each check's name and
verdict, not the numbers it compares; a correlation's covers ``r`` and
``p`` by ``repr`` and ``n``; an oracle pin is the raw h and whether
``detect_period`` finds the period h / f1.  The byte digests in
``tests/test_cli.py`` stay the strict check there.  An output changed on
purpose is pinned again with ``perfbench/pin.py``.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from harmonicity import (
    Harmony,
    analyze,
    builtin_tuning,
    cli,
    correlate_measure,
    enumeration,
    load_dataset,
    rank_table,
    reproduce,
)

PINS = json.loads((Path(__file__).resolve().parent.parent / "perfbench" / "pins.json")
                  .read_text(encoding="utf-8"))


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


def test_every_pinned_cli_output_is_unchanged(perfbench):
    inputs, checks = perfbench.inputs, perfbench.checks
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
def test_every_pinned_scan_table_is_unchanged(monkeypatch, perfbench, reverse):
    # every table ranked cold, in the benchmark's order and backwards, so a
    # pass stores its siblings before or after they are asked for
    inputs, checks = perfbench.inputs, perfbench.checks
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


def test_every_pinned_reproduce_target_is_unchanged(perfbench):
    inputs, checks = perfbench.inputs, perfbench.checks
    assert sorted(inputs.TARGETS) == sorted(PINS["reproduce"])
    changed = [target for target in inputs.TARGETS
               if checks.reproduce_signature(reproduce(target)) != PINS["reproduce"][target]]
    assert changed == [], f"{len(changed)} reproduce targets differ from their pins: {changed}"


def test_every_pinned_correlation_is_unchanged(perfbench):
    inputs, checks = perfbench.inputs, perfbench.checks
    rational = builtin_tuning("rational")
    datasets = {name: load_dataset(name) for name in inputs.DATASETS}
    signatures = {
        f"{name}/{measure}": checks.correlation_signature(
            correlate_measure(datasets[name], measure, rational))
        for name in inputs.DATASETS for measure in inputs.MEASURES
    }
    assert sorted(signatures) == sorted(PINS["correlate"])
    changed = [key for key, signature in signatures.items() if signature != PINS["correlate"][key]]
    assert changed == [], f"{len(changed)} correlations differ from their pins: {changed}"


def test_every_pinned_oracle_case_is_unchanged(perfbench):
    # the cases the pins keep: the seeded candidates at the default horizon
    # and the fixed ones, each while its h fits the horizon
    inputs = perfbench.inputs
    cases = [(tones, tuning, inputs.ORACLE_HORIZON) for tones, tuning in inputs.oracle_candidates()]
    cases += [(tones, tuning, horizon) for _, tones, tuning, horizon in inputs.ORACLE_FIXED]
    outcomes = {}
    for tones, tuning, horizon in cases:
        raw_h = analyze(Harmony(tones), builtin_tuning(tuning), average_inversions=False).raw_h
        if raw_h <= horizon:
            agree, _ = perfbench.worker.detect_agrees(tones, tuning, horizon, raw_h)
            outcomes[inputs.oracle_key(tones, tuning, horizon)] = [raw_h, agree]
    changed = sorted(key for key in outcomes.keys() | PINS["oracle"].keys()
                     if outcomes.get(key) != PINS["oracle"].get(key))
    assert changed == [], f"{len(changed)} oracle cases differ from their pins: {changed}"
