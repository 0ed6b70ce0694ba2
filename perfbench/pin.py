"""Regenerate ``perfbench/pins.json``: the expected outputs every benchmark
run is checked against.

    PYTHONPATH=src python3 perfbench/pin.py

The committed pins were taken from the seed commit.  Run this again only
for a change that alters outputs on purpose, and say so in the change.
CLI calls are pinned in-process (``cli.main``); the benchmark then
compares them with real ``python -m harmonicity.cli`` subprocesses.  An
input that ends in an uncaught exception is a known defect, not an
expected output, and is refused here.
"""

from __future__ import annotations

import json
import sys

import checks
import inputs
import worker

from harmonicity.empirics import correlate_measure, load_dataset, reproduce
from harmonicity.enumeration import rank_table
from harmonicity.periodicity import Harmony, analyze
from harmonicity.tuning import builtin_tuning


def pin_cli() -> dict:
    pins = {}
    for argv in inputs.all_cli_argvs():
        try:
            code, stdout = worker.run_cli_in_process(argv)
        except Exception as exc:  # a traceback in one-shot use: keep it out of the pins
            sys.exit(f"{inputs.argv_key(argv)}: uncaught {type(exc).__name__}: {exc}")
        pins[inputs.argv_key(argv)] = [code, checks.cli_signature(argv, code, stdout)]
    return pins


def pin_oracle() -> dict:
    pins = {}
    cases = [(tones, tuning, inputs.ORACLE_HORIZON) for tones, tuning in inputs.oracle_candidates()]
    cases += [(tones, tuning, horizon) for _, tones, tuning, horizon in inputs.ORACLE_FIXED]
    for tones, tuning, horizon in cases:
        raw_h = analyze(Harmony(tones), builtin_tuning(tuning), average_inversions=False).raw_h
        if raw_h <= horizon:
            agree, _ = worker.detect_agrees(tones, tuning, horizon, raw_h)
            pins[inputs.oracle_key(tones, tuning, horizon)] = [raw_h, agree]
    return pins


def main() -> None:
    rational = builtin_tuning("rational")
    pins = {
        "cli": pin_cli(),
        "scan": {
            inputs.table_key(m, t, c): checks.table_digest(m, rank_table(builtin_tuning(t), m, c).rows)
            for m, t, c in inputs.cold_tables()
        },
        "reproduce": {t: checks.reproduce_signature(reproduce(t)) for t in inputs.TARGETS},
        "correlate": {
            f"{d}/{m}": checks.correlation_signature(correlate_measure(load_dataset(d), m, rational))
            for d in inputs.DATASETS for m in inputs.MEASURES
        },
        "oracle": pin_oracle(),
    }
    worker.PINS_PATH.write_text(json.dumps(pins, indent=0, sort_keys=True) + "\n")
    print(f"pinned {sum(len(v) for v in pins.values())} outputs to {worker.PINS_PATH}")


if __name__ == "__main__":
    main()
