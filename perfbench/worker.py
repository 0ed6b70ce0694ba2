"""Worker process of the benchmark: runs one in-process job and prints its
result as one JSON line on stdout.

    PYTHONPATH=src python3 perfbench/worker.py '<job as JSON>'

Jobs: ``scan_round`` (phase A cold tables, then phase B warm queries),
``verify`` (reproduce / correlate / detect_period passes) and ``probe``
(per-layer timings of every module's public functions).  A worker
imports ``harmonicity`` once, so each job starts with cold caches.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

import checks
import inputs
from spans import PARTIAL_ELASTICITY, Deadline, SpeedGauge, Tracer

from harmonicity import cli
from harmonicity.empirics import correlate_measure, load_dataset, reproduce, significance
from harmonicity.enumeration import rank_table
from harmonicity.measures import evaluate_measure
from harmonicity.periodicity import Harmony, analyze
from harmonicity.rationals import approximate, lcm_many
from harmonicity.signal_oracle import ToneStack, detect_period
from harmonicity.tuning import builtin_tuning, ratio_for_semitone, rational_tuning

PINS_PATH = Path(__file__).parent / "pins.json"
# Operations of a few ms share one speed check per interval, which keeps
# the gauge's own cost near 5%.
GAUGE_INTERVAL_S = 0.05
PINS: dict = {}


def run_cli_in_process(argv: list[str]) -> tuple[int, str]:
    """``harmonicity.cli.main(argv)`` with stdout captured; usage errors
    that argparse reports by exiting come back as their exit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


# --------------------------------------------------------------------------
# scan


def _rows(table) -> list[tuple[int, tuple[int, ...], float]]:
    return [(r.rank, r.harmony.semitones, r.value) for r in table.rows]


def _query_matches(query, rows, tables) -> bool:
    measure, tuning, card, top = query
    if measure in inputs.PAIRWISE:
        source = tables[(measure, tuning, card)]
    else:
        source = [r for r in tables[(measure, tuning, None)] if card is None or len(r[1]) == card]
    if measure in inputs.ORDER_FREE:
        return sorted(rows, key=lambda r: r[1]) == sorted(source, key=lambda r: r[1])
    return rows == source[:top]


def job_scan_round(job: dict, tracer: Tracer) -> dict:
    """Phase A ranks every cold table once; phase B sends ``query_cycles``
    cycles of warm queries.  Times are returned per table (s) and per query
    (ms) as ``[kind, time, speed factor]``."""
    rng = random.Random(job["seed"])
    tuning = {name: builtin_tuning(name) for name in inputs.SCAN_TUNINGS}
    tracer.enabled = job["trace_cold"]
    failed = attempted = 0
    tables: dict[tuple, list] = {}
    cold = []
    gauge = SpeedGauge()
    with tracer.span("scan.phase_a"):
        for measure, t, card in inputs.cold_plan(rng):
            factor = gauge.check()
            start = time.perf_counter()
            with tracer.span(f"enumeration.rank_table.{measure}.{t}"):
                tables[(measure, t, card)] = rank_table(tuning[t], measure, card)
            cold.append([inputs.table_key(measure, t, card), time.perf_counter() - start, factor])
    for (measure, t, card), table in tables.items():
        attempted += 1
        failed += checks.table_digest(measure, table.rows) != PINS["scan"][inputs.table_key(measure, t, card)]
        tables[(measure, t, card)] = _rows(table)

    queries: dict[bool, list] = {False: [], True: []}
    gauge = SpeedGauge(GAUGE_INTERVAL_S)
    # a traced run sends each query twice, untraced and traced, so that every
    # kind of query is timed both ways; the order alternates, because the
    # second call finds warmer CPU caches
    for _ in range(job["query_cycles"]):
        for i, query in enumerate(inputs.query_cycle(rng)):
            measure, t, card, top = query
            for traced in ((i % 2 == 1, i % 2 == 0) if job["trace"] else (False,)):
                tracer.enabled = traced
                factor = gauge.check()
                start = time.perf_counter()
                with tracer.span("scan.query"):
                    table = rank_table(tuning[t], measure, card, top)
                queries[traced].append(
                    [inputs.query_kind(query), (time.perf_counter() - start) * 1e3, factor])
                attempted += 1
                failed += not _query_matches(query, _rows(table), tables)
    return {"cold": cold, "queries": queries[False], "traced_queries": queries[True],
            "attempted": attempted, "failed": failed}


# --------------------------------------------------------------------------
# verify


def detect_agrees(tones, tuning, horizon, raw_h) -> tuple[bool, float]:
    """Whether detect_period finds the period h / f1 (relative tolerance
    1e-6, as the CLI's default), and how long the call took in seconds."""
    t = builtin_tuning(tuning)
    stack = ToneStack.from_harmony(Harmony(tones), t, inputs.DEFAULT_F1)
    start = time.perf_counter()
    detected = detect_period(stack, search_horizon=horizon)
    elapsed = time.perf_counter() - start
    predicted = raw_h / inputs.DEFAULT_F1
    agree = detected is not None and bool(abs(detected - predicted) / predicted <= 1e-6)
    return agree, elapsed


def verify_one_pass(rng: random.Random, tracer: Tracer, gauge: SpeedGauge,
                    ops: list) -> tuple[int, int]:
    """One pass; appends ``[kind, seconds, speed factor]`` for every call to
    ``ops`` and returns (operations attempted, operations failed)."""
    plan = inputs.verify_pass(rng, PINS["oracle"])
    failed = attempted = 0
    rational = builtin_tuning("rational")

    def timed(kind: str, fn):
        array_work = kind.startswith("signal_oracle.")
        factor = gauge.check(PARTIAL_ELASTICITY if array_work else 1.0)
        start = time.perf_counter()
        with tracer.span(kind):
            value = fn()
        ops.append([kind, time.perf_counter() - start, factor])
        return value

    for target in plan["targets"]:
        report = timed(f"empirics.reproduce.{target}", lambda: reproduce(target))
        attempted += 1
        failed += checks.reproduce_signature(report) != PINS["reproduce"][target]
    datasets = {}
    for dataset, measure in plan["correlations"]:
        if dataset not in datasets:
            datasets[dataset] = timed(f"empirics.load_dataset.{dataset}",
                                      lambda: load_dataset(dataset))
        report = timed(f"empirics.correlate_measure.{dataset}.{measure}",
                       lambda: correlate_measure(datasets[dataset], measure, rational))
        attempted += 1
        failed += checks.correlation_signature(report) != PINS["correlate"][f"{dataset}/{measure}"]
    for name, tones, tuning, horizon in plan["detect"]:
        raw_h, pinned_agree = PINS["oracle"][inputs.oracle_key(tones, tuning, horizon)]
        agree, _ = timed(f"signal_oracle.detect_period.{name}",
                         lambda: detect_agrees(tones, tuning, horizon, raw_h))
        attempted += 1
        failed += agree != pinned_agree
    return attempted, failed


def job_verify(job: dict, tracer: Tracer) -> dict:
    """Whole passes until ``seconds`` have passed; a traced run alternates
    traced and untraced passes."""
    rng = random.Random(job["seed"])
    ops: dict[bool, list] = {False: [], True: []}
    gauge = SpeedGauge(GAUGE_INTERVAL_S)
    passes = attempted = failed = 0
    deadline = Deadline(job["seconds"])
    min_passes = 2 if job["trace"] else 1  # a traced run needs an untraced pass to compare
    n = 0
    while deadline.more() or n < min_passes:
        tracer.enabled = job["trace"] and n % 2 == 1
        passes += not tracer.enabled
        with tracer.span("verify.pass"):
            a, f = verify_one_pass(rng, tracer, gauge, ops[tracer.enabled])
        attempted += a
        failed += f
        n += 1
    return {"ops": ops[False], "traced_ops": ops[True], "passes": passes,
            "attempted": attempted, "failed": failed}


# --------------------------------------------------------------------------
# probe: per-layer timings from outside each module


def _for_each(fn, items) -> None:
    """Call ``fn`` on every item, keeping no result alive (a growing list of
    results would bring cyclic garbage collection into the timing)."""
    for item in items:
        fn(item)


def _per_call(fn, batch: int, batches: int = 5) -> float:
    """Best over ``batches`` of the mean time of one call, in seconds (the
    best time, as for the end-to-end metrics: noise only adds time)."""
    samples = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(batch):
            fn()
        samples.append((time.perf_counter() - start) / batch)
    return min(samples)


def _each(fn, items) -> float:
    """Best time of ``fn(item)`` over items, in seconds."""
    samples = []
    for item in items:
        start = time.perf_counter()
        fn(item)
        samples.append(time.perf_counter() - start)
    return min(samples)


def _all_harmonies() -> list[Harmony]:
    return [Harmony((0,) + rest) for k in range(12) for rest in combinations(range(1, 12), k)]


def _import_times(runs: int = 5) -> tuple[float, float]:
    """Cumulative import time of harmonicity and of numpy, in ms, from
    ``python -X importtime`` (best over fresh interpreters)."""
    pkg, numpy = [], []
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import harmonicity"],
                              capture_output=True, text=True, timeout=60, check=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.removeprefix("import time:").split("|")]
            if len(parts) == 3 and parts[1].isdigit():
                cumulative[parts[2]] = int(parts[1])
        pkg.append(cumulative["harmonicity"] / 1e3)
        numpy.append(cumulative["numpy"] / 1e3)
    return min(pkg), min(numpy)


PROBE_CLI = {
    "analyze": [["analyze", "--chord", "C4 E4 G4", "--measures", "all"]] * 10,
    # cold every time: each (measure, tuning) pair is new to the rank cache,
    # and the enumeration probe below uses other tunings
    "rank": [["rank", "--tuning", t, "--measure", m, "--cardinality", "3"]
             for t in ("pythagorean", "kirnberger3") for m in inputs.MEASURES],
    "correlate": [["correlate", "--dataset", "triads", "--measure", "rel_periodicity",
                   "--measure", "log_periodicity"]] * 10,
    "tuning": [["tuning", "rational", "--precision", "0.005"]] * 10,
    "approximate": [["approximate", "--value", "1.414214", "--precision", "1e-6"]] * 10,
    "oracle": [["oracle", "--chord", "0,4,7"]] * 5,
    "reproduce": [["reproduce", "table3"]] * 5,
}


def job_probe(job: dict, tracer: Tracer) -> dict:
    m: dict[str, float] = {}
    just = builtin_tuning("just")
    tunings = {name: builtin_tuning(name) for name in inputs.SCAN_TUNINGS}

    with tracer.span("probe.package"):
        m["package.import_ms"], m["package.import_numpy_ms"] = _import_times()

    with tracer.span("probe.cli"):
        for sub, argvs in PROBE_CLI.items():
            with tracer.span(f"cli.main.{sub}"):
                m[f"cli.main_ms.{sub}"] = _each(run_cli_in_process, argvs) * 1e3
        m["cli.stdout_bytes"] = sum(
            len(run_cli_in_process(argv + (["--format", fmt] if sub != "oracle" else []))[1].encode())
            for sub, fmt in inputs.cli_combos() for argv in PROBE_CLI[sub][:1])

    with tracer.span("probe.tuning"):
        offsets = range(-24, 25)
        m["tuning.ratio_for_semitone_us"] = _per_call(
            lambda: _for_each(lambda n: ratio_for_semitone(just, n), offsets), 50) / len(offsets) * 1e6
        m["tuning.rational_tuning_ms"] = _per_call(lambda: rational_tuning(0.01), 1) * 1e3
        m["tuning.rational_tuning_1e-6_ms"] = _per_call(lambda: rational_tuning(1e-6), 1) * 1e3

    with tracer.span("probe.rationals"):
        dens = [1, 15, 8, 5, 4, 3, 5, 2, 5, 3, 5, 8]
        m["rationals.lcm_many_us"] = _per_call(lambda: lcm_many(dens), 2000) * 1e6
        targets = [2.0 ** (k / 12) for k in range(13)]
        m["rationals.approximate_us"] = _per_call(
            lambda: _for_each(lambda x: approximate(x, 0.01), targets), 20) / len(targets) * 1e6

    harmonies = _all_harmonies()
    with tracer.span("probe.periodicity"):
        triad, chromatic = Harmony((0, 4, 7)), Harmony(inputs.CHROMATIC)
        m["periodicity.analyze_triad_us"] = _per_call(lambda: analyze(triad, just), 300) * 1e6
        m["periodicity.analyze_chromatic_us"] = _per_call(lambda: analyze(chromatic, just), 30) * 1e6
        for name, t in tunings.items():
            m[f"periodicity.analyze_all_ms.{name}"] = _per_call(
                lambda: _for_each(lambda h: analyze(h, t), harmonies), 1, 2) * 1e3
        m["periodicity.views"] = sum(len(h) for h in harmonies)

    with tracer.span("probe.measures"):
        for measure in inputs.MEASURES:
            tones = [h.semitones for h in harmonies
                     if measure not in inputs.PAIRWISE or len(h) > 1]
            m[f"measures.evaluate_all_ms.{measure}"] = _per_call(
                lambda: _for_each(lambda s: evaluate_measure(s, measure, just), tones), 1, 1) * 1e3

    with tracer.span("probe.enumeration"):
        evaluated = 0
        for measure, tname, card in inputs.cold_tables():
            key = f"enumeration.rank_table_cold_ms.{measure}.{tname}"
            start = time.perf_counter()
            rank_table(tunings[tname], measure, card)
            m[key] = m.get(key, 0.0) + (time.perf_counter() - start) * 1e3
            evaluated += inputs.harmony_count(card)
        m["enumeration.harmonies_evaluated"] = evaluated
        m["enumeration.rank_table_warm_ms"] = _per_call(
            lambda: rank_table(just, "log_periodicity"), 1, 7) * 1e3
        m["enumeration.rank_query_warm_ms"] = _per_call(
            lambda: rank_table(just, "log_periodicity", 7, 10), 5) * 1e3

    with tracer.span("probe.empirics"):
        m["empirics.load_dataset_ms"] = _each(load_dataset, inputs.DATASETS * 3) * 1e3
        datasets = {d: load_dataset(d) for d in inputs.DATASETS}
        rational = tunings["rational"]
        m["empirics.correlate_measure_ms"] = _each(
            lambda dm: correlate_measure(datasets[dm[0]], dm[1], rational),
            [(d, meas) for d in inputs.DATASETS for meas in inputs.MEASURES]) * 1e3
        m["empirics.significance_us"] = _per_call(lambda: significance(0.846, 13), 500) * 1e6
        for target in inputs.TARGETS:
            m[f"empirics.reproduce_ms.{target}"] = _per_call(lambda: reproduce(target), 1, 3) * 1e3

    with tracer.span("probe.signal_oracle"):
        cells = 0
        for name, tones, tuning, horizon in inputs.ORACLE_FIXED:
            raw_h = PINS["oracle"][inputs.oracle_key(tones, tuning, horizon)][0]
            reps = 1 if horizon > inputs.ORACLE_HORIZON else 5
            m[f"signal_oracle.detect_period_ms.{name}"] = _each(
                lambda _: detect_agrees(tones, tuning, horizon, raw_h), range(reps)) * 1e3
            cells = max(cells, round(horizon * 1000) * len(tones))
        # at the default step: 1000 lags per lowest-tone period, k tones; the
        # grid is built as an outer product and its cosine, both float64
        m["signal_oracle.grid_cells"] = cells
        m["signal_oracle.grid_bytes_computed"] = 2 * 8 * cells
    return {"metrics": m}


JOBS = {"scan_round": job_scan_round, "verify": job_verify, "probe": job_probe}


def main() -> None:
    job = json.loads(sys.argv[1])
    PINS.update(json.loads(PINS_PATH.read_text()))
    tracer = Tracer(job.get("trace", False), prefix=job.get("span_prefix", "w."),
                    root_parent=job.get("span_parent"))
    result = JOBS[job["kind"]](job, tracer)
    result["spans"] = tracer.spans
    print(json.dumps(result))


if __name__ == "__main__":
    main()
