"""Benchmark of the harmonicity library and CLI.

    python3 perfbench/run.py --workload cli_oneshot|scan|verify \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is measured from ``src/``
(``PYTHONPATH=src``), never from an installed copy.  Every workload is a
closed loop with one client and at most one worker process at a time.

Untraced (``--trace 0``) runs report the end-to-end metrics; traced runs
(``--trace 1``) run the workload with half of its operations traced, then a
probe that times each module's public functions, and report the per-layer
metrics.  Each operation's output is checked against pins taken from the
seed commit (``perfbench/pins.json``); the last stdout line is the JSON
result, and a record with the environment, samples and spans is written to
``.perfbench_out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import inputs
from spans import PARTIAL_ELASTICITY, Deadline, SpeedGauge, Tracer, summarize

HERE = Path(__file__).resolve().parent
OUT_DIR = Path(".perfbench_out")
SETUP_RUNS = 7
SCAN_QUERY_CYCLES = 1
CHILD_CPU_S = 60
TAIL_PERCENTILE = 90
# 5 cycles of 21 calls leave at least ten samples beyond the tail percentile
CLI_MIN_CYCLES = 5


def limit_child_cpu() -> None:
    """Guard for timed child processes in place of a wall-clock timeout: a
    wait with a timeout polls at intervals of up to 50 ms, which would add
    that much noise to every timing."""
    resource.setrlimit(resource.RLIMIT_CPU, (CHILD_CPU_S, CHILD_CPU_S + 1))


def scaled(samples: list[list]) -> list[list]:
    """``[kind, time, speed factor]`` samples as ``[kind, time at nominal
    machine speed]``."""
    return [[kind, value * factor] for kind, value, factor in samples]


def kind_medians(samples: list[list]) -> dict[str, float]:
    """The median time of each kind of operation in ``[kind, time]``
    samples."""
    by_kind: dict[str, list[float]] = {}
    for kind, value in samples:
        by_kind.setdefault(kind, []).append(value)
    return {kind: statistics.median(values) for kind, values in by_kind.items()}


def per_kind(samples: list[list]) -> list[float]:
    """The operation mix with each operation's time replaced by the median
    time of its kind in the run.  The mix repeats a fixed multiset of kinds
    whose costs differ up to 100x; the per-kind median keeps the median of
    the mix on one kind."""
    medians = kind_medians(samples)
    return [medians[kind] for kind, _ in samples]


def overhead_pct(untraced: list[list], traced: list[list]) -> float:
    """Tracing overhead in percent: the median, over the kinds of operation
    timed both ways, of the ratio of their traced to untraced median time.
    Comparing kind by kind keeps the cost mix out of the ratio."""
    plain, with_spans = kind_medians(untraced), kind_medians(traced)
    ratios = [with_spans[kind] / plain[kind] for kind in with_spans.keys() & plain.keys()]
    return 100.0 * (statistics.median(ratios) - 1.0)


def tail(values: list[float]) -> tuple[float, int]:
    """The TAIL_PERCENTILE-th percentile of per-call times, and how many
    samples lie beyond it.  The level is fixed, so the statistic does not
    depend on how many cycles fit in a run."""
    value = statistics.quantiles(values, n=100, method="inclusive")[TAIL_PERCENTILE - 1]
    return value, sum(v > value for v in values)


class Bench:
    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in ("src", os.environ.get("PYTHONPATH")) if p))
        self.tracer = Tracer(bool(args.trace), prefix="r.")
        self.pins = json.loads((HERE / "pins.json").read_text())
        self.spans: list[dict] = []
        self.workers = 0

    def worker(self, job: dict, timeout: float) -> dict:
        """Run one worker job to completion and return its JSON result."""
        job = dict(job, span_prefix=f"w{self.workers}.", span_parent=self.tracer.current)
        self.workers += 1
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(job)],
                              env=self.env, capture_output=True, text=True, timeout=timeout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"worker job {job['kind']!r} exited with {proc.returncode}")
        result = json.loads(proc.stdout.splitlines()[-1])
        self.spans.extend(result.pop("spans"))
        return result

    def setup_samples(self) -> list[list]:
        """Wall times of fresh interpreters through ``import harmonicity``,
        as ``["setup", seconds, speed factor]``."""
        samples = []
        gauge = SpeedGauge()
        for _ in range(SETUP_RUNS):
            factor = gauge.check(PARTIAL_ELASTICITY)
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import harmonicity"], env=self.env,
                           check=True, preexec_fn=limit_child_cpu)
            samples.append(["setup", time.perf_counter() - start, factor])
        return samples

    # ----------------------------------------------------------------------
    # workloads: each returns its untraced and traced operations as [kind, ms],
    # the operations of its passes as [kind, s], the pass count and op counts

    def cli_oneshot(self, seconds: float) -> dict:
        rng = random.Random(self.args.seed)
        tour = inputs.cli_tour(rng)
        calls: dict[bool, list] = {False: [], True: []}
        gauge = SpeedGauge()
        cycles = attempted = failed = 0
        deadline = Deadline(seconds)
        while deadline.more() or cycles < CLI_MIN_CYCLES:
            for argv in rng.sample(tour, len(tour)):
                traced = bool(self.args.trace) and len(calls[True]) < len(calls[False])
                self.tracer.enabled = traced
                factor = gauge.check(PARTIAL_ELASTICITY)
                start = time.perf_counter()
                with self.tracer.span(f"cli.{argv[0]}"):
                    proc = subprocess.run([sys.executable, "-m", "harmonicity.cli", *argv],
                                          env=self.env, capture_output=True, text=True,
                                          preexec_fn=limit_child_cpu)
                calls[traced].append(
                    [inputs.argv_key(argv), (time.perf_counter() - start) * 1e3, factor])
                attempted += 1
                code, sig = self.pins["cli"][inputs.argv_key(argv)]
                failed += (proc.returncode != code or "Traceback" in proc.stderr
                           or checks.cli_signature(argv, proc.returncode, proc.stdout) != sig)
            cycles += 1
        self.tracer.enabled = bool(self.args.trace)
        return {"ops": calls[False], "traced_ops": calls[True],
                "pass_items": [[kind, ms / 1e3, f] for kind, ms, f in calls[False]],
                "passes": cycles, "attempted": attempted, "failed": failed}

    def scan(self, seconds: float) -> dict:
        work = {"ops": [], "traced_ops": [], "pass_items": [], "passes": 0,
                "attempted": 0, "failed": 0}
        deadline = Deadline(seconds)
        rounds = 0
        while deadline.more():
            trace_cold = bool(self.args.trace) and rounds % 2 == 0
            with self.tracer.span("scan.round"):
                result = self.worker({"kind": "scan_round", "seed": self.args.seed * 1000 + rounds,
                                      "trace": bool(self.args.trace), "trace_cold": trace_cold,
                                      "query_cycles": SCAN_QUERY_CYCLES}, timeout=150)
            if not trace_cold:
                work["pass_items"] += result["cold"]
                work["passes"] += 1
            work["ops"] += result["queries"]
            work["traced_ops"] += result["traced_queries"]
            work["attempted"] += result["attempted"]
            work["failed"] += result["failed"]
            rounds += 1
        return work

    def verify(self, seconds: float) -> dict:
        with self.tracer.span("verify.worker"):
            result = self.worker({"kind": "verify", "seed": self.args.seed,
                                  "trace": bool(self.args.trace), "seconds": seconds},
                                 timeout=seconds + 120)

        def detect_ms(ops):
            return [[kind, s * 1e3, f] for kind, s, f in ops if kind.startswith("signal_oracle.")]

        return {"ops": detect_ms(result["ops"]), "traced_ops": detect_ms(result["traced_ops"]),
                "pass_items": result["ops"], "passes": result["passes"],
                "attempted": result["attempted"], "failed": result["failed"]}

    # ----------------------------------------------------------------------

    def environment(self) -> dict:
        probe = subprocess.run(
            [sys.executable, "-c",
             "import harmonicity, numpy; print(len(harmonicity.__all__), numpy.__version__)"],
            env=self.env, capture_output=True, text=True, check=True, timeout=60)
        public_names, numpy_version = probe.stdout.split()
        commit = None
        if Path(".git").exists():
            commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        sources = sorted(Path("src/harmonicity").rglob("*.py"))
        src_digest = hashlib.sha256()
        for path in sources:
            src_digest.update(str(path).encode() + b"\0" + path.read_bytes())
        return {
            "python": platform.python_version(),
            "numpy": numpy_version,
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "commit": commit,
            "src_sha256": src_digest.hexdigest(),
            "package.src_lines": sum(len(p.read_text().splitlines()) for p in sources),
            "package.public_names": int(public_names),
        }

    def run(self) -> dict:
        args = self.args
        run_fn = {"cli_oneshot": self.cli_oneshot, "scan": self.scan, "verify": self.verify}
        with self.tracer.span(f"run.{args.workload}"):
            with self.tracer.span("run.setup"):
                setup_samples = self.setup_samples()
            # a traced run spends half its time on the workload, then probes
            seconds = args.seconds / 2 if args.trace else args.seconds
            with self.tracer.span("run.workload"):
                work = run_fn[args.workload](seconds)
            layers = {}
            if args.trace:
                with self.tracer.span("run.probe"):
                    layers = self.worker({"kind": "probe", "trace": True}, timeout=150)["metrics"]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        environment = self.environment()
        ops = scaled(work["ops"])
        tail_value, tail_beyond = tail([value for _, value in ops])
        if args.trace:
            layers["trace.overhead_pct"] = overhead_pct(ops, scaled(work["traced_ops"]))
            self.spans.extend(self.tracer.spans)
            layers["trace.spans"] = len(self.spans)
            for name in ("package.src_lines", "package.public_names"):
                layers[name] = environment[name]
            metrics = layers
        else:
            metrics = {
                "setup_s": statistics.median(value for _, value in scaled(setup_samples)),
                "peak_rss_mb": peak_rss_mb,
                "p50_ms": statistics.median(per_kind(ops)),
                "tail_ms": tail_value,
                "pass_s": sum(per_kind(scaled(work["pass_items"]))) / work["passes"],
            }
        return {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "environment": environment,
            "attempted": work["attempted"], "failed": work["failed"],
            "fail_ratio": work["failed"] / work["attempted"],
            # raw times with the speed factor each was scaled by
            "samples": {"op_ms": work["ops"], "pass_items_s": work["pass_items"],
                        "passes": work["passes"], "tail_percentile": TAIL_PERCENTILE,
                        "tail_samples_beyond": tail_beyond,
                        "setup_s": setup_samples},
            "metrics": metrics,
            "spans": self.spans,
            "span_summary": summarize(self.spans),
        }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("cli_oneshot", "scan", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not Path("src/harmonicity/__init__.py").is_file():
        print("run.py: no src/harmonicity package here; run from the repository root",
              file=sys.stderr)
        return 2
    # one CPU for the benchmark, its workers and the program, so that the
    # speed gauge measures the CPU the work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    record = Bench(args).run()
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1))

    spec = json.loads(Path("BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in record["metrics"].items()}
    env = record["environment"]
    print(f"# {args.workload} seed {args.seed}: python {env['python']}, numpy {env['numpy']}, "
          f"nproc {env['nproc']}, commit {env['commit'] or 'n/a'}, "
          f"src {env['src_sha256'][:12]}, {env['package.src_lines']} src lines, "
          f"{env['package.public_names']} public names", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"#   {name:48s} {metric['value']:14.6g} {metric['unit']}", file=sys.stderr)
    print(f"#   {'fail_ratio':48s} {record['fail_ratio']:14.6g} ratio "
          f"({record['failed']} of {record['attempted']} operations)", file=sys.stderr)
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
