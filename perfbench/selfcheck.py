"""Self-check of the benchmark: a short untraced and traced run of every
workload, run from the repository root.

    python3 perfbench/selfcheck.py

Asserts that each run emits exactly the metrics named in BENCHMARK.json,
each with its unit, and that every pinned output matched (fail_ratio 0 on
the seed).  It prints every metric by name and unit, per workload.  It also
asserts that the benchmark refuses to run, with a non-zero exit and no
result, in a directory holding only BENCHMARK.json and the benchmark.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

SECONDS = 2
SEED = 1


def run(spec: dict, workload: str, seed: int, seconds: float, trace: int, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([*spec["command"], "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = run(spec, workload, SEED, SECONDS, trace, root)
            label = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(expected[trace]) - set(got))}, "
                                f"extra {sorted(set(got) - set(expected[trace]))}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: {result['failed']} of {result['attempted']} "
                                "outputs differ from the pins")
            print(f"{label}: fail_ratio {result['failed'] / result['attempted']:g} "
                  f"({result['failed']} of {result['attempted']})")
            for name, m in result["metrics"].items():
                print(f"  {name:52s} {m['value']:14.6g} {m['unit']}")

    bare = root / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(root / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(root / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(spec, spec["workloads"][0]["name"], SEED, SECONDS, 0, bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("without the package the benchmark must fail without a result")
    shutil.rmtree(bare)

    for problem in problems:
        print("FAIL:", problem, file=sys.stderr)
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
