"""Timing helpers: the machine-speed gauge every timing is scaled by, the
deadline that ends a run's loop, and the in-memory span recorder of traced
runs.

A span is ``{"id", "name", "start", "end", "parent"}`` with times in
nanoseconds of ``time.perf_counter_ns`` (CLOCK_MONOTONIC on Linux, so the
spans of run.py and of its worker processes share one time base).
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from fractions import Fraction
from typing import Iterator


#: Time the reference loop takes at nominal machine speed; every reported
#: time is scaled to this speed (see SpeedGauge).
REFERENCE_NOMINAL_S = 0.004
#: How far the time of a process start or of numpy array work follows the
#: reference loop: the exponent ``check`` raises the factor to for it.  Part
#: of such work (exec, loading files, memory traffic) slows down less than
#: the interpreter when other tenants load the machine.  Fitted on recorded
#: runs: 0.7 gave the least spread between runs for both kinds.
PARTIAL_ELASTICITY = 0.7


def _reference_loop() -> list:
    """Fraction arithmetic, small-object allocation, dict and sort: the kinds
    of work the program does, without calling it."""
    total = Fraction(0)
    seen = {}
    for i in range(1, 1200):
        total += Fraction(i % 7 + 1, i % 5 + 2)
        seen[(i % 97, i % 13)] = (total.numerator % 10, i)
    return sorted(seen.items())


class SpeedGauge:
    """Machine-speed reference for timings.

    Other tenants of a shared machine change how fast its CPU runs, by tens
    of percent for seconds to minutes at a time, and a whole run can fall
    into a slow spell.  The gauge times a fixed Python loop that does not
    touch the program, on the same CPU as the work (the benchmark pins
    itself and its children to one CPU), at most every ``interval_s``.
    ``check()`` returns the factor that scales a time measured right after
    it to nominal speed: (REFERENCE_NOMINAL_S / loop time) ** elasticity,
    where elasticity is 1 for interpreter work and PARTIAL_ELASTICITY for a
    process start or numpy array work.
    """

    def __init__(self, interval_s: float = 0.0):
        self._interval = interval_s
        self._checked = -math.inf
        self.factor = 1.0
        _reference_loop()  # the first run of the loop is slower than the rest

    def check(self, elasticity: float = 1.0) -> float:
        if time.perf_counter() - self._checked >= self._interval:
            start = time.perf_counter()
            _reference_loop()
            self.factor = REFERENCE_NOMINAL_S / (time.perf_counter() - start)
            self._checked = time.perf_counter()
        return self.factor ** elasticity


class Deadline:
    """Whole iterations until ``seconds`` have passed: at least one, and
    another only while more than half of the last one's duration is left,
    so a run ends within half an iteration of its budget."""

    def __init__(self, seconds: float):
        self._end = time.perf_counter() + seconds
        self._last_start: float | None = None

    def more(self) -> bool:
        now = time.perf_counter()
        if self._last_start is not None and now + (now - self._last_start) / 2 > self._end:
            return False
        self._last_start = now
        return True


class Tracer:
    """Records nested spans while ``enabled``; a no-op otherwise.

    ``enabled`` may be flipped between operations, which is how a traced
    run interleaves traced and untraced operations to measure its own
    overhead.
    """

    def __init__(self, enabled: bool, prefix: str = "", root_parent: str | None = None):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._prefix = prefix
        self._stack: list[str | None] = [root_parent]
        self._next_id = 0

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        span_id = f"{self._prefix}{self._next_id}"
        self._next_id += 1
        record = {"id": span_id, "name": name, "start": time.perf_counter_ns(),
                  "end": None, "parent": self._stack[-1]}
        self._stack.append(span_id)
        try:
            yield
        finally:
            record["end"] = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append(record)

    @property
    def current(self) -> str | None:
        """Id of the innermost open span (parent of the next one)."""
        return self._stack[-1]


def summarize(spans: list[dict]) -> dict[str, dict]:
    """Per span name: count, total and self time in ms.  Self time is a
    span's duration minus the part of it that its child spans cover
    (children of one parent never overlap: every workload is a closed loop
    with one client)."""
    child_ns: dict[str, int] = {}
    for s in spans:
        if s["parent"] is not None:
            child_ns[s["parent"]] = child_ns.get(s["parent"], 0) + s["end"] - s["start"]
    out: dict[str, dict] = {}
    for s in spans:
        total = s["end"] - s["start"]
        entry = out.setdefault(s["name"], {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
        entry["count"] += 1
        entry["total_ms"] += total / 1e6
        entry["self_ms"] += (total - child_ns.get(s["id"], 0)) / 1e6
    return out
