"""Output signatures compared against the pins taken from the seed commit.

A signature is a short digest of the part of an output that must never
change.  Two outputs are compared less strictly, for stated reasons:

* ``similarity`` rank tables: the row order (and so which row gets rank 1)
  is due to be reversed on purpose, so the signature covers each harmony's
  value and the fact that category ranks follow the values in one
  direction, but not the order.
* ``oracle``: the detected period is a numerical optimum whose last digits
  belong to the search method, so the signature covers the harmony, the
  predicted period and the agree/DISAGREE verdict.
"""

from __future__ import annotations

import hashlib
import json

from inputs import ORDER_FREE


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _ranks_follow_values(rows: list[tuple[int, str, float]]) -> bool:
    """Within each category (tone count) the ranks are 1..n and the values,
    taken in rank order, never change direction."""
    by_size: dict[int, list[tuple[int, float]]] = {}
    for rank, semis, value in rows:
        by_size.setdefault(semis.count(",") + 1, []).append((rank, value))
    for group in by_size.values():
        group.sort()
        if [r for r, _ in group] != list(range(1, len(group) + 1)):
            return False
        values = [v for _, v in group]
        pairs = list(zip(values, values[1:]))
        if not (all(a <= b for a, b in pairs) or all(a >= b for a, b in pairs)):
            return False
    return True


def order_free_digest(header: str, rows: list[tuple[int, str, float, str]]) -> str:
    """Digest of a rank table that ignores row order: header, then each
    harmony's shown value sorted by harmony; 'inconsistent' if the ranks do
    not follow the values."""
    if not _ranks_follow_values([(r, s, v) for r, s, v, _ in rows]):
        return "inconsistent"
    body = sorted(f"{semis};{shown}" for _, semis, _, shown in rows)
    return digest("\n".join([header, *body]))


def table_digest(measure: str, rows) -> str:
    """Signature of a RankTable's rows (rank, harmony, value)."""
    if measure in ORDER_FREE:
        return order_free_digest(
            "", [(r.rank, ",".join(map(str, r.harmony.semitones)), r.value, repr(r.value))
                 for r in rows])
    return digest("\n".join(
        f"{r.rank};{','.join(map(str, r.harmony.semitones))};{r.value!r}" for r in rows))


def _rank_output_digest(fmt: str, stdout: str) -> str:
    if fmt == "json":
        payload = json.loads(stdout)
        rows = [(r["rank"], ",".join(map(str, r["semitones"])), r["value"], repr(r["value"]))
                for r in payload.pop("rows")]
        return order_free_digest(json.dumps(payload, sort_keys=True), rows)
    lines = stdout.splitlines()
    rows = []
    for line in lines[1:]:
        if fmt == "csv":
            rank, semis, _card, shown = line.split(";")
        else:
            rank, harmony, shown = line.split()
            semis = harmony.strip("{}")
        rows.append((int(rank), semis, float(shown), shown))
    return order_free_digest(lines[0] if lines else "", rows)


def cli_signature(argv: list[str], exit_code: int, stdout: str) -> str:
    """Signature of one CLI call's stdout (see the module docstring)."""
    if argv[0] == "oracle":
        lines = stdout.splitlines()
        verdict = "agree" if len(lines) > 3 and "(agree" in lines[3] else "no-agree"
        return digest("\n".join(lines[:2] + [verdict]))
    if argv[0] == "rank" and exit_code == 0 and argv[argv.index("--measure") + 1] in ORDER_FREE:
        fmt = argv[argv.index("--format") + 1]
        try:
            return _rank_output_digest(fmt, stdout)
        except (ValueError, KeyError, IndexError):
            return "unparsable"
    return digest(stdout)


def correlation_signature(report) -> list:
    return [repr(report.r), repr(report.p), report.n]


def reproduce_signature(report) -> list:
    return [[c.name, c.ok] for c in report.checks]
