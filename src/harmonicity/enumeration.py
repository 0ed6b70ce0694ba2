"""Exhaustive scan of every one-octave harmony and per-category ranking.

A harmony within one octave is a subset of the semitones {0..11} that
contains the root 0, so there are 2^11 = 2048 of them: C(11, k-1) per
tone count k.  ``rank_table`` evaluates one consonance measure for every
harmony of a category and sorts most consonant first, by the measure's
orientation, breaking ties lexicographically by semitone tuple so output
is byte-identical across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterator

from .errors import UsageError
from .measures import evaluate_measure, lookup_measure
from .periodicity import Harmony
from .tuning import TuningTable

__all__ = [
    "RankTable",
    "RankedRow",
    "enumerate_harmonies",
    "rank_table",
    "top_share_count",
]


def enumerate_harmonies(cardinality: int | None = None) -> Iterator[Harmony]:
    """Yield every harmony within one octave (subsets of {0..11} containing
    0), optionally restricted to one tone count, in lexicographic order of
    the semitone tuples.

    >>> sum(1 for _ in enumerate_harmonies())
    2048
    >>> sum(1 for _ in enumerate_harmonies(7))
    462
    >>> [str(h) for h in enumerate_harmonies(1)]
    ['{0}']
    """
    if cardinality is not None and not 1 <= cardinality <= 12:
        raise UsageError(f"cardinality must be in 1..12, got {cardinality!r}")
    sizes = (cardinality,) if cardinality is not None else range(1, 13)
    subsets = [
        (0,) + rest
        for size in sizes
        for rest in combinations(range(1, 12), size - 1)
    ]
    for tones in sorted(subsets):
        yield Harmony(tones)


@dataclass(frozen=True)
class RankedRow:
    """One evaluated harmony: ordinal rank within its tone-count category."""

    rank: int
    harmony: Harmony
    value: float


@dataclass(frozen=True)
class RankTable:
    """Sorted ranking of one measure over one enumeration category."""

    tuning: str
    measure: str
    cardinality: int | None
    rows: tuple[RankedRow, ...]

    def to_csv(self) -> str:
        lines = ["rank;semitones;cardinality;value"]
        for row in self.rows:
            semis = ",".join(str(n) for n in row.harmony.semitones)
            lines.append(f"{row.rank};{semis};{len(row.harmony)};{row.value:.6g}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "tuning": self.tuning,
            "measure": self.measure,
            "cardinality": self.cardinality,
            "rows": [
                {
                    "rank": row.rank,
                    "semitones": list(row.harmony.semitones),
                    "cardinality": len(row.harmony),
                    "value": row.value,
                }
                for row in self.rows
            ],
        }

    def rank_of(self, harmony: Harmony) -> int:
        """Category rank of one harmony in this table."""
        for row in self.rows:
            if row.harmony == harmony:
                return row.rank
        raise UsageError(f"harmony {harmony} is not in this table")


# Keyed by the exact tone tuple, so the cache serves repeated tables over
# the same tuning.
@lru_cache(maxsize=None)
def _cached_value(tones: tuple[int, ...], measure: str, t: TuningTable) -> float:
    return evaluate_measure(tones, measure, t)


def rank_table(
    t: TuningTable,
    measure: str,
    cardinality: int | None = None,
    top: int | None = None,
) -> RankTable:
    """Evaluate ``measure`` for every enumerated harmony and rank most
    consonant first, by the measure's orientation.

    Ranks are ordinal within each tone-count category; rows of a mixed
    table (no cardinality filter) are globally sorted the same way, with the
    per-category ranks attached.  ``top`` truncates to the first rows after
    sorting.
    """
    orientation = lookup_measure(measure).orientation
    if top is not None and top < 1:
        raise UsageError(f"top must be >= 1, got {top!r}")

    evaluated = [
        (h, _cached_value(h.semitones, measure, t))
        for h in enumerate_harmonies(cardinality)
    ]
    by_size: dict[int, list[tuple[Harmony, float]]] = {}
    for harmony, value in evaluated:
        by_size.setdefault(len(harmony), []).append((harmony, value))

    def most_consonant_first(pair: tuple[Harmony, float]) -> tuple:
        return (orientation * pair[1], pair[0].semitones)

    ranks: dict[tuple[int, ...], int] = {}
    for group in by_size.values():
        group.sort(key=most_consonant_first)
        for position, (harmony, _) in enumerate(group, start=1):
            ranks[harmony.semitones] = position

    ordered = sorted(evaluated, key=most_consonant_first)
    if top is not None:
        ordered = ordered[:top]
    rows = tuple(
        RankedRow(rank=ranks[harmony.semitones], harmony=harmony, value=value)
        for harmony, value in ordered
    )
    return RankTable(tuning=t.name, measure=measure, cardinality=cardinality, rows=rows)


def top_share_count(category_size: int, fraction: float) -> int:
    """Number of front ranks that make up ``fraction`` of a category
    (at least one): e.g. the top 5% of 462 harmonies are ranks 1..23.
    """
    if category_size < 1:
        raise UsageError(f"category_size must be >= 1, got {category_size!r}")
    if not 0 < fraction <= 1:
        raise UsageError(f"fraction must be in (0, 1], got {fraction!r}")
    return max(1, math.floor(category_size * fraction))
