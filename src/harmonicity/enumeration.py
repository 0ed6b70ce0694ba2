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

    def rank_of(self, harmony: Harmony) -> int:
        """Category rank of one harmony in this table."""
        for row in self.rows:
            if row.harmony == harmony:
                return row.rank
        raise UsageError(f"harmony {harmony} is not in this table")


# One dict of values per (tuning, measure), keyed by the exact tone tuple:
# repeated tables over the same tuning hash the tuning once per call, not
# once per harmony.
_VALUES: dict[tuple[TuningTable, str], dict[tuple[int, ...], float]] = {}


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

    values = _VALUES.setdefault((t, measure), {})
    evaluated = []
    for h in enumerate_harmonies(cardinality):
        if h.semitones not in values:
            values[h.semitones] = evaluate_measure(h.semitones, measure, t)
        evaluated.append((h, values[h.semitones]))
    evaluated.sort(key=lambda pair: (orientation * pair[1], pair[0].semitones))
    # The key is a total order, so numbering each tone count along this one
    # sort gives the ranks a sort per category would.
    counts: dict[int, int] = {}
    rows = []
    for harmony, value in evaluated[:top]:
        counts[len(harmony)] = rank = counts.get(len(harmony), 0) + 1
        rows.append(RankedRow(rank=rank, harmony=harmony, value=value))
    return RankTable(tuning=t.name, measure=measure, cardinality=cardinality,
                     rows=tuple(rows))


def top_share_count(category_size: int, fraction: float) -> int:
    """Number of front ranks that make up ``fraction`` of a category
    (at least one): e.g. the top 5% of 462 harmonies are ranks 1..23.
    """
    if category_size < 1:
        raise UsageError(f"category_size must be >= 1, got {category_size!r}")
    if not 0 < fraction <= 1:
        raise UsageError(f"fraction must be in (0, 1], got {fraction!r}")
    return max(1, math.floor(category_size * fraction))
