"""Exhaustive scan of every one-octave harmony and per-category ranking.

A harmony within one octave is a subset of the semitones {0..11} that
contains the root 0, so there are 2^11 = 2048 of them: C(11, k-1) per
tone count k.  ``rank_table`` evaluates one consonance measure for every
harmony of a category and sorts most consonant first, by the measure's
orientation, breaking ties lexicographically by semitone tuple so output
is byte-identical across runs.  A category is evaluated on ints, from one
``(numerator, denominator)`` table of the tuning, by the measures' column
kernel, which shares ``evaluate_measure``'s definitions and equals it by
``repr``.  Every column one kernel pass returns is ranked and stored as
one :class:`RankTable`: a whole-column query returns that table itself,
and a top-N query a new table over a prefix of its rows.  A query the
store lacks takes one kernel call, over its category or, for the whole
octave, over all 12 categories in lexicographic order; per measure, one
stable sort by value gives the column's order, and for the octave one
stable sort of that by tone count gives every category's, so ties stay
lexicographic and no semitone tuple is compared.  No pass replaces a
stored table, and an octave table shares its rows with the category
tables its pass stores.  A row is a :class:`RankedRow` named tuple, built
from ``(rank, harmony, value)`` by one ``map`` per measure, with no Python
call per row.
"""

from __future__ import annotations

import math
from functools import cache, partial
from itertools import chain, islice, repeat
from operator import attrgetter
from typing import Iterator, NamedTuple

from .errors import UsageError
from .measures import MEASURES, _column_values, _tone_sets, lookup_measure
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
    if cardinality is None:
        yield from _octave()
    else:
        _check_cardinality(cardinality)
        yield from _category(cardinality)


def _check_cardinality(cardinality: int) -> None:
    if type(cardinality) is not int:  # a bool is no tone count
        raise UsageError(f"cardinality must be an integer, got {cardinality!r}")
    if not 1 <= cardinality <= 12:
        raise UsageError(f"cardinality must be in 1..12, got {cardinality!r}")


@cache
def _category(size: int) -> tuple[Harmony, ...]:
    """The octave's harmonies with ``size`` tones in lexicographic order,
    built once from the keys of the column kernel's tone-set index and
    shared by enumerate_harmonies and every ranked column.  The index built
    those tuples valid, so each harmony is made without ``Harmony``'s checks."""
    start = sum(map(math.comb, repeat(11), range(size - 1)))  # the smaller sets come first
    harmonies = tuple(map(object.__new__, repeat(Harmony, math.comb(11, size - 1))))
    for harmony, tones in zip(harmonies, islice(_tone_sets(), start, None)):
        object.__setattr__(harmony, "semitones", tones)
    return harmonies


@cache
def _octave() -> tuple[Harmony, ...]:
    """Every harmony of :func:`_category` in lexicographic order, so each
    tone set comes after its prefixes: the one layout whose sort reads
    semitones, built once and shared by enumerate_harmonies and every cold
    whole-octave column."""
    return tuple(sorted(chain.from_iterable(map(_category, range(1, 13))),
                        key=lambda h: h.semitones))


class RankedRow(NamedTuple):
    """One evaluated harmony: ordinal rank within its tone-count category.

    A row is a named tuple, so it also equals and unpacks into the plain
    tuple ``(rank, harmony, value)``.
    """

    rank: int
    harmony: Harmony
    value: float


class RankTable(NamedTuple):
    """Sorted ranking of one measure over one enumeration category.

    A table is a named tuple, so it also equals and unpacks into the plain
    tuple ``(tuning, measure, cardinality, rows)``.
    """

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


# One ranked table per (tuning, measure, cardinality), most consonant
# first.  A query the store lacks makes one kernel pass, over its category
# or over the whole octave, and stores the tables of every measure of that
# pass.  Each is stored through setdefault, so no pass replaces a stored
# table and a table returned once is the same object later.  A
# whole-column query returns the stored table itself.
_COLUMNS: dict[tuple[TuningTable, str, int | None], RankTable] = {}

# a row from its ``(rank, harmony, value)`` tuple and a table from its
# ``(tuning, measure, cardinality, rows)`` tuple, with no Python call
_row = partial(tuple.__new__, RankedRow)
_table = partial(tuple.__new__, RankTable)


def _rank(t: TuningTable, measure: str, cardinality: int | None) -> None:
    """Store the tables of one category, or for ``cardinality=None`` of the
    octave and its 12 categories, for each measure of ``measure``'s kernel
    pass: one kernel call over the harmonies in lexicographic order, then
    per measure one stable sort by value, which is the column's order, and
    for the octave one of that by tone count, which holds every category's.
    Ties stay lexicographic through both, so no semitone tuple is
    compared."""
    octave = cardinality is None
    sizes = range(1, 13) if octave else (cardinality,)
    # a list, whose __getitem__ maps faster than a tuple's
    harmonies = list(_octave() if octave else _category(cardinality))
    tone_counts = list(map(len, map(attrgetter("semitones"), harmonies))) if octave else None
    # the ranks of rows grouped by tone count: 1.. per category
    ranks = list(chain.from_iterable(range(1, len(_category(size)) + 1) for size in sizes))
    for name, values in _column_values(harmonies, measure, t).items():
        order = sorted(range(len(harmonies)), key=values.__getitem__,
                       reverse=MEASURES[name].orientation < 0)
        # one category's value order is already grouped by tone count
        grouped = sorted(order, key=tone_counts.__getitem__) if octave else order
        rows = tuple(map(_row, zip(
            ranks, map(harmonies.__getitem__, grouped), map(values.__getitem__, grouped))))
        start = 0
        for size in sizes:
            stop = start + len(_category(size))
            _COLUMNS.setdefault((t, name, size), _table((t.name, name, size, rows[start:stop])))
            start = stop
        if octave:
            row_at = dict(zip(grouped, rows))
            _COLUMNS.setdefault((t, name, None), _table(
                (t.name, name, None, tuple(map(row_at.__getitem__, order)))))


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
    sorting.  Each ranked table is computed once per process: a later query
    without ``top`` returns that same table, and one with ``top`` a new
    table over the first rows.

    >>> from .tuning import builtin_tuning
    >>> just = builtin_tuning("just")
    >>> rank_table(just, "gradus", 2).rows[0]
    RankedRow(rank=1, harmony=Harmony(semitones=(0, 7)), value=4.0)
    >>> rank_table(just, "gradus", 2, 1)  # doctest: +NORMALIZE_WHITESPACE
    RankTable(tuning='just', measure='gradus', cardinality=2,
              rows=(RankedRow(rank=1, harmony=Harmony(semitones=(0, 7)), value=4.0),))
    >>> rank_table(just, "gradus", 2) is rank_table(just, "gradus", 2)
    True
    """
    lookup_measure(measure)
    if top is not None and type(top) is not int:
        raise UsageError(f"top must be an integer, got {top!r}")
    if top is not None and top < 1:
        raise UsageError(f"top must be >= 1, got {top!r}")
    if cardinality is not None:
        _check_cardinality(cardinality)
    table = _COLUMNS.get((t, measure, cardinality))
    if table is None:
        _rank(t, measure, cardinality)
        table = _COLUMNS[t, measure, cardinality]
    if top is None:
        return table
    return _table((table.tuning, table.measure, table.cardinality, table.rows[:top]))


def top_share_count(category_size: int, fraction: float) -> int:
    """Number of front ranks that make up ``fraction`` of a category
    (at least one): e.g. the top 5% of 462 harmonies are ranks 1..23.
    """
    if type(category_size) is not int:  # a bool is no size
        raise UsageError(f"category_size must be an integer, got {category_size!r}")
    if category_size < 1:
        raise UsageError(f"category_size must be >= 1, got {category_size!r}")
    if type(fraction) is bool or not 0 < fraction <= 1:  # a bool is no fraction
        raise UsageError(f"fraction must be in (0, 1], got {fraction!r}")
    return max(1, math.floor(category_size * fraction))
