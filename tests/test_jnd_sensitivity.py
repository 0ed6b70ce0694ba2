"""The 1% bound of the ``rational`` tuning: the headline ranking it gives,
and the exact range of bounds that give the same table.

The paper builds its ``rational`` tuning from the roughly 1% just
noticeable difference of pitch: each semitone gets the smallest-denominator
fraction within 1% of equal temperament.  Any bound in [lo, hi) gives that
same table, where lo is the largest deviation among its ratios (6/5's,
0.0090757) and hi is the deviation of the next fraction the bound would
admit (7/5 for the tritone, 0.0100505).  Walking the bound down from
0.0289 to 0.0034 meets 19 distinct tables; each one's readings are pinned.
"""

import math
from fractions import Fraction

import pytest

from harmonicity import (Harmony, builtin_tuning, correlate_measure, load_dataset, rank_table,
                         rational_tuning)

RATIONAL = builtin_tuning("rational")
IONIAN = (0, 2, 4, 5, 7, 9, 11)
MODES = [Harmony(tuple(sorted((n - root) % 12 for n in IONIAN))) for root in IONIAN]


def test_diatonic_modes_rank_first_of_462():
    sevens = rank_table(RATIONAL, "log_periodicity", 7)
    ranks = sorted(sevens.rank_of(mode) for mode in MODES)
    assert (len(sevens.rows), ranks) == (462, [1, 2, 3, 4, 5, 6, 7]), (
        "the seven modes of {0,2,4,5,7,9,11} are ranks 1-7 of 462 seven-tone "
        "harmonies under rational tuning and log_periodicity"
    )


def _float_below(end: Fraction) -> float:
    """The largest float strictly below ``end``."""
    f = float(end)
    while Fraction(f) >= end:
        f = math.nextafter(f, 0.0)
    while Fraction(math.nextafter(f, 1.0)) < end:
        f = math.nextafter(f, 1.0)
    return f


def _deviations(table):
    """Each ratio's relative deviation from equal temperament, exactly."""
    return [abs(r / Fraction(2.0 ** (k / 12)) - 1) for k, r in enumerate(table.ratios)]


def test_bounds_giving_the_builtin_table_are_exact():
    deviations = _deviations(RATIONAL)
    lo = max(deviations)
    hi = abs(Fraction(7, 5) / Fraction(2.0 ** (6 / 12)) - 1)
    assert RATIONAL.ratios[deviations.index(lo)] == Fraction(6, 5)
    assert (round(float(lo), 7), round(float(hi), 7)) == (0.0090757, 0.0100505)
    for end in (lo, hi):
        below = _float_below(end)
        for d in (below, math.nextafter(below, 1.0)):
            inside = lo <= Fraction(d) < hi
            same = rational_tuning(d).ratios == RATIONAL.ratios
            assert same == inside, (
                f"rational_tuning({d!r}) should {'' if inside else 'not '}give the "
                "built-in table: every bound in [lo, hi) does, compared exactly"
            )


# The distinct tables for bounds in [0.0034, 0.0289], highest first: the
# lower end of the bounds that give each, the sorted ranks of the seven
# modes among 462 under log_periodicity, and Spearman's r of
# rel_periodicity on the dyads and the triads and of log_periodicity on the
# church modes.  The built-in table is the row from 0.0090757.
TABLE_READINGS = [
    (0.0288255, [269, 299, 305, 308, 312, 315, 318], 0.9420, 0.7950, 0.1429),
    (0.0225305, [48, 63, 66, 69, 72, 78, 79], 0.9420, 0.7950, 0.1429),
    (0.0181700, [21, 23, 24, 25, 26, 27, 28], 0.9405, 0.7950, 0.1429),
    (0.0178457, [8, 9, 10, 11, 12, 13, 15], 0.9821, 0.8418, 0.2857),
    (0.0164800, [6, 9, 10, 11, 12, 13, 14], 0.9779, 0.8462, 0.4643),
    (0.0162128, [27, 29, 31, 33, 40, 42, 44], 0.9876, 0.8462, 0.6429),
    (0.0112939, [3, 4, 6, 10, 13, 18, 20], 0.9876, 0.8462, 0.7857),
    (0.0102158, [1, 2, 3, 12, 14, 16, 29], 0.9821, 0.8462, 0.7857),
    (0.0100505, [1, 2, 3, 4, 9, 10, 11], 0.9696, 0.8242, 0.9643),
    (0.0090757, [1, 2, 3, 4, 5, 6, 7], 0.9365, 0.8077, 0.9643),
    (0.0089941, [4, 12, 16, 17, 27, 28, 30], 0.8983, 0.4066, 0.9643),
    (0.0079368, [49, 67, 70, 72, 91, 93, 96], 0.7989, 0.3626, 0.9643),
    (0.0078743, [113, 115, 116, 141, 146, 149, 154], 0.6226, 0.1923, 0.8214),
    (0.0067993, [192, 198, 204, 250, 261, 265, 269], 0.4904, 0.4187, 0.8214),
    (0.0067533, [176, 180, 181, 184, 217, 220, 223], 0.5427, 0.4187, 0.8929),
    (0.0062522, [209, 215, 220, 222, 231, 234, 236], 0.5758, 0.4187, 0.8929),
    (0.0062133, [257, 268, 275, 279, 292, 331, 344], 0.5289, 0.2008, 0.8571),
    (0.0053540, [224, 268, 322, 328, 333, 338, 346], 0.4814, 0.0824, 0.4643),
    (0.0033935, [158, 186, 220, 225, 234, 239, 243], 0.5144, 0.1538, 0.4643),
]


def _tables_between(low: float, high: float):
    """Every distinct ``rational_tuning`` table for bounds in [low, high],
    highest first, with the lower end of its bounds.  A table holds down to
    its largest deviation, so the next one starts at the float below it."""
    d = high
    while d >= low:
        table = rational_tuning(d)
        lower_end = max(_deviations(table))
        yield lower_end, table
        d = _float_below(lower_end)


def test_readings_of_every_table_between_the_bounds():
    datasets = {d: load_dataset(d) for d in ("dyads", "triads", "church_modes")}
    walked = list(_tables_between(0.0034, 0.0289))
    assert len(walked) == 19, "distinct rational_tuning tables for bounds in [0.0034, 0.0289]"
    for (lower_end, table), (end, ranks, dyads, triads, modes) in zip(walked, TABLE_READINGS):
        where = f"the table of bounds from {end}"
        assert round(float(lower_end), 7) == end, f"lower end of {where}"
        sevens = rank_table(table, "log_periodicity", 7)
        assert sorted(sevens.rank_of(mode) for mode in MODES) == ranks, (
            f"sorted ranks of the seven modes among 462 under {where}")
        for dataset, measure, r in (("dyads", "rel_periodicity", dyads),
                                    ("triads", "rel_periodicity", triads),
                                    ("church_modes", "log_periodicity", modes)):
            assert correlate_measure(datasets[dataset], measure, table).r == pytest.approx(
                r, abs=1e-4), f"{measure} r on the {dataset} under {where}"
