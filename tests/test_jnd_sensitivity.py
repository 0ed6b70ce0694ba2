"""The 1% bound of the ``rational`` tuning: the headline ranking it gives,
and the exact range of bounds that give the same table.

The paper builds its ``rational`` tuning from the roughly 1% just
noticeable difference of pitch: each semitone gets the smallest-denominator
fraction within 1% of equal temperament.  Any bound in [lo, hi) gives that
same table, where lo is the largest deviation among its ratios (6/5's,
0.0090757) and hi is the deviation of the next fraction the bound would
admit (7/5 for the tritone, 0.0100505).
"""

import math
from fractions import Fraction

from harmonicity import Harmony, builtin_tuning, rank_table, rational_tuning

RATIONAL = builtin_tuning("rational")
IONIAN = (0, 2, 4, 5, 7, 9, 11)


def test_diatonic_modes_rank_first_of_462():
    modes = [Harmony(tuple(sorted((n - root) % 12 for n in IONIAN))) for root in IONIAN]
    sevens = rank_table(RATIONAL, "log_periodicity", 7)
    ranks = sorted(sevens.rank_of(mode) for mode in modes)
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


def test_bounds_giving_the_builtin_table_are_exact():
    deviations = [abs(r / Fraction(2.0 ** (k / 12)) - 1) for k, r in enumerate(RATIONAL.ratios)]
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
