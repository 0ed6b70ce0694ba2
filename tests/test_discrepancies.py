"""The readings ruled out for the standing published-value discrepancies,
each recomputed and asserted at its own number.

Criterion 4 prints r = 0.817 +/- 0.005 for the dyad rank correlation under
Pythagorean tuning; ``test_acceptance.test_criterion_04_tuning_sensitivity_controls``
fails because it computes to 0.7345.

Criterion 9 states that the pentatonic scale {0,2,4,7,9} is among the top
5% of the 330 five-tone harmonies under rational tuning (cut-off rank 16);
``test_acceptance.test_criterion_09_enumeration_claims`` fails because it
ranks 19.

Each test below records one reading that does not close the gap,
with a message naming the reading, so a change that moves any of them
shows up here.  They pass today: they are a record, not a fix.
"""

from fractions import Fraction
from itertools import product

from harmonicity import (
    Harmony,
    TuningTable,
    approximate,
    builtin_tuning,
    correlate_measure,
    evaluate_measure,
    load_dataset,
    pearson,
    rank_table,
    rank_with_ties,
)

RATIONAL = builtin_tuning("rational")
PYTHAGOREAN = builtin_tuning("pythagorean")
PENTATONIC = Harmony((0, 2, 4, 7, 9))
DYADS = load_dataset("dyads")


def dyad_r(values):
    """Rank correlation of per-dyad values (smaller = more consonant) with
    the listeners' order."""
    return pearson(rank_with_ties([item.empirical for item in DYADS.items]),
                   rank_with_ties(values))


def pythagorean_r(t=PYTHAGOREAN, measure="rel_periodicity"):
    return correlate_measure(DYADS, measure, t).r


def test_dyad_readings_agree():
    # a dyad's raw h is the denominator of its upper tone's ratio
    raw = [PYTHAGOREAN.ratios[item.semitones[-1]].denominator for item in DYADS.items]
    readings = [dyad_r(raw), pythagorean_r(), pythagorean_r(measure="log_periodicity")]
    assert [round(r, 4) for r in readings] == [0.7345] * 3, (
        "raw, mean and log readings: each gives r = 0.7345"
    )


def fifths(j):
    """The ratio ``j`` fifths along the chain, folded into one octave."""
    ratio = Fraction(3) ** j
    while ratio >= 2:
        ratio /= 2
    while ratio < 1:
        ratio *= 2
    return ratio


def test_best_chain_of_fifths_spelling():
    # the built-in table spells semitone 7j mod 12 as j fifths, j in -5..6;
    # the other spelling lies 12 fifths the other way
    spelled = {7 * j % 12: j for j in range(-5, 7)}
    assert [fifths(spelled[k]) for k in range(12)] == list(PYTHAGOREAN.ratios[:12])
    spellings = [(fifths(j), fifths(j - 12 if j > 0 else j + 12))
                 for j in (spelled[k] for k in range(1, 12))]
    gaps = [
        abs(pythagorean_r(TuningTable("pythagorean", (Fraction(1), *inner, Fraction(2))))
            - 0.817)
        for inner in product(*spellings)
    ]
    assert (len(gaps), round(min(gaps), 3)) == (2048, 0.027), (
        "chain-of-fifths spellings: the best of the 2048 stays 0.027 from 0.817"
    )


def test_snapping_to_one_percent():
    snapped = TuningTable("pythagorean", tuple(approximate(r, 0.01).result for r in PYTHAGOREAN.ratios))
    assert round(pythagorean_r(snapped), 3) == 0.762, (
        "snapping each ratio to the simplest fraction within 1%: r = 0.762"
    )


def test_rival_measures():
    readings = [pythagorean_r(measure=m) for m in ("gradus", "omega", "brefeld")]
    assert [round(r, 3) for r in readings] == [0.736] * 3, (
        "gradus, omega and brefeld: each gives r = 0.736"
    )


def test_swapping_major_third_and_minor_seventh():
    tones = [item.semitones for item in DYADS.items]
    values = [evaluate_measure(s, "rel_periodicity", PYTHAGOREAN) for s in tones]
    third, seventh = tones.index((0, 4)), tones.index((0, 10))
    values[third], values[seventh] = values[seventh], values[third]
    assert round(dyad_r(values), 5) == 0.81706, (
        "one differing cell: swapping the major third's value with the minor "
        "seventh's gives r = 0.81706"
    )


def fives():
    return rank_table(RATIONAL, "log_periodicity", 5)


def modes(h):
    """The scales that start on each tone of ``h``, within one octave."""
    return {Harmony(tuple(sorted((n - root) % 12 for n in h.semitones))) for root in h.semitones}


def test_pentatonic_ties_its_neighbour_in_value():
    table = fives()
    rows, rank = table.rows, table.rank_of(PENTATONIC)
    neighbour = rows[rank]
    assert (rank, len(rows), neighbour.harmony, neighbour.rank,
            neighbour.value == rows[rank - 1].value) == (
        19, 330, Harmony((0, 4, 5, 9, 11)), 20, True
    ), "tie handling: the pentatonic ranks 19 of 330 and ties {0,4,5,9,11} (rank 20) in value"


def test_pentatonic_dense_rank():
    table = fives()
    value = table.rows[table.rank_of(PENTATONIC) - 1].value
    dense = len({row.value for row in table.rows if row.value < value}) + 1
    assert dense == 18, "dense ranking: the pentatonic's dense rank is 18"


def test_pentatonic_best_mode():
    table = fives()
    best = min(modes(PENTATONIC), key=table.rank_of)
    assert (best, table.rank_of(best)) == (Harmony((0, 2, 5, 7, 9)), 10), (
        "ranking scales up to mode: the best mode {0,2,5,7,9} ranks 10"
    )


def test_rows_ahead_of_pentatonic_that_are_one_scales_modes():
    table = fives()
    ahead = {row.harmony for row in table.rows[:table.rank_of(PENTATONIC) - 1]}
    assert (len(ahead), len(ahead & modes(Harmony((0, 4, 5, 7, 9))))) == (18, 5), (
        "modes crowding the front: 5 of the 18 rows ahead are modes of {0,4,5,7,9}"
    )


def test_blues_rank_comes_from_the_tie_break():
    eights = rank_table(RATIONAL, "log_periodicity", 8)
    blues = Harmony((0, 2, 3, 4, 5, 7, 9, 10))
    rank = eights.rank_of(blues)
    after = eights.rows[rank]
    assert (rank, after.harmony, after.value == eights.rows[rank - 1].value,
            blues.semitones < after.harmony.semitones) == (
        16, Harmony((0, 3, 4, 5, 7, 9, 10, 11)), True, True
    ), ("lexicographic tie-break: the blues scale ranks 16, one ahead of "
        "{0,3,4,5,7,9,10,11} with the same value")
