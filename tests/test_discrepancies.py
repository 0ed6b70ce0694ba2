"""The readings ruled out for the standing published-value discrepancies,
each recomputed and asserted at its own number.

Criterion 9 states that the pentatonic scale {0,2,4,7,9} is among the top
5% of the 330 five-tone harmonies under rational tuning (cut-off rank 16);
``test_acceptance.test_criterion_09_enumeration_claims`` fails because it
ranks 19.  Each test below records one reading that does not close the gap,
with a message naming the reading, so a change that moves any of them
shows up here.  They pass today: they are a record, not a fix.
"""

from harmonicity import Harmony, builtin_tuning, rank_table

RATIONAL = builtin_tuning("rational")
PENTATONIC = Harmony((0, 2, 4, 7, 9))


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
