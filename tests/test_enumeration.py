"""Octave-subset enumeration and per-category consonance ranking.

The complete two-tone ranking is pinned from the published averaged dyad
periodicities (the same oracle as the periodicity tests); category counts
are binomial coefficients by construction.
"""

import math

import pytest

from harmonicity import (
    MEASURES,
    Harmony,
    UndefinedMeasureError,
    UsageError,
    builtin_tuning,
    enumerate_harmonies,
    rank_table,
    top_share_count,
)

JUST = builtin_tuning("just")

# ascending (value, semitones) order of the 11 dyads inside the octave
# (the octave itself is not a subset of {0..11}), ranks derived from the
# published averaged periodicities
DYAD_RANKING = [
    (1, (0, 7), 2.0), (2, (0, 5), 3.0), (3, (0, 9), 3.0), (4, (0, 4), 4.0),
    (5, (0, 3), 5.0), (6, (0, 8), 5.0), (7, (0, 6), 6.0), (8, (0, 10), 7.0),
    (9, (0, 11), 8.0), (10, (0, 2), 8.5), (11, (0, 1), 15.0),
]


class TestEnumerateHarmonies:
    def test_total_count(self):
        assert sum(1 for _ in enumerate_harmonies()) == 2048

    def test_category_counts_are_binomial(self):
        for size in range(1, 13):
            count = sum(1 for _ in enumerate_harmonies(size))
            assert count == math.comb(11, size - 1)

    def test_single_tone_category(self):
        assert [h.semitones for h in enumerate_harmonies(1)] == [(0,)]

    def test_lexicographic_order_and_shape(self):
        harmonies = [h.semitones for h in enumerate_harmonies()]
        assert harmonies == sorted(harmonies)
        assert len(set(harmonies)) == len(harmonies)
        assert all(tones[0] == 0 for tones in harmonies)
        assert all(max(tones) <= 11 for tones in harmonies)

    def test_cardinality_validation(self):
        with pytest.raises(UsageError):
            list(enumerate_harmonies(0))
        with pytest.raises(UsageError):
            list(enumerate_harmonies(13))


class TestRankTable:
    def test_dyad_ranking_matches_published_means(self):
        table = rank_table(JUST, "rel_periodicity", cardinality=2)
        assert [
            (row.rank, row.harmony.semitones, row.value) for row in table.rows
        ] == DYAD_RANKING

    def test_global_order_is_ascending(self):
        table = rank_table(JUST, "log_periodicity")
        assert len(table.rows) == 2048
        keys = [(row.value, row.harmony.semitones) for row in table.rows]
        assert keys == sorted(keys)

    def test_ranks_are_ordinal_within_each_category(self):
        table = rank_table(JUST, "log_periodicity")
        by_size = {}
        for row in table.rows:
            by_size.setdefault(len(row.harmony), []).append(row.rank)
        for size, ranks in by_size.items():
            assert sorted(ranks) == list(range(1, math.comb(11, size - 1) + 1))

    def test_top_truncation(self):
        # {0,5,9} averages to exactly 3 periods and ties the two dyads
        table = rank_table(JUST, "log_periodicity", top=5)
        assert [
            (row.rank, row.harmony.semitones) for row in table.rows
        ] == [
            (1, (0,)), (1, (0, 7)), (2, (0, 5)), (1, (0, 5, 9)), (3, (0, 9)),
        ]
        assert table.rows[0].value == 0.0
        assert table.rows[1].value == 1.0
        assert table.rows[2].value == pytest.approx(math.log2(3.0))
        assert table.rows[3].value == pytest.approx(math.log2(3.0))

    def test_determinism(self):
        first = rank_table(JUST, "rel_periodicity", cardinality=3)
        second = rank_table(JUST, "rel_periodicity", cardinality=3)
        assert first.to_csv() == second.to_csv()
        assert first.to_json_dict() == second.to_json_dict()

    def test_csv_shape(self):
        table = rank_table(JUST, "log_periodicity", cardinality=2)
        lines = table.to_csv().splitlines()
        assert lines[0] == "rank;semitones;cardinality;value"
        assert lines[1] == "1;0,7;2;1"
        assert lines[3] == "3;0,9;2;1.58496"
        assert len(lines) == 12

    def test_json_payload(self):
        table = rank_table(JUST, "log_periodicity", cardinality=2, top=1)
        payload = table.to_json_dict()
        assert payload["tuning"] == "just"
        assert payload["measure"] == "log_periodicity"
        assert payload["cardinality"] == 2
        assert payload["rows"] == [
            {"rank": 1, "semitones": [0, 7], "cardinality": 2, "value": 1.0}
        ]

    def test_rank_of(self):
        table = rank_table(JUST, "rel_periodicity", cardinality=2)
        assert table.rank_of(Harmony((0, 7))) == 1
        assert table.rank_of(Harmony((0, 1))) == 11
        with pytest.raises(UsageError, match="not in this table"):
            table.rank_of(Harmony((0, 4, 7)))

    def test_validation(self):
        with pytest.raises(UsageError, match="unknown measure"):
            rank_table(JUST, "tension")
        with pytest.raises(UsageError, match="top must be"):
            rank_table(JUST, "log_periodicity", top=0)

    def test_pairwise_measures_reject_single_tone_category(self):
        # the full enumeration includes the one-tone harmony
        with pytest.raises(UndefinedMeasureError):
            rank_table(JUST, "similarity")
        assert len(rank_table(JUST, "similarity", cardinality=2).rows) == 11

    @pytest.mark.parametrize("name", MEASURES)
    def test_rank_one_is_most_consonant_by_orientation(self, name):
        orientation = MEASURES[name].orientation
        # the one-tone category has a single row
        for cardinality in range(2, 13):
            rows = rank_table(JUST, name, cardinality).rows
            best = min(orientation * row.value for row in rows)
            assert rows[0].rank == 1
            assert orientation * rows[0].value == best, cardinality

    def test_similarity_ranks_larger_values_first(self):
        rows = rank_table(JUST, "similarity", cardinality=3).rows
        # {0,3,7} and {0,4,7} tie at 46.67; the tie breaks by semitone tuple
        assert (rows[0].rank, rows[0].harmony.semitones) == (1, (0, 3, 7))
        assert rows[0].value == pytest.approx(46.67, abs=0.005)
        assert (rows[-1].rank, rows[-1].harmony.semitones) == (55, (0, 1, 2))
        assert rows[-1].value == pytest.approx(15.74, abs=0.005)


class TestTopShareCount:
    def test_published_category_sizes(self):
        assert top_share_count(330, 0.05) == 16
        assert top_share_count(462, 0.05) == 23

    def test_floor_with_minimum_of_one(self):
        assert top_share_count(10, 0.01) == 1
        assert top_share_count(19, 0.05) == 1
        assert top_share_count(20, 0.05) == 1
        assert top_share_count(100, 1.0) == 100

    def test_validation(self):
        with pytest.raises(UsageError):
            top_share_count(0, 0.05)
        with pytest.raises(UsageError):
            top_share_count(100, 0.0)
        with pytest.raises(UsageError):
            top_share_count(100, 1.1)
