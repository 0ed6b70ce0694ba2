"""Octave-subset enumeration and per-category consonance ranking.

The complete two-tone ranking is pinned from the published averaged dyad
periodicities (the same oracle as the periodicity tests); category counts
are binomial coefficients by construction.
"""

import enum
import json
import math
import operator
import random
from fractions import Fraction
from itertools import chain

import pytest

from harmonicity import (
    MEASURES,
    Harmony,
    RankedRow,
    RankTable,
    TuningError,
    TuningTable,
    UndefinedMeasureError,
    UsageError,
    analyze,
    builtin_tuning,
    enumerate_harmonies,
    evaluate_measure,
    rank_table,
    ratio_for_semitone,
    rational_tuning,
    top_share_count,
)
from harmonicity import enumeration, measures

JUST = builtin_tuning("just")

# ascending (value, semitones) order of the 11 dyads inside the octave
# (the octave itself is not a subset of {0..11}), ranks derived from the
# published averaged periodicities
DYAD_RANKING = [
    (1, (0, 7), 2.0), (2, (0, 5), 3.0), (3, (0, 9), 3.0), (4, (0, 4), 4.0),
    (5, (0, 3), 5.0), (6, (0, 8), 5.0), (7, (0, 6), 6.0), (8, (0, 10), 7.0),
    (9, (0, 11), 8.0), (10, (0, 2), 8.5), (11, (0, 1), 15.0),
]

LCM_MEASURES = ["rel_periodicity", "log_periodicity", "gradus", "omega"]


class Size(enum.IntEnum):
    """Int subclass members, which a count argument rejects: the stored
    table's header would hold ``<Size.TRIAD: 3>`` and serve it to a later
    query for 3."""

    ONE = 1
    TRIAD = 3


# the five tunings whose octave values TestColumnValues pins
PINNED_TUNINGS = [*map(builtin_tuning, ("just", "pythagorean", "kirnberger3", "rational")),
                  rational_tuning(0.001)]
PINNED_IDS = ["just", "pythagorean", "kirnberger3", "rational", "rational-0.001"]

# every column each measure's kernel pass returns: one pass for the four
# lcm measures, one for the two pairwise measures
PASS = {name: columns
        for columns in ({"rel_periodicity", "log_periodicity", "gradus", "omega"},
                        {"similarity", "brefeld"})
        for name in columns}


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

    @pytest.mark.parametrize("cardinality", [True, 3.0, Size.TRIAD],
                             ids=["bool", "float", "int-subclass"])
    def test_cardinality_must_be_a_plain_int(self, cardinality):
        with pytest.raises(UsageError, match=f"^cardinality must be an integer, got {cardinality!r}$"):
            list(enumerate_harmonies(cardinality))


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
        assert first.rows == second.rows

    def test_csv_shape(self, cli_stdout):
        out = cli_stdout("rank", "--measure", "log_periodicity", "--cardinality", "2",
                         "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "rank;semitones;cardinality;value"
        assert lines[1] == "1;0,7;2;1"
        assert lines[3] == "3;0,9;2;1.58496"
        assert len(lines) == 12

    def test_json_payload(self, cli_stdout):
        payload = json.loads(cli_stdout("rank", "--measure", "log_periodicity", "--cardinality",
                                        "2", "--top", "1", "--format", "json"))
        assert payload["tuning"] == "just"
        assert payload["measure"] == "log_periodicity"
        assert payload["cardinality"] == 2
        assert payload["rows"] == [
            {"rank": 1, "semitones": [0, 7], "cardinality": 2, "value": 1.0}
        ]

    def test_row_is_a_named_tuple(self):
        row = rank_table(JUST, "gradus", 2).rows[0]
        assert RankedRow._fields == ("rank", "harmony", "value")
        assert repr(row) == "RankedRow(rank=1, harmony=Harmony(semitones=(0, 7)), value=4.0)"
        with pytest.raises(AttributeError):
            row.value = 5.0
        equal = RankedRow(1, Harmony((0, 7)), 4.0)
        assert equal == row and hash(equal) == hash(row)
        rank, harmony, value = row
        assert (rank, harmony, value) == (1, Harmony((0, 7)), 4.0) == row

    def test_table_is_a_named_tuple(self):
        table = rank_table(JUST, "gradus", 2, 1)
        assert RankTable._fields == ("tuning", "measure", "cardinality", "rows")
        assert repr(table) == (
            "RankTable(tuning='just', measure='gradus', cardinality=2, "
            "rows=(RankedRow(rank=1, harmony=Harmony(semitones=(0, 7)), value=4.0),))")
        with pytest.raises(AttributeError):
            table.rows = ()
        plain = ("just", "gradus", 2, ((1, Harmony((0, 7)), 4.0),))
        assert table == plain and len(table) == 4
        tuning, measure, cardinality, rows = table
        assert (tuning, measure, cardinality, rows) == plain

    @pytest.mark.parametrize("cardinality", [5, None], ids=["category", "octave"])
    def test_whole_column_query_returns_the_stored_table(self, cardinality):
        stored = rank_table(JUST, "omega", cardinality)
        assert enumeration._COLUMNS[JUST, "omega", cardinality] is stored
        assert rank_table(JUST, "omega", cardinality) is stored
        assert rank_table(TuningTable("just", JUST.ratios), "omega", cardinality) is stored

    @pytest.mark.parametrize("cardinality", [5, None], ids=["category", "octave"])
    def test_top_table_holds_a_prefix_of_the_stored_rows(self, cardinality):
        stored = rank_table(JUST, "omega", cardinality)
        top = rank_table(JUST, "omega", cardinality, 7)
        assert top is not stored
        assert top[:3] == stored[:3] == ("just", "omega", cardinality)
        assert top.rows == stored.rows[:7] and len(top.rows) == 7
        assert rank_table(JUST, "omega", cardinality, 5000).rows == stored.rows

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

    # a bool is an int to isinstance, but True would be stored as the
    # header of the one-tone table and served to a later query for 1
    @pytest.mark.parametrize("cardinality, top", [
        (2.0, None), (3, 2.5), ("3", None), (True, None), (False, None), (2, True), (None, False),
    ])
    def test_non_integer_cardinality_or_top(self, empty_store, cardinality, top):
        empty_store()
        with pytest.raises(UsageError, match="must be an integer"):
            rank_table(JUST, "gradus", cardinality, top)
        assert enumeration._COLUMNS == {}

    @pytest.mark.parametrize("cardinality, top", [(Size.TRIAD, None), (3, Size.ONE)],
                             ids=["cardinality", "top"])
    def test_int_subclass_cardinality_or_top(self, empty_store, cardinality, top):
        empty_store()
        name, value = ("cardinality", cardinality) if top is None else ("top", top)
        with pytest.raises(UsageError, match=f"^{name} must be an integer, got {value!r}$"):
            rank_table(JUST, "gradus", cardinality, top)
        assert enumeration._COLUMNS == {}

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


class TestRankedColumn:
    """Each (tuning, measure) is ranked once per process; later tables are
    read from the stored columns."""

    @pytest.mark.parametrize("tuning", [JUST, rational_tuning(0.011)],
                             ids=["just", "rational-0.011"])
    @pytest.mark.parametrize("name", MEASURES)
    def test_category_tables_match_the_full_table(self, name, tuning):
        orientation = MEASURES[name].orientation
        pairwise = name in ("similarity", "brefeld")
        full = None if pairwise else rank_table(tuning, name).rows
        for size in range(2 if pairwise else 1, 13):
            rows = rank_table(tuning, name, size).rows
            keys = [(orientation * row.value, row.harmony.semitones) for row in rows]
            assert keys == sorted(keys)
            assert [row.rank for row in rows] == list(range(1, len(rows) + 1))
            if full is not None:
                assert rows == tuple(row for row in full if len(row.harmony) == size)

    @pytest.fixture
    def calls(self, empty_store, monkeypatch):
        """Empty the store and record the size of every category the column
        kernel evaluates."""
        calls = []

        def counting(harmonies, measure, t):
            calls.append(len(harmonies))
            return measures._column_values(harmonies, measure, t)

        empty_store(kernel=True)
        monkeypatch.setattr(enumeration, "_column_values", counting)
        return calls

    def test_warm_tables_evaluate_nothing(self, calls):
        first = rank_table(JUST, "gradus", 4)
        assert calls == [math.comb(11, 3)]
        calls.clear()
        assert rank_table(JUST, "gradus", 4, top=3).rows == first.rows[:3]
        assert rank_table(JUST, "gradus", 4).rows == first.rows
        assert calls == []

    def test_cold_column_looks_up_each_offset_once(self, empty_store, monkeypatch):
        # one pair table per tuning: the first cold column under a tuning
        # looks up each offset -11..11 once, and no later cold column any
        looked_up = []

        def counting(t, n):
            looked_up.append(n)
            return ratio_for_semitone(t, n)

        monkeypatch.setattr("harmonicity.tuning.ratio_for_semitone", counting)
        for name in MEASURES:
            empty_store(kernel=True)
            looked_up.clear()
            rank_table(JUST, name, 7)
            assert sorted(looked_up) == list(range(-11, 12)), name
            looked_up.clear()
            for measure in MEASURES:
                pairwise = measure in ("similarity", "brefeld")
                empty_store()
                for size in range(2 if pairwise else 1, 13):
                    rank_table(JUST, measure, size)
                if not pairwise:
                    empty_store()
                    rank_table(JUST, measure)
            assert looked_up == [], name

    # the whole octave holds {0}, which the pairwise measures reject
    @pytest.mark.parametrize("name, tuning, cardinality", [
        pytest.param(name, tuning, cardinality, id=f"{name}-{tuning.name}-{cardinality or 'octave'}")
        for name in PASS for tuning in (JUST, builtin_tuning("rational"))
        for cardinality in (7, None) if cardinality or name not in ("similarity", "brefeld")
    ])
    def test_sibling_reads_its_partners_pass(self, calls, name, tuning, cardinality):
        partners = sorted(PASS[name] - {name})
        rank_table(tuning, name, cardinality)
        assert calls
        sizes = (cardinality,) if cardinality is not None else range(1, 13)
        assert all((tuning, partner, size) in enumeration._COLUMNS
                   for partner in partners for size in sizes)
        calls.clear()
        shared = {partner: rank_table(tuning, partner, cardinality) for partner in partners}
        assert calls == []
        for partner in partners:
            enumeration._COLUMNS.clear()
            assert rank_table(tuning, partner, cardinality) == shared[partner], partner
            assert calls, partner
            calls.clear()

    @pytest.mark.parametrize("tuning", PINNED_TUNINGS, ids=PINNED_IDS)
    @pytest.mark.parametrize("name", LCM_MEASURES)
    def test_octave_column_is_equal_whatever_the_store_held(self, empty_store, name, tuning):
        def octave(stored_first):
            empty_store(kernel=True)
            for measure, size in stored_first:
                rank_table(tuning, measure, size)
            return rank_table(tuning, name).rows

        # the referee: the 12 category tables ranked one by one, merged by
        # (orientation * value, semitones)
        empty_store(kernel=True)
        orientation = MEASURES[name].orientation
        referee = tuple(sorted(
            chain.from_iterable(rank_table(tuning, name, size).rows for size in range(1, 13)),
            key=lambda row: (orientation * row.value, row.harmony.semitones)))
        assert len(referee) == 2048
        assert octave(()) == referee
        # some categories of the measure or of each partner, then every category
        for measure in sorted(PASS[name]):
            assert octave([(measure, 3), (measure, 7)]) == referee, measure
        assert octave([(name, size) for size in range(1, 13)]) == referee

    @pytest.mark.parametrize("stored_first", [(), (3, 7), tuple(range(1, 13))],
                             ids=["none", "3-and-7", "all"])
    def test_octave_rows_are_its_category_rows(self, empty_store, stored_first):
        # an octave's pass shares its rows with the categories it stores; a
        # category stored before keeps its own table, with equal rows
        empty_store(kernel=True)
        stored = {size: rank_table(JUST, "gradus", size) for size in stored_first}
        octaves = {name: rank_table(JUST, name) for name in LCM_MEASURES}
        for size, table in stored.items():
            assert rank_table(JUST, "gradus", size) is table, size
        for name, octave in octaves.items():
            rows = [row for size in range(1, 13) for row in rank_table(JUST, name, size).rows]
            assert len(rows) == 2048, name
            if stored_first:
                assert set(octave.rows) == set(rows), name
            else:
                assert {id(row) for row in octave.rows} == set(map(id, rows)), name

    @pytest.mark.parametrize("stored_first", [(), (3, 7), tuple(range(1, 13))],
                             ids=["none", "3-and-7", "all"])
    @pytest.mark.parametrize("name", LCM_MEASURES)
    def test_octave_query_replaces_no_table(self, empty_store, name, stored_first):
        # every table returned before the octaves of the pass is the one
        # returned after them, and so is each octave
        empty_store(kernel=True)
        before = {(name, size): rank_table(JUST, name, size) for size in stored_first}
        before.update({(measure, None): rank_table(JUST, measure)
                       for measure in [name, *LCM_MEASURES]})
        for (measure, size), table in before.items():
            assert rank_table(JUST, measure, size) is table, (measure, size)

    @pytest.mark.parametrize("tuning", PINNED_TUNINGS, ids=PINNED_IDS)
    def test_pairwise_categories_are_equal_in_any_order(self, empty_store, tuning):
        # every category reads the tuning's one table of interval folds,
        # whichever category builds it
        queries = [(name, size) for size in range(2, 13) for name in ("similarity", "brefeld")]

        def ranked(order):
            empty_store(kernel=True)
            for name, size in order:
                rank_table(tuning, name, size)
            return {query: rank_table(tuning, *query) for query in queries}

        in_order = ranked(queries)
        assert ranked(queries[::-1]) == in_order
        shuffled = random.Random(29).sample(queries, len(queries))
        assert ranked(shuffled) == in_order

    @pytest.mark.parametrize("name", ["similarity", "brefeld"])
    def test_failed_full_table_stores_nothing(self, empty_store, name):
        empty_store(kernel=True)
        with pytest.raises(UndefinedMeasureError):
            rank_table(JUST, name)
        assert enumeration._COLUMNS == {}
        rank_table(JUST, name, 3)
        stored = dict(enumeration._COLUMNS)
        with pytest.raises(UndefinedMeasureError):
            rank_table(JUST, name)
        assert enumeration._COLUMNS == stored

    def test_failed_full_table_leaves_categories_correct(self, empty_store):
        empty_store(kernel=True)
        with pytest.raises(UndefinedMeasureError):
            rank_table(JUST, "similarity")
        rows = rank_table(JUST, "similarity", 3).rows
        expected = sorted(
            enumerate_harmonies(3),
            key=lambda h: (-evaluate_measure(h.semitones, "similarity", JUST), h.semitones),
        )
        assert [row.harmony for row in rows] == expected
        assert [row.rank for row in rows] == list(range(1, 56))

    # both passes read the tuning's table before they count a harmony's
    # tones, so under 'equal' the CLI names the tuning, not the lone tone
    # {0}, which a pairwise measure also rejects; evaluate_measure still
    # counts the tones first
    def test_tuning_error_comes_before_the_lone_tone_error(self, empty_store):
        equal = builtin_tuning("equal")
        empty_store(kernel=True)
        for cardinality in (None, 1):
            for name in MEASURES:
                with pytest.raises(TuningError, match="'equal' has irrational ratios"):
                    rank_table(equal, name, cardinality)
        assert enumeration._COLUMNS == {}
        with pytest.raises(UndefinedMeasureError, match="at least two tones"):
            evaluate_measure((0,), "similarity", equal)

    def test_equal_tuning_objects_give_equal_rows(self):
        fresh, builtin = rational_tuning(0.01), builtin_tuning("rational")
        assert fresh is not builtin and fresh == builtin
        assert rank_table(fresh, "log_periodicity", 5) == rank_table(builtin, "log_periodicity", 5)

    def test_rebuilt_equal_table_reads_the_stored_column(self, calls):
        stored = rank_table(JUST, "log_periodicity", 5)
        calls.clear()
        rebuilt = TuningTable("just", JUST.ratios)
        assert rebuilt is not JUST
        assert rank_table(rebuilt, "log_periodicity", 5) == stored
        assert calls == []

    def test_same_name_with_other_ratios_gets_its_own_column(self, calls):
        ratios = list(JUST.ratios)
        ratios[6] = Fraction(45, 32)
        other = TuningTable("just", tuple(ratios))
        builtin = rank_table(JUST, "rel_periodicity", 2)
        calls.clear()
        own = rank_table(other, "rel_periodicity", 2)
        assert calls == [11]
        values = {row.harmony.semitones: row.value for row in own.rows}
        assert values != {row.harmony.semitones: row.value for row in builtin.rows}
        assert rank_table(JUST, "rel_periodicity", 2) == builtin

    def test_warm_queries_hash_no_fraction(self, monkeypatch):
        queries = [
            (t, name, cardinality, top)
            for t in (JUST, builtin_tuning("rational"))
            for name in MEASURES
            for cardinality in (3, 7) + (() if name in ("similarity", "brefeld") else (None,))
            for top in (None, 5)
        ]
        assert len(queries) == 64
        for query in queries:
            rank_table(*query)
        hashed = []
        fraction_hash = Fraction.__hash__

        def counting(self):
            hashed.append(self)
            return fraction_hash(self)

        monkeypatch.setattr(Fraction, "__hash__", counting)
        for query in queries:
            rank_table(*query)
        assert hashed == []

    def test_columns_share_the_enumerated_harmonies(self):
        rows = rank_table(JUST, "gradus", 6).rows
        assert {id(h) for h in enumerate_harmonies(6)} == {id(row.harmony) for row in rows}
        assert not hasattr(rows[0], "__dict__")

    def test_octave_enumeration_is_the_stored_layout(self):
        harmonies = list(enumerate_harmonies())
        assert len(harmonies) == 2048 and all(map(operator.is_, harmonies, enumeration._octave()))

    def test_harmonies_share_the_kernel_tone_sets(self):
        # one tuple per tone set: each harmony's semitones are a key of the
        # index that the pairwise pass reads
        keys = {id(tones) for tones in measures._tone_sets()}
        assert {id(h.semitones) for h in enumerate_harmonies()} == keys and len(keys) == 2048


class TestExactTieCensus:
    """The ``log_periodicity`` rows of cardinalities 2..12 whose exact
    product of h' equals their successor's.  The float mean of log2 h' can
    tell such rows apart in the last place, and then rounding, not the
    lexicographic tie-break, orders them.  This records today's order: a
    change to an exact sort key changes these numbers."""

    @pytest.mark.parametrize("name, ties, split, reverse, moved", [
        ("just", 484, 28, 19, 50),
        ("rational", 430, 32, 22, 51),
        ("pythagorean", 874, 50, 34, 89),
        ("kirnberger3", 648, 62, 53, 129),
    ])
    def test_census(self, name, ties, split, reverse, moved):
        t = builtin_tuning(name)
        counts = {"ties": 0, "split": 0, "reverse": 0, "moved": 0}
        for size in range(2, 13):
            rows = rank_table(t, "log_periodicity", size).rows
            products = [math.prod(analyze(row.harmony, t).inversion_h) for row in rows]
            for (a, product_a), (b, product_b) in zip(zip(rows, products),
                                                      zip(rows[1:], products[1:])):
                if product_a == product_b:
                    counts["ties"] += 1
                    counts["split"] += a.value != b.value
                    counts["reverse"] += a.harmony.semitones > b.harmony.semitones
            exact = sorted(range(len(rows)),
                           key=lambda i: (products[i], rows[i].harmony.semitones))
            counts["moved"] += sum(i != j for i, j in enumerate(exact))
        assert counts["ties"] == ties, f"adjacent exact ties under {name}"
        assert counts["split"] == split, f"exact ties split by rounding under {name}"
        assert counts["reverse"] == reverse, f"exact ties in reverse lexicographic order under {name}"
        assert counts["moved"] == moved, f"rows that move under an exact key under {name}"


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

    @pytest.mark.parametrize("fraction", [True, False])
    def test_fraction_must_not_be_a_bool(self, fraction):
        # True is no share of 1: it would make the whole category the top share
        with pytest.raises(UsageError, match=rf"^fraction must be in \(0, 1\], got {fraction}$"):
            top_share_count(10, fraction)

    @pytest.mark.parametrize("size", [True, 10.5, Size.TRIAD], ids=["bool", "float", "int-subclass"])
    def test_category_size_must_be_a_plain_int(self, size):
        with pytest.raises(UsageError, match=f"^category_size must be an integer, got {size!r}$"):
            top_share_count(size, 0.5)
