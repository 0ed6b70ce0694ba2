"""Tuning tables: built-ins, generated rational tuning, octave extension."""

import json
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from harmonicity import (
    BUILTIN_TUNING_NAMES,
    INTERVAL_NAMES,
    TuningError,
    TuningTable,
    UsageError,
    builtin_tuning,
    deviation,
    ratio_for_semitone,
    rational_tuning,
)

F = Fraction

# Reference ratios and rounded deviation percentages for every built-in
# rational-valued tuning (columns of the standard comparison table).
REFERENCE = {
    "pythagorean": [
        (F(1, 1), 0.00), (F(256, 243), -0.56), (F(9, 8), 0.23),
        (F(32, 27), -0.34), (F(81, 64), 0.45), (F(4, 3), -0.11),
        (F(729, 512), 0.68), (F(3, 2), 0.11), (F(128, 81), -0.45),
        (F(27, 16), 0.34), (F(16, 9), -0.23), (F(243, 128), 0.57),
        (F(2, 1), 0.00),
    ],
    "kirnberger3": [
        (F(1, 1), 0.00), (F(25, 24), -1.68), (F(9, 8), 0.23),
        (F(6, 5), 0.91), (F(5, 4), -0.79), (F(4, 3), -0.11),
        (F(45, 32), -0.56), (F(3, 2), 0.11), (F(25, 16), -1.57),
        (F(5, 3), -0.90), (F(16, 9), -0.23), (F(15, 8), -0.68),
        (F(2, 1), 0.00),
    ],
    "rational": [
        (F(1, 1), 0.00), (F(16, 15), 0.68), (F(9, 8), 0.23),
        (F(6, 5), 0.91), (F(5, 4), -0.79), (F(4, 3), -0.11),
        (F(17, 12), 0.17), (F(3, 2), 0.11), (F(8, 5), 0.79),
        (F(5, 3), -0.90), (F(16, 9), -0.23), (F(15, 8), -0.68),
        (F(2, 1), 0.00),
    ],
    "just": [
        (F(1, 1), 0.00), (F(16, 15), 0.68), (F(9, 8), 0.23),
        (F(6, 5), 0.91), (F(5, 4), -0.79), (F(4, 3), -0.11),
        (F(7, 5), -1.01), (F(3, 2), 0.11), (F(8, 5), 0.79),
        (F(5, 3), -0.90), (F(9, 5), 1.02), (F(15, 8), -0.68),
        (F(2, 1), 0.00),
    ],
}


class TestBuiltins:
    def test_names(self):
        assert BUILTIN_TUNING_NAMES == (
            "equal",
            "pythagorean",
            "kirnberger3",
            "rational",
            "just",
        )
        for name in BUILTIN_TUNING_NAMES:
            assert builtin_tuning(name).name == name

    def test_unknown_name(self):
        with pytest.raises(UsageError):
            builtin_tuning("meantone")

    @pytest.mark.parametrize("name", sorted(REFERENCE))
    def test_reference_ratios(self, name):
        t = builtin_tuning(name)
        assert [r for r, _ in REFERENCE[name]] == list(t.ratios)

    @pytest.mark.parametrize("name", sorted(REFERENCE))
    def test_reference_deviations(self, name):
        t = builtin_tuning(name)
        for k, (_, printed) in enumerate(REFERENCE[name]):
            assert deviation(t, k) == pytest.approx(printed, abs=0.005)

    def test_equal_temperament_values(self):
        t = builtin_tuning("equal")
        assert not t.is_rational
        for k in range(13):
            assert float(t.ratios[k]) == pytest.approx(2 ** (k / 12), rel=1e-12)
            assert deviation(t, k) == 0.0

    @pytest.mark.parametrize("k", [-1, 13])
    def test_deviation_outside_the_octave(self, k):
        with pytest.raises(UsageError, match="needs a semitone in 0..12"):
            deviation(builtin_tuning("just"), k)

    @pytest.mark.parametrize("k", [1.0, True], ids=["float", "bool"])
    def test_deviation_needs_a_plain_int(self, k):
        with pytest.raises(UsageError, match=f"^deviation\\(\\) needs a semitone in 0..12, got {k!r}$"):
            deviation(builtin_tuning("just"), k)

    def test_thirteen_interval_names(self):
        assert len(INTERVAL_NAMES) == 13
        assert INTERVAL_NAMES[0] == "unison"
        assert INTERVAL_NAMES[12] == "octave"


class TestRationalTuning:
    def test_one_percent_matches_reference(self):
        t = rational_tuning(0.01)
        assert list(t.ratios) == [r for r, _ in REFERENCE["rational"]]

    def test_slightly_wider_bound_gives_just_ratios(self):
        assert list(rational_tuning(0.011).ratios) == [
            r for r, _ in REFERENCE["just"]
        ]

    def test_bound_validation(self):
        with pytest.raises(UsageError):
            rational_tuning(0.0)
        with pytest.raises(UsageError):
            rational_tuning(0.06)

    @given(st.floats(0.002, 0.028))
    def test_every_ratio_within_bound(self, d):
        # below (2^(1/12)-1)/(2^(1/12)+1) ~ 0.029 adjacent semitone
        # intervals cannot overlap, so construction always succeeds
        t = rational_tuning(d)
        for k, ratio in enumerate(t.ratios):
            target = 2 ** (k / 12)
            assert abs(float(ratio) - target) / target <= d + 1e-12

    @given(st.floats(0.028, 0.059))
    def test_coarse_bounds_succeed_or_reject_clearly(self, d):
        try:
            t = rational_tuning(d)
        except TuningError as exc:
            assert "too coarse" in str(exc)
        else:
            assert all(a < b for a, b in zip(t.ratios, t.ratios[1:]))


class TestTableValidation:
    def test_thirteen_entries_required(self):
        with pytest.raises(UsageError):
            TuningTable("bad", tuple(F(1, 1) for _ in range(12)))

    def test_strictly_increasing_required(self):
        ratios = list(builtin_tuning("just").ratios)
        ratios[3], ratios[4] = ratios[4], ratios[3]
        with pytest.raises(UsageError):
            TuningTable("bad", tuple(ratios))

    def test_span_required(self):
        ratios = list(builtin_tuning("just").ratios)
        ratios[12] = F(3, 1)
        with pytest.raises(UsageError):
            TuningTable("bad", tuple(ratios))


class TestHashContract:
    """A table hashes by name and bound; equality still compares ratios."""

    def test_rebuilt_rational_table_equals_and_hashes_alike(self):
        fresh, builtin = rational_tuning(0.01), builtin_tuning("rational")
        assert fresh is not builtin
        assert fresh == builtin and hash(fresh) == hash(builtin)

    def test_table_built_from_the_same_ratios_equals_and_hashes_alike(self):
        builtin = builtin_tuning("just")
        copy = TuningTable("just", builtin.ratios)
        assert copy == builtin and hash(copy) == hash(builtin)

    @pytest.mark.parametrize("name", BUILTIN_TUNING_NAMES)
    def test_pickled_table_finds_the_original_key(self, name):
        builtin = builtin_tuning(name)
        assert {builtin: name}[pickle.loads(pickle.dumps(builtin))] == name

    def test_same_name_and_bound_with_other_ratios_stay_apart(self):
        just = builtin_tuning("just")
        ratios = list(just.ratios)
        ratios[6] = F(45, 32)
        other = TuningTable("just", tuple(ratios))
        assert other != just and hash(other) == hash(just)
        keyed = {just: "builtin", other: "other"}
        assert len(keyed) == 2
        assert keyed[just] == "builtin" and keyed[other] == "other"


class TestRatioForSemitone:
    def test_examples_within_octave(self):
        just = builtin_tuning("just")
        assert ratio_for_semitone(just, 16) == F(5, 2)
        assert ratio_for_semitone(just, 19) == F(3, 1)
        assert ratio_for_semitone(just, -9) == F(3, 5)
        assert ratio_for_semitone(just, -6) == F(7, 10)
        assert ratio_for_semitone(just, -14) == F(9, 20)

    def test_equal_temperament_rejected(self):
        with pytest.raises(TuningError):
            ratio_for_semitone(builtin_tuning("equal"), 7)

    @pytest.mark.parametrize("n", [1.5, 7.0, True], ids=["fraction", "float", "bool"])
    def test_offset_must_be_a_plain_int(self, n):
        with pytest.raises(UsageError, match=f"^semitone offset must be an integer, got {n!r}$"):
            ratio_for_semitone(builtin_tuning("just"), n)

    @given(st.integers(-30, 30))
    def test_octave_shift_doubles(self, n):
        just = builtin_tuning("just")
        assert ratio_for_semitone(just, n + 12) == 2 * ratio_for_semitone(just, n)

    @given(st.integers(-30, 30))
    def test_floor_rule(self, n):
        # the ratio is the within-octave ratio of n mod 12 shifted by
        # 2 per full octave, with flooring division for negatives
        just = builtin_tuning("just")
        octave, step = divmod(n, 12)
        expected = just.ratios[step] * F(2) ** octave
        assert ratio_for_semitone(just, n) == expected


class TestSerialization:
    """The CSV and JSON forms of a tuning table, printed by ``tuning``."""

    @pytest.mark.parametrize("name", BUILTIN_TUNING_NAMES)
    def test_csv_has_stable_header(self, cli_stdout, name):
        lines = cli_stdout("tuning", name, "--format", "csv").splitlines()
        assert lines[0] == "semitone,interval_name,numerator,denominator,deviation_percent"
        assert len(lines) == 14
        assert [line.split(",")[1] for line in lines[1:]] == list(INTERVAL_NAMES)

    def test_equal_temperament_csv_leaves_fractions_empty(self, cli_stdout):
        row = cli_stdout("tuning", "equal", "--format", "csv").splitlines()[2]
        fields = row.split(",")
        assert fields[2] == "" and fields[3] == ""

    def test_json_dict(self, cli_stdout):
        payload = json.loads(cli_stdout("tuning", "just", "--format", "json"))
        assert payload["name"] == "just"
        assert payload["ratios"][7] == "3/2"
