"""Relative periodicity: harmonies, inversion averaging, worked values."""

import dataclasses
import hashlib
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonicity import (
    Harmony,
    UsageError,
    analyze,
    builtin_tuning,
    enumerate_harmonies,
    fundamental_frequency,
    inversion_offsets,
    lcm_many,
    ratios_for,
    rational_tuning,
    raw_periodicity,
)

JUST = builtin_tuning("just")

# just-tuning averaged periodicity of every dyad {0, n}, one octave
DYAD_MEANS = {
    12: 1.0, 7: 2.0, 5: 3.0, 4: 4.0, 9: 3.0, 8: 5.0, 3: 5.0,
    6: 6.0, 10: 7.0, 2: 8.5, 11: 8.0, 1: 15.0,
}

subsets = st.sets(st.integers(1, 11), min_size=0, max_size=11).map(
    lambda rest: (0,) + tuple(sorted(rest))
)


class Tone(int):
    pass


class TestHarmony:
    def test_validation(self):
        with pytest.raises(UsageError):
            Harmony((1, 4, 7))  # must start at 0
        with pytest.raises(UsageError):
            Harmony((0, 7, 4))  # strictly increasing
        with pytest.raises(UsageError):
            Harmony((0, 4, 4))
        with pytest.raises(UsageError):
            Harmony(())
        with pytest.raises(UsageError, match="must be integers"):
            Harmony((0, 1.5))
        # checked before the first offset and the order
        with pytest.raises(UsageError, match="must be integers"):
            Harmony((0, "4"))
        with pytest.raises(UsageError, match="must be integers"):
            Harmony(("0",))

    @pytest.mark.parametrize("semitones", [[0, 4, 7], range(3)], ids=repr)
    def test_semitones_must_be_a_tuple(self, semitones):
        # a list would make an unhashable harmony, unequal to the tuple's
        with pytest.raises(UsageError, match="must be a tuple"):
            Harmony(semitones)

    @pytest.mark.parametrize("semitones", [(0, True), (False, 4)], ids=repr)
    def test_bool_offsets_are_rejected(self, semitones):
        # True would print as {0,True} and compute as the tone 1
        with pytest.raises(UsageError, match="must be integers"):
            Harmony(semitones)

    def test_from_offsets_normalizes(self):
        assert Harmony.from_offsets([60, 64, 67]).semitones == (0, 4, 7)
        assert Harmony.from_offsets([7, 0, 4]).semitones == (0, 4, 7)

    def test_from_offsets_rejects_duplicates(self):
        with pytest.raises(UsageError):
            Harmony.from_offsets([5, 5, 9])

    def test_from_offsets_rejects_no_tones(self):
        with pytest.raises(UsageError, match="a harmony needs at least one tone"):
            Harmony.from_offsets([])

    @pytest.mark.parametrize("offsets", [[True, 5], [0, True], [7, False, 4], [Tone(60), 64]],
                             ids=repr)
    def test_from_offsets_needs_plain_int_offsets(self, offsets):
        # shifted, True - True is the int 0, which the constructor accepts;
        # so is an int subclass, which the constructor rejects too
        with pytest.raises(UsageError, match=r"^harmony offsets must be integers, got \("):
            Harmony.from_offsets(offsets)

    def test_from_offsets_keeps_the_constructor_message(self):
        # an offset the constructor rejects after the shift is reported as before
        with pytest.raises(UsageError, match=r"^harmony offsets must be integers, got \(0, 1\.5\)$"):
            Harmony.from_offsets([True, 2.5])

    def test_str(self):
        assert str(Harmony((0, 3, 9))) == "{0,3,9}"
        assert len(Harmony((0, 3, 9))) == 3

    def test_semitones_are_the_only_field(self):
        # equality and hashing see nothing but the tones
        assert [f.name for f in dataclasses.fields(Harmony)] == ["semitones"]

    @given(st.lists(st.integers(-40, 40), min_size=1, max_size=8, unique=True))
    def test_from_offsets_shift_invariant(self, offsets):
        h = Harmony.from_offsets(offsets)
        assert h.semitones[0] == 0
        assert list(h.semitones) == sorted(o - min(offsets) for o in offsets)


class TestRawPeriodicity:
    def test_worked_triad(self):
        h = Harmony((0, 3, 9))
        assert ratios_for(h, JUST) == (
            Fraction(1),
            Fraction(6, 5),
            Fraction(5, 3),
        )
        assert raw_periodicity(h, JUST) == 15

    def test_spread_major_triad(self):
        assert raw_periodicity(Harmony((0, 16, 19)), JUST) == 2

    def test_chromatic_scale(self):
        assert raw_periodicity(Harmony(tuple(range(12))), JUST) == 120

    def test_overtone_collapse(self):
        # pure overtones of the root repeat with the root itself
        assert raw_periodicity(Harmony((0, 12, 19, 24)), JUST) == 1

    @settings(max_examples=200)
    @given(subsets)
    def test_equals_lcm_of_denominators(self, tones):
        h = Harmony(tones)
        denominators = [r.denominator for r in ratios_for(h, JUST)]
        assert raw_periodicity(h, JUST) == lcm_many(denominators)


class TestInversions:
    def test_offsets(self):
        h = Harmony((0, 4, 7))
        assert inversion_offsets(h, 0) == (0, 4, 7)
        assert inversion_offsets(h, 1) == (-4, 0, 3)
        assert inversion_offsets(h, 2) == (-7, -3, 0)

    def test_index_validation(self):
        with pytest.raises(UsageError):
            inversion_offsets(Harmony((0, 4, 7)), 3)

    @pytest.mark.parametrize("i", [1.0, True], ids=["float", "bool"])
    def test_index_must_be_a_plain_int(self, i):
        with pytest.raises(UsageError, match=f"^inversion index {i} out of range for \\{{0,4,7\\}}$"):
            inversion_offsets(Harmony((0, 4, 7)), i)


class TestAnalyze:
    def test_worked_triad(self):
        result = analyze(Harmony((0, 3, 9)), JUST)
        assert result.raw_h == 15
        assert result.inversion_h == (Fraction(15), Fraction(25), Fraction(6))
        assert result.exact_mean_h == Fraction(46, 3)
        assert result.mean_h == pytest.approx(15.3333333, abs=1e-6)
        # (log2 15 + log2 25 + log2 6) / 3
        assert result.mean_log_h == pytest.approx(3.711903095368133, abs=1e-12)

    def test_spread_major_triad_exact(self):
        result = analyze(Harmony((0, 16, 19)), JUST)
        assert result.inversion_h == (Fraction(2), Fraction(2), Fraction(2))
        assert result.mean_h == 2.0
        assert result.mean_log_h == 1.0

    def test_chromatic_scale(self):
        result = analyze(Harmony(tuple(range(12))), JUST)
        assert result.raw_h == 120
        assert result.mean_h == pytest.approx(168.1667, abs=0.05)
        assert result.mean_log_h == pytest.approx(7.37, abs=0.05)

    def test_without_inversion_averaging(self):
        result = analyze(Harmony((0, 3, 9)), JUST, average_inversions=False)
        assert result.inversion_h == (Fraction(15),)
        assert result.mean_h == 15.0
        assert result.mean_log_h == pytest.approx(math.log2(15), abs=1e-12)

    def test_dyad_column(self):
        for n, expected in DYAD_MEANS.items():
            result = analyze(Harmony((0, n)), JUST)
            assert result.exact_mean_h == Fraction(expected), f"dyad {{0,{n}}}"

    def test_equal_temperament_rejected(self):
        from harmonicity import TuningError

        with pytest.raises(TuningError):
            analyze(Harmony((0, 7)), builtin_tuning("equal"))

    @settings(max_examples=100)
    @given(subsets)
    def test_exact_mean_matches_float(self, tones):
        result = analyze(Harmony(tones), JUST)
        assert result.mean_h == float(result.exact_mean_h)

    @settings(max_examples=100)
    @given(subsets)
    def test_log_mean_is_geometric_mean(self, tones):
        result = analyze(Harmony(tones), JUST)
        product = math.prod(float(v) for v in result.inversion_h)
        geometric = product ** (1 / len(result.inversion_h))
        assert 2.0**result.mean_log_h == pytest.approx(geometric, rel=1e-12)

    @settings(max_examples=50)
    @given(subsets)
    def test_every_inversion_value_positive_rational(self, tones):
        result = analyze(Harmony(tones), JUST)
        assert all(isinstance(v, int) and v > 0 for v in result.inversion_h)


VIEW_TUNINGS = {
    **{name: builtin_tuning(name) for name in ("just", "pythagorean", "kirnberger3", "rational")},
    "rational-0.001": rational_tuning(0.001),
}

# chords that reach past the octave, up to the whole MIDI span
WIDE_CHORDS = [(0, 16, 19), (0, 12, 19, 24), (0, 7, 16, 24, 28, 63), (0, 1, 13, 50, 89, 126, 127)]

# SHA-256 of the JSON pair [every averaged analysis as [raw_h, inversion_h],
# every root-only analysis as [raw_periodicity, raw_h, inversion_h,
# repr(mean_h), repr(mean_log_h)]] over the 2048 one-octave harmonies and
# WIDE_CHORDS; taken before analyze and the rank kernel shared one h' per view
VIEW_DIGESTS = {
    "just": "402dd1bd15146f55d562bfc65c2ea092de5d4dbb4b2b23ce3d77cacd73b03f22",
    "pythagorean": "1369d2ac0ff27f6100a5bc2a3efde6389e400af108d16a85d8a8fcdcc177b213",
    "kirnberger3": "d48b39ea61191b55712db7286d81a7ffbbdf2d8dc49b9aa2650516c7364c0ef0",
    "rational": "12b8edd5851c11d850a479d4f427d5a95e1d07a359eec683a04bd3aca3fb57b8",
    "rational-0.001": "d49a2f174dbfb41604e1074e68ae9b497b8058941cb59296f6426f16039e310a",
}


class TestViewDigests:
    """Every inversion view's h', not only the means built from them."""

    @pytest.mark.parametrize("tuning_id", VIEW_DIGESTS)
    def test_every_view_is_unchanged(self, tuning_id):
        t = VIEW_TUNINGS[tuning_id]
        harmonies = [*enumerate_harmonies(), *map(Harmony, WIDE_CHORDS)]
        averaged = [[r.raw_h, r.inversion_h] for r in (analyze(h, t) for h in harmonies)]
        roots = [[raw_periodicity(h, t), r.raw_h, r.inversion_h,
                  repr(r.mean_h), repr(r.mean_log_h)]
                 for h, r in ((h, analyze(h, t, average_inversions=False)) for h in harmonies)]
        digest = hashlib.sha256(json.dumps([averaged, roots]).encode()).hexdigest()
        assert digest == VIEW_DIGESTS[tuning_id]


class TestFundamental:
    def test_spread_major_triad(self):
        f0 = fundamental_frequency(Harmony((0, 16, 19)), JUST, 130.81)
        assert f0 == pytest.approx(65.41, abs=0.01)

    def test_positive_frequency_required(self):
        with pytest.raises(UsageError):
            fundamental_frequency(Harmony((0, 7)), JUST, 0.0)

    @pytest.mark.parametrize("f1", [math.nan, math.inf])
    def test_finite_frequency_required(self, f1):
        with pytest.raises(UsageError, match=f"^fundamental_frequency\\(\\) needs a finite f1, got {f1!r}$"):
            fundamental_frequency(Harmony((0, 7)), JUST, f1)


class TestSerialization:
    """The CSV and JSON forms of an analysis, printed by ``analyze``."""

    def test_csv(self, cli_stdout):
        out = cli_stdout("analyze", "--chord", "0,3,9", "--format", "csv")
        assert out.splitlines() == [
            "semitones;tuning;raw_h;mean_h;mean_log_h",
            "0,3,9;just;15;15.3;3.712",
        ]

    def test_json(self, cli_stdout):
        payload = json.loads(cli_stdout("analyze", "--chord", "0,3,9", "--format", "json"))
        assert payload["harmony"]["semitones"] == [0, 3, 9]
        assert payload["raw_h"] == 15
        assert payload["inversion_h"] == ["15", "25", "6"]
