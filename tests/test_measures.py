"""Rival consonance measures: worked values, table columns, curve shape.

Integer-valued oracles (gradus, omega) were fixed by hand factorization of
the ratio products and cross-checked against sympy's ``factorint`` /
``primeomega`` before being frozen here; geometric means and similarity
percentages are closed-form arithmetic on the same ratios.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from harmonicity import (
    MEASURES,
    Harmony,
    UndefinedMeasureError,
    UsageError,
    analyze,
    builtin_tuning,
    evaluate_measure,
    pairwise_intervals,
    prime_factor_multiset,
    roughness_curve,
)

JUST = builtin_tuning("just")
gradus = MEASURES["gradus"].compute
omega = MEASURES["omega"].compute
brefeld = MEASURES["brefeld"].compute
similarity = MEASURES["similarity"].compute

# hand-factorized ratio products of lowest-tone ratios under just tuning:
# {0,7} -> 6, {0,12} -> 2, {0,4} -> 20, {0,4,7} -> 60, {0,3,6} -> 210,
# major scale -> 4320
GRADUS_EXAMPLES = {
    (0, 7): 4,
    (0,): 1,
    (0, 12): 2,
    (0, 4): 7,
    (0, 4, 7): 9,
    (0, 3, 6): 14,
    (0, 2, 4, 5, 7, 9, 11): 16,
}
OMEGA_EXAMPLES = {
    (0, 7): 2,
    (0,): 0,
    (0, 12): 1,
    (0, 4): 3,
    (0, 4, 7): 4,
    (0, 3, 6): 4,
    (0, 2, 4, 5, 7, 9, 11): 9,
}

# published similarity columns (percent, 2 decimals) for the 13 dyads and
# the 13 triads, keyed by semitone tuple
DYAD_SIMILARITY = {
    (0, 0): 100.00, (0, 12): 100.00, (0, 7): 66.67, (0, 5): 50.00,
    (0, 4): 40.00, (0, 9): 46.67, (0, 8): 30.00, (0, 3): 33.33,
    (0, 6): 31.43, (0, 10): 28.89, (0, 2): 22.22, (0, 11): 18.33,
    (0, 1): 12.50,
}
TRIAD_SIMILARITY = {
    (0, 4, 7): 46.67, (0, 3, 8): 37.78, (0, 5, 9): 45.56, (0, 3, 7): 46.67,
    (0, 4, 9): 45.56, (0, 5, 8): 37.78, (0, 5, 7): 46.30, (0, 2, 7): 46.30,
    (0, 5, 10): 42.96, (0, 3, 6): 32.70, (0, 3, 9): 37.14, (0, 6, 9): 37.14,
    (0, 4, 8): 36.67,
}

subsets = st.sets(st.integers(1, 11), min_size=1, max_size=11).map(
    lambda rest: (0,) + tuple(sorted(rest))
)


class TestGradusAndOmega:
    def test_gradus_examples(self):
        for tones, expected in GRADUS_EXAMPLES.items():
            assert gradus(tones, JUST) == expected, tones

    def test_omega_examples(self):
        for tones, expected in OMEGA_EXAMPLES.items():
            assert omega(tones, JUST) == expected, tones

    @given(st.lists(st.integers(-24, 36), min_size=1, max_size=6))
    def test_order_of_ratios_is_irrelevant(self, tones):
        # the tones' ratios, in any order and with duplicates
        shuffled = list(tones)
        random.Random(0).shuffle(shuffled)
        assert gradus(shuffled, JUST) == gradus(tones, JUST)
        assert omega(shuffled, JUST) == omega(tones, JUST)

    @given(st.integers(1, 10_000), st.integers(1, 10_000))
    def test_omega_is_completely_additive(self, m, n):
        def factor_count(value):
            return sum(prime_factor_multiset(value).values())

        assert factor_count(m * n) == factor_count(m) + factor_count(n)

    def test_gradus_of_one_is_one(self):
        # a lone tone has ratio 1/1
        assert gradus((0,), JUST) == 1
        assert omega((0,), JUST) == 0


class TestPairwiseIntervals:
    def test_triad_intervals_use_semitone_distance(self):
        assert pairwise_intervals((0, 4, 7), JUST) == [
            Fraction(5, 4),   # 0-4
            Fraction(3, 2),   # 0-7
            Fraction(6, 5),   # 4-7 -> distance 3
        ]

    def test_count_is_pairs(self):
        for size in range(2, 8):
            tones = tuple(range(0, 2 * size, 2))
            assert len(pairwise_intervals(tones, JUST)) == math.comb(size, 2)

    def test_duplicates_yield_unison_interval(self):
        assert pairwise_intervals((0, 0), JUST) == [Fraction(1)]

    def test_order_is_irrelevant(self):
        assert pairwise_intervals((7, 0, 4), JUST) == pairwise_intervals(
            (0, 4, 7), JUST
        )

    def test_single_tone_is_undefined(self):
        with pytest.raises(UndefinedMeasureError):
            pairwise_intervals((0,), JUST)
        with pytest.raises(UndefinedMeasureError):
            brefeld((0,), JUST)
        with pytest.raises(UndefinedMeasureError):
            similarity((0,), JUST)


class TestBrefeldValue:
    def test_fifth(self):
        # single interval 3/2 -> sqrt(6)
        assert brefeld((0, 7), JUST) == pytest.approx(
            math.sqrt(6), rel=1e-12
        )

    def test_octave(self):
        assert brefeld((0, 12), JUST) == pytest.approx(
            math.sqrt(2), rel=1e-12
        )

    def test_major_triad(self):
        # intervals 5/4, 3/2, 6/5 -> (5*4*3*2*6*5) ** (1/6) = 3600 ** (1/6)
        assert brefeld((0, 4, 7), JUST) == pytest.approx(
            3600.0 ** (1.0 / 6.0), rel=1e-12
        )
        assert brefeld((0, 4, 7), JUST) == pytest.approx(
            3.914868, abs=5e-7
        )

    def test_diminished_triad(self):
        # intervals 6/5, 7/5, 6/5 -> 31500 ** (1/6)
        assert brefeld((0, 3, 6), JUST) == pytest.approx(
            31500.0 ** (1.0 / 6.0), rel=1e-12
        )

    def test_empty_interval_list_is_undefined(self):
        with pytest.raises(UndefinedMeasureError):
            brefeld((), JUST)

    @given(subsets.filter(lambda tones: len(tones) >= 2))
    def test_value_is_at_least_one(self, tones):
        # every numerator and denominator is >= 1
        assert brefeld(tones, JUST) >= 1.0


class TestPercentageSimilarity:
    def test_dyad_column(self):
        for tones, expected in DYAD_SIMILARITY.items():
            computed = similarity(tones, JUST)
            assert round(computed, 2) == expected, tones

    def test_triad_column(self):
        for tones, expected in TRIAD_SIMILARITY.items():
            computed = similarity(tones, JUST)
            assert round(computed, 2) == expected, tones

    def test_unison_and_octave_are_full_similarity(self):
        assert similarity((0, 0), JUST) == 100.0
        assert similarity((0, 12), JUST) == 100.0

    def test_empty_interval_list_is_undefined(self):
        with pytest.raises(UndefinedMeasureError):
            similarity((), JUST)

    @given(subsets.filter(lambda tones: len(tones) >= 2))
    def test_bounded_by_zero_and_hundred(self, tones):
        value = similarity(tones, JUST)
        assert 0.0 < value <= 100.0


class TestRoughnessCurve:
    def test_maximum_at_a(self):
        for a, b in [(0.021, 2.0), (1.0, 2.0), (0.5, 3.7)]:
            assert roughness_curve(a, a, b) == pytest.approx(1.0, rel=1e-12)

    def test_zero_at_zero(self):
        assert roughness_curve(0.0, 0.021) == 0.0

    def test_double_peak_position(self):
        assert roughness_curve(2.0, 1.0, 2.0) == pytest.approx(
            (2.0 * math.exp(-1.0)) ** 2, rel=1e-12
        )
        assert roughness_curve(2.0, 1.0, 2.0) == pytest.approx(0.5413, abs=5e-5)

    def test_domain_errors(self):
        with pytest.raises(UsageError):
            roughness_curve(0.1, 0.0)
        with pytest.raises(UsageError):
            roughness_curve(0.1, -1.0)
        with pytest.raises(UsageError):
            roughness_curve(0.1, 1.0, 0.0)
        with pytest.raises(UsageError):
            roughness_curve(-0.1, 1.0)

    @given(
        st.integers(0, 99), st.integers(1, 100),
        st.floats(0.01, 10.0), st.floats(0.5, 4.0),
    )
    def test_strictly_increasing_before_peak(self, i, j, a, b):
        # grid points i*a/100 < j*a/100 <= a
        if i >= j:
            i, j = j - 1, i + 1
        lo, hi = i * a / 100.0, j * a / 100.0
        assert roughness_curve(lo, a, b) < roughness_curve(hi, a, b)

    @given(
        st.integers(0, 99), st.integers(1, 100),
        st.floats(0.01, 10.0), st.floats(0.5, 4.0),
    )
    def test_strictly_decreasing_after_peak(self, i, j, a, b):
        # grid points a + i*a/10 < a + j*a/10, i.e. x in [a, 11a]
        if i >= j:
            i, j = j - 1, i + 1
        lo, hi = a + i * a / 10.0, a + j * a / 10.0
        assert roughness_curve(lo, a, b) > roughness_curve(hi, a, b)

    @given(st.floats(0.0, 50.0), st.floats(0.01, 10.0), st.floats(0.5, 4.0))
    def test_never_exceeds_one(self, x, a, b):
        assert 0.0 <= roughness_curve(x, a, b) <= 1.0


class TestEvaluateMeasure:
    def test_periodicity_measures_match_analysis(self):
        result = analyze(Harmony((0, 3, 9)), JUST)
        assert evaluate_measure((0, 3, 9), "rel_periodicity", JUST) == (
            result.mean_h
        )
        assert evaluate_measure((0, 3, 9), "log_periodicity", JUST) == (
            result.mean_log_h
        )
        assert evaluate_measure((0, 3, 9), "rel_periodicity", JUST) == (
            pytest.approx(46.0 / 3.0)
        )

    def test_spread_harmony_collapses_for_periodicity(self):
        assert evaluate_measure((0, 16, 19), "log_periodicity", JUST) == 1.0

    def test_interval_measures_match_direct_functions(self):
        assert evaluate_measure((0, 4, 7), "similarity", JUST) == (
            similarity((0, 4, 7), JUST)
        )
        assert evaluate_measure((0, 4, 7), "brefeld", JUST) == (
            brefeld((0, 4, 7), JUST)
        )
        assert evaluate_measure((0, 4, 7), "gradus", JUST) == 9.0
        assert evaluate_measure((0, 4, 7), "omega", JUST) == 4.0

    def test_duplicate_tones_are_allowed(self):
        # (0,0,7): pairwise intervals 1/1, 3/2, 3/2
        assert evaluate_measure((0, 0, 7), "similarity", JUST) == (
            pytest.approx(700.0 / 9.0)
        )
        assert evaluate_measure((0, 0, 7), "brefeld", JUST) == (
            pytest.approx(6.0 ** (1.0 / 3.0))
        )
        # duplicates collapse for periodicity: same as the plain fifth
        assert evaluate_measure((0, 0, 7), "rel_periodicity", JUST) == 2.0
        # ... and are no-ops for the lcm-based measures
        assert evaluate_measure((0, 0, 7), "gradus", JUST) == 4.0

    def test_unknown_measure(self):
        with pytest.raises(UsageError, match="unknown measure"):
            evaluate_measure((0, 7), "sharpness", JUST)

    def test_measure_names_are_all_evaluable(self):
        for name in MEASURES:
            value = evaluate_measure((0, 4, 7), name, JUST)
            assert isinstance(value, float) and value > 0.0
