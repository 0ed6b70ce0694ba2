"""Rival consonance measures: worked values and table columns.

Integer-valued oracles (gradus, omega) were fixed by hand factorization of
the ratio products and cross-checked against sympy's ``factorint`` /
``primeomega`` before being frozen here; geometric means and similarity
percentages are closed-form arithmetic on the same ratios.  ``REFERENCE``
restates all six measures on :class:`~fractions.Fraction` ratios, the
periodicity pair with ``min`` over each view's ratios, as a referee for
their integer definitions in :mod:`harmonicity.measures` and
:mod:`harmonicity.periodicity`.
"""

import hashlib
import json
import math
import random
import re
from fractions import Fraction
from itertools import combinations

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
    enumerate_harmonies,
    evaluate_measure,
    prime_factor_multiset,
    ratio_for_semitone,
    rational_tuning,
)
from harmonicity import measures

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

RATIONAL_TUNINGS = {
    **{name: builtin_tuning(name) for name in ("just", "pythagorean", "kirnberger3", "rational")},
    "rational-0.001": rational_tuning(0.001),
}


def reference_intervals(tones, t):
    """Fraction ratios of all unordered tone pairs, mapped by semitone distance."""
    if len(tones) < 2:
        raise UndefinedMeasureError("pairwise-interval measures need at least two tones")
    return [ratio_for_semitone(t, high - low) for low, high in combinations(sorted(tones), 2)]


def interval_product(tones, t):
    """Product of every pair's numerator times denominator, read by distance."""
    return math.prod(r.numerator * r.denominator
                     for r in reference_intervals(tones, t))


def reference_similarity(tones, t):
    intervals = reference_intervals(tones, t)
    total = sum(Fraction(r.numerator + r.denominator - 1, r.numerator * r.denominator)
                for r in intervals)
    return float(total / len(intervals) * 100)


def reference_brefeld(tones, t):
    return measures._root(interval_product(tones, t), 2 * math.comb(len(tones), 2))


def reference_factors(tones, t):
    ratios = [ratio_for_semitone(t, n) for n in tones]
    return prime_factor_multiset(math.lcm(*[r.numerator for r in ratios])
                                 * math.lcm(*[r.denominator for r in ratios]))


def reference_views(tones, t):
    """h' of each inversion view of the distinct tones, the lowest of which
    must be 0: the lcm of the view's Fraction ratio denominators times its
    lowest ratio."""
    if min(tones) != 0:
        raise UsageError(
            f"periodicity measures need the lowest raw tone to be 0, got {tuple(tones)}")
    tones = sorted(set(tones))
    views = []
    for anchor in tones:
        ratios = [ratio_for_semitone(t, n - anchor) for n in tones]
        h = math.lcm(*[r.denominator for r in ratios]) * min(ratios)
        assert h.denominator == 1, (tones, anchor)
        views.append(h.numerator)
    return views


def reference_rel_periodicity(tones, t):
    views = reference_views(tones, t)
    return float(Fraction(sum(views), len(views)))


def reference_log_periodicity(tones, t):
    views = reference_views(tones, t)
    return math.fsum(math.log2(v) for v in views) / len(views)


REFERENCE = {
    "rel_periodicity": reference_rel_periodicity,
    "log_periodicity": reference_log_periodicity,
    "similarity": reference_similarity,
    "gradus": lambda tones, t: float(1 + sum(m * (p - 1) for p, m in reference_factors(tones, t).items())),
    "omega": lambda tones, t: float(sum(reference_factors(tones, t).values())),
    "brefeld": reference_brefeld,
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

    def test_compute_returns_ints(self):
        # `analyze --measures all` rounds compute's value: 9, not 9.0
        assert type(gradus((0, 4, 7), JUST)) is int
        assert type(omega((0, 4, 7), JUST)) is int

    def test_gradus_of_one_is_one(self):
        # a lone tone has ratio 1/1
        assert gradus((0,), JUST) == 1
        assert omega((0,), JUST) == 0


class TestPairwiseIntervals:
    """Similarity and brefeld read one interval per unordered tone pair."""

    def test_triad_intervals_use_semitone_distance(self):
        # {0,2,9}: 2-9 is distance 7 (3/2), not 5/3 divided by 9/8 (40/27)
        terms = [Fraction(r.numerator + r.denominator - 1, r.numerator * r.denominator)
                 for r in (Fraction(9, 8), Fraction(5, 3), Fraction(3, 2))]
        assert evaluate_measure((0, 2, 9), "similarity", JUST) == float(sum(terms) / 3 * 100)
        assert evaluate_measure((0, 2, 9), "brefeld", JUST) == (9 * 8 * 5 * 3 * 3 * 2) ** (1 / 6)

    def test_count_is_pairs(self):
        # size - 1 unisons and one fifth: C(size - 1, 2) unison pairs, size - 1 fifths
        for size in range(2, 8):
            tones = (0,) * (size - 1) + (7,)
            mean = (math.comb(size - 1, 2) + (size - 1) * Fraction(2, 3)) / math.comb(size, 2)
            assert evaluate_measure(tones, "similarity", JUST) == float(mean * 100), size

    def test_duplicates_yield_unison_interval(self):
        assert evaluate_measure((0, 0), "similarity", JUST) == 100.0
        assert evaluate_measure((0, 0), "brefeld", JUST) == 1.0

    def test_order_is_irrelevant(self):
        for name in ("similarity", "brefeld"):
            assert evaluate_measure((7, 0, 4), name, JUST) == evaluate_measure((0, 4, 7), name, JUST)

    def test_single_tone_is_undefined(self):
        for name in ("similarity", "brefeld"):
            with pytest.raises(UndefinedMeasureError, match="at least two tones"):
                evaluate_measure((0,), name, JUST)
            with pytest.raises(UndefinedMeasureError):
                MEASURES[name].compute((0,), JUST)


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

    @pytest.mark.parametrize("tuning", ["just", "rational", "pythagorean", "kirnberger3"])
    def test_wide_chord_roots_in_the_log_domain(self, tuning):
        # 24 consecutive tones: the exact product is too large for a float
        t = builtin_tuning(tuning)
        tones = tuple(range(24))
        product = interval_product(tones, t)
        with pytest.raises(OverflowError):
            float(product)
        value = evaluate_measure(tones, "brefeld", t)
        assert math.isfinite(value)
        assert math.log(value) == pytest.approx(
            math.log(product) / (2 * math.comb(24, 2)), rel=1e-12
        )

    def test_values_that_fit_a_float_keep_the_float_root(self):
        # 14 tones is the widest Pythagorean cluster whose product fits
        t = builtin_tuning("pythagorean")
        tones = tuple(range(14))
        product = interval_product(tones, t)
        assert brefeld(tones, t) == float(product) ** (1.0 / (2 * math.comb(14, 2)))

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

    def test_no_tones_is_undefined(self):
        with pytest.raises(UndefinedMeasureError, match="a measure needs at least one tone"):
            evaluate_measure((), "gradus", JUST)

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

    @pytest.mark.parametrize("tones", [(0, 4.0), (0, "4"), (0.0, 4)], ids=repr)
    @pytest.mark.parametrize("name", MEASURES)
    def test_non_integer_offsets_are_usage_errors(self, name, tones):
        with pytest.raises(UsageError, match="must be integers"):
            evaluate_measure(tones, name, JUST)

    @pytest.mark.parametrize("tones", [(0, True, 4), [False, 4]], ids=repr)
    @pytest.mark.parametrize("name", MEASURES)
    def test_bool_offsets_are_usage_errors(self, name, tones):
        # True is no tone 1: gradus would read (0, True, 4) as {0, 1, 4}
        with pytest.raises(UsageError, match="must be integers"):
            evaluate_measure(tones, name, JUST)

    @pytest.mark.parametrize("tones", [(4, 7), (7, 4, 4), (-3, 0, 4), (-12,)], ids=str)
    @pytest.mark.parametrize("name", ["rel_periodicity", "log_periodicity"])
    def test_periodicity_needs_a_lowest_tone_of_zero(self, name, tones):
        # the rule for raw tones and the tones given, not the Harmony API
        with pytest.raises(UsageError) as caught:
            evaluate_measure(tones, name, JUST)
        assert str(caught.value) == (
            f"periodicity measures need the lowest raw tone to be 0, got {tones}")
        with pytest.raises(UsageError, match="from_offsets"):
            Harmony(tones)

    @pytest.mark.parametrize("name, calls", [("similarity", 9), ("brefeld", 9),
                                             ("gradus", 7), ("omega", 7)])
    def test_looks_up_each_needed_offset_once(self, monkeypatch, name, calls):
        # the major scale has 21 tone pairs but 9 distinct distances (no 8, no 10)
        looked_up = []

        def counting(t, n):
            looked_up.append(n)
            return ratio_for_semitone(t, n)

        monkeypatch.setattr("harmonicity.tuning.ratio_for_semitone", counting)
        evaluate_measure((0, 2, 4, 5, 7, 9, 11), name, JUST)
        assert len(looked_up) == len(set(looked_up)) == calls

    @given(st.lists(st.integers(0, 127), min_size=1, max_size=8),
           st.sampled_from(sorted(RATIONAL_TUNINGS)))
    def test_equals_the_fraction_reference_by_repr(self, tones, tuning_id):
        # raw tone sets: any order, duplicates, offsets across the MIDI range;
        # the periodicity pair rejects a set without 0, so each set is also
        # scored with 0 added
        t = RATIONAL_TUNINGS[tuning_id]
        for raw in (tones, [0, *tones]):
            for name, reference in REFERENCE.items():
                try:
                    expected = repr(reference(raw, t))
                except (UndefinedMeasureError, UsageError) as exc:
                    with pytest.raises(type(exc), match=re.escape(str(exc))):
                        evaluate_measure(raw, name, t)
                else:
                    assert repr(evaluate_measure(raw, name, t)) == expected, name


# every column each measure's column pass returns: one pass for the four
# lcm measures, one for the two pairwise measures
PASS = {name: columns
        for columns in ({"rel_periodicity", "log_periodicity", "gradus", "omega"},
                        {"similarity", "brefeld"})
        for name in columns}


# SHA-256 of the JSON list, one entry per measure in MEASURES order, of the
# `evaluate_measure` reprs of every one-octave harmony the measure scores,
# taken from the former Fraction code; pins the values themselves, which
# the repr comparison only checks the kernel against
OCTAVE_DIGESTS = {
    "just": "809f9138f18825b2d0f1b1feb9421c5faaa92e9822949a158ceadcced1e2bdf5",
    "pythagorean": "a3f90c43c1949f2b14033865353b93e873a4e2d509811732e7390ff31fc7311b",
    "kirnberger3": "48993376e840a9f2aa746d3650aa4c2947e5f7308491cfa1cd0bac8c93cf33ca",
    "rational": "ce12e794091266f4352b46ea92453b946356ba00bc9aaed233077b4e2d97f902",
    "rational-0.001": "f2f2c9f5e3f514dab31e29404723766f3da43df298a57feb0bc18c935b5ac6b2",
}


class TestColumnValues:
    """The column kernel behind the ranked columns against
    ``evaluate_measure`` on every one-octave harmony, fed the whole octave
    and each category alone, and the values of both against digests taken
    from the former Fraction code."""

    @pytest.mark.parametrize("tuning_id", OCTAVE_DIGESTS)
    def test_equals_evaluate_measure_by_repr(self, tuning_id):
        tuning = (rational_tuning(0.001) if tuning_id == "rational-0.001"
                  else builtin_tuning(tuning_id))
        harmonies = list(enumerate_harmonies())

        def scored(name):
            # pairwise measures reject the single tone {0}, the first harmony
            return harmonies[1:] if name in ("similarity", "brefeld") else harmonies

        expected = {name: [repr(evaluate_measure(h.semitones, name, tuning)) for h in scored(name)]
                    for name in MEASURES}
        pinned = json.dumps([expected[name] for name in MEASURES]).encode()
        assert hashlib.sha256(pinned).hexdigest() == OCTAVE_DIGESTS[tuning_id]
        for name in MEASURES:
            columns = measures._column_values(scored(name), name, tuning)
            assert set(columns) == PASS[name], name
            # every column the pass returns, its partners' included
            for returned, column in columns.items():
                assert list(map(repr, column)) == expected[returned], (name, returned)
        # each category alone, without the shorter harmonies its lcms extend
        reprs = {name: dict(zip(scored(name), expected[name])) for name in MEASURES}
        for name in ("rel_periodicity", "similarity", "gradus"):
            for size in range(2 if name == "similarity" else 1, 13):
                category = [h for h in harmonies if len(h) == size]
                for returned, column in measures._column_values(category, name, tuning).items():
                    assert list(map(repr, column)) == [reprs[returned][h] for h in category], (
                        returned, size)


# bounds finer than any built-in table: their terms reach 3100 and 104878,
# so a ratio product's primes can be far larger than any built-in tuning's
FINE_TUNINGS = {"rational-1e-06": 1e-6, "rational-1e-09": 1e-9}


@pytest.mark.parametrize("tuning_id", FINE_TUNINGS)
def test_fine_bound_gradus_and_omega_equal_trial_division(tuning_id):
    # the referee factors each distinct ratio product by trial division, as
    # reference_factors does; evaluate_measure and the column kernel divide
    # it by the primes of their terms alone
    t = rational_tuning(FINE_TUNINGS[tuning_id])
    harmonies = list(enumerate_harmonies())
    factored = {}
    expected = {"gradus": [], "omega": []}
    for h in harmonies:
        ratios = [ratio_for_semitone(t, n) for n in h.semitones]
        product = (math.lcm(*[r.numerator for r in ratios])
                   * math.lcm(*[r.denominator for r in ratios]))
        if product not in factored:
            factored[product] = prime_factor_multiset(product)
        factors = factored[product]
        expected["gradus"].append(1 + sum(m * (p - 1) for p, m in factors.items()))
        expected["omega"].append(sum(factors.values()))
    columns = measures._column_values(harmonies, "gradus", t)
    for name, values in expected.items():
        assert [evaluate_measure(h.semitones, name, t) for h in harmonies] == values, name
        assert columns[name] == values, name


# SHA-256 of the JSON list of `evaluate_measure` reprs of one tone set, every
# measure under just, pythagorean, kirnberger3 and rational in that order, for
# tone sets that no ranked column holds (duplicates, offsets beyond the
# octave); taken before the column kernel shared passes between measures
EVALUATE_DIGESTS = {
    (0, 0): "5208d78900c5738a151753cb3ddfd1373addedc1adb761a2c6d70c1146e83488",
    (0, 0, 7): "775b3d8b0d3d38c32e7fbfde9b8ab772e038c8740bfe944f7159447e98865883",
    (7, 4, 4, 0, 11, 14, 7): "09af0345c3c5fe6073932128ab185a62b61aa7a2b784a0740ccb5c12a6717917",
    (0, 4, 7, 12): "237f9ef042031567a734dd6da9e50f5f293115a1e9945d35484cfb2d9e331edc",
    (0, 7, 16, 24, 28, 63): "13c4e4127717fc29d9a5051b907e3f0c701a0695d4c3adfec9dc30808888023e",
}


@pytest.mark.parametrize("tones", EVALUATE_DIGESTS, ids=str)
def test_evaluate_measure_reprs_are_unchanged(tones):
    values = [repr(evaluate_measure(tones, name, builtin_tuning(t)))
              for t in ("just", "pythagorean", "kirnberger3", "rational") for name in MEASURES]
    assert hashlib.sha256(json.dumps(values).encode()).hexdigest() == EVALUATE_DIGESTS[tones]
