"""Work budgets: counts of the calls each path makes, which unlike timings
do not drift with the machine.

Each bound is the count the path makes today.  A regression fails; a change
that does less work passes, and tightens the bound.
"""

import math
import sys
from functools import cache

import numpy as np
import pytest

from harmonicity import (
    DATASET_IDS,
    MEASURES,
    REPRODUCTION_TARGETS,
    Harmony,
    ToneStack,
    analyze,
    builtin_tuning,
    correlate_measure,
    enumerate_harmonies,
    load_dataset,
    rank_table,
    reproduce,
)
from harmonicity import cli, empirics, enumeration, measures, periodicity, signal_oracle, tuning

JUST = builtin_tuning("just")
OCTAVE_STACK = Harmony(tuple(range(0, 121, 12)))


def counted(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper and return its list of calls."""
    calls = []
    wrapped = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return wrapped(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def python_calls(function, *args):
    """Names of the Python-level functions one call ``function(*args)``
    enters, itself included; calls into C code are not counted."""
    names = []

    def profile(frame, event, arg):
        if event == "call":
            names.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        function(*args)
    finally:
        sys.setprofile(None)
    return names


def test_analyze_octave_ratio_lookups(monkeypatch):
    calls = counted(monkeypatch, tuning, "ratio_for_semitone")
    for h in enumerate_harmonies():
        analyze(h, JUST)
    assert len(calls) <= 92_160, "analyze of the 2048 one-octave harmonies under just"


@pytest.mark.parametrize("target, budget", zip(REPRODUCTION_TARGETS, (52, 52, 171, 28, 130, 91)))
def test_reproduce_measure_evaluations(monkeypatch, target, budget):
    calls = counted(monkeypatch, empirics, "evaluate_measure")
    reproduce(target)
    assert len(calls) <= budget, f"evaluate_measure calls of reproduce {target}"


@pytest.mark.parametrize("target, budget",
                         zip(REPRODUCTION_TARGETS, (124, 306, 1194, 1372, 370, 579)))
def test_reproduce_ratio_lookups(monkeypatch, target, budget):
    calls = counted(monkeypatch, tuning, "ratio_for_semitone")
    reproduce(target)
    assert len(calls) <= budget, f"ratio_for_semitone calls of reproduce {target}"


def test_correlate_ratio_lookups(monkeypatch):
    rational = builtin_tuning("rational")
    datasets = [load_dataset(dataset_id) for dataset_id in DATASET_IDS]
    calls = counted(monkeypatch, tuning, "ratio_for_semitone")
    for dataset in datasets:
        for measure in MEASURES:
            correlate_measure(dataset, measure, rational)
    assert len(calls) <= 2044, "ratio_for_semitone calls of correlate over 4 datasets x 6 measures"


def test_cold_scan_ratio_lookups(empty_store, monkeypatch):
    # a cold scan: every measure under just and rational, the pairwise
    # measures per cardinality 2..12 (they reject {0}), the others over the
    # whole octave
    empty_store(kernel=True)
    calls = counted(monkeypatch, tuning, "ratio_for_semitone")
    for t in (JUST, builtin_tuning("rational")):
        for measure in MEASURES:
            if measure in ("similarity", "brefeld"):
                for size in range(2, 13):
                    rank_table(t, measure, size)
            else:
                rank_table(t, measure)
    assert len(calls) <= 46, "ratio_for_semitone calls of a cold scan of 6 measures x 2 tunings"


def test_cold_pairwise_scan_folds_each_tuning_once(empty_store, monkeypatch):
    # the 44 pairwise categories of a cold scan, 2..12 tones of similarity
    # and brefeld under just and rational, read one table of interval folds
    # per tuning
    empty_store()
    builds = []
    build = measures._interval_folds.__wrapped__

    def counting(t):
        builds.append(t.name)
        return build(t)

    monkeypatch.setattr(measures, "_interval_folds", cache(counting))
    for t in (JUST, builtin_tuning("rational")):
        for measure in ("similarity", "brefeld"):
            for size in range(2, 13):
                rank_table(t, measure, size)
    assert len(builds) <= 2, "interval fold tables built by the 44 cold pairwise categories"


# every module that calls ratio_for_semitone by its own global name
RATIO_LOOKUP_MODULES = (tuning, periodicity, signal_oracle)


def test_oracle_ratio_lookups(monkeypatch):
    # the oracle reads one float table per tuning: no lookup once it is
    # warm, whatever the chord, and 12 to build it
    calls = [counted(monkeypatch, module, "ratio_for_semitone") for module in RATIO_LOOKUP_MODULES]
    ToneStack.from_harmony(Harmony(tuple(range(12))), JUST, 440.0)
    warm = sum(map(len, calls))
    ToneStack.from_harmony(Harmony((0, 4, 7, 16, 127)), JUST, 440.0)
    assert sum(map(len, calls)) == warm, "ratio_for_semitone calls of a warm ToneStack.from_harmony"
    monkeypatch.setattr(signal_oracle, "_float_ratios",
                        cache(signal_oracle._float_ratios.__wrapped__))
    ToneStack.from_harmony(Harmony((0, 4, 7)), JUST, 440.0)
    assert sum(map(len, calls)) - warm <= 12, "ratio_for_semitone calls of a cold ToneStack.from_harmony"


class CountingNumpy:
    """numpy as ``signal_oracle`` sees it, counting the elements passed to
    ``np.cos``."""

    def __init__(self):
        self.cosines = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def cos(self, x):
        self.cosines += np.size(x)
        return np.cos(x)


def detect_period_cosines(monkeypatch, stack, horizon):
    """Elements that one ``detect_period(stack, horizon)`` takes the cosine of."""
    counter = CountingNumpy()
    with monkeypatch.context() as patch:
        patch.setattr(signal_oracle, "np", counter)
        signal_oracle.detect_period(stack, horizon)
    return counter.cosines


def top_tone_step_cosines(stack, horizon):
    """The cosines of a scan that filters by the top tone alone: one per
    lag, then one per tone at each lag it keeps."""
    taus = stack.lowest_period * np.arange(1, math.floor(horizon) + 1)
    kept = np.count_nonzero(np.cos(taus * stack.angular_frequencies[-1]) >= 0.5)
    return taus.size + kept * len(stack.frequencies)


def test_default_horizon_oracle_cosines(monkeypatch, capsys, perfbench):
    # every default-horizon call the benchmark makes, through the API and
    # through the CLI, filters by the top tone alone
    inputs = perfbench.inputs
    default = signal_oracle._DEFAULT_HORIZON
    stacks = [(ToneStack.from_harmony(Harmony(tones), builtin_tuning(name), inputs.DEFAULT_F1),
               horizon) for _, tones, name, horizon in inputs.ORACLE_FIXED if horizon == default]
    calls = []

    def recording(stack, search_horizon):
        calls.append((stack, search_horizon))
        return signal_oracle.detect_period(stack, search_horizon)

    monkeypatch.setattr(cli, "detect_period", recording)
    for argv in inputs.cli_pool("oracle", "text"):
        assert cli.main(argv) == 0, argv
    capsys.readouterr()
    assert len(calls) == len(inputs.cli_pool("oracle", "text"))
    # and every one-octave harmony of two or more tones under the rational
    # tunings (a lone tone takes no step: its one tone is the lowest)
    stacks += calls + [
        (ToneStack.from_harmony(harmony, builtin_tuning(name), 440.0), default)
        for name in inputs.RATIONAL_TUNINGS for harmony in enumerate_harmonies()
        if len(harmony.semitones) > 1
    ]
    for stack, horizon in stacks:
        assert horizon == default
        assert detect_period_cosines(monkeypatch, stack, horizon) == (
            top_tone_step_cosines(stack, horizon)), stack


def test_kirnberger3_chromatic_oracle_cosines(monkeypatch):
    # the benchmark's large lattice: the top tone keeps 544 of 1450 lags
    stack = ToneStack.from_harmony(Harmony(tuple(range(12))), builtin_tuning("kirnberger3"), 440.0)
    assert top_tone_step_cosines(stack, 1450.0) == 1450 + 544 * 12
    assert detect_period_cosines(monkeypatch, stack, 1450.0) < (1450 + 544 * 12) / 2, (
        "cosines of detect_period on the Kirnberger III chromatic cluster at horizon 1450")


@pytest.mark.parametrize("harmony, horizon", [
    *((OCTAVE_STACK, horizon) for horizon in (1.0, 130.0, 1450.0, 181818.0)),
    (Harmony((0, 7)), 1000.0), (Harmony((0, 7)), 100000.0),
    (Harmony((0,)), 130.0), (Harmony((0,)), 100000.0),
])
def test_oracle_cosines_never_exceed_the_top_tone_step(monkeypatch, harmony, horizon):
    # a top tone whole octaves above the lowest keeps every lag, so the
    # worst case stays the top-tone step and the full lattice; no step is
    # taken on the lowest tone, whose cosine is 1 at every lag
    stack = ToneStack.from_harmony(harmony, JUST, 440.0)
    assert detect_period_cosines(monkeypatch, stack, horizon) <= (
        top_tone_step_cosines(stack, horizon)), "cosines of detect_period"


def test_cold_gradus_columns_factor_each_product_once(empty_store, monkeypatch):
    empty_store()
    products = counted(monkeypatch, measures, "_gradus_omega")
    terms = counted(monkeypatch, measures, "prime_factor_multiset")
    for size in range(1, 13):
        rank_table(JUST, "gradus", size)
    assert len(products) <= 262, "ratio products divided by the 12 cold gradus columns under just"
    # no product is factored: each pass factors the 12 distinct terms of the pair table
    assert len(terms) <= 12 * 12, "prime_factor_multiset calls of the 12 cold gradus columns"
    assert max(n for (n,) in terms) <= 16, "a term of just's pair table, not a product"


def test_enumerated_harmonies_run_no_validation(monkeypatch):
    # the tone-set index builds every tuple valid, so the 12 categories and
    # the octave, built on emptied caches, run Harmony's checks 0 times
    tone_sets = cache(measures._tone_sets.__wrapped__)
    for module in (measures, enumeration):
        monkeypatch.setattr(module, "_tone_sets", tone_sets)
    for name in ("_category", "_octave"):
        monkeypatch.setattr(enumeration, name, cache(getattr(enumeration, name).__wrapped__))
    validations = counted(monkeypatch, Harmony, "__post_init__")
    harmonies = list(enumerate_harmonies())
    assert len(harmonies) == 2048 and validations == [], "Harmony checks of the enumerated harmonies"
    assert harmonies == [Harmony(h.semitones) for h in harmonies]


def test_cold_octave_column_is_one_kernel_call(empty_store, monkeypatch):
    empty_store()
    calls = counted(monkeypatch, enumeration, "_column_values")
    rank_table(JUST, "log_periodicity")
    assert [len(harmonies) for harmonies, _, _ in calls] == [2048], (
        "one _column_values call over the 2048 harmonies of a cold whole-octave column")


# one pass, so one kernel call and one set of prefix states, ranks all four
# lcm measures, whichever is asked for first
LCM_MEASURES = ["rel_periodicity", "log_periodicity", "gradus", "omega"]


@pytest.mark.parametrize("first", LCM_MEASURES)
def test_cold_octave_lcm_columns_are_one_pass(empty_store, monkeypatch, first):
    empty_store()
    kernel_calls = counted(monkeypatch, enumeration, "_column_values")
    passes = counted(monkeypatch, measures, "_prefix_states")
    for measure in [first, *(m for m in LCM_MEASURES if m != first)]:
        rank_table(JUST, measure)
    assert (len(kernel_calls), len(passes)) == (1, 1), (
        f"kernel calls and prefix-state passes of the four cold lcm octave columns, {first} first")


def counted_sorts(monkeypatch):
    """Count the ``sorted`` calls of ``enumeration``, after building its
    lexicographic layout, which each process sorts once."""
    enumeration._octave()
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return sorted(*args, **kwargs)

    monkeypatch.setattr(enumeration, "sorted", counting, raising=False)
    return calls


def test_cold_lcm_octaves_sort_twice_per_measure(empty_store, monkeypatch):
    # the first octave's pass ranks all four measures, each by value and then
    # by tone count, and stores its siblings' octaves
    empty_store()
    sorts = counted_sorts(monkeypatch)
    kernel_calls = counted(monkeypatch, enumeration, "_column_values")
    rank_table(JUST, "gradus")
    assert (len(sorts), len(kernel_calls)) == (8, 1), (
        "sorts and kernel calls of a cold gradus octave under just")
    sorts.clear()
    kernel_calls.clear()
    for measure in ("rel_periodicity", "log_periodicity", "omega"):
        rank_table(JUST, measure)
    assert (len(sorts), len(kernel_calls)) == (0, 0), (
        "sorts and kernel calls of the three sibling octaves")


def test_cold_category_sorts_once_per_measure(empty_store, monkeypatch):
    # one category's value order is already grouped by tone count
    empty_store()
    sorts = counted_sorts(monkeypatch)
    kernel_calls = counted(monkeypatch, enumeration, "_column_values")
    rank_table(JUST, "gradus", 7)
    assert (len(sorts), len(kernel_calls)) == (4, 1), (
        "sorts and kernel calls of a cold gradus category under just")


@pytest.mark.parametrize("stored_first", [(), (3, 7), tuple(range(1, 13))],
                         ids=["none", "3-and-7", "all"])
def test_octave_is_one_pass_whatever_was_stored(empty_store, monkeypatch, stored_first):
    # a cold octave ranks all 12 categories in one kernel call and two sorts
    # per measure of the pass, whichever of its categories were stored
    empty_store()
    for size in stored_first:
        rank_table(JUST, "gradus", size)
    sorts = counted_sorts(monkeypatch)
    kernel_calls = counted(monkeypatch, enumeration, "_column_values")
    rank_table(JUST, "gradus")
    assert [len(harmonies) for harmonies, _, _ in kernel_calls] == [2048], (
        "one _column_values call over the octave's harmonies")
    assert len(sorts) == 8, f"sorts of a gradus octave with categories {stored_first} stored"


@pytest.mark.parametrize("measure", ["rel_periodicity", "gradus"])
@pytest.mark.parametrize("cardinality, budget", [(3, 65), (12, 11)])
def test_cold_category_builds_only_its_prefix_states(empty_store, monkeypatch, cardinality, budget,
                                                     measure):
    empty_store()
    built = []
    prefix_states = measures._prefix_states

    def counting(tones, empty, extend):
        def extending(*args):
            built.append(args)
            return extend(*args)

        return prefix_states(tones, empty, extending)

    monkeypatch.setattr(measures, "_prefix_states", counting)
    rank_table(JUST, measure, cardinality)
    assert 0 < len(built) <= budget, (
        f"prefix states built for the cold {measure} column of {cardinality} tones under just")


# a warm query validates its arguments and reads the stored table: a whole
# column is rank_table, lookup_measure and the key's TuningTable.__hash__;
# a category adds the cardinality check, and a top-N query builds its table
# without a Python call
@pytest.mark.parametrize("cardinality, top, budget",
                         [(None, None, 3), (7, None, 4), (None, 10, 3), (7, 10, 4)])
def test_warm_query_python_calls(cardinality, top, budget):
    rank_table(JUST, "gradus", cardinality, top)
    names = python_calls(rank_table, JUST, "gradus", cardinality, top)
    assert len(names) <= budget, (
        f"Python calls of a warm rank_table(cardinality={cardinality}, top={top}): {names}")
