"""Work budgets: counts of the calls each path makes, which unlike timings
do not drift with the machine.

Each bound is the count the path makes today.  A regression fails; a change
that does less work passes, and tightens the bound.
"""

import sys
from functools import cache

import pytest

from harmonicity import (
    DATASET_IDS,
    MEASURES,
    REPRODUCTION_TARGETS,
    analyze,
    builtin_tuning,
    correlate_measure,
    enumerate_harmonies,
    load_dataset,
    rank_table,
    reproduce,
)
from harmonicity import empirics, enumeration, measures, tuning

JUST = builtin_tuning("just")


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


def test_cold_scan_ratio_lookups(monkeypatch):
    # a cold scan: every measure under just and rational, the pairwise
    # measures per cardinality 2..12 (they reject {0}), the others over the
    # whole octave
    monkeypatch.setattr(enumeration, "_COLUMNS", {})
    monkeypatch.setattr(measures, "_octave_pairs", cache(measures._octave_pairs.__wrapped__))
    calls = counted(monkeypatch, tuning, "ratio_for_semitone")
    for t in (JUST, builtin_tuning("rational")):
        for measure in MEASURES:
            if measure in ("similarity", "brefeld"):
                for size in range(2, 13):
                    rank_table(t, measure, size)
            else:
                rank_table(t, measure)
    assert len(calls) <= 46, "ratio_for_semitone calls of a cold scan of 6 measures x 2 tunings"


def test_cold_gradus_columns_factor_each_product_once(monkeypatch):
    monkeypatch.setattr(enumeration, "_COLUMNS", {})
    calls = counted(monkeypatch, measures, "prime_factor_multiset")
    for size in range(1, 13):
        rank_table(JUST, "gradus", size)
    assert len(calls) <= 262, "prime_factor_multiset calls of the 12 cold gradus columns under just"


def test_cold_octave_column_is_one_kernel_call(monkeypatch):
    monkeypatch.setattr(enumeration, "_COLUMNS", {})
    calls = counted(monkeypatch, enumeration, "_column_values")
    rank_table(JUST, "log_periodicity")
    assert [len(harmonies) for harmonies, _, _ in calls] == [2048], (
        "one _column_values call over the 2048 harmonies of a cold whole-octave column")


# one pass, so one kernel call and one set of prefix states, ranks all four
# lcm measures, whichever is asked for first
LCM_MEASURES = ["rel_periodicity", "log_periodicity", "gradus", "omega"]


@pytest.mark.parametrize("first", LCM_MEASURES)
def test_cold_octave_lcm_columns_are_one_pass(monkeypatch, first):
    monkeypatch.setattr(enumeration, "_COLUMNS", {})
    kernel_calls = counted(monkeypatch, enumeration, "_column_values")
    passes = counted(monkeypatch, measures, "_prefix_states")
    for measure in [first, *(m for m in LCM_MEASURES if m != first)]:
        rank_table(JUST, measure)
    assert (len(kernel_calls), len(passes)) == (1, 1), (
        f"kernel calls and prefix-state passes of the four cold lcm octave columns, {first} first")


@pytest.mark.parametrize("measure", ["rel_periodicity", "gradus"])
@pytest.mark.parametrize("cardinality, budget", [(3, 66), (12, 12)])
def test_cold_category_builds_only_its_prefix_states(monkeypatch, cardinality, budget, measure):
    monkeypatch.setattr(enumeration, "_COLUMNS", {})
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
