"""End-to-end acceptance gate over the published results.

Each test covers one numbered criterion and prints a single
``criterion N: PASS`` / ``criterion N: FAIL`` line so a full run reads as
a checklist.  All tolerances are the published ones.  Two
sub-assertions are known not to reproduce from this package's own
arithmetic; they are asserted *last* within their criterion, with
self-explanatory failure messages, so everything that does reproduce is
still exercised first:

* criterion 4 — the Pythagorean dyad rank correlation computes to
  r = 0.7345, outside the printed 0.817 +/- 0.005.  Ruled out: the
  mean, raw or log reading (all 0.7345); any of the 2048 spellings of
  the 11 inner semitones along the chain of fifths (nearest 0.027 away);
  snapping the ratios to the simplest fraction within 1% (0.762); the
  gradus, omega and brefeld measures (0.736).  Ranking the major third
  5th instead of 9th gives 0.8171, so one cell of the printed
  Pythagorean column likely differs;
* criterion 9 — the pentatonic scale ranks 19th of 330 five-tone
  harmonies under rational tuning (top 5.8%), outside the stated top 5%
  (cut-off rank 16).  Ruled out: tie handling (it ties exactly with
  (0, 4, 5, 9, 11); dense ranking gives 18) and rounding of the cut-off
  (16 with floor, 17 with ceiling).  Its best mode (0, 2, 5, 7, 9)
  ranks 10th, so only a reading that ranks scales up to mode would pass,
  and nothing here states that reading.
"""

from __future__ import annotations

import math
import random
from contextlib import contextmanager
from fractions import Fraction as F

from harmonicity import (
    Harmony,
    ToneStack,
    analyze,
    approximate,
    builtin_tuning,
    correlate_measure,
    detect_period,
    deviation,
    enumerate_harmonies,
    evaluate_measure,
    load_dataset,
    pearson,
    rank_table,
    rank_with_ties,
    ratios_for,
    rational_tuning,
    raw_periodicity,
    significance,
    top_share_count,
)

JUST = builtin_tuning("just")
RATIONAL = builtin_tuning("rational")

# Printed rational-tuning column (1% precision): exact fraction and
# deviation percentage for each semitone 0..12.
RATIONAL_COLUMN = [
    (F(1, 1), 0.00), (F(16, 15), 0.68), (F(9, 8), 0.23),
    (F(6, 5), 0.91), (F(5, 4), -0.79), (F(4, 3), -0.11),
    (F(17, 12), 0.17), (F(3, 2), 0.11), (F(8, 5), 0.79),
    (F(5, 3), -0.90), (F(16, 9), -0.23), (F(15, 8), -0.68),
    (F(2, 1), 0.00),
]


@contextmanager
def criterion(number: int):
    """Print one checklist line per criterion, fail-through on assert."""
    try:
        yield
    except AssertionError:
        print(f"criterion {number}: FAIL")
        raise
    print(f"criterion {number}: PASS")


def test_criterion_01_worked_example_exactness():
    with criterion(1):
        minor_sixth_chord = analyze(Harmony((0, 3, 9)), JUST)
        assert minor_sixth_chord.inversion_h == (15, 25, 6)
        assert abs(minor_sixth_chord.mean_h - 15.33) <= 0.01

        spread_major = analyze(Harmony((0, 16, 19)), JUST)
        assert spread_major.mean_h == 2
        assert spread_major.mean_log_h == 1.0

        chromatic = analyze(Harmony(tuple(range(12))), JUST)
        assert chromatic.raw_h == 120
        assert abs(chromatic.mean_h - 168.2) <= 0.1
        assert abs(chromatic.mean_log_h - 7.4) <= 0.05

        # The mean of the base-2 logs of the pinned inversion values is
        # 3.7119.  The printed 3.70 +/- 0.01 cannot hold beside
        # inversion_h == (15, 25, 6); it is what rounding each log to one
        # decimal before averaging gives: (3.9 + 4.6 + 2.6) / 3.
        expected = math.fsum(math.log2(v) for v in (15, 25, 6)) / 3
        assert abs(minor_sixth_chord.mean_log_h - expected) <= 1e-12


def test_criterion_02_rational_tuning_column():
    with criterion(2):
        table = rational_tuning(0.01)
        assert table.ratios == tuple(ratio for ratio, _ in RATIONAL_COLUMN)
        for semitone, (_, printed_deviation) in enumerate(RATIONAL_COLUMN):
            assert abs(deviation(table, semitone) - printed_deviation) <= 0.005


def test_criterion_03_dyad_column_and_correlations():
    with criterion(3):
        dyads = load_dataset("dyads")
        printed = dyads.static_columns["rel_periodicity"]
        for item, value in zip(dyads.items, printed):
            assert evaluate_measure(item.semitones, "rel_periodicity", JUST) == value

        periodicity = correlate_measure(dyads, "rel_periodicity", JUST)
        assert abs(periodicity.r - 0.982) <= 0.005
        similarity = correlate_measure(dyads, "similarity", JUST)
        assert abs(similarity.r - 0.977) <= 0.005


def test_criterion_04_tuning_sensitivity_controls():
    with criterion(4):
        dyads = load_dataset("dyads")
        kirnberger = correlate_measure(
            dyads, "rel_periodicity", builtin_tuning("kirnberger3"))
        assert abs(kirnberger.r - 0.796) <= 0.005
        rational = correlate_measure(dyads, "rel_periodicity", RATIONAL)
        assert abs(rational.r - 0.936) <= 0.005

        # Known not to reproduce: the Pythagorean column lands far lower.
        pythagorean = correlate_measure(
            dyads, "rel_periodicity", builtin_tuning("pythagorean"))
        assert abs(pythagorean.r - 0.817) <= 0.005, (
            f"dyad rank correlation under pythagorean tuning computes to "
            f"r = {pythagorean.r:.4f}; the printed 0.817 +/- 0.005 does "
            f"not contain it"
        )


def test_criterion_05_triad_column_and_correlations():
    with criterion(5):
        triads = load_dataset("triads")
        printed = triads.static_columns["rel_periodicity"]
        for item, value in zip(triads.items, printed):
            computed = evaluate_measure(item.semitones, "rel_periodicity", JUST)
            assert abs(computed - value) <= 0.05

        for measure, table, expected in (
            ("rel_periodicity", JUST, 0.846),
            ("log_periodicity", JUST, 0.831),
            ("log_periodicity", RATIONAL, 0.813),
            ("rel_periodicity", RATIONAL, 0.808),
        ):
            report = correlate_measure(triads, measure, table)
            assert abs(report.r - expected) <= 0.005


def test_criterion_06_root_position_triads():
    with criterion(6):
        complete = load_dataset("complete_triads")
        ranks = correlate_measure(complete, "log_periodicity", JUST, mode="ranks")
        assert abs(ranks.r - 0.867) <= 0.005
        values = correlate_measure(complete, "log_periodicity", JUST, mode="values")
        assert abs(values.r - 0.810) <= 0.005
        relative = correlate_measure(complete, "rel_periodicity", JUST, mode="values")
        assert abs(relative.r - 0.548) <= 0.005


def test_criterion_07_church_modes():
    with criterion(7):
        modes = load_dataset("church_modes")
        for column, table in (
            ("log_periodicity_just", JUST),
            ("log_periodicity_rational", RATIONAL),
        ):
            printed = modes.static_columns[column]
            for item, value in zip(modes.items, printed):
                computed = evaluate_measure(item.semitones, "log_periodicity", table)
                assert abs(computed - value) <= 0.001
        assert modes.static_columns["log_periodicity_just"][0] == 5.701

        just_report = correlate_measure(modes, "log_periodicity", JUST)
        assert abs(just_report.r - 0.786) <= 0.005
        assert abs(just_report.p - 0.0181) <= 0.0005
        rational_report = correlate_measure(modes, "log_periodicity", RATIONAL)
        assert abs(rational_report.r - 0.964) <= 0.005
        assert abs(rational_report.p - 0.0002) <= 0.0005


def test_criterion_08_significance_engine():
    with criterion(8):
        assert abs(significance(0.607, 13) - 0.0139) <= 0.0005
        assert abs(significance(0.786, 7) - 0.0181) <= 0.0005


def test_criterion_09_enumeration_claims():
    with criterion(9):
        ionian = Harmony((0, 2, 4, 5, 7, 9, 11))
        for table in (JUST, RATIONAL):
            sevens = rank_table(table, "log_periodicity", 7)
            assert len(sevens.rows) == 462
            assert sevens.rank_of(ionian) == 1

        fives_just = rank_table(JUST, "log_periodicity", 5)
        assert abs(fives_just.rows[0].value - 3.751) <= 0.001

        pentatonic = Harmony((0, 2, 4, 7, 9))
        fives = rank_table(RATIONAL, "log_periodicity", 5)
        pentatonic_row = next(r for r in fives.rows if r.harmony == pentatonic)
        assert abs(pentatonic_row.value - 5.302) <= 0.001

        blues = Harmony((0, 2, 3, 4, 5, 7, 9, 10))
        eights = rank_table(RATIONAL, "log_periodicity", 8)
        blues_row = next(r for r in eights.rows if r.harmony == blues)
        assert abs(blues_row.value - 7.600) <= 0.001
        assert eights.rank_of(blues) <= top_share_count(len(eights.rows), 0.05)

        # Known not to reproduce: the pentatonic sits just below the cut.
        cut = top_share_count(len(fives.rows), 0.05)
        assert fives.rank_of(pentatonic) <= cut, (
            f"pentatonic (0, 2, 4, 7, 9) ranks {fives.rank_of(pentatonic)} "
            f"of {len(fives.rows)} five-tone harmonies under rational "
            f"tuning; the top-5% cut-off is rank {cut}"
        )


def test_criterion_10_property_suites():
    with criterion(10):
        # Minimal-denominator agreement: exhaustive scan for the smallest
        # denominator with an integer numerator inside [(1-p)x, (1+p)x],
        # independent of the mediant search under test.
        rng = random.Random(20260814)
        for _ in range(1000):
            x = rng.uniform(0.05, 20.0)
            p = rng.uniform(0.001, 0.05)
            lo, hi = (1 - p) * x, (1 + p) * x
            den = 1
            while math.ceil(lo * den) > math.floor(hi * den):
                den += 1
            result = approximate(x, p).result
            assert result.denominator == den
            assert math.ceil(lo * den) <= result.numerator <= math.floor(hi * den)

        # Raw periodicity is the *smallest* whole number of lowest-tone
        # periods that makes every ratio integral: linear scan from 1.
        for harmony in enumerate_harmonies():
            ratios = ratios_for(harmony, JUST)
            m = 1
            while any(m % ratio.denominator for ratio in ratios):
                m += 1
            assert raw_periodicity(harmony, JUST) == m

        # Signal-level agreement: the detected repetition period of the
        # rendered waveform equals raw_h lowest-tone periods.
        pool = list(enumerate_harmonies())
        for harmony in rng.sample(pool, 200):
            expected = raw_periodicity(harmony, JUST) / 220.0
            stack = ToneStack.from_harmony(harmony, JUST, 220.0)
            period = detect_period(stack, search_horizon=raw_periodicity(harmony, JUST) + 2.0)
            assert period is not None
            assert abs(period - expected) / expected <= 1e-6

        # On tie-free data, correlating the ranks (Spearman) is the same
        # computation as correlating the values (Pearson).
        for _ in range(200):
            n = rng.randint(3, 40)
            x = [float(v) for v in rng.sample(range(1, n + 1), n)]
            y = [float(v) for v in rng.sample(range(1, n + 1), n)]
            assert rank_with_ties(x) == x
            assert abs(pearson(rank_with_ties(x), rank_with_ties(y)) - pearson(x, y)) <= 1e-12


def test_criterion_11_mediant_demonstration():
    with criterion(11):
        target = math.log2(3 / 2)
        trace = approximate(target, 0.01)
        assert trace.mediants == (F(1, 2), F(2, 3), F(3, 5), F(4, 7), F(7, 12))
        assert trace.result == F(7, 12)
        deviation_percent = abs(7 / 12 - target) / target * 100.0
        assert abs(deviation_percent - 0.27) <= 0.01
