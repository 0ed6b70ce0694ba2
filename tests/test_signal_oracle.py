"""Signal-level period detection: closed-form autocorrelation and peaks.

The phase-independence check integrates a phase-shifted sine stack
numerically over a window that is an exact whole number of compound
periods (all test frequencies are multiples of 55 Hz, window 1 s), where
the uniform-grid mean is exact for the band-limited integrand; everything
the closed form predicts must match that integral.
"""

import math
import random
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonicity import (
    BUILTIN_TUNING_NAMES,
    Harmony,
    ToneStack,
    TuningError,
    UsageError,
    analyze,
    autocorrelation,
    builtin_tuning,
    detect_period,
    enumerate_harmonies,
    inversion_offsets,
    prime_factor_multiset,
    ratio_for_semitone,
    ratios_for,
    raw_periodicity,
)

JUST = builtin_tuning("just")
RATIONAL_TUNINGS = [name for name in BUILTIN_TUNING_NAMES if name != "equal"]


def full_height(stack, tau):
    """Whether rho(tau) is within 1e-9 * k of its zero-lag value k/2, the
    threshold detect_period uses."""
    k = len(stack.frequencies)
    return autocorrelation(stack, tau) >= 0.5 * k - 1e-9 * k


def certifies(stack, m):
    """Whether the signal alone shows that the stack's period is exactly
    ``m`` lowest-tone periods: full height at m, and below it at m / p for
    every prime p of m.  Full-height multiples of the lowest period are the
    multiples of the true period, so no divisor of m can be it."""
    period = stack.lowest_period
    return full_height(stack, m * period) and not any(
        full_height(stack, m // p * period) for p in prime_factor_multiset(m)
    )


def fraction_frequencies(h, t, f1):
    """The stack's frequencies from one exact fraction per tone: the
    referee of the oracle's per-tuning float table."""
    return tuple(f1 * float(r) for r in ratios_for(h, t))


def stack_or_error(make):
    """``make()``'s frequencies, or its :class:`UsageError` message."""
    try:
        return make().frequencies
    except UsageError as exc:
        return f"UsageError: {exc}"


def full_lattice_period(stack, search_horizon):
    """detect_period's scan without its top-tone prefilter: every tone's
    cosine at every lag of the lattice."""
    k = len(stack.frequencies)
    taus = stack.lowest_period * np.arange(1, math.floor(search_horizon) + 1)
    rho = 0.5 * np.cos(np.outer(taus, stack.angular_frequencies)).sum(axis=1)
    hits = np.flatnonzero(rho >= 0.5 * k - 1e-9 * k)
    return float(taus[hits[0]]) if hits.size else None


subsets = st.sets(st.integers(1, 11), min_size=0, max_size=11).map(
    lambda rest: (0,) + tuple(sorted(rest))
)


def numeric_autocorrelation(frequencies, phases, tau, window=1.0, samples=8192):
    """Windowed autocorrelation of sum(sin(2*pi*f*t + phase)) by uniform-grid
    mean; exact (to rounding) when the window spans whole compound periods."""
    t = np.arange(samples) * (window / samples)

    def signal(x):
        return sum(
            np.sin(2.0 * np.pi * f * x + p) for f, p in zip(frequencies, phases)
        )

    return float(np.mean(signal(t) * signal(t + tau)))


class TestToneStack:
    def test_validation(self):
        with pytest.raises(UsageError):
            ToneStack(())
        with pytest.raises(UsageError):
            ToneStack((0.0, 440.0))
        with pytest.raises(UsageError):
            ToneStack((-1.0,))
        with pytest.raises(UsageError):
            ToneStack((440.0, 440.0))
        with pytest.raises(UsageError):
            ToneStack((550.0, 440.0))

    @pytest.mark.parametrize("frequencies, lowest", [
        ((1e308, 1.25e308), "1e+308"),  # angular frequencies overflow to inf
        ((1e-310, 1.5e-310), "1e-310"),  # subnormal angular frequencies
    ])
    def test_rejects_frequencies_outside_float_range(self, frequencies, lowest):
        # the same message the oracle command prints, and no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UsageError, match=(
                    f"^a lowest tone of {re.escape(lowest)} Hz puts the oracle's periods "
                    "or angular frequencies outside the finite normal float range$")):
                detect_period(ToneStack(frequencies))

    def test_from_harmony(self):
        stack = ToneStack.from_harmony(Harmony((0, 4, 7)), JUST, 440.0)
        assert stack.frequencies == (440.0, 550.0, 660.0)

    def test_from_harmony_rejects_bad_reference(self):
        with pytest.raises(UsageError):
            ToneStack.from_harmony(Harmony((0, 7)), JUST, 0.0)

    @pytest.mark.parametrize("tuning", RATIONAL_TUNINGS)
    def test_from_harmony_matches_fraction_ratios(self, tuning):
        # the float table gives every one-octave harmony the frequencies of
        # its exact fractions, bit for bit
        t = builtin_tuning(tuning)
        for harmony in enumerate_harmonies():
            stack = ToneStack.from_harmony(harmony, t, 440.0)
            assert stack.frequencies == fraction_frequencies(harmony, t, 440.0), harmony

    @pytest.mark.parametrize("f1", [1e-310, 3.5e-309, 1e-300, 1.0, 27.5, 440.0,
                                    1e300, 1e305, 2.5e306, math.nan])
    def test_wide_chords_match_fraction_ratios(self, f1):
        # chords up to the CLI's span of 127 semitones, at lowest tones that
        # keep the stack in the float range and lowest tones that do not:
        # the same frequencies, or the same UsageError
        rng = random.Random(20261020)
        for tuning in RATIONAL_TUNINGS:
            t = builtin_tuning(tuning)
            for _ in range(50):
                span = rng.randint(1, 127)
                inner = rng.sample(range(1, span), min(span - 1, rng.randint(0, 10)))
                harmony = Harmony((0, *sorted(inner), span))
                assert stack_or_error(lambda: ToneStack.from_harmony(harmony, t, f1)) == (
                    stack_or_error(lambda: ToneStack(fraction_frequencies(harmony, t, f1)))
                ), (tuning, harmony)

    def test_from_harmony_irrational_tuning_error(self):
        equal = builtin_tuning("equal")
        with pytest.raises(TuningError) as expected:
            ratios_for(Harmony((0, 4, 7)), equal)
        for _ in range(2):  # an error is not cached
            with pytest.raises(TuningError) as raised:
                ToneStack.from_harmony(Harmony((0, 4, 7)), equal, 440.0)
            assert str(raised.value) == str(expected.value)

    def test_derived_quantities(self):
        stack = ToneStack((220.0, 330.0))
        assert stack.lowest_period == 1.0 / 220.0
        assert stack.angular_frequencies == (
            2.0 * math.pi * 220.0,
            2.0 * math.pi * 330.0,
        )

    def test_angular_frequencies_computed_once(self):
        stack = ToneStack((220.0, 330.0))
        assert stack.angular_frequencies is stack.angular_frequencies
        # the cache leaves the dataclass's identity alone
        assert stack == ToneStack((220.0, 330.0))
        assert hash(stack) == hash(ToneStack((220.0, 330.0)))
        assert repr(stack) == "ToneStack(frequencies=(220.0, 330.0))"


class TestAutocorrelation:
    def test_zero_lag_is_half_tone_count(self):
        assert autocorrelation(ToneStack((440.0,)), 0.0) == 0.5
        assert autocorrelation(ToneStack((440.0, 550.0, 660.0)), 0.0) == 1.5

    def test_single_tone_full_period(self):
        assert autocorrelation(ToneStack((440.0,)), 1.0 / 440.0) == (
            pytest.approx(0.5, abs=1e-12)
        )

    def test_triad_recurrence_after_four_periods(self):
        stack = ToneStack((440.0, 550.0, 660.0))
        assert autocorrelation(stack, 4.0 / 440.0) == pytest.approx(
            1.5, abs=1e-12
        )

    def test_negative_lag_rejected(self):
        with pytest.raises(UsageError):
            autocorrelation(ToneStack((440.0,)), -1e-6)

    @pytest.mark.parametrize("tau", [math.inf, 1e308, math.nan])
    @pytest.mark.filterwarnings("error")
    def test_lag_past_float_range_rejected(self, tau):
        # an infinite top phase has no cosine, a nan one no verdict
        with pytest.raises(UsageError, match=(
                "^a lowest tone of 440 Hz puts the oracle's periods or angular "
                "frequencies outside the finite normal float range$")):
            autocorrelation(ToneStack((440.0, 550.0)), tau)

    @pytest.mark.filterwarnings("error")
    def test_subnormal_lag_accepted(self):
        assert autocorrelation(ToneStack((440.0, 550.0)), 5e-324) == 1.0

    @given(
        st.lists(st.floats(50.0, 2000.0), min_size=1, max_size=6, unique=True),
        st.floats(0.0, 1.0),
    )
    def test_never_exceeds_zero_lag(self, frequencies, tau):
        stack = ToneStack(tuple(sorted(frequencies)))
        assert autocorrelation(stack, tau) <= autocorrelation(stack, 0.0) + 1e-9

    def test_phases_drop_out(self):
        # numeric integral of a phase-shifted signal vs the phase-free
        # closed form, at 10 random lags
        frequencies = (220.0, 275.0, 330.0)
        phase_rng = random.Random(11)
        phases = [phase_rng.uniform(0.0, 2.0 * math.pi) for _ in frequencies]
        stack = ToneStack(frequencies)
        lag_rng = random.Random(7)
        for _ in range(10):
            tau = lag_rng.uniform(0.0, 0.05)
            numeric = numeric_autocorrelation(frequencies, phases, tau)
            assert numeric == pytest.approx(
                autocorrelation(stack, tau), abs=1e-4
            )


class TestDetectPeriod:
    def test_just_major_triad(self):
        stack = ToneStack((440.0, 550.0, 660.0))
        period = detect_period(stack)
        assert period == pytest.approx(4.0 / 440.0, rel=1e-7)

    def test_single_tone(self):
        period = detect_period(ToneStack((440.0,)))
        assert period == pytest.approx(1.0 / 440.0, rel=1e-7)

    def test_equal_tempered_fifth_has_no_recurrence(self):
        stack = ToneStack((440.0, 440.0 * 2.0 ** (7.0 / 12.0)))
        assert detect_period(stack, search_horizon=10.0) is None

    def test_horizon_shorter_than_period(self):
        # {0,1} just has relative periodicity 15; a 10-period horizon misses it
        stack = ToneStack.from_harmony(Harmony((0, 1)), JUST, 220.0)
        assert detect_period(stack, search_horizon=10.0) is None
        assert detect_period(stack, search_horizon=20.0) == pytest.approx(
            15.0 / 220.0, rel=1e-7
        )

    def test_horizon_validation(self):
        with pytest.raises(UsageError):
            detect_period(ToneStack((440.0,)), search_horizon=0.5)

    def test_last_lag_past_float_range_rejected(self):
        # a valid stack whose 1000th lowest-tone period overflows to inf
        stack = ToneStack((2e-306,))
        assert detect_period(stack, search_horizon=1.0) == 5e305
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UsageError, match="a lowest tone of 2e-306 Hz .* float range"):
                detect_period(stack, search_horizon=1000.0)

    @pytest.mark.filterwarnings("error")
    def test_top_phase_past_float_range_rejected(self):
        # the lag fits the float range, the top tone's phase at it does not
        stack = ToneStack((1e-300, 1e300))
        with pytest.raises(UsageError, match="a lowest tone of 1e-300 Hz .* float range"):
            detect_period(stack, 1.0)

    def test_prefilter_matches_full_lattice(self):
        # every one-octave harmony with h <= 400 under the rational tunings,
        # at horizons h - 1, h and h + 2: the top-tone prefilter returns the
        # full lattice's float, None, or (horizon 0) a UsageError
        outcomes = {"period": 0, "none": 0, "error": 0}
        for tuning in RATIONAL_TUNINGS:
            t = builtin_tuning(tuning)
            for harmony in enumerate_harmonies():
                h = raw_periodicity(harmony, t)
                if h > 400:
                    continue
                stack = ToneStack.from_harmony(harmony, t, 440.0)
                for horizon in (h - 1, h, h + 2):
                    if horizon < 1:
                        with pytest.raises(UsageError):
                            detect_period(stack, horizon)
                        outcomes["error"] += 1
                        continue
                    period = detect_period(stack, horizon)
                    assert period == full_lattice_period(stack, horizon), (tuning, harmony)
                    outcomes["none" if period is None else "period"] += 1
        assert outcomes == {"period": 11328, "none": 5660, "error": 4}

    def test_scalar_autocorrelation_confirms_detected_lag(self):
        # the scalar closed form referees the vectorized lattice scan: full
        # height at the lag found, below it at every earlier multiple
        rng = random.Random(20261018)
        for _ in range(30):
            tones = (0,) + tuple(sorted(rng.sample(range(1, 12), rng.randint(0, 5))))
            stack = ToneStack.from_harmony(Harmony(tones), JUST, 220.0)
            period = detect_period(stack)
            assert period is not None, tones
            assert full_height(stack, period), tones
            m = round(period / stack.lowest_period)
            for earlier in range(1, m):
                assert not full_height(stack, earlier * stack.lowest_period), tones

    @pytest.mark.parametrize("tuning", ["just", "rational", "pythagorean", "kirnberger3"])
    def test_agreement_with_lcm_periodicity(self, tuning):
        # two independent channels: signal autocorrelation peak vs the
        # ratio-arithmetic period, over a fixed random sample of harmonies;
        # the horizon is the default 130, or one lowest-tone period past a
        # longer predicted period
        t = builtin_tuning(tuning)
        rng = random.Random(20260814)
        f1 = 220.0
        for _ in range(20):
            size = rng.randint(1, 5)
            tones = (0,) + tuple(sorted(rng.sample(range(1, 12), size - 1)))
            harmony = Harmony(tones)
            raw_h = raw_periodicity(harmony, t)
            expected = raw_h / f1
            stack = ToneStack.from_harmony(harmony, t, f1)
            period = detect_period(stack, search_horizon=max(130.0, raw_h + 1))
            assert period is not None, tones
            assert abs(period - expected) / expected <= 1e-6, tones


class TestInversionViewCertificate:
    @pytest.mark.parametrize("tuning", ["just", "pythagorean"])
    def test_signal_certifies_every_view(self, tuning):
        # every inversion view of every one-octave harmony, heard from its
        # lowest tone: the signal repeats after exactly h' of its periods,
        # and the certificate rejects the wrong claim 2 * h'
        t = builtin_tuning(tuning)
        views = 0
        for harmony in enumerate_harmonies():
            result = analyze(harmony, t)
            for i, value in enumerate(result.inversion_h):
                assert value.denominator == 1, (harmony, i)
                m = value.numerator
                # offsets ascend, so ratios[0] is the view's lowest tone
                ratios = [ratio_for_semitone(t, n) for n in inversion_offsets(harmony, i)]
                stack = ToneStack(tuple(float(r / ratios[0]) for r in ratios))
                assert certifies(stack, m), (harmony, i, m)
                assert not certifies(stack, 2 * m), (harmony, i, m)
                views += 1
        assert views == 13312
