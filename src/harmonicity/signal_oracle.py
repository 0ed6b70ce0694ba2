"""Independent verification channel for period computations.

A stack of pure tones ``s(t) = sum(sin(w_i t))`` has the normalized
autocorrelation ``rho(tau) = 1/2 * sum(cos(w_i tau))`` in the limit of an
infinite window — phases drop out entirely.  ``rho`` attains its global
maximum ``k/2`` exactly at the lags where every tone completes a whole
number of cycles, so the first such lag is the period of the compound
signal.  The lowest tone is one of those cycles, so every such lag is a
whole multiple of its period: :func:`detect_period` evaluates ``rho`` on
that lattice, from the signal alone, without consulting any ratio
arithmetic — which makes it an independent check of the lcm-based period:
for exact frequency ratios ``a_i/b_i`` the detected lag must be
``lcm(b_i)`` periods of the lowest tone (equivalently, the stack's least
common overtone is ``lcm(a_i)`` times the lowest frequency).
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import UsageError
from .periodicity import Harmony
from .tuning import TuningTable, ratio_for_semitone

__all__ = [
    "ToneStack",
    "autocorrelation",
    "detect_period",
]

#: Most lags x tones that :func:`detect_period` evaluates, enough for a
#: Pythagorean chromatic cluster (h = 124416, 12 tones).  A top tone whole
#: octaves above the lowest passes the top-tone step of the cascade at every
#: lag, which ends the cascade there, so the bound stays the full product
#: and its cosine, 32 MB of float64.
_MAX_LATTICE_CELLS = 2_000_000

#: Lowest-tone periods that :func:`detect_period` scans unless told otherwise.
_DEFAULT_HORIZON = 130.0


def _check_float_domain(f1: float, values: Iterable[float],
                        least: float = sys.float_info.min) -> None:
    """Raise :class:`UsageError` unless every value lies in the finite
    normal float range: the scan runs in floats, and past that range its
    lags and cosines turn to inf or nan and the verdict is meaningless.
    ``f1`` is the lowest tone in Hz, the one number the message names;
    ``least`` is the smallest value allowed, 0 for a phase at lag 0."""
    if not all(least <= x < math.inf for x in values):
        raise UsageError(
            f"a lowest tone of {f1:g} Hz puts the oracle's periods or angular "
            "frequencies outside the finite normal float range"
        )


@dataclass(frozen=True)
class ToneStack:
    """Pure tones given by their frequencies in Hz, strictly ascending, with
    angular frequencies in the finite normal float range."""

    frequencies: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.frequencies) < 1:
            raise UsageError("a tone stack needs at least one frequency")
        if self.frequencies[0] <= 0:
            raise UsageError(f"frequencies must be positive, got {self.frequencies[0]!r}")
        _check_float_domain(self.frequencies[0], self.angular_frequencies)
        if any(b >= a for a, b in zip(self.frequencies[1:], self.frequencies)):
            raise UsageError(
                f"frequencies must be strictly ascending, got {self.frequencies}"
            )

    @classmethod
    def from_harmony(cls, h: Harmony, t: TuningTable, f1: float) -> "ToneStack":
        """Realize a harmony as pure tones with lowest frequency ``f1``."""
        ratios = _float_ratios(t)
        try:
            frequencies = tuple(f1 * (ratios[n % 12] * 2.0 ** (n // 12)) for n in h.semitones)
        except OverflowError:
            # 1024 octaves or more: 2.0 ** 1024 has no float, so the stack
            # rejects the tone as it rejects an infinite one
            frequencies = (f1, math.inf)
        return cls(frequencies)

    @cached_property
    def angular_frequencies(self) -> tuple[float, ...]:
        return tuple(2.0 * math.pi * f for f in self.frequencies)

    @property
    def lowest_period(self) -> float:
        return 1.0 / self.frequencies[0]


@cache
def _float_ratios(t: TuningTable) -> tuple[float, ...]:
    """``float(ratio_for_semitone(t, n))`` for ``n`` in 0..11, once per
    tuning.  ``float`` gives a fraction's correctly rounded quotient and a
    power of two scales it exactly, so ``ratios[n % 12] * 2.0 ** (n // 12)`` is
    ``float(ratio_for_semitone(t, n))`` for every offset."""
    return tuple(float(ratio_for_semitone(t, n)) for n in range(12))


def autocorrelation(s: ToneStack, tau: float) -> float:
    """Infinite-window autocorrelation of the stack at lag ``tau``:
    the analytic limit ``1/2 * sum(cos(w_i * tau))``, not a numerical
    integral.  Equals ``k/2`` at ``tau = 0``.

    >>> autocorrelation(ToneStack((440.0, 550.0, 660.0)), 4 / 440)
    1.5
    """
    if tau < 0:
        raise UsageError(f"autocorrelation() needs tau >= 0, got {tau!r}")
    # the top tone's phase is the largest; an infinite or nan one has no cosine
    _check_float_domain(s.frequencies[0], (s.angular_frequencies[-1] * tau,), least=0.0)
    return 0.5 * math.fsum(math.cos(w * tau) for w in s.angular_frequencies)


def detect_period(s: ToneStack, search_horizon: float = _DEFAULT_HORIZON) -> float | None:
    """Find the period of the stack from its autocorrelation alone.

    ``rho`` reaches ``k/2`` only where every cosine is 1, the lowest tone's
    included, so every full-height recurrence lies on a whole multiple
    ``m * T1`` of the lowest period.  Scans ``m = 1 .. floor(search_horizon)``
    and returns the smallest multiple whose autocorrelation comes within
    ``1e-9 * k`` of the zero-lag value.  Returns ``None`` when no multiple
    qualifies, which signals irrational frequency ratios or a horizon
    shorter than the true period.

    The scan filters the lags in a cascade, from the top tone down to the
    one above the lowest, whose cosine is 1 at every lag: each step takes
    one tone's cosine at the lags left and keeps those where it is at least
    1/2, since at any other lag ``rho`` stays at least 1/4 below ``k/2``.
    The cascade stops once no more lags are left than the default horizon
    scans, so a call at that horizon takes the top-tone step alone, or
    after a step that kept more than half of its lags; every tone's cosine
    is then taken at the lags left.  Each further step thus runs on at most
    half the lags of the one before, and a call takes no more than the full
    lattice's ``horizon x (k + 1)`` cosines, the cost of a top tone whole
    octaves above the lowest, which keeps every lag at its first step.  A
    horizon whose lattice exceeds ``_MAX_LATTICE_CELLS``, or whose last lag
    or top phase leaves the finite normal float range, raises
    :class:`UsageError`.

    >>> detect_period(ToneStack((440.0, 550.0, 660.0))) == 4 / 440
    True

    A horizon past the default filters by several tones: the Kirnberger III
    chromatic cluster repeats after 1440 lowest-tone periods.

    >>> from harmonicity import builtin_tuning
    >>> kirnberger3 = builtin_tuning("kirnberger3")
    >>> stack = ToneStack.from_harmony(Harmony(tuple(range(12))), kirnberger3, 440.0)
    >>> detect_period(stack, 1450) == 1440 * stack.lowest_period
    True
    """
    if not search_horizon >= 1:
        raise UsageError(
            f"detect_period() needs a horizon of at least 1 lowest-tone period, "
            f"got {search_horizon!r}"
        )
    k = len(s.frequencies)
    max_horizon = _MAX_LATTICE_CELLS // k
    if search_horizon >= max_horizon + 1:
        raise UsageError(
            f"a horizon of {search_horizon:g} lowest-tone periods exceeds the "
            f"oracle's budget of {_MAX_LATTICE_CELLS} lattice cells (horizon x tones); "
            f"the largest horizon for {k} tones is {max_horizon}"
        )
    lags = math.floor(search_horizon)
    last = s.lowest_period * lags
    top = s.angular_frequencies[-1]
    _check_float_domain(s.frequencies[0], (last, last * top))
    taus = s.lowest_period * np.arange(1, lags + 1)
    for w in reversed(s.angular_frequencies[1:]):
        before = taus.size
        taus = taus[np.cos(taus * w) >= 0.5]
        if taus.size <= _DEFAULT_HORIZON or 2 * taus.size > before:
            break
    # the vectorized autocorrelation() at every lag the cascade lets through
    rho = 0.5 * np.cos(np.outer(taus, np.asarray(s.angular_frequencies))).sum(axis=1)
    hits = np.flatnonzero(rho >= 0.5 * k - 1e-9 * k)
    return float(taus[hits[0]]) if hits.size else None
