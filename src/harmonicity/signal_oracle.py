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
from functools import cached_property

import numpy as np

from .errors import UsageError
from .periodicity import Harmony, ratios_for
from .tuning import TuningTable

__all__ = [
    "ToneStack",
    "autocorrelation",
    "detect_period",
]

#: Most lags x tones that :func:`detect_period` evaluates: 32 MB of float64
#: for the product and its cosine, enough for a Pythagorean chromatic
#: cluster (h = 124416, 12 tones).
_MAX_LATTICE_CELLS = 2_000_000

#: Lowest-tone periods that :func:`detect_period` scans unless told otherwise.
_DEFAULT_HORIZON = 130.0


def _check_float_domain(f1: float, values: Iterable[float]) -> None:
    """Raise :class:`UsageError` unless every value lies in the finite
    normal float range: the scan runs in floats, and past that range its
    lags and cosines turn to inf or nan and the verdict is meaningless.
    ``f1`` is the lowest tone in Hz, the one number the message names."""
    if not all(sys.float_info.min <= x < math.inf for x in values):
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
        if f1 <= 0:
            raise UsageError(f"reference frequency must be positive, got {f1!r}")
        return cls(tuple(f1 * float(r) for r in ratios_for(h, t)))

    @cached_property
    def angular_frequencies(self) -> tuple[float, ...]:
        return tuple(2.0 * math.pi * f for f in self.frequencies)

    @property
    def lowest_period(self) -> float:
        return 1.0 / self.frequencies[0]


def autocorrelation(s: ToneStack, tau: float) -> float:
    """Infinite-window autocorrelation of the stack at lag ``tau``:
    the analytic limit ``1/2 * sum(cos(w_i * tau))``, not a numerical
    integral.  Equals ``k/2`` at ``tau = 0``.

    >>> autocorrelation(ToneStack((440.0, 550.0, 660.0)), 4 / 440)
    1.5
    """
    if tau < 0:
        raise UsageError(f"autocorrelation() needs tau >= 0, got {tau!r}")
    return 0.5 * math.fsum(math.cos(w * tau) for w in s.angular_frequencies)


def detect_period(s: ToneStack, search_horizon: float = _DEFAULT_HORIZON) -> float | None:
    """Find the period of the stack from its autocorrelation alone.

    ``rho`` reaches ``k/2`` only where every cosine is 1, the lowest tone's
    included, so every full-height recurrence lies on a whole multiple
    ``m * T1`` of the lowest period.  Scans ``m = 1 .. floor(search_horizon)``
    and returns the smallest multiple whose autocorrelation comes within
    ``1e-9 * k`` of the zero-lag value.  Returns ``None`` when no multiple
    qualifies, which signals irrational frequency ratios or a horizon
    shorter than the true period.  The scan costs one cosine per tone and
    lag; a horizon whose lattice exceeds ``_MAX_LATTICE_CELLS``, or whose
    last lag leaves the finite normal float range, raises :class:`UsageError`.

    >>> detect_period(ToneStack((440.0, 550.0, 660.0))) == 4 / 440
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
    _check_float_domain(s.frequencies[0], (s.lowest_period * lags,))
    taus = s.lowest_period * np.arange(1, lags + 1)
    # the vectorized autocorrelation() at every lag of the lattice
    rho = 0.5 * np.cos(np.outer(taus, np.asarray(s.angular_frequencies))).sum(axis=1)
    hits = np.flatnonzero(rho >= 0.5 * k - 1e-9 * k)
    return float(taus[hits[0]]) if hits.size else None
