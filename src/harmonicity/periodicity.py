"""Relative periodicity of harmonies.

A harmony whose tones stand in exact frequency ratios ``F_i = a_i / b_i``
(lowest terms, relative to the lowest tone) repeats after ``h = lcm(b_1, ...,
b_k)`` periods of its lowest tone.  Smaller ``h`` means the compound wave
repeats sooner — the harmony is heard as more consonant.

Beyond that raw value, :func:`analyze` can average over *inversions*:
re-reference the harmony to each of its tones in turn, compute each view's
``h``, rescale it by the view's lowest ratio so all views share one time
base, and average.  Every rescaled value is an integer.  Both the
arithmetic mean and the mean of ``log2`` (the log of the geometric mean)
are reported; values stay exact until the final averaging step.

h' of one view and both means are defined once, on integer ratio pairs:
:func:`analyze` takes each view's lcm of denominators from its pairs, and
the rank kernel in :mod:`harmonicity.measures` extends its parent's lcms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import UsageError
from .tuning import TuningTable, _ratio_pairs, ratio_for_semitone

__all__ = [
    "AnalysisResult",
    "Harmony",
    "analyze",
    "fundamental_frequency",
    "inversion_offsets",
    "ratios_for",
    "raw_periodicity",
]

# The MIDI range 0..MAX_SPAN: CLI pitch names and dataset offsets lie within
# it, and no CLI chord spans more semitones from its lowest to highest tone.
MAX_SPAN = 127


@dataclass(frozen=True)
class Harmony:
    """A set of tones given as semitone offsets above the lowest tone.

    ``semitones`` is strictly increasing and starts at 0 (the lowest tone is
    the reference point for all frequency ratios).
    """

    semitones: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.semitones, tuple):
            raise UsageError(f"harmony offsets must be a tuple, got {self.semitones!r}")
        if len(self.semitones) < 1:
            raise UsageError("a harmony needs at least one tone")
        if any(type(n) is not int for n in self.semitones):  # a bool is no offset
            raise UsageError(f"harmony offsets must be integers, got {self.semitones}")
        if self.semitones[0] != 0:
            raise UsageError(
                f"harmony offsets must start at 0, got {self.semitones[0]} "
                "(use Harmony.from_offsets() to normalize arbitrary pitch sets)"
            )
        if any(b >= a for a, b in zip(self.semitones[1:], self.semitones)):
            raise UsageError(
                f"harmony offsets must be strictly increasing, got {self.semitones}"
            )

    @classmethod
    def from_offsets(cls, offsets: Iterable[int]) -> "Harmony":
        """Build a harmony from arbitrary integer pitches, shifting them so
        the lowest becomes 0.  Duplicate pitches are rejected."""
        pitches = list(offsets)
        if len(set(pitches)) != len(pitches):
            raise UsageError(f"duplicate tones in {pitches}")
        low = min(pitches, default=0)
        harmony = cls(tuple(sorted(p - low for p in pitches)))
        if any(type(p) is not int for p in pitches):  # the shift makes a bool an int
            raise UsageError(f"harmony offsets must be integers, got {tuple(pitches)}")
        return harmony

    def __len__(self) -> int:
        return len(self.semitones)

    def __str__(self) -> str:
        body = ",".join(str(n) for n in self.semitones)
        return f"{{{body}}}"


def ratios_for(h: Harmony, t: TuningTable) -> tuple[Fraction, ...]:
    """Frequency ratios of all tones relative to the lowest tone."""
    return tuple(ratio_for_semitone(t, n) for n in h.semitones)


def raw_periodicity(h: Harmony, t: TuningTable) -> int:
    """Periods of the lowest tone until the whole harmony repeats:
    lcm of the denominators of the tones' frequency ratios.

    >>> from .tuning import builtin_tuning
    >>> raw_periodicity(Harmony((0, 4, 7)), builtin_tuning("just"))
    4
    """
    return _view_h(_ratio_pairs(t, h.semitones), h.semitones)


def inversion_offsets(h: Harmony, i: int) -> tuple[int, ...]:
    """Semitone offsets of the harmony re-referenced to its ``i``-th tone
    (element ``i`` becomes 0, earlier elements negative)."""
    if type(i) is not int or not 0 <= i < len(h):  # a bool is no index
        raise UsageError(f"inversion index {i} out of range for {h}")
    anchor = h.semitones[i]
    return tuple(n - anchor for n in h.semitones)


def _h_prime(lcm_dens: int, lowest: tuple[int, int]) -> int:
    """h' of one view: the lcm of its denominators times its lowest ratio
    ``a / b`` (``b`` divides the lcm); the root view's h' is the lcm."""
    a, b = lowest
    return lcm_dens // b * a


def _view_h(row: Mapping[int, tuple[int, int]], tones: Sequence[int]) -> int:
    """h' of one view: ``row[n]`` is tone ``n``'s ratio ``(a, b)`` to the
    view's reference tone; the lowest ratio is the lowest tone's,
    ``tones[0]``, since ratios increase with the semitone."""
    return _h_prime(math.lcm(*[row[n][1] for n in tones]), row[tones[0]])


def _means(views: Sequence[int]) -> tuple[float, float]:
    """The mean and the mean log2 of h' values; int true division rounds
    the exact mean once."""
    k = len(views)
    return sum(views) / k, math.fsum(map(math.log2, views)) / k


@dataclass(frozen=True)
class AnalysisResult:
    """Periodicity summary of one harmony under one tuning.

    ``inversion_h`` lists the rescaled values h'_j, one per reference tone
    (only j = 0 when inversion averaging is off); ``raw_h`` always equals
    ``inversion_h[0]``.  ``mean_h`` is their arithmetic mean and
    ``mean_log_h`` the mean of their base-2 logs.
    """

    harmony: Harmony
    tuning: str
    raw_h: int
    inversion_h: tuple[int, ...]
    mean_h: float
    mean_log_h: float

    @property
    def exact_mean_h(self) -> Fraction:
        """The arithmetic mean of ``inversion_h`` as an exact fraction."""
        return Fraction(sum(self.inversion_h), len(self.inversion_h))


def analyze(h: Harmony, t: TuningTable, average_inversions: bool = True) -> AnalysisResult:
    """Compute raw and (optionally) inversion-averaged relative periodicity.

    With ``average_inversions`` the harmony is re-referenced to each tone in
    turn; each view's periodicity is rescaled onto the root view's time base
    by its lowest frequency ratio, and the mean and mean-log are taken over
    these exact values.

    >>> from .tuning import builtin_tuning
    >>> analyze(Harmony((0, 3, 9)), builtin_tuning("just")).inversion_h
    (15, 25, 6)
    """
    indices = range(len(h)) if average_inversions else range(1)
    views = (inversion_offsets(h, i) for i in indices)
    values = tuple(_view_h(_ratio_pairs(t, view), view) for view in views)
    mean_h, mean_log_h = _means(values)
    return AnalysisResult(harmony=h, tuning=t.name, raw_h=values[0], inversion_h=values,
                          mean_h=mean_h, mean_log_h=mean_log_h)


def fundamental_frequency(h: Harmony, t: TuningTable, f1: float) -> float:
    """Repetition rate of the whole harmony when the lowest tone has
    frequency ``f1``: the missing fundamental ``f1 / h``."""
    if f1 <= 0:
        raise UsageError(f"fundamental_frequency() needs f1 > 0, got {f1!r}")
    if not math.isfinite(f1):
        raise UsageError(f"fundamental_frequency() needs a finite f1, got {f1!r}")
    return f1 / raw_periodicity(h, t)
