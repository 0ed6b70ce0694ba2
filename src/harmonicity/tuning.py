"""Twelve-tone tuning tables with exact frequency ratios.

Five tables are built in: four rational-valued ones (``pythagorean``,
``kirnberger3``, ``rational``, ``just``) and ``equal`` temperament, which
stores the irrational reals ``2**(k/12)`` and therefore cannot feed any
period computation — it serves as the deviation reference only.

The ``rational`` table is generated, not transcribed: each ratio is the
smallest-denominator fraction within 1% of its equal-tempered value.
``_ratio_pairs`` turns ratios into the ``(numerator, denominator)`` pairs
that every measure computes on; no other module converts a ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .errors import TuningError, UsageError
from .rationals import approximate

__all__ = [
    "BUILTIN_TUNING_NAMES",
    "INTERVAL_NAMES",
    "TuningTable",
    "builtin_tuning",
    "deviation",
    "ratio_for_semitone",
    "rational_tuning",
]

Ratio = Union[Fraction, float]

#: Conventional names of the 13 one-octave intervals, indexed by semitone.
INTERVAL_NAMES = (
    "unison",
    "minor second",
    "major second",
    "minor third",
    "major third",
    "perfect fourth",
    "tritone",
    "perfect fifth",
    "minor sixth",
    "major sixth",
    "minor seventh",
    "major seventh",
    "octave",
)


@dataclass(frozen=True)
class TuningTable:
    """Frequency ratios for semitones 0..12 of one octave.

    ``ratios`` holds 13 exact :class:`~fractions.Fraction` values for
    rational-valued tunings, or 13 floats (``2**(k/12)``) for equal
    temperament.  ``deviation_bound`` records the generation bound of a
    generated rational table, as a fraction of 1 (``0.01`` = 1%).
    A table hashes by its name and bound only, so a dict lookup hashes no
    ``Fraction``; equality still compares the ratios.
    """

    name: str
    ratios: tuple[Ratio, ...]
    deviation_bound: float | None = None

    def __hash__(self) -> int:
        return hash((self.name, self.deviation_bound))

    def __post_init__(self) -> None:
        if len(self.ratios) != 13:
            raise UsageError(
                f"a tuning table needs 13 ratios (semitones 0..12), got {len(self.ratios)}"
            )
        if any(b >= a for a, b in zip(self.ratios[1:], self.ratios)):
            raise UsageError("tuning ratios must be strictly increasing")
        if self.is_rational and (self.ratios[0] != 1 or self.ratios[12] != 2):
            raise UsageError("a rational tuning must span exactly 1/1 .. 2/1")

    @property
    def is_rational(self) -> bool:
        """True when every ratio is an exact fraction."""
        return all(isinstance(r, Fraction) for r in self.ratios)


def _table(name: str, pairs: list[tuple[int, int]]) -> TuningTable:
    return TuningTable(name, tuple(Fraction(a, b) for a, b in pairs))


_PYTHAGOREAN = _table(
    "pythagorean",
    [(1, 1), (256, 243), (9, 8), (32, 27), (81, 64), (4, 3), (729, 512),
     (3, 2), (128, 81), (27, 16), (16, 9), (243, 128), (2, 1)],
)

_KIRNBERGER3 = _table(
    "kirnberger3",
    [(1, 1), (25, 24), (9, 8), (6, 5), (5, 4), (4, 3), (45, 32),
     (3, 2), (25, 16), (5, 3), (16, 9), (15, 8), (2, 1)],
)

_JUST = _table(
    "just",
    [(1, 1), (16, 15), (9, 8), (6, 5), (5, 4), (4, 3), (7, 5),
     (3, 2), (8, 5), (5, 3), (9, 5), (15, 8), (2, 1)],
)

_EQUAL = TuningTable("equal", tuple(2.0 ** (k / 12) for k in range(13)))


def rational_tuning(d: float) -> TuningTable:
    """Build the tuning whose ratios are the smallest-denominator fractions
    within relative deviation ``d`` of equal temperament.

    ``d`` is a fraction of 1 (``0.01`` = 1%).  Beyond about 6% neighbouring
    semitone categories collide, so the domain is capped there.
    """
    if not 0 < d < 0.06:
        raise UsageError(
            f"rational_tuning() needs a deviation bound in (0, 0.06), got {d!r}"
        )
    ratios = tuple(approximate(2.0 ** (k / 12), d).result for k in range(13))
    if any(b <= a for a, b in zip(ratios, ratios[1:])):
        raise TuningError(
            f"deviation bound {d:g} is too coarse: neighbouring semitones "
            "receive non-increasing fractions (bounds above ~0.029 can "
            "make adjacent intervals overlap)"
        )
    return TuningTable("rational", ratios, deviation_bound=float(d))


_RATIONAL = rational_tuning(0.01)

_BUILTIN = {
    "equal": _EQUAL,
    "pythagorean": _PYTHAGOREAN,
    "kirnberger3": _KIRNBERGER3,
    "rational": _RATIONAL,
    "just": _JUST,
}

#: Valid arguments to :func:`builtin_tuning`, in conventional order.
BUILTIN_TUNING_NAMES = tuple(_BUILTIN)


def builtin_tuning(name: str) -> TuningTable:
    """Look up one of the five built-in tunings by name."""
    try:
        return _BUILTIN[name]
    except KeyError:
        valid = ", ".join(BUILTIN_TUNING_NAMES)
        raise UsageError(f"unknown tuning {name!r}; valid names: {valid}") from None


def ratio_for_semitone(t: TuningTable, n: int) -> Fraction:
    """Frequency ratio of semitone offset ``n`` relative to offset 0.

    ``n`` may be negative or beyond one octave; the table covers one octave
    and octaves shift by powers of two: ``ratios[n mod 12] * 2**(n // 12)``
    with floor-based mod/div, so e.g. ``n = -2`` gives ``ratios[10] / 2``
    and ``n = 16`` gives ``ratios[4] * 2``.
    """
    if type(n) is not int:  # a bool is no offset
        raise UsageError(f"semitone offset must be an integer, got {n!r}")
    if not t.is_rational:
        raise TuningError(
            f"tuning {t.name!r} has irrational ratios; period lengths need exact "
            "fractions (pick a rational-valued tuning such as 'just' or 'rational')"
        )
    octaves, semitone = divmod(n, 12)
    return t.ratios[semitone] * Fraction(2) ** octaves


def _ratio_pairs(t: TuningTable, offsets: Iterable[int]) -> dict[int, tuple[int, int]]:
    """``ratio_for_semitone(t, n)`` as ``(numerator, denominator)``, once per distinct ``n``."""
    return {n: ratio_for_semitone(t, n).as_integer_ratio() for n in set(offsets)}


def deviation(t: TuningTable, k: int) -> float:
    """Signed deviation of ``ratios[k]`` from equal temperament, in percent."""
    if type(k) is not int or not 0 <= k <= 12:
        raise UsageError(f"deviation() needs a semitone in 0..12, got {k!r}")
    return (float(t.ratios[k]) / 2.0 ** (k / 12) - 1.0) * 100.0
