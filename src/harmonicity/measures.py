"""Consonance measures computed from a harmony's frequency ratios.

:data:`MEASURES` is the one registry of computable measures: each entry
gives the name, the function and which direction is consonant.

* ``rel_periodicity`` / ``log_periodicity`` — inversion-averaged relative
  periodicity h and mean log2 h (see :mod:`harmonicity.periodicity`).
* ``similarity`` — mean per-interval ``(a + b - 1) / (a * b)`` of the
  pairwise intervals, in percent; larger is more consonant.
* ``gradus`` / ``omega`` — Euler's degree of softness and the prime-factor
  count (with multiplicity) of ``lcm(numerators) * lcm(denominators)`` of
  the lowest-tone ratios.
* ``brefeld`` — geometric mean of all numerators and denominators of the
  pairwise intervals.

Measures take raw tone offsets, duplicates allowed, which a
:class:`~harmonicity.periodicity.Harmony` cannot represent.  Pairwise
intervals are mapped by semitone *distance*
(``ratio_for_semitone(t, n_j - n_i)``), not by dividing the two tones'
ratios; in unequal tunings the two differ, and only the distance reading
reproduces the reference similarity tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Sequence

from .errors import UndefinedMeasureError, UsageError
from .periodicity import AnalysisResult, Harmony, analyze
from .rationals import lcm_many, prime_factor_multiset
from .tuning import TuningTable, ratio_for_semitone

__all__ = [
    "MEASURES",
    "Measure",
    "evaluate_measure",
    "pairwise_intervals",
]


@dataclass(frozen=True)
class Measure:
    """One consonance measure.

    ``compute(tones, t)`` takes raw tone offsets (duplicates allowed, any
    order) and a tuning; gradus and omega return ints.  ``orientation`` is
    +1 when smaller values are more consonant and -1 when larger values are.
    """

    name: str
    compute: Callable[[Sequence[int], TuningTable], float]
    orientation: int


def pairwise_intervals(tones: Sequence[int], t: TuningTable) -> list[Fraction]:
    """Frequency ratios of all unordered tone pairs, one per pair, mapped by
    semitone distance.  ``tones`` may contain duplicates (distance 0 maps to
    the unison ratio 1/1); order does not matter."""
    if len(tones) < 2:
        raise UndefinedMeasureError(
            "pairwise-interval measures need at least two tones"
        )
    ordered = sorted(tones)
    return [
        ratio_for_semitone(t, high - low)
        for low, high in combinations(ordered, 2)
    ]


def _periodicity(tones: Sequence[int], t: TuningTable) -> AnalysisResult:
    return analyze(Harmony(tuple(sorted(set(tones)))), t)


def _ratio_product_factors(tones: Sequence[int], t: TuningTable) -> dict[int, int]:
    """Prime factorization of ``lcm(numerators) * lcm(denominators)`` of the
    tones' lowest-tone ratios."""
    ratios = [ratio_for_semitone(t, n) for n in tones]
    return prime_factor_multiset(
        lcm_many(r.numerator for r in ratios) * lcm_many(r.denominator for r in ratios)
    )


def _gradus(tones: Sequence[int], t: TuningTable) -> int:
    # 1 + sum(m_i * (p_i - 1)) over the factorization prod(p_i ** m_i)
    return 1 + sum(m * (p - 1) for p, m in _ratio_product_factors(tones, t).items())


def _omega(tones: Sequence[int], t: TuningTable) -> int:
    return sum(_ratio_product_factors(tones, t).values())


def _brefeld(tones: Sequence[int], t: TuningTable) -> float:
    # the 2k-th root of the full product over k intervals
    intervals = pairwise_intervals(tones, t)
    product = math.prod(r.numerator * r.denominator for r in intervals)
    exponent = 1.0 / (2 * len(intervals))
    try:
        return float(product) ** exponent
    except OverflowError:
        # wide chords outgrow a float; math.log takes any int
        return math.exp(math.log(product) * exponent)


def _similarity(tones: Sequence[int], t: TuningTable) -> float:
    intervals = pairwise_intervals(tones, t)
    total = sum(Fraction(r.numerator + r.denominator - 1, r.numerator * r.denominator)
                for r in intervals)
    return float(total / len(intervals) * 100)


#: Every computable measure by name, in the order the CLI lists them.
MEASURES: dict[str, Measure] = {
    m.name: m
    for m in (
        Measure("rel_periodicity", lambda tones, t: _periodicity(tones, t).mean_h, 1),
        Measure("log_periodicity", lambda tones, t: _periodicity(tones, t).mean_log_h, 1),
        Measure("similarity", _similarity, -1),
        Measure("gradus", _gradus, 1),
        Measure("omega", _omega, 1),
        Measure("brefeld", _brefeld, 1),
    )
}


def lookup_measure(name: str) -> Measure:
    """The registered measure called ``name``."""
    try:
        return MEASURES[name]
    except KeyError:
        valid = ", ".join(MEASURES)
        raise UsageError(f"unknown measure {name!r}; computable measures: {valid}") from None


def evaluate_measure(tones: Sequence[int], measure: str, t: TuningTable) -> float:
    """Value of one named measure for raw tone offsets under tuning ``t``.

    >>> from .tuning import builtin_tuning
    >>> just = builtin_tuning("just")
    >>> evaluate_measure((0, 7), "gradus", just)
    4.0
    >>> evaluate_measure((0, 4), "omega", just)
    3.0
    >>> round(evaluate_measure((0, 7), "brefeld", just), 3)
    2.449
    >>> round(evaluate_measure((0, 4, 7), "similarity", just), 2)
    46.67
    """
    return float(lookup_measure(measure).compute(tones, t))
