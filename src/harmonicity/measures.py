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

:func:`evaluate_measure` computes on :class:`~fractions.Fraction` values and
is the reference.  The ranked one-octave columns of
:mod:`harmonicity.enumeration` come from ``_column_values`` instead, which
computes the same floats, equal by ``repr``, on plain ints from one
``(numerator, denominator)`` table per tuning.  It computes a measure pair
in one pass and returns both columns: the two periodicity means from one
set of inversion views, gradus and omega from one factorization.
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


def _gradus_of(factors: dict[int, int]) -> int:
    # 1 + sum(m_i * (p_i - 1)) over the factorization prod(p_i ** m_i)
    return 1 + sum(m * (p - 1) for p, m in factors.items())


def _omega_of(factors: dict[int, int]) -> int:
    return sum(factors.values())


def _root(product: int, count: int) -> float:
    """The ``count``-th root of the positive int ``product``."""
    exponent = 1.0 / count
    try:
        return float(product) ** exponent
    except OverflowError:
        # wide chords outgrow a float; math.log takes any int
        return math.exp(math.log(product) * exponent)


def _brefeld(tones: Sequence[int], t: TuningTable) -> float:
    # the 2k-th root of the full product over k intervals
    intervals = pairwise_intervals(tones, t)
    return _root(math.prod(r.numerator * r.denominator for r in intervals), 2 * len(intervals))


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
        Measure("gradus", lambda tones, t: _gradus_of(_ratio_product_factors(tones, t)), 1),
        Measure("omega", lambda tones, t: _omega_of(_ratio_product_factors(tones, t)), 1),
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


def _column_values(harmonies: Sequence[Harmony], measure: str,
                   t: TuningTable) -> dict[str, list[float]]:
    """``{name: [evaluate_measure(h.semitones, name, t) for h in harmonies]}``
    for ``measure`` and the sibling its pass also yields, equal by ``repr``:
    both periodicity means come from one set of views, gradus and omega
    from one factorization.  Computed on ints from one ``(numerator,
    denominator)`` pair per offset -11..11 instead of Fractions per view."""
    if measure in ("similarity", "brefeld") and any(len(h) < 2 for h in harmonies):
        pairwise_intervals((0,), t)  # raises the reference's error
    pairs = {n: ratio_for_semitone(t, n).as_integer_ratio() for n in range(-11, 12)}
    tones = [h.semitones for h in harmonies]
    if measure in ("rel_periodicity", "log_periodicity"):
        # per anchor m: the denominators of n - m for n in 0..11, then b_low, a_low
        anchors = [tuple(pairs[n - m][1] for n in range(12)) + pairs[-m][::-1]
                   for m in range(12)]
        rel, log = [], []
        for s in tones:
            # h' of the view from tone m: lcm of its denominators // b_low * a_low
            views = [math.lcm(*[row[n] for n in s]) // row[12] * row[13]
                     for row in map(anchors.__getitem__, s)]
            rel.append(sum(views) / len(views))  # rounds like float(Fraction)
            log.append(math.fsum(map(math.log2, views)) / len(views))
        return {"rel_periodicity": rel, "log_periodicity": log}
    if measure in ("gradus", "omega"):
        products = [math.lcm(*[pairs[n][0] for n in s]) * math.lcm(*[pairs[n][1] for n in s])
                    for s in tones]
        # few products recur (87 distinct of 2048 under just): factor each once
        factors = {product: prime_factor_multiset(product) for product in set(products)}
        gradus = {product: float(_gradus_of(f)) for product, f in factors.items()}
        omega = {product: float(_omega_of(f)) for product, f in factors.items()}
        return {"gradus": [gradus[p] for p in products], "omega": [omega[p] for p in products]}
    if measure == "similarity":
        # each distance's (a + b - 1) / (a * b) over one common denominator
        common = math.lcm(*(pairs[d][0] * pairs[d][1] for d in range(1, 12)))
        terms = {d: (a + b - 1) * (common // (a * b)) for d, (a, b) in pairs.items() if d > 0}

        def value(s: tuple[int, ...]) -> float:
            total = sum(terms[high - low] for low, high in combinations(s, 2))
            return total * 100 / (common * (len(s) * (len(s) - 1) // 2))
    else:
        def value(s: tuple[int, ...]) -> float:
            intervals = [pairs[high - low] for low, high in combinations(s, 2)]
            return _root(math.prod(a * b for a, b in intervals), 2 * len(intervals))
    return {measure: list(map(value, tones))}
