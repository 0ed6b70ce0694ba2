"""Consonance measures computed from a harmony's frequency ratios.

:data:`MEASURES` is the one registry of computable measures: each entry
gives the name, the function and which direction is consonant.

* ``rel_periodicity`` / ``log_periodicity`` — inversion-averaged relative
  periodicity h and mean log2 h (see :mod:`harmonicity.periodicity`).
* ``similarity`` — mean per-interval ``(a + b - 1) / (a * b)`` of the
  pairwise intervals, in percent; larger is more consonant.
* ``gradus`` / ``omega`` — Euler's degree of softness and the prime-factor
  count (with multiplicity) of ``lcm(numerators) * lcm(denominators)`` of
  the lowest-tone ratios, found by dividing it by the primes of its terms.
* ``brefeld`` — geometric mean of all numerators and denominators of the
  pairwise intervals.

Measures take raw tone offsets, duplicates allowed, which a
:class:`~harmonicity.periodicity.Harmony` cannot represent.  Pairwise
intervals are mapped by semitone *distance*
(``ratio_for_semitone(t, n_j - n_i)``), not by dividing the two tones'
ratios; in unequal tunings the two differ, and only the distance reading
reproduces the reference similarity tables.

Every measure has one integer definition on ``(numerator, denominator)``
pairs: :func:`evaluate_measure` looks up what its tone set needs (the
periodicity pair per view, through :func:`~harmonicity.periodicity.analyze`),
and ``_column_values``, behind :mod:`harmonicity.enumeration`, reads offsets
-11..11 from one pair table per tuning, looked up by its first pass.  It
finds each harmony's one-octave tone set once, by an index in which the
set without the highest tone, its parent, is the index without its top
bit, and has two passes.  One yields both periodicity means, gradus and
omega: it builds each set's lcms from its parent's, namely the 12
per-anchor lcms of denominators, which the same h' rescales into the
views, and the lcm of numerators, whose product with anchor 0's lcm is the
ratio product, divided by the primes of the pair table's terms.  The
other yields similarity and brefeld from one table of interval folds per
tuning: for every tone set, the sum of its distances' similarity weights
and the product of their Brefeld factors, each extending its parent's
folds, so a harmony costs one division and one root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import chain, combinations, repeat
from operator import add, mul
from typing import Callable, Iterable, Sequence

from .errors import UndefinedMeasureError, UsageError
from .periodicity import AnalysisResult, Harmony, _h_prime, _means, analyze
from .rationals import prime_factor_multiset
from .tuning import TuningTable, _ratio_pairs

__all__ = [
    "MEASURES",
    "Measure",
    "evaluate_measure",
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


def _pair_count(size: int) -> int:
    """The number of unordered pairs of ``size`` tones."""
    if size < 2:
        raise UndefinedMeasureError("pairwise-interval measures need at least two tones")
    return size * (size - 1) // 2


def _distances(tones: Sequence[int]) -> list[int]:
    """Semitone distances of all unordered tone pairs; a duplicate is the unison 0."""
    _pair_count(len(tones))
    return [high - low for low, high in combinations(sorted(tones), 2)]


def _periodicity(tones: Sequence[int], t: TuningTable) -> AnalysisResult:
    if min(tones, default=0) != 0:
        raise UsageError(f"periodicity measures need the lowest raw tone to be 0, got {tuple(tones)}")
    return analyze(Harmony(tuple(sorted(set(tones)))), t)


def _gradus_omega(product: int, primes: Iterable[int]) -> tuple[int, int]:
    """Euler's gradus 1 + sum(m_i * (p_i - 1)) and omega sum(m_i) of
    ``product``, prod(p_i ** m_i) over some of ``primes``."""
    gradus = omega = 0
    for p in primes:
        while product % p == 0:
            product, gradus, omega = product // p, gradus + p - 1, omega + 1
    return 1 + gradus, omega


def _factors(tones: Sequence[int], t: TuningTable) -> tuple[int, int]:
    """Gradus and omega of ``lcm(numerators) * lcm(denominators)`` of the
    tones' lowest-tone ratios, divided by the primes of those terms."""
    numerators, denominators = zip(*_ratio_pairs(t, tones).values())
    primes = set().union(*map(prime_factor_multiset, {*numerators, *denominators}))
    return _gradus_omega(math.lcm(*numerators) * math.lcm(*denominators), primes)


def _brefeld_factors(pairs: dict[int, tuple[int, int]]) -> dict[int, int]:
    """Each distance's Brefeld factor, the product ``a * b`` of its interval ``a/b``."""
    return {d: a * b for d, (a, b) in pairs.items()}


def _similarity_weights(pairs: dict[int, tuple[int, int]],
                        factors: dict[int, int]) -> tuple[int, dict[int, int]]:
    """``(common, weights)``: the lcm ``common`` of the distances' Brefeld
    ``factors`` and each distance's similarity weight, its
    ``(a + b - 1) / (a * b)`` times ``common``."""
    common = math.lcm(*factors.values())
    return common, {d: (a + b - 1) * (common // factors[d]) for d, (a, b) in pairs.items()}


def _similarity_of(total: int, common: int, count: int) -> float:
    """Percentage similarity from the sum ``total`` of ``count`` weights over ``common``."""
    # int true division rounds like float(Fraction), whatever common is
    return total * 100 / (common * count)


def _root(product: int, count: int) -> float:
    """The ``count``-th root of the positive int ``product``."""
    exponent = 1.0 / count
    try:
        return float(product) ** exponent
    except OverflowError:
        # wide chords outgrow a float; math.log takes any int
        return math.exp(math.log(product) * exponent)


def _brefeld_of(product: int, count: int) -> float:
    """Brefeld's value from the product of ``count`` intervals' factors: the
    2k-th root of every numerator and denominator over k intervals."""
    return _root(product, 2 * count)


def _similarity(tones: Sequence[int], t: TuningTable) -> float:
    """Percentage similarity of a tone set's distances: the mean of each
    distance's ``(a + b - 1) / (a * b)``, summed over one common denominator."""
    distances = _distances(tones)
    pairs = _ratio_pairs(t, distances)
    common, weights = _similarity_weights(pairs, _brefeld_factors(pairs))
    return _similarity_of(sum(map(weights.__getitem__, distances)), common, len(distances))


def _brefeld(tones: Sequence[int], t: TuningTable) -> float:
    """Brefeld's value of a tone set's distances."""
    distances = _distances(tones)
    factors = _brefeld_factors(_ratio_pairs(t, distances))
    return _brefeld_of(math.prod(map(factors.__getitem__, distances)), len(distances))


#: Every computable measure by name, in the order the CLI lists them.
MEASURES: dict[str, Measure] = {
    m.name: m
    for m in (
        Measure("rel_periodicity", lambda tones, t: _periodicity(tones, t).mean_h, 1),
        Measure("log_periodicity", lambda tones, t: _periodicity(tones, t).mean_log_h, 1),
        Measure("similarity", _similarity, -1),
        Measure("gradus", lambda tones, t: _factors(tones, t)[0], 1),
        Measure("omega", lambda tones, t: _factors(tones, t)[1], 1),
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
    compute = lookup_measure(measure).compute
    if any(type(n) is not int for n in tones):  # a bool is no offset
        raise UsageError(f"tone offsets must be integers, got {tuple(tones)}")
    if not tones:
        raise UndefinedMeasureError("a measure needs at least one tone")
    return float(compute(tones, t))


def _prefix_states(index: Iterable[int], root, extend: Callable) -> list:
    """The state of every tone set in ``index``, at its index as in
    :func:`_tone_sets`, and of its parents, None elsewhere: set 0, ``{0}``,
    has state ``root``, and set i with top tone n has ``extend(state of i
    without n's bit, n)``; each set walks down to the first parent built."""
    states = [None] * 2 ** 11  # one slot per one-octave tone set
    states[0] = root
    for i in index:
        missing = []
        while states[i] is None:
            missing.append(i)
            i ^= 1 << i.bit_length() - 1
        state = states[i]
        for i in reversed(missing):
            state = states[i] = extend(state, i.bit_length())
    return states


@cache
def _octave_pairs(t: TuningTable) -> dict[int, tuple[int, int]]:
    """The pairs of offsets -11..11, every one-octave interval up or down,
    looked up once per tuning for every column pass.  Like the ranked
    columns it is kept for the life of the process; callers only read it."""
    return _ratio_pairs(t, range(-11, 12))


@cache
def _tone_sets() -> dict[tuple[int, ...], int]:
    """The index of every one-octave tone set, the one list of them: its
    keys, 0 and ascending tones of 1..11, are grouped by tone count and
    lexicographic within each count, and are the semitone tuples of every
    enumerated harmony, built once.  Tone n >= 1 is bit n - 1 of the
    index, so set ``i + 2 ** (n - 1)`` is set ``i`` with the new top tone n."""
    bits = [2 ** (n - 1) for n in range(1, 12)]
    return dict(chain.from_iterable(
        zip(map((0,).__add__, combinations(range(1, 12), size)), map(sum, combinations(bits, size)))
        for size in range(12)))


@cache
def _interval_folds(t: TuningTable) -> tuple[int, list[int], list[int]]:
    """``(common, totals, products)``: per one-octave tone set, indexed as
    in :func:`_tone_sets`, the sum of the similarity weights over ``common``
    and the product of the Brefeld factors of all its distances.  A set
    with top tone n adds to the folds of the set without n the folds of n's
    distances to that set's tones, and those in turn extend n's folds to the
    set without its own top tone, so each entry takes one int step.  Like
    :func:`_octave_pairs` it is kept for the life of the process."""
    octave = _octave_pairs(t)
    pairs = {d: octave[d] for d in range(1, 12)}
    factors = _brefeld_factors(pairs)
    common, weights = _similarity_weights(pairs, factors)
    totals, products = [0], [1]
    for n in range(1, 12):
        # per set i of tones below n, the folds of n's distances to its tones
        weights_to_n, factors_to_n = [weights[n]], [factors[n]]
        for top in range(1, n):
            weight, factor = weights[n - top], factors[n - top]
            weights_to_n += [w + weight for w in weights_to_n]
            factors_to_n += [f * factor for f in factors_to_n]
        totals += list(map(add, totals, weights_to_n))
        products += list(map(mul, products, factors_to_n))
    return common, totals, products


def _column_values(harmonies: Sequence[Harmony], measure: str,
                   t: TuningTable) -> dict[str, list[float]]:
    """``{name: [evaluate_measure(h.semitones, name, t) for h in harmonies]}``
    for every measure of ``measure``'s pass, equal by ``repr``: similarity
    and brefeld from the harmony's two ints in the tuning's table of interval
    folds, or both periodicity means, gradus and omega from one lcm state
    per harmony, its views and, per distinct ratio product, one division by
    the primes of the pair table's terms.  Both passes look each harmony up
    once in :func:`_tone_sets`; by that index a harmony's lcm state extends
    that of its parent, the set without its top tone's bit."""
    tones = [h.semitones for h in harmonies]
    index = list(map(_tone_sets().__getitem__, tones))
    if measure in ("similarity", "brefeld"):
        common, totals, products = _interval_folds(t)
        counts = list(map(_pair_count, map(len, tones)))
        return {"similarity": list(map(_similarity_of, map(totals.__getitem__, index),
                                       repeat(common), counts)),
                "brefeld": list(map(_brefeld_of, map(products.__getitem__, index), counts))}
    pairs = _octave_pairs(t)
    # the view from tone m reads tone n at offset n - m, its lowest tone 0 at -m
    rows = [[pairs[n - m][1] for m in range(12)] + [pairs[n][0]] for n in range(12)]
    lowest = [pairs[-m] for m in range(12)]
    # per anchor m, the lcm of den(n - m) over the harmony's tones n, then
    # the lcm of their numerators num(n)
    lcms = _prefix_states(index, rows[0], lambda parent, n: list(map(math.lcm, parent, rows[n])))
    states = list(map(lcms.__getitem__, index))
    means = [_means([_h_prime(state[m], lowest[m]) for m in s]) for s, state in zip(tones, states)]
    # lcm(numerators) * lcm(denominators); anchor 0 reads the lowest-tone ratios
    products = [state[12] * state[0] for state in states]
    # few products recur (87 distinct of 2048 under just): divide each once
    primes = set().union(*map(prime_factor_multiset, set(chain.from_iterable(pairs.values()))))
    factors = {p: tuple(map(float, _gradus_omega(p, primes))) for p in set(products)}
    return {"rel_periodicity": [rel for rel, _ in means],
            "log_periodicity": [log for _, log in means],
            "gradus": [factors[p][0] for p in products], "omega": [factors[p][1] for p in products]}
