"""Exact rational arithmetic: least common multiples, prime factor
multisets, and Stern-Brocot approximation of reals by small fractions.

The approximation routine is a binary search on the Stern-Brocot tree: it
repeatedly forms the mediant ``(a_l + a_r) / (b_l + b_r)`` of the current
left/right bounds and narrows toward the target until the mediant falls in
the requested interval.  Runs of same-direction steps are taken in a single
jump, so the search is fast even for tight precisions, while the recorded
trace still lists every intermediate mediant (each one is the component-wise
sum of its two parent fractions).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .errors import UsageError

__all__ = [
    "ApproximationTrace",
    "approximate",
    "lcm_many",
    "prime_factor_multiset",
]

Real = Union[int, float, Fraction]

#: Bound on recorded mediants, which keeps memory bounded: a jumped run still
#: records each of its steps, and runs grow long near an integer at a fine
#: precision (x = 1.0000001 at p = 1e-9 would record about 10**7).
_MAX_MEDIANTS = 1_000_000


# nothing in the package calls this; it stays because perfbench/worker.py imports it
def lcm_many(values: Iterable[int]) -> int:
    """Return the least common multiple of one or more positive integers.

    >>> lcm_many([1, 5, 3])
    15
    >>> lcm_many([1, 2, 4])
    4
    """
    items = list(values)
    if not items:
        raise UsageError("lcm_many() needs at least one integer")
    for item in items:
        if type(item) is not int or item < 1:
            raise UsageError(f"lcm_many() needs positive integers, got {item!r}")
    return math.lcm(*items)


def prime_factor_multiset(n: int) -> dict[int, int]:
    """Return the prime factorization of ``n`` as a prime -> multiplicity map.

    ``1`` factors into the empty map.

    >>> prime_factor_multiset(120)
    {2: 3, 3: 1, 5: 1}
    """
    if type(n) is not int or n < 1:
        raise UsageError(f"prime_factor_multiset() needs a positive integer, got {n!r}")
    factors: dict[int, int] = {}
    divisor = 2
    while divisor * divisor <= n:
        while n % divisor == 0:
            factors[divisor] = factors.get(divisor, 0) + 1
            n //= divisor
        divisor += 1 if divisor == 2 else 2
    if n > 1:  # a prime above every divisor tried
        factors[n] = 1
    return factors


@dataclass(frozen=True)
class ApproximationTrace:
    """Full record of one mediant search.

    ``mediants`` lists every mediant the plain binary search would visit, in
    order; ``result`` is the accepted fraction (the last mediant, or an
    integer bound accepted before the walk started).
    """

    target: Real
    precision: Real
    mediants: tuple[Fraction, ...]
    result: Fraction


def _mediant(left: Fraction, right: Fraction) -> Fraction:
    return Fraction(
        left.numerator + right.numerator, left.denominator + right.denominator
    )


def approximate(x: Real, p: Real) -> ApproximationTrace:
    """Find the fraction with the smallest denominator within ``p`` of ``x``.

    The result ``a/b`` satisfies ``(1-p)*x <= a/b <= (1+p)*x`` (closed
    interval) and no fraction with a smaller denominator does.  The search
    starts from the two integers bracketing ``x`` and walks mediants between
    them; same-direction runs are jumped in one step of size ``k``.

    Every comparison is exact: ``x`` and ``p`` are compared as
    ``Fraction(x)`` and ``Fraction(p)``, so a float is taken at its exact
    binary value and the result never falls outside the interval.

    >>> approximate(2 ** (7 / 12), 0.01).result
    Fraction(3, 2)
    >>> approximate(5.0, 0.01).result
    Fraction(5, 1)
    """
    if isinstance(x, float) and not math.isfinite(x):
        raise UsageError(f"approximate() needs a finite x, got {x!r}")
    if type(x) is bool or x <= 0:  # a bool is no number
        raise UsageError(f"approximate() needs x > 0, got {x!r}")
    # a subnormal x has no answer within the budget (its denominator would
    # exceed 1/(2x) > 10**307)
    if isinstance(x, float) and x < sys.float_info.min:
        raise UsageError(
            f"approximate() needs a normal float x (at least {sys.float_info.min!r}), "
            f"got {x!r}"
        )
    if not 0 < p < 1:
        raise UsageError(f"approximate() needs a precision in (0, 1), got {p!r}")

    x_min = (1 - Fraction(p)) * Fraction(x)
    x_max = (1 + Fraction(p)) * Fraction(x)

    def accepted(f: Fraction) -> bool:
        return x_min <= f <= x_max

    left = Fraction(math.floor(x))
    right = left + 1
    for bound in (left, right):
        if accepted(bound):
            return ApproximationTrace(x, p, (), bound)

    mediants: list[Fraction] = []
    while len(mediants) < _MAX_MEDIANTS:
        step = _mediant(left, right)
        mediants.append(step)
        if accepted(step):
            return ApproximationTrace(x, p, tuple(mediants), step)
        # The next k plain steps all move the same way; take them at once.
        # left < x_min <= x_max < right, so both divisors are positive, and
        # the step lies outside the interval, so k >= 1.
        downward = step > x_max
        if downward:
            k = (right.numerator - x_max * right.denominator) // (
                x_max * left.denominator - left.numerator
            )
        else:
            k = (x_min * left.denominator - left.numerator) // (
                right.numerator - x_min * right.denominator
            )
        if len(mediants) + k - 1 > _MAX_MEDIANTS:
            break
        node = step
        for _ in range(k - 1):
            node = _mediant(node, left if downward else right)
            mediants.append(node)
        if downward:
            right = node
        else:
            left = node
        # A run can end exactly on the interval edge; accept it there.
        if accepted(node):
            return ApproximationTrace(x, p, tuple(mediants), node)
    # below x = 1/(2 * (budget + 1)) no precision helps: the first run, 1/2,
    # 1/3, ..., must reach some 1/n <= (1+p)x < 2x, which takes n-1 mediants
    advice = (f"x = {x} is too small for that budget at any precision"
              if 2 * x * (_MAX_MEDIANTS + 1) <= 1 else "ask for a coarser precision")
    raise UsageError(
        f"approximate() would record more than {_MAX_MEDIANTS} mediants at "
        f"precision {p}; {advice}"
    )
