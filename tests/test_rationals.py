"""Rational approximation: lcm helpers and the Stern-Brocot search."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from harmonicity import (
    ApproximationTrace,
    UsageError,
    approximate,
    lcm_many,
    prime_factor_multiset,
)


class Count(int):
    """An int subclass: the integer arguments take plain ints only."""


def brute_force_candidates(x: Fraction, p: Fraction) -> tuple[int, int, int]:
    """(lowest numerator, highest numerator, denominator) of the fractions
    with the smallest possible denominator inside [(1-p)x, (1+p)x] — by
    exhaustive scan, independent of the search under test."""
    lo, hi = (1 - p) * x, (1 + p) * x
    den = 1
    while True:
        num_lo = math.ceil(lo * den)
        num_hi = math.floor(hi * den)
        if num_lo <= num_hi:
            return num_lo, num_hi, den
        den += 1


def plain_walk(x: Fraction, p: Fraction) -> tuple[tuple[Fraction, ...], Fraction]:
    """``(mediants, result)`` of the Stern-Brocot walk that takes one mediant
    at a time, without the search's jumped runs."""
    lo, hi = (1 - p) * x, (1 + p) * x
    left = Fraction(math.floor(x))
    right = left + 1
    for bound in (left, right):
        if lo <= bound <= hi:
            return (), bound
    mediants = []
    while True:
        step = Fraction(left.numerator + right.numerator, left.denominator + right.denominator)
        mediants.append(step)
        if lo <= step <= hi:
            return tuple(mediants), step
        if step > hi:
            right = step
        else:
            left = step


class TestLcmMany:
    def test_examples(self):
        assert lcm_many([2, 4]) == 4
        assert lcm_many([1, 5, 3]) == 15
        assert lcm_many([8, 3, 5]) == 120

    def test_single(self):
        assert lcm_many([7]) == 7

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            lcm_many([])

    def test_nonpositive_rejected(self):
        with pytest.raises(UsageError):
            lcm_many([4, 0])
        with pytest.raises(UsageError):
            lcm_many([-3])

    @pytest.mark.parametrize("item", [True, 3.0, Count(3)], ids=["bool", "float", "int-subclass"])
    def test_only_a_plain_int_is_a_term(self, item):
        # True would count as 1 and leave lcm_many([True, 3]) at 3
        with pytest.raises(UsageError, match=f"^lcm_many\\(\\) needs positive integers, got {item!r}$"):
            lcm_many([item, 3])

    @given(st.lists(st.integers(1, 300), min_size=1, max_size=6))
    def test_is_common_multiple_and_minimal(self, values):
        result = lcm_many(values)
        assert all(result % v == 0 for v in values)
        # minimal iff no prime can be divided out while staying a multiple
        for prime in prime_factor_multiset(result):
            smaller = result // prime
            assert not all(smaller % v == 0 for v in values)


class TestPrimeFactorMultiset:
    def test_examples(self):
        assert prime_factor_multiset(60) == {2: 2, 3: 1, 5: 1}
        assert prime_factor_multiset(1) == {}
        assert prime_factor_multiset(97) == {97: 1}

    def test_nonpositive_rejected(self):
        with pytest.raises(UsageError):
            prime_factor_multiset(0)

    @pytest.mark.parametrize("n", [True, 12.0, Count(12)], ids=["bool", "float", "int-subclass"])
    def test_only_a_plain_int_is_factored(self, n):
        # True would factor as 1, into the empty map
        with pytest.raises(UsageError, match=(
                f"^prime_factor_multiset\\(\\) needs a positive integer, got {n!r}$")):
            prime_factor_multiset(n)

    @given(st.integers(1, 100000))
    def test_reconstructs(self, n):
        factors = prime_factor_multiset(n)
        product = 1
        for prime, multiplicity in factors.items():
            product *= prime**multiplicity
        assert product == n


class TestApproximate:
    def test_fifth(self):
        trace = approximate(1.5, 0.01)
        assert trace.result == Fraction(3, 2)

    def test_tritone(self):
        trace = approximate(2 ** (6 / 12), 0.01)
        assert trace.result == Fraction(17, 12)

    def test_integer_seed(self):
        # whole numbers are their own best approximation
        trace = approximate(5.0, 0.01)
        assert trace.result == Fraction(5, 1)
        assert trace.mediants == ()

    def test_minor_second_just(self):
        assert approximate(2 ** (1 / 12), 0.011).result == Fraction(16, 15)

    def test_half(self):
        assert approximate(0.5, 0.01).result == Fraction(1, 2)

    def test_jumped_run_ending_on_the_interval_edge(self):
        # x = 1/4, p = 1/3: the run 1/2, 1/3 towards 0 ends on (1 + p) * x
        trace = approximate(Fraction(1, 4), Fraction(1, 3))
        assert trace.mediants == (Fraction(1, 2), Fraction(1, 3))
        assert trace.result == Fraction(1, 3)

    @pytest.mark.parametrize("p", [Fraction(1, n) for n in (2, 3, 4, 5, 10, 100)], ids=str)
    def test_jumped_runs_equal_the_plain_walk(self, p):
        # every x = a/b in (0, 4) with b <= 24, exact, so that runs can end
        # on either edge of the interval
        for b in range(1, 25):
            for a in range(1, 4 * b):
                x = Fraction(a, b)
                trace = approximate(x, p)
                assert (trace.mediants, trace.result) == plain_walk(x, p), (x, p)

    def test_nonpositive_value_rejected(self):
        with pytest.raises(UsageError):
            approximate(0.0, 0.01)
        with pytest.raises(UsageError):
            approximate(-2.0, 0.01)

    def test_precision_bounds(self):
        with pytest.raises(UsageError):
            approximate(1.5, 0.0)
        with pytest.raises(UsageError):
            approximate(1.5, 1.5)
        # ~10**7 mediants near an integer: refused before any run is stored
        with pytest.raises(UsageError, match="mediants at precision 1e-09"):
            approximate(1.0000001, 1e-9)
        # subnormal x: 1/(2x) overflowed the run length, and (1-p)*x
        # underflowed to 0, which was accepted as the approximation
        with pytest.raises(UsageError, match="normal float"):
            approximate(1e-310, 0.01)
        with pytest.raises(UsageError, match="normal float"):
            approximate(5e-324, 0.5)

    def test_exact_fraction_mode(self):
        # Fraction input keeps the interval arithmetic exact
        trace = approximate(Fraction(355, 113), Fraction(1, 10**6))
        assert trace.result == Fraction(355, 113)

    def test_float_input_compared_exactly(self):
        # 44/37 lies 9.5e-17*x below (1-p)*x, a gap double rounding hides
        x, p = 2 ** (3 / 12), 1.5073752339334055e-05
        result = approximate(x, p).result
        assert result == Fraction(905, 761)
        assert (1 - Fraction(p)) * Fraction(x) <= result <= (1 + Fraction(p)) * Fraction(x)

    def test_trace_is_mediant_chain(self):
        trace = approximate(2 ** (7 / 12), 0.001)
        assert isinstance(trace, ApproximationTrace)
        # every recorded mediant is the component sum of its two parents,
        # replayed by simulating the plain walk
        lo, hi = Fraction(1, 1), Fraction(2, 1)
        lo_parts, hi_parts = (lo.numerator, lo.denominator), (2, 1)
        x = trace.target
        for mediant in trace.mediants:
            expected = Fraction(
                lo_parts[0] + hi_parts[0], lo_parts[1] + hi_parts[1]
            )
            assert mediant == expected
            if mediant < x:
                lo_parts = (mediant.numerator, mediant.denominator)
            else:
                hi_parts = (mediant.numerator, mediant.denominator)
        assert trace.result == trace.mediants[-1]

    @settings(max_examples=300)
    @given(
        st.floats(0.1, 20.0, allow_nan=False, allow_infinity=False),
        st.floats(0.001, 0.05),
    )
    # float bounds would admit 7/5, which lies just outside the exact interval
    @example(2 ** (6 / 12), 0.010050506338833533)
    def test_minimal_denominator_property(self, x, p):
        result = approximate(x, p).result
        exact_x, exact_p = Fraction(x), Fraction(p)
        lo, hi = (1 - exact_p) * exact_x, (1 + exact_p) * exact_x
        assert lo <= result <= hi
        num_lo, num_hi, den = brute_force_candidates(exact_x, exact_p)
        assert result.denominator == den
        assert num_lo <= result.numerator <= num_hi
