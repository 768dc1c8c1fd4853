"""Euler/Bernoulli generator tests.

Frozen polynomial values are the classical first entries; the production
E_n, built from tangent numbers, is cross-checked against the
finite-difference E_n, the triangular recurrence on 2**n E_n, the
truncated power-series-division construction and ``sympy.euler``, none of
which shares code with it. The recurrence over the rationals is kept here
as the oracle of the integer one.
"""

import hashlib
import itertools
import json
import threading
from fractions import Fraction

import pytest
import sympy

from eulerferm.euler import (
    EulerCache,
    EulerRecurrence,
    EulerSeries,
    alt_power_sum,
    bernoulli_poly,
    euler_number,
    euler_poly,
    euler_poly_by_differences,
    euler_poly_shifted,
    euler_polys_by_series,
    euler_zero,
    power_sum,
    tangent_numbers,
)
from eulerferm.numeric import binomial
from eulerferm.polynomial import Polynomial, monomial

F = Fraction

EULER_NUMBERS_0_TO_10 = [1, 0, -1, 0, 5, 0, -61, 0, 1385, 0, -50521]

# sha256 of json.dumps([E_n.to_coeff_strings() for n in 0..135]), recorded
# from the recurrence-built table before the tangent-number table replaced it
EULER_0_TO_135_SHA256 = \
    "679301992fbd1c5f9722edb43f5ce507312f70171e8b6a52d9dddc88ac9176d7"


def test_first_euler_polynomials():
    assert euler_poly(0) == Polynomial([F(1)])
    assert euler_poly(1) == Polynomial([F(-1, 2), F(1)])
    assert euler_poly(2) == Polynomial([F(0), F(-1), F(1)])
    assert euler_poly(3) == Polynomial([F(1, 4), F(0), F(-3, 2), F(1)])


def test_monic_of_exact_degree():
    for n in range(41):
        p = euler_poly(n)
        assert p.degree == n
        assert p.coeffs[-1] == 1


def test_value_at_zero_vanishes_for_even_index():
    for n in range(2, 41, 2):
        assert euler_zero(n) == 0
    assert euler_zero(0) == 1
    assert euler_zero(1) == F(-1, 2)
    assert euler_zero(3) == F(1, 4)


def test_coefficient_denominators_are_powers_of_two():
    for n in range(51):
        for c in euler_poly(n).coeffs:
            d = c.denominator
            assert d & (d - 1) == 0, (n, c)


def test_euler_numbers_frozen_and_integral():
    assert [euler_number(n) for n in range(11)] == EULER_NUMBERS_0_TO_10
    for n in range(1, 42, 2):
        assert euler_number(n) == 0
    for n in range(42):
        assert isinstance(euler_number(n), int)


def test_tangent_numbers_first_values():
    assert list(itertools.islice(tangent_numbers(), 7)) == \
        [1, 2, 16, 272, 7936, 353792, 22368256]


def test_tangent_table_equals_recurrence_table():
    cache, recurrence = EulerCache(), EulerRecurrence()
    for n in range(61):
        assert cache.euler_poly(n) == recurrence.euler_poly(n), n
    assert recurrence.terms == 61


class FractionRecurrence:
    """E_n(x) = x**n - (1/2) sum_{k<n} C(n, k) E_k(x) over the rationals,
    the oracle of the integer recurrence on 2**n E_n."""

    def __init__(self):
        self._table = []

    def euler_poly(self, n):
        table = self._table
        while len(table) <= n:
            m = len(table)
            acc = Polynomial()
            for k in range(m):
                acc = acc + binomial(m, k) * table[k]
            table.append(monomial(m, F(1)) - F(1, 2) * acc)
        return table[n]


def test_integer_recurrence_equals_fraction_recurrence():
    integer, rational = EulerRecurrence(), FractionRecurrence()
    for n in range(61):
        assert integer.euler_poly(n) == rational.euler_poly(n), n
    # a smaller n reads the table, it does not grow it
    assert integer.euler_poly(7) == rational.euler_poly(7)
    assert integer.terms == 61


def test_finite_difference_oracle_equals_tangent_table():
    cache = EulerCache()
    for n in range(121):
        assert euler_poly_by_differences(n) == cache.euler_poly(n), n
    with pytest.raises(ValueError):
        euler_poly_by_differences(-1)


def test_tangent_table_equals_sympy():
    x = sympy.Symbol("x")
    cache = EulerCache()
    for n in range(30):
        coeffs = reversed(sympy.Poly(sympy.euler(n, x), x).all_coeffs())
        expected = Polynomial([F(int(c.p), int(c.q)) for c in coeffs])
        assert cache.euler_poly(n) == expected, n


def test_series_division_oracle_agrees_with_recurrence():
    series = euler_polys_by_series(21)
    for n in range(21):
        assert series[n] == euler_poly(n), n


def test_series_grows_one_quotient_list():
    series = EulerSeries()
    assert series.euler_poly(6) == euler_poly(6)
    assert series.terms == 7
    assert series.euler_poly(3) == euler_poly(3)
    assert series.terms == 7


def test_euler_numbers_from_series_oracle():
    series = euler_polys_by_series(11)
    oracle = [2 ** n * series[n](F(1, 2)) for n in range(11)]
    assert oracle == EULER_NUMBERS_0_TO_10


def test_defining_functional_equation():
    for n in range(41):
        lhs = euler_poly_shifted(n, 1, 1) + euler_poly(n)
        assert lhs == monomial(n, F(2)), n


def test_reflection_and_complement():
    for n in range(41):
        assert euler_poly_shifted(n, -1, 1) == (-1) ** n * euler_poly(n)
        lhs = (-1) ** n * euler_poly_shifted(n, -1, 0) + euler_poly(n)
        assert lhs == monomial(n, F(2))


def test_boundary_values():
    assert euler_poly(0)(F(1)) == 1
    for n in range(1, 41):
        assert euler_poly(n)(F(1)) == -euler_zero(n)


def test_first_bernoulli_polynomials():
    assert bernoulli_poly(0) == Polynomial([F(1)])
    assert bernoulli_poly(1) == Polynomial([F(-1, 2), F(1)])
    assert bernoulli_poly(2) == Polynomial([F(1, 6), F(-1), F(1)])


def test_bernoulli_defining_recurrence():
    for n in range(16):
        acc = Polynomial()
        for k in range(n + 1):
            acc = acc + binomial(n + 1, k) * bernoulli_poly(k)
        assert acc == monomial(n, F(n + 1)), n


def test_power_sum_values():
    assert power_sum(4, 1) == 10
    assert power_sum(3, 2) == 14
    assert alt_power_sum(3, 2) == -6
    for n in range(6):
        assert alt_power_sum(1, n) == -1


def test_power_sum_closed_forms():
    for m in range(1, 13):
        for n in range(7):
            b = bernoulli_poly(n + 1)
            closed = (b(F(m + 1)) - b(F(0))) / (n + 1)
            assert (1 if n == 0 else 0) + power_sum(m, n) == closed
            closed_alt = ((-1) ** m * euler_poly(n)(F(m + 1)) + euler_zero(n)) / 2
            assert (1 if n == 0 else 0) + alt_power_sum(m, n) == closed_alt


def test_power_sum_preconditions():
    with pytest.raises(ValueError):
        power_sum(0, 3)
    with pytest.raises(ValueError):
        alt_power_sum(1, -1)
    with pytest.raises(ValueError):
        euler_poly(-1)
    with pytest.raises(ValueError):
        bernoulli_poly(-1)


def test_shifted_examples():
    assert euler_poly_shifted(2, -1, 0) == Polynomial([F(0), F(1), F(1)])
    assert euler_poly_shifted(5, 1, 0) == euler_poly(5)
    assert euler_poly_shifted(1, 1, 1) == Polynomial([F(1, 2), F(1)])


def test_fresh_cache_matches_default():
    cache = EulerCache()
    assert cache.euler_poly(12) == euler_poly(12)
    assert cache.bernoulli_poly(9) == bernoulli_poly(9)
    assert cache.euler_number(10) == -50521


def test_concurrent_cache_use_is_deterministic():
    cache = EulerCache()
    results = {}
    start = threading.Barrier(4)

    def worker(tag):
        start.wait()
        results[tag] = [cache.euler_poly(n) for n in range(136)]

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    expected = [euler_poly(n) for n in range(136)]
    digest = hashlib.sha256(json.dumps(
        [p.to_coeff_strings() for p in expected]).encode()).hexdigest()
    assert digest == EULER_0_TO_135_SHA256
    assert len(results) == 4
    for tag in results:
        assert results[tag] == expected
