"""Euler/Bernoulli generator tests.

Frozen polynomial values are the classical first entries; the production
E_n, built from tangent numbers, is cross-checked against the
finite-difference E_n, the triangular recurrence on 2**n E_n and
``sympy.euler``, none of which shares code with it. The recurrence over
the rationals is kept here as the oracle of the integer one. The
production B_n, read from the same tangent numbers, is cross-checked
against its defining recurrence over the rationals and ``sympy.bernoulli``.
The scalars E_n(0) and E_n = 2**n E_n(1/2), read from the same column
without building E_n, are cross-checked against the constant coefficient
of the table, against Horner's rule at 1/2 over the rationals (the route
they replaced) and against ``sympy.euler``.
"""

import hashlib
import itertools
import json
import math
import random
import sys
import threading
from fractions import Fraction

import pytest
import sympy

from eulerferm import euler
from eulerferm.euler import (
    EulerCache,
    EulerRecurrence,
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
from eulerferm.identities import SweepGrid, run_suite
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


def test_euler_numbers_equal_horner_at_one_half():
    cache = EulerCache()
    for n in range(201):
        value = 2 ** n * cache.euler_poly(n)(F(1, 2))
        assert value.denominator == 1, n
        assert cache.euler_number(n) == value, n


def _euler_number_by_row(cache, n):
    """2**n E_n(1/2) = sum_k C(n, k) s_k summed afresh from the column: the
    per-call row sum that the memo of Euler numbers replaced."""
    total, c = 0, 1   # c = C(n, k), carried along the row
    for k, s in enumerate(cache._column(n)[:n + 1]):
        total += c * s
        c = c * (n - k) // (k + 1)
    return total


def test_kept_euler_numbers_equal_the_row_sum():
    # read upwards on a fresh cache, the memo grows one number at a time
    cache = EulerCache()
    for n in range(301):
        assert cache.euler_number(n) == _euler_number_by_row(cache, n), n
    # after other reads have run the column past every number read, and
    # read downwards
    cache = EulerCache()
    cache.euler_zero(400)
    cache.euler_poly(120)
    for n in range(300, -1, -1):
        assert cache.euler_number(n) == _euler_number_by_row(cache, n), n
    assert len(cache._numbers) == 301
    assert len(cache._zeros) == 401
    # and in a shuffled order, with the column extended between reads
    cache = EulerCache()
    order = list(range(301))
    random.Random(34).shuffle(order)
    for i, n in enumerate(order):
        if i % 50 == 0:
            cache.euler_zero(n + 60)
        assert cache.euler_number(n) == _euler_number_by_row(cache, n), n
    for n in (-1, -7):
        with pytest.raises(ValueError, match=f"^n must be >= 0, got {n}$"):
            cache.euler_number(n)
    # a cold high read sums one row, not every row below it
    cache = EulerCache()
    assert cache.euler_number(1000) == _euler_number_by_row(cache, 1000)
    assert list(cache._numbers) == [1000]


def test_euler_numbers_equal_sympy():
    # sympy takes the same convention, E_2 = -1
    cache = EulerCache()
    for n in range(61):
        assert cache.euler_number(n) == sympy.euler(n), n


def test_euler_zero_is_the_table_constant_coefficient():
    cache = EulerCache()
    for n in range(201):
        assert cache.euler_zero(n) == cache.euler_poly(n).coeffs[0], n


# the checkers that read only E_k(0), through zero_sum or euler_zero
_E_ZERO_IDS = ("cro0", "cro1", "cro2", "recurrence_odd", "thm2_cro1",
               "thm2_cro2", "thm3_1a", "thm3_1b", "thm3_1c", "thm3_1d",
               "rem2_1")


def test_scalar_reads_build_no_polynomial(monkeypatch):
    cache = EulerCache()
    monkeypatch.setattr(euler, "_CACHE", cache)
    euler_zero(2001)
    euler_number(1000)
    reports = run_suite(["cro2", "recurrence_odd"], SweepGrid(n=(1000,)))
    small = SweepGrid(m=tuple(range(9)), n=tuple(range(9)),
                      q=(1, 2, 3, 4, 5), k=tuple(range(7)))
    reports += run_suite(_E_ZERO_IDS, small)
    assert {r.checker for r in reports} == set(_E_ZERO_IDS)
    assert all(r.passed for r in reports)
    assert sorted(cache._euler) == []   # the degrees built, if any


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


class FractionBernoulli:
    """B_n by sum_{k<=n} C(n+1, k) B_k(x) = (n+1) x**n over the rationals:
    O(n**3) and reads no tangent number, the oracle of the B_n table."""

    def __init__(self):
        self._table = []

    def bernoulli_poly(self, n):
        table = self._table
        while len(table) <= n:
            m = len(table)
            acc = Polynomial()
            for k in range(m):
                acc = acc + binomial(m + 1, k) * table[k]
            table.append((monomial(m, F(m + 1)) - acc) * F(1, m + 1))
        return table[n]


def test_bernoulli_table_equals_recurrence():
    cache, oracle = EulerCache(), FractionBernoulli()
    for n in range(61):
        assert cache.bernoulli_poly(n) == oracle.bernoulli_poly(n), n
    # B_n reads the column s_k, not the E_n table
    assert cache._euler == {}


def test_bernoulli_table_equals_sympy():
    # sympy's Bernoulli numbers take B_1 = +1/2, but its B_1(x) is x - 1/2
    x = sympy.Symbol("x")
    cache = EulerCache()
    for n in range(31):
        coeffs = reversed(sympy.Poly(sympy.bernoulli(n, x), x).all_coeffs())
        expected = Polynomial([F(int(c.p), int(c.q)) for c in coeffs])
        assert cache.bernoulli_poly(n) == expected, n


def _appell_by_comb(at_zero, zeros, n: int) -> Polynomial:
    """sum_i C(n, i) P_(n-i)(0) x**i with each C(n, i) from ``math.comb``:
    the table build before the binomial was carried along the row."""
    pairs = [at_zero(zeros, k) for k in range(n, -1, -1)]
    den = math.lcm(*(d for _, d in pairs))
    return Polynomial.scaled([math.comb(n, i) * num * (den // d)
                              for i, (num, d) in enumerate(pairs)], den)


def test_tables_equal_the_per_coefficient_binomial_build():
    # E_n and B_n for n <= 300, read in a shuffled order, so that a row
    # is built with the column already past it
    cache = EulerCache()
    zeros = cache._column(300)
    order = list(range(301))
    random.Random(35).shuffle(order)
    for n in order:
        assert cache.euler_poly(n) == _appell_by_comb(
            EulerCache._euler_at_zero, zeros, n), n
        assert cache.bernoulli_poly(n) == _appell_by_comb(
            EulerCache._bernoulli_at_zero, zeros, n), n


def test_finite_difference_oracle_equals_tangent_table():
    cache = EulerCache()
    for n in range(121):
        assert euler_poly_by_differences(n) == cache.euler_poly(n), n
    with pytest.raises(ValueError):
        euler_poly_by_differences(-1)


def _difference_weights_by_double_sum(n):
    """c_j = sum_{k=j..n} 2**(n-k) C(k, j), summed as written."""
    return [sum(math.comb(k, j) << (n - k) for k in range(j, n + 1))
            for j in range(n + 1)]


def test_difference_weights_equal_double_sum():
    # the closed form c_j = 2**(n+1) - sum_{i<=j} C(n+1, i) against the
    # definition; c_n = 1 and c_0 = 2**(n+1) - 1 at every n
    for n in [*range(61), 119, 150, 199]:
        weights = euler._difference_weights(n)
        assert weights == _difference_weights_by_double_sum(n), n
        assert weights[0] == (1 << (n + 1)) - 1 and weights[-1] == 1


def test_tangent_table_equals_sympy():
    x = sympy.Symbol("x")
    cache = EulerCache()
    for n in range(30):
        coeffs = reversed(sympy.Poly(sympy.euler(n, x), x).all_coeffs())
        expected = Polynomial([F(int(c.p), int(c.q)) for c in coeffs])
        assert cache.euler_poly(n) == expected, n


def test_euler_polys_by_series_equals_table():
    assert euler_polys_by_series(21) == [euler_poly(n) for n in range(21)]
    assert euler_polys_by_series(0) == []
    with pytest.raises(ValueError, match="count must be >= 0, got -1"):
        euler_polys_by_series(-1)


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
    # the j = 0 term is 0**n, so 1 at n = 0 and 0 beyond
    assert alt_power_sum(1, 0) == 0
    for n in range(1, 6):
        assert alt_power_sum(1, n) == -1
    for n in range(6):
        assert power_sum(0, n) == alt_power_sum(0, n) == (1 if n == 0 else 0)


def test_power_sum_closed_forms():
    for m in range(13):
        for n in range(7):
            b = bernoulli_poly(n + 1)
            closed = (b(F(m + 1)) - b(F(0))) / (n + 1)
            assert power_sum(m, n) == closed
            closed_alt = ((-1) ** m * euler_poly(n)(F(m + 1)) + euler_zero(n)) / 2
            assert alt_power_sum(m, n) == closed_alt


def test_power_sum_preconditions():
    with pytest.raises(ValueError):
        power_sum(-1, 3)
    with pytest.raises(ValueError):
        alt_power_sum(-1, 0)
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


class _CountingLock:
    """Wraps a lock and counts how often it is taken."""

    def __init__(self, lock):
        self.lock, self.taken = lock, 0

    def __enter__(self):
        self.taken += 1
        return self.lock.__enter__()

    def __exit__(self, *exc):
        return self.lock.__exit__(*exc)


# the public reads of a cache at index n, by name
_READS = {
    "euler_poly": lambda c, n: c.euler_poly(n),
    "bernoulli_poly": lambda c, n: c.bernoulli_poly(n),
    "euler_sum": lambda c, n: c.euler_sum([(1, n)], [(F(-2, 3), n)]),
    "zero_sum": lambda c, n: c.zero_sum([(binomial(n, k), k)
                                         for k in range(n + 1)]),
    "euler_zero": lambda c, n: c.euler_zero(n),
    "euler_number": lambda c, n: c.euler_number(n),
    # A_c(M, N, 1) with M = n // 12 and N = n % 12: read upwards, an entry's
    # Pascal neighbours n - 12 and n - 11 are cached; read downwards, not
    "binomial_sum": lambda c, n: c.binomial_sum(n // 12, n % 12, 1, F(-3, 2)),
}


def test_warm_reads_take_no_lock():
    cache = EulerCache()
    lock = cache._lock = _CountingLock(cache._lock)
    for n in range(41):
        cache.euler_poly(n)
        cache.bernoulli_poly(n)
        cache.euler_number(n)
        _READS["binomial_sum"](cache, n)
    assert lock.taken > 0
    lock.taken = 0
    for n in range(41):
        for read in _READS.values():
            read(cache, n)
    assert lock.taken == 0
    # a miss on each of the five tables extends it under the lock
    for miss in (lambda: cache.euler_poly(41), lambda: cache.bernoulli_poly(41),
                 lambda: cache.euler_zero(42), lambda: cache.euler_number(41),
                 lambda: _READS["binomial_sum"](cache, 41)):
        lock.taken = 0
        miss()
        assert lock.taken > 0


def test_concurrent_cache_use_is_deterministic():
    cache = EulerCache()
    results = {}
    start = threading.Barrier(4)
    names = list(_READS)

    def worker(tag):
        # each thread starts the rotation of reads at its own name, and
        # every other thread walks n downwards, so misses interleave
        order = range(136) if tag % 2 == 0 else range(135, -1, -1)
        reads = names[tag:] + names[:tag]
        start.wait()
        results[tag] = {(name, n): _READS[name](cache, n)
                        for n in order for name in reads}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)   # switch threads as often as possible
    try:
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    serial = EulerCache()
    expected = {(name, n): read(serial, n)
                for name, read in _READS.items() for n in range(136)}
    digest = hashlib.sha256(json.dumps(
        [expected["euler_poly", n].to_coeff_strings()
         for n in range(136)]).encode()).hexdigest()
    assert digest == EULER_0_TO_135_SHA256
    assert len(results) == 4
    for tag in results:
        assert results[tag] == expected


def test_column_extension_is_serialized():
    # thread A parks inside the column's extension, at the second tangent
    # number; thread B, asking for the same column, must wait for A's lock
    # rather than step into the shared generator
    cache = EulerCache()
    parked, release = threading.Event(), threading.Event()

    def tangents():
        for j, t in enumerate(tangent_numbers(), 1):
            if j == 2:
                parked.set()
                release.wait(10)
            yield t

    cache._tangents = tangents()
    a = threading.Thread(target=cache._column, args=(9,))
    a.start()
    try:
        assert parked.wait(10)
        b = threading.Thread(target=cache._column, args=(9,))
        b.start()
        b.join(0.2)
        assert b.is_alive()
    finally:
        release.set()
    a.join(10)
    b.join(10)
    assert not a.is_alive() and not b.is_alive()
    assert cache._zeros == EulerCache()._column(9)


def test_a_table_build_reads_the_column_once():
    # an E_n or B_n build extends the column once and reads every s_k it
    # needs from it: s_0..s_n for E_n, s_0..s_(n-1) for B_n
    cache = EulerCache()
    calls, column = [], cache._column
    cache._column = lambda *ks: calls.append(ks) or column(*ks)
    assert cache.euler_poly(40) == EulerCache().euler_poly(40)
    assert calls == [(40,)]
    calls.clear()
    assert cache.bernoulli_poly(41) == EulerCache().bernoulli_poly(41)
    assert calls == [(40,)]
    # B_0 = 1 reads no s_k, and the column stays empty
    fresh = EulerCache()
    assert fresh.bernoulli_poly(0) == 1
    assert fresh.table_sizes()["tangent column"] == 0
