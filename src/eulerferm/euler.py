"""Exact generators for Euler polynomials E_n(a), Bernoulli polynomials
B_n(a), Euler numbers E_n = 2**n * E_n(1/2), and the classical power sums.

The production path for E_n is the triangular recurrence

    E_n(x) = x**n - (1/2) * sum_{k<n} C(n, k) E_k(x),

obtained by multiplying the generating function 2 e^{a t} / (e^t + 1) through
by (e^t + 1) / 2 and comparing coefficients. An independent construction by
truncated exact power-series division of the generating function itself is
provided (`EulerSeries`, `euler_polys_by_series`) and is used as a
cross-check oracle, never as the production path.

Integer-weighted sums of E_n(a) and E_n(-a) (`euler_sum`) run over the
integers: each E_n is also kept as integer numerators over the lcm of its
coefficient denominators, the weighted numerators are added up over one
common denominator, and that denominator is divided out once at the end.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from math import factorial

from .numeric import binomial, common_denominator
from .polynomial import Polynomial, monomial

__all__ = [
    "EulerCache",
    "EulerSeries",
    "euler_poly",
    "euler_number",
    "euler_zero",
    "euler_poly_shifted",
    "euler_sum",
    "bernoulli_poly",
    "alt_power_sum",
    "power_sum",
    "euler_polys_by_series",
]


class EulerCache:
    """Append-only memo tables for the polynomial sequences, and the
    integer view of E_n (numerators over one denominator) that
    ``euler_sum`` adds up.

    Identity sweeps re-request the same E_n thousands of times, so
    memoization is mandatory. A single lock guards table extension, which
    keeps one shared instance safe under concurrent sweeps; results are
    deterministic either way.
    """

    def __init__(self):
        self._euler: list[Polynomial] = []
        self._bernoulli: list[Polynomial] = []
        self._shifted: dict = {}
        self._scaled: list[tuple[tuple[int, ...], int]] = []
        self._lock = threading.RLock()

    def euler_poly(self, n: int) -> Polynomial:
        """E_n as a monic degree-n polynomial with dyadic-rational coefficients."""
        if n < 0:
            raise ValueError(f"euler_poly: n must be >= 0, got {n}")
        with self._lock:
            while len(self._euler) <= n:
                m = len(self._euler)
                acc = Polynomial()
                for k in range(m):
                    acc = acc + binomial(m, k) * self._euler[k]
                self._euler.append(monomial(m, Fraction(1)) - Fraction(1, 2) * acc)
            return self._euler[n]

    def bernoulli_poly(self, n: int) -> Polynomial:
        """B_n via sum_{k<=n} C(n+1, k) B_k(x) = (n+1) x**n."""
        if n < 0:
            raise ValueError(f"bernoulli_poly: n must be >= 0, got {n}")
        with self._lock:
            while len(self._bernoulli) <= n:
                m = len(self._bernoulli)
                acc = Polynomial()
                for k in range(m):
                    acc = acc + binomial(m + 1, k) * self._bernoulli[k]
                p = (monomial(m, Fraction(m + 1)) - acc) * Fraction(1, m + 1)
                self._bernoulli.append(p)
            return self._bernoulli[n]

    def euler_poly_shifted(self, n: int, u, v) -> Polynomial:
        """E_n(u*a + v) expanded as a polynomial in a; memoized per (n, u, v)."""
        key = (n, Fraction(u), Fraction(v))
        with self._lock:
            got = self._shifted.get(key)
            if got is None:
                got = self.euler_poly(n).compose_affine(key[1], key[2])
                self._shifted[key] = got
            return got

    def euler_scaled(self, n: int) -> tuple[tuple[int, ...], int]:
        """E_n as (numerators, d): coefficient i of E_n is numerators[i] / d.

        d is the lcm of the coefficient denominators, read from the table
        entry: for the recurrence's E_n it divides 2**n, but that is not
        assumed.
        """
        with self._lock:
            while len(self._scaled) <= n:
                self._scaled.append(common_denominator(
                    self.euler_poly(len(self._scaled)).coeffs))
            return self._scaled[n]

    def euler_sum(self, terms=(), neg_terms=()) -> Polynomial:
        """sum c E_n(a) over (c, n) in terms + sum c E_n(-a) over neg_terms.

        Weights c are integers. Terms of weight 0 are skipped before E_n is
        looked up, so a binomial weight C(r, k) = 0 with k > r keeps a
        negative index out. The numerators are summed as integers over the
        lcm of the denominators involved, which is divided out once.
        """
        parts = [(c, 1, self.euler_scaled(n)) for c, n in terms if c] + \
            [(c, -1, self.euler_scaled(n)) for c, n in neg_terms if c]
        den = math.lcm(*(d for _, _, (_, d) in parts))
        acc = [0] * max((len(nums) for _, _, (nums, _) in parts), default=0)
        for c, step, (nums, d) in parts:
            w = c * (den // d)
            for i, v in enumerate(nums):
                acc[i] += w * v
                w *= step   # in E_n(-a) the sign alternates with the power
        return Polynomial([Fraction(v, den) for v in acc])

    def euler_number(self, n: int) -> int:
        """2**n * E_n(1/2); always an integer (asserted, not assumed)."""
        value = 2 ** n * self.euler_poly(n)(Fraction(1, 2))
        if value.denominator != 1:
            raise AssertionError(f"euler_number({n}) not integral: {value}")
        return int(value)

    def euler_zero(self, n: int) -> Fraction:
        """E_n(0), read off as the constant coefficient."""
        p = self.euler_poly(n)
        return p.coeffs[0] if p.coeffs else Fraction(0)


_CACHE = EulerCache()


def euler_poly(n: int) -> Polynomial:
    return _CACHE.euler_poly(n)


def bernoulli_poly(n: int) -> Polynomial:
    return _CACHE.bernoulli_poly(n)


def euler_poly_shifted(n: int, u, v) -> Polynomial:
    return _CACHE.euler_poly_shifted(n, u, v)


def euler_sum(terms=(), neg_terms=()) -> Polynomial:
    return _CACHE.euler_sum(terms, neg_terms)


def euler_number(n: int) -> int:
    return _CACHE.euler_number(n)


def euler_zero(n: int) -> Fraction:
    return _CACHE.euler_zero(n)


def alt_power_sum(m: int, n: int):
    """Direct alternating power sum: sum_{j=1}^{m} (-1)**j * j**n.

    Closed form (checked elsewhere): ((-1)**m E_n(m+1) + E_n(0)) / 2.
    """
    if m < 1 or n < 0:
        raise ValueError(f"alt_power_sum: need m >= 1, n >= 0, got ({m}, {n})")
    total = 0
    sign = -1
    for j in range(1, m + 1):
        total += sign * j ** n
        sign = -sign
    return total


def power_sum(m: int, n: int):
    """Direct power sum: sum_{j=1}^{m} j**n.

    Closed form (checked elsewhere): (B_{n+1}(m+1) - B_{n+1}(0)) / (n+1).
    """
    if m < 1 or n < 0:
        raise ValueError(f"power_sum: need m >= 1, n >= 0, got ({m}, {n})")
    return sum(j ** n for j in range(1, m + 1))


class EulerSeries:
    """E_n by truncated exact division of 2 e^{a t} / (e^t + 1).

    Independent of the triangular recurrence: the numerator coefficient of
    t**k is the polynomial 2 a**k / k!, the denominator coefficient is 2 for
    k = 0 and 1 / k! for k >= 1, and the quotient is computed term by term.
    E_n is n! times the quotient coefficient of t**n. One quotient list
    grows on demand, never past the largest n requested.
    """

    def __init__(self):
        self._quot: list[Polynomial] = []
        self._lock = threading.Lock()

    @property
    def terms(self) -> int:
        """Number of quotient terms computed so far."""
        return len(self._quot)

    def euler_poly(self, n: int) -> Polynomial:
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        with self._lock:
            quot = self._quot
            while len(quot) <= n:
                k = len(quot)
                acc = monomial(k, Fraction(2, factorial(k)))
                for i in range(1, k + 1):
                    acc = acc - Fraction(1, factorial(i)) * quot[k - i]
                quot.append(acc * Fraction(1, 2))
            return factorial(n) * quot[n]


def euler_polys_by_series(count: int) -> list[Polynomial]:
    """E_0 .. E_{count-1} from a fresh `EulerSeries`."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    series = EulerSeries()
    return [series.euler_poly(n) for n in range(count)]
