"""Exact generators for Euler polynomials E_n(a), Bernoulli polynomials
B_n(a), Euler numbers E_n = 2**n * E_n(1/2), and the classical power sums.

The production path for E_n is the binomial expansion

    E_n(x) = sum_k C(n, k) E_k(0) x**(n-k),

read from the integers s_k = 2**k E_k(0): s_0 = 1, s_k = 0 for even
k >= 2, and s_(2j-1) = (-1)**j T_j, where T_j = 1, 2, 16, 272, ... are the
tangent numbers. They come from Brent and Harvey's integer algorithm
(arXiv:1108.0286), one column of its triangle at a time
(`tangent_numbers`), so the table grows on demand in O(n**2) integer
steps and each E_n costs n + 1 coefficients.

Two all-integer constructions that read neither the tangent numbers nor
any other E_k table are kept as cross-check oracles, never as the
production path. Expanding 2 / (e^t + 1) = sum_k (-(e^t - 1) / 2)**k in
the generating function 2 e^{x t} / (e^t + 1) gives the finite-difference
form

    2**n E_n(x) = sum_{j<=n} (-1)**j c_j (x + j)**n,
    c_j = sum_{k=j..n} 2**(n-k) C(k, j),

which is stateless and takes O(n**2) integer steps for each n
(`euler_poly_by_differences`). Multiplying the generating function
through by (e^t + 1) / 2 and comparing coefficients gives the triangular
recurrence E_n(x) = x**n - (1/2) sum_{k<n} C(n, k) E_k(x), run on the
integer polynomials F_n = 2**n E_n as

    F_n = 2**n x**n - sum_{k<n} C(n, k) 2**(n-k-1) F_k

in one append-only table (`EulerRecurrence`). The truncated power-series
division of the generating function (`EulerSeries`,
`euler_polys_by_series`) solves the same linear system as the recurrence,
in `Fraction` arithmetic; it stays only because the benchmark's tracer
binds `euler_polys_by_series` by name.

Weighted sums of E_n(a) and E_n(-a) (`euler_sum`), with integer or
rational weights, run over the integers: each E_n is also kept as integer
numerators over the lcm of its coefficient denominators, the weighted
numerators are added up over one common denominator, and that denominator
is divided out once at the end.
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
    "EulerRecurrence",
    "EulerSeries",
    "tangent_numbers",
    "euler_poly_by_differences",
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


def tangent_numbers():
    """Yield the tangent numbers T_1, T_2, ... = 1, 2, 16, 272, ..., where
    tan t = sum_j T_j t**(2j-1) / (2j-1)!.

    Brent and Harvey's integer algorithm (arXiv:1108.0286) fills a
    triangle U(k, j), 1 <= k <= j, with U(1, j) = (j-1)! and
    U(k, j) = (j-k) U(k, j-1) + (j-k+2) U(k-1, j); then T_j = U(j, j).
    Only the last column is kept, so T_j costs j small-integer steps.
    """
    col = [1]
    yield 1
    while True:
        j = len(col) + 1
        new = [col[0] * (j - 1)]
        for k in range(2, j):
            new.append((j - k) * col[k - 1] + (j - k + 2) * new[-1])
        new.append(2 * new[-1])
        col = new
        yield new[-1]


class EulerCache:
    """Append-only memo tables for E_n and B_n, and the integer view of
    E_n (numerators over one denominator) that ``euler_sum`` adds up.
    Shifted E_n(u*a + v) are not memoized: each is one integer Taylor
    shift of the table entry.

    Identity sweeps re-request the same E_n thousands of times, so
    memoization is mandatory. A single lock guards table extension, which
    keeps one shared instance safe under concurrent sweeps; results are
    deterministic either way.
    """

    def __init__(self):
        self._tangents = tangent_numbers()
        self._zeros: list[int] = []
        self._euler: dict[int, Polynomial] = {}
        self._bernoulli: list[Polynomial] = []
        self._scaled: dict[int, tuple[tuple[int, ...], int]] = {}
        self._lock = threading.RLock()

    def _scaled_zero(self, k: int) -> int:
        """s_k = 2**k E_k(0), the one place the tangent numbers are read."""
        with self._lock:
            while len(self._zeros) <= k:
                m = len(self._zeros)
                if m % 2:
                    j = (m + 1) // 2
                    self._zeros.append((-1) ** j * next(self._tangents))
                else:
                    self._zeros.append(1 if m == 0 else 0)
            return self._zeros[k]

    def euler_poly(self, n: int) -> Polynomial:
        """E_n as a monic degree-n polynomial with dyadic-rational
        coefficients: coefficient i is C(n, n-i) s_(n-i) / 2**(n-i)."""
        if n < 0:
            raise ValueError(f"euler_poly: n must be >= 0, got {n}")
        with self._lock:
            got = self._euler.get(n)
            if got is None:
                got = Polynomial([Fraction(binomial(n, i)
                                           * self._scaled_zero(n - i),
                                           1 << (n - i))
                                  for i in range(n + 1)])
                self._euler[n] = got
            return got

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
        """E_n(u*a + v) expanded as a polynomial in a."""
        return self.euler_poly(n).compose_affine(u, v)

    def euler_scaled(self, n: int) -> tuple[tuple[int, ...], int]:
        """E_n as (numerators, d): coefficient i of E_n is numerators[i] / d.

        d is the lcm of the coefficient denominators, read from the table
        entry: for a true E_n it divides 2**n, but that is not assumed.
        """
        with self._lock:
            got = self._scaled.get(n)
            if got is None:
                got = common_denominator(self.euler_poly(n).coeffs)
                self._scaled[n] = got
            return got

    def euler_sum(self, terms=(), neg_terms=()) -> Polynomial:
        """sum c E_n(a) over (c, n) in terms + sum c E_n(-a) over neg_terms.

        Weights c are integers or Fractions. Terms of weight 0 are skipped
        before E_n is looked up, so a binomial weight C(r, k) = 0 with k > r
        keeps a negative index out. The numerators are summed as integers
        over den, the lcm of d * c.denominator for every term whose E_n has
        denominator d, and den is divided out once.
        """
        parts = [(c, 1, self.euler_scaled(n)) for c, n in terms if c] + \
            [(c, -1, self.euler_scaled(n)) for c, n in neg_terms if c]
        den = math.lcm(*(d * c.denominator for c, _, (_, d) in parts))
        acc = [0] * max((len(nums) for _, _, (nums, _) in parts), default=0)
        for c, step, (nums, d) in parts:
            w = c.numerator * (den // (d * c.denominator))
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


def _difference_weights(n: int) -> list[int]:
    """c_j = sum_{k=j..n} 2**(n-k) C(k, j) for j = 0..n."""
    return [sum(math.comb(k, j) << (n - k) for k in range(j, n + 1))
            for j in range(n + 1)]


def euler_poly_by_differences(n: int) -> Polynomial:
    """E_n from 2**n E_n(x) = sum_{j<=n} (-1)**j c_j (x + j)**n.

    Coefficient i of the sum is C(n, i) sum_j (-1)**j c_j j**(n-i), so each
    j adds its weight times the powers of j. Reads no other E_k; an oracle
    only.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    acc = [0] * (n + 1)
    for j, c in enumerate(_difference_weights(n)):
        w = -c if j % 2 else c
        for e in range(n + 1):   # w = (-1)**j c_j j**e
            acc[n - e] += w
            w *= j
    return Polynomial([Fraction(math.comb(n, i) * v, 1 << n)
                       for i, v in enumerate(acc)])


class EulerRecurrence:
    """E_n by the triangular recurrence, run on F_n = 2**n E_n:
    F_n = 2**n x**n - sum_{k<n} C(n, k) 2**(n-k-1) F_k, in integers.

    Independent of the tangent numbers; O(n**3) integer steps, so it is an
    oracle only. One table of integer coefficient lists grows on demand,
    never past the largest n requested.
    """

    def __init__(self):
        self._table: list[list[int]] = []
        self._lock = threading.Lock()

    @property
    def terms(self) -> int:
        """Number of table entries computed so far."""
        return len(self._table)

    def euler_poly(self, n: int) -> Polynomial:
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        with self._lock:
            table = self._table
            while len(table) <= n:
                m = len(table)
                acc = [0] * m + [1 << m]
                for k, f in enumerate(table):
                    w = math.comb(m, k) << (m - k - 1)
                    for i, c in enumerate(f):
                        acc[i] -= w * c
                table.append(acc)
            return Polynomial([Fraction(c, 1 << n) for c in table[n]])


class EulerSeries:
    """E_n by truncated exact division of 2 e^{a t} / (e^t + 1).

    It reads no tangent number: the numerator coefficient of t**k is the
    polynomial 2 a**k / k!, the denominator coefficient is 2 for k = 0 and
    1 / k! for k >= 1, and the quotient is computed term by term. E_n is n!
    times the quotient coefficient of t**n. One quotient list grows on
    demand, never past the largest n requested. Times k!, the division at
    t**k reads E_k + sum_{i>=1} C(k, i) E_(k-i) = 2 a**k, the linear system
    that `EulerRecurrence` solves, so no checker uses it. It stays only
    because the benchmark's tracer (benchmarks/tracer.py) binds
    `euler_polys_by_series` by name.
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
    """E_0 .. E_{count-1} from a fresh `EulerSeries`; kept, with it, only
    for the benchmark's tracer, which binds this name."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    series = EulerSeries()
    return [series.euler_poly(n) for n in range(count)]
