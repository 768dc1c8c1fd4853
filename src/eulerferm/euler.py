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

B_n is read from the same s_k by the same expansion: B_0 = 1, and
B_k(0) = -k s_(k-1) / (2**k (2**k - 1)) for k >= 1, from
E_(k-1)(0) = -2 (2**k - 1) B_k / k. The scalars build no polynomial:
E_n(0) = s_n / 2**n, and the Euler number 2**n E_n(1/2) =
sum_k C(n, k) s_k is an integer by construction.

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

in one append-only table (`EulerRecurrence`).

Weighted sums, with integer or rational weights, of E_n(a) and E_n(-a)
(`euler_sum`) are added on one integer core, `_weighted_sum`, which takes
Polynomials and returns one: their numerators are weighted and added over
one common denominator. Sums of E_k(0) (`zero_sum`) build no polynomial:
they add the integers s_k over one lcm. The binomial E-sums of the
symmetry theorems,

    A_c(M, N, k)(x) = sum_{i<=M} C(M, i) c**(M-i) C(N+i, k) E_(N+i-k)(x),

are memoized on the same core (`EulerCache.binomial_sum`) until a sweep drops
them (`drop_binomial_sums`): a miss whose two Pascal neighbours are cached is
A_c(M, N, k) = c A_c(M-1, N, k) + A_c(M-1, N+1, k), from
C(M, i) = C(M-1, i) + C(M-1, i-1), and any other miss is the direct
(M+1)-term sum. `binomial_sum` reads one entry as stored, and
`binomial_sums` adds weighted A_c at a and at -a.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from itertools import repeat

from .polynomial import Polynomial

__all__ = [
    "MAX_DEGREE",
    "EulerCache",
    "EulerRecurrence",
    "tangent_numbers",
    "euler_poly_by_differences",
    "euler_poly",
    "euler_number",
    "euler_zero",
    "euler_poly_shifted",
    "euler_sum",
    "zero_sum",
    "binomial_sum",
    "binomial_sums",
    "drop_binomial_sums",
    "bernoulli_poly",
    "alt_power_sum",
    "power_sum",
    "euler_polys_by_series",
    "table_sizes",
]

# Largest n, or grid index, that the CLI and sweep grids accept: `poly 1000`
# takes about 0.4 s in a fresh interpreter (2 vCPU, Python 3.11), and the
# cost of E_n grows faster than n**2.
MAX_DEGREE = 1000


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


def _weighted_sum(parts) -> Polynomial:
    """sum c P(step * x) over (c, step, P) in parts, for Polynomials P and
    int or Fraction weights c: the numerators of each P are weighted and
    added as integers over den, the lcm of every P.den * c.denominator,
    which is divided out once."""
    den = math.lcm(*(p.den * c.denominator for c, _, p in parts))
    acc = [0] * max((len(p.nums) for _, _, p in parts), default=0)
    for c, step, p in parts:
        w = c.numerator * (den // (p.den * c.denominator))
        for i, v in enumerate(p.nums):
            acc[i] += w * v
            w *= step   # in P(-x) the sign alternates with the power
    return Polynomial.scaled(acc, den)


class EulerCache:
    """Append-only memo tables: the column s_k, the Euler numbers, each
    summed from its row of s_k, and E_n and B_n, both expanded by one
    builder from s_k as integer numerators over one denominator. E_n(0)
    and the Euler numbers are read from s_k alone, so only polynomial
    reads grow the E_n table. Shifted E_n(u*a + v) are not memoized: each
    is one integer Taylor shift of the table entry. The binomial E-sums
    A_c(M, N, k) have a memo of their own (``binomial_sum``), which grows
    like the others but is dropped whole by ``drop_binomial_sums``; an
    entry is a Polynomial, in normal form, so it is the same whichever
    route built it.

    Identity sweeps re-request the same E_n thousands of times, so
    memoization is mandatory, and a hit is one ``dict.get`` (or one length
    test of the column) with no lock. A single lock serializes every
    extension, which keeps one shared instance safe under concurrent
    sweeps. Hits need no lock because the tables only grow: a table entry
    is stored once it is complete and never replaced, and the column is
    only appended to, so a reader sees either a finished entry or none,
    and takes the lock only for none.
    """

    def __init__(self):
        self._tangents = tangent_numbers()
        self._zeros: list[int] = []
        self._numbers: dict[int, int] = {}
        self._euler: dict[int, Polynomial] = {}
        self._bernoulli: dict[int, Polynomial] = {}
        self._sums: dict[tuple, Polynomial] = {}
        self._lock = threading.RLock()

    def _column(self, *ks: int) -> list[int]:
        """The column s_0, s_1, ..., s_k = 2**k E_k(0), extended once past
        every k in ks: the one place the tangent numbers are read."""
        if min(ks, default=0) < 0:
            raise ValueError(f"n must be >= 0, got {min(ks)}")
        top = max(ks, default=0)
        if top < len(self._zeros):
            return self._zeros
        with self._lock:
            while len(self._zeros) <= top:
                m = len(self._zeros)
                if m % 2:
                    j = (m + 1) // 2
                    self._zeros.append((-1) ** j * next(self._tangents))
                else:
                    self._zeros.append(1 if m == 0 else 0)
            return self._zeros

    def _appell(self, table: dict, n: int, at_zero, zeros) -> Polynomial:
        """P_n(x) = sum_i C(n, i) P_(n-i)(0) x**i, built into ``table`` if
        it is not there yet, with C(n, i) carried along the row;
        ``at_zero(zeros, k)`` is P_k(0) as a pair
        (numerator, denominator), read from the column ``zeros``, which
        the caller has extended once for every k <= n."""
        with self._lock:
            if n not in table:
                pairs = [at_zero(zeros, k) for k in range(n, -1, -1)]
                den = math.lcm(*(d for _, d in pairs))
                nums, c = [], 1   # c = C(n, i), carried along the row
                for i, (num, d) in enumerate(pairs):
                    nums.append(c * num * (den // d))
                    c = c * (n - i) // (i + 1)
                table[n] = Polynomial.scaled(nums, den)
            return table[n]

    @staticmethod
    def _euler_at_zero(zeros: list, k: int) -> tuple[int, int]:
        """E_k(0) = s_k / 2**k."""
        return zeros[k], 1 << k

    @staticmethod
    def _bernoulli_at_zero(zeros: list, k: int) -> tuple[int, int]:
        """B_k(0) from E_(k-1)(0) = -2 (2**k - 1) B_k / k, and B_0 = 1."""
        if k == 0:
            return 1, 1
        num, den = -k * zeros[k - 1], (1 << k) * ((1 << k) - 1)
        g = math.gcd(num, den)   # in lowest terms, the lcm in _appell is small
        return num // g, den // g

    def euler_poly(self, n: int) -> Polynomial:
        """E_n as a monic degree-n polynomial with dyadic-rational
        coefficients: coefficient i is C(n, n-i) s_(n-i) / 2**(n-i)."""
        p = self._euler.get(n)
        if p is None:
            if n < 0:
                raise ValueError(f"euler_poly: n must be >= 0, got {n}")
            p = self._appell(self._euler, n, self._euler_at_zero,
                             self._column(n))
        return p

    def bernoulli_poly(self, n: int) -> Polynomial:
        """B_n from the same s_k, never through ``euler_poly``; it reads
        s_0..s_(n-1)."""
        p = self._bernoulli.get(n)
        if p is None:
            if n < 0:
                raise ValueError(f"bernoulli_poly: n must be >= 0, got {n}")
            p = self._appell(self._bernoulli, n, self._bernoulli_at_zero,
                             self._column(n - 1) if n else [])
        return p

    def euler_poly_shifted(self, n: int, u, v) -> Polynomial:
        """E_n(u*a + v) expanded as a polynomial in a."""
        return self.euler_poly(n).compose_affine(u, v)

    def euler_sum(self, terms=(), neg_terms=()) -> Polynomial:
        """sum c E_n(a) over (c, n) in terms + sum c E_n(-a) over neg_terms.

        Weights c are integers or Fractions. Terms of weight 0 are skipped
        before E_n is looked up, so a binomial weight C(r, k) = 0 with k > r
        keeps a negative index out. E_n is read through ``euler_poly``, so
        an override of it (a corrupted table) is summed as it reads."""
        return _weighted_sum(
            [(c, 1, self.euler_poly(n)) for c, n in terms if c]
            + [(c, -1, self.euler_poly(n)) for c, n in neg_terms if c])

    def binomial_sum(self, M: int, N: int, k: int, c=1) -> Polynomial:
        """A_c(M, N, k) = sum_{i<=M} C(M, i) c**(M-i) C(N+i, k) E_(N+i-k),
        for an int or Fraction c.

        A miss is built under the lock: by Pascal's rule from
        A_c(M-1, N, k) and A_c(M-1, N+1, k) if both are cached, else
        directly from the M + 1 table entries, read through
        ``euler_poly``. Neither route fills in missing neighbours, and
        both give the direct sum exactly, on any table, since the rule acts
        on C(M, i) alone."""
        # c is keyed as the ints r/t in lowest terms, so c = 2 and
        # c = Fraction(2) share an entry and no lookup hashes a Fraction
        r, t = c.numerator, c.denominator
        key = (M, N, k, r, t)
        entry = self._sums.get(key)
        if entry is None:
            if min(M, N, k) < 0:
                raise ValueError(
                    f"binomial_sum: need M, N, k >= 0, got ({M}, {N}, {k})")
            with self._lock:
                left = self._sums.get((M - 1, N, k, r, t))
                right = self._sums.get((M - 1, N + 1, k, r, t))
                if left is not None and right is not None:
                    entry = _weighted_sum(self._pascal_step(c, left, right))
                else:
                    entry = self._direct_sum(M, N, k, c)
                self._sums[key] = entry
        return entry

    @staticmethod
    def _pascal_step(c, left, right) -> list:
        """The parts of c A_c(M-1, N, k) + A_c(M-1, N+1, k)."""
        return [(c, 1, left), (1, 1, right)]

    def _direct_sum(self, M: int, N: int, k: int, c) -> Polynomial:
        """A_c(M, N, k) term by term. With c = r/t, term i has the integer
        weight C(M, i) C(N+i, k) r**(M-i) t**i, and t**M divides out once;
        a zero weight, C(N+i, k) = 0 for N + i < k, reads no E_n."""
        r, t = c.numerator, c.denominator
        parts = []
        for i in range(M + 1):
            w = math.comb(M, i) * math.comb(N + i, k) * r ** (M - i) * t ** i
            if w:
                parts.append((w, 1, self.euler_poly(N + i - k)))
        return _weighted_sum(parts) * Fraction(1, t ** M)   # self at t = 1

    def binomial_sums(self, terms=(), neg_terms=()) -> Polynomial:
        """sum w A_c(M, N, k)(a) over (w, M, N, k, c) in terms
        + sum w A_c(M, N, k)(-a) over neg_terms; a term of weight 0 reads
        nothing."""
        return _weighted_sum(
            [(w, 1, self.binomial_sum(M, N, k, c))
             for w, M, N, k, c in terms if w]
            + [(w, -1, self.binomial_sum(M, N, k, c))
               for w, M, N, k, c in neg_terms if w])

    def drop_binomial_sums(self) -> None:
        """Empty the memo of ``binomial_sum``; a sweep calls this when it
        ends, so the memo holds one checker's sums at most."""
        with self._lock:
            self._sums = {}

    def zero_sum(self, terms) -> Fraction:
        """sum c E_k(0) over (c, k) in terms, as the integers c s_k over the
        lcm of every 2**k c.denominator; s_k is read only if c != 0, and
        the column is extended once for all of them."""
        terms = [(c, k) for c, k in terms if c]
        zeros = self._column(*(k for _, k in terms))
        den = math.lcm(*(c.denominator << k for c, k in terms))
        return Fraction(sum(c.numerator * (den // (c.denominator << k))
                            * zeros[k] for c, k in terms), den)

    def euler_number(self, n: int) -> int:
        """2**n E_n(1/2) = sum_k C(n, k) s_k, an integer by construction,
        memoized like the E_n table: each row is summed once, and a miss
        sums only the row it asks for."""
        hit = self._numbers.get(n)
        if hit is not None:
            return hit
        zeros = self._column(n)
        with self._lock:
            if n not in self._numbers:
                total, c = 0, 1   # c = C(n, k), carried along the row
                for k in range(n + 1):
                    total += c * zeros[k]
                    c = c * (n - k) // (k + 1)
                self._numbers[n] = total
            return self._numbers[n]

    def euler_zero(self, n: int) -> Fraction:
        """E_n(0) = s_n / 2**n."""
        return Fraction(self._column(n)[n], 1 << n)

    def table_sizes(self) -> dict[str, int]:
        """How far each table has grown: E_n and B_n entries, and the
        length of the column s_k."""
        return {"E_n": len(self._euler), "B_n": len(self._bernoulli),
                "tangent column": len(self._zeros)}


_CACHE = EulerCache()


def euler_poly(n: int) -> Polynomial:
    return _CACHE.euler_poly(n)


def bernoulli_poly(n: int) -> Polynomial:
    return _CACHE.bernoulli_poly(n)


def euler_poly_shifted(n: int, u, v) -> Polynomial:
    return _CACHE.euler_poly_shifted(n, u, v)


def euler_sum(terms=(), neg_terms=()) -> Polynomial:
    return _CACHE.euler_sum(terms, neg_terms)


def zero_sum(terms) -> Fraction:
    return _CACHE.zero_sum(terms)


def binomial_sum(M: int, N: int, k: int, c=1) -> Polynomial:
    return _CACHE.binomial_sum(M, N, k, c)


def binomial_sums(terms=(), neg_terms=()) -> Polynomial:
    return _CACHE.binomial_sums(terms, neg_terms)


def drop_binomial_sums() -> None:
    _CACHE.drop_binomial_sums()


def euler_number(n: int) -> int:
    return _CACHE.euler_number(n)


def euler_zero(n: int) -> Fraction:
    return _CACHE.euler_zero(n)


def table_sizes() -> dict[str, int]:
    return _CACHE.table_sizes()


def alt_power_sum(m: int, n: int):
    """Direct alternating power sum: sum_{j=0}^{m} (-1)**j * j**n, with
    0**0 = 1, for m >= 0. alt_power_sum(q - 1, n) is the truncated
    fermionic sum of x**n over x < q.

    Closed form (checked elsewhere): ((-1)**m E_n(m+1) + E_n(0)) / 2, which
    is ``padic.fermionic_sum_closed(n, 0, m + 1)``.
    """
    if m < 0 or n < 0:
        raise ValueError(f"alt_power_sum: need m >= 0, n >= 0, got ({m}, {n})")
    return (sum(map(pow, range(0, m + 1, 2), repeat(n)))
            - sum(map(pow, range(1, m + 1, 2), repeat(n))))


def power_sum(m: int, n: int):
    """Direct power sum: sum_{j=0}^{m} j**n, with 0**0 = 1, for m >= 0.

    Closed form (checked elsewhere): (B_{n+1}(m+1) - B_{n+1}(0)) / (n+1).
    """
    if m < 0 or n < 0:
        raise ValueError(f"power_sum: need m >= 0, n >= 0, got ({m}, {n})")
    return sum(map(pow, range(m + 1), repeat(n)))


def _difference_weights(n: int) -> list[int]:
    """c_j = sum_{k=j..n} 2**(n-k) C(k, j) = 2**(n+1) - sum_{i<=j} C(n+1, i)
    for j = 0..n, as sum_j c_j y**j = (2**(n+1) - (1+y)**(n+1)) / (1 - y)."""
    weights, rest, c = [], 1 << (n + 1), 1   # c = C(n+1, j)
    for j in range(n + 1):
        rest -= c
        weights.append(rest)
        c = c * (n + 1 - j) // (j + 1)
    return weights


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
    return Polynomial.scaled([math.comb(n, i) * v for i, v in enumerate(acc)],
                             1 << n)


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
            return Polynomial.scaled(table[n], 1 << n)


def euler_polys_by_series(count: int) -> list[Polynomial]:
    """E_0 .. E_{count-1} read off the series 2 / (e^t + 1) =
    sum_k (-(e^t - 1) / 2)**k, that is, by `euler_poly_by_differences`."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    return [euler_poly_by_differences(n) for n in range(count)]
