"""p-adic valuations and the fermionic alternating sum.

The alternating measure integral of f over the p-adic integers is the limit
of S_N = sum_{x=0}^{p^N - 1} f(x) (-1)**x. This module never produces an
approximate value for that limit: truncations are computed exactly, and
convergence is reported as a valuation certificate v_p(S_N - exact) >= N.

A Polynomial integrand is summed by its moments mu_k = S_N(x**k), since
S_N(f) = sum_i f_i mu_i. For odd p, base-p digits x = j + p*y give
(-1)**x = (-1)**j (-1)**y, so S_N(x**k) = sum_{i<=k} p**i C(k, i) A_(k-i)
S_(N-1)(x**i) with A_e = sum_{j<p} (-1)**j j**e = S_1(x**e): the vector
starts at A and takes N - 1 steps. It depends on p and N alone, and a sweep
keeps the vector of the last (p, N) for its next sum; a sum of higher degree
rebuilds it to at least twice the degree it held, so rising degrees up to d
cost O(log d) builds. One build is O(p d + N d**2) integer operations for
degree d instead of p^N terms, then O(d) per sum. f is summed as its integer
numerators, and its one denominator is divided out once. A valuation
divides by p, p**2, p**4, ... and back down, O(log v) divisions for v.

The naive sum adds the p^N terms one by one. ``witt_sum_naive``, which
``witt --naive`` prints, sums Witt's integrand (x+a)**n with a = r/t as one
integer power (t*x + r)**n per term and divides by t**n once: it reads no
Polynomial, no Taylor shift and no Euler table, so it shares no code with the
digit route or the closed form. [0, p^N) is cut into one contiguous,
even-aligned run per process, which ``workers.shared`` sums; the process
count is ``workers``' decision, from the serial ms estimated from the term
count and the bit length of the largest power (``_UNITS_PER_MS``), in the
unit and against the fork cost that ``verify``'s sweeps use too. The sum
is exact however many processes run.
``fermionic_sum_naive``, the library oracle of both routes, sums any
integrand: in plain integers by Horner's rule for a Polynomial and in its
own arithmetic for any other callable. The closed form
((-1)**(q-1) E_n(a+q) + E_n(a)) / 2 of the sum of (x+a)**n telescopes the
Euler functional equation instead.

``witt_defect`` measures the sum of (x+a)**n, which the binomial theorem
reads off the moments, against E_n(a) from the Euler table. The two share
no computation, so a wrong E_n shows as a defect below N. ``lem1_defect``
compares three sums of one moment vector with one another and never looks
at E_n. A budget caps p^N only where p^N terms are summed one by one; the
moments take N up to ``MAX_PRECISION``.

p is always an odd prime; p = 2 is rejected. Shifts and
coefficients must be p-integral rationals (denominator coprime to p), which
is the rational slice of the p-adic integer ring.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import repeat
from operator import mul

from .euler import alt_power_sum, euler_poly
from .polynomial import Polynomial
from .workers import processes, shared

__all__ = [
    "DenominatorNotInvertible",
    "BudgetExceeded",
    "DEFAULT_BUDGET",
    "MAX_PRECISION",
    "is_odd_prime",
    "require_odd_prime",
    "require_integral_shift",
    "require_precision",
    "valuation",
    "fermionic_sum_digits",
    "fermionic_sum_naive",
    "fermionic_sum_naive_mod",
    "witt_sum_naive",
    "fermionic_sum_closed",
    "witt_defect",
    "lem1_defect",
]

# Guard for the naive p^N-term sweeps.
DEFAULT_BUDGET = 10 ** 7

# Largest N of a digit sum: one moment vector per (p, N) costs
# O(p d + N d**2) for degree d, then O(d) per sum.
MAX_PRECISION = 1000

# Units of work that ``witt_sum_naive`` takes to be one serial ms: a run of
# m terms (t*x + r)**n whose largest base is b bits long is m * (64 + n*b)
# units. Cold commands took 0.8 to 1.5 ns a unit on a 2-vCPU host, 1.0 in
# the median (``split_cut`` in BENCH_cpu_pin.json).
_UNITS_PER_MS = 1_000_000


class DenominatorNotInvertible(ArithmeticError, ValueError):
    """The rational has p in its denominator, so it is not a p-adic integer.

    A ValueError too, like every other out-of-domain argument.
    """


class BudgetExceeded(RuntimeError):
    """p**N exceeds the configured budget for a naive term-by-term sweep."""


def is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def require_odd_prime(p: int) -> None:
    if not is_odd_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")


def require_integral_shift(a, p: int) -> Fraction:
    """The shift a as a Fraction, if p is an odd prime and a is p-integral;
    a fermionic sum has no shift with p in its denominator."""
    require_odd_prime(p)
    a = Fraction(a)
    if a.denominator % p == 0:
        raise DenominatorNotInvertible(
            f"shift {a} is not a {p}-adic integer (p divides the denominator)"
        )
    return a


def valuation(r, p: int):
    """p-adic valuation of a rational: v_p(num) - v_p(den); +inf for 0."""
    require_odd_prime(p)
    r = Fraction(r)
    if r == 0:
        return math.inf
    return _int_valuation(r.numerator, p) - _int_valuation(r.denominator, p)


def _int_valuation(n: int, p: int) -> int:
    """v_p(n) for n != 0, in O(log v) divisions: divide by p, p**2, p**4,
    ... while they divide, then step back down through the same powers,
    each dividing at most once."""
    powers = []
    power = p
    while n % power == 0:
        n //= power
        powers.append(power)
        power *= power
    # v_p(n) is now below 2**len(powers): its binary digits, highest first
    v = 0
    for power in reversed(powers):
        v *= 2
        if n % power == 0:
            n //= power
            v += 1
    return (1 << len(powers)) - 1 + v


def require_precision(precision: int) -> None:
    """A digit sum's N: at least 1 and at most ``MAX_PRECISION``."""
    if precision < 1:
        raise ValueError(f"precision must be >= 1, got {precision}")
    if precision > MAX_PRECISION:
        raise ValueError(
            f"precision must be <= {MAX_PRECISION}, got {precision}")


def _check_budget(p: int, precision: int, budget: int) -> int:
    """p**N, if it is within budget. When N > budget's bit length,
    p**N >= 2**N > budget: it is not built, and reads "{p}**{N}"."""
    require_odd_prime(p)
    if precision < 1:
        raise ValueError(f"precision must be >= 1, got {precision}")
    if precision > budget.bit_length():
        overrun = f"{p}**{precision}"
    else:
        overrun = p ** precision
        if overrun <= budget:
            return overrun
    raise BudgetExceeded(f"p**N = {overrun} exceeds budget {budget}")


def fermionic_sum_naive(f, p: int, precision: int, budget: int = DEFAULT_BUDGET):
    """Exact truncated alternating sum: sum_{x=0}^{p^N - 1} f(x) (-1)**x.

    A Polynomial is summed over the integers and the result is a Fraction;
    any other callable is summed in whatever arithmetic f returns.
    """
    span = _check_budget(p, precision, budget)
    if isinstance(f, Polynomial):
        return _integer_sum(f, span)
    total = 0
    sign = 1
    for x in range(span):
        total += sign * f(x)
        sign = -sign
    return total


def _integer_sum(f: Polynomial, span: int) -> Fraction:
    """sum_{x < span} f(x) (-1)**x for a Polynomial f: the terms den*f(x)
    are integers, summed by Horner's rule on the stored numerators, and
    den is divided out once."""
    nums = f.nums[::-1]   # Horner: highest first
    total = 0
    sign = 1
    for x in range(span):
        acc = 0
        for c in nums:
            acc = acc * x + c
        total += sign * acc
        sign = -sign
    return Fraction(total, f.den)


def witt_sum_naive(n: int, a, p: int, precision: int,
                   budget: int = DEFAULT_BUDGET) -> Fraction:
    """The truncated sum of (x+a)**n (-1)**x over x < p**N, term by term.

    With a = r/t, each term is the integer power (t*x + r)**n, summed by
    ``_alternating_chunk``, and (even - odd) is divided by t**n once. The
    budget is checked before any term is summed. The p**N terms are cut
    into contiguous runs whose bounds but the last are even, one per
    process that ``workers.processes`` sets for the estimated work,
    span * (64 + n * bits) units, ``_UNITS_PER_MS`` to a ms, with bits the
    length of the largest base |r| + t*span; ``workers.shared`` sums them.
    Equal to ``fermionic_sum_naive`` of (x+a)**n and to
    ``fermionic_sum_closed(n, a, p**N)``, from neither's code.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    span = _check_budget(p, precision, budget)
    a = Fraction(a)
    r, t = a.numerator, a.denominator
    work = span * (64 + n * (abs(r) + t * span).bit_length())
    runs = processes(work / _UNITS_PER_MS, 256)
    bounds = [2 * (span * i // (2 * runs)) for i in range(runs)] + [span]

    def run(i: int) -> int:
        return _alternating_chunk(n, r, t, bounds[i], bounds[i + 1])

    return Fraction(sum(shared(range(runs), run, runs).values()), t ** n)


def _alternating_chunk(n: int, r: int, t: int, lo: int, hi: int) -> int:
    """sum_{lo <= x < hi} (-1)**x (t*x + r)**n for an even lo: the even x
    and the odd x summed apart, in C."""
    start, stop = r + t * lo, r + t * hi
    return (sum(map(pow, range(start, stop, 2 * t), repeat(n)))
            - sum(map(pow, range(start + t, stop, 2 * t), repeat(n))))


def fermionic_sum_digits(f: Polynomial, p: int, precision: int,
                         moments=None) -> Fraction:
    """The truncated sum of ``fermionic_sum_naive`` for a Polynomial f,
    as one dot product: S_N(f) = sum_i f_i mu_i with mu_i = S_N(x**i) from
    ``_moments``, which a sweep keeps in ``moments``. Without it the call
    keeps nothing.

    Exact and equal to the naive sum, with no p**N-term loop and no budget;
    N is at most ``MAX_PRECISION``.
    """
    return _dot(f, _moments(p, precision, len(f.nums) - 1, moments))


def _dot(f: Polynomial, mu: list) -> Fraction:
    """sum_i f_i mu_i: f's integer numerators against mu, over f.den."""
    return Fraction(sum(map(mul, f.nums, mu)), f.den)


def _moments(p: int, precision: int, d: int, memo=None) -> list:
    """mu_k = S_N(x**k) = sum_{x < p**N} (-1)**x x**k for k = 0..d at least.

    Base-p digits x = j + p*y give (-1)**x = (-1)**j (-1)**y for odd p, so
    S_N(x**k) = sum_{i<=k} p**i C(k, i) A_(k-i) S_(N-1)(x**i): mu starts at
    S_1(x**k) = A_k (``_alternating_power_sums``) and takes N - 1 steps, each
    one weighted sum of a row of ``_fold_rows`` per k.

    ``memo`` keeps the vector of the last (p, N) built, and serves any
    degree up to the one it was built to; what is built replaces it. A
    vector outgrown at the same (p, N) is rebuilt to at least twice its
    degree, so a sweep of rising degrees builds O(log d) vectors, not d.
    """
    require_odd_prime(p)
    require_precision(precision)
    key = (p, precision)
    mu = None if memo is None else memo.get(key)
    if mu is None or len(mu) <= d:
        if mu is not None:
            d = max(d, 2 * (len(mu) - 1))
        mu = _alternating_power_sums(p, d)
        if precision > 1:
            rows = _fold_rows(mu, p)
            for _ in range(precision - 1):
                mu = [sum(map(mul, row, mu)) for row in rows]
        if memo is not None:
            memo.clear()
            memo[key] = mu
    return mu


def _alternating_power_sums(p: int, d: int) -> list:
    """A_e = sum_{j<p} (-1)**j j**e for e = 0..d, with 0**0 = 1: the
    truncated sum of x**e over x < p, ``euler.alt_power_sum(p - 1, e)``."""
    return [alt_power_sum(p - 1, e) for e in range(d + 1)]


def _fold_rows(sums: list, p: int) -> list:
    """The rows of one step of ``_moments``: row k holds
    p**i C(k, i) A_(k-i) for i = 0..k, from the A_e of
    ``_alternating_power_sums``."""
    return [[p ** i * math.comb(k, i) * sums[k - i] for i in range(k + 1)]
            for k in range(len(sums))]


def fermionic_sum_naive_mod(f: Polynomial, p: int, precision: int,
                            budget: int = DEFAULT_BUDGET) -> int:
    """The same truncated sum carried out mod p**N: its residue in [0, p**N).

    Restricted to polynomial integrands with p-integral coefficients, which
    is p not dividing ``f.den``: in normal form no prime of ``den`` divides
    every numerator. The numerators are scaled by one inverse of ``den``
    mod p**N. Must agree with ``fermionic_sum_naive`` reduced mod p**N
    (tested, not assumed).
    """
    modulus = _check_budget(p, precision, budget)
    if f.den % p == 0:
        raise DenominatorNotInvertible(
            f"a coefficient of {f} is not a {p}-adic integer")
    inverse = pow(f.den, -1, modulus)
    nums = [c * inverse % modulus for c in f.nums]
    total = 0
    sign = 1
    for x in range(modulus):
        acc = 0
        for c in reversed(nums):
            acc = (acc * x + c) % modulus
        total = (total + sign * acc) % modulus
        sign = -sign
    return total


def fermionic_sum_closed(n: int, a, q: int):
    """Closed form of sum_{x=0}^{q-1} (x+a)**n (-1)**x via Euler polynomials.

    Telescoping the functional equation E_n(t+1) + E_n(t) = 2 t**n gives
    ((-1)**(q-1) E_n(a+q) + E_n(a)) / 2 for any q >= 1; for q = p**N this is
    the fast path equal to the naive fermionic sum of (x+a)**n.
    """
    if n < 0 or q < 1:
        raise ValueError(f"fermionic_sum_closed: need n >= 0, q >= 1, got ({n}, {q})")
    a = Fraction(a)
    e = euler_poly(n)
    return ((-1) ** (q - 1) * e(a + q) + e(a)) / 2


def witt_defect(n: int, a, p: int, precision: int, truncated=None,
                moments=None):
    """Valuation certificate for the integral representation of E_n(a).

    Returns v_p(S_N - E_n(a)), where S_N is the sum of (x+a)**n (-1)**x over
    x < p**N and E_n comes from the Euler table; the contract (asserted by
    callers) is defect >= N. With a = r/t, the binomial theorem gives
    S_N = sum_k C(n, k) r**(n-k) t**k mu_k / t**n from the moments mu_k of
    ``_moments``, which a sweep keeps in ``moments``. A caller that has
    already summed S_N (``witt --naive``) passes it as ``truncated``, and
    the sum is not repeated. The shift a must be p-integral.
    """
    a = require_integral_shift(a, p)   # which checks p first
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    require_precision(precision)
    if truncated is None:
        mu = _moments(p, precision, n, moments)
        r, t = a.numerator, a.denominator
        terms = (math.comb(n, k) * r ** (n - k) * t ** k * mu[k]
                 for k in range(n + 1))
        truncated = Fraction(sum(terms), t ** n)
    return valuation(truncated - euler_poly(n)(a), p)


def lem1_defect(f: Polynomial, p: int, precision: int, moments=None):
    """Valuation defect of the reflection/shift functional equation.

    For S1 = sum f(x+1)(-1)**x, S- = sum f(-x)(-1)**x and S = sum f(x)(-1)**x
    over x in [0, p**N), both S1 and S- must approach -S + 2 f(0); returns the
    minimum of the two defects v_p(S1 - target) and v_p(S- - target). When f
    is an even function the sharper statement S -> f(0) is folded in as well.
    Coefficients must be p-integral: p must not divide ``f.den``, since in
    normal form each prime of ``den`` stays in the reduced denominator of
    some coefficient. The three sums have one degree, so they are dot
    products with one vector of ``_moments``, which a sweep may keep in
    ``moments``.
    """
    require_odd_prime(p)
    if f.den % p == 0:
        raise DenominatorNotInvertible(
            f"a coefficient of {f} is not a {p}-adic integer")
    mu = _moments(p, precision, len(f.nums) - 1, moments)
    f_neg = f.compose_affine(-1, 0)
    s, s_shift, s_neg = (_dot(g, mu)
                         for g in (f, f.compose_affine(1, 1), f_neg))
    f0 = f(0)
    target = -s + 2 * f0
    defect = min(valuation(s_shift - target, p), valuation(s_neg - target, p))
    if f_neg == f:
        defect = min(defect, valuation(s - f0, p))
    return defect
