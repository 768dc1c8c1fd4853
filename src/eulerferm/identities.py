"""Mechanical checkers for the Euler-polynomial identity catalog.

Every checker builds both sides of one stated identity exactly and reports
the residual:

* symbolic mode (the primary route): both sides are expanded as Polynomial
  objects in the free argument ``a`` (or ``b``), and the residual must be the
  zero polynomial -- a certificate valid over every commutative ring
  containing the rationals;
* pointwise mode (independent oracle): both sides are evaluated at
  degree + 1 distinct rational points 0, 1, -1, 2, -2, ... and every
  difference must vanish, which certifies the same polynomial identity by
  interpolation without ever forming the residual polynomial;
* valuation mode: statements that are p-adic limits are reported as a defect
  v_p(truncation - exact), which must reach the requested precision.

Exact arithmetic stays on the integers where the values are integers. The
left sides of wsp7, wsp9, thm1, thm2 and thm3 and the right side of wsp7
are integer-weighted sums of E_n(a) and E_n(-a): ``euler.euler_sum`` adds
their numerators as integers over one common denominator and divides it out
once at the end, giving the same normalized Polynomial of Fractions. thm2's
pivot polynomial is built over Z[a][x] and evaluated at integer points;
only its final scaling by 2/k! is rational. sun stays over the rationals,
since its weights a**(m-i) and its shift 1 - a are rational.

Checker ids are stable catalog strings (``wsp7``, ``thm1``, ...); the same
ids name the CLI surface. No tolerances exist anywhere: residuals are exact,
and the only inequality is the valuation lower bound.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .euler import (
    EulerSeries,
    alt_power_sum,
    bernoulli_poly,
    euler_number,
    euler_poly,
    euler_poly_shifted,
    euler_sum,
    euler_zero,
    power_sum,
)
from .numeric import binomial, falling_factorial, format_rational
from .padic import DEFAULT_BUDGET, lem1_defect, witt_defect
from .polynomial import Polynomial, monomial

__all__ = [
    "EvenKError",
    "IdentityReport",
    "SweepGrid",
    "CHECKER_IDS",
    "CHECKERS",
    "run_suite",
    "report_to_dict",
    "euler_zero_via_recurrence",
]


class EvenKError(ValueError):
    """Raised when a derivative order k is even where only odd k is stated."""


@dataclass(frozen=True)
class IdentityReport:
    """Outcome record of one identity check."""

    checker: str
    params: dict
    mode: str
    residual: object
    passed: bool
    elapsed_ms: float = 0.0


def report_to_dict(report: IdentityReport) -> dict:
    """JSON-ready projection: {id, params, mode, residual, pass, elapsed_ms}."""
    return {
        "id": report.checker,
        "params": {k: _jsonable(v) for k, v in report.params.items()},
        "mode": report.mode,
        "residual": _render_residual(report.residual, report.mode),
        "pass": report.passed,
        "elapsed_ms": report.elapsed_ms,
    }


def _jsonable(value):
    if isinstance(value, bool) or isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return str(value)


def _render_residual(residual, mode: str):
    if mode == "valuation":
        return "inf" if residual == math.inf else int(residual)
    if isinstance(residual, Polynomial):
        return residual.to_coeff_strings()
    return format_rational(residual)


def _sample_points(count: int):
    """0, 1, -1, 2, -2, ... -- small numerators keep evaluation cheap."""
    pts = [Fraction(0)]
    v = 1
    while len(pts) < count:
        pts.append(Fraction(v))
        if len(pts) < count:
            pts.append(Fraction(-v))
        v += 1
    return pts[:count]


def _finish_poly(cid, params, lhs: Polynomial, rhs: Polynomial, mode, started,
                 extra_zero=()):
    """Close out a polynomial-sided check in symbolic or pointwise mode.

    ``extra_zero`` holds internal-lemma residuals that must vanish as well
    (they gate the verdict but the reported residual stays the main one).
    """
    lemma_ok = all(not r for r in extra_zero)
    if mode == "pointwise":
        degs = [p.degree for p in (lhs, rhs) if p.degree is not None]
        pts = _sample_points((max(degs) if degs else 0) + 1)
        diffs = [lhs(t) - rhs(t) for t in pts]
        residual = next((d for d in diffs if d), Fraction(0))
        passed = lemma_ok and not any(diffs)
    elif mode == "symbolic":
        residual = lhs - rhs
        passed = lemma_ok and residual.is_zero()
    else:
        raise ValueError(f"unknown mode {mode!r}")
    elapsed = (time.perf_counter() - started) * 1000.0
    return IdentityReport(cid, params, mode, residual, passed, elapsed)


def _finish_scalar(cid, params, residual, started):
    residual = Fraction(residual)
    elapsed = (time.perf_counter() - started) * 1000.0
    return IdentityReport(cid, params, "symbolic", residual, residual == 0,
                          elapsed)


def _finish_valuation(cid, params, defect, required: int, started):
    elapsed = (time.perf_counter() - started) * 1000.0
    return IdentityReport(cid, params, "valuation", defect,
                          defect >= required, elapsed)


# ---------------------------------------------------------------------------
# Generating-function consequences and classical sums
# ---------------------------------------------------------------------------

def check_reflection(n: int, mode: str = "symbolic") -> IdentityReport:
    """E_n(1-a) = (-1)**n E_n(a)."""
    t0 = time.perf_counter()
    lhs = euler_poly_shifted(n, -1, 1)
    rhs = (-1) ** n * euler_poly(n)
    return _finish_poly("reflection", {"n": n}, lhs, rhs, mode, t0)


def check_complement(n: int, mode: str = "symbolic") -> IdentityReport:
    """(-1)**n E_n(-a) + E_n(a) = 2 a**n."""
    t0 = time.perf_counter()
    lhs = (-1) ** n * euler_poly_shifted(n, -1, 0) + euler_poly(n)
    rhs = monomial(n, Fraction(2))
    return _finish_poly("complement", {"n": n}, lhs, rhs, mode, t0)


def check_boundary(n: int, mode: str = "symbolic") -> IdentityReport:
    """E_n(1) = (-1)**n E_n(0), i.e. 1 at n = 0 and -E_n(0) for n >= 1."""
    t0 = time.perf_counter()
    at_one = euler_poly(n)(Fraction(1))
    at_zero = euler_zero(n)
    r1 = at_one - (-1) ** n * at_zero
    r2 = at_one - 1 if n == 0 else at_one + at_zero
    return _finish_scalar("boundary", {"n": n}, r1 if r1 else r2, t0)


_SERIES = EulerSeries()


def _series_euler(n: int) -> Polynomial:
    return _SERIES.euler_poly(n)


def check_gf_consistency(n: int, mode: str = "symbolic") -> IdentityReport:
    """Triangular-recurrence E_n equals the power-series-division E_n."""
    t0 = time.perf_counter()
    return _finish_poly("gf_consistency", {"n": n}, euler_poly(n),
                        _series_euler(n), mode, t0)


def check_euler_alt_sum(m: int, n: int) -> IdentityReport:
    """sum_{j=0..m} (-1)**j j**n = ((-1)**m E_n(m+1) + E_n(0)) / 2.

    The closed form covers the sum from j = 0; its j = 0 term is the empty
    power 0**n, which is 1 exactly when n = 0, so that term is added to the
    direct tail computed by ``alt_power_sum`` (which starts at j = 1).
    """
    t0 = time.perf_counter()
    direct = (1 if n == 0 else 0) + alt_power_sum(m, n)
    closed = ((-1) ** m * euler_poly(n)(Fraction(m + 1)) + euler_zero(n)) / 2
    return _finish_scalar("euler_alt_sum", {"m": m, "n": n}, direct - closed, t0)


def check_bernoulli_power_sum(m: int, n: int) -> IdentityReport:
    """sum_{j=0..m} j**n = (B_{n+1}(m+1) - B_{n+1}(0)) / (n+1).

    Same empty-power convention as ``check_euler_alt_sum``: the j = 0 term
    contributes 1 exactly when n = 0.
    """
    t0 = time.perf_counter()
    direct = (1 if n == 0 else 0) + power_sum(m, n)
    b = bernoulli_poly(n + 1)
    closed = (b(Fraction(m + 1)) - b(Fraction(0))) / (n + 1)
    return _finish_scalar("bernoulli_power_sum", {"m": m, "n": n},
                          direct - closed, t0)


# ---------------------------------------------------------------------------
# Binomial symmetry identities, polynomial in a
# ---------------------------------------------------------------------------

def check_wsp7(m: int, n: int, mode: str = "symbolic") -> IdentityReport:
    """(-1)**m sum_i C(m,i) E_{n+i}(a) = (-1)**n sum_j C(n,j) E_{m+j}(-a)."""
    t0 = time.perf_counter()
    lhs = euler_sum([((-1) ** m * binomial(m, i), n + i)
                     for i in range(m + 1)])
    rhs = euler_sum(neg_terms=[((-1) ** n * binomial(n, j), m + j)
                               for j in range(n + 1)])
    return _finish_poly("wsp7", {"m": m, "n": n}, lhs, rhs, mode, t0)


def check_wsp9(m: int, n: int, mode: str = "symbolic") -> IdentityReport:
    """Three-term relation tying the weighted sums to E_{m+n+1}(a) - a**(m+n+1).

    Also certifies the sign-rewriting lemma
    (-1)**m c E(a) + (-1)**n c E(-a) = (-1)**m 2c (E(a) - a**(m+n+1)),
    c = m+n+2, as an internal sub-check.
    """
    if m + n <= 0:
        raise ValueError("wsp9 requires m + n > 0")
    t0 = time.perf_counter()
    lhs = euler_sum(
        [((-1) ** m * binomial(m + 1, i) * (n + i + 1), n + i)
         for i in range(m + 1)],
        [((-1) ** n * binomial(n + 1, j) * (m + j + 1), m + j)
         for j in range(n + 1)])
    c = m + n + 2
    top = euler_poly(m + n + 1)
    rhs = (-1) ** (m + 1) * 2 * c * (top - monomial(m + n + 1, Fraction(1)))
    # the lemma's right side is -rhs
    lemma = euler_sum([((-1) ** m * c, m + n + 1)],
                      [((-1) ** n * c, m + n + 1)]) + rhs
    return _finish_poly("wsp9", {"m": m, "n": n}, lhs, rhs, mode, t0,
                        extra_zero=(lemma,))


def check_thm1(m: int, n: int, q: int, k: int,
               mode: str = "symbolic") -> IdentityReport:
    """Order-k derivative symmetry: for odd k,

    (-1)**m sum_{i<=m+q} C(m+q,i) C(n+q+i,k) E_{n+q+i-k}(a)
      + (-1)**n sum_{j<=n+q} C(n+q,j) C(m+q+j,k) E_{m+q+j-k}(-a) = 0.

    Summands with k > n+q+i (resp. m+q+j) vanish through the binomial zero
    convention before any negative-index Euler polynomial is constructed.
    """
    if k % 2 == 0:
        raise EvenKError(f"k must be odd, got {k}")
    if k < 1 or q < 1 or m < 0 or n < 0 or m + n <= 0:
        raise ValueError(f"thm1 needs m+n > 0, q >= 1, odd k >= 1; "
                         f"got (m={m}, n={n}, q={q}, k={k})")
    t0 = time.perf_counter()
    lhs = euler_sum(
        [((-1) ** m * binomial(m + q, i) * binomial(n + q + i, k),
          n + q + i - k) for i in range(m + q + 1)],
        [((-1) ** n * binomial(n + q, j) * binomial(m + q + j, k),
          m + q + j - k) for j in range(n + q + 1)])
    return _finish_poly("thm1", {"m": m, "n": n, "q": q, "k": k}, lhs,
                        Polynomial(), mode, t0)


def check_cro0(n: int, q: int) -> IdentityReport:
    """sum_i C(n+q,i) (n+q+i)(n+q+i-1)...(n+i+1) E_{n+i}(0) = 0 for odd q.

    The symmetric specialization (both summation weights equal) of the
    derivative symmetry at the origin; q = 1 and q = 3 are the classical
    Kaneko-type and Chen-Sun-type cases.
    """
    if q < 1 or q % 2 == 0:
        raise ValueError(f"cro0 requires odd q >= 1, got {q}")
    if n < 0:
        raise ValueError(f"cro0 requires n >= 0, got {n}")
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(n + q + 1):
        total += binomial(n + q, i) * falling_factorial(n + q + i, q) \
            * euler_zero(n + i)
    return _finish_scalar("cro0", {"n": n, "q": q}, total, t0)


def check_cro1(m: int, n: int) -> IdentityReport:
    """sum_i C(m+1,i)(n+i+1)E_{n+i}(0)
    + (-1)**(m+n) sum_j C(n+1,j)(m+j+1)E_{m+j}(0) = 0."""
    if m + n <= 0:
        raise ValueError("cro1 requires m + n > 0")
    t0 = time.perf_counter()
    first = sum(binomial(m + 1, i) * (n + i + 1) * euler_zero(n + i)
                for i in range(m + 2))
    second = sum(binomial(n + 1, j) * (m + j + 1) * euler_zero(m + j)
                 for j in range(n + 2))
    return _finish_scalar("cro1", {"m": m, "n": n},
                          first + (-1) ** (m + n) * second, t0)


def check_cro2(n: int) -> IdentityReport:
    """sum_{j<=n+1} C(n+1,j)(n+j+1)E_{n+j}(0) = 0."""
    if n < 0:
        raise ValueError(f"cro2 requires n >= 0, got {n}")
    t0 = time.perf_counter()
    total = sum(binomial(n + 1, j) * (n + j + 1) * euler_zero(n + j)
                for j in range(n + 2))
    return _finish_scalar("cro2", {"n": n}, total, t0)


def euler_zero_via_recurrence(n: int) -> Fraction:
    """E_{2n+1}(0) from the halved-index recurrence
    -(1 / (2(n+1))) sum_{j<=n} C(n+1,j)(n+j+1)E_{n+j}(0)."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    total = sum(binomial(n + 1, j) * (n + j + 1) * euler_zero(n + j)
                for j in range(n + 1))
    return Fraction(-1, 2 * (n + 1)) * total


def check_recurrence_odd(n: int) -> IdentityReport:
    """The recurrence value agrees with the directly generated E_{2n+1}(0)."""
    t0 = time.perf_counter()
    residual = euler_zero_via_recurrence(n) - euler_zero(2 * n + 1)
    return _finish_scalar("recurrence_odd", {"n": n}, residual, t0)


def check_sun(m: int, n: int, a, mode: str = "symbolic") -> IdentityReport:
    """Three-parameter symmetry, symbolic in b with c = 1 - a - b:

    (-1)**m sum_i C(m,i) a**(m-i) E_{n+i}(b)
      = (-1)**n sum_j C(n,j) a**(n-j) E_{m+j}(c).
    """
    t0 = time.perf_counter()
    a = Fraction(a)
    lhs = Polynomial()
    for i in range(m + 1):
        lhs = lhs + binomial(m, i) * a ** (m - i) * euler_poly(n + i)
    lhs = (-1) ** m * lhs
    rhs = Polynomial()
    for j in range(n + 1):
        rhs = rhs + binomial(n, j) * a ** (n - j) \
            * euler_poly_shifted(m + j, -1, 1 - a)
    rhs = (-1) ** n * rhs
    return _finish_poly("sun", {"m": m, "n": n, "a": a}, lhs, rhs, mode, t0)


def check_sun_cor(m: int, n: int) -> IdentityReport:
    """(-1)**m sum_i C(m,i) E_{n+i} / 2**(n+i)
    = (-1)**n sum_j C(n,j) E_{m+j}(-1/2), with E_k the Euler numbers."""
    t0 = time.perf_counter()
    lhs = sum(binomial(m, i) * Fraction(euler_number(n + i), 2 ** (n + i))
              for i in range(m + 1))
    rhs = sum(binomial(n, j) * euler_poly(m + j)(Fraction(-1, 2))
              for j in range(n + 1))
    residual = (-1) ** m * lhs - (-1) ** n * rhs
    return _finish_scalar("sun_cor", {"m": m, "n": n}, residual, t0)


# ---------------------------------------------------------------------------
# Two-variable pivot polynomial machinery
# ---------------------------------------------------------------------------

_A = Polynomial((0, 1))   # the inner indeterminate a, over the integers
_ONE_A = Polynomial((1,))


@lru_cache(maxsize=None)
def _pivot_poly(m: int, n: int, s: int) -> Polynomial:
    """(x+a)**(m+1) (x+a-s-1)**(n+1) + (-1)**(m+n) (x-a)**(n+1) (x-a-s-1)**(m+1)

    as a polynomial in x whose coefficients are integer polynomials in a.
    Its shift symmetry P(x+s+1) = P(-x) is what the order-k sums certify.
    """
    x_plus_a = Polynomial((_A, _ONE_A))
    x_plus_a_s = Polynomial((_A - (s + 1), _ONE_A))
    x_minus_a = Polynomial((-_A, _ONE_A))
    x_minus_a_s = Polynomial((-_A - (s + 1), _ONE_A))
    return x_plus_a ** (m + 1) * x_plus_a_s ** (n + 1) \
        + (-1) ** (m + n) * (x_minus_a ** (n + 1) * x_minus_a_s ** (m + 1))


def check_thm2(m: int, n: int, s: int, k: int,
               mode: str = "symbolic") -> IdentityReport:
    """Parity-selected order-k symmetry against the pivot polynomial:

    delta * (sum_i (s+1)**(m-i+1) C(m+1,i) C(n+i+1,k) E_{n+i-k+1}(a)
             + (-1)**(m+n) sum_j (s+1)**(n-j+1) C(n+1,j) C(m+j+1,k)
               E_{m+j-k+1}(-a))
      = (2/k!) sum_{l=1}^{s} (-1)**l P^{(k)}(l; a),

    delta = (-1)**s - (-1)**k in {+2, -2, 0}. For delta = 0 the check
    asserts that the derivative sum on the right is identically zero.
    """
    if m + n <= 0:
        raise ValueError("thm2 requires m + n > 0")
    if s < 1 or k < 0:
        raise ValueError(f"thm2 requires s >= 1, k >= 0, got (s={s}, k={k})")
    t0 = time.perf_counter()
    delta = (-1) ** s - (-1) ** k
    lhs = euler_sum(
        [(delta * binomial(m + 1, i) * binomial(n + i + 1, k)
          * (s + 1) ** (m - i + 1), n + i - k + 1) for i in range(m + 2)],
        [(delta * (-1) ** (m + n) * binomial(n + 1, j) * binomial(m + j + 1, k)
          * (s + 1) ** (n - j + 1), m + j - k + 1) for j in range(n + 2)])
    deriv = _pivot_poly(m, n, s).derivative(k)
    rhs = Polynomial()
    for l in range(1, s + 1):
        rhs = rhs + (-1) ** l * deriv(l)
    rhs = Fraction(2, factorial(k)) * rhs
    return _finish_poly("thm2", {"m": m, "n": n, "s": s, "k": k}, lhs, rhs,
                        mode, t0)


def check_thm2_cro1(n: int, k: int) -> IdentityReport:
    """Specialized alternating dyadic sums (symmetric case, unit shift, at 0):

    k odd:  sum_i ((-1)**i / 2**i) C(n+1,i) C(n+i+1,k) = 0;
    k even: the same weights against ((-1)**i E_{n+i-k+1}(0) + (-1)**n) = 0.
    """
    if n < 0 or k < 0:
        raise ValueError(f"thm2_cro1 requires n, k >= 0, got ({n}, {k})")
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(n + 2):
        c = binomial(n + 1, i) * binomial(n + i + 1, k)
        if not c:
            continue
        w = Fraction((-1) ** i, 2 ** i) * c
        if k % 2 == 1:
            total += w
        else:
            total += w * ((-1) ** i * euler_zero(n + i - k + 1) + (-1) ** n)
    return _finish_scalar("thm2_cro1", {"n": n, "k": k}, total, t0)


def check_thm2_cro2(n: int, k: int) -> IdentityReport:
    """Specialized ternary sums (symmetric case, double shift, at 0):

    k odd:  weights (-1)**i 3**(n-i+1) C(n+1,i) C(n+i+1,k) against
            ((-1)**i E_{n+i-k+1}(0) + (-1)**n (2**(n+i-k+1) - 1)) = 0;
    k even: the same weights against (2**(n+i-k+1) - 1) = 0.
    """
    if n < 0 or k < 0:
        raise ValueError(f"thm2_cro2 requires n, k >= 0, got ({n}, {k})")
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(n + 2):
        c = binomial(n + 1, i) * binomial(n + i + 1, k)
        if not c:
            continue
        w = (-1) ** i * 3 ** (n - i + 1) * c
        pow2 = 2 ** (n + i - k + 1) - 1
        if k % 2 == 1:
            total += w * ((-1) ** i * euler_zero(n + i - k + 1) + (-1) ** n * pow2)
        else:
            total += w * pow2
    return _finish_scalar("thm2_cro2", {"n": n, "k": k}, total, t0)


# ---------------------------------------------------------------------------
# Parity-filtered identities
# ---------------------------------------------------------------------------

def check_thm3(m: int, k: int, mode: str = "symbolic") -> IdentityReport:
    """Parity-filtered expansion, 0 <= k <= m:

    sum_{i: m+i even} C(m,i) C(m+i,k) E_{m+i-k}(a)
      = sum_j (-1)**(m+j) C(m,j) C(m+j,k) a**(m+j-k).
    """
    if not 0 <= k <= m:
        raise ValueError(f"thm3 requires 0 <= k <= m, got (m={m}, k={k})")
    t0 = time.perf_counter()
    lhs = euler_sum([(binomial(m, i) * binomial(m + i, k), m + i - k)
                     for i in range(m + 1) if (m + i) % 2 == 0])
    rhs = Polynomial()
    for j in range(m + 1):
        rhs = rhs + monomial(m + j - k,
                             Fraction((-1) ** (m + j)
                                      * binomial(m, j) * binomial(m + j, k)))
    return _finish_poly("thm3", {"m": m, "k": k}, lhs, rhs, mode, t0)


def check_thm3_1(part: int, m: int, k: int, aux: int = 0) -> IdentityReport:
    """Four numeric consequences of the parity-filtered expansion at 0.

    part 1 (0 <= k <= m):     parity sum of C(m,i)C(m+i,k)C(m+i-k,m-k)E_i(0)
                              equals (-1)**m C(m,k);
    part 2 (0 <= k <= m-1):   ... C(m+i-k, m-k-1) E_{i+1}(0) sums to 0;
    part 3 (aux = l,
            0 <= l <= m-k-1): ... C(m+i-k, l) E_{m+i-k-l}(0) sums to 0;
    part 4 (aux = j, 1 <= j <= m, 0 <= k <= m):
                              tail sum from i = j with C(m+i-k, m+j-k)
                              E_{i-j}(0) equals (-1)**(m+j) C(m,j) C(m+j,k).
    """
    t0 = time.perf_counter()
    if part == 1:
        if not 0 <= k <= m:
            raise ValueError(f"part 1 requires 0 <= k <= m, got (m={m}, k={k})")
        lhs = sum(binomial(m, i) * binomial(m + i, k)
                  * binomial(m + i - k, m - k) * euler_zero(i)
                  for i in range(m + 1) if (m + i) % 2 == 0)
        rhs = (-1) ** m * binomial(m, k)
        params = {"m": m, "k": k}
        cid = "thm3_1a"
    elif part == 2:
        if not 0 <= k <= m - 1:
            raise ValueError(f"part 2 requires 0 <= k <= m-1, got (m={m}, k={k})")
        lhs = sum(binomial(m, i) * binomial(m + i, k)
                  * binomial(m + i - k, m - k - 1) * euler_zero(i + 1)
                  for i in range(m + 1) if (m + i) % 2 == 0)
        rhs = 0
        params = {"m": m, "k": k}
        cid = "thm3_1b"
    elif part == 3:
        if not (0 <= k and 0 <= aux <= m - k - 1):
            raise ValueError(
                f"part 3 requires 0 <= l <= m-k-1, got (m={m}, k={k}, l={aux})")
        lhs = sum(binomial(m, i) * binomial(m + i, k)
                  * binomial(m + i - k, aux) * euler_zero(m + i - k - aux)
                  for i in range(m + 1) if (m + i) % 2 == 0)
        rhs = 0
        params = {"m": m, "k": k, "l": aux}
        cid = "thm3_1c"
    elif part == 4:
        if not (1 <= aux <= m and 0 <= k <= m):
            raise ValueError(
                f"part 4 requires 1 <= j <= m, 0 <= k <= m, "
                f"got (m={m}, k={k}, j={aux})")
        lhs = sum(binomial(m, i) * binomial(m + i, k)
                  * binomial(m + i - k, m + aux - k) * euler_zero(i - aux)
                  for i in range(aux, m + 1) if (m + i) % 2 == 0)
        rhs = (-1) ** (m + aux) * binomial(m, aux) * binomial(m + aux, k)
        params = {"m": m, "k": k, "j": aux}
        cid = "thm3_1d"
    else:
        raise ValueError(f"part must be 1..4, got {part}")
    return _finish_scalar(cid, params, Fraction(lhs) - rhs, t0)


def check_rem2_1(m: int) -> IdentityReport:
    """sum_i C(m,i)(m+i)(m+i-1)(m+i-2) E_{m+i-3}(0) = 0 for m >= 3."""
    if m < 3:
        raise ValueError(f"rem2_1 requires m >= 3, got {m}")
    t0 = time.perf_counter()
    total = sum(binomial(m, i) * falling_factorial(m + i, 3)
                * euler_zero(m + i - 3) for i in range(m + 1))
    return _finish_scalar("rem2_1", {"m": m}, total, t0)


# ---------------------------------------------------------------------------
# Functional-equation identities
# ---------------------------------------------------------------------------

def check_fersim(n: int, mode: str = "symbolic") -> IdentityReport:
    """E_n(a+1) + E_n(a) = 2 a**n."""
    t0 = time.perf_counter()
    lhs = euler_poly_shifted(n, 1, 1) + euler_poly(n)
    rhs = monomial(n, Fraction(2))
    return _finish_poly("fersim", {"n": n}, lhs, rhs, mode, t0)


def check_fersim3(n: int, q: int, mode: str = "symbolic") -> IdentityReport:
    """Telescoped functional equation:
    (-1)**(q-1) E_n(a+q) + E_n(a) = 2 sum_{i<q} (-1)**i (a+i)**n."""
    if q < 1:
        raise ValueError(f"fersim3 requires q >= 1, got {q}")
    t0 = time.perf_counter()
    lhs = (-1) ** (q - 1) * euler_poly_shifted(n, 1, q) + euler_poly(n)
    rhs = Polynomial()
    for i in range(q):
        rhs = rhs + (-1) ** i * monomial(n, Fraction(1)).compose_affine(
            Fraction(1), Fraction(i))
    rhs = 2 * rhs
    return _finish_poly("fersim3", {"n": n, "q": q}, lhs, rhs, mode, t0)


# ---------------------------------------------------------------------------
# Valuation certificates
# ---------------------------------------------------------------------------

def check_witt(n: int, a, p: int, precision: int) -> IdentityReport:
    """v_p(closed truncation at p**N - E_n(a)) >= N."""
    t0 = time.perf_counter()
    a = Fraction(a)
    defect = witt_defect(n, a, p, precision)
    return _finish_valuation(
        "witt", {"n": n, "a": a, "p": p, "precision": precision},
        defect, precision, t0)


def _lem1_poly(p: int, index: int, max_degree: int = 8) -> Polynomial:
    """Deterministic pseudo-random p-integral polynomial for suite sweeps."""
    rng = random.Random(916191 * p + index)
    degree = rng.randint(0, max_degree)
    coeffs = []
    for _ in range(degree + 1):
        den = rng.choice([d for d in range(1, 11) if d % p != 0])
        coeffs.append(Fraction(rng.randint(-20, 20), den))
    return Polynomial(coeffs)


def check_lem1(f: Polynomial, p: int, precision: int,
               budget: int = DEFAULT_BUDGET, index=None) -> IdentityReport:
    """Reflection/shift functional-equation defect >= N for one polynomial."""
    t0 = time.perf_counter()
    defect = lem1_defect(f, p, precision, budget)
    params = {"p": p, "precision": precision, "poly": f.to_coeff_strings()}
    if index is not None:
        params["index"] = index
    return _finish_valuation("lem1", params, defect, precision, t0)


def check_lem1_indexed(p: int, precision: int, index: int,
                       budget: int = DEFAULT_BUDGET) -> IdentityReport:
    return check_lem1(_lem1_poly(p, index), p, precision, budget, index=index)


# ---------------------------------------------------------------------------
# Suite driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepGrid:
    """Bounded parameter grid for suite runs (defaults: the desk grid)."""

    m: tuple = tuple(range(7))
    n: tuple = tuple(range(7))
    q: tuple = (1, 2, 3)
    k: tuple = (1, 2, 3)
    s: tuple = (1, 2, 3)
    points: tuple = (Fraction(0), Fraction(1), Fraction(1, 2),
                     Fraction(-1), Fraction(-2, 3))
    p_list: tuple = (3, 5, 7)
    precision: int = 2
    budget: int = DEFAULT_BUDGET
    lem1_count: int = 5


def _gen_n(grid):
    for n in sorted(set(grid.n)):
        yield {"n": n}


def _gen_mn(grid, positive_sum=False, min_m=0):
    for m in sorted(set(grid.m)):
        if m < min_m:
            continue
        for n in sorted(set(grid.n)):
            if positive_sum and m + n <= 0:
                continue
            yield {"m": m, "n": n}


def _gen_thm1(grid):
    for base in _gen_mn(grid, positive_sum=True):
        for q in sorted(set(grid.q)):
            if q < 1:
                continue
            for k in sorted(set(grid.k)):
                if k % 2 == 1:
                    yield {**base, "q": q, "k": k}


def _gen_cro0(grid):
    for n in sorted(set(grid.n)):
        for q in sorted(set(grid.q)):
            if q % 2 == 1:
                yield {"n": n, "q": q}


def _gen_sun(grid):
    for base in _gen_mn(grid):
        for a in sorted(set(grid.points)):
            yield {**base, "a": a}


def _gen_thm2(grid):
    for base in _gen_mn(grid, positive_sum=True):
        for s in sorted(set(grid.s)):
            if s < 1:
                continue
            for k in sorted(set(grid.k)):
                yield {**base, "s": s, "k": k}


def _gen_nk(grid):
    for n in sorted(set(grid.n)):
        for k in sorted(set(grid.k)):
            yield {"n": n, "k": k}


def _gen_thm3(grid):
    # k is structurally bounded by m, so it sweeps its full stated range.
    for m in sorted(set(grid.m)):
        for k in range(m + 1):
            yield {"m": m, "k": k}


def _gen_thm3_1(part):
    def gen(grid):
        for m in sorted(set(grid.m)):
            if part == 1:
                for k in range(m + 1):
                    yield {"part": 1, "m": m, "k": k}
            elif part == 2:
                for k in range(m):
                    yield {"part": 2, "m": m, "k": k}
            elif part == 3:
                for k in range(m):
                    for l in range(m - k):
                        yield {"part": 3, "m": m, "k": k, "aux": l}
            else:
                for j in range(1, m + 1):
                    for k in range(m + 1):
                        yield {"part": 4, "m": m, "k": k, "aux": j}
    return gen


def _gen_rem2_1(grid):
    for m in sorted(set(grid.m)):
        if m >= 3:
            yield {"m": m}


def _gen_fersim3(grid):
    for n in sorted(set(grid.n)):
        for q in sorted(set(grid.q)):
            if q >= 1:
                yield {"n": n, "q": q}


def _gen_witt(grid):
    for p in sorted(set(grid.p_list)):
        for n in sorted(set(grid.n)):
            for a in sorted(set(grid.points)):
                if Fraction(a).denominator % p != 0:
                    yield {"n": n, "a": a, "p": p, "precision": grid.precision}


def _gen_lem1(grid):
    for p in sorted(set(grid.p_list)):
        for index in range(grid.lem1_count):
            yield {"p": p, "precision": grid.precision, "index": index,
                   "budget": grid.budget}


@dataclass(frozen=True)
class Checker:
    cid: str
    run: object           # callable(params: dict, mode: str) -> IdentityReport
    gen: object           # callable(grid: SweepGrid) -> iterator of params
    symbolic: bool = True  # supports symbolic/pointwise duality


def _poly_runner(fn):
    return lambda params, mode: fn(**params, mode=mode)


def _scalar_runner(fn):
    return lambda params, mode: fn(**params)


CHECKERS = {
    "reflection": Checker("reflection", _poly_runner(check_reflection), _gen_n),
    "complement": Checker("complement", _poly_runner(check_complement), _gen_n),
    "boundary": Checker("boundary", _scalar_runner(check_boundary), _gen_n,
                        symbolic=False),
    "gf_consistency": Checker("gf_consistency",
                              _poly_runner(check_gf_consistency), _gen_n),
    "euler_alt_sum": Checker("euler_alt_sum",
                             _scalar_runner(check_euler_alt_sum),
                             lambda g: _gen_mn(g, min_m=1), symbolic=False),
    "bernoulli_power_sum": Checker("bernoulli_power_sum",
                                   _scalar_runner(check_bernoulli_power_sum),
                                   lambda g: _gen_mn(g, min_m=1),
                                   symbolic=False),
    "wsp7": Checker("wsp7", _poly_runner(check_wsp7), _gen_mn),
    "wsp9": Checker("wsp9", _poly_runner(check_wsp9),
                    lambda g: _gen_mn(g, positive_sum=True)),
    "thm1": Checker("thm1", _poly_runner(check_thm1), _gen_thm1),
    "cro0": Checker("cro0", _scalar_runner(check_cro0), _gen_cro0,
                    symbolic=False),
    "cro1": Checker("cro1", _scalar_runner(check_cro1),
                    lambda g: _gen_mn(g, positive_sum=True), symbolic=False),
    "cro2": Checker("cro2", _scalar_runner(check_cro2), _gen_n, symbolic=False),
    "recurrence_odd": Checker("recurrence_odd",
                              _scalar_runner(check_recurrence_odd), _gen_n,
                              symbolic=False),
    "sun": Checker("sun", _poly_runner(check_sun), _gen_sun),
    "sun_cor": Checker("sun_cor", _scalar_runner(check_sun_cor), _gen_mn,
                       symbolic=False),
    "thm2": Checker("thm2", _poly_runner(check_thm2), _gen_thm2),
    "thm2_cro1": Checker("thm2_cro1", _scalar_runner(check_thm2_cro1),
                         _gen_nk, symbolic=False),
    "thm2_cro2": Checker("thm2_cro2", _scalar_runner(check_thm2_cro2),
                         _gen_nk, symbolic=False),
    "thm3": Checker("thm3", _poly_runner(check_thm3), _gen_thm3),
    "thm3_1a": Checker("thm3_1a", _scalar_runner(check_thm3_1),
                       _gen_thm3_1(1), symbolic=False),
    "thm3_1b": Checker("thm3_1b", _scalar_runner(check_thm3_1),
                       _gen_thm3_1(2), symbolic=False),
    "thm3_1c": Checker("thm3_1c", _scalar_runner(check_thm3_1),
                       _gen_thm3_1(3), symbolic=False),
    "thm3_1d": Checker("thm3_1d", _scalar_runner(check_thm3_1),
                       _gen_thm3_1(4), symbolic=False),
    "rem2_1": Checker("rem2_1", _scalar_runner(check_rem2_1), _gen_rem2_1,
                      symbolic=False),
    "fersim": Checker("fersim", _poly_runner(check_fersim), _gen_n),
    "fersim3": Checker("fersim3", _poly_runner(check_fersim3), _gen_fersim3),
    "witt": Checker("witt", _scalar_runner(check_witt), _gen_witt,
                    symbolic=False),
    "lem1": Checker("lem1", _scalar_runner(check_lem1_indexed), _gen_lem1,
                    symbolic=False),
}

CHECKER_IDS = tuple(CHECKERS)


def run_suite(ids=None, grid: SweepGrid | None = None,
              mode: str = "symbolic") -> list[IdentityReport]:
    """Run the selected checkers over a bounded grid.

    Reports come back in canonical order (id, then ascending parameters),
    independent of how the work is executed. Unknown ids are usage errors.
    Grid values outside a checker's stated domain are skipped for that
    checker, so a checker may yield no report at all.
    """
    if grid is None:
        grid = SweepGrid()
    if ids is None:
        ids = CHECKER_IDS
    ids = list(ids)
    unknown = [i for i in ids if i not in CHECKERS]
    if unknown:
        raise ValueError(f"unknown checker id(s): {', '.join(sorted(unknown))}")
    reports: list[IdentityReport] = []
    for cid in sorted(set(ids)):
        checker = CHECKERS[cid]
        use_mode = mode if checker.symbolic else "symbolic"
        for params in checker.gen(grid):
            reports.append(checker.run(params, use_mode))
    reports.sort(key=lambda r: r.checker)
    return reports
