"""Mechanical checkers for the Euler-polynomial identity catalog.

Every checker is a function registered with
``@checker(cid, gen, kind, where)``. Its body states one identity, builds
both sides exactly and returns what its kind asks for:

* ``"poly"``: ``(lhs, rhs, *lemma_residuals)``, both sides as Polynomial
  objects in the free argument ``a`` (or ``b``). In symbolic mode (the
  primary route) the residual lhs - rhs must be the zero polynomial -- a
  certificate valid over every commutative ring containing the rationals.
  In pointwise mode (independent oracle) both sides are evaluated at
  degree + 1 distinct rational points 0, 1, -1, 2, -2, ... and every
  difference must vanish, which certifies the same polynomial identity by
  interpolation without ever forming the residual polynomial. Lemma
  residuals are internal sub-checks; they must vanish too, but the reported
  residual stays the main one.
* ``"scalar"``: the exact residual of a numeric identity, which must be 0.
* ``"valuation"``: for statements that are p-adic limits, the defect
  v_p(truncation - exact), which must reach the ``precision`` parameter.

The body tests no domain, does no timing and builds no report. Its domain
is stated once, as the predicate ``where``, and every int param must be a
natural number. The driver ``CHECKERS[cid].run(params, mode)`` raises
``ValueError`` for a mode other than symbolic or pointwise, for params
whose keys are not the body's parameter names and for params outside the
domain; then it calls the body, times it, dispatches on the mode (scalar
and valuation checkers ignore it) and builds the ``IdentityReport``. A
body that raises anything but ``ValueError`` fails it with the residual
``"<Type>: <message>"``. ``gen(grid)`` yields params only inside the
domain, and ``run_suite`` calls ``run`` once per dict. The public
``check_<id>(*args, mode=...)`` binds its arguments by name and calls the
same ``run``.

Exact arithmetic stays on the integers where the values are integers.
Every weighted sum of E_n(a) and E_n(-a) in the catalog (both sides of
wsp7 and sun, the left sides of complement, wsp9, thm1, thm2 and thm3, and
the right side of sun_cor) goes through ``euler.euler_sum``, which adds
the numerators as integers over one common denominator, for integer or
rational weights alike, and divides it out once at the end. The right
sides of thm2, thm3 and fersim3 are integer polynomials in a; thm2's and
fersim3's are summed from binomial rows (c +- a)**e. Every shifted
E_n(u*a + v) comes from ``Polynomial.compose_affine``, an integer Taylor
shift over one common denominator; sun composes its whole right side once.

Checker ids are stable catalog strings (``wsp7``, ``thm1``, ...); the same
ids name the CLI surface. No tolerances exist anywhere: residuals are exact,
and the only inequality is the valuation lower bound.
"""

from __future__ import annotations

import inspect
import itertools
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, wraps

from .euler import (
    EulerRecurrence,
    alt_power_sum,
    bernoulli_poly,
    euler_number,
    euler_poly,
    euler_poly_by_differences,
    euler_poly_shifted,
    euler_sum,
    euler_zero,
    power_sum,
)
from .numeric import binomial, falling_factorial, format_rational
from .padic import lem1_defect, require_odd_prime, witt_defect
from .polynomial import Polynomial, monomial

__all__ = [
    "IdentityReport",
    "SweepGrid",
    "CHECKER_IDS",
    "CHECKERS",
    "run_suite",
    "report_to_dict",
    "euler_zero_via_recurrence",
]


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
    if isinstance(residual, str):   # an error report's "<Type>: <message>"
        return residual
    if mode == "valuation":
        return "inf" if residual == math.inf else int(residual)
    if isinstance(residual, Polynomial):
        return residual.to_coeff_strings()
    return format_rational(residual)


def _sample_points(count: int):
    """0, 1, -1, 2, -2, ... -- small numerators keep evaluation cheap."""
    return [Fraction((i + 1) // 2 * (-1) ** (i + 1)) for i in range(count)]


# ---------------------------------------------------------------------------
# Registry and sweep grids
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
    lem1_count: int = 5

    def __post_init__(self):
        indices = self.m + self.n + self.q + self.k + self.s
        if not all(type(v) is int for v in indices + self.p_list + (
                self.precision, self.lem1_count)):
            raise ValueError("every grid field but points must hold integers")
        if self.precision < 1:
            raise ValueError(f"precision must be >= 1, got {self.precision}")
        if min(indices, default=0) < 0:
            raise ValueError("ranges must be non-negative")
        for p in self.p_list:
            require_odd_prime(p)
        # a swept point is reported as a Fraction, as in a direct call
        object.__setattr__(self, "points", tuple(map(Fraction, self.points)))


@dataclass(frozen=True)
class Checker:
    cid: str
    run: object           # callable(params: dict, mode: str) -> IdentityReport
    gen: object           # callable(grid: SweepGrid) -> iterator of params


CHECKERS: dict[str, Checker] = {}

# looked up on a body's first direct call, not when it is registered,
# so that importing the catalog stays cheap
_signature = lru_cache(maxsize=None)(inspect.signature)


_MODES = ("symbolic", "pointwise")


def _require_mode(mode: str) -> None:
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}")


def checker(cid: str, gen, kind: str = "poly", where=None, rational=(),
            report_params=None):
    """Register the decorated body as checker ``cid``; return check_<cid>.

    ``where(**params)`` states the domain. Every catalog index is a natural
    number, so a param annotated ``int`` or holding an int must be an int
    >= 0. ``run`` raises ``ValueError`` outside the domain (``thm1 is not
    stated at m=1, n=0, q=1, k=2``) and the sweep skips it. It also raises
    ``ValueError`` when the params' keys are not the body's parameter
    names (``cro2 takes params n, got none``), read once from its code.
    ``rational`` names the arguments that a direct call converts to
    Fraction, as a sweep's points already are. ``report_params(**params)``
    gives the report's params where they are not the body's arguments.
    """
    def register(body):
        naturals = {k for k, a in body.__annotations__.items() if a == "int"}
        code = body.__code__
        names = code.co_varnames[:code.co_argcount]
        keys = frozenset(names)

        def stated(params: dict) -> bool:
            return (all(type(v) is int and v >= 0 for k, v in params.items()
                        if isinstance(v, int) or k in naturals)
                    and (where is None or where(**params)))

        def run(params: dict, mode: str) -> IdentityReport:
            _require_mode(mode)
            if params.keys() != keys:
                raise ValueError(f"{cid} takes params {', '.join(names)}, "
                                 f"got {', '.join(params) or 'none'}")
            if not stated(params):
                raise ValueError(f"{cid} is not stated at " + ", ".join(
                    f"{k}={v}" for k, v in params.items()))
            if kind != "poly":   # scalar and valuation checkers ignore it
                mode = "symbolic" if kind == "scalar" else "valuation"
            started = time.perf_counter()
            try:
                result = body(**params)
                if kind == "scalar":
                    residual, passed = Fraction(result), result == 0
                elif kind == "valuation":
                    residual, passed = result, result >= params["precision"]
                elif mode == "pointwise":
                    lhs, rhs, *lemmas = result
                    degs = [p.degree for p in (lhs, rhs) if p]
                    diffs = [lhs(t) - rhs(t)
                             for t in _sample_points(max(degs, default=0) + 1)]
                    residual = next((d for d in diffs if d), Fraction(0))
                    passed = not any(diffs) and not any(lemmas)
                else:
                    lhs, rhs, *lemmas = result
                    residual = lhs - rhs
                    passed = residual.is_zero() and not any(lemmas)
            except ValueError:
                raise
            except Exception as exc:
                # one broken checker fails its own report, not the whole run
                residual, passed = f"{type(exc).__name__}: {exc}", False
            elapsed = (time.perf_counter() - started) * 1000.0
            if report_params is not None:
                params = report_params(**params)
            return IdentityReport(cid, params, mode, residual, passed, elapsed)

        @wraps(body)
        def check(*args, mode: str = "symbolic", **kwargs) -> IdentityReport:
            params = _signature(body).bind(*args, **kwargs)
            params.apply_defaults()
            for name in rational:
                params.arguments[name] = Fraction(params.arguments[name])
            return run(params.arguments, mode)

        CHECKERS[cid] = Checker(cid, run, lambda g: filter(stated, gen(g)))
        return check
    return register


def _grid(*axes, **renamed):
    """Sweep over the product of SweepGrid fields, each in ascending order.

    ``axes`` are fields that name their parameter; ``renamed`` maps a
    parameter to its field (``a="points"``).
    """
    names = axes + tuple(renamed)
    fields = axes + tuple(renamed.values())

    def gen(grid):
        values = [sorted(set(getattr(grid, f))) for f in fields]
        for combo in itertools.product(*values):
            yield dict(zip(names, combo))
    return gen


_N = _grid("n")
_MN = _grid("m", "n")
_NK = _grid("n", "k")


# ---------------------------------------------------------------------------
# Generating-function consequences and classical sums
# ---------------------------------------------------------------------------

@checker("reflection", _N)
def check_reflection(n: int):
    """E_n(1-a) = (-1)**n E_n(a)."""
    return euler_poly_shifted(n, -1, 1), (-1) ** n * euler_poly(n)


@checker("complement", _N)
def check_complement(n: int):
    """(-1)**n E_n(-a) + E_n(a) = 2 a**n."""
    return euler_sum([(1, n)], [((-1) ** n, n)]), monomial(n, Fraction(2))


@checker("boundary", _N, "scalar")
def check_boundary(n: int):
    """E_n(1) = (-1)**n E_n(0), i.e. 1 at n = 0 and -E_n(0) for n >= 1."""
    at_one = euler_poly(n)(Fraction(1))
    at_zero = euler_zero(n)
    r1 = at_one - (-1) ** n * at_zero
    r2 = at_one - 1 if n == 0 else at_one + at_zero
    return r1 if r1 else r2


_RECURRENCE = EulerRecurrence()


@checker("gf_consistency", _N)
def check_gf_consistency(n: int):
    """E_n from the tangent-number table equals the E_n that the generating
    function 2 e^{a t} / (e^t + 1) gives by finite differences,
    2**n E_n(a) = sum_j (-1)**j c_j (a + j)**n, and, as a lemma, the E_n of
    the integer recurrence on 2**n E_n. Neither oracle reads the table."""
    e = euler_poly(n)
    return e, euler_poly_by_differences(n), e - _RECURRENCE.euler_poly(n)


@checker("euler_alt_sum", _MN, "scalar", where=lambda m, n: m >= 1)
def check_euler_alt_sum(m: int, n: int):
    """sum_{j=0..m} (-1)**j j**n = ((-1)**m E_n(m+1) + E_n(0)) / 2.

    The closed form covers the sum from j = 0; its j = 0 term is the empty
    power 0**n, which is 1 exactly when n = 0, so that term is added to the
    direct tail computed by ``alt_power_sum`` (which starts at j = 1).
    """
    direct = (1 if n == 0 else 0) + alt_power_sum(m, n)
    closed = ((-1) ** m * euler_poly(n)(Fraction(m + 1)) + euler_zero(n)) / 2
    return direct - closed


@checker("bernoulli_power_sum", _MN, "scalar", where=lambda m, n: m >= 1)
def check_bernoulli_power_sum(m: int, n: int):
    """sum_{j=0..m} j**n = (B_{n+1}(m+1) - B_{n+1}(0)) / (n+1).

    Same empty-power convention as ``check_euler_alt_sum``: the j = 0 term
    contributes 1 exactly when n = 0.
    """
    direct = (1 if n == 0 else 0) + power_sum(m, n)
    b = bernoulli_poly(n + 1)
    return direct - (b(Fraction(m + 1)) - b(Fraction(0))) / (n + 1)


# ---------------------------------------------------------------------------
# Binomial symmetry identities, polynomial in a
# ---------------------------------------------------------------------------

@checker("wsp7", _MN)
def check_wsp7(m: int, n: int):
    """(-1)**m sum_i C(m,i) E_{n+i}(a) = (-1)**n sum_j C(n,j) E_{m+j}(-a)."""
    lhs = euler_sum([((-1) ** m * binomial(m, i), n + i)
                     for i in range(m + 1)])
    rhs = euler_sum(neg_terms=[((-1) ** n * binomial(n, j), m + j)
                               for j in range(n + 1)])
    return lhs, rhs


@checker("wsp9", _MN, where=lambda m, n: m + n > 0)
def check_wsp9(m: int, n: int):
    """Three-term relation tying the weighted sums to E_{m+n+1}(a) - a**(m+n+1).

    Also certifies the sign-rewriting lemma
    (-1)**m c E(a) + (-1)**n c E(-a) = (-1)**m 2c (E(a) - a**(m+n+1)),
    c = m+n+2, as an internal sub-check.
    """
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
    return lhs, rhs, lemma


@checker("thm1", _grid("m", "n", "q", "k"), where=lambda m, n, q, k:
         m + n > 0 and q >= 1 and k % 2 == 1)
def check_thm1(m: int, n: int, q: int, k: int):
    """Order-k derivative symmetry: for odd k,

    (-1)**m sum_{i<=m+q} C(m+q,i) C(n+q+i,k) E_{n+q+i-k}(a)
      + (-1)**n sum_{j<=n+q} C(n+q,j) C(m+q+j,k) E_{m+q+j-k}(-a) = 0.

    Summands with k > n+q+i (resp. m+q+j) vanish through the binomial zero
    convention before any negative-index Euler polynomial is constructed.
    """
    lhs = euler_sum(
        [((-1) ** m * binomial(m + q, i) * binomial(n + q + i, k),
          n + q + i - k) for i in range(m + q + 1)],
        [((-1) ** n * binomial(n + q, j) * binomial(m + q + j, k),
          m + q + j - k) for j in range(n + q + 1)])
    return lhs, Polynomial()


@checker("cro0", _grid("n", "q"), "scalar", where=lambda n, q: q % 2 == 1)
def check_cro0(n: int, q: int):
    """sum_i C(n+q,i) (n+q+i)(n+q+i-1)...(n+i+1) E_{n+i}(0) = 0 for odd q.

    The symmetric specialization (both summation weights equal) of the
    derivative symmetry at the origin; q = 1 and q = 3 are the classical
    Kaneko-type and Chen-Sun-type cases.
    """
    total = Fraction(0)
    for i in range(n + q + 1):
        total += binomial(n + q, i) * falling_factorial(n + q + i, q) \
            * euler_zero(n + i)
    return total


@checker("cro1", _MN, "scalar", where=lambda m, n: m + n > 0)
def check_cro1(m: int, n: int):
    """sum_i C(m+1,i)(n+i+1)E_{n+i}(0)
    + (-1)**(m+n) sum_j C(n+1,j)(m+j+1)E_{m+j}(0) = 0."""
    first = sum(binomial(m + 1, i) * (n + i + 1) * euler_zero(n + i)
                for i in range(m + 2))
    second = sum(binomial(n + 1, j) * (m + j + 1) * euler_zero(m + j)
                 for j in range(n + 2))
    return first + (-1) ** (m + n) * second


@checker("cro2", _N, "scalar")
def check_cro2(n: int):
    """sum_{j<=n+1} C(n+1,j)(n+j+1)E_{n+j}(0) = 0."""
    return sum(binomial(n + 1, j) * (n + j + 1) * euler_zero(n + j)
               for j in range(n + 2))


def euler_zero_via_recurrence(n: int) -> Fraction:
    """E_{2n+1}(0) from the halved-index recurrence
    -(1 / (2(n+1))) sum_{j<=n} C(n+1,j)(n+j+1)E_{n+j}(0)."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    total = sum(binomial(n + 1, j) * (n + j + 1) * euler_zero(n + j)
                for j in range(n + 1))
    return Fraction(-1, 2 * (n + 1)) * total


@checker("recurrence_odd", _N, "scalar")
def check_recurrence_odd(n: int):
    """The recurrence value agrees with the directly generated E_{2n+1}(0)."""
    return euler_zero_via_recurrence(n) - euler_zero(2 * n + 1)


@checker("sun", _grid("m", "n", a="points"), rational=("a",))
def check_sun(m: int, n: int, a: Fraction):
    """Three-parameter symmetry, symbolic in b with c = 1 - a - b:

    (-1)**m sum_i C(m,i) a**(m-i) E_{n+i}(b)
      = (-1)**n sum_j C(n,j) a**(n-j) E_{m+j}(c).
    """
    lhs = euler_sum([((-1) ** m * binomial(m, i) * a ** (m - i), n + i)
                     for i in range(m + 1)])
    rhs = euler_sum([((-1) ** n * binomial(n, j) * a ** (n - j), m + j)
                     for j in range(n + 1)])
    return lhs, rhs.compose_affine(-1, 1 - a)


@checker("sun_cor", _MN, "scalar")
def check_sun_cor(m: int, n: int):
    """(-1)**m sum_i C(m,i) E_{n+i} / 2**(n+i)
    = (-1)**n sum_j C(n,j) E_{m+j}(-1/2), with E_k the Euler numbers."""
    lhs = sum(binomial(m, i) * Fraction(euler_number(n + i), 2 ** (n + i))
              for i in range(m + 1))
    rhs = euler_sum([(binomial(n, j), m + j)
                     for j in range(n + 1)])(Fraction(-1, 2))
    return (-1) ** m * lhs - (-1) ** n * rhs


# ---------------------------------------------------------------------------
# thm2's pivot polynomial, read through binomial rows
# ---------------------------------------------------------------------------

def _binomial_row(c: int, e: int, sign: int) -> list:
    """Coefficients of (sign*a + c)**e in a, lowest degree first."""
    return [math.comb(e, j) * c ** (e - j) * sign ** j for j in range(e + 1)]


def _pivot_taylor_sum(m: int, n: int, s: int, k: int) -> Polynomial:
    """(2/k!) sum_{l=1}^{s} (-1)**l P^{(k)}(l; a) for thm2's pivot P, as the
    integer polynomial 2 sum_l (-1)**l [t**k] P(l+t; a). With u, w equal to
    sign*a plus an integer, each term of [t**k] (t+u)**M (t+w)**M2 =
    sum_i C(M,i) C(M2,k-i) u**(M-i) w**(M2-k+i) is a product of two rows."""
    acc = [0] * max(0, m + n + 3 - k)
    for sign, M, M2, weight in ((1, m + 1, n + 1, 2),
                                (-1, n + 1, m + 1, 2 * (-1) ** (m + n))):
        for l in range(1, s + 1):
            for i in range(max(0, k - M2), min(M, k) + 1):
                c = (-1) ** l * weight * math.comb(M, i) * math.comb(M2, k - i)
                row_w = _binomial_row(l - s - 1, M2 - k + i, sign)
                for j, x in enumerate(_binomial_row(l, M - i, sign)):
                    x *= c
                    for jj, y in enumerate(row_w):
                        acc[j + jj] += x * y
    return Polynomial(acc)


@checker("thm2", _grid("m", "n", "s", "k"),
         where=lambda m, n, s, k: m + n > 0 and s >= 1)
def check_thm2(m: int, n: int, s: int, k: int):
    """Parity-selected order-k symmetry against the pivot polynomial

    P(x; a) = (x+a)**(m+1) (x+a-s-1)**(n+1)
              + (-1)**(m+n) (x-a)**(n+1) (x-a-s-1)**(m+1),

    whose shift symmetry P(x+s+1) = P(-x) the order-k sums certify:

    delta * (sum_i (s+1)**(m-i+1) C(m+1,i) C(n+i+1,k) E_{n+i-k+1}(a)
             + (-1)**(m+n) sum_j (s+1)**(n-j+1) C(n+1,j) C(m+j+1,k)
               E_{m+j-k+1}(-a))
      = (2/k!) sum_{l=1}^{s} (-1)**l P^{(k)}(l; a),

    delta = (-1)**s - (-1)**k in {+2, -2, 0}. For delta = 0 the check
    asserts that the derivative sum on the right is identically zero.
    The right side is summed from binomial rows; P is never built.
    """
    delta = (-1) ** s - (-1) ** k
    lhs = euler_sum(
        [(delta * binomial(m + 1, i) * binomial(n + i + 1, k)
          * (s + 1) ** (m - i + 1), n + i - k + 1) for i in range(m + 2)],
        [(delta * (-1) ** (m + n) * binomial(n + 1, j) * binomial(m + j + 1, k)
          * (s + 1) ** (n - j + 1), m + j - k + 1) for j in range(n + 2)])
    return lhs, _pivot_taylor_sum(m, n, s, k)


@checker("thm2_cro1", _NK, "scalar")
def check_thm2_cro1(n: int, k: int):
    """Specialized alternating dyadic sums (symmetric case, unit shift, at 0):

    k odd:  sum_i ((-1)**i / 2**i) C(n+1,i) C(n+i+1,k) = 0;
    k even: the same weights against ((-1)**i E_{n+i-k+1}(0) + (-1)**n) = 0.
    """
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
    return total


@checker("thm2_cro2", _NK, "scalar")
def check_thm2_cro2(n: int, k: int):
    """Specialized ternary sums (symmetric case, double shift, at 0):

    k odd:  weights (-1)**i 3**(n-i+1) C(n+1,i) C(n+i+1,k) against
            ((-1)**i E_{n+i-k+1}(0) + (-1)**n (2**(n+i-k+1) - 1)) = 0;
    k even: the same weights against (2**(n+i-k+1) - 1) = 0.
    """
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
    return total


# ---------------------------------------------------------------------------
# Parity-filtered identities
# ---------------------------------------------------------------------------

# k (and l, j) are structurally bounded by m, so they sweep 0..m rather
# than a grid axis, and ``where`` cuts each down to its stated range.

def _per_m(*names):
    def gen(grid):
        for m in sorted(set(grid.m)):
            for combo in itertools.product(range(m + 1), repeat=len(names)):
                yield {"m": m, **dict(zip(names, combo))}
    return gen


# thm3_1d's reports run j before k, an order the goldens fix
def _gen_mkj(grid):
    return ({"m": m, "k": k, "j": j} for m in sorted(set(grid.m))
            for j in range(1, m + 1) for k in range(m + 1))


@checker("thm3", _per_m("k"), where=lambda m, k: k <= m)
def check_thm3(m: int, k: int):
    """Parity-filtered expansion, 0 <= k <= m:

    sum_{i: m+i even} C(m,i) C(m+i,k) E_{m+i-k}(a)
      = sum_j (-1)**(m+j) C(m,j) C(m+j,k) a**(m+j-k).
    """
    lhs = euler_sum([(binomial(m, i) * binomial(m + i, k), m + i - k)
                     for i in range(m + 1) if (m + i) % 2 == 0])
    rhs = [0] * (m - k) + [(-1) ** (m + j) * binomial(m, j)
                           * binomial(m + j, k) for j in range(m + 1)]
    return lhs, Polynomial(rhs)


def _thm3_1_sum(m: int, k: int, top: int, shift: int, start: int = 0):
    """The parity sum of thm3 read off at 0: over start <= i <= m with m+i
    even, sum C(m,i) C(m+i,k) C(m+i-k,top) E_{i+shift}(0)."""
    return sum(binomial(m, i) * binomial(m + i, k) * binomial(m + i - k, top)
               * euler_zero(i + shift)
               for i in range(start, m + 1) if (m + i) % 2 == 0)


@checker("thm3_1a", _per_m("k"), "scalar", where=lambda m, k: k <= m)
def check_thm3_1a(m: int, k: int):
    """0 <= k <= m: sum_{m+i even} C(m,i)C(m+i,k)C(m+i-k,m-k)E_i(0)
    = (-1)**m C(m,k)."""
    return _thm3_1_sum(m, k, m - k, 0) - (-1) ** m * binomial(m, k)


@checker("thm3_1b", _per_m("k"), "scalar", where=lambda m, k: k < m)
def check_thm3_1b(m: int, k: int):
    """0 <= k <= m-1: sum_{m+i even} C(m,i)C(m+i,k)C(m+i-k,m-k-1)E_{i+1}(0)
    = 0."""
    return _thm3_1_sum(m, k, m - k - 1, 1)


@checker("thm3_1c", _per_m("k", "l"), "scalar",
         where=lambda m, k, l: k + l < m)
def check_thm3_1c(m: int, k: int, l: int):
    """0 <= l <= m-k-1: sum_{m+i even} C(m,i)C(m+i,k)C(m+i-k,l)
    E_{m+i-k-l}(0) = 0."""
    return _thm3_1_sum(m, k, l, m - k - l)


@checker("thm3_1d", _gen_mkj, "scalar",
         where=lambda m, k, j: 1 <= j <= m and k <= m)
def check_thm3_1d(m: int, k: int, j: int):
    """1 <= j <= m, 0 <= k <= m: the tail sum from i = j,
    sum_{m+i even} C(m,i)C(m+i,k)C(m+i-k,m+j-k)E_{i-j}(0),
    equals (-1)**(m+j) C(m,j) C(m+j,k)."""
    return (_thm3_1_sum(m, k, m + j - k, -j, start=j)
            - (-1) ** (m + j) * binomial(m, j) * binomial(m + j, k))


@checker("rem2_1", _grid("m"), "scalar", where=lambda m: m >= 3)
def check_rem2_1(m: int):
    """sum_i C(m,i)(m+i)(m+i-1)(m+i-2) E_{m+i-3}(0) = 0 for m >= 3."""
    return sum(binomial(m, i) * falling_factorial(m + i, 3)
               * euler_zero(m + i - 3) for i in range(m + 1))


# ---------------------------------------------------------------------------
# Functional-equation identities
# ---------------------------------------------------------------------------

@checker("fersim", _N)
def check_fersim(n: int):
    """E_n(a+1) + E_n(a) = 2 a**n."""
    return (euler_poly_shifted(n, 1, 1) + euler_poly(n),
            monomial(n, Fraction(2)))


@checker("fersim3", _grid("n", "q"), where=lambda n, q: q >= 1)
def check_fersim3(n: int, q: int):
    """Telescoped functional equation:
    (-1)**(q-1) E_n(a+q) + E_n(a) = 2 sum_{i<q} (-1)**i (a+i)**n."""
    lhs = (-1) ** (q - 1) * euler_poly_shifted(n, 1, q) + euler_poly(n)
    rows = [_binomial_row(i, n, 1) for i in range(q)]
    return lhs, Polynomial([2 * sum((-1) ** i * row[j]
                                    for i, row in enumerate(rows))
                            for j in range(n + 1)])


# ---------------------------------------------------------------------------
# Valuation certificates
# ---------------------------------------------------------------------------

def _gen_witt(grid):
    # only p-integral shifts have a fermionic sum
    for p in sorted(set(grid.p_list)):
        for n in sorted(set(grid.n)):
            for a in sorted(set(grid.points)):
                if a.denominator % p != 0:
                    yield {"n": n, "a": a, "p": p, "precision": grid.precision}


@checker("witt", _gen_witt, "valuation", rational=("a",))
def check_witt(n: int, a: Fraction, p: int, precision: int):
    """v_p(S_N - E_n(a)) >= N, S_N the sum of (x+a)**n (-1)**x over
    x < p**N by base-p digits."""
    return witt_defect(n, a, p, precision)


def _lem1_poly(p: int, index: int, max_degree: int = 8) -> Polynomial:
    """Deterministic pseudo-random p-integral polynomial for suite sweeps."""
    rng = random.Random(916191 * p + index)
    degree = rng.randint(0, max_degree)
    coeffs = []
    for _ in range(degree + 1):
        den = rng.choice([d for d in range(1, 11) if d % p != 0])
        coeffs.append(Fraction(rng.randint(-20, 20), den))
    return Polynomial(coeffs)


def _gen_lem1(grid):
    for p in sorted(set(grid.p_list)):
        for index in range(grid.lem1_count):
            yield {"f": _lem1_poly(p, index), "p": p,
                   "precision": grid.precision, "index": index}


def _lem1_params(f, p, precision, index):
    params = {"p": p, "precision": precision, "poly": f.to_coeff_strings()}
    return params if index is None else {**params, "index": index}


@checker("lem1", _gen_lem1, "valuation", report_params=_lem1_params)
def check_lem1(f: Polynomial, p: int, precision: int, index=None):
    """Reflection/shift functional-equation defect >= N for one polynomial;
    ``index`` numbers the suite's pseudo-random polynomials."""
    return lem1_defect(f, p, precision)


# ---------------------------------------------------------------------------
# Suite driver
# ---------------------------------------------------------------------------

CHECKER_IDS = tuple(CHECKERS)


def run_suite(ids=None, grid: SweepGrid | None = None,
              mode: str = "symbolic") -> list[IdentityReport]:
    """Run the selected checkers over a bounded grid.

    Reports come back in canonical order (id, then ascending parameters),
    independent of how the work is executed. Unknown ids and an unknown
    mode are usage errors, raised before any check runs.
    Grid values outside a checker's stated domain (its ``where`` and the
    natural-number rule) are skipped for that checker, so a checker may
    yield no report at all. A checker whose body raises anything but
    ``ValueError`` fails its report, and the run goes on.
    """
    _require_mode(mode)
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
        entry = CHECKERS[cid]
        for params in entry.gen(grid):
            reports.append(entry.run(params, mode))
    return reports
