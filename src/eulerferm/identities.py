"""Mechanical checkers for the Euler-polynomial identity catalog.

Every checker is a function registered with
``@checker(cid, gen, kind, where)``. Its body states one identity, builds
both sides exactly and returns what its kind asks for:

* ``"poly"``: ``(lhs, rhs, *lemma_residuals)``, both sides as Polynomial
  objects in the free argument ``a`` (or ``b``). The residual lhs - rhs
  must be the zero polynomial -- a certificate valid over every
  commutative ring containing the rationals. Lemma residuals are internal
  sub-checks; they must vanish too, but the reported residual stays the
  main one.
* ``"scalar"``: the exact residual of a numeric identity, which must be 0.
* ``"valuation"``: for statements that are p-adic limits, the defect
  v_p(truncation - exact), which must reach the ``precision`` parameter.

A report's ``mode`` names its certificate: ``"valuation"`` for the
valuation kind, ``"symbolic"`` for the other two.

The body tests no domain, does no timing and builds no report. Its domain
is stated once, as the predicate ``where``; every int param must be a
natural number, and every param annotated ``Fraction`` or ``Polynomial``
must hold one. The driver ``CHECKERS[cid].run(params)`` first raises
``ValueError`` for params whose keys are not the body's parameter names
and for params outside the domain; then its judging step calls the body,
times it, judges the result by the checker's kind and builds the
``IdentityReport``, failing it with ``"<Type>: <message>"`` if the body
raises anything but ``ValueError``. ``run_suite`` takes only a
``SweepGrid``, whose axes hold natural numbers and whose points are
Fractions, so a checker's sweep ``gen(grid)`` tests ``where`` alone, and
``run_suite`` calls ``run(params, swept=True)``, the judging step alone,
once per dict. ``check_<id>(*args)`` binds its arguments by name and
calls ``run`` with every entry check.

Exact arithmetic stays on the integers where the values are integers. The
symmetry theorems read the binomial E-sums
A_c(M, N, k) = sum_i C(M,i) c**(M-i) C(N+i,k) E_(N+i-k) from one memo: a
side that is one entry up to sign reads it as stored (``euler.binomial_sum``:
the left side of wsp7, c = 1, and both sides of sun, c = a), and
``euler.binomial_sums`` adds weighted entries at a and at -a (the right side
of wsp7, and the left sides of thm1, c = 1, and thm2, c = s + 1). A sum
that several reports read, or a report and its transpose, is built once in a
sweep, and the memo is dropped when each sweep, or direct call, ends. The
other weighted sums of E_n(a) and E_n(-a) (the left sides of complement,
wsp9 and thm3, and the right side of sun_cor) go through
``euler.euler_sum``, and every sum of E_k(0) (cro0-cro2, recurrence_odd,
thm2_cro1/2, thm3_1a-d and rem2_1) through ``euler.zero_sum``. All of them
add integer numerators over one common denominator, for integer or rational
weights alike, and divide it out once. The right sides of thm2, thm3 and
fersim3 are integer polynomials in a, summed from binomial rows
(a + c)**e (fersim3's as the column sums of its signed rows); thm2's reads
the coefficients of sum_l (-1)**l (y+l)**M (y+l-s-1)**M2, kept for the
sweep like the E-sums. witt and lem1 keep the p-adic moment vector of the
last (p, N) they read for the sweep too (``padic._moments``).
Every shifted E_n(u*a + v) comes from ``Polynomial.compose_affine``, an
integer Taylor shift over one common denominator; sun composes its whole
right side once.

``run_suite`` runs the checker sweeps on every CPU the process may use. It
draws each checker's params first; where two checkers or more are
selected, with ``_SWEEP_CUT`` reports or more between them, and
``workers.cpus`` allows two processes or more, it forks one child per
extra CPU. The sweeps' indices wait in a pipe, most reports first, and
each process claims the next by reading one byte. The sweeps share nothing
but the append-only tables of ``euler``, which each process extends on its
own, and the memos, which each sweep drops when it ends. Each process hands
every sweep it runs to a per-sweep hook, ``render``, right after running
it, and a child sends what the hook returned back by ``marshal``: ``verify``
renders the sweep's output there, and a library call pickles its reports.
The caller takes the results in canonical order and runs any sweep whose
child failed again itself, so the reports are those of a serial run, less
``elapsed_ms``, and no child outlives the call.

Checker ids are stable catalog strings (``wsp7``, ``thm1``, ...); the same
ids name the CLI surface. No tolerances exist anywhere: residuals are exact,
and the only inequality is the valuation lower bound.
"""

from __future__ import annotations

import contextlib
import inspect
import itertools
import marshal
import math
import os
import random
import time
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, wraps
from operator import neg

from .euler import (
    MAX_DEGREE,
    EulerRecurrence,
    alt_power_sum,
    bernoulli_poly,
    binomial_sum,
    binomial_sums,
    drop_binomial_sums,
    euler_number,
    euler_poly,
    euler_poly_by_differences,
    euler_poly_shifted,
    euler_sum,
    euler_zero,
    power_sum,
    zero_sum,
)
from .numeric import binomial, falling_factorial
from .padic import (fermionic_sum_closed, lem1_defect, require_odd_prime,
                    require_precision, witt_defect)
from .polynomial import Polynomial, monomial
from .workers import cpus, forked

__all__ = [
    "IdentityReport",
    "SweepGrid",
    "CHECKER_IDS",
    "CHECKERS",
    "run_suite",
    "child_stats",
    "euler_zero_via_recurrence",
]


# the two records are named tuples, not dataclasses: a dataclass
# generates its methods when the module is imported, which every command
# pays at start-up
IdentityReport = namedtuple(
    "IdentityReport", "checker params mode residual passed elapsed_ms",
    defaults=(0.0,))
IdentityReport.__doc__ = "Outcome record of one identity check."


# ---------------------------------------------------------------------------
# Registry and sweep grids
# ---------------------------------------------------------------------------

class SweepGrid(namedtuple("SweepGrid",
                           "m n q k s points p_list precision")):
    """Bounded parameter grid for suite runs (defaults: the desk grid).

    Every grid is checked when it is built, by ``_replace`` too: each index
    range holds natural numbers up to ``MAX_DEGREE``, each prime is odd and
    the precision is a digit sum's. Each field but the precision is stored
    as a tuple, built from any iterable, so a checked grid cannot change.
    """

    __slots__ = ()

    def __new__(cls, m=tuple(range(7)), n=tuple(range(7)), q=(1, 2, 3),
                k=(1, 2, 3), s=(1, 2, 3),
                points=(Fraction(0), Fraction(1), Fraction(1, 2),
                        Fraction(-1), Fraction(-2, 3)),
                p_list=(3, 5, 7), precision=2):
        try:
            m, n, q, k, s, points, p_list = map(
                tuple, (m, n, q, k, s, points, p_list))
        except TypeError:
            raise ValueError("every grid field but precision must be "
                             "iterable") from None
        indices = m + n + q + k + s
        if not all(type(v) is int for v in indices + p_list + (precision,)):
            raise ValueError("every grid field but points must hold integers")
        require_precision(precision)
        if min(indices, default=0) < 0:
            raise ValueError("ranges must be non-negative")
        for axis, values in zip("mnqks", (m, n, q, k, s)):
            top = max(values, default=0)
            if top > MAX_DEGREE:
                raise ValueError(f"{axis} must be <= {MAX_DEGREE}, got {top}")
        for p in p_list:
            require_odd_prime(p)
        # a swept point is reported as a Fraction, as in a direct call
        return super().__new__(cls, m, n, q, k, s,
                               tuple(map(Fraction, points)), p_list, precision)

    @classmethod
    def _make(cls, iterable):
        # namedtuple's own _make, which _replace calls, skips __new__
        return cls(*iterable)


@dataclass(frozen=True)
class Checker:
    run: object           # callable(params: dict) -> IdentityReport
    gen: object           # callable(grid: SweepGrid) -> iterator of params


CHECKERS: dict[str, Checker] = {}

# looked up on a body's first direct call, not when it is registered,
# so that importing the catalog stays cheap
_signature = lru_cache(maxsize=None)(inspect.signature)


_TYPED = {"Fraction": Fraction, "Polynomial": Polynomial}

# the residual of equal sides and thm1's right side; Polynomial is
# immutable, so one instance serves every report
_ZERO = Polynomial()


def checker(cid: str, gen, kind: str = "poly", where=None,
            report_params=None):
    """Register the decorated body as checker ``cid``; return check_<cid>.

    ``where(**params)`` states the domain. Every catalog index is a natural
    number, so a param annotated ``int`` or holding an int must be an int
    >= 0, and a param annotated ``Fraction`` or ``Polynomial`` must hold
    one. ``run`` raises ``ValueError`` outside the domain (``thm1 is not
    stated at m=1, n=0, q=1, k=2``). It also raises ``ValueError`` when
    the params' keys are not the body's parameter names (``cro2 takes
    params n, got none``), read once from its code. The sweep skips params
    outside ``where`` and tests nothing else: ``gen`` draws its ints and
    Fractions from a checked ``SweepGrid``, and builds the rest itself.
    ``swept=True`` skips the entry checks for params that the sweep has
    filtered; any other call drops the sweep memos when its body returns.
    ``check_<cid>`` turns an int given for a ``Fraction`` param to one.
    ``report_params(**params)`` maps params to the report's.
    """
    # the certificate every report of the checker names
    mode = "valuation" if kind == "valuation" else "symbolic"

    def register(body):
        hints = body.__annotations__.items()
        naturals = {k for k, a in hints if a == "int"}
        typed = [(k, _TYPED[a]) for k, a in hints if a in _TYPED]
        code = body.__code__
        names = code.co_varnames[:code.co_argcount]
        keys = frozenset(names)

        def stated(params: dict) -> bool:
            return (all(type(v) is int and v >= 0 for k, v in params.items()
                        if isinstance(v, int) or k in naturals)
                    and all(isinstance(params[k], t) for k, t in typed)
                    and (where is None or where(**params)))

        def run(params: dict, swept=False) -> IdentityReport:
            if not swept:   # the sweep has tested `where`
                if params.keys() != keys:
                    raise ValueError(f"{cid} takes params {', '.join(names)}, "
                                     f"got {', '.join(params) or 'none'}")
                if not stated(params):
                    raise ValueError(f"{cid} is not stated at " + ", ".join(
                        f"{k}={v}" for k, v in params.items()))
            started = time.perf_counter()
            try:
                result = body(**params)
                if kind == "scalar":
                    # most bodies return a Fraction, which is used as it is
                    residual = (result if type(result) is Fraction
                                else Fraction(result))
                    passed = result == 0
                elif kind == "valuation":
                    residual, passed = result, result >= params["precision"]
                else:
                    lhs, rhs, *lemmas = result
                    # both sides are normalized, so equal coefficient tuples
                    # are exactly the zero residual
                    residual = _ZERO if lhs == rhs else lhs - rhs
                    passed = residual.is_zero() and not any(lemmas)
            except ValueError:
                raise
            except Exception as exc:
                # one broken checker fails its own report, not the whole run
                residual, passed = f"{type(exc).__name__}: {exc}", False
            finally:
                if not swept:   # a direct call is a sweep of one report
                    _drop_sweep_memos()
            elapsed = (time.perf_counter() - started) * 1000.0
            if report_params is not None:
                params = report_params(**params)
            return IdentityReport(cid, params, mode, residual, passed, elapsed)

        @wraps(body)
        def check(*args, **kwargs) -> IdentityReport:
            params = _signature(body).bind(*args, **kwargs)
            params.apply_defaults()
            for name, t in typed:
                if t is Fraction and type(params.arguments[name]) is int:
                    params.arguments[name] = Fraction(params.arguments[name])
            return run(params.arguments)

        def sweep(grid):
            return (params for params in gen(grid) if where(**params))

        CHECKERS[cid] = Checker(run, gen if where is None else sweep)
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
    """(-1)**n E_n(-a) + E_n(a) = 2 a**n. The terms C(n, k) E_k(0) a**(n-k)
    with odd k cancel, and E_k(0) = 0 at every even k >= 2, so this reads
    only s_0 of the tangent column: gf_consistency certifies the tangent
    numbers."""
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
    """sum_{j=0..m} (-1)**j j**n = ((-1)**m E_n(m+1) + E_n(0)) / 2, with
    0**0 = 1: the direct sum against Witt's closed form of the truncated
    fermionic sum of x**n over x < m + 1, the one ``witt --naive`` prints.
    """
    return alt_power_sum(m, n) - fermionic_sum_closed(n, 0, m + 1)


@checker("bernoulli_power_sum", _MN, "scalar", where=lambda m, n: m >= 1)
def check_bernoulli_power_sum(m: int, n: int):
    """sum_{j=0..m} j**n = (B_{n+1}(m+1) - B_{n+1}(0)) / (n+1), with
    0**0 = 1."""
    b = bernoulli_poly(n + 1)
    return power_sum(m, n) - (b(Fraction(m + 1)) - b(Fraction(0))) / (n + 1)


# ---------------------------------------------------------------------------
# Binomial symmetry identities, polynomial in a
# ---------------------------------------------------------------------------

@checker("wsp7", _MN)
def check_wsp7(m: int, n: int):
    """(-1)**m sum_i C(m,i) E_{n+i}(a) = (-1)**n sum_j C(n,j) E_{m+j}(-a),
    that is, (-1)**m A_1(m, n, 0)(a) = (-1)**n A_1(n, m, 0)(-a)."""
    return ((-1) ** m * binomial_sum(m, n, 0),
            binomial_sums(neg_terms=[((-1) ** n, n, m, 0, 1)]))


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

    The sums are A_1(m+q, n+q, k)(a) and A_1(n+q, m+q, k)(-a). Summands
    with k > n+q+i (resp. m+q+j) vanish before any negative-index Euler
    polynomial is constructed.
    """
    lhs = binomial_sums([((-1) ** m, m + q, n + q, k, 1)],
                        [((-1) ** n, n + q, m + q, k, 1)])
    return lhs, _ZERO


@checker("cro0", _grid("n", "q"), "scalar", where=lambda n, q: q % 2 == 1)
def check_cro0(n: int, q: int):
    """sum_i C(n+q,i) (n+q+i)(n+q+i-1)...(n+i+1) E_{n+i}(0) = 0 for odd q.

    The symmetric specialization (both summation weights equal) of the
    derivative symmetry at the origin; q = 1 and q = 3 are the classical
    Kaneko-type and Chen-Sun-type cases.
    """
    return zero_sum([(binomial(n + q, i) * falling_factorial(n + q + i, q),
                      n + i) for i in range(n + q + 1)])


@checker("cro1", _MN, "scalar", where=lambda m, n: m + n > 0)
def check_cro1(m: int, n: int):
    """sum_i C(m+1,i)(n+i+1)E_{n+i}(0)
    + (-1)**(m+n) sum_j C(n+1,j)(m+j+1)E_{m+j}(0) = 0."""
    return zero_sum([(binomial(m + 1, i) * (n + i + 1), n + i)
                     for i in range(m + 2)]
                    + [((-1) ** (m + n) * binomial(n + 1, j) * (m + j + 1),
                        m + j) for j in range(n + 2)])


def _cro2_terms(n: int, count: int) -> list:
    """(C(n+1,j)(n+j+1), n+j) for j < count, with C(n+1, j) carried along
    the row."""
    terms, c = [], 1
    for j in range(count):
        terms.append((c * (n + j + 1), n + j))
        c = c * (n + 1 - j) // (j + 1)
    return terms


@checker("cro2", _N, "scalar")
def check_cro2(n: int):
    """sum_{j<=n+1} C(n+1,j)(n+j+1)E_{n+j}(0) = 0."""
    return zero_sum(_cro2_terms(n, n + 2))


def euler_zero_via_recurrence(n: int) -> Fraction:
    """E_{2n+1}(0) from the halved-index recurrence
    -(1 / (2(n+1))) sum_{j<=n} C(n+1,j)(n+j+1)E_{n+j}(0)."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    return Fraction(-1, 2 * (n + 1)) * zero_sum(_cro2_terms(n, n + 1))


@checker("recurrence_odd", _N, "scalar")
def check_recurrence_odd(n: int):
    """The recurrence value agrees with the directly generated E_{2n+1}(0)."""
    return euler_zero_via_recurrence(n) - euler_zero(2 * n + 1)


@checker("sun", _grid("m", "n", a="points"))
def check_sun(m: int, n: int, a: Fraction):
    """Three-parameter symmetry, symbolic in b with c = 1 - a - b:

    (-1)**m sum_i C(m,i) a**(m-i) E_{n+i}(b)
      = (-1)**n sum_j C(n,j) a**(n-j) E_{m+j}(c).

    The sums are A_a(m, n, 0) and A_a(n, m, 0), read as stored and negated
    at most; the right one is composed with b -> 1 - a - b once.
    """
    lhs = (-1) ** m * binomial_sum(m, n, 0, a)
    rhs = (-1) ** n * binomial_sum(n, m, 0, a)
    return lhs, rhs.compose_affine(-1, 1 - a)


@checker("sun_cor", _MN, "scalar")
def check_sun_cor(m: int, n: int):
    """(-1)**m sum_i C(m,i) E_{n+i} / 2**(n+i)
    = (-1)**n sum_j C(n,j) E_{m+j}(-1/2), with E_k the Euler numbers. The
    left side is the integer sum_i C(m,i) E_{n+i} 2**(m-i) over 2**(n+m)."""
    lhs = sum(binomial(m, i) * euler_number(n + i) << m - i
              for i in range(m + 1))
    rhs = euler_sum([(binomial(n, j), m + j)
                     for j in range(n + 1)])(Fraction(-1, 2))
    return (-1) ** m * Fraction(lhs, 1 << n + m) - (-1) ** n * rhs


# ---------------------------------------------------------------------------
# thm2's pivot polynomial, summed from binomial rows
# ---------------------------------------------------------------------------

def _binomial_row(c: int, e: int) -> list:
    """Coefficients of (a + c)**e in a, lowest degree first."""
    return [math.comb(e, j) * c ** (e - j) for j in range(e + 1)]


def _shift_sum(M: int, M2: int, s: int) -> tuple:
    """Coefficients g_0..g_(M+M2) of
    G(y) = sum_{l=1}^{s} (-1)**l (y+l)**M (y+l-s-1)**M2, lowest first: each
    term convolves the binomial rows of (y+l)**M and (y+l-s-1)**M2. The
    top coefficient, sum_l (-1)**l, is kept where it is zero."""
    g = [0] * (M + M2 + 1)
    for l in range(1, s + 1):
        row2 = _binomial_row(l - s - 1, M2)
        for i, x in enumerate(_binomial_row(l, M)):
            x = -x if l & 1 else x
            for j, y in enumerate(row2, i):
                g[j] += x * y
    return tuple(g)


# ``_shift_sum``, memoized until a sweep ends: thm2 reads the same G for
# every k, and its G2 at (m, n) is its G1 at (n, m)
@lru_cache(maxsize=None)
def _cached_shift_sum(M: int, M2: int, s: int) -> tuple:
    return _shift_sum(M, M2, s)


def _pivot_taylor_sum(m: int, n: int, s: int, k: int) -> Polynomial:
    """(2/k!) sum_{l=1}^{s} (-1)**l P^{(k)}(l; a) for thm2's pivot P, as the
    integer polynomial 2 [t**k] (G1(a+t) + (-1)**(m+n) G2(t-a)), where G1
    and G2 are ``_shift_sum``'s G at (M, M2) = (m+1, n+1) and (n+1, m+1).
    Coefficient i is 2 C(i+k,k) (g1[i+k] + (-1)**(m+n+i) g2[i+k]): the
    binomials, the tails g1[k:] and g2[k:] (empty past the top degree) and
    the signs, cycled from i = 0, come from C-level iterators, and only the
    integer products run as bytecode."""
    tail1 = _cached_shift_sum(m + 1, n + 1, s)[k:]
    tail2 = _cached_shift_sum(n + 1, m + 1, s)[k:]
    signs = itertools.cycle((-1, 1) if (m + n) & 1 else (1, -1))
    combs = map(math.comb, itertools.count(k), itertools.repeat(k))
    return Polynomial.scaled([2 * c * (x + sign * y) for c, x, y, sign
                              in zip(combs, tail1, tail2, signs)])


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
    The left side is delta (A_(s+1)(m+1, n+1, k)(a)
    + (-1)**(m+n) A_(s+1)(n+1, m+1, k)(-a)), and the right side is summed
    from binomial rows; P is never built.
    """
    delta = (-1) ** s - (-1) ** k
    lhs = binomial_sums([(delta, m + 1, n + 1, k, s + 1)],
                        [(delta * (-1) ** (m + n), n + 1, m + 1, k, s + 1)])
    return lhs, _pivot_taylor_sum(m, n, s, k)


@checker("thm2_cro1", _NK, "scalar")
def check_thm2_cro1(n: int, k: int):
    """Specialized alternating dyadic sums (symmetric case, unit shift, at 0):

    k odd:  sum_i ((-1)**i / 2**i) C(n+1,i) C(n+i+1,k) = 0;
    k even: the same weights against ((-1)**i E_{n+i-k+1}(0) + (-1)**n) = 0.

    The weights are summed as the integers C(n+1,i) C(n+i+1,k) 2**(n+1-i)
    over 2**(n+1).
    """
    ws = [binomial(n + 1, i) * binomial(n + i + 1, k) << n + 1 - i
          for i in range(n + 2)]   # the weights without their signs
    total = sum(ws[::2]) - sum(ws[1::2])
    if k % 2 == 1:
        return Fraction(total, 1 << n + 1)
    return (zero_sum([(w, n + i - k + 1) for i, w in enumerate(ws)])
            + (-1) ** n * total) / (1 << n + 1)


@checker("thm2_cro2", _NK, "scalar")
def check_thm2_cro2(n: int, k: int):
    """Specialized ternary sums (symmetric case, double shift, at 0):

    k odd:  weights (-1)**i 3**(n-i+1) C(n+1,i) C(n+i+1,k) against
            ((-1)**i E_{n+i-k+1}(0) + (-1)**n (2**(n+i-k+1) - 1)) = 0;
    k even: the same weights against (2**(n+i-k+1) - 1) = 0.
    """
    ws = [(3 ** (n - i + 1) * binomial(n + 1, i) * binomial(n + i + 1, k),
           i, n + i - k + 1) for i in range(n + 2)]   # unsigned weights
    # a zero weight, C(n+i+1, k) = 0, is the one case with e < 0
    pow2 = sum((-1) ** i * w * (2 ** e - 1) for w, i, e in ws if w)
    if k % 2 == 0:
        return pow2
    return zero_sum([(w, e) for w, _, e in ws]) + (-1) ** n * pow2


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
    return zero_sum([(binomial(m, i) * binomial(m + i, k)
                      * binomial(m + i - k, top), i + shift)
                     for i in range(start, m + 1) if (m + i) % 2 == 0])


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
    return zero_sum([(binomial(m, i) * falling_factorial(m + i, 3), m + i - 3)
                     for i in range(m + 1)])


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
    rows = [_binomial_row(i, n) for i in range(q)]
    signed = [map(neg, row) if i % 2 else row for i, row in enumerate(rows)]
    return lhs, Polynomial.scaled([2 * c for c in map(sum, zip(*signed))])


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


# the moment vector of the last (p, N) read, kept until a sweep ends: it
# serves every degree up to the one it was built to
_MOMENTS: dict = {}


@checker("witt", _gen_witt, "valuation")
def check_witt(n: int, a: Fraction, p: int, precision: int):
    """v_p(S_N - E_n(a)) >= N, S_N the sum of (x+a)**n (-1)**x over
    x < p**N from the moments by the binomial theorem."""
    return witt_defect(n, a, p, precision, moments=_MOMENTS)


def _lem1_poly(p: int, index: int, max_degree: int = 8) -> Polynomial:
    """Deterministic pseudo-random p-integral polynomial for suite sweeps."""
    rng = random.Random(916191 * p + index)
    degree = rng.randint(0, max_degree)
    coeffs = []
    for _ in range(degree + 1):
        den = rng.choice([d for d in range(1, 11) if d % p != 0])
        coeffs.append(Fraction(rng.randint(-20, 20), den))
    return Polynomial(coeffs)


# pseudo-random polynomials that lem1 checks for each prime of a sweep
_LEM1_COUNT = 5


def _gen_lem1(grid):
    for p in sorted(set(grid.p_list)):
        for index in range(_LEM1_COUNT):
            yield {"f": _lem1_poly(p, index), "p": p,
                   "precision": grid.precision, "index": index}


def _lem1_params(f, p, precision, index):
    params = {"p": p, "precision": precision, "poly": f.to_coeff_strings()}
    return params if index is None else {**params, "index": index}


@checker("lem1", _gen_lem1, "valuation", report_params=_lem1_params)
def check_lem1(f: Polynomial, p: int, precision: int, index=None):
    """Reflection/shift functional-equation defect >= N for one polynomial;
    ``index`` numbers the suite's pseudo-random polynomials."""
    return lem1_defect(f, p, precision, moments=_MOMENTS)


# ---------------------------------------------------------------------------
# Suite driver
# ---------------------------------------------------------------------------

CHECKER_IDS = tuple(CHECKERS)


def run_suite(ids=None, grid: SweepGrid | None = None, render=None) -> list:
    """Run the selected checkers over a bounded grid.

    Reports come back in canonical order (id, then ascending parameters),
    independent of how the work is executed. Unknown ids are a usage
    error, and a grid that is not a ``SweepGrid`` a ``TypeError``, raised
    before any check runs. Grid values outside a checker's ``where`` are
    skipped for that checker, so a checker may yield no report at all. A
    checker whose body raises anything but ``ValueError`` fails its
    report, and the run goes on.

    Each checker's params are drawn first. ``_sweep_workers`` then decides
    how many processes run the sweeps (``_forked_suite``); whatever sweep
    no worker returned runs here, so the reports, and the first
    ``ValueError`` a body raises in canonical order, are the same either
    way.

    Without ``render`` the result is the reports. With it, the result is
    one entry per selected checker, in canonical order: the sweep's list of
    reports where this process ran every sweep alone, else
    ``render(reports)``, called in the process that ran the sweep right
    after it ran it. A forked child sends what ``render`` returns back by
    ``marshal``, so it must be built of what marshal writes (str, int,
    float, None and tuples, lists and dicts of them) and not be a list.
    """
    if grid is None:
        grid = SweepGrid()
    elif not isinstance(grid, SweepGrid):
        # only a checked grid keeps a sweep inside the natural numbers
        raise TypeError(f"grid must be a SweepGrid, got {type(grid).__name__}")
    if ids is None:
        ids = CHECKER_IDS
    ids = list(ids)
    unknown = [i for i in ids if i not in CHECKERS]
    if unknown:
        raise ValueError(f"unknown checker id(s): {', '.join(sorted(unknown))}")
    sweeps = [(cid, list(CHECKERS[cid].gen(grid))) for cid in sorted(set(ids))]
    workers = _sweep_workers(sweeps)
    if workers == 1:
        by_sweep = [_sweep(cid, todo) for cid, todo in sweeps]
        if render is not None:
            return by_sweep
        return [r for reports in by_sweep for r in reports]
    hook = _pickled if render is None else render
    done = _forked_suite(sweeps, workers, hook)
    # what no worker returned runs here, in canonical order
    rendered = [done[i] if i in done else hook(_sweep(cid, todo))
                for i, (cid, todo) in enumerate(sweeps)]
    if render is not None:
        return rendered
    import pickle   # only here: a library call's shared sweeps come pickled

    return [IdentityReport._make(row)
            for data in rendered for row in pickle.loads(data)]


def _pickled(reports) -> bytes:
    """The per-sweep hook of a library ``run_suite`` call whose sweeps are
    shared: the reports, pickled as plain tuples."""
    import pickle

    return pickle.dumps(list(map(tuple, reports)), pickle.HIGHEST_PROTOCOL)


# Least number of reports whose sweeps ``run_suite`` shares with forked
# children. Below it, forking, faulting in and reaping a child, building
# its own E_n and sending its reports back cost a cold command as much as
# a second CPU saves, or more (``sweep_cut`` in BENCH_verify_split.json).
_SWEEP_CUT = 1000


def _sweep_workers(sweeps) -> int:
    """How many processes run ``sweeps``, a list of (checker id, params):
    one per CPU that ``workers.cpus`` allows, at most one per sweep, where
    there are two sweeps or more and ``_SWEEP_CUT`` reports; else one."""
    if (len(sweeps) < 2
            or sum(len(todo) for _, todo in sweeps) < _SWEEP_CUT):
        return 1
    return min(cpus(), len(sweeps))


def _sweep(cid: str, todo: list) -> list:
    """Checker ``cid``'s reports on the params ``todo``, which its sweep has
    filtered; the sweep's memos go with it."""
    run = CHECKERS[cid].run
    try:
        return [run(params, swept=True) for params in todo]
    finally:
        _drop_sweep_memos()


# (collect, results) while a ``child_stats`` block runs, else None
_CHILD_STATS = None


@contextlib.contextmanager
def child_stats(collect):
    """While the block runs, each forked child of ``run_suite`` calls
    ``collect()`` after its last sweep and sends back what it returns with
    its sweeps; the caller appends it to the list this yields. It must be
    built of what ``marshal`` writes. ``verify --stats`` reads each child's
    tables, collector pauses and peak RSS so."""
    global _CHILD_STATS
    previous, results = _CHILD_STATS, []
    _CHILD_STATS = collect, results
    try:
        yield results
    finally:
        _CHILD_STATS = previous


def _forked_suite(sweeps, workers: int, render) -> dict:
    """``render(reports)`` of each sweep that the caller and ``workers`` - 1
    forked children (``workers.forked``) ran, by sweep index. A pipe holds
    one byte per sweep, its index, most reports first; each process claims
    a sweep by reading one byte, until the pipe is empty, and renders each
    sweep right after it runs it. A child sends what it rendered back by
    ``marshal``. A sweep whose child failed or sent what marshal cannot
    read, and one that raised ``ValueError`` in the caller, is missing, for
    ``run_suite`` to run again in canonical order."""
    order = sorted(range(len(sweeps)), key=lambda i: -len(sweeps[i][1]))
    stats = _CHILD_STATS
    done = {}
    try:
        queue, feed = os.pipe()
    except OSError:   # no pipe: every sweep runs in the caller
        return done
    try:
        try:
            # one byte a sweep, for 28 checkers: one write, under PIPE_BUF
            os.write(feed, bytes(order))
        finally:
            os.close(feed)

        def claimed():
            while index := os.read(queue, 1):
                yield index[0]

        def child() -> bytes:
            rendered = {i: render(_sweep(*sweeps[i])) for i in claimed()}
            return marshal.dumps((stats and stats[0](), rendered))

        with forked([child] * (workers - 1)) as results:
            for i in claimed():
                try:
                    reports = _sweep(*sweeps[i])
                except ValueError:
                    break
                done[i] = render(reports)
            for data in results():
                if data is None:
                    continue
                try:
                    collected, rendered = marshal.loads(data)
                except (EOFError, ValueError):   # a result cut short
                    continue
                if stats:
                    stats[1].append(collected)
                done.update(rendered)
    finally:
        os.close(queue)
    return done


def _drop_sweep_memos() -> None:
    """Drop the memos of binomial E-sums, shift sums and moments, so
    that what they hold stays bounded by one checker's grid, or by one
    direct call."""
    drop_binomial_sums()
    _cached_shift_sum.cache_clear()
    _MOMENTS.clear()
