"""Integer paths: thm2's right side summed from binomial rows, the
weighted E_n sums over one common denominator (and the sun, sun_cor,
fersim3 and thm3 sides built on them), the memo of binomial E-sums
A_c(M, N, k) by its two routes (and the wsp7, thm1, thm2 and sun sides
read from it), the weighted E_k(0) sums of the
scalar checkers on the same integer core, the p-adic sums of
polynomials over one common denominator (the literal p**N loop and the
route by base-p digits), the E_n table built from tangent numbers, and
the finite-difference oracle that gf_consistency checks it with.

Each fast path is compared with the construction over Q that it replaced,
kept here as the reference, and every checker that uses the sums must
still fail when a table entry is wrong.
"""

import functools
import math
import operator
import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eulerferm import euler, padic
from eulerferm import identities as ident
from eulerferm.euler import (
    EulerCache,
    euler_poly,
    euler_poly_shifted,
    euler_sum,
    euler_zero,
    zero_sum,
)
from eulerferm.identities import SweepGrid, run_suite
from eulerferm.numeric import binomial, falling_factorial
from eulerferm.padic import (
    MAX_PRECISION,
    fermionic_sum_digits,
    fermionic_sum_naive,
    lem1_defect,
    valuation,
)
from eulerferm.polynomial import Polynomial, monomial
from test_golden import judged_suite

F = Fraction


def _power(p, e):
    """p**e as e repeated products."""
    return functools.reduce(operator.mul, [p] * e, Polynomial((1,)))


def _pivot_at(a0, m, n, s):
    """thm2's pivot P(x; a0) as a univariate polynomial in x over Q."""
    return _power(Polynomial((a0, 1)), m + 1) \
        * _power(Polynomial((a0 - (s + 1), 1)), n + 1) \
        + (-1) ** (m + n) * (_power(Polynomial((-a0, 1)), n + 1)
                             * _power(Polynomial((-a0 - (s + 1), 1)), m + 1))


@pytest.mark.parametrize("s", [0, 1, 2, 3, 4])
def test_integer_pivot_equals_rational_pivot(s):
    # thm2's right side from integer binomial rows against the k-th
    # derivative of the pivot built over Q at each point a0. Both sides have
    # degree <= m+n+2-k in a, so agreement at that many points plus one is
    # equality of polynomials. At s = 0 both are the empty sum.
    for m in range(7):
        for n in range(7):
            if m + n == 0:
                continue
            points = [F(j, 3) - 2 for j in range(m + n + 3)]
            pivots = [_pivot_at(a0, m, n, s) for a0 in points]
            for k in range(9):
                rows = ident._pivot_taylor_sum(m, n, s, k)
                assert all(type(c) is int for c in rows.coeffs)
                for a0, pivot in zip(points[:max(1, m + n + 3 - k)], pivots):
                    deriv = pivot.derivative(k)
                    want = F(2, factorial(k)) * sum(
                        (-1) ** l * deriv(l) for l in range(1, s + 1))
                    assert rows(a0) == want, (m, n, s, k, a0)


def _signed_row(c, e, sign):
    """Coefficients of (sign*a + c)**e in a, lowest degree first."""
    return [binomial(e, j) * c ** (e - j) * sign ** j for j in range(e + 1)]


def _pivot_by_rows(m, n, s, k):
    """thm2's right side as the sum over (sign, l, i) of two binomial rows,
    the slow path: each term of [t**k] (t+u)**M (t+w)**M2 =
    sum_i C(M,i) C(M2,k-i) u**(M-i) w**(M2-k+i) is a product of two rows,
    with u, w equal to sign*a plus an integer."""
    acc = [0] * max(0, m + n + 3 - k)
    for sign, M, M2, weight in ((1, m + 1, n + 1, 2),
                                (-1, n + 1, m + 1, 2 * (-1) ** (m + n))):
        for l in range(1, s + 1):
            for i in range(max(0, k - M2), min(M, k) + 1):
                c = (-1) ** l * weight * binomial(M, i) * binomial(M2, k - i)
                row_w = _signed_row(l - s - 1, M2 - k + i, sign)
                for j, x in enumerate(_signed_row(l, M - i, sign)):
                    x *= c
                    for jj, y in enumerate(row_w):
                        acc[j + jj] += x * y
    return Polynomial(acc)


def test_packed_pivot_equals_row_sum():
    # every (m, n) up to 24 at two seeded (s, k), and every (s, k) up to
    # m, n = 4: the row sum costs about s k M M2 steps a call
    rng = random.Random(24)
    cases = [(m, n, rng.randint(0, 8), rng.randint(0, 10))
             for m in range(25) for n in range(25) for _ in range(2)]
    cases += [(m, n, s, k) for m in range(5) for n in range(5)
              for s in range(9) for k in range(11)]
    cases.append((24, 24, 8, 10))   # the largest coefficients of the grid
    for case in cases:
        got = ident._pivot_taylor_sum(*case)
        assert all(type(c) is int for c in got.coeffs)
        assert got == _pivot_by_rows(*case), case


@pytest.mark.parametrize("s", [50, 1000])
@pytest.mark.parametrize("m,n", [(0, 1), (3, 2), (6, 6)])
def test_packed_pivot_at_digit_width_edge(m, n, s):
    # large s: each G sums s row products, with coefficients up to
    # s (s+1)**(M+M2)
    for k in range(5):
        assert ident._pivot_taylor_sum(m, n, s, k) == _pivot_by_rows(m, n, s, k)


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(m=st.integers(0, 12), n=st.integers(0, 12), s=st.integers(0, 200),
       k=st.integers(0, 12))
@example(m=12, n=12, s=200, k=0)
def test_packed_pivot_equals_row_sum_property(m, n, s, k):
    assert ident._pivot_taylor_sum(m, n, s, k) == _pivot_by_rows(m, n, s, k)


@pytest.mark.parametrize("judge", ["symbolic", "pointwise"])
@pytest.mark.parametrize("row,fails", [
    ((1, 2), {"fersim3", "thm2"}), ((2, 3), {"fersim3", "thm2"}),
    ((2, 5), {"fersim3", "thm2"}), ((-1, 3), {"thm2"}), ((-3, 2), {"thm2"})],
    ids=[f"row{i}" for i in range(5)])
def test_corrupted_binomial_row_fails_fersim3(monkeypatch, judge, row,
                                              fails):
    # one row, (a + c)**e, reads its coefficient of a off by one; fersim3
    # reads the rows (i, n) with i < q, and thm2's shift sums the rows
    # (l, M) and (l - s - 1, M2) with 1 <= l <= s, so a negative c reaches
    # thm2 alone
    clean = ident._binomial_row

    def corrupted(c, e):
        coeffs = clean(c, e)
        if (c, e) == row:
            coeffs[1] += 1
        return coeffs

    ids = ["fersim3", "thm2"]
    assert all(r.passed for r in judged_suite(ids, judge=judge))
    monkeypatch.setattr(ident, "_binomial_row", corrupted)
    assert {r.checker for r in judged_suite(ids, judge=judge)
            if not r.passed} == fails


@pytest.mark.parametrize("judge", ["symbolic", "pointwise"])
@pytest.mark.parametrize("shape", [(2, 3, 1), (3, 2, 1), (1, 2, 2)])
def test_corrupted_shift_sum_fails_thm2(monkeypatch, judge, shape):
    # one shift sum G at (M, M2, s) reads its coefficient g_1 off by one;
    # the coefficients are a tuple, so the sweep's memo cannot be edited in
    # place
    clean = ident._shift_sum

    def corrupted(M, M2, s):
        coeffs = clean(M, M2, s)
        if (M, M2, s) == shape:
            coeffs = coeffs[:1] + (coeffs[1] + 1,) + coeffs[2:]
        return coeffs

    assert all(r.passed for r in judged_suite(["thm2"], judge=judge))
    monkeypatch.setattr(ident, "_shift_sum", corrupted)
    failed = [r for r in judged_suite(["thm2"], judge=judge)
              if not r.passed]
    assert failed and not any(isinstance(r.residual, str) for r in failed)


def _random_terms(rng):
    return [(rng.choice((0, rng.randint(-60, 60),
                         F(rng.randint(-60, 60), rng.choice((2, 3, 7))))),
             rng.randint(0, 30))
            for _ in range(rng.randint(0, 7))]


def test_euler_sum_equals_plain_sum():
    rng = random.Random(5150)
    for _ in range(60):
        terms = _random_terms(rng)
        plain = Polynomial()
        for c, n in terms:
            plain = plain + c * euler_poly(n)
        got = euler_sum(terms)
        assert got == plain
        # integer numerators over one reduced denominator, which divides
        # 2**(max n) times the lcm of the weights' denominators
        assert all(type(c) is int for c in got.nums)
        assert type(got.den) is int and got.den > 0
        assert math.gcd(got.den, *got.nums) == 1
        bound = math.lcm(*(F(c).denominator << n for c, n in terms if c))
        assert bound % got.den == 0


def test_negated_euler_sum_equals_shifted_sum():
    rng = random.Random(6160)
    for _ in range(60):
        terms, neg_terms = _random_terms(rng), _random_terms(rng)
        plain = Polynomial()
        for c, n in terms:
            plain = plain + c * euler_poly(n)
        for c, n in neg_terms:
            plain = plain + c * euler_poly_shifted(n, -1, 0)
        assert euler_sum(neg_terms=neg_terms) == plain - euler_sum(terms)
        assert euler_sum(terms, neg_terms) == plain


def test_zero_weight_skips_negative_index():
    assert euler_sum([(0, -1)], [(0, -2)]) == Polynomial()
    assert euler_sum() == Polynomial()


class _CorruptedE5(EulerCache):
    """E_5 reads as E_5 + extra; the recurrence table itself stays true."""

    def __init__(self, extra):
        super().__init__()
        self.extra = extra

    def euler_poly(self, n):
        p = super().euler_poly(n)
        return p + self.extra if n == 5 else p


@pytest.mark.parametrize("extra,den", [(Polynomial((0, F(1, 8))), 8),
                                       (Polynomial((F(1, 3),)), 6)],
                         ids=["plus_x_over_8", "plus_one_third"])
def test_corrupted_e5_fails_every_integer_sum_checker(monkeypatch, extra,
                                                      den):
    cache = _CorruptedE5(extra)
    monkeypatch.setattr(euler, "_CACHE", cache)
    # the common denominator is read from the coefficients, not assumed
    assert cache.euler_poly(5).den == den
    assert euler_sum([(1, 5)]) == euler_poly(5)
    # complement is left out: at odd n it cannot see a constant error
    ids = ("thm1", "thm2", "wsp7", "wsp9", "thm3", "sun")
    failed = {r.checker for r in run_suite(ids) if not r.passed}
    assert failed == set(ids)


# --- the sums that grew Polynomials term by term, kept as oracles ----------
# check_<id>.__wrapped__ is the registered body, which returns the sides

_SUN_POINTS = (F(0), F(1), F(1, 2), F(-1), F(-2, 3), F(-7, 4), F(5, 3),
               F(-11, 6))


def _sun_over_q(m, n, a):
    """sun's sides as Fraction-weighted loops, one shifted E_n per term."""
    lhs = Polynomial()
    for i in range(m + 1):
        lhs = lhs + binomial(m, i) * a ** (m - i) * euler_poly(n + i)
    rhs = Polynomial()
    for j in range(n + 1):
        rhs = rhs + binomial(n, j) * a ** (n - j) \
            * euler_poly_shifted(m + j, -1, 1 - a)
    return (-1) ** m * lhs, (-1) ** n * rhs


def _sun_cor_over_q(m, n):
    """sun_cor's residual with its right side as n + 1 Horner evaluations."""
    lhs = sum(binomial(m, i) * F(euler.euler_number(n + i), 2 ** (n + i))
              for i in range(m + 1))
    rhs = sum(binomial(n, j) * euler_poly(m + j)(F(-1, 2))
              for j in range(n + 1))
    return (-1) ** m * lhs - (-1) ** n * rhs


# the sums are linear in the table, so the two routes must also agree,
# term for term, on a table that is wrong
_TABLES = [EulerCache,
           lambda: _CorruptedE5(Polynomial((F(1, 4), F(1, 8))))]


@pytest.mark.parametrize("table", _TABLES, ids=["true", "corrupted_e5"])
def test_sun_sides_equal_rational_loops(monkeypatch, table):
    monkeypatch.setattr(euler, "_CACHE", table())
    for m in range(9):
        for n in range(9):
            for a in _SUN_POINTS:
                got = ident.check_sun.__wrapped__(m, n, a)
                assert got == _sun_over_q(m, n, a), (m, n, a)


def _binomial_sum_over_q(M, N, k, c):
    """A_c(M, N, k) as the checkers' term lists summed it: one Fraction
    weight C(M,i) c**(M-i) C(N+i,k) per E_(N+i-k)."""
    return euler_sum([(binomial(M, i) * F(c) ** (M - i) * binomial(N + i, k),
                       N + i - k) for i in range(M + 1)])


def test_sun_weights_equal_fraction_powers():
    # the direct route weights E_(N+i-k) by the integers
    # C(M,i) C(N+i,k) r**(M-i) t**i over t**M, for c = r/t
    points = (F(0), F(1), F(-1), F(1, 2), F(-3, 4), F(5, 2), F(-7, 3))
    cache = EulerCache()
    for m in range(11):
        for n in range(11):
            for a in points:
                cache.drop_binomial_sums()
                got = cache.binomial_sum(m, n, 0, a)
                assert got == _binomial_sum_over_q(m, n, 0, a), (m, n, a)


# the weights c of the four checkers that read the table: wsp7 and thm1
# read c = 1, thm2 c = s + 1, sun c = a
_SUM_WEIGHTS = (1, 2, 3, 4) + _SUN_POINTS


def _counting_steps(monkeypatch, cache) -> list:
    """Patch ``cache`` to log each Pascal step it takes; return the log."""
    steps, step = [], cache._pascal_step
    monkeypatch.setattr(cache, "_pascal_step",
                        lambda *args: steps.append(args) or step(*args))
    return steps


@pytest.mark.parametrize("table", _TABLES, ids=["true", "corrupted_e5"])
def test_both_binomial_sum_routes_equal_the_term_list(monkeypatch, table):
    cache = table()
    monkeypatch.setattr(euler, "_CACHE", cache)
    steps = _counting_steps(monkeypatch, cache)
    for c in _SUM_WEIGHTS:
        for k in (0, 1, 3):
            for M in range(11):
                for N in range(11):
                    want = _binomial_sum_over_q(M, N, k, c)
                    cache.drop_binomial_sums()
                    taken = len(steps)
                    direct = cache.binomial_sum(M, N, k, c)
                    assert len(steps) == taken
                    assert direct == want, (M, N, k, c)
                    if M:
                        cache.drop_binomial_sums()
                        cache.binomial_sum(M - 1, N, k, c)
                        cache.binomial_sum(M - 1, N + 1, k, c)
                        by_pascal = cache.binomial_sum(M, N, k, c)
                        assert len(steps) == taken + 1
                        # both routes store the same normal form
                        assert by_pascal == direct, (M, N, k, c)
    # the sums compared read the table's E_5, wrong on the corrupted one
    assert cache.binomial_sum(0, 5, 0) == euler_poly(5)
    true_e5 = EulerCache().euler_poly(5)
    assert (euler_poly(5) == true_e5) == (table is EulerCache)


def _shift_sums() -> int:
    """How many shift sums thm2's memo holds."""
    return ident._cached_shift_sum.cache_info().currsize


def test_a_sweep_builds_only_the_sums_it_reads(monkeypatch):
    cache = EulerCache()
    monkeypatch.setattr(euler, "_CACHE", cache)
    steps = _counting_steps(monkeypatch, cache)
    sums, direct = [], cache._direct_sum
    monkeypatch.setattr(cache, "_direct_sum",
                        lambda *args: sums.append(args) or direct(*args))
    # A_1(30, 30, 0) serves both of wsp7's sides, and no neighbour of it
    # is filled in
    run_suite(["wsp7"], SweepGrid(m=(30,), n=(30,)))
    assert sums == [(30, 30, 0, 1)] and not steps
    # on the desk grid, each A_1(M, N, 0) with M, N <= 6 is built once; the
    # sweep ends with the table and thm2's shift sums dropped
    sums.clear()
    run_suite(["wsp7", "thm2"])
    built = [args[:3] for args in sums if args[3] == 1]
    assert len(built) + sum(c == 1 for c, _, _ in steps) == 49
    assert cache._sums == {} and not _shift_sums()


def test_direct_calls_leave_no_memo(monkeypatch):
    # a direct call is a sweep of one report: the memos its body builds
    # are dropped when it returns, by either entry
    cache = EulerCache()
    monkeypatch.setattr(euler, "_CACHE", cache)
    thm2 = next(iter(ident.CHECKERS["thm2"].gen(SweepGrid())))
    lem1 = next(iter(ident.CHECKERS["lem1"].gen(SweepGrid())))
    ident.check_wsp7.__wrapped__(3, 4)
    ident.check_thm2.__wrapped__(**thm2)
    ident.check_witt.__wrapped__(4, F(1, 2), 5, 2)
    # what the bodies build
    assert cache._sums and _shift_sums() and ident._MOMENTS
    for m in range(31):
        for n in range(31):
            assert ident.check_wsp7(m, n).passed
    assert ident.check_thm2(**thm2).passed
    assert cache._sums == {} and not _shift_sums()
    assert ident.check_lem1.__wrapped__(**lem1) >= 2
    assert ident._MOMENTS
    assert ident.check_witt(4, F(1, 2), 5, 2).passed
    assert ident._MOMENTS == {}
    assert ident.CHECKERS["sun"].run({"m": 3, "n": 2, "a": F(1, 2)}).passed
    assert ident.CHECKERS["thm2"].run(thm2).passed
    ident.check_witt.__wrapped__(4, F(1, 2), 5, 2)
    assert ident.CHECKERS["lem1"].run(lem1).passed
    assert cache._sums == {} and not _shift_sums()
    assert ident._MOMENTS == {}


# the catalog grid of the benchmark, at its fixed points
_CATALOG_GRID = SweepGrid(m=tuple(range(9)), n=tuple(range(9)),
                          points=(F(0), F(1), F(-1, 4), F(1, 2), F(3, 4)))


def test_int_and_fraction_weights_share_an_entry():
    cache = EulerCache()
    entry = cache.binomial_sum(3, 2, 0, 2)
    assert cache.binomial_sum(3, 2, 0, F(2)) is entry
    assert len(cache._sums) == 1
    cache.binomial_sum(2, 2, 1, F(2))
    cache.binomial_sum(2, 3, 1, F(2))
    steps = []
    step = cache._pascal_step
    cache._pascal_step = lambda *args: steps.append(args) or step(*args)
    # a Pascal step reads the neighbours that c = Fraction(2) stored, at c = 2
    assert cache.binomial_sum(3, 2, 1, 2) == _binomial_sum_over_q(3, 2, 1, 2)
    assert len(steps) == 1 and len(cache._sums) == 4


def test_binomial_sum_lookups_hash_no_fraction(monkeypatch):
    cache = EulerCache()
    c = F(-3, 4)
    want = [_binomial_sum_over_q(M, 2, 0, c) for M in range(4)]

    def no_hash(self):
        raise AssertionError("a memo lookup hashed a Fraction")

    monkeypatch.setattr(F, "__hash__", no_hash)
    # direct misses, Pascal steps from cached neighbours, and hits
    got = [cache.binomial_sum(M, N, 0, c) for M in range(4) for N in (2, 3)]
    got += [cache.binomial_sum(M, 2, 0, c) for M in range(4)]
    monkeypatch.undo()
    assert got[0:8:2] == got[8:] == want


def test_sun_memo_holds_one_entry_per_sum_it_reads(monkeypatch):
    # sun reads A_a(m, n, 0) and A_a(n, m, 0): on the catalog grid the
    # distinct sums are those with m, n in 0..8 at each of the 5 points
    held = []

    class Recording(EulerCache):
        def drop_binomial_sums(self):
            held.append(len(self._sums))
            super().drop_binomial_sums()

    monkeypatch.setattr(euler, "_CACHE", Recording())
    reports = run_suite(["sun"], _CATALOG_GRID)
    assert len(reports) == 405 and all(r.passed for r in reports)
    assert held == [9 * 9 * 5]


def _counting_moment_builds(monkeypatch) -> list:
    """Log each build of a moment vector, its A_e and then its rows at
    N > 1, as (kind, p, degree, entries the sweep memo held then); return
    the log."""
    built = []
    sums, rows = padic._alternating_power_sums, padic._fold_rows

    def counted_sums(p, d):
        built.append(("sums", p, d, len(ident._MOMENTS)))
        return sums(p, d)

    def counted_rows(a, p):
        built.append(("rows", p, len(a) - 1, len(ident._MOMENTS)))
        return rows(a, p)

    monkeypatch.setattr(padic, "_alternating_power_sums", counted_sums)
    monkeypatch.setattr(padic, "_fold_rows", counted_rows)
    return built


def test_a_sweep_builds_the_fold_weights_once_per_prime_and_degree(
        monkeypatch):
    built = _counting_moment_builds(monkeypatch)
    reports = run_suite(["witt"], _CATALOG_GRID)
    assert len(reports) == 135 and all(r.passed for r in reports)
    # witt sums (x + a)**n, of degree n: 3 primes times n in 0..8, each
    # (p, n) at its 5 points in one run. A vector serves every degree up to
    # its own, and one outgrown is rebuilt to twice its degree, so each
    # prime builds degrees 0, 1, 2, 4 and 8: 15 builds, not 27
    for kind in ("sums", "rows"):
        keys = [(p, d) for k, p, d, _ in built if k == kind]
        assert keys == [(p, d) for p in (3, 5, 7) for d in (0, 1, 2, 4, 8)]
    # the memo holds the last (p, N) alone, and the sweep drops it
    assert max(held for *_, held in built) <= 1
    assert ident._MOMENTS == {}
    # lem1's three sums of one report, f(x), f(x + 1) and f(-x), have one
    # degree, and read one vector
    built.clear()
    reports = run_suite(["lem1"], _CATALOG_GRID)
    assert len(reports) == 15 and all(r.passed for r in reports)
    assert len(built) <= 2 * 15
    assert ident._MOMENTS == {}


def test_a_plain_digit_sum_keeps_no_weights(monkeypatch):
    built = _counting_moment_builds(monkeypatch)
    f = Polynomial([F(1, 2), 3, F(-5, 4)])
    for _ in range(2):
        assert fermionic_sum_digits(f, 5, 3) == padic._integer_sum(f, 5 ** 3)
        assert ident._MOMENTS == {}
    assert [kind for kind, *_ in built] == ["sums", "rows"] * 2
    # lem1_defect's three sums share one vector, kept by neither call
    built.clear()
    assert lem1_defect(f, 5, 3) >= 3
    assert [kind for kind, *_ in built] == ["sums", "rows"]
    # and at N = 1 no rows are built
    built.clear()
    fermionic_sum_digits(f, 5, 1)
    assert [kind for kind, *_ in built] == ["sums"]


def test_one_weights_memo_serves_every_precision():
    # a memo holds the vector of one (p, N): a sum at another N replaces
    # it, so it holds one entry throughout
    moments = {}
    for f in (Polynomial([F(1, 2), 3, F(-5, 4)]), Polynomial([7, F(1, 3)])):
        for precision in (1, 3, 1, 2, 2):
            got = fermionic_sum_digits(f, 5, precision, moments)
            assert got == padic._integer_sum(f, 5 ** precision)
            assert list(moments) == [(5, precision)]


def test_binomial_sum_rejects_negative_indices():
    for args in ((-1, 0, 0), (0, -1, 0), (0, 0, -1)):
        with pytest.raises(ValueError, match="need M, N, k >= 0"):
            EulerCache().binomial_sum(*args)


# the sides that wsp7, thm1, thm2 and sun built from term lists before they
# read the table, kept as the oracle of the table's sides

def _wsp7_over_terms(m, n):
    lhs = euler_sum([((-1) ** m * binomial(m, i), n + i)
                     for i in range(m + 1)])
    rhs = euler_sum(neg_terms=[((-1) ** n * binomial(n, j), m + j)
                               for j in range(n + 1)])
    return lhs, rhs


def _thm1_over_terms(m, n, q, k):
    lhs = euler_sum(
        [((-1) ** m * binomial(m + q, i) * binomial(n + q + i, k),
          n + q + i - k) for i in range(m + q + 1)],
        [((-1) ** n * binomial(n + q, j) * binomial(m + q + j, k),
          m + q + j - k) for j in range(n + q + 1)])
    return (lhs,)


def _thm2_lhs_over_terms(m, n, s, k):
    delta = (-1) ** s - (-1) ** k
    lhs = euler_sum(
        [(delta * binomial(m + 1, i) * binomial(n + i + 1, k)
          * (s + 1) ** (m - i + 1), n + i - k + 1) for i in range(m + 2)],
        [(delta * (-1) ** (m + n) * binomial(n + 1, j) * binomial(m + j + 1, k)
          * (s + 1) ** (n - j + 1), m + j - k + 1) for j in range(n + 2)])
    return (lhs,)


def _sun_over_terms(m, n, a):
    lhs = euler_sum([((-1) ** m * binomial(m, i) * a ** (m - i), n + i)
                     for i in range(m + 1)])
    rhs = euler_sum([((-1) ** n * binomial(n, j) * a ** (n - j), m + j)
                     for j in range(n + 1)])
    return lhs, rhs.compose_affine(-1, 1 - a)


@pytest.mark.parametrize("route", ["sweep", "direct"])
@pytest.mark.parametrize("table", _TABLES, ids=["true", "corrupted_e5"])
def test_table_sides_equal_the_term_lists(monkeypatch, table, route):
    # "sweep" keeps the table across the calls, in a sweep's order, so that
    # most entries come by Pascal's rule; "direct" empties it before each
    # call, so that every entry is a direct sum
    cache = table()
    monkeypatch.setattr(euler, "_CACHE", cache)
    steps = _counting_steps(monkeypatch, cache)
    cases = [(ident.check_wsp7, _wsp7_over_terms, (m, n))
             for m in range(11) for n in range(11)]
    cases += [(ident.check_thm1, _thm1_over_terms, (m, n, q, k))
              for m in range(11) for n in range(11) for q in (1, 2, 3)
              for k in (1, 3)]
    cases += [(ident.check_thm2, _thm2_lhs_over_terms, (m, n, s, k))
              for m in range(11) for n in range(11) for s in (1, 2, 3)
              for k in range(4)]
    cases += [(ident.check_sun, _sun_over_terms, (m, n, a))
              for m in range(11) for n in range(11) for a in _SUN_POINTS]
    body = None
    for check, oracle, args in cases:
        if route == "direct" or check is not body:
            cache.drop_binomial_sums()
        body = check
        want = oracle(*args)   # thm1's and thm2's: the left side alone
        assert check.__wrapped__(*args)[:len(want)] == want, (check, args)
    assert bool(steps) == (route == "sweep")


class _LaggingT(EulerCache):
    """c's Pascal step with the power of t dropped: for c = r/t, the left
    neighbour is weighted by r, as if t's power lagged one step behind."""

    @staticmethod
    def _pascal_step(c, left, right):
        return [(c.numerator, 1, left), (1, 1, right)]


@pytest.mark.parametrize("judge", ["symbolic", "pointwise"])
def test_lagging_t_power_fails_sun(monkeypatch, judge):
    monkeypatch.setattr(euler, "_CACHE", _LaggingT())
    reports = judged_suite(["sun", "thm1", "thm2", "wsp7"], judge=judge)
    failed = {(r.checker, r.params.get("a")) for r in reports if not r.passed}
    # an integer a has t = 1, where the two steps agree; wsp7, thm1 and
    # thm2 read integer weights c only
    assert failed == {("sun", F(1, 2)), ("sun", F(-2, 3))}
@pytest.mark.parametrize("table", _TABLES, ids=["true", "corrupted_e5"])
def test_sun_cor_equals_horner_sum(monkeypatch, table):
    monkeypatch.setattr(euler, "_CACHE", table())
    residuals = {}
    for m in range(9):
        for n in range(9):
            got = ident.check_sun_cor.__wrapped__(m, n)
            assert got == _sun_cor_over_q(m, n), (m, n)
            residuals[m, n] = got
    # the corrupted table must show in the residuals being compared
    assert any(residuals.values()) == (table is not EulerCache)


def test_fersim3_right_side_equals_composed_powers():
    for n in range(13):
        for q in range(1, 6):
            rhs = Polynomial()
            for i in range(q):
                rhs = rhs + (-1) ** i * monomial(n, F(1)).compose_affine(
                    F(1), F(i))
            got = ident.check_fersim3.__wrapped__(n, q)[1]
            assert all(type(c) is int for c in got.coeffs)
            assert got == 2 * rhs, (n, q)


def test_thm3_right_side_equals_monomial_sum():
    for m in range(13):
        for k in range(m + 1):
            rhs = Polynomial()
            for j in range(m + 1):
                rhs = rhs + monomial(
                    m + j - k, F((-1) ** (m + j) * binomial(m, j)
                                 * binomial(m + j, k)))
            got = ident.check_thm3.__wrapped__(m, k)[1]
            assert all(type(c) is int for c in got.coeffs)
            assert got == rhs, (m, k)


# --- p-adic naive sums ----------------------------------------------------

def _padic_polys(p):
    """Seeded p-integral polynomials: zero, constants, even, degree <= 8."""
    rng = random.Random(8080 + p)
    dens = [d for d in range(1, 13) if d % p]

    def coeff():
        return F(rng.randint(-30, 30), rng.choice(dens))

    polys = [Polynomial(), Polynomial([coeff()]), Polynomial([7]),
             Polynomial([-3, 0, 5, 1])]
    for degree in (2, 4, 8):
        polys.append(Polynomial([coeff() if i % 2 == 0 else 0
                                 for i in range(degree + 1)]))
    for _ in range(8):
        polys.append(Polynomial([coeff()
                                 for _ in range(rng.randint(1, 9))]))
    return polys


def _lem1_over_q(f, p, precision):
    """The term-by-term Fraction loop that lem1_defect replaced."""
    f_shift = f.compose_affine(F(1), F(1))
    f_neg = f.compose_affine(F(-1), F(0))
    s = s_shift = s_neg = F(0)
    sign = 1
    for x in range(p ** precision):
        s += sign * f(x)
        s_shift += sign * f_shift(x)
        s_neg += sign * f_neg(x)
        sign = -sign
    f0 = f(0)
    target = -s + 2 * f0
    defect = min(valuation(s_shift - target, p),
                 valuation(s_neg - target, p))
    if f_neg == f:
        defect = min(defect, valuation(s - f0, p))
    return defect


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_integer_naive_sum_equals_generic_loop(p):
    for poly in _padic_polys(p):
        for precision in (1, 2, 3):
            got = fermionic_sum_naive(poly, p, precision)
            # a plain callable takes the generic term-by-term loop
            want = fermionic_sum_naive(lambda x: poly(F(x)), p, precision)
            assert type(got) is F
            assert got == want, (poly, p, precision)
            assert fermionic_sum_digits(poly, p, precision) == got


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_lem1_defect_equals_rational_loop(p):
    for poly in _padic_polys(p):
        for precision in (1, 2, 3):
            assert lem1_defect(poly, p, precision) == \
                _lem1_over_q(poly, p, precision), (poly, p, precision)


# --- p-adic sums by base-p digits ------------------------------------------

@st.composite
def _padic_cases(draw):
    """(f, p, N): p-integral rational coefficients, degree <= 8, N <= 3."""
    p = draw(st.sampled_from([3, 5, 7, 11]))
    dens = [d for d in range(1, 13) if d % p]
    coeffs = draw(st.lists(st.builds(F, st.integers(-40, 40),
                                     st.sampled_from(dens)), max_size=9))
    return Polynomial(coeffs), p, draw(st.integers(1, 3))


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(case=_padic_cases())
@example(case=(Polynomial(), 3, 1))
@example(case=(Polynomial(), 11, 3))
@example(case=(Polynomial([F(-7, 2)]), 5, 2))
@example(case=(Polynomial([1]), 7, 3))
def test_digit_sum_equals_literal_loops(case):
    f, p, precision = case
    got = fermionic_sum_digits(f, p, precision)
    # the integer loop of fermionic_sum_naive, and the generic loop that a
    # plain callable takes
    assert type(got) is F
    assert got == padic._integer_sum(f, p ** precision)
    assert got == fermionic_sum_naive(lambda x: f(F(x)), p, precision)


def test_digit_sum_rejects_bad_arguments():
    with pytest.raises(ValueError, match="odd prime"):
        fermionic_sum_digits(Polynomial([1]), 2, 1)
    with pytest.raises(ValueError, match="precision must be >= 1"):
        fermionic_sum_digits(Polynomial([1]), 3, 0)
    assert fermionic_sum_digits(Polynomial([1]), 3, MAX_PRECISION) == 1
    with pytest.raises(ValueError, match="precision must be <= "):
        fermionic_sum_digits(Polynomial([1]), 3, MAX_PRECISION + 1)


def _drop_one_level(monkeypatch):
    original = padic._moments
    monkeypatch.setattr(padic, "_moments",
                        lambda p, precision, d, memo=None:
                        original(p, precision - 1, d, memo))


def _flip_odd_digits(monkeypatch):
    rows = padic._fold_rows

    def rows_with_odd_j_added(sums, p):
        return rows([sum(j ** e for j in range(p))
                     for e in range(len(sums))], p)

    monkeypatch.setattr(padic, "_fold_rows", rows_with_odd_j_added)


@pytest.mark.parametrize("mutate", [_drop_one_level, _flip_odd_digits],
                         ids=["drop_level", "flip_odd_j"])
@pytest.mark.parametrize("cid", ["witt", "lem1"])
def test_broken_digit_route_fails(monkeypatch, mutate, cid):
    mutate(monkeypatch)
    reports = run_suite([cid])
    assert reports and not all(r.passed for r in reports)
    # by a defect below N, not by an error report
    assert not any(isinstance(r.residual, str) for r in reports)


class _CorruptedEuler(EulerCache):
    """Every E_n reads as E_n + 1/8 + 3x^3; the recurrence stays true."""

    extra = Polynomial((F(1, 8), 0, 0, 3))

    def euler_poly(self, n):
        return super().euler_poly(n) + self.extra


def test_corrupted_euler_table_fails_witt(monkeypatch):
    monkeypatch.setattr(euler, "_CACHE", _CorruptedEuler())
    reports = run_suite(["witt"])
    assert len(reports) == 98
    # the naive sum is within p**N of the true E_n(a), so the defect is
    # v_p(1/8 + 3a^3) wherever that is below N
    for r in reports:
        p, a = r.params["p"], r.params["a"]
        assert r.passed == (valuation(_CorruptedEuler.extra(a), p) >= 2), r
    assert {r.params["p"] for r in reports if not r.passed} == {3, 5, 7}


# --- the tangent-number table ---------------------------------------------

class _CorruptedT3(EulerCache):
    """T_3 reads as 17 instead of 16 where the tables read the tangent
    numbers, so E_5(0) = s_5 / 32 and every E_n with n >= 5 is wrong, and
    so are B_6(0) = -6 s_5 / (64 * 63) and every B_n with n >= 6."""

    def __init__(self):
        super().__init__()
        true = self._tangents
        self._tangents = (t + (j == 3) for j, t in enumerate(true, 1))


def test_corrupted_tangent_number_fails_gf_consistency(monkeypatch):
    """gf_consistency compares the E table with two oracles that never read
    it, so it fails wherever the corruption shows: n = 5 and 6 on the desk
    grid. B_n is read from the same s_k, and ``bernoulli_power_sum``, the
    one Bernoulli certificate, compares B_(n+1) with direct power sums that
    never read a tangent number: it fails at n = 6 for every m.

    Blind spots, which still pass everywhere on the desk grid:
    ``complement`` (in (-1)**n E_n(-a) + E_n(a) the odd s_k cancel, so it
    cannot see any tangent number) and ``lem1``, which never reads E_n or
    B_n. Every other checker fails somewhere.
    """
    monkeypatch.setattr(euler, "_CACHE", _CorruptedT3())
    assert euler.euler_zero(5) == F(-17, 32)
    assert euler.bernoulli_poly(6).coeffs[0] == F(17, 672)
    reports = run_suite()
    failed = {r.checker for r in reports if not r.passed}
    gf_failed = [r.params["n"] for r in reports
                 if r.checker == "gf_consistency" and not r.passed]
    assert gf_failed == [5, 6]
    power_sum_failed = [(r.params["m"], r.params["n"]) for r in reports
                        if r.checker == "bernoulli_power_sum"
                        and not r.passed]
    assert power_sum_failed == [(m, 6) for m in range(1, 7)]
    assert {r.checker for r in reports} - failed == {"complement", "lem1"}


def test_corrupted_difference_weight_fails_gf_consistency(monkeypatch):
    """c_1 one too large makes the finite-difference oracle read
    2**n E_n(x) - (x + 1)**n for every n >= 1, so gf_consistency fails at
    each n >= 1 of the desk grid, by either judge; n = 0 has no c_1."""
    true_weights = euler._difference_weights

    def corrupted(n):
        weights = true_weights(n)
        if n >= 1:
            weights[1] += 1
        return weights

    monkeypatch.setattr(euler, "_difference_weights", corrupted)
    assert euler.euler_poly_by_differences(3) != euler_poly(3)
    for judge in ("symbolic", "pointwise"):
        reports = judged_suite(["gf_consistency"], judge=judge)
        assert [r.params["n"] for r in reports if not r.passed] == \
            [1, 2, 3, 4, 5, 6]


# --- the scalar sums of E_k(0), kept as Fraction loops -------------------
# each loop is the checker body that zero_sum replaced, as it was written

def _cro0_over_q(n, q):
    total = Fraction(0)
    for i in range(n + q + 1):
        total += binomial(n + q, i) * falling_factorial(n + q + i, q) \
            * euler_zero(n + i)
    return total


def _cro1_over_q(m, n):
    first = sum(binomial(m + 1, i) * (n + i + 1) * euler_zero(n + i)
                for i in range(m + 2))
    second = sum(binomial(n + 1, j) * (m + j + 1) * euler_zero(m + j)
                 for j in range(n + 2))
    return first + (-1) ** (m + n) * second


def _cro2_over_q(n):
    return sum(binomial(n + 1, j) * (n + j + 1) * euler_zero(n + j)
               for j in range(n + 2))


def test_cro2_row_equals_per_term_binomials():
    for n in range(80):
        for count in (n + 1, n + 2):
            assert ident._cro2_terms(n, count) == [
                (binomial(n + 1, j) * (n + j + 1), n + j)
                for j in range(count)], (n, count)


def _euler_zero_via_recurrence_over_q(n):
    total = sum(binomial(n + 1, j) * (n + j + 1) * euler_zero(n + j)
                for j in range(n + 1))
    return Fraction(-1, 2 * (n + 1)) * total


def _thm2_cro1_over_q(n, k):
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


def _thm2_cro2_over_q(n, k):
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


def _thm3_1_sum_over_q(m, k, top, shift, start=0):
    return sum(binomial(m, i) * binomial(m + i, k) * binomial(m + i - k, top)
               * euler_zero(i + shift)
               for i in range(start, m + 1) if (m + i) % 2 == 0)


def _rem2_1_over_q(m):
    return sum(binomial(m, i) * falling_factorial(m + i, 3)
               * euler_zero(m + i - 3) for i in range(m + 1))


_M12 = range(13)

# id -> (the loop, the params swept, each in the checker's domain)
_SCALAR_ORACLES = {
    "cro0": (_cro0_over_q,
             [(n, q) for n in _M12 for q in range(1, 6) if q % 2]),
    "cro1": (_cro1_over_q,
             [(m, n) for m in _M12 for n in _M12 if m + n]),
    "cro2": (_cro2_over_q, [(n,) for n in _M12]),
    "recurrence_odd": (
        lambda n: _euler_zero_via_recurrence_over_q(n)
        - euler_zero(2 * n + 1), [(n,) for n in _M12]),
    "thm2_cro1": (_thm2_cro1_over_q,
                  [(n, k) for n in _M12 for k in range(7)]),
    "thm2_cro2": (_thm2_cro2_over_q,
                  [(n, k) for n in _M12 for k in range(7)]),
    "thm3_1a": (lambda m, k: _thm3_1_sum_over_q(m, k, m - k, 0)
                - (-1) ** m * binomial(m, k),
                [(m, k) for m in _M12 for k in range(m + 1)]),
    "thm3_1b": (lambda m, k: _thm3_1_sum_over_q(m, k, m - k - 1, 1),
                [(m, k) for m in _M12 for k in range(m)]),
    "thm3_1c": (lambda m, k, l: _thm3_1_sum_over_q(m, k, l, m - k - l),
                [(m, k, l) for m in _M12 for k in range(m)
                 for l in range(m - k)]),
    "thm3_1d": (lambda m, k, j: _thm3_1_sum_over_q(m, k, m + j - k, -j,
                                                   start=j)
                - (-1) ** (m + j) * binomial(m, j) * binomial(m + j, k),
                [(m, k, j) for m in _M12 for k in range(m + 1)
                 for j in range(1, m + 1)]),
    "rem2_1": (_rem2_1_over_q, [(m,) for m in range(3, 13)]),
}


@pytest.mark.parametrize("table", [EulerCache, _CorruptedT3],
                         ids=["true", "corrupted_t3"])
def test_scalar_sums_equal_fraction_loops(monkeypatch, table):
    # the sums are linear in s_k, so the two routes must also agree on a
    # wrong column, and there every family must show the error somewhere
    monkeypatch.setattr(euler, "_CACHE", table())
    for cid, (loop, cases) in _SCALAR_ORACLES.items():
        body = getattr(ident, f"check_{cid}").__wrapped__
        residuals = [body(*args) for args in cases]
        assert residuals == [loop(*args) for args in cases], cid
        assert any(residuals) == (table is not EulerCache), cid
    for n in _M12:
        assert ident.euler_zero_via_recurrence(n) == \
            _euler_zero_via_recurrence_over_q(n), n


def test_zero_sum_equals_plain_sum():
    rng = random.Random(7170)
    for _ in range(60):
        terms = _random_terms(rng)
        got = zero_sum(terms)
        assert type(got) is Fraction
        assert got == sum(c * euler_zero(k) for c, k in terms), terms


def test_zero_sum_edge_cases():
    assert zero_sum([]) == 0
    # a zero weight keeps a negative index out, as in euler_sum
    assert zero_sum([(0, -1)]) == 0
    # Fraction weights, as thm2_cro1's (-1)**i C(n+1,i) C(n+i+1,k) / 2**i
    assert zero_sum([(F(-3, 4), 5), (F(10, 8), 1), (7, 0)]) == \
        F(-3, 4) * F(-1, 2) + F(5, 4) * F(-1, 2) + 7
