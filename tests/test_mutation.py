"""The mutation matrix: each checker's blind spots, stated as a table.

The mutants corrupt the E_n table, the tangent numbers, the Pascal step of
the binomial E-sums, the moments of the p-adic certificates, the
alternating power sums, the integer core of the E-sums, the Taylor shift
under ``compose_affine`` and the signs of thm2's pivot. Every mutant runs
the whole catalog on the desk grid, and the set of
checkers that still pass everywhere (the survivors) must equal the
documented blind spots exactly. A new blind spot fails here, and so does
one that a change silently closes. Reference: DeMillo, Lipton & Sayward,
"Hints on test data selection" (1978).
"""

import copy
import math
import pickle
import sys
from fractions import Fraction

import pytest

from eulerferm import euler, identities as ident, padic, polynomial
from eulerferm.euler import EulerCache, tangent_numbers
from eulerferm.identities import CHECKER_IDS, CHECKERS, SweepGrid, run_suite
from eulerferm.polynomial import Polynomial, monomial, taylor_shift
from test_golden import pointwise

# read only E_k(0), from the column s_k, never the E table
E_ZERO_IDS = {"cro0", "cro1", "cro2", "recurrence_odd", "thm2_cro1",
              "thm2_cro2", "thm3_1a", "thm3_1b", "thm3_1c", "thm3_1d",
              "rem2_1"}
# read neither E_n nor s_k: direct power sums against B_n, and p-adic sums
# of a given polynomial
NO_E_IDS = {"bernoulli_power_sum", "lem1"}


def _survivors(monkeypatch, cache):
    monkeypatch.setattr(euler, "_CACHE", cache)
    failed = {r.checker for r in run_suite() if not r.passed}
    return set(CHECKER_IDS) - failed


class _BumpedCoefficient(EulerCache):
    """Coefficient i of E_n reads 3 too large; s_k stays true."""

    def __init__(self, n, i):
        super().__init__()
        self.n, self.i = n, i

    def euler_poly(self, n):
        p = super().euler_poly(n)
        return p + monomial(self.i, 3) if n == self.n else p


@pytest.mark.parametrize("n,i", [(n, i) for n in range(7)
                                 for i in range(n + 1)])
def test_e_table_mutant_survivors(monkeypatch, n, i):
    """complement cancels a term of E_n with n + i odd, since
    (-1)**n (-a)**i + a**i = 0 there; reflection keeps a constant at even
    n, since E_n(1-a) = E_n(a) holds for E_n + 3. So complement survives
    12 of the 28 mutants and reflection 4."""
    expected = E_ZERO_IDS | NO_E_IDS
    if (n + i) % 2:
        expected = expected | {"complement"}
    if i == 0 and n % 2 == 0:
        expected = expected | {"reflection"}
    assert _survivors(monkeypatch, _BumpedCoefficient(n, i)) == expected


@pytest.mark.parametrize("judge", ["symbolic", "pointwise"])
def test_a_failing_report_carries_the_whole_residual(monkeypatch, judge):
    # E_2 + 3a makes wsp7 at m = n = 1 read -6a; the driver reports the
    # body's lhs - rhs, the interpolation judge its first nonzero difference
    monkeypatch.setattr(euler, "_CACHE", _BumpedCoefficient(2, 1))
    lhs, rhs = ident.check_wsp7.__wrapped__(1, 1)
    report = ident.check_wsp7(1, 1)
    if judge == "pointwise":
        report, = pointwise([report])
    assert not report.passed
    if judge == "symbolic":
        assert report.residual == lhs - rhs == monomial(1, -6)
    else:
        assert report.residual == lhs(1) - rhs(1) == -6
    for copied in (pickle.loads(pickle.dumps(report)), copy.copy(report),
                   copy.deepcopy(report)):
        assert copied == report


class _BumpedTangent(EulerCache):
    """T_j reads one too large, so s_(2j-1) and every E_n, B_n and E_k(0)
    that reads it are wrong."""

    def __init__(self, j):
        super().__init__()
        self._tangents = (t + (i == j)
                          for i, t in enumerate(tangent_numbers(), 1))


@pytest.mark.parametrize("j", [1, 2, 3])
def test_tangent_mutant_survivors(monkeypatch, j):
    """complement cannot see any tangent number, since the odd s_k cancel in
    (-1)**n E_n(-a) + E_n(a); lem1 never reads E_n or B_n."""
    assert _survivors(monkeypatch, _BumpedTangent(j)) == {"complement",
                                                           "lem1"}


def test_t4_mutant_survivors(monkeypatch):
    """T_4 enters through s_7 alone, which these checkers never reach on
    the desk grid (n, m <= 6)."""
    assert _survivors(monkeypatch, _BumpedTangent(4)) == {
        "bernoulli_power_sum", "boundary", "complement", "euler_alt_sum",
        "fersim", "fersim3", "gf_consistency", "lem1", "reflection",
        "thm3_1a", "thm3_1d", "witt"}


class _PascalAtOne(EulerCache):
    """At c = 1 the Pascal step reads its left neighbour twice:
    2 A_1(M-1, N, k) in place of A_1(M-1, N, k) + A_1(M-1, N+1, k)."""

    @staticmethod
    def _pascal_step(c, left, right):
        return [(c, 1, left), (1, 1, left if c == 1 else right)]


class _PascalSwapped(EulerCache):
    """The Pascal step weights the wrong neighbour by c:
    c A_c(M-1, N+1, k) + A_c(M-1, N, k), which is right only at c = 1."""

    @staticmethod
    def _pascal_step(c, left, right):
        return [(c, 1, right), (1, 1, left)]


@pytest.mark.parametrize("cache,failed", [
    (_PascalAtOne, {"wsp7", "thm1", "sun"}),   # sun at a = 1
    (_PascalSwapped, {"thm2", "sun"}),         # sun at every a but 1
], ids=["at_one", "swapped"])
def test_pascal_step_mutant_survivors(monkeypatch, cache, failed):
    """wsp7 and thm1 read A_c(M, N, k) at c = 1, thm2 at c = s + 1 and sun
    at c = a. An entry that no Pascal step builds is a direct sum, so a
    wrong step shows where a report reads entries built both ways."""
    assert _survivors(monkeypatch, cache()) == set(CHECKER_IDS) - failed


_ROWS = padic._fold_rows
_SUMS = padic._alternating_power_sums


def _rows_times_p(sums, p):
    """Every weight of a moment step times p, so each step reads p mu."""
    return [[w * p for w in row] for row in _ROWS(sums, p)]


def _rows_unsigned(sums, p):
    """A moment step's weights from sum_j j**e, every j added, in place of
    A_e = sum_j (-1)**j j**e: each step reads sum_j (j + p*y)**k."""
    return _ROWS([sum(j ** e for j in range(p)) for e in range(len(sums))],
                 p)


def _sums_without_j0(p, d):
    """A_0 summed without its j = 0 term: 0 in place of 1, in the moment
    steps' weights and in the first moments alike."""
    sums = _SUMS(p, d)
    return [sums[0] - 1, *sums[1:]] if sums else sums


@pytest.mark.parametrize("name,mutant", [
    ("_fold_rows", _rows_times_p), ("_fold_rows", _rows_unsigned),
    ("_alternating_power_sums", _sums_without_j0)],
    ids=["times_p", "unsigned", "a0_without_j0"])
def test_certifier_mutant_survivors(monkeypatch, name, mutant):
    """The weights of the p-adic moments (``padic``), which witt and lem1
    read at precision 2 and no other checker reads."""
    monkeypatch.setattr(padic, name, mutant)
    assert _survivors(monkeypatch, EulerCache()) == \
        set(CHECKER_IDS) - {"witt", "lem1"}


@pytest.mark.parametrize("cid", ["witt", "lem1"])
def test_fold_mutant_is_read_after_a_plain_digit_sum(monkeypatch, cid):
    """A plain digit sum keeps no moments, so the report that follows it
    builds its own rows, with the mutant, though the plain sum read the
    same (p, N) and degree; and so does the sweep after it."""
    # witt at n = 4 and lem1's polynomial 1 (of degree 1), both at p = 3,
    # are reports that the mutant fails
    params = [params for params in CHECKERS[cid].gen(
        SweepGrid(n=(4,), p_list=(3,))) if params.get("index", 1) == 1][0]
    degree = 4 if cid == "witt" else params["f"].degree
    padic.fermionic_sum_digits(monomial(degree), 3, 2)
    monkeypatch.setattr(padic, "_fold_rows", _rows_times_p)
    assert not CHECKERS[cid].run(params).passed
    assert _survivors(monkeypatch, EulerCache()) == \
        set(CHECKER_IDS) - {"witt", "lem1"}


_ALT_POWER_SUM = euler.alt_power_sum


def _alt_sum_a0_plus_one(m, n):
    """The j = 0 term counted twice at n = 0, where 0**0 = 1."""
    return _ALT_POWER_SUM(m, n) + (n == 0)


def _alt_sum_without_top(m, n):
    """The sum stopped at j = m - 1: its top term (-1)**m m**n dropped."""
    return _ALT_POWER_SUM(m, n) - (-1) ** m * m ** n


@pytest.mark.parametrize("mutant", [_alt_sum_a0_plus_one,
                                    _alt_sum_without_top],
                         ids=["a0_plus_one", "top_dropped"])
def test_alt_power_sum_mutant_survivors(monkeypatch, mutant):
    """``alt_power_sum`` is the one builder of alternating power sums: the
    direct side of euler_alt_sum, and the A_e = alt_power_sum(p - 1, e) of
    the p-adic digit fold that witt and lem1 read. The mutant replaces it
    in every module of the package that binds the name."""
    binders = {name for name, module in list(sys.modules.items())
               if name.split(".")[0] == "eulerferm"
               and getattr(module, "alt_power_sum", None) is _ALT_POWER_SUM}
    assert {"eulerferm.identities", "eulerferm.padic"} <= binders
    for name in binders:
        monkeypatch.setattr(sys.modules[name], "alt_power_sum", mutant)
    assert _survivors(monkeypatch, EulerCache()) == \
        set(CHECKER_IDS) - {"euler_alt_sum", "lem1", "witt"}


_WEIGHTED_SUM = euler._weighted_sum
_COMPOSE_AFFINE = Polynomial.compose_affine


def _weighted_sum_without_step(parts):
    """sum c P(x): each P(step * x) read as P(x), so P(-x) is lost."""
    return _WEIGHTED_SUM([(c, 1, p) for c, _, p in parts])


def _compose_negated_shift(poly, u, v):
    """p(u*x - v) in place of p(u*x + v)."""
    return _COMPOSE_AFFINE(poly, u, -Fraction(v))


def _shift_one_further(nums, r):
    """The coefficients of p(y + r + 1) in place of p(y + r)."""
    return taylor_shift(nums, r + 1)


# the checkers that read a shifted E_n, or shift a polynomial before its
# digit sum: lem1's f(x + 1); witt expands (x + a)**n by the binomial
# theorem and reads no shift
_SHIFT_READERS = {"fersim", "fersim3", "lem1", "reflection", "sun"}


@pytest.mark.parametrize("patches,failed", [
    ([(euler, "_weighted_sum", _weighted_sum_without_step)],
     {"complement", "thm1", "thm2", "wsp7", "wsp9"}),
    ([(Polynomial, "compose_affine", _compose_negated_shift)],
     _SHIFT_READERS),
    # compose_affine reads taylor_shift from its module; padic's moments read
    # weight rows and no shift, so lem1 sees it through compose_affine
    ([(polynomial, "taylor_shift", _shift_one_further)], _SHIFT_READERS),
], ids=["step_ignored", "v_negated", "shift_r_plus_1"])
def test_shared_core_mutant_survivors(monkeypatch, patches, failed):
    """Cores that many checkers share. Ignoring ``_weighted_sum``'s step
    reads each E(-a) term as E(a), which the checkers with a side at -a
    see. The integer Taylor shift serves every shifted E_n and the
    polynomial that lem1 shifts before its digit sum."""
    for owner, name, mutant in patches:
        monkeypatch.setattr(owner, name, mutant)
    assert _survivors(monkeypatch, EulerCache()) == set(CHECKER_IDS) - failed


def _pivot_signs_from_k(m, n, s, k):
    """thm2's pivot with the sign cycle started at the coefficient's index
    in G, i + k, rather than at i: (-1)**(m+n+i+k) in place of
    (-1)**(m+n+i), wrong at every odd k."""
    g1 = ident._shift_sum(m + 1, n + 1, s)
    g2 = ident._shift_sum(n + 1, m + 1, s)
    return Polynomial.scaled([
        2 * math.comb(i + k, k)
        * (g1[i + k] + (-1) ** (m + n + i + k) * g2[i + k])
        for i in range(max(0, m + n + 3 - k))])


def test_pivot_sign_parity_mutant_fails_thm2_alone(monkeypatch):
    """Only thm2 reads the pivot. The desk grid's k = 1 and 3 are odd."""
    monkeypatch.setattr(ident, "_pivot_taylor_sum", _pivot_signs_from_k)
    assert _survivors(monkeypatch, EulerCache()) == set(CHECKER_IDS) - {"thm2"}
