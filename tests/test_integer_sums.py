"""Integer paths: thm2's right side from binomial rows, the
weighted E_n sums over one common denominator (and the sun, sun_cor,
fersim3 and thm3 sides built on them), the p-adic sums of
polynomials over one common denominator (the literal p**N loop and the
route by base-p digits), the E_n table built from tangent numbers, and
the finite-difference oracle that gf_consistency checks it with.

Each fast path is compared with the construction over Q that it replaced,
kept here as the reference, and every checker that uses the sums must
still fail when a table entry is wrong.
"""

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
)
from eulerferm.identities import run_suite
from eulerferm.numeric import binomial
from eulerferm.padic import (
    MAX_PRECISION,
    fermionic_sum_digits,
    fermionic_sum_naive,
    lem1_defect,
    valuation,
)
from eulerferm.polynomial import Polynomial, monomial, taylor_shift

F = Fraction


def _pivot_at(a0, m, n, s):
    """thm2's pivot P(x; a0) as a univariate polynomial in x over Q."""
    return Polynomial((a0, 1)) ** (m + 1) \
        * Polynomial((a0 - (s + 1), 1)) ** (n + 1) \
        + (-1) ** (m + n) * (Polynomial((-a0, 1)) ** (n + 1)
                             * Polynomial((-a0 - (s + 1), 1)) ** (m + 1))


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


@pytest.mark.parametrize("mode", ["symbolic", "pointwise"])
@pytest.mark.parametrize("row", [(1, 2, 1), (1, 2, -1), (-2, 1, 1)])
def test_corrupted_binomial_row_fails_thm2(monkeypatch, mode, row):
    # one row, (sign*a + c)**e, reads its coefficient of a off by one
    clean = ident._binomial_row

    def corrupted(c, e, sign):
        coeffs = clean(c, e, sign)
        if (c, e, sign) == row:
            coeffs[1] += 1
        return coeffs

    assert all(r.passed for r in run_suite(["thm2"], mode=mode))
    monkeypatch.setattr(ident, "_binomial_row", corrupted)
    assert not all(r.passed for r in run_suite(["thm2"], mode=mode))


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
        assert all(isinstance(c, Fraction) for c in got.coeffs)


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
    assert cache.euler_scaled(5)[1] == den
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
    assert got == padic._integer_sum(f.coeffs, p ** precision)
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
    original = padic.fermionic_sum_digits
    monkeypatch.setattr(padic, "fermionic_sum_digits",
                        lambda f, p, precision: original(f, p, precision - 1))


def _flip_odd_digits(monkeypatch):
    def folded_with_odd_j_added(nums, p):
        shifted, folded = list(nums), list(nums)
        for _ in range(1, p):
            taylor_shift(shifted, 1)
            folded = [a + b for a, b in zip(folded, shifted)]
        return [c * p ** k for k, c in enumerate(folded)]

    monkeypatch.setattr(padic, "_fold_digit", folded_with_odd_j_added)


@pytest.mark.parametrize("mutate", [_drop_one_level, _flip_odd_digits],
                         ids=["drop_level", "flip_odd_j"])
@pytest.mark.parametrize("cid", ["witt", "lem1"])
def test_broken_digit_route_fails(monkeypatch, mutate, cid):
    mutate(monkeypatch)
    reports = run_suite([cid])
    assert reports and not all(r.passed for r in reports)


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
    """T_3 reads as 17 instead of 16 where the table reads the tangent
    numbers, so E_5(0) = s_5 / 32 and every E_n with n >= 5 is wrong."""

    def __init__(self):
        super().__init__()
        true = self._tangents
        self._tangents = (t + (j == 3) for j, t in enumerate(true, 1))


def test_corrupted_tangent_number_fails_gf_consistency(monkeypatch):
    """gf_consistency compares the table with two oracles that never read
    it, so it fails wherever the corruption shows: n = 5 and 6 on the desk
    grid.

    Blind spots, which still pass everywhere on the desk grid:
    ``complement`` (in (-1)**n E_n(-a) + E_n(a) the odd s_k cancel, so it
    cannot see any tangent number), and ``bernoulli_power_sum`` and
    ``lem1``, which never read E_n. Every other checker fails somewhere.
    """
    monkeypatch.setattr(euler, "_CACHE", _CorruptedT3())
    assert euler.euler_zero(5) == F(-17, 32)
    reports = run_suite()
    failed = {r.checker for r in reports if not r.passed}
    gf_failed = [r.params["n"] for r in reports
                 if r.checker == "gf_consistency" and not r.passed]
    assert gf_failed == [5, 6]
    assert {r.checker for r in reports} - failed == \
        {"complement", "bernoulli_power_sum", "lem1"}


def test_corrupted_difference_weight_fails_gf_consistency(monkeypatch):
    """c_1 one too large makes the finite-difference oracle read
    2**n E_n(x) - (x + 1)**n for every n >= 1, so gf_consistency fails at
    each n >= 1 of the desk grid, in both modes; n = 0 has no c_1."""
    true_weights = euler._difference_weights

    def corrupted(n):
        weights = true_weights(n)
        if n >= 1:
            weights[1] += 1
        return weights

    monkeypatch.setattr(euler, "_difference_weights", corrupted)
    assert euler.euler_poly_by_differences(3) != euler_poly(3)
    for mode in ("symbolic", "pointwise"):
        reports = run_suite(["gf_consistency"], mode=mode)
        assert [r.params["n"] for r in reports if not r.passed] == \
            [1, 2, 3, 4, 5, 6]
