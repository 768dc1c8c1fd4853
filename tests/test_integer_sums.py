"""Integer paths of the catalog: the thm2 pivot over Z[a][x], and the
integer-weighted E_n sums over one common denominator.

Each fast path is compared with the construction over Q that it replaced,
kept here as the reference, and every checker that uses the sums must
still fail when one table entry is wrong.
"""

import random
from fractions import Fraction

import pytest

from eulerferm import euler
from eulerferm import identities as ident
from eulerferm.euler import (
    EulerCache,
    euler_poly,
    euler_poly_shifted,
    euler_sum,
)
from eulerferm.identities import run_suite
from eulerferm.polynomial import Polynomial

F = Fraction


def _pivot_over_q(m, n, s):
    a = Polynomial((F(0), F(1)))
    one = Polynomial((F(1),))
    x_plus_a = Polynomial((a, one))
    x_plus_a_s = Polynomial((a - (s + 1), one))
    x_minus_a = Polynomial((-a, one))
    x_minus_a_s = Polynomial((-a - (s + 1), one))
    return x_plus_a ** (m + 1) * x_plus_a_s ** (n + 1) \
        + (-1) ** (m + n) * (x_minus_a ** (n + 1) * x_minus_a_s ** (m + 1))


@pytest.mark.parametrize("s", [0, 1, 2, 3])
def test_integer_pivot_equals_rational_pivot(s):
    for m in range(5):
        for n in range(5):
            pivot = ident._pivot_poly(m, n, s)
            assert pivot == _pivot_over_q(m, n, s)
            assert all(type(c) is int
                       for inner in pivot.coeffs for c in inner.coeffs)


def _random_terms(rng):
    return [(rng.choice((0, rng.randint(-60, 60))), rng.randint(0, 30))
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
    ids = ("thm1", "thm2", "wsp7", "wsp9", "thm3")
    failed = {r.checker for r in run_suite(ids) if not r.passed}
    assert failed == set(ids)
