"""Polynomial ring tests over int and Fraction coefficients, with the ring
laws and the homomorphism p -> p(u*x + v) as properties.

The derivative oracle is a one-step formal differentiation written here,
applied repeatedly. The composition oracles are evaluation consistency at
random rational points, plain Fraction evaluation of both sides, and the
Horner-by-line composition that the integer Taylor shift replaced, kept
here. The shift itself is checked against the double loop of n**2/2
in-place additions that its prefix-sum passes replaced.
``FractionPolynomial``, one Fraction or int per coefficient, is the layout
that the integer numerators over one denominator replaced; it is the oracle
of every operation, and each result must also be in normal form.
"""

import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eulerferm.numeric import falling_factorial, format_rational
from eulerferm.polynomial import Polynomial, monomial, taylor_shift

X = Polynomial((0, 1))


class FractionPolynomial:
    """Dense polynomial with one int or Fraction per coefficient:
    ``coeffs[i]`` is the coefficient of x**i, trailing zeros dropped."""

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    def __eq__(self, other):
        return self.coeffs == other.coeffs

    def __add__(self, other):
        if not isinstance(other, FractionPolynomial):
            other = FractionPolynomial((other,))
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return FractionPolynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return FractionPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, FractionPolynomial):
            return FractionPolynomial(tuple(c * other for c in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return FractionPolynomial()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return FractionPolynomial(out)

    __rmul__ = __mul__

    def derivative(self, k=1):
        return FractionPolynomial(tuple(
            falling_factorial(i, k) * self.coeffs[i]
            for i in range(k, len(self.coeffs))))

    def compose_affine(self, u, v):
        """p(u*x + v) by Horner's rule over the line u*x + v."""
        line = FractionPolynomial((Fraction(v), Fraction(u)))
        acc = FractionPolynomial()
        for c in reversed(self.coeffs):
            acc = acc * line + c
        return acc

    def __call__(self, t):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def to_coeff_strings(self):
        return [format_rational(c) for c in self.coeffs]


def power(p, e):
    """p**e as e repeated products."""
    result = Polynomial((1,))
    for _ in range(e):
        result = result * p
    return result


def assert_normal(p):
    """Integer numerators, no trailing zero, den > 0 and
    gcd(den, *nums) == 1; so the zero polynomial is ((), 1)."""
    assert type(p.nums) is tuple and all(type(c) is int for c in p.nums)
    assert type(p.den) is int and p.den > 0
    assert not p.nums or p.nums[-1] != 0
    assert math.gcd(p.den, *p.nums) == 1
    assert p.coeffs == tuple(Fraction(c, p.den) for c in p.nums)
    assert all(type(c) is (int if p.den == 1 else Fraction) for c in p.coeffs)


def diff_once(p):
    """Independent single derivative step: coefficient i goes to i * c_i."""
    return Polynomial([i * c for i, c in enumerate(p.coeffs)][1:])


def rand_poly(rng, max_deg=6, span=9):
    return Polynomial([Fraction(rng.randint(-span, span),
                                rng.randint(1, span))
                       for _ in range(rng.randint(0, max_deg + 1))])


def test_normalization_and_degree():
    assert Polynomial([1, 2, 0, 0]).coeffs == (1, 2)
    assert Polynomial().degree is None
    assert Polynomial([0, 0]).degree is None
    assert Polynomial([5]).degree == 0
    assert X.degree == 1
    assert not Polynomial()
    assert Polynomial([0]).is_zero()


def test_equality_with_scalars():
    assert Polynomial() == 0
    assert Polynomial([Fraction(3, 2)]) == Fraction(3, 2)
    assert Polynomial([1, 1]) != 1


def test_immutability():
    p = X + 1
    with pytest.raises(AttributeError):
        p.coeffs = (1,)


@pytest.mark.parametrize("p", [
    Polynomial(), Polynomial([3, 0, -7]),
    Polynomial([Fraction(1, 2), 0, Fraction(-3, 8)])],
    ids=["zero", "integer", "dyadic"])
def test_pickle_and_copy_round_trip(p):
    for q in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
        assert type(q) is Polynomial and q == p
        with pytest.raises(AttributeError):
            q.den = 1


def test_ring_identities():
    assert (X + 1) * (X - 1) == power(X, 2) - 1
    p = 3 * power(X, 2) - Fraction(1, 2)
    assert p + Polynomial() == p
    assert p - p == 0
    assert p * Polynomial() == 0
    assert Polynomial([1]) * p == p


def test_degree_of_products():
    rng = random.Random(11)
    for _ in range(100):
        p, q = rand_poly(rng), rand_poly(rng)
        if p.is_zero() or q.is_zero():
            assert (p * q).is_zero()
        else:
            assert (p * q).degree == p.degree + q.degree


def test_derivative_examples():
    assert power(X, 3).derivative(2) == 6 * X
    assert power(X, 2).derivative(5) == 0
    assert power(X, 2).derivative(0) == power(X, 2)
    with pytest.raises(ValueError):
        power(X, 2).derivative(-1)


def test_derivative_matches_repeated_single_steps():
    rng = random.Random(13)
    for _ in range(80):
        p = rand_poly(rng)
        stepped = p
        for k in range(5):
            assert p.derivative(k) == stepped
            stepped = diff_once(stepped)


def test_derivative_composes():
    rng = random.Random(17)
    for _ in range(60):
        p = rand_poly(rng)
        for j in range(3):
            for k in range(3):
                assert p.derivative(j + k) == p.derivative(j).derivative(k)


def test_derivative_of_monomial_closed_form():
    for m in range(9):
        for k in range(m + 2):
            expected = (monomial(m - k, Fraction(falling_factorial(m, k)))
                        if k <= m else Polynomial())
            assert monomial(m, Fraction(1)).derivative(k) == expected


def test_compose_affine_examples():
    assert power(X, 2).compose_affine(-1, 0) == power(X, 2)
    assert power(X, 2).compose_affine(1, 1) == power(X, 2) + 2 * X + 1
    assert power(X, 3).compose_affine(1, -1)(Fraction(1)) == 0


def test_compose_affine_shift_additivity():
    rng = random.Random(19)
    for _ in range(50):
        p = rand_poly(rng)
        v, w = Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5))
        assert p.compose_affine(1, v).compose_affine(1, w) == \
            p.compose_affine(1, v + w)


def test_compose_affine_eval_consistency():
    rng = random.Random(23)
    for _ in range(80):
        p = rand_poly(rng)
        u = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        v = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        t = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        assert p.compose_affine(u, v)(t) == p(u * t + v)


def _fraction_value(coeffs, x):
    """sum_i c_i x**i in Fraction arithmetic, term by term."""
    return sum(Fraction(c) * x ** i for i, c in enumerate(coeffs))


@pytest.mark.parametrize("v", [0, 1, -1, Fraction(1, 2), Fraction(-7, 4),
                               Fraction(97, 3), 10 ** 9,
                               Fraction(-10 ** 9, 7)])
def test_compose_affine_equals_fraction_evaluation(v):
    rng = random.Random(str(v))
    for n in range(-1, 61, 4):
        p = Polynomial([Fraction(rng.randint(-99, 99), rng.randint(1, 9))
                        for _ in range(n + 1)])
        for u in (1, -1, 2, Fraction(-3, 5)):
            got = p.compose_affine(u, v)
            for x in (Fraction(1), Fraction(-2, 3), Fraction(5, 7)):
                assert _fraction_value(got.coeffs, x) == \
                    _fraction_value(p.coeffs, u * x + v)


def taylor_shift_by_loops(nums, r):
    """p(y + r) by the double loop that the prefix-sum passes replaced:
    nums[j] += r * nums[j+1] for j from n-1 down to i, for each i < n."""
    nums = list(nums)
    n = len(nums) - 1
    if r:
        for i in range(n):
            for j in range(n - 1, i - 1, -1):
                nums[j] += r * nums[j + 1]
    return nums


@pytest.mark.parametrize("r", [0, 1, -1, 2, -2, 97, -97, 10 ** 9, -10 ** 9])
def test_taylor_shift_equals_the_double_loop(r):
    rng = random.Random(r)
    for n in [*range(-1, 61), 200, 200, 200]:
        nums = tuple(rng.randint(-10 ** 6, 10 ** 6) for _ in range(n + 1))
        got = taylor_shift(nums, r)
        assert type(got) is list and got == taylor_shift_by_loops(nums, r)


def compose_by_lines(p, u, v):
    """p(u*x + v) by Horner's rule over the line u*x + v."""
    line = Polynomial((v, u))
    acc = Polynomial()
    for c in reversed(p.coeffs):
        acc = acc * line + Polynomial((c,))
    return acc


_fractions = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(coeffs=st.integers(0, 41).flatmap(lambda size: st.lists(
           st.one_of(_fractions, st.integers(-9, 9)),
           min_size=size, max_size=size)),
       u=st.one_of(st.just(0), st.just(-1), _fractions),
       v=st.builds(Fraction, st.integers(-7, 7), st.sampled_from([1, 2, 3])))
def test_compose_affine_equals_horner_by_lines(coeffs, u, v):
    p = Polynomial(coeffs)
    got = p.compose_affine(u, v)
    assert got == compose_by_lines(p, Fraction(u), v)
    assert all(type(c) in (int, Fraction) for c in got.coeffs)


@pytest.mark.parametrize("p", [Polynomial(), Polynomial([Fraction(5, 3)]),
                               Polynomial([0, 0, 0, Fraction(-2, 7)])],
                         ids=["zero", "constant", "monomial"])
@pytest.mark.parametrize("u,v", [(0, Fraction(1, 2)), (-3, Fraction(2, 3)),
                                 (Fraction(-5, 4), 7), (1, 0)])
def test_compose_affine_edge_cases(p, u, v):
    assert p.compose_affine(u, v) == \
        compose_by_lines(p, Fraction(u), Fraction(v))


# int, Fraction and mixed coefficient lists
_polys = st.lists(st.one_of(st.integers(-20, 20), _fractions),
                  max_size=8).map(Polynomial)
_scalars = st.one_of(st.integers(-5, 5), _fractions)
_laws = settings(max_examples=100, derandomize=True, database=None,
                 deadline=None)


@_laws
@given(p=_polys, q=_polys, r=_polys)
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p - p == 0


@_laws
@given(p=_polys, q=_polys, u=_scalars, v=_scalars)
def test_compose_affine_is_a_ring_homomorphism(p, q, u, v):
    assert (p + q).compose_affine(u, v) == \
        p.compose_affine(u, v) + q.compose_affine(u, v)
    assert (p * q).compose_affine(u, v) == \
        p.compose_affine(u, v) * q.compose_affine(u, v)


def test_eval():
    p = power(X, 2) - X
    assert p(Fraction(1, 2)) == Fraction(-1, 4)
    q = 5 * power(X, 3) + Fraction(7, 2)
    assert q(Fraction(0)) == q.coeffs[0]
    assert Polynomial()(Fraction(3)) == 0


def test_str_rendering():
    assert str(Polynomial()) == "0"
    assert str(power(X, 2) - X) == "-x + x^2"
    assert str(X - Fraction(1, 2)) == "-1/2 + x"
    assert str(Polynomial([Fraction(1, 4), 0, Fraction(-3, 2), 1])) == \
        "1/4 - 3/2*x^2 + x^3"
    assert str(Polynomial([Fraction(7)])) == "7"


def test_coeff_strings_round_trip():
    p = Polynomial([Fraction(1, 4), Fraction(0), Fraction(-3, 2), Fraction(1)])
    strings = p.to_coeff_strings()
    assert strings == ["1/4", "0", "-3/2", "1"]


def test_monomial_rejects_negative_degree():
    with pytest.raises(ValueError):
        monomial(-1)


# --- the integer numerators over one denominator -------------------------

def test_normal_form_examples():
    assert Polynomial().nums == () and Polynomial().den == 1
    assert Polynomial([0, Fraction(0, 5)]).den == 1
    p = Polynomial([Fraction(1, 2), Fraction(-3, 4), 0])
    assert (p.nums, p.den) == ((2, -3), 4)
    assert Polynomial.scaled([6, -9, 0, 0], 12) == p
    zero = Polynomial.scaled([0, 0], 8)
    assert (zero.nums, zero.den) == ((), 1)
    assert Polynomial.scaled([4, 8]) == Polynomial([4, 8])
    assert X.nums == (0, 1) and X.den == 1
    # a sum and a product may cancel the whole denominator
    assert (p + Polynomial([Fraction(1, 2), Fraction(3, 4)])).den == 1
    assert (Polynomial.scaled([1, 1], 2) * Polynomial([2, 2])).den == 1
    assert Polynomial.scaled([2, 4], 1).derivative().nums == (4,)
    half_square = Polynomial.scaled([0, 0, 1], 2).derivative()
    assert (half_square.nums, half_square.den) == ((0, 1), 1)


def test_multiplying_by_one_keeps_the_instance():
    p = Polynomial.scaled([3, -6, 1], 8)
    assert p * 1 is p and 1 * p is p
    assert (p * -1).nums == (-3, 6, -1) and (p * -1).den == 8
    scaled = p * Fraction(8, 3)
    assert (scaled.nums, scaled.den) == ((3, -6, 1), 3)


def test_eval_builds_one_fraction():
    p = Polynomial.scaled([1, -3, 0, 2], 4)
    for t in (0, 3, -2, Fraction(1, 2), Fraction(-5, 3)):
        got = p(t)
        assert type(got) is Fraction
        assert got == sum(Fraction(c, 4) * Fraction(t) ** i
                          for i, c in enumerate(p.nums))
    assert Polynomial()(Fraction(2, 3)) == 0


_coeff_lists = st.lists(st.one_of(st.integers(-20, 20), _fractions),
                        max_size=9)
_points = st.one_of(st.integers(-6, 6),
                    st.builds(Fraction, st.integers(-9, 9),
                              st.integers(1, 9)))


def _same(got, oracle):
    assert_normal(got)
    assert got.coeffs == oracle.coeffs
    assert got.to_coeff_strings() == oracle.to_coeff_strings()


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(a=_coeff_lists, b=_coeff_lists, c=_scalars, u=_scalars, v=_scalars,
       t=_points, k=st.integers(0, 4))
@example(a=[], b=[], c=0, u=0, v=0, t=0, k=0)
@example(a=[Fraction(1, 2), Fraction(3, 4)],
         b=[Fraction(-1, 2), Fraction(1, 4)], c=Fraction(4, 3),
         u=Fraction(1, 2), v=Fraction(-1, 2), t=Fraction(2, 3), k=1)
def test_integer_layout_agrees_with_fraction_coefficients(a, b, c, u, v, t,
                                                           k):
    p, q = Polynomial(a), Polynomial(b)
    fp, fq = FractionPolynomial(a), FractionPolynomial(b)
    _same(p, fp)
    _same(Polynomial.scaled(p.nums, p.den), fp)
    for got, want in [(p + q, fp + fq), (p - q, fp - fq), (p * q, fp * fq),
                      (-p, -fp), (p + c, fp + c), (c - p, c - fp),
                      (p * c, fp * c), (c * p, c * fp),
                      (p.compose_affine(u, v), fp.compose_affine(u, v)),
                      (p.derivative(k), fp.derivative(k))]:
        _same(got, want)
    assert p(t) == fp(t)
    assert str(p) == str(Polynomial(fp.coeffs))
    assert (p == q) == (fp == fq)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(nums=st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=9),
       den=st.integers(1, 10 ** 4), scale=st.integers(1, 50))
@example(nums=[], den=7, scale=1)
@example(nums=[0, 0, 0], den=4, scale=3)
def test_scaled_constructor_is_normal(nums, den, scale):
    p = Polynomial.scaled(nums, den)
    assert_normal(p)
    assert p == Polynomial([Fraction(c, den) for c in nums])
    # the same polynomial over a multiple of the denominator reads the same
    again = Polynomial.scaled([c * scale for c in nums], den * scale)
    assert (again.nums, again.den) == (p.nums, p.den)
    assert hash(again) == hash(p)
