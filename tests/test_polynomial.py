"""Polynomial ring tests over int and Fraction coefficients, with the ring
laws and the homomorphism p -> p(u*x + v) as properties.

The derivative oracle is a one-step formal differentiation written here,
applied repeatedly. The composition oracles are evaluation consistency at
random rational points, and the Horner-by-line composition that the integer
Taylor shift replaced, kept here.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerferm.polynomial import Polynomial, X, monomial


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


def test_ring_identities():
    assert (X + 1) * (X - 1) == X ** 2 - 1
    p = 3 * X ** 2 - Fraction(1, 2)
    assert p + Polynomial() == p
    assert p - p == 0
    assert p * Polynomial() == 0
    assert Polynomial([1]) * p == p
    assert (X + 2) ** 0 == 1


def test_degree_of_products():
    rng = random.Random(11)
    for _ in range(100):
        p, q = rand_poly(rng), rand_poly(rng)
        if p.is_zero() or q.is_zero():
            assert (p * q).is_zero()
        else:
            assert (p * q).degree == p.degree + q.degree


def test_derivative_examples():
    assert (X ** 3).derivative(2) == 6 * X
    assert (X ** 2).derivative(5) == 0
    assert (X ** 2).derivative(0) == X ** 2
    with pytest.raises(ValueError):
        (X ** 2).derivative(-1)


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
    from eulerferm.numeric import falling_factorial
    for m in range(9):
        for k in range(m + 2):
            expected = (monomial(m - k, Fraction(falling_factorial(m, k)))
                        if k <= m else Polynomial())
            assert monomial(m, Fraction(1)).derivative(k) == expected


def test_compose_affine_examples():
    assert (X ** 2).compose_affine(-1, 0) == X ** 2
    assert (X ** 2).compose_affine(1, 1) == X ** 2 + 2 * X + 1
    assert (X ** 3).compose_affine(1, -1)(Fraction(1)) == 0


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
    p = X ** 2 - X
    assert p(Fraction(1, 2)) == Fraction(-1, 4)
    q = 5 * X ** 3 + Fraction(7, 2)
    assert q(Fraction(0)) == q.coeffs[0]
    assert Polynomial()(Fraction(3)) == 0


def test_str_rendering():
    assert str(Polynomial()) == "0"
    assert str(X ** 2 - X) == "-x + x^2"
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
