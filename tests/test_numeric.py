"""Integer/rational primitive tests.

The binomial oracle here is an independently built Pascal triangle; the
falling-factorial oracle is the q! * C(n, q) identity with both sides
computed separately. Rational text and coefficient strings must parse
back to the values they were formatted from.
"""

import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerferm.numeric import (
    binomial,
    falling_factorial,
    format_rational,
    int_pow,
    parse_rational,
)
from eulerferm.polynomial import Polynomial


def pascal_rows(limit):
    rows = [[1]]
    for n in range(1, limit + 1):
        prev = rows[-1]
        rows.append([1] + [prev[k - 1] + prev[k] for k in range(1, n)] + [1])
    return rows


def test_binomial_small_values():
    assert binomial(5, 2) == 10
    assert binomial(4, 7) == 0
    assert binomial(4, -1) == 0
    assert binomial(0, 0) == 1


def test_binomial_frozen_central_value():
    # checked against the Pascal oracle below
    assert binomial(30, 15) == 155117520


def test_binomial_matches_pascal_triangle():
    rows = pascal_rows(40)
    for n in range(41):
        for k in range(n + 1):
            assert binomial(n, k) == rows[n][k]


def test_binomial_pascal_recurrence():
    for n in range(1, 41):
        for k in range(n + 1):
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def test_binomial_rejects_negative_n():
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_falling_factorial_values():
    assert falling_factorial(7, 3) == 210
    assert falling_factorial(10, 4) == 5040  # equals 4! * C(10, 4)
    for n in range(10):
        assert falling_factorial(n, 0) == 1
    assert falling_factorial(3, 5) == 0


def test_falling_factorial_binomial_identity():
    for n in range(13):
        for q in range(n + 1):
            assert falling_factorial(n, q) == factorial(q) * binomial(n, q)
            assert falling_factorial(n, q) * factorial(n - q) == factorial(n)


def test_falling_factorial_rejects_negative():
    with pytest.raises(ValueError):
        falling_factorial(-2, 1)
    with pytest.raises(ValueError):
        falling_factorial(2, -1)


def test_int_pow():
    assert int_pow(Fraction(1, 2), 3) == Fraction(1, 8)
    assert int_pow(Fraction(0), 0) == 1
    assert int_pow(Fraction(-2, 3), 2) == Fraction(4, 9)
    with pytest.raises(ValueError):
        int_pow(Fraction(2), -1)


def test_rational_round_trips():
    rng = random.Random(7)
    for _ in range(300):
        a = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        b = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        assert (a + b) - b == a
        if b:
            assert (a * b) / b == a
        assert a.denominator >= 1
        assert Fraction(a.numerator, a.denominator) == a


@pytest.mark.parametrize("text,expected", [
    ("-3/4", Fraction(-3, 4)),
    ("7", Fraction(7)),
    ("0", Fraction(0)),
    ("10/4", Fraction(5, 2)),
    (" 2/6 ", Fraction(1, 3)),
])
def test_parse_rational_accepts(text, expected):
    assert parse_rational(text) == expected


@pytest.mark.parametrize("text", ["3/0", "1.5", "", "--3", "3/", "/4",
                                  "a", "3/-4", "1e3"])
def test_parse_rational_rejects(text):
    with pytest.raises(ValueError):
        parse_rational(text)


def test_format_round_trip():
    for text in ["-3/4", "7", "0", "9999999999999999/7"]:
        assert format_rational(parse_rational(text)) == text


_round_trips = settings(max_examples=100, derandomize=True, database=None,
                        deadline=None)


@_round_trips
@given(q=st.fractions())
def test_format_parse_round_trip(q):
    assert parse_rational(format_rational(q)) == q


@_round_trips
@given(coeffs=st.lists(st.one_of(st.integers(), st.fractions()), max_size=8))
def test_coeff_strings_parse_back(coeffs):
    p = Polynomial(coeffs)
    assert Polynomial(map(parse_rational, p.to_coeff_strings())) == p


def test_format_rational_of_each_type():
    # a Fraction or an int is written as it is; a bool or a float is read
    # as the rational it stands for
    assert format_rational(Fraction(-6, 4)) == "-3/2"
    assert format_rational(7) == "7"
    assert (format_rational(True), format_rational(False)) == ("1", "0")
    assert format_rational(0.75) == "3/4"
