"""Exact integer and rational primitives shared by every other module.

All scalar arithmetic in this package is exact: arbitrary-precision integers
and ``fractions.Fraction`` values, which are kept in canonical reduced form
by construction. Floating point never enters a computation path.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")


def binomial(n: int, k: int) -> int:
    """C(n, k), with the convention C(n, k) = 0 for k < 0 or k > n.

    The zero convention lets summands of the form C(r, k) * E_{r-k}(a) vanish
    without ever constructing a negative-index sequence element.
    """
    if n < 0:
        raise ValueError(f"binomial: n must be >= 0, got {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def falling_factorial(n: int, q: int) -> int:
    """The q-term falling product n(n-1)...(n-q+1); equals q! * C(n, q)."""
    if n < 0 or q < 0:
        raise ValueError(f"falling_factorial: need n, q >= 0, got ({n}, {q})")
    return math.perm(n, q)


def int_pow(base: Fraction, e: int) -> Fraction:
    """Exact base**e for integer e >= 0, with the empty-product rule 0**0 = 1."""
    if e < 0:
        raise ValueError(f"int_pow: exponent must be >= 0, got {e}")
    return Fraction(base) ** e


def parse_rational(text: str) -> Fraction:
    """Parse 'num' or 'num/den' with an optional leading '-'.

    The denominator, when present, must be a positive decimal integer;
    anything else (including '3/0' and float syntax) is rejected.
    """
    m = _RATIONAL_RE.match(text.strip())
    if m is None:
        raise ValueError(f"not a rational literal: {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) is not None else 1
    if den == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(num, den)


def format_rational(value) -> str:
    """Canonical text form: 'num' or 'num/den' with positive denominator.
    An int or a Fraction is written as it is; anything else, a bool
    included, goes through ``Fraction`` first."""
    if type(value) is Fraction or type(value) is int:
        return str(value)
    return str(Fraction(value))
