"""Dense univariate polynomials over Q as integer numerators ``nums`` over
one denominator ``den`` > 0, the layout of FLINT's fmpq_poly. Instances are
in normal form: no trailing zero numerator, gcd(den, *nums) == 1, and the
zero polynomial is ((), 1), whose ``degree`` is ``None`` -- a sentinel,
never a number. So equality compares (nums, den), and every operation works
in integers, with one gcd at the end. ``coeffs`` reads the coefficients as
ints if den == 1, else as Fractions.

``*`` between two Polynomials is ring multiplication (convolution); an int
or Fraction scales every coefficient. ``compose_affine`` is an integer
Taylor shift, ``taylor_shift``, between two scalings by power lists; the
shift's O(n**2) additions run as n prefix sums (``itertools.accumulate``),
so its inner loop is C.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, repeat
from operator import floordiv, mul, neg

from .numeric import falling_factorial, format_rational

__all__ = ["Polynomial", "monomial", "taylor_shift"]


class Polynomial:
    """Immutable dense polynomial; coefficient i is ``nums[i] / den``."""

    __slots__ = ("nums", "den")

    def __init__(self, coeffs=()):   # int or Fraction, lowest degree first
        coeffs = tuple(coeffs)
        den = math.lcm(*(c.denominator for c in coeffs))
        _store(self, [c.numerator * (den // c.denominator) for c in coeffs],
               den)

    @classmethod
    def scaled(cls, nums, den: int = 1) -> "Polynomial":
        """Coefficients nums[i] / den, for ints nums and den > 0."""
        return _store(object.__new__(cls), nums, den)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):   # copies and serialisers rebuild through scaled
        return Polynomial.scaled, (self.nums, self.den)

    @property
    def coeffs(self) -> tuple:
        """Coefficients, lowest first: ints if den == 1, else Fractions."""
        return self.nums if self.den == 1 else tuple(
            Fraction(c, self.den) for c in self.nums)

    @property
    def degree(self):
        """Degree of the polynomial, or None for the zero polynomial."""
        return len(self.nums) - 1 if self.nums else None

    def is_zero(self) -> bool:
        return not self.nums

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.nums == other.nums and self.den == other.den
        # scalar comparison: p == 0, p == Fraction(3, 2), ...
        if not self.nums:
            return not other
        return len(self.nums) == 1 and Fraction(self.nums[0], self.den) == other

    def __hash__(self):
        return hash((self.nums, self.den))

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial((other,))
        a, b = self, other
        if len(a.nums) < len(b.nums):
            a, b = b, a
        g = math.gcd(a.den, b.den)
        fa, fb = b.den // g, a.den // g
        out = [c * fa for c in a.nums]
        for i, c in enumerate(b.nums):
            out[i] += c * fb
        return Polynomial.scaled(out, a.den * fa)

    __radd__ = __add__

    def __neg__(self):
        return _store(object.__new__(Polynomial), [-c for c in self.nums],
                      self.den, reduced=True)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):   # an int or Fraction scalar
            if other in (1, -1):
                return self if other == 1 else -self
            return Polynomial.scaled([c * other.numerator for c in self.nums],
                                     self.den * other.denominator)
        a, b = self.nums, other.nums
        if not a or not b:
            return Polynomial()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return Polynomial.scaled(out, self.den * other.den)

    __rmul__ = __mul__

    def derivative(self, k: int = 1) -> "Polynomial":
        """Formal k-th derivative: x**i maps to i(i-1)...(i-k+1) x**(i-k)."""
        if k < 0:
            raise ValueError(f"derivative order must be >= 0, got {k}")
        return Polynomial.scaled([falling_factorial(i, k) * self.nums[i]
                                  for i in range(k, len(self.nums))], self.den)

    def compose_affine(self, u, v) -> "Polynomial":
        """p(u*x + v), expanded exactly, for int or Fraction u, v.

        An integer Taylor shift: with v = r/t, t**n * den * p((y + r)/t) is
        an integer polynomial in y, shifted by the integer r with O(n**2)
        integer additions. Substituting y = t*u*x scales coefficient i by
        (t*u)**i, and the denominator grows by (t * u.denominator)**n. Both
        scalings multiply by power lists and skip a factor equal to 1.
        """
        if not self.nums:
            return self
        r, t = v.numerator, v.denominator
        w, s = u.numerator, u.denominator
        n = len(self.nums) - 1
        acc = taylor_shift(_scale(self.nums, 1, t), r)
        return Polynomial.scaled(_scale(acc, t * w, s),
                                 self.den * (t * s) ** n)

    def __call__(self, t):
        """Evaluate at a rational t = r/s by Horner's rule on the numerators,
        s**n den p(t) = sum_i nums[i] r**i s**(n-i), as one Fraction."""
        r, s = t.numerator, t.denominator
        acc, scale = 0, 1
        for c in reversed(self.nums):
            acc = acc * r + c * scale
            scale *= s   # s**(n+1) at the end
        return Fraction(acc * s, self.den * scale)

    def to_coeff_strings(self) -> list:
        """Lowest-degree-first coefficient list as rational strings."""
        return [format_rational(c) for c in self.coeffs]

    def __repr__(self):
        return f"Polynomial.scaled({list(self.nums)!r}, {self.den})"

    def __str__(self):
        if not self.nums:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            parts.append((_term_str(c, i), c < 0))
        text, neg = parts[0]
        out = ("-" if neg else "") + text
        for text, neg in parts[1:]:
            out += (" - " if neg else " + ") + text
        return out


def _store(p: Polynomial, nums, den: int, reduced=False) -> Polynomial:
    """Set p to nums / den in normal form; ``reduced`` skips the gcd."""
    nums = list(nums)
    while nums and not nums[-1]:
        nums.pop()
    g = 1 if reduced else math.gcd(den, *nums)
    object.__setattr__(p, "nums", tuple(map(floordiv, nums, repeat(g)))
                       if g > 1 else tuple(nums))
    object.__setattr__(p, "den", den // g)
    return p


def _term_str(c, i: int) -> str:
    body = str(abs(c))
    if i == 0:
        return body
    power = "x" if i == 1 else f"x^{i}"
    if body == "1":
        return power
    return f"{body}*{power}"


def _powers(r: int, n: int) -> list:
    """[1, r, r**2, ..., r**n]."""
    return list(accumulate(repeat(r, n), mul, initial=1))


def _scale(nums, a: int, b: int):
    """nums[i] * a**i * b**(n-i), with n = len(nums) - 1, as a list; a
    factor equal to 1 is skipped, and with a == b == 1 nums is returned.
    a = -1 negates the odd coefficients."""
    n = len(nums) - 1
    if a == -1:
        nums = list(nums)
        nums[1::2] = map(neg, nums[1::2])
    elif a != 1:
        nums = list(map(mul, nums, _powers(a, n)))
    if b != 1:
        nums = list(map(mul, nums, reversed(_powers(b, n))))
    return nums


def taylor_shift(nums, r: int) -> list:
    """The integer coefficients of p(y + r), lowest first, from those of p,
    as a new list.

    p(y + r) = q(y/r + 1) with q(z) = p(r*z): coefficient i is scaled by
    r**i, q(z + 1) is the unit shift, and coefficient j is divided by r**j,
    exactly. The unit shift is the classical n**2/2 additions (von zur
    Gathen & Gerhard, ISSAC 1997) in n C-level passes: on the coefficients
    read highest first, each pass takes the prefix sums (``accumulate``) and
    the last of them is final.
    """
    n = len(nums) - 1
    if not r or n < 1:
        return list(nums)
    row = _scale(nums, r, 1)[::-1]
    out = []
    for _ in range(n):
        row = list(accumulate(row))
        out.append(row.pop())
    out.append(row[0])
    if r in (1, -1):   # dividing by (-1)**j is multiplying by it
        return _scale(out, r, 1)
    return list(map(floordiv, out, _powers(r, n)))


def monomial(k: int, coeff=1) -> Polynomial:
    """coeff * x**k."""
    if k < 0:
        raise ValueError(f"monomial degree must be >= 0, got {k}")
    return Polynomial((0,) * k + (coeff,))
