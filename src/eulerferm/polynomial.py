"""Dense univariate polynomials with exact int or Fraction coefficients.

Instances are normalized on construction: the highest-index stored
coefficient is nonzero, and the zero polynomial stores no coefficients.
``degree`` of the zero polynomial is ``None`` -- a sentinel, never a number
that participates in arithmetic.

``*`` between two Polynomials is ring multiplication (convolution); an int
or Fraction scales every coefficient. ``compose_affine`` is an integer
Taylor shift over one common denominator; its loop, ``taylor_shift``, also
serves the p-adic sums by base-p digits.
"""

from __future__ import annotations

from fractions import Fraction

from .numeric import common_denominator, falling_factorial, format_rational

__all__ = ["Polynomial", "monomial", "taylor_shift", "X"]


class Polynomial:
    """Immutable dense polynomial; ``coeffs[i]`` is the coefficient of x**i."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @property
    def degree(self):
        """Degree of the polynomial, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        # scalar comparison: p == 0, p == Fraction(3, 2), ...
        if not self.coeffs:
            return not other
        return len(self.coeffs) == 1 and self.coeffs[0] == other

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial((other,))
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Polynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other if isinstance(other, Polynomial) else Polynomial((-other,)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return Polynomial(tuple(c * other for c in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Polynomial()
        out = [None] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                prod = ca * cb
                k = i + j
                out[k] = prod if out[k] is None else out[k] + prod
        return Polynomial(out)

    def __rmul__(self, other):
        return Polynomial(tuple(other * c for c in self.coeffs))

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError(f"polynomial power must be >= 0, got {e}")
        result = Polynomial((1,))
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def derivative(self, k: int = 1) -> "Polynomial":
        """Formal k-th derivative: x**i maps to i(i-1)...(i-k+1) x**(i-k)."""
        if k < 0:
            raise ValueError(f"derivative order must be >= 0, got {k}")
        if k == 0:
            return self
        if k >= len(self.coeffs):
            return Polynomial()
        return Polynomial(tuple(
            falling_factorial(i, k) * self.coeffs[i]
            for i in range(k, len(self.coeffs))
        ))

    def compose_affine(self, u, v) -> "Polynomial":
        """p(u*x + v), expanded exactly, for rational u, v.

        An integer Taylor shift: with d the lcm of the coefficient
        denominators and v = r/t, t**n * d * p((y + r)/t) is an integer
        polynomial in y, shifted by the integer r with O(n**2) integer
        additions. Substituting y = t*u*x scales coefficient i by
        (t*u)**i, and the common denominator is divided out once.
        """
        if not self.coeffs:
            return self
        nums, d = common_denominator(self.coeffs)
        u, v = Fraction(u), Fraction(v)
        r, t = v.numerator, v.denominator
        n = len(nums) - 1
        acc = taylor_shift([c * t ** (n - i) for i, c in enumerate(nums)], r)
        w, s = u.numerator, u.denominator
        den = d * (t * s) ** n
        return Polynomial([Fraction(c * (t * w) ** i * s ** (n - i), den)
                           for i, c in enumerate(acc)])

    def __call__(self, t):
        """Evaluate at t by Horner's rule."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def to_coeff_strings(self) -> list:
        """Lowest-degree-first coefficient list as rational strings."""
        return [format_rational(c) for c in self.coeffs]

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"

    def __str__(self):
        if not self.coeffs:
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


def _term_str(c, i: int) -> str:
    body = str(abs(c))
    if i == 0:
        return body
    power = "x" if i == 1 else f"x^{i}"
    if body == "1":
        return power
    return f"{body}*{power}"


def taylor_shift(nums: list, r: int) -> list:
    """The integer coefficients of p(y + r), lowest first, from those of p:
    O(n**2) integer additions, made in place on ``nums``, which is returned."""
    n = len(nums) - 1
    if r:
        for i in range(n):
            for j in range(n - 1, i - 1, -1):
                nums[j] += r * nums[j + 1]
    return nums


def monomial(k: int, coeff=1) -> Polynomial:
    """coeff * x**k."""
    if k < 0:
        raise ValueError(f"monomial degree must be >= 0, got {k}")
    return Polynomial((0,) * k + (coeff,))


X = Polynomial((Fraction(0), Fraction(1)))
