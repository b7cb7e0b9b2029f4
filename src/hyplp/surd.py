"""Exact numbers a + b*sqrt(n) of the quadratic field Q(sqrt n).

A theta given as sqrtN is such a number, and so is every value the
F-recurrence and the closed form derive from it: the F_i have integer
coefficients, so F_i(sqrt n) = a_i + b_i sqrt(n).  Signs, order and floors
are decided exactly, with no tolerance: a + b sqrt(n) has the sign of a and
b when they agree, else the sign of the one with the larger square among a^2
and b^2 n, which never tie for a non-square n.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import total_ordering

__all__ = ["Surd", "sqrt"]


def sqrt(n: int):
    """sqrt(n) exactly: an int for a perfect square n >= 0, else the Surd
    m*sqrt(f) with n = m^2 f and f square-free, so that equal numbers are
    equal Surds of one field: sqrt(8) is 2*sqrt(2)."""
    root = math.isqrt(n)
    if root * root == n:
        return root
    m, f, rest, p = 1, 1, n, 2
    while p * p * p <= rest:
        while rest % p == 0:
            rest //= p
            if rest % p:
                f *= p
            else:
                rest //= p
                m *= p
        p += 1
    # rest has no prime factor below p and rest < p^3, so it is 1, a prime,
    # or a product of two primes: a square only as the square of a prime
    root = math.isqrt(rest)
    if root * root == rest:
        m *= root
    else:
        f *= rest
    return Surd(Fraction(0), Fraction(m), f)


def _make(a: Fraction, b: Fraction, n: int):
    return a if b == 0 else Surd(a, b, n)


def _sign(x) -> int:
    return x.sign() if isinstance(x, Surd) else (x > 0) - (x < 0)


def _sign_parts(a, b, n: int) -> int:
    """The sign, -1, 0 or 1, of a + b sqrt(n) for rationals a and b and a
    non-square n > 1: the sign of a and b when they agree, else of the one
    with the larger square among a^2 and b^2 n."""
    if not b:
        return (a > 0) - (a < 0)
    sb = 1 if b > 0 else -1
    if a * sb >= 0 or b * b * n > a * a:
        return sb
    return -sb


@total_ordering
class Surd:
    """a + b*sqrt(n) with Fractions a and b != 0 and a non-square n > 1.
    Arithmetic and order take ints, Fractions and Surds of the same n; a
    result with b = 0 comes back as its Fraction a.  A float raises
    TypeError."""

    __slots__ = ("a", "b", "n")

    def __init__(self, a: Fraction, b: Fraction, n: int):
        self.a, self.b, self.n = a, b, n

    def _parts(self, other):
        if isinstance(other, Surd):
            if other.n != self.n:
                raise ValueError(f"sqrt{self.n} and sqrt{other.n} in one expression")
            return other.a, other.b
        if isinstance(other, (int, Fraction)):
            return other, 0
        return None

    def __add__(self, other):
        p = self._parts(other)
        if p is None:
            return NotImplemented
        return _make(self.a + p[0], self.b + p[1], self.n)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _make(self.a * other, self.b * other, self.n)
        p = self._parts(other)
        if p is None:
            return NotImplemented
        c, d = p
        return _make(self.a * c + self.b * d * self.n, self.a * d + self.b * c, self.n)

    __rmul__ = __mul__

    def _inverse(self) -> Surd:
        norm = self.a * self.a - self.b * self.b * self.n
        return Surd(self.a / norm, -self.b / norm, self.n)

    def __truediv__(self, other):
        return self * (other._inverse() if isinstance(other, Surd) else Fraction(1) / other)

    def __rtruediv__(self, other):
        return self._inverse() * other

    def __neg__(self) -> Surd:
        return Surd(-self.a, -self.b, self.n)

    def sign(self) -> int:
        """1 or -1, exactly."""
        return _sign_parts(self.a, self.b, self.n)

    def __abs__(self) -> Surd:
        return -self if self.sign() < 0 else self

    def __lt__(self, other):
        # against 0, the common case in a Sturm count, skip the subtraction
        return _sign(self - other if other else self) < 0

    def __eq__(self, other):
        # b != 0 makes a Surd irrational, unequal to every int and Fraction
        return isinstance(other, Surd) and (self.a, self.b, self.n) == (other.a, other.b, other.n)

    def __hash__(self):
        return hash((self.a, self.b, self.n))

    def __floor__(self) -> int:
        # over a common denominator D > 0, x = (A + B sqrt(n)) / D, and
        # y = B sqrt(n) is irrational, so floor(x) = (A + floor(y)) // D
        den = math.lcm(self.a.denominator, self.b.denominator)
        big_a = self.a.numerator * (den // self.a.denominator)
        big_b = self.b.numerator * (den // self.b.denominator)
        root = math.isqrt(big_b * big_b * self.n)
        return (big_a + (root if big_b > 0 else -root - 1)) // den

    def __float__(self) -> float:
        # x is irrational, so it lies strictly inside (m, m + 1) / 2^s for
        # m = floor(x 2^s); once |m| >= 2^54, no double and no midpoint of
        # two doubles lies inside, and the integer division rounds
        # (2m + 1) / 2^(s+1) to the double nearest x, as math.sqrt rounds
        s = 64
        while abs(m := math.floor(self * (1 << s))) < 1 << 54:
            s += 64
        return (2 * m + 1) / (1 << (s + 1))

    def __str__(self) -> str:
        b = abs(self.b)
        term = f"sqrt{self.n}" if b == 1 else f"{b}*sqrt{self.n}"
        if not self.a:
            return term if self.b > 0 else f"-{term}"
        return f"{self.a} {'+' if self.b > 0 else '-'} {term}"

    def __repr__(self) -> str:
        return f"Surd('{self}')"
