"""Test-side oracles for the exact check of `hyplp.orthopoly`: polynomial
division, Euclid's gcd and Yun's square-free step over Q in `Fraction`
arithmetic.  The library does all three in Z[x]; these are the rational
algorithms its results are checked against."""

from fractions import Fraction

from hyplp.orthopoly import _poly_deriv, _poly_mul, _poly_sub, _poly_trim


def poly_divmod(a, b) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of a by the nonzero polynomial b."""
    rem = [Fraction(c) for c in _poly_trim(a)]
    b = _poly_trim(b)
    quot = [Fraction(0)] * max(len(rem) - len(b) + 1, 1)
    for i in range(len(rem) - len(b), -1, -1):
        c = rem[i + len(b) - 1] / b[-1]
        quot[i] = c
        for j, cb in enumerate(b):
            rem[i + j] -= c * cb
    return quot, _poly_trim(rem[:len(b) - 1] or [Fraction(0)])


def poly_gcd(a, b) -> list[Fraction]:
    """Monic greatest common divisor of a nonzero a and any b (Euclid)."""
    a, b = _poly_trim(a), _poly_trim(b)
    while b != [0]:
        a, b = b, poly_divmod(a, b)[1]
    return [Fraction(c) / a[-1] for c in a]


def rational_odd_multiplicity_part(p) -> list[Fraction]:
    """The product of the distinct factors of p that divide it an odd number
    of times, monic: Yun's square-free decomposition p = a_1 a_2^2 a_3^3 ...
    over Q, keeping a_1 a_3 a_5 ..."""
    dp = _poly_deriv(p)
    a0 = poly_gcd(p, dp)
    b = poly_divmod(p, a0)[0]
    d = _poly_sub(poly_divmod(dp, a0)[0], _poly_deriv(b))
    out, odd = [Fraction(1)], True
    while len(b) > 1:
        a = poly_gcd(b, d)
        if odd:
            out = _poly_mul(out, a)
        b = poly_divmod(b, a)[0]
        d = _poly_sub(poly_divmod(d, a)[0], _poly_deriv(b))
        odd = not odd
    return out
