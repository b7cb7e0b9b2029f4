"""Test-side oracles for `hyplp.orthopoly`.  First, for the exact check:
polynomial division, Euclid's gcd and Yun's square-free step over Q in
`Fraction` arithmetic.  The library does all three in Z[x]; these are the
rational algorithms its results are checked against.  Then the quotient
array T(r, u, d, c) as a matrix, whose leading principal minors
`zeros_above` counts on, a reference search for the floor of its second
eigenvalue, and last the linearization coefficients of the F-family, which
only the tests read."""

import math
from fractions import Fraction

from hyplp import orthopoly
from hyplp._record import Record
from hyplp.orthopoly import (Params, _float_bracket, _poly_deriv, _poly_mul,
                             _poly_sub, _poly_trim, f_monomial,
                             monomial_to_fbasis)


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


class TridiagonalArray(Record):
    """Quotient array T(r, u, d, c): (d+1) x (d+1) tridiagonal matrix with
    superdiagonal (1, ..., 1, c), diagonal (0, s-1, ..., s-1, s(t+1)-c) and
    subdiagonal (s(t+1), st, ..., st), for s = u-1 and t = r-1.  Its
    characteristic polynomial is (x - k) * (c * (F_0 + ... + F_{d-1}) +
    F_d), and the leading principal minors of xI - T are F_0(x), ...,
    F_d(x) and that product, which `zeros_above` counts."""

    params: Params
    d: int
    c: Fraction

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("need d >= 1")
        object.__setattr__(self, "c", Fraction(self.c))
        if self.c <= 0:
            raise ValueError("need c > 0")

    @property
    def superdiagonal(self) -> tuple[Fraction, ...]:
        return tuple([Fraction(1)] * (self.d - 1) + [self.c])

    @property
    def diagonal(self) -> tuple[Fraction, ...]:
        s, t = self.params.u - 1, self.params.r - 1
        mid = [Fraction(s - 1)] * (self.d - 1)
        return tuple([Fraction(0)] + mid + [Fraction(s * (t + 1)) - self.c])

    @property
    def subdiagonal(self) -> tuple[Fraction, ...]:
        s, t = self.params.u - 1, self.params.r - 1
        return tuple([Fraction(s * (t + 1))] + [Fraction(s * t)] * (self.d - 1))

    def dense(self) -> list[list[Fraction]]:
        n = self.d + 1
        m = [[Fraction(0)] * n for _ in range(n)]
        for i, v in enumerate(self.diagonal):
            m[i][i] = v
        for i, v in enumerate(self.superdiagonal):
            m[i][i + 1] = v
        for i, v in enumerate(self.subdiagonal):
            m[i + 1][i] = v
        return m


def binade_largest_zero_gc(params: Params, d: int, c) -> float:
    """The floor `largest_zero_gc` returns, found with no seed: the range
    counts at the Gershgorin end and at k, one count at 0 for the sign of
    the zero, a search over the powers of two for the binade of its
    modulus, then a bisection on the float keys of that binade.  Every
    count goes through `orthopoly.zeros_above`, so a test can count them."""
    k, cf = float(params.k), float(c)
    lo = -max(k, 2.0 * cf - k) - 1.0
    if (orthopoly.zeros_above(params, d, c, lo) != d
            or orthopoly.zeros_above(params, d, c, k) != 0):
        raise ArithmeticError("the zeros of g_c do not all lie in the range")

    def holds(x: float) -> bool:
        return orthopoly.zeros_above(params, d, c, x) > 0

    # j runs from -1075, where 2^j is 0.0, to a power of two past the
    # bracket end; frexp(x)[1] is the least j with 2^j > x
    if holds(0.0):
        j = _exponent_search(lambda j: holds(2.0 ** j), -1075, math.frexp(k)[1])
        return _float_bracket(holds, 2.0 ** j, 2.0 ** (j + 1))[0]
    j = _exponent_search(lambda j: not holds(-2.0 ** j), -1075, math.frexp(-lo)[1])
    return _float_bracket(holds, -2.0 ** (j + 1), -2.0 ** j)[0]


def _exponent_search(pred, good: int, bad: int) -> int:
    """The largest integer j with pred(j), for pred true at good < 0, false
    at bad > 0 and changing once between them: probes 0, then steps away
    from the last probe by 1, 2, 4, ... until pred changes, then bisects."""
    j, step = 0, 1
    while bad - good > 1:
        if pred(j):
            good, j = j, j + step
        else:
            bad, j = j, j - step
        step *= 2
        if not good < j < bad:
            j = (good + bad) // 2
    return good


def linearization(params: Params, i: int, j: int) -> dict[int, Fraction]:
    """Coefficients p_l with F_i * F_j = sum_l p_l F_l; only nonzero entries.

    For r > 2 every coefficient is non-negative, the support is exactly
    |i-j| <= l <= i+j for u > 2, thinned by l = i+j (mod 2) for u = 2, and
    p_0(i, j) = k q^(i-1) [i == j].
    """
    if i < 0 or j < 0:
        raise ValueError("indices must be non-negative")
    prod = _poly_mul(f_monomial(params, i), f_monomial(params, j))
    coeffs = monomial_to_fbasis(params, prod)
    return {l: c for l, c in enumerate(coeffs) if c != 0}
