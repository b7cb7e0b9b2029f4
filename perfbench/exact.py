"""Exact polynomial arithmetic over the rationals, kept apart from hyplp.

Polynomials are lists of Fractions, lowest degree first.  The one decision
procedure here, `nonpositive_on`, answers "is p <= 0 on [a, b]?" exactly by
counting the real roots of odd multiplicity with a Sturm sequence: p can only
change sign at such roots.  Stdlib only, so the measured process may import
it too (it does not need to).
"""

from __future__ import annotations

import math
from fractions import Fraction


def trim(p):
    p = list(p)
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def add(p, q):
    n = max(len(p), len(q))
    return trim([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
                 for i in range(n)])


def scale(p, c):
    return trim([c * v for v in p])


def mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return trim(out)


def deriv(p):
    return trim([i * p[i] for i in range(1, len(p))]) if len(p) > 1 else [Fraction(0)]


def is_zero(p):
    return len(p) == 1 and p[0] == 0


def divmod_poly(p, q):
    """Quotient and remainder of p by q (q nonzero)."""
    p = [Fraction(v) for v in trim(p)]
    q = trim(q)
    if len(p) < len(q):
        return [Fraction(0)], p
    quot = [Fraction(0)] * (len(p) - len(q) + 1)
    lead = q[-1]
    while len(p) >= len(q) and not is_zero(p):
        shift = len(p) - len(q)
        c = p[-1] / lead
        quot[shift] = c
        for i, v in enumerate(q):
            p[shift + i] -= c * v
        p.pop()
        p = trim(p) if p else [Fraction(0)]
    return trim(quot), trim(p)


def monic(p):
    return scale(p, 1 / Fraction(p[-1]))


def gcd(p, q):
    a, b = trim(p), trim(q)
    while not is_zero(b):
        a, b = b, divmod_poly(a, b)[1]
    return monic(a)


def evaluate(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def odd_multiplicity_part(p):
    """Squarefree product of the factors of p with odd multiplicity (Yun)."""
    p = trim(p)
    if len(p) <= 1:
        return [Fraction(1)]
    a0 = gcd(p, deriv(p))
    b = divmod_poly(p, a0)[0]
    c = divmod_poly(deriv(p), a0)[0]
    d = add(c, scale(deriv(b), -1))
    out = [Fraction(1)]
    i = 1
    while len(b) > 1:
        a = gcd(b, d)
        if i % 2:
            out = mul(out, a)
        b = divmod_poly(b, a)[0]
        c = divmod_poly(d, a)[0]
        d = add(c, scale(deriv(b), -1))
        i += 1
    return out


def sturm_sequence(p):
    seq = [trim(p), deriv(p)]
    while not is_zero(seq[-1]):
        rem = divmod_poly(seq[-2], seq[-1])[1]
        if is_zero(rem):
            break
        seq.append(scale(rem, -1))
    return seq


def _sign_changes(seq, x):
    signs = [v for v in (evaluate(s, x) for s in seq) if v != 0]
    return sum(1 for u, v in zip(signs, signs[1:]) if (u > 0) != (v > 0))


def roots_in_open(p, a, b):
    """Number of distinct real roots of the squarefree p in (a, b)."""
    if len(trim(p)) <= 1:
        return 0
    seq = sturm_sequence(p)
    count = _sign_changes(seq, a) - _sign_changes(seq, b)
    return count - (1 if evaluate(p, b) == 0 else 0)


def nonpositive_on(p, a, b):
    """Exactly whether p(x) <= 0 for every x in [a, b] (a <= b rational)."""
    p = trim([Fraction(v) for v in p])
    if is_zero(p):
        return True
    if a == b:
        return evaluate(p, a) <= 0
    if roots_in_open(odd_multiplicity_part(p), a, b):
        return False
    # no sign change inside: the sign at any non-root interior point decides
    for k in range(1, len(p) + 2):
        x = a + (b - a) * Fraction(k, len(p) + 2)
        v = evaluate(p, x)
        if v != 0:
            return v < 0
    raise AssertionError("a nonzero polynomial vanished at deg + 1 points")


def sqrt_bracket(n: int, digits: int = 15):
    """Rationals lo < sqrt(n) < hi (or lo == hi == sqrt(n) when n is a square)."""
    s = math.isqrt(n)
    if s * s == n:
        return Fraction(s), Fraction(s)
    scale_ = 10 ** digits
    t = math.isqrt(n * scale_ * scale_)
    return Fraction(t, scale_), Fraction(t + 1, scale_)


# ---------------------------------------------------------------------------
# the F-recurrence of the source paper, written out again


def f_basis_monomials(r: int, u: int, s: int):
    """Monomial coefficients of F_0..F_s for (r, u):
    F_0 = 1, F_1 = x, F_2 = x^2 - (u-2)x - r(u-1),
    F_{i+1} = (x - (u-2)) F_i - (r-1)(u-1) F_{i-1}."""
    k, q, shift = r * (u - 1), (r - 1) * (u - 1), u - 2
    polys = [[Fraction(1)], [Fraction(0), Fraction(1)],
             [Fraction(-k), Fraction(-shift), Fraction(1)]]
    while len(polys) <= s:
        a, b = polys[-1], polys[-2]
        nxt = add(mul([Fraction(-shift), Fraction(1)], a), scale(b, -q))
        polys.append(nxt)
    return polys[:s + 1]


def f_at_k(r: int, u: int, s: int):
    """[F_0(k), ..., F_s(k)] by running the recurrence at x = k."""
    k, q, shift = r * (u - 1), (r - 1) * (u - 1), u - 2
    vals = [1, k, k * k - shift * k - k]
    while len(vals) <= s:
        vals.append((k - shift) * vals[-1] - q * vals[-2])
    return vals[:s + 1]


def to_monomial(r: int, u: int, coeffs):
    out = [Fraction(0)]
    for c, fp in zip(coeffs, f_basis_monomials(r, u, len(coeffs) - 1)):
        out = add(out, scale(fp, Fraction(c)))
    return out


def certificate_value(r: int, u: int, coeffs) -> Fraction:
    """f(k) / f_0 for f = sum coeffs[i] F_i."""
    fk = sum(Fraction(c) * v for c, v in zip(coeffs, f_at_k(r, u, len(coeffs) - 1)))
    return fk / Fraction(coeffs[0])
