"""Walk-polynomial engine for r-regular u-uniform hypergraphs.

The family F_0 = 1, F_1 = x, F_2 = x^2 - (u-2)x - r(u-1),
F_{i+1} = (x - u + 2) F_i - q F_{i-1}  (i >= 2, q = (r-1)(u-1))
counts non-backtracking walks when evaluated at an adjacency matrix.  The
partial sums G_i = F_0 + ... + F_i drive the order bounds.  Everything here
is exact over the rationals unless a float is passed in, in which case the
same recurrences run in float arithmetic; the zero count `zeros_above` is
exact at a float too.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest

from ._record import Record
from .surd import Surd, _sign_parts

Exact = int | Fraction
Number = int | Fraction | float

__all__ = [
    "Params",
    "FPoly",
    "f_values",
    "g_eval",
    "f_monomial",
    "monomial_to_fbasis",
    "fbasis_to_monomial",
    "zeros_above",
    "largest_zero_G",
    "largest_zero_gc",
    "positive_witness",
]


class Params(Record):
    """Degree pair (r, u): every vertex in r edges, every edge with u vertices."""

    r: int
    u: int

    def __post_init__(self) -> None:
        if not (isinstance(self.r, int) and isinstance(self.u, int)):
            raise TypeError("r and u must be integers")
        if self.r < 2 or self.u < 2:
            raise ValueError(f"need r >= 2 and u >= 2, got ({self.r}, {self.u})")

    @property
    def k(self) -> int:
        """Point-graph valency r(u-1)."""
        return self.r * (self.u - 1)

    @property
    def q(self) -> int:
        """Branching number (r-1)(u-1) of the non-backtracking recursion."""
        return (self.r - 1) * (self.u - 1)

    @property
    def top(self) -> float:
        """u-2+2*sqrt(q), the top of the spectrum of the universal cover,
        in floats."""
        return self.u - 2 + 2 * math.sqrt(self.q)


def f_values(params: Params, imax: int, x: Number) -> list:
    """[F_0(x), ..., F_imax(x)].  Exact when x is int/Fraction/Surd, float
    when x is a float."""
    if imax < 0:
        raise ValueError("index must be non-negative")
    vals: list = [1]
    if imax >= 1:
        vals.append(x)
    if imax >= 2:
        vals.append(x * x - (params.u - 2) * x - params.k)
    shift = params.u - 2
    q = params.q
    for _ in range(3, imax + 1):
        vals.append((x - shift) * vals[-1] - q * vals[-2])
    return vals


def _f_iter(params: Params, x: Number):
    """F_0(x), F_1(x), F_2(x), ... without end, by the operations of
    `f_values`, each computed when it is asked for: for a scan that stops
    at an index it does not know in advance.  `f_values` keeps its own
    loop: built on this generator, it made `lp_bound_optimize` about 15%
    slower (five catalog cells, Python 3.11)."""
    yield 1
    yield x
    shift, q = params.u - 2, params.q
    prev, cur = x, x * x - shift * x - params.k
    while True:
        yield cur
        prev, cur = cur, (x - shift) * cur - q * prev


def g_eval(params: Params, i: int, x: Number) -> Number:
    """Partial sum G_i(x) = F_0(x) + ... + F_i(x)."""
    return sum(f_values(params, i, x))


@lru_cache(maxsize=None)
def _f_monomial_cached(r: int, u: int, i: int) -> tuple[int, ...]:
    if i == 0:
        return (1,)
    if i == 1:
        return (0, 1)
    if i == 2:
        return (-r * (u - 1), -(u - 2), 1)
    prev2 = _f_monomial_cached(r, u, i - 2)
    prev1 = _f_monomial_cached(r, u, i - 1)
    q = (r - 1) * (u - 1)
    shift = u - 2
    out = [0] * (i + 1)
    for j, cj in enumerate(prev1):
        out[j + 1] += cj
        out[j] -= shift * cj
    for j, cj in enumerate(prev2):
        out[j] -= q * cj
    return tuple(out)


def f_monomial(params: Params, i: int) -> tuple[int, ...]:
    """Monomial coefficients of F_i, lowest degree first.  Always integers,
    leading coefficient 1."""
    if i < 0:
        raise ValueError("index must be non-negative")
    return _f_monomial_cached(params.r, params.u, i)


def monomial_to_fbasis(params: Params, coeffs: Sequence[Exact]) -> list:
    """Rewrite a polynomial (monomial coefficients, lowest first) as
    sum f_i F_i; returns [f_0, ..., f_deg].  The basis is monic and
    triangular, so this is exact back-substitution, and integer
    coefficients give integers."""
    work = _poly_trim(coeffs)
    out = [0] * len(work)
    for l in range(len(work) - 1, -1, -1):
        cl = work[l]
        out[l] = cl
        if cl:
            for j, fj in enumerate(f_monomial(params, l)):
                work[j] -= cl * fj
    return out


def fbasis_to_monomial(params: Params, fcoeffs: Sequence[Exact]) -> list[Fraction]:
    """Inverse of monomial_to_fbasis.  The sum runs in integers over the
    common denominator of the f_i, and each monomial coefficient becomes
    one Fraction at the end."""
    ratios = [f.as_integer_ratio() for f in fcoeffs]
    den = math.lcm(*(d for _, d in ratios))
    out = [0] * max(len(ratios), 1)
    for i, (num, d) in enumerate(ratios):
        if num:
            num *= den // d
            for j, cj in enumerate(f_monomial(params, i)):
                out[j] += num * cj
    return [Fraction(c, den) for c in out]


class FPoly(Record):
    """Polynomial sum_i coeffs[i] * F_i with exact rational coefficients."""

    params: Params
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in self.coeffs))
        if not self.coeffs:
            raise ValueError("FPoly needs at least one coefficient")

    @property
    def degree(self) -> int:
        for l in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[l]:
                return l
        return 0

    def to_monomial(self) -> list[Fraction]:
        return fbasis_to_monomial(self.params, self.coeffs)

    def at_k(self) -> Fraction:
        """f(k) = f_0 + sum_{i>=1} f_i k q^(i-1), exactly."""
        f0, *rest = self.coeffs
        return f0 + self.params.k * _poly_eval(rest, self.params.q)


# Polynomials below are coefficient lists, lowest degree first; the zero
# polynomial is [0].

def _poly_trim(p: Sequence[Exact]) -> list:
    p = list(p)
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def _poly_eval(p: Sequence[Exact], x: Exact | Surd) -> Exact | Surd:
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _poly_deriv(p: Sequence[Exact]) -> list:
    return _poly_trim([i * c for i, c in enumerate(p)][1:] or [0])


def _newton(p: Sequence[float], dp: Sequence[float], x: float, y: float,
            positive: bool) -> float:
    """The root of p between the floats x < y, where p is monotone and
    p(x), p(y) are nonzero with opposite signs, p(x) > 0 when `positive`
    (the caller has evaluated p(x) already).  Newton steps on p with p'
    from the midpoint, each kept inside the sign bracket, which shrinks to
    every point evaluated; a step that leaves the bracket or fails to halve
    the previous step is replaced by bisection (Numerical Recipes' rtsafe).
    Stops when p(t) is exactly 0, when the bracket ends are adjacent floats
    or when a step no longer moves t.  Before a bisection step it also stops
    when |p(t)| is within Horner's rounding bound 2 deg 2^-52 sum |p_i||t|^i
    (Higham, Accuracy and Stability of Numerical Algorithms, 5.1): there the
    computed sign of p is noise, and bisecting on it would only walk the
    bracket down to adjacent floats.  No step count."""
    t, step = 0.5 * (x + y), math.inf
    while True:
        v = _poly_eval(p, t)
        if v == 0:
            return t
        if (v > 0) == positive:
            x = t
        else:
            y = t
        mid = 0.5 * (x + y)
        if mid == x or mid == y:
            return t
        d = _poly_eval(dp, t)
        nxt = t - v / d if d else mid
        # a nan or infinite step fails the bracket test too
        if not x < nxt < y or abs(nxt - t) > 0.5 * step:
            noise = _poly_eval([abs(c) for c in p], abs(t))
            if abs(v) <= 2 * (len(p) - 1) * 2.0 ** -52 * noise:
                return t
            nxt = mid
        if nxt == t:
            return t
        step, t = abs(nxt - t), nxt


def _poly_roots(p: Sequence[float], a: float, b: float) -> list[float]:
    """Real roots of the float polynomial p in [a, b], ascending.

    Derivative cascade: the roots of p' cut [a, b] into pieces on which p
    is monotone, so each piece holds at most one root, found on a sign
    change by `_newton` with the p' the cascade already holds.  No grid,
    step count or tolerance.  A root where p does not change sign is
    reported only when p evaluates to exactly 0 there (a cut or an
    endpoint); the zero polynomial has none."""
    p = _poly_trim(p)
    if len(p) == 1:
        return []
    dp = _poly_deriv(p)
    cuts = [a, *_poly_roots(dp, a, b), b]
    # neighbouring pieces share an end: evaluate each cut once
    values = [_poly_eval(p, x) for x in cuts]
    roots: list[float] = []
    for x, y, vx, vy in zip(cuts, cuts[1:], values, values[1:]):
        if vx == 0:
            if not roots or roots[-1] != x:
                roots.append(x)
            continue
        if vy == 0 or (vx > 0) == (vy > 0):
            continue
        roots.append(_newton(p, dp, x, y, vx > 0))
    if values[-1] == 0 and (not roots or roots[-1] != b):
        roots.append(b)
    return roots


def _poly_sub(a: Sequence[Exact], b: Sequence[Exact]) -> list:
    return _poly_trim([x - y for x, y in zip_longest(a, b, fillvalue=0)])


def _poly_mul(a: Sequence[Exact], b: Sequence[Exact]) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


def _exquo(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The quotient a / b in Z[x], by long division from the top, for b with
    a nonzero leading coefficient; ArithmeticError when b does not divide a
    in Z[x].  A primitive b that divides a over Q divides it in Z[x] too
    (Gauss's lemma)."""
    rem = list(a)
    lead, m = b[-1], len(b) - 1
    quot = [0] * max(len(rem) - m, 1)
    for i in range(len(rem) - m - 1, -1, -1):
        # the x^(i+m) term keeps its remainder by lead, 0 when exact
        quot[i], rem[i + m] = divmod(rem[i + m], lead)
        for j, cb in enumerate(b[:m], i):
            rem[j] -= quot[i] * cb
    if any(rem):
        raise ArithmeticError("inexact division in Z[x]")
    return quot


def _odd_multiplicity_part(p: Sequence[int], a0: Sequence[int]) -> list[int]:
    """Product of the distinct factors of the integer polynomial p that
    divide it an odd number of times: the roots where p changes sign.  Yun's
    square-free decomposition p = a_1 a_2^2 a_3^3 ..., keeping a_1 a_3 a_5
    ..., from the primitive a0 = +-gcd(p, p') that ends p's Sturm chain.
    Each later gcd ends a `_prs` too, so every divisor is primitive and
    every division exact in Z[x]; the result is primitive."""
    b = _exquo(p, a0)
    d = _poly_sub(_exquo(_poly_deriv(p), a0), _poly_deriv(b))
    out, odd = [1], True
    while len(b) > 1:
        a = _prs(b, d)[-1]
        if odd:
            out = _poly_mul(out, a)
        b = _exquo(b, a)
        d = _poly_sub(_exquo(d, a), _poly_deriv(b))
        odd = not odd
    return out


def _prem(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """|lc(b)|^(deg a - deg b + 1) a mod b, for integer polynomials with
    deg a >= deg b - 1 and b nonzero: the remainder of a by b times a
    positive integer, computed in integers (pseudo-division, Knuth TAOCP
    vol. 2, 4.6.1, with |lc(b)| for lc(b), which keeps its sign)."""
    if b[-1] < 0:
        b = [-c for c in b]
    lead, m = b[-1], len(b) - 1
    rem = list(a)
    while len(rem) > m:
        c, i = rem.pop(), len(rem) - m
        # lead rem - c x^i b, whose x^(i+m) term cancels
        rem = [lead * v for v in rem]
        if c:
            for j, cb in enumerate(b[:m], i):
                rem[j] -= c * cb
    return _poly_trim(rem or [0])


def _prs(a: Sequence[Exact], b: Sequence[Exact]) -> list[list[int]]:
    """a, b, then the negated pseudo-remainders `_prem` of the last two,
    each made `_primitive`, up to the last nonzero one, which is gcd(a, b)
    times a nonzero constant; for a nonzero a and deg b <= deg a.  This is
    the primitive pseudo-remainder sequence (Collins, J. ACM 14, 1967;
    Brown-Traub, J. ACM 18, 1971): each member is the member of the
    remainder sequence over Q times a positive constant, so every sign is
    the same, and no step leaves the integers."""
    chain = [_primitive(a)]
    b = _primitive(b)
    while b != [0]:
        chain.append(b)
        if len(b) == 1:
            break
        b = _primitive([-c for c in _prem(chain[-2], b)])
    return chain


def _primitive(p: Sequence[Exact]) -> list[int]:
    """The primitive integer multiple of the rational polynomial p: p times
    a positive rational, with integer coefficients whose gcd is 1, so it has
    the sign of p at every point.  The zero polynomial gives [0]."""
    ratios = [c.as_integer_ratio() for c in p]
    den = math.lcm(*(d for _, d in ratios))
    ints = [n * (den // d) for n, d in ratios]
    g = math.gcd(*ints)
    return [c // g for c in ints] if g > 1 else ints


def _sign_at(p: Sequence[Exact], x: Exact | Surd) -> int:
    """The sign, -1, 0 or 1, of p(x) at a rational or Surd x, by homogeneous
    Horner (Basu-Pollack-Roy, Algorithms in Real Algebraic Geometry, ch. 2):
    at x = n/d with d > 0, the sign of sum p_i n^i d^(deg - i), which is
    d^deg p(x); at x = (A + B sqrt N)/D with D > 0, the same sum over
    (A + B sqrt N) and D, kept as c0 + c1 sqrt N with sqrt N^2 = N, whose
    sign `Surd`'s rule decides.  For an integer p, as `_primitive` gives,
    no step leaves the integers."""
    if isinstance(x, Surd):
        den = math.lcm(x.a.denominator, x.b.denominator)
        a = x.a.numerator * (den // x.a.denominator)
        b = x.b.numerator * (den // x.b.denominator)
        bn = b * x.n
        c0 = c1 = 0
        scale = 1
        for c in reversed(p):
            c0, c1 = c0 * a + c1 * bn + c * scale, c0 * b + c1 * a
            scale *= den
        return _sign_parts(c0, c1, x.n)
    n, d = x.numerator, x.denominator
    acc, scale = 0, 1
    for c in reversed(p):
        acc = acc * n + c * scale
        scale *= d
    return (acc > 0) - (acc < 0)


def _sign_changes(chain: Sequence[Sequence[Exact]], x: Exact | Surd,
                  head: int | None = None) -> int:
    """Sign changes of the Sturm `chain` at x, each sign decided by
    `_sign_at`, in integers on the chain `_prs` builds in Z[x].
    `head`: the sign of chain[0] at x, when the caller has it."""
    if head is None:
        head = _sign_at(chain[0], x)
    signs = [head] + [_sign_at(p, x) for p in chain[1:]]
    signs = [v for v in signs if v]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def positive_witness(p: Sequence[int], a: Exact, b: Exact | Surd,
                     b_sign: int) -> Fraction | Surd | None:
    """Decide exactly whether p (integer monomial coefficients, lowest
    first, as `_primitive` gives) is <= 0 on [a, b], for a rational a and a
    rational or Surd b >= a: None when it is, else a witness point x in
    [a, b] with p(x) > 0.  x is rational unless it is the Surd b itself.
    `b_sign`: the sign, -1, 0 or 1, of p(b), as `_sign_at` gives it.

    p changes sign exactly at the roots of its odd-multiplicity part g, and
    a Sturm chain of g counts those in (lo, hi] as V(lo) - V(hi)
    (Basu-Pollack-Roy, Algorithms in Real Algebraic Geometry, ch. 2).  The
    chain of p itself serves when p is square-free, which its remainder
    sequence detects; for a p with a repeated root, that sequence ends at
    gcd(p, p') times a constant, from which Yun's step computes g.  Both
    run in Z[x] on primitive pseudo-remainder sequences (`_prs`), and every
    sign below is decided in integers by `_sign_at`: no Fraction
    coefficient is formed, and a Fraction value only as a split point.
    With no root of g in (a, b), p keeps one sign on (a, b): p(a) < 0 or
    p(b) < 0 decides it at once, with no further evaluation, and else (p
    vanishes at both ends) one point off the roots of p does.  Else p > 0
    somewhere; split at points where p < 0, following a root of g.  Two
    such points enclose an even number of sign changes, so a part left
    with one root has an endpoint a or b where p = 0, and p > 0 next to it.
    A Surd b is first replaced by a rational h below it with no root of g
    in (h, b), so every split point is rational."""
    p = _poly_trim(p)
    lo, hi = Fraction(a), b if isinstance(b, Surd) else Fraction(b)
    if lo > hi:
        raise ValueError("need a <= b")
    ends = [_sign_at(p, lo), b_sign]
    for x, v in zip((lo, hi), ends):
        if v > 0:
            return x
    if lo == hi or len(p) == 1:
        return None
    negative_end = ends[0] < 0 or ends[1] < 0
    # a square-free p is its own odd-multiplicity part times a constant,
    # which multiplies every chain member and changes no sign count
    chain = _prs(p, _poly_deriv(p))
    if len(chain[-1]) > 1:
        g = _odd_multiplicity_part(p, chain[-1])
        chain = _prs(g, _poly_deriv(g))
        ends = [_sign_at(chain[0], x) for x in (lo, hi)]
    g_lo, g_hi = ends
    # g has V(lo) - top roots in (lo, hi)
    top = _sign_changes(chain, hi, g_hi) + (g_hi == 0)
    v_lo = _sign_changes(chain, lo, g_lo)
    roots = v_lo - top
    if roots == 0 and negative_end:
        return None
    if isinstance(hi, Surd):
        # once g has no root in (h, hi), as for every h > lo when roots is
        # 0, and p(h) != 0, p keeps the sign of p(h) on [h, hi); hi is
        # irrational, so the dyadic h below it get there as they close in
        s = 64
        while True:
            h = Fraction(math.floor(hi * (1 << s)), 1 << s)
            v = _sign_at(p, h)
            if (lo < h and v != 0
                    and (roots == 0 or _sign_changes(chain, h) == top)):
                break
            s *= 2
        if v > 0:
            return h
        hi = h
    while True:
        # p has at most deg p roots, so one of these deg p + 1 points is not one
        for j in range(2, len(p) + 2):
            x = lo + (hi - lo) / j
            v = _sign_at(p, x)
            if v != 0:
                break
        if v > 0:
            return x
        if roots == 0:
            return None
        v_x = _sign_changes(chain, x)
        if v_lo - v_x:
            hi, roots = x, v_lo - v_x
        else:
            lo, v_lo = x, v_x


def _gc_monomial(params: Params, d: int, num: Exact, den: Exact) -> list:
    """Monomial coefficients of den*g_c at c = num/den, that is of
    num*(F_0 + ... + F_{d-1}) + den*F_d: integers for integer num and den."""
    out = [0] * (d + 1)
    for i in range(d):
        for j, cj in enumerate(f_monomial(params, i)):
            out[j] += num * cj
    for j, cj in enumerate(f_monomial(params, d)):
        out[j] += den * cj
    return out


def _scaled_f(params: Params, d: int, n: int, m: int) -> tuple[int, int, int, bool]:
    """(m^d F_d(x), m^d G_(d-1)(x), the sign changes of F_0(x), ..., F_d(x)
    with zero terms skipped, whether the last nonzero one is positive) at
    x = n/m, for d >= 1 and m > 0: the F-recurrence with a running sum on
    integers, with no gcd at any step.  A power of two m, as every float
    has, multiplies as a shift, which keeps a subnormal x cheap."""
    e = m.bit_length() - 1
    times_m = (lambda v: v << e) if m == 1 << e else (lambda v: v * m)
    shift, b, q = params.u - 2, params.k, params.q
    prev, cur, total = 1, n, 1
    changes, positive = n < 0, n >= 0
    for _ in range(1, d):
        total = times_m(total) + cur
        # m^(i+1) F_(i+1) = (n - shift m) m^i F_i - b m^2 m^(i-1) F_(i-1)
        prev, cur = cur, n * cur - times_m(shift * cur + b * times_m(prev))
        b = q
        if cur and (cur > 0) != positive:
            changes, positive = changes + 1, not positive
    return cur, times_m(total), changes, positive


def zeros_above(params: Params, d: int, c: Number, x: Number) -> int:
    """Number of zeros of g_c = c*(F_0+...+F_{d-1}) + F_d at or above x,
    exactly, for c > 0 and x each an int, Fraction or float.

    The quotient array T(r, u, d, c) is the (d+1) x (d+1) tridiagonal
    matrix with superdiagonal (1, ..., 1, c), diagonal (0, u-2, ..., u-2,
    k-c) and subdiagonal (k, q, ..., q).  Its eigenvalues are k and the
    zeros of g_c, all real and simple, and the leading principal minors of
    xI - T are F_0(x), ..., F_d(x) and (x - k) g_c(x).  Their sign changes
    count the eigenvalues above x (Givens 1954; Barth-Martin-Wilkinson,
    Numer. Math. 9, 1967), skipping a zero term: T is unreduced, so two
    adjacent minors never both vanish.  Less [x < k], plus [g_c(x) = 0],
    that is the count."""
    if d < 1:
        raise ValueError("need d >= 1")
    n, m = x.as_integer_ratio()
    p, q = c.as_integer_ratio()
    f, total, changes, positive = _scaled_f(params, d, n, m)
    # q m^d g_c(x) and m (x - k), of the signs of g_c(x) and x - k
    g = p * total + q * f
    x_k = n - params.k * m
    if x_k and g and ((x_k > 0) == (g > 0)) != positive:
        changes += 1
    return changes - (x_k < 0) + (g == 0)


_DOUBLE, _INT64 = struct.Struct("<d"), struct.Struct("<q")


def _float_key(x: float) -> int:
    """An integer that orders floats as their values do, with -0.0 just
    below 0.0; adjacent floats get adjacent keys."""
    bits = _INT64.unpack(_DOUBLE.pack(x))[0]
    return bits if bits >= 0 else -1 - (bits & 0x7FFF_FFFF_FFFF_FFFF)


def _key_float(key: int) -> float:
    """The float whose `_float_key` is key."""
    bits = key if key >= 0 else (-1 - key) | -0x8000_0000_0000_0000
    return _DOUBLE.unpack(_INT64.pack(bits))[0]


def _float_bracket(holds, lo: float, hi: float) -> tuple[float, float]:
    """Adjacent floats (a, b) with holds(a) true and holds(b) false, for a
    predicate true at lo, false at hi and changing once between them: a
    bisection on `_float_key`, so at most 64 calls of holds."""
    below, above = _float_key(lo), _float_key(hi)
    while above - below > 1:
        mid = (below + above) // 2
        if holds(_key_float(mid)):
            below = mid
        else:
            above = mid
    return _key_float(below), _key_float(above)


_BIG, _SMALL = 2.0 ** 512, 2.0 ** -512


def _newton_seed(params: Params, d: int, c: Number) -> float:
    """A float estimate of the largest zero of g_c: Newton's iteration from
    k, on g_c / c and its derivative in floats.  The zeros of g_c are real,
    simple and below k, and g_c is monic, so from k the exact iterates fall
    monotonically to the largest zero; the float ones are taken until they
    stop falling.  The F-recurrence and its derivative run scaled: once a
    term passes 2^512, every running value is multiplied by 2^-512, which
    leaves the ratio g_c / g_c' unchanged and keeps a large d finite."""
    shift, k, q = params.u - 2, float(params.k), params.q
    inv_c = 1.0 / float(c)
    x = k
    while True:
        # F_(i-1), F_i, their derivatives and F_0 + ... + F_(i-1) with its
        # derivative, at i = 1
        f0, f1, df0, df1, tot, dtot = 1.0, x, 0.0, 1.0, 1.0, 0.0
        b, y = k, x - shift  # b is k for F_2, then q
        for _ in range(1, d):
            tot += f1
            dtot += df1
            f0, f1, df0, df1 = f1, y * f1 - b * f0, df1, f1 + y * df1 - b * df0
            b = q
            if abs(f1) > _BIG or abs(df1) > _BIG:
                f0, f1, df0, df1, tot, dtot = (t * _SMALL for t in
                                               (f0, f1, df0, df1, tot, dtot))
        g, dg = tot + f1 * inv_c, dtot + df1 * inv_c
        if not (g > 0.0 and dg > 0.0):
            return x
        step = x - g / dg
        if not step < x:
            return x
        x = step


def largest_zero_G(params: Params, j: int) -> float:
    """Floor of the largest zero lambda_j of G_j = g_1 at d = j; lambda_1 = -1."""
    return largest_zero_gc(params, j, 1)


def largest_zero_gc(params: Params, d: int, c: Number) -> float:
    """Floor of the largest zero of g_c = c*(F_0+...+F_{d-1}) + F_d, the
    second largest eigenvalue of T(r, u, d, c): the largest float with a
    zero at or above it by `zeros_above`, between k and a point below every
    Gershgorin column disc of T.  A zero at 0 gives 0.0.

    One count at 0 settles the sign of the zero and brackets it by 0.0 and
    one end of the range.  The search then starts at `_newton_seed`,
    snapped to 0.0 when it is within 2^-32 k of it, and walks the float
    keys outwards from there by `_last_true`: a seed on the floor or just
    above it takes two counts, the seed and its neighbour.  The exact
    counts decide every step, and the floor is one float, so the seed and
    the search order cannot change it."""
    if d < 1:
        raise ValueError("need d >= 1")
    if c < 1:
        raise ValueError("need c >= 1")
    k, cf = float(params.k), float(c)
    # the columns of T sum to k with non-negative off-diagonals, so every
    # eigenvalue has modulus at most max(k, 2c - k)
    lo = -max(k, 2.0 * cf - k) - 1.0
    if zeros_above(params, d, c, lo) != d or zeros_above(params, d, c, k) != 0:
        raise ArithmeticError(f"the zeros of g_c for T({params.r},{params.u},"
                              f"{d},{c}) do not all lie in [{lo}, {k}]")

    def holds(key: int) -> bool:
        return zeros_above(params, d, c, _key_float(key)) > 0

    # a count at -0.0 is a count at 0
    if holds(_float_key(0.0)):
        good, bad = _float_key(0.0), _float_key(k)
    else:
        good, bad = _float_key(lo), _float_key(-0.0)
    seed = _newton_seed(params, d, c)
    # a seed this close to 0 is rounding noise around a zero at 0; the walk
    # from it down to 0.0 would cross about 2^62 keys
    if abs(seed) <= 2.0 ** -32 * k:
        seed = 0.0
    return _key_float(_last_true(holds, good, bad, _float_key(seed)))


def _last_true(pred, good: int, bad: int, start: int) -> int:
    """The largest integer j with pred(j), for pred true at good, false at
    bad and changing once between them.  Probes `start`, moved inside the
    bracket, then steps away from the last probe by 1, 2, 4, ... until pred
    changes; from then on the doubled step overshoots the bracket, and the
    loop bisects it."""
    j, step = min(max(start, good + 1), bad - 1), 1
    while bad - good > 1:
        if pred(j):
            good, j = j, j + step
        else:
            bad, j = j, j - step
        step *= 2
        if not good < j < bad:
            j = (good + bad) // 2
    return good
