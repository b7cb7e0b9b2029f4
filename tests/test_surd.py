"""Exact arithmetic in Q(sqrt N): sign, order, floor and float against a
60-digit decimal evaluation, the field operations, and the printed forms."""

import math
import random
from decimal import ROUND_FLOOR, Decimal, localcontext
from fractions import Fraction

import pytest

from hyplp.surd import Surd, sqrt


def decimal_value(x, digits=60):
    """An int, Fraction or Surd as a Decimal of `digits` significant digits."""
    with localcontext() as ctx:
        ctx.prec = digits
        if not isinstance(x, Surd):
            x = Surd(Fraction(x), Fraction(0), 2)
        a = Decimal(x.a.numerator) / Decimal(x.a.denominator)
        b = Decimal(x.b.numerator) / Decimal(x.b.denominator)
        return a + b * Decimal(x.n).sqrt()


def random_surds(rng, count):
    """a + b sqrt(N) over random N, b, and a either random or a close
    rational approximation of -b sqrt(N), so that the terms cancel."""
    out = []
    while len(out) < count:
        n = rng.randrange(2, 10 ** rng.choice((2, 4, 8)))
        if math.isqrt(n) ** 2 == n:
            continue
        b = Fraction(rng.randrange(-10 ** 6, 10 ** 6) or 1, rng.randrange(1, 10 ** 4))
        if rng.random() < 0.5:
            a = Fraction(rng.randrange(-10 ** 9, 10 ** 9), rng.randrange(1, 10 ** 6))
        else:
            near = -decimal_value(Surd(Fraction(0), b, n), 40)
            a = Fraction(near).limit_denominator(10 ** rng.randrange(1, 12))
        out.append(Surd(a, b, n))
    return out


def test_sign_floor_and_float_match_60_digit_decimals():
    rng = random.Random(20261018)
    for x in random_surds(rng, 3000):
        ref = decimal_value(x)
        assert (x > 0) == (ref > 0) and (x < 0) == (ref < 0), x
        assert x.sign() == (1 if ref > 0 else -1), x
        assert math.floor(x) == int(ref.to_integral_value(rounding=ROUND_FLOOR)), x
        assert float(x) == float(ref), x


def test_float_of_sqrt_n_is_math_sqrt():
    for n in [*range(2, 5000), 2 ** 52 + 1, 2 ** 53 - 1, 10 ** 15 + 37]:
        x = sqrt(n)
        if isinstance(x, int):
            assert x * x == n
        else:
            assert float(x) == math.sqrt(n), n


def test_order_between_surds_rationals_and_ints():
    rng = random.Random(7)
    xs = random_surds(rng, 200)
    n = xs[0].n
    same = ([x for x in xs if x.n == n]
            + [Surd(Fraction(k, 3), Fraction(1), n) for k in range(-9, 9)])
    pool = same + [Fraction(k, 7) for k in range(-50, 50)] + list(range(-5, 5))
    ranked = sorted(pool, key=decimal_value)
    assert sorted(pool) == ranked
    for lo, hi in zip(ranked, ranked[1:]):
        assert lo <= hi and hi >= lo and not lo > hi


def test_field_operations_stay_exact():
    r2 = sqrt(2)
    assert r2 * r2 == 2 and type(r2 * r2) is Fraction
    assert (1 + r2) * (1 - r2) == -1
    assert (1 + r2) / (1 - r2) == -3 - 2 * r2
    assert 1 / r2 == r2 / 2
    assert (3 - r2) - (3 - r2) == 0 and type((3 - r2) - (3 - r2)) is Fraction
    assert r2 - 1 == -(1 - r2) and abs(1 - r2) == r2 - 1
    assert hash(r2 + 0) == hash(r2) and r2 != 1 and r2 != Fraction(141421, 100000)
    rng = random.Random(11)
    xs = [Surd(Fraction(rng.randrange(-99, 99), rng.randrange(1, 9)),
               Fraction(rng.randrange(1, 99), rng.randrange(1, 9)), 5) for _ in range(100)]
    for x, y in zip(xs, reversed(xs)):
        assert (x * y) / y == x and (x + y) - y == x
        assert float(x * y) == pytest.approx(float(x) * float(y), rel=1e-12, abs=1e-12)


def test_sqrt_takes_the_square_factor_out():
    r2 = sqrt(2)
    assert sqrt(8) == 2 * r2 and sqrt(8) / 2 == r2 and sqrt(8) / 2 - r2 == 0
    assert sqrt(18) - sqrt(8) == r2 and sqrt(24) * sqrt(6) == 12
    assert [str(sqrt(n)) for n in (8, 12, 18, 24, 50)] == [
        "2*sqrt2", "2*sqrt3", "3*sqrt2", "2*sqrt6", "5*sqrt2"]
    # primes above the cube root of n: a square of one, and a product of two
    p, q = 1_000_003, 999_983
    assert str(sqrt(2 * p * p)) == f"{p}*sqrt2" and str(sqrt(p * q)) == f"sqrt{p * q}"
    for n in range(2, 3000):
        x = sqrt(n)
        if isinstance(x, int):
            continue
        m, f = x.b, x.n
        assert x.a == 0 and m.denominator == 1 and m * m * f == n, n
        assert all(f % (d * d) for d in range(2, math.isqrt(f) + 1)), n


def test_mixing_fields_or_floats_is_refused():
    with pytest.raises(ValueError):
        sqrt(2) + sqrt(3)
    with pytest.raises(TypeError):
        sqrt(2) + 1.0
    with pytest.raises(TypeError):
        sqrt(2) < 1.5


def test_printed_forms():
    r2 = sqrt(2)
    assert str(r2) == "sqrt2" and str(-r2) == "-sqrt2"
    assert str(Fraction(121, 5) - Fraction(18, 5) * r2) == "121/5 - 18/5*sqrt2"
    assert str(3 * r2 + 1) == "1 + 3*sqrt2"
    assert repr(r2 / 2) == "Surd('1/2*sqrt2')"
    assert sqrt(49) == 7 and type(sqrt(49)) is int
