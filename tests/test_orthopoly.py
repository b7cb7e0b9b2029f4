"""Orthogonal polynomial family: recurrence, basis changes, linearization,
tridiagonal arrays, zeros, and the weight-function quadrature."""

import importlib.util
import itertools
import math
import os
import random
import statistics
from fractions import Fraction

import numpy as np
import pytest
import sympy

from hyplp import orthopoly, surd
from hyplp.bounds import closed_form_h_bound, lp_bound_optimize, tau2_lower
from hyplp.orthopoly import (FPoly, Params, f_monomial,
                             f_values, fbasis_to_monomial, g_eval,
                             largest_zero_G, largest_zero_gc,
                             monomial_to_fbasis, positive_witness, zeros_above)
from hyplp.cli import load_certificate, parse_theta
from hyplp.orthopoly import (_exquo, _newton,
                             _odd_multiplicity_part, _poly_deriv, _poly_eval,
                             _poly_mul, _poly_roots, _poly_sub, _prem, _primitive,
                             _sign_at, _prs, _sign_changes)
from poly_oracles import (TridiagonalArray, at_k_reference,
                          binade_largest_zero_gc, fbasis_to_monomial_reference,
                          linearization, poly_divmod, primitive_reference,
                          rational_odd_multiplicity_part)

GRID = [(3, 2), (4, 2), (5, 2), (2, 3), (3, 3), (4, 3), (2, 5), (4, 4), (6, 2)]


# Reference checks of the family's identities, used by the tests below only.


def f_eval(params, i, x):
    """F_i(x).  At x = k this is k*q^(i-1) for every i >= 1."""
    return f_values(params, i, x)[i]


def g_identity_check(params, i, x):
    """Check G_i(x) * (x - k) == F_{i+1}(x) - q * F_i(x) at one point x != k."""
    if x == params.k:
        raise ValueError("identity check needs x != k (both sides vanish)")
    vals = f_values(params, i + 1, x)
    lhs = sum(vals[: i + 1]) * (x - params.k)
    rhs = vals[i + 1] - params.q * vals[i]
    if isinstance(x, float):
        scale = max(1.0, abs(lhs), abs(rhs))
        return abs(lhs - rhs) <= 1e-9 * scale
    return lhs == rhs


def char_poly_check(ta):
    """Exact check that det(xI - T(r,u,d,c)) == (x - k) * g_c(x)."""
    diag = ta.diagonal
    sub = ta.subdiagonal
    sup = ta.superdiagonal
    # determinant recurrence for tridiagonal xI - T
    prev2 = [Fraction(1)]
    prev1 = [-diag[0], Fraction(1)]
    for i in range(1, ta.d + 1):
        term = _poly_mul([-diag[i], Fraction(1)], prev1)
        cross = [sub[i - 1] * sup[i - 1] * v for v in prev2]
        prev2, prev1 = prev1, _poly_sub(term, cross)
    expected = _poly_mul([Fraction(-ta.params.k), Fraction(1)],
                         fbasis_to_monomial(ta.params, [ta.c] * ta.d + [1]))
    return prev1 == expected


def orthogonality_quadrature_check(params, i, j, npoints=4096):
    """Inner product <F_i, F_j> against the spectral weight, by midpoint
    quadrature in the Chebyshev angle (plus the point mass at -r when r < u).
    Off-diagonal values should vanish to ~1e-6 at npoints = 4096."""
    if npoints < 1000:
        raise ValueError("need npoints >= 1000")
    r, u, k, q = params.r, params.u, params.k, params.q
    rootq = math.sqrt(q)
    acc = []
    for m in range(npoints):
        phi = (m + 0.5) * math.pi / npoints
        x = (u - 2) + 2.0 * rootq * math.cos(phi)
        vals = f_values(params, max(i, j), x)
        sin2 = math.sin(phi) ** 2
        acc.append(vals[i] * vals[j] * sin2 / ((k - x) * (r + x)))
    total = (2.0 * r * q / npoints) * math.fsum(acc)
    if r < u:
        vals = f_values(params, max(i, j), Fraction(-r))
        total += (u - r) / u * float(vals[i]) * float(vals[j])
    return total


def sympy_f(r, u, imax):
    """Independent build of the family from the recurrence, fully expanded."""
    x = sympy.Symbol("x")
    k, q = r * (u - 1), (r - 1) * (u - 1)
    polys = [sympy.Integer(1), x, sympy.expand(x ** 2 - (u - 2) * x - k)]
    while len(polys) <= imax:
        polys.append(sympy.expand((x - (u - 2)) * polys[-1] - q * polys[-2]))
    return x, polys[: imax + 1]


def test_params_derived_quantities():
    p = Params(5, 3)
    assert (p.k, p.q) == (10, 8)
    assert p.top == pytest.approx(1 + 2 * math.sqrt(8))


def test_params_rejects_degenerate_degrees():
    with pytest.raises(ValueError):
        Params(1, 2)
    with pytest.raises(ValueError):
        Params(3, 1)


def test_base_cases_32():
    p = Params(3, 2)
    assert f_values(p, 3, 2) == [1, 2, 1, -2]
    assert f_eval(p, 2, Fraction(1, 2)) == Fraction(-11, 4)


def test_monomial_matches_sympy():
    for r, u in GRID:
        x, oracle = sympy_f(r, u, 8)
        p = Params(r, u)
        for i in range(9):
            got = f_monomial(p, i)
            want = [oracle[i].coeff(x, e) for e in range(i + 1)]
            assert list(got) == want, (r, u, i)


def test_f_iter_repeats_f_values_bit_for_bit():
    # the scan's generator and f_values are two loops over one recurrence
    rng = random.Random(8)
    for r, u in GRID:
        p = Params(r, u)
        for x in (rng.uniform(-5, 5), Fraction(rng.randrange(-40, 40), 7),
                  rng.randrange(-9, 9), surd.sqrt(rng.choice((2, 3, 5, 7)))):
            got = list(itertools.islice(orthopoly._f_iter(p, x), 13))
            want = f_values(p, 12, x)
            assert got == want and list(map(type, got)) == list(map(type, want)), (r, u, x)


def test_f_values_exact_at_rationals():
    rng = random.Random(7)
    for r, u in GRID:
        p = Params(r, u)
        x, oracle = sympy_f(r, u, 6)
        for _ in range(5):
            pt = Fraction(rng.randrange(-40, 40), rng.randrange(1, 12))
            vals = f_values(p, 6, pt)
            for i, v in enumerate(vals):
                want = oracle[i].subs(x, sympy.Rational(pt.numerator, pt.denominator))
                assert v == Fraction(int(want.p), int(want.q)), (r, u, i, pt)


def test_f_at_k_is_k_q_powers():
    for r, u in GRID:
        p = Params(r, u)
        vals = f_values(p, 8, p.k)
        assert vals[0] == 1
        for i in range(1, 9):
            assert vals[i] == p.k * p.q ** (i - 1), (r, u, i)


def test_g_identity():
    rng = random.Random(11)
    for r, u in GRID:
        p = Params(r, u)
        for i in range(1, 7):
            pt = Fraction(rng.randrange(-30, 30), rng.randrange(1, 9))
            if pt == p.k:
                continue
            assert g_identity_check(p, i, pt)
            lhs = g_eval(p, i, pt) * (pt - p.k)
            rhs = f_eval(p, i + 1, pt) - p.q * f_eval(p, i, pt)
            assert lhs == rhs


def test_g_identity_rejects_x_equal_k():
    p = Params(3, 2)
    with pytest.raises(ValueError):
        g_identity_check(p, 2, 3)


def test_basis_roundtrip():
    rng = random.Random(13)
    for r, u in GRID[:5]:
        p = Params(r, u)
        for _ in range(8):
            deg = rng.randrange(1, 9)
            coeffs = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
                      for _ in range(deg)]
            coeffs.append(Fraction(rng.randrange(1, 10), rng.randrange(1, 7)))
            fb = monomial_to_fbasis(p, coeffs)
            back = fbasis_to_monomial(p, fb)
            assert back == [Fraction(c) for c in coeffs]


def test_at_k_closed_form_matches_the_recurrence():
    # f(k) = f_0 + sum_{i>=1} f_i k q^(i-1) against f_values at k
    rng = random.Random(17)
    for r, u in GRID:
        p = Params(r, u)
        for s in range(7):
            coeffs = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
                      for _ in range(s + 1)]
            f = FPoly(p, coeffs)
            at_k = f.at_k()
            assert type(at_k) is int
            assert Fraction(at_k, f.den) == at_k_reference(p, coeffs) == sum(
                c * v for c, v in zip(coeffs, f_values(p, s, p.k)))


def test_integer_polynomials_stay_integers():
    p = Params(4, 3)
    prod = _poly_mul(f_monomial(p, 3), f_monomial(p, 2))
    fb = monomial_to_fbasis(p, prod)
    assert all(type(v) is int for v in prod + fb)
    assert fb == [Fraction(v) for v in monomial_to_fbasis(p, [Fraction(v) for v in prod])]
    # 5 g_c at c = 7/5
    gc = fbasis_to_monomial(p, [7, 7, 7, 5])
    assert all(type(v) is int for v in gc)
    assert gc == [5 * v for v in fbasis_to_monomial(p, [Fraction(7, 5)] * 3 + [1])]


def test_fpoly_eval_and_at_k():
    p = Params(6, 2)
    f = FPoly(p, (Fraction(153, 2), Fraction(64), Fraction(121, 4),
                  Fraction(9), Fraction(1)))
    assert (f.nums, f.den) == ((306, 256, 121, 36, 4), 4)
    assert all(type(v) is int for v in (*f.nums, f.den))
    assert f.at_k() == 4 * 3468
    for x in (2, Fraction(-5, 2)):
        assert sum(c * v for c, v in zip(f.coeffs, f_values(p, 4, x))) == 0
    # 4 (x^4 + 9x^3 + 57/4 x^2 - 35x - 75)
    assert f.to_monomial() == [-300, -140, 57, 36, 4]


def test_fpoly_equality_and_hash_by_value():
    # one polynomial from ints over a denominator, from reduced and from
    # unreduced Fractions, from floats and from strings: one record
    p = Params(3, 2)
    half = FPoly(p, (1, 1), 2)
    for same in (FPoly(p, (Fraction(1, 2), Fraction(1, 2))),
                 FPoly(p, (Fraction(2, 4), Fraction(3, 6))),
                 FPoly(p, (4, 4), 8), FPoly(p, (0.5, "1/2"))):
        assert same == half and hash(same) == hash(half)
        assert (same.nums, same.den) == ((1, 1), 2)
        assert all(type(v) is int for v in (*same.nums, same.den))
    assert half.coeffs == (Fraction(1, 2), Fraction(1, 2))
    assert half != FPoly(p, (1, 1)) and half != FPoly(p, (1, 1, 0), 2)
    assert FPoly(p, (0, 0), 7) == FPoly(p, (0, 0))


def test_linearization_identity_case():
    p = Params(3, 2)
    assert linearization(p, 0, 5) == {5: Fraction(1)}
    assert linearization(p, 4, 0) == {4: Fraction(1)}


def test_linearization_constant_term_and_symmetry():
    for r, u in [(3, 2), (5, 2), (3, 3), (4, 3), (5, 5)]:
        p = Params(r, u)
        for i in range(5):
            for j in range(5):
                coeff = linearization(p, i, j)
                assert coeff == linearization(p, j, i)
                p0 = coeff.get(0, Fraction(0))
                if i == j and i > 0:
                    assert p0 == p.k * p.q ** (i - 1)
                else:
                    assert p0 == (1 if i == j == 0 else 0)


def test_linearization_expands_to_product():
    rng = random.Random(17)
    for r, u in [(3, 2), (4, 3), (2, 4)]:
        p = Params(r, u)
        for i in range(1, 5):
            for j in range(1, 5):
                coeff = linearization(p, i, j)
                for _ in range(3):
                    pt = Fraction(rng.randrange(-20, 20), rng.randrange(1, 6))
                    prod = f_eval(p, i, pt) * f_eval(p, j, pt)
                    expanded = sum(c * f_eval(p, l, pt) for l, c in coeff.items())
                    assert prod == expanded, (r, u, i, j)


def test_linearization_support_patterns():
    # u = 2 keeps only l = i + j mod 2 inside |i-j| <= l <= i+j; u > 2 fills
    # the whole window
    p2 = Params(4, 2)
    for i in range(1, 6):
        for j in range(1, 6):
            keys = set(linearization(p2, i, j))
            assert keys == {l for l in range(abs(i - j), i + j + 1)
                            if (l - i - j) % 2 == 0}
    p3 = Params(4, 3)
    for i in range(1, 6):
        for j in range(1, 6):
            keys = set(linearization(p3, i, j))
            assert keys == set(range(abs(i - j), i + j + 1))


def test_linearization_nonnegative_r_greater_2():
    for r in range(3, 7):
        for u in range(2, r + 1):
            p = Params(r, u)
            for i in range(6):
                for j in range(6):
                    for l, c in linearization(p, i, j).items():
                        assert c >= 0, (r, u, i, j, l, c)


def test_tridiagonal_array_shape():
    p = Params(3, 2)
    ta = TridiagonalArray(p, 2, Fraction(1))
    assert ta.superdiagonal == (1, 1)
    assert ta.diagonal == (0, 0, 2)
    assert ta.subdiagonal == (3, 2)


def test_tridiagonal_rejects_bad_c():
    p = Params(3, 2)
    with pytest.raises(ValueError):
        TridiagonalArray(p, 2, Fraction(0))
    with pytest.raises(ValueError):
        TridiagonalArray(p, 0, Fraction(1))


def test_char_poly_identity():
    for r, u in [(3, 2), (4, 2), (3, 3), (4, 3)]:
        p = Params(r, u)
        for d in range(1, 5):
            for c in (Fraction(1), Fraction(3, 2), Fraction(2)):
                assert char_poly_check(TridiagonalArray(p, d, c)), (r, u, d, c)


def test_largest_zero_G_examples():
    p = Params(3, 2)
    assert largest_zero_G(p, 2) == pytest.approx(1.0, abs=1e-9)
    zeros = [largest_zero_G(p, j) for j in range(1, 8)]
    assert zeros[0] == pytest.approx(-1.0, abs=1e-9)
    for a, b in zip(zeros, zeros[1:]):
        assert a < b
    assert zeros[-1] < p.u - 2 + 2 * math.sqrt(p.q)


def test_largest_zero_gc_endpoints():
    p = Params(3, 2)
    assert largest_zero_gc(p, 1, 3) == pytest.approx(-3.0, abs=1e-9)
    assert largest_zero_gc(p, 1, 1) == pytest.approx(-1.0, abs=1e-9)
    assert largest_zero_gc(p, 2, 1) == pytest.approx(1.0, abs=1e-9)


def test_largest_zero_gc_matches_G_at_c_1():
    # c = 1 turns c*G_{d-1} + F_d into G_d: the exact G_d changes sign
    # within 4 ulps of the float found on T(r, u, d, 1), and not above it
    for r, u in [(3, 2), (4, 3), (2, 3)]:
        p = Params(r, u)
        for d in range(2, 6):
            lam = largest_zero_gc(p, d, 1)
            lo = Fraction(lam) - 4 * Fraction(math.ulp(lam))
            hi = Fraction(lam) + 4 * Fraction(math.ulp(lam))
            assert g_eval(p, d, lo) < 0 < g_eval(p, d, hi), (r, u, d)
            minus_g = [-c for c in fbasis_to_monomial(p, [1] * (d + 1))]
            assert witness(minus_g, hi, p.k) is None, (r, u, d)


def symmetrized_quotient_spectrum(p, d, c):
    """Eigenvalues of T(r, u, d, c), ascending, by numpy on the symmetric
    matrix with off-diagonal sqrt(sub * super)."""
    s, t = p.u - 1, p.r - 1
    diag = [0.0] + [s - 1.0] * (d - 1) + [s * (t + 1) - c]
    prods = [s * (t + 1)] + [s * t] * (d - 1)
    prods[-1] *= c
    off = np.sqrt(prods)
    return np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))


def test_zeros_above_matches_numpy():
    rng = random.Random(9)
    cases = 0
    for _ in range(60):
        r, u = rng.randint(2, 9), rng.randint(2, 9)
        d = rng.choice([1, 2, 3, 4, 7, 20, 60, 150, 400])
        c = rng.choice([1.0, rng.uniform(1, 3), rng.uniform(3, 40), rng.uniform(40, 1e5)])
        p = Params(r, u)
        eigs = symmetrized_quotient_spectrum(p, d, c)
        assert eigs[-1] == pytest.approx(p.k, rel=1e-12)
        zeros = eigs[:-1]
        scale = max(1.0, abs(eigs[0]), p.k)
        # points between neighbouring zeros, outside them and seeded
        # points, each kept only when no eigenvalue is within 1e-9 of it
        points = [zeros[0] - 1.0, p.k + 1.0, float(p.k)]
        points += [(a + b) / 2 for a, b in zip(eigs, eigs[1:])]
        points += [rng.uniform(eigs[0] - 1.0, p.k) for _ in range(20)]
        for x in rng.sample(points, min(len(points), 40)):
            if x != p.k and np.min(np.abs(eigs - x)) <= 1e-9 * scale:
                continue
            want = int(np.sum(zeros > x))
            # the count is exact at a float and at a rational x
            for at in (float(x), Fraction(x).limit_denominator(10 ** 6)):
                if at == x or np.min(np.abs(eigs - float(at))) > 1e-9 * scale:
                    assert zeros_above(p, d, c, at) == want, (r, u, d, c, at)
                    cases += 1
        # the largest zero, found by bisection on the same count
        assert largest_zero_gc(p, d, c) == pytest.approx(zeros[-1], abs=1e-13 * scale)
    assert cases > 3000


def test_largest_zero_G_to_a_few_ulps():
    # G_2 = x^2 - (u - 3)x + 1 - k
    for (r, u), want in [((3, 3), math.sqrt(5)), ((4, 3), math.sqrt(7)),
                         ((2, 2), (math.sqrt(5) - 1) / 2)]:
        got = largest_zero_G(Params(r, u), 2)
        assert abs(got - want) <= 4 * math.ulp(want), (r, u, got, want)


def test_largest_zero_gc_refuses_a_count_outside_its_bracket(monkeypatch):
    monkeypatch.setattr(orthopoly, "zeros_above", lambda p, d, c, x: 0)
    with pytest.raises(ArithmeticError):
        largest_zero_gc(Params(3, 2), 3, 1)
    monkeypatch.setattr(orthopoly, "zeros_above", lambda p, d, c, x: d)
    with pytest.raises(ArithmeticError):
        largest_zero_G(Params(3, 2), 3)



ZEROS_FILE = os.path.join(os.path.dirname(__file__), "data", "largest_zeros.txt")


def test_largest_zeros_keep_their_floats():
    # recorded from the float searches the exact count replaced: each row's
    # floor x is proved here by a Sturm chain of g_c, not by zeros_above, to
    # have the largest zero of g_c in [x, nextafter(x, +inf)); it lies
    # within 9 ulps of the recorded float, and an exact zero gives +0.0
    rows = 0
    with open(ZEROS_FILE) as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            r, u, d, c, want = line.split()
            p, d, c = Params(int(r), int(u)), int(d), Fraction(c)
            got = largest_zero_G(p, d) if c == 1 else largest_zero_gc(p, d, c)
            # c.denominator g_c, in Z[x]
            chain = sturm_chain(fbasis_to_monomial(p, [c.numerator] * d + [c.denominator]))
            x, above = Fraction(got), Fraction(math.nextafter(got, math.inf))
            # V(a) - V(b) roots in (a, b]: one in [x, above), none from above on
            at_x = _poly_eval(chain[0], x) == 0
            assert _sign_changes(chain, x) - _sign_changes(chain, above) + at_x == 1, line
            assert _poly_eval(chain[0], above) != 0, line
            assert _sign_changes(chain, above) == _sign_changes(chain, Fraction(p.k)), line
            recorded = float.fromhex(want)
            assert abs(got - recorded) <= 9 * math.ulp(recorded), line
            if recorded == 0:
                assert math.copysign(1.0, got) == 1.0, line
            rows += 1
    assert rows == 2419


@pytest.mark.parametrize("params, n, lam", [(Params(4, 3), 15, 0.0),
                                            (Params(3, 2), 6, 0.0),
                                            (Params(3, 2), 10, 1.0)])
def test_largest_zero_gc_makes_at_most_66_counts(monkeypatch, params, n, lam):
    # a zero at exactly 0 once cost 1,081 counts: bisecting the float value
    # walks through the subnormals towards it
    calls = []
    count = orthopoly.zeros_above

    def counted(*args):
        calls.append(args[3])
        return count(*args)

    monkeypatch.setattr(orthopoly, "zeros_above", counted)
    got = tau2_lower(params, n)[2]
    assert got.hex() == lam.hex()
    assert len(calls) <= 66


def test_largest_zero_gc_probes_no_tiny_float(monkeypatch):
    # a count at n/m works on integers of about d log2(m) bits; a bisection
    # on float keys from below 0 to k begins at subnormals (m = 2^1074).
    # With the binade of the zero found first, a zero in [1, 16) needs no
    # denominator above 2^52
    dens = []
    count = orthopoly.zeros_above

    def counted(*args):
        dens.append(args[3].as_integer_ratio()[1])
        return count(*args)

    monkeypatch.setattr(orthopoly, "zeros_above", counted)
    assert 1.99 < tau2_lower(Params(2, 2), 1000)[2] < 2
    assert 8 < largest_zero_gc(Params(5, 4), 400, Fraction(7, 3)) < 16
    assert max(dens) <= 2 ** 52


def counted_points(monkeypatch):
    """The points of the `zeros_above` counts made from now on, in order."""
    calls = []
    count = orthopoly.zeros_above

    def counted(*args):
        calls.append(args[3])
        return count(*args)

    monkeypatch.setattr(orthopoly, "zeros_above", counted)
    return calls


# r = 2..8, u = 2..5 and n = k+2, k+9, ... below 400: 1,554 orders
TAU2_SWEEP = [(Params(r, u), n) for r in range(2, 9) for u in range(2, 6)
              for n in range(r * (u - 1) + 2, 400, 7)]


def test_seeded_search_returns_the_binade_search_floor(monkeypatch):
    # the floor is one float, so the seed may change the counts, not the
    # result; a seed on the floor or just above it needs the seed and its
    # neighbour after the two range counts and the count at 0
    calls = counted_points(monkeypatch)
    counts = []
    for p, n in TAU2_SWEEP:
        calls.clear()
        d, c, lam = tau2_lower(p, n)
        counts.append(len(calls))
        assert lam.hex() == binade_largest_zero_gc(p, d, c).hex(), (p, n)
    assert len(counts) == 1554
    assert statistics.median(counts) <= 6
    assert max(counts) <= 61


def test_tau2_lower_at_a_400_digit_order(monkeypatch):
    # moore_order(d) = 3 * 2^d - 2 at (r, u) = (3, 2); the float recurrence
    # of the seed runs scaled, since F_1328(3) is about 2^1328
    calls = counted_points(monkeypatch)
    d, c, lam = tau2_lower(Params(3, 2), 10 ** 400)
    assert d == 1328
    assert c == Fraction(3 * 2 ** 1327, 10 ** 400 - (3 * 2 ** 1327 - 2))
    assert lam.hex() == "0x1.6a09a3fe01fa8p+1"
    seeded = len(calls)
    calls.clear()
    assert binade_largest_zero_gc(Params(3, 2), d, c).hex() == lam.hex()
    assert seeded <= len(calls)


def test_quadrature_orthogonality():
    for r, u in [(3, 2), (4, 2), (3, 3), (2, 3), (2, 5)]:
        p = Params(r, u)
        for i in range(5):
            for j in range(5):
                ip = orthogonality_quadrature_check(p, i, j)
                if i == j:
                    assert ip > 0.5, (r, u, i, j, ip)
                else:
                    assert abs(ip) < 2e-5, (r, u, i, j, ip)


def test_quadrature_norms_match_degree_counts():
    # the measure is normalized: <1, 1> = 1 and <F_i, F_i> = F_i(k)
    for r, u in [(3, 2), (3, 3), (2, 3)]:
        p = Params(r, u)
        assert orthogonality_quadrature_check(p, 0, 0) == pytest.approx(1.0, abs=1e-5)
        for i in range(1, 5):
            want = p.k * p.q ** (i - 1)
            assert orthogonality_quadrature_check(p, i, i) == pytest.approx(
                want, rel=1e-4), (r, u, i)


def to_sympy(x):
    """An int, Fraction or Surd as the exact sympy number."""
    if isinstance(x, surd.Surd):
        return to_sympy(x.a) + to_sympy(x.b) * sympy.sqrt(x.n)
    x = Fraction(x)
    return sympy.Rational(x.numerator, x.denominator)


def sympy_nonpositive(coeffs, a, b):
    """Whether sum coeffs[i] x^i <= 0 on [a, b], decided from sympy's real
    root isolation.  Each isolating interval holds one root and, unless it
    is a single point, has no root at its ends; so every gap between
    consecutive roots holds one of the test points (a, b, the intervals'
    ends in [a, b] and the midpoints between all of these), or borders a
    or b where p is nonzero and has the gap's sign."""
    x = sympy.Symbol("x")
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(coeffs)], x)
    a, b = to_sympy(a), to_sympy(b)
    if poly.is_zero:
        return True
    points = {a, b}
    for (s, t), _ in poly.intervals(eps=sympy.Rational(1, 10 ** 6)):
        assert s == t or poly.eval(s) * poly.eval(t) != 0
        points.update(e for e in (s, t) if a <= e <= b)
    points = sorted(points)
    points += [(p + q) / 2 for p, q in zip(points, points[1:])]
    return all(sympy_value(poly.all_coeffs(), p) <= 0 for p in points)


def sympy_value(coeffs, point):
    """The polynomial with sympy coefficients (leading first) at point, by
    Horner with each step expanded: at a + b*sqrt(n) every step stays in
    that form, where `Poly.eval` goes through slow general expressions."""
    acc = sympy.Integer(0)
    for c in coeffs:
        acc = sympy.expand(acc * point + c)
    return acc


def random_test_polynomial(rng, a, b):
    """Degree 1 to 12 with the cases a sign test gets wrong: double roots
    (touching zero), roots at a or b, simple roots, irreducible quadratics,
    and small constant shifts that split a double root."""
    poly = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 3))]
    spots = [a, b, (a + b) / 2, a + (b - a) / 3,
             Fraction(rng.randint(-40, 40), 10)]
    degree = rng.randint(1, 12)
    while len(poly) - 1 < degree:
        room = degree - (len(poly) - 1)
        kind = rng.random()
        if kind < 0.6 or room < 2:
            root = rng.choice(spots)
            for _ in range(min(room, rng.choice((1, 2, 2, 3)))):
                poly = _poly_mul(poly, [-root, Fraction(1)])
        elif kind < 0.8:
            c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            poly = _poly_mul(poly, [c, Fraction(0), Fraction(1)])
        else:
            poly = _poly_mul(poly, [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                               for _ in range(min(room, 3))] + [Fraction(1)])
    if rng.random() < 0.3:
        poly[0] += Fraction(rng.choice((-1, 1)), 10 ** rng.randint(2, 12))
    return poly


def witness(p, a, b, pb=None):
    """`positive_witness` on the primitive integer multiple of the rational
    p, with its witness point x returned as (x, p(x)), the pair that
    `lp_bound_evaluate` reports; None when p <= 0 on [a, b].  The sign of
    p(b) is `_sign_at`'s, or that of `pb`, a value of p(b) the caller has."""
    q = primitive_reference(p)
    x = positive_witness(q, a, b, _sign_at(q, b) if pb is None else surd._sign(pb))
    return None if x is None else (x, _poly_eval(p, x))


def lp_certificates():
    """Two certificates as (monomial coefficients, -r, theta): the LP
    optimum at (5, 3), theta 2, degree 6, which is square-free, and the
    tight closed form g_c^2 / (x - theta) at (3, 2), theta 3/2, which has
    double roots at the other zeros of g_c."""
    opt = lp_bound_optimize(Params(5, 3), 2, 6).certificate
    tight = closed_form_h_bound(Params(3, 2), Fraction(3, 2)).certificate
    return [(opt.to_monomial(), Fraction(-5), Fraction(2)),
            (tight.to_monomial(), Fraction(-3), Fraction(3, 2))]


def test_positive_witness_matches_sympy():
    rng = random.Random(20261018)
    verdicts = set()
    cases = [(coeffs, a, b, True) for coeffs, a, b in lp_certificates()]
    for trial in range(200):
        a = Fraction(rng.randint(-30, 30), rng.randint(1, 6))
        b = a if trial % 10 == 0 else a + Fraction(rng.randint(1, 40), rng.randint(1, 6))
        cases.append((random_test_polynomial(rng, a, b), a, b, None))
    for coeffs, a, b, certified in cases:
        got = witness(coeffs, a, b)
        # a caller's p(b) saves an evaluation and changes no verdict
        assert witness(coeffs, a, b, _poly_eval(coeffs, b)) == got
        want = sympy_nonpositive(coeffs, a, b)
        assert (got is None) == want, (coeffs, a, b, got)
        assert certified in (None, want)
        if got is not None:
            x, v = got
            assert a <= x <= b and v > 0
            assert v == sum(c * x ** i for i, c in enumerate(coeffs))
        verdicts.add(want)
    assert verdicts == {True, False}
    # b = sqrt(n): roots at b from factors x^2 - n, and roots near b from
    # the rationals on either side of it that the random polynomial uses
    verdicts = set()
    for trial in range(100):
        n = rng.choice((2, 3, 5, 7, 18, 50))
        b = surd.sqrt(n)
        scale = 10 ** rng.randint(1, 8)
        near = Fraction(math.floor(b * scale) + rng.randint(0, 1), scale)
        a = near - Fraction(rng.randint(1, 12), rng.randint(1, 4))
        coeffs = random_test_polynomial(rng, a, near)
        for _ in range(rng.choice((0, 0, 1, 2))):
            coeffs = _poly_mul(coeffs, [Fraction(-n), Fraction(0), Fraction(1)])
        got = witness(coeffs, a, b)
        assert witness(coeffs, a, b, _poly_eval(coeffs, b)) == got
        want = sympy_nonpositive(coeffs, a, b)
        assert (got is None) == want, (coeffs, a, n, got)
        if got is not None:
            x, v = got
            # every split point is rational; only b itself is a Surd
            assert isinstance(x, Fraction) or x == b, x
            assert a <= x <= b and v > 0
            assert v == _poly_eval(coeffs, x)
            assert to_sympy(v) == sympy_value([to_sympy(c) for c in reversed(coeffs)],
                                              to_sympy(x))
        verdicts.add(want)
    assert verdicts == {True, False}


def test_positive_witness_runs_euclid_once_on_square_free_input(monkeypatch):
    # the Sturm chain of a square-free p is built from p itself; only a p
    # with a repeated root also computes its odd-multiplicity part
    (square_free, a, b), (tight, c, d) = lp_certificates()
    calls = []
    real = orthopoly._odd_multiplicity_part
    monkeypatch.setattr(orthopoly, "_odd_multiplicity_part",
                        lambda *args: calls.append(args) or real(*args))
    assert witness(square_free, a, b) is None
    assert calls == []
    assert witness(tight, c, d) is None
    assert len(calls) == 1


def test_positive_witness_touching_and_endpoint_roots():
    # -(x - 1)^2 (x + 2)^2 touches zero inside; +1e-12 splits both roots
    square = _poly_mul([Fraction(-2), Fraction(1), Fraction(1)],
                       [Fraction(-2), Fraction(1), Fraction(1)])
    touch = [-c for c in square]
    assert witness(touch, -3, 3) is None
    near = [touch[0] + Fraction(1, 10 ** 12)] + touch[1:]
    x, v = witness(near, -3, 3)
    assert v > 0 and -3 < x < 3
    # x (1 - 2x): zero at a, positive just inside, negative at b
    x, v = witness([0, 1, -2], 0, 1)
    assert 0 < x < Fraction(1, 2) and v > 0
    assert witness([0, 1, -2], Fraction(1, 2), 1) is None
    assert witness([0, 1, -2], 0, 0) is None
    assert witness([Fraction(1, 10 ** 9)], 2, 2) == (2, Fraction(1, 10 ** 9))
    assert witness([0], -1, 1) is None
    with pytest.raises(ValueError):
        witness([-1], 1, 0)


def test_positive_witness_at_a_sqrt_endpoint():
    root5 = surd.sqrt(5)
    # x^2 - 5 vanishes at the end sqrt(5) and is negative inside
    assert witness([-5, 0, 1], -2, root5) is None
    # x^2 - 4 is positive at sqrt(5) itself, the only Surd witness
    assert witness([-4, 0, 1], -2, root5) == (root5, 1)
    # -(x - c1)(x - c2) with sqrt(2) - 2^-64 < c1 < c2 < sqrt(2): negative
    # at both ends, positive only between c1 and c2, so the rational h below
    # sqrt(2) must close in past them
    root2 = surd.sqrt(2)
    c1, c2 = (Fraction(math.floor(root2 * 2 ** s), 2 ** s) for s in (100, 110))
    assert Fraction(math.floor(root2 * 2 ** 64), 2 ** 64) < c1 < c2
    bump = [-c1 * c2, c1 + c2, Fraction(-1)]
    x, v = witness(bump, 0, root2)
    assert c1 < x < c2 and v > 0 and isinstance(x, Fraction)
    # a closer to sqrt(2) than 2^-64: -(x - a) is <= 0 on [a, sqrt(2)], and
    # -(x - a)^2 (x^2 - 2) is 0 at both ends and positive between them,
    # where the witness must lie
    assert witness([c1, Fraction(-1)], c1, root2) is None
    assert witness([-c1, Fraction(1)], c1, root2) == (root2, root2 - c1)
    hump = _poly_mul(_poly_mul([-c1, Fraction(1)], [-c1, Fraction(1)]),
                     [Fraction(2), Fraction(0), Fraction(-1)])
    x, v = witness(hump, c1, root2)
    assert c1 < x < root2 and v > 0 and isinstance(x, Fraction)


def test_positive_witness_ends_at_a_negative_end(monkeypatch):
    # with no sign change inside and p < 0 at an end, p <= 0 follows from
    # the Sturm count alone: no point but the two ends is evaluated, neither
    # a sample point nor, at a sqrtN end, a dyadic probe below it
    seen = []
    real = orthopoly._sign_at
    monkeypatch.setattr(orthopoly, "_sign_at",
                        lambda p, x: seen.append(x) or real(p, x))
    root5 = surd.sqrt(5)
    # x^2 - 9, roots outside; -(x - 1)^2 (x + 2), a double root inside;
    # -x (x + 1), zero at a and negative at b
    double = [-c for c in _poly_mul(_poly_mul([-1, 1], [-1, 1]), [2, 1])]
    for coeffs, a, b in (([-9, 0, 1], 0, 2), ([-9, 0, 1], 0, root5),
                         (double, 0, 2), (double, 0, root5),
                         ([0, -1, -1], 0, 2), ([0, -1, -1], 0, root5)):
        seen.clear()
        assert witness(coeffs, a, b) is None, (coeffs, b)
        assert seen and set(seen) <= {a, b}, (coeffs, b, seen)
    # both ends vanish: x (x - 1) <= 0 and x (1 - x) > 0 on [0, 1] still take
    # the sample point 1/2, and x (x^2 - 2) on [0, sqrt 2] its dyadic probe
    for coeffs, want in (([0, -1, 1], None), ([0, 1, -1], (Fraction(1, 2), Fraction(1, 4)))):
        seen.clear()
        assert witness(coeffs, 0, 1) == want
        assert Fraction(1, 2) in seen
    root2 = surd.sqrt(2)
    for sign in (1, -1):
        seen.clear()
        got = witness([0, -2 * sign, 0, sign], 0, root2)
        assert (got is None) == (sign == 1)
        assert any(isinstance(x, Fraction) and 0 < x < root2 for x in seen)


def exact_sign(v) -> int:
    return (v > 0) - (v < 0)


def is_primitive_integer(p) -> bool:
    return all(type(c) is int for c in p) and math.gcd(*p) == 1


def test_sign_at_matches_the_sign_of_the_exact_value():
    # the integer sign of the primitive multiple against the sign of the
    # Fraction or Surd value `_poly_eval` computes, at the roots the random
    # polynomials are built on (double and triple ones too), at 0, at
    # negative points, and at a + b sqrt(N) with a != 0 and b < 0
    rng = random.Random(20261019)
    zeros = 0
    for trial in range(300):
        a = Fraction(rng.randint(-30, 30), rng.randint(1, 6))
        b = a + Fraction(rng.randint(1, 40), rng.randint(1, 6))
        p = random_test_polynomial(rng, a, b)
        if trial % 3 == 0:
            p = _poly_mul(p, [Fraction(0), Fraction(1)])
        whole = primitive_reference(p)
        assert is_primitive_integer(whole)
        points = [a, b, (a + b) / 2, a + (b - a) / 3, Fraction(0), -abs(a) - 1,
                  Fraction(rng.randint(-99, 99), rng.randint(1, 99))]
        n = rng.choice((2, 3, 5, 7, 18, 50))
        root = (Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))
                - Fraction(rng.randint(1, 9), rng.randint(1, 5)) * surd.sqrt(n))
        points.append(root)
        for x in points:
            v = _poly_eval(p, x)
            assert _sign_at(whole, x) == exact_sign(v), (p, x)
            zeros += v == 0
        # times the minimal polynomial of root: an exact zero in Q(sqrt N)
        at_root = _poly_mul(p, [root.a * root.a - root.b * root.b * root.n,
                                -2 * root.a, Fraction(1)])
        assert _poly_eval(at_root, root) == 0
        assert _sign_at(primitive_reference(at_root), root) == 0
    assert zeros > 300
    # x^2 - 5 vanishes at sqrt5, and at -sqrt5 with a Surd of a = 0, b < 0
    for x in (surd.sqrt(5), -surd.sqrt(5)):
        assert _sign_at(_primitive([-5, 0, 1]), x) == 0
    assert _sign_at([-4, 0, 1], surd.sqrt(5)) == 1
    assert _sign_at([-6, 0, 1], surd.sqrt(5)) == -1
    assert _primitive([0]) == primitive_reference([Fraction(0)]) == [0]
    assert _sign_at([0], Fraction(1, 3)) == 0


def reference_sign_changes(chain, x) -> int:
    """Sign changes of a rational Sturm chain at x from the exact values
    `_poly_eval` computes, zero terms skipped."""
    signs = [exact_sign(_poly_eval(p, x)) for p in chain]
    signs = [v for v in signs if v]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def sturm_chain(g):
    """The Sturm chain of g in Z[x] that `positive_witness` counts on."""
    return _prs(g, _poly_deriv(g))


def rational_sturm_chain(g):
    """The Sturm chain over Q that `_prs` replaced, built by Fraction
    division: g, g', then negated remainders, each divided by the modulus
    of its leading coefficient, up to the last nonzero one."""
    chain = [[Fraction(c) for c in g], _poly_deriv([Fraction(c) for c in g])]
    while len(chain[-1]) > 1:
        rem = poly_divmod(chain[-2], chain[-1])[1]
        if rem == [0]:
            break
        chain.append([-c / abs(rem[-1]) for c in rem])
    return chain


def certify_batch_certificates(tmp_path, seed):
    """(params, F-basis certificate, theta) for every operation of the
    benchmark's certify batch of `seed`, built by perfbench/workloads.py."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    out = []
    for op in workloads.build("certify", seed, str(tmp_path / f"seed{seed}")):
        argv = op["argv"]
        params = Params(int(argv[argv.index("--r") + 1]), int(argv[argv.index("--u") + 1]))
        out.append((params, load_certificate(op["meta"]["file"], params),
                    parse_theta(op["meta"]["theta"])))
    return out


def test_integer_sturm_chain_counts_as_the_rational_chain(tmp_path):
    # the Z[x] chain `positive_witness` counts on, of p or of its
    # odd-multiplicity part, against the rational chain's exact values, at
    # -r, theta and midway; every member an integer polynomial of content 1.
    # The integer Yun step gives the rational one's odd part, made
    # primitive, up to sign
    seen = repeated = 0
    for seed in (1, 2, 3):
        for params, f, theta in certify_batch_certificates(tmp_path, seed):
            mono = f.to_monomial()
            chain, reference = sturm_chain(mono), rational_sturm_chain(mono)
            assert [len(p) for p in chain] == [len(p) for p in reference]
            if len(chain[-1]) > 1:
                odd = _odd_multiplicity_part(chain[0], chain[-1])
                want = rational_odd_multiplicity_part(mono)
                assert odd in (primitive_reference(want),
                               primitive_reference([-c for c in want])), \
                    (params, f.coeffs)
                chain, reference = sturm_chain(odd), rational_sturm_chain(want)
                repeated += 1
            assert all(is_primitive_integer(p) for p in chain), (params, f.coeffs)
            assert [len(p) for p in chain] == [len(p) for p in reference]
            lo = Fraction(-params.r)
            for x in (lo, theta, (lo + theta) / 2):
                assert _sign_changes(chain, x) == reference_sign_changes(reference, x), \
                    (params, f.coeffs, x)
            seen += 1
    assert seen == 342 and repeated == 108


def random_integer_polynomial(rng, degree):
    return [rng.randint(-40, 40) for _ in range(degree)] + [rng.choice((-1, 1)) * rng.randint(1, 9)]


def test_prem_is_the_remainder_times_a_positive_power():
    # |lc(b)|^(deg a - deg b + 1) times the Fraction remainder, for every
    # pair of a sign of lc(b) and a degree gap 0 to 3, so a negative lc(b)
    # meets odd powers too
    rng = random.Random(24)
    seen = set()
    for trial in range(400):
        b = random_integer_polynomial(rng, rng.randint(0, 6))
        gap = trial % 4
        a = random_integer_polynomial(rng, len(b) - 1 + gap)
        if trial % 5 == 0:
            # a multiple of b: the remainder is 0
            a = _poly_mul(b, random_integer_polynomial(rng, gap))
        got = _prem(a, b)
        assert all(type(c) is int for c in got)
        scale = abs(b[-1]) ** (gap + 1)
        assert got == [scale * c for c in poly_divmod(a, b)[1]], (a, b)
        seen.add((b[-1] > 0, gap))
    assert len(seen) == 8


def test_exquo_divides_exactly_in_integers():
    # a b / b = a in int coefficients, for lc(b) of both signs; b does not
    # divide a b + r with r != 0 of lower degree, nor x + 1 in Z[x] when it
    # is 2x + 2, which divides it over Q only
    rng = random.Random(25)
    signs = set()
    for trial in range(300):
        a = random_integer_polynomial(rng, rng.randint(0, 6))
        b = random_integer_polynomial(rng, rng.randint(0, 5))
        got = _exquo(_poly_mul(a, b), b)
        assert got == a and all(type(c) is int for c in got), (a, b)
        signs.add(b[-1] > 0)
        if len(b) > 1:
            r = random_integer_polynomial(rng, rng.randint(0, len(b) - 2))
            with pytest.raises(ArithmeticError):
                _exquo(_poly_sub(_poly_mul(a, b), r), b)
    assert signs == {True, False}
    assert _exquo([0], [3, -2]) == [0]
    for a, b in (([1, 1], [2, 2]), ([1], [0, 1]), ([2, 0, 1], [-1, 1])):
        with pytest.raises(ArithmeticError):
            _exquo(a, b)


def test_integer_yun_step_keeps_the_odd_multiplicities():
    # c (d_1 x - n_1)^m_1 ... (x^2 - N)^m, multiplicities 1 to 4: the odd
    # part from Z[x] is +-1 times the primitive product of the factors that
    # `sympy.sqf_list` gives an odd multiplicity, and primitive itself
    rng = random.Random(2025)
    x = sympy.Symbol("x")
    kinds = set()
    for trial in range(120):
        roots, count = set(), rng.randint(1, 4)
        while len(roots) < count:
            roots.add(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        factors = [([-q.numerator, q.denominator], rng.randint(1, 4)) for q in roots]
        if trial % 2:
            factors.append(([-rng.choice((2, 3, 5, 6, 7)), 0, 1], rng.randint(1, 4)))
        p = [rng.choice((-1, 1)) * rng.randint(1, 12)]
        for f, m in factors:
            for _ in range(m):
                p = _poly_mul(p, f)
        whole = _primitive(p)
        chain = sturm_chain(whole)
        if len(chain[-1]) == 1:
            continue  # square-free: `positive_witness` takes no Yun step
        got = _odd_multiplicity_part(whole, chain[-1])
        want = sympy.Poly(1, x)
        for f, m in sympy.sqf_list(sympy.Poly(list(reversed(p)), x))[1]:
            if m % 2:
                want *= f
        want = _primitive([int(c) for c in reversed(want.all_coeffs())])
        assert is_primitive_integer(got), (p, got)
        assert got in (want, [-c for c in want]), (p, got, want)
        kinds.add((len(want) > 1, any(m % 2 == 0 for _, m in factors)))
    assert kinds == {(True, True), (False, True), (True, False)}


def test_fbasis_to_monomial_matches_the_per_term_sum():
    # on FPoly's numerators, an integer sum that is den times the Fraction
    # sum over its coefficients
    rng = random.Random(22)
    for r, u in GRID:
        p = Params(r, u)
        assert fbasis_to_monomial(p, []) == fbasis_to_monomial_reference(p, [])
        for _ in range(12):
            fc = [rng.choice((0, rng.randrange(-50, 51),
                              Fraction(rng.randrange(-99, 100), rng.randrange(1, 10 ** 6))))
                  for _ in range(rng.randrange(1, 11))]
            want = fbasis_to_monomial_reference(p, fc)
            assert fbasis_to_monomial(p, fc) == want, (r, u, fc)
            f = FPoly(p, fc)
            got = f.to_monomial()
            assert all(type(c) is int for c in got)
            assert got == [f.den * c for c in want], (r, u, fc)
            while len(fc) > 1 and fc[-1] == 0:
                fc.pop()
            assert monomial_to_fbasis(p, want) == fc, (r, u, fc)


def float_poly_from_roots(roots, lead):
    """Monomial coefficients, lowest first, of lead * prod (x - root)."""
    poly = [float(lead)]
    for root in roots:
        poly = [0.0] + poly
        for j in range(len(poly) - 1):
            poly[j] -= root * poly[j + 1]
    return poly


def test_poly_roots_match_numpy():
    # 200 seeded float polynomials of degree 1-9 on [a, b] = [-3, 2]: random
    # roots inside and outside, close pairs, roots exactly on the endpoints,
    # a complex pair, and a zero leading coefficient
    rng = random.Random(20261018)
    a, b = -3.0, 2.0
    kinds = set()
    for trial in range(200):
        deg = 1 + trial % 9
        kind = trial // 9 % 4 if deg >= 2 else 0
        lead = rng.choice((-1, 1)) * 10 ** rng.uniform(-2, 2)
        if kind == 2:
            # distinct quarter-integer roots keep every coefficient and every
            # value at the endpoints exact, so p(a) = p(b) = 0 exactly
            spots = [j / 4 for j in range(-16, 13) if j / 4 not in (a, b)]
            roots = [a, b] + rng.sample(spots, deg - 2)
            lead = rng.choice((-1, 1)) * 2 ** rng.randint(-3, 3)
        else:
            roots = [rng.uniform(-4.0, 3.0) for _ in range(deg)]
        if kind == 1:
            roots[-1] = roots[0] + rng.choice((-1, 1)) * 10 ** rng.uniform(-4, -2)
        p = float_poly_from_roots(roots, lead)
        if kind == 3:
            p = _poly_mul(p, [rng.uniform(0.1, 2.0), rng.uniform(-1.0, 1.0), 1.0])
            p.append(0.0)
        kinds.add(kind)
        got = _poly_roots(p, a, b)
        assert got == sorted(got) and all(a <= x <= b for x in got), (trial, got)
        # numpy's own error may put an endpoint root just outside [a, b]
        want = sorted(z.real for z in np.roots(p[::-1])
                      if abs(z.imag) <= 1e-9 and a - 1e-9 <= z.real <= b + 1e-9)
        if kind == 2:
            assert got[0] == a and got[-1] == b, (trial, got)
        assert len(got) == len(want), (trial, roots, got, want)
        for x, w in zip(got, want):
            # Horner's rounding error over |p'|: how far a float root can sit
            # from the true one (large only between the close pairs)
            noise = sum(abs(c) * abs(w) ** i for i, c in enumerate(p))
            slack = 16 * 2.0 ** -52 * noise / abs(_poly_eval(_poly_deriv(p), w))
            assert abs(x - w) <= 1e-9 * max(1.0, abs(w)) + slack, (trial, got, want)
    assert kinds == {0, 1, 2, 3}


def test_poly_roots_edge_cases():
    assert _poly_roots([0.0], -1.0, 1.0) == []
    assert _poly_roots([3.0], -1.0, 1.0) == []
    assert _poly_roots([-0.5, 1.0], -1.0, 1.0) == [0.5]
    assert _poly_roots([-2.0, 1.0], -1.0, 1.0) == []
    assert _poly_roots([0.0, 0.0, 1.0], -1.0, 1.0) == [0.0]   # double root, exact
    assert _poly_roots([-1.0, 0.0, 1.0], -1.0, 1.0) == [-1.0, 1.0]
    assert _poly_roots([-1.0, 0.0, 1.0], 1.0, 1.0) == [1.0]


def _bisect(fun, x: float, y: float) -> float:
    """Narrow a sign change of fun between the floats x and y by bisection
    until the float midpoint stops moving, and return the end on x's side
    (fun there has the sign of fun(x)); a midpoint where fun is exactly 0
    is returned at once."""
    positive = fun(x) > 0
    while True:
        mid = 0.5 * (x + y)
        if mid == x or mid == y:
            return x
        vm = fun(mid)
        if vm == 0:
            return mid
        if (vm > 0) == positive:
            x = mid
        else:
            y = mid


def test_poly_roots_newton_step_matches_bisection(monkeypatch):
    # seeded float polynomials of degree 1-8 on [a, b] = [-3, 2], with real
    # roots spread out or in clusters 1e-6 and 1e-9 apart, and complex pairs
    rng = random.Random(20261019)
    a, b = -3.0, 2.0
    compared = 0
    for trial in range(1200):
        deg = 1 + trial % 8
        roots = [rng.uniform(-4.0, 3.0) for _ in range(deg)]
        if deg >= 2 and trial % 5 == 1:
            roots[-1] = roots[0] + rng.choice((1e-6, 1e-9))
        p = float_poly_from_roots(roots, rng.choice((-1, 1)) * 10 ** rng.uniform(-2, 2))
        if deg >= 3 and trial % 5 == 2:
            p = _poly_mul(float_poly_from_roots(roots[2:], 1.0),
                          [rng.uniform(0.1, 2.0), rng.uniform(-1.0, 1.0), 1.0])
        got = _poly_roots(p, a, b)
        assert got == sorted(got) and all(a <= x <= b for x in got), (trial, got)
        for x in got:
            # Horner's rounding bound for p at x
            noise = sum(abs(c) * abs(x) ** i for i, c in enumerate(p))
            assert abs(_poly_eval(p, x)) <= 2 * (len(p) - 1) * 2.0 ** -52 * noise, (trial, x)
        spread = sorted(roots)
        if any(t - s < 1e-3 for s, t in zip(spread, spread[1:])):
            # in a cluster both steps stop at points within float noise of
            # the roots, not at the same points
            continue
        with monkeypatch.context() as m:
            m.setattr(orthopoly, "_newton",
                      lambda q, dq, x, y, positive: _bisect(lambda t: _poly_eval(q, t), x, y))
            want = _poly_roots(p, a, b)
        assert len(got) == len(want), (trial, got, want)
        for x, w in zip(got, want):
            # 1e-12 relative, plus how far Horner's rounding lets a float
            # root sit from the true one, which passes 1e-12 on 10 of the
            # ill-conditioned polynomials here (seen up to 5e-11)
            noise = sum(abs(c) * abs(w) ** i for i, c in enumerate(p))
            slack = 2 * (len(p) - 1) * 2.0 ** -52 * noise / abs(_poly_eval(_poly_deriv(p), w))
            assert abs(x - w) <= 1e-12 * max(1.0, abs(w)) + slack, (trial, got, want)
        compared += 1
    assert compared >= 900


def count_poly_evals(monkeypatch) -> list:
    """A list that grows by one at each call of `orthopoly._poly_eval`, the
    evaluator `_newton` and `_poly_roots` call; `positive_witness` calls it
    only to form a witness's value."""
    calls = []
    real = orthopoly._poly_eval
    monkeypatch.setattr(orthopoly, "_poly_eval", lambda *args: calls.append(1) or real(*args))
    return calls


def test_newton_step_needs_few_evaluations(monkeypatch):
    # a non-timing guard: bisection takes one evaluation per halving, about
    # 52 to narrow [1, 2] to adjacent floats; Newton converges quadratically
    # at two evaluations (p and p') per step
    p = float_poly_from_roots([-2.2, 0.3, 1.7], 1.0)
    calls = count_poly_evals(monkeypatch)
    x = _newton(p, _poly_deriv(p), 1.0, 2.0, positive=False)
    assert abs(x - 1.7) <= 1e-15 and len(calls) <= 20


def test_newton_takes_the_bracket_sign_from_its_caller(monkeypatch):
    # _poly_roots has evaluated p at every cut, so _newton is told the sign
    # at x and evaluates p only inside the bracket: on the lp-optimize
    # batches of seeds 1-3 the evaluation at x repeated 2,289 of 25,689
    p = float_poly_from_roots([-2.2, 0.3, 1.7], 1.0)
    at = []
    real = orthopoly._poly_eval
    monkeypatch.setattr(orthopoly, "_poly_eval",
                        lambda q, t: at.append((len(q), t)) or real(q, t))
    x = _newton(p, _poly_deriv(p), 1.0, 2.0, positive=False)
    assert abs(x - 1.7) <= 1e-15 and all(1.0 < t < 2.0 for _, t in at), at
    # in the cascade the cubic is evaluated once at each cut, -3 included,
    # where the first of its three pieces begins
    at.clear()
    assert _poly_roots(p, -3.0, 2.0) == pytest.approx([-2.2, 0.3, 1.7], abs=1e-15)
    assert at.count((4, -3.0)) == 1


def test_newton_stops_at_the_rounding_bound(monkeypatch):
    # a piece of f' from lp_bound_optimize(Params(9, 2), sqrt7, 7): Newton is
    # at the root in a few steps, and a solver that then bisects on the sign
    # of p(t), which is rounding noise there, takes 114 evaluations
    p = [-2.616390824440508, 1.7209669454496115, 0.9323156234722432]
    root = -2.8355893967051378   # the quadratic formula, in floats
    calls = count_poly_evals(monkeypatch)
    x = _newton(p, _poly_deriv(p), -5.0, -0.9229529689957233, positive=True)
    assert abs(x - root) <= 1e-15 * abs(root) and len(calls) <= 20


def test_lp_optimizer_separation_needs_few_evaluations(monkeypatch):
    # a non-timing guard on the whole call's evaluations: 2,634 when every
    # Newton solve ended by bisecting through the noise band around its root
    calls = count_poly_evals(monkeypatch)
    b = lp_bound_optimize(Params(5, 3), surd.sqrt(18), 4)
    assert b.theorem == "LP_OPT" and len(calls) <= 1500


def test_newton_step_degenerate_cases():
    # p' = 0 at the first point, the midpoint 0: a bisection step instead
    cube = [0.5, 0.0, 0.0, 1.0]
    assert _newton(cube, _poly_deriv(cube), -2.0, 2.0, positive=False) == pytest.approx(
        -0.5 ** (1 / 3), rel=1e-15)
    assert _poly_roots(cube, -2.0, 2.0) == [_newton(cube, _poly_deriv(cube), -2.0, 0.0,
                                                    positive=False)]
    # a root at an endpoint, and one float inside it
    assert _poly_roots([-1.0, 1.0], 1.0, 3.0) == [1.0]
    up = 1.0 + 2.0 ** -52
    assert _poly_roots([-up, 1.0], 1.0, 3.0) == [up]
    # degree 1, and a root between the adjacent floats 0 and 5e-324
    assert _newton([-0.1, 1.0], [1.0], -1.0, 1.0, positive=False) == 0.1
    tiny = 5e-324
    assert _newton([-tiny, 2.0], [2.0], 0.0, tiny, positive=False) in (0.0, tiny)


def test_critical_points_find_a_peak_a_grid_misses():
    # p = 1 - 1e8 (x - x0)^2 with x0 halfway between two points of a
    # 10^4-step grid on [-5, 5]: every grid value is below -20, while the
    # maximum over the endpoints and the roots of p' is the peak value 1
    lo, hi, n = -5.0, 5.0, 10 ** 4
    step = (hi - lo) / n
    x0 = lo + 6180.5 * step
    p = [1.0 - 1e8 * x0 * x0, 2e8 * x0, -1e8]
    assert max(_poly_eval(p, lo + step * t) for t in range(n + 1)) < -20.0
    crit = _poly_roots(_poly_deriv(p), lo, hi)
    assert len(crit) == 1 and abs(crit[0] - x0) <= 1e-12
    assert max(_poly_eval(p, x) for x in (lo, *crit, hi)) > 0.99
