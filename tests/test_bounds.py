"""Order bounds: closed form, certificates, LP evaluation/optimization,
integrality cuts, diameter and defect bounds, duality, and inversion."""

import functools
import json
import math
import os
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

from hyplp import bounds, orthopoly, simplex, surd
from hyplp.bounds import (BoundResult, DssCheck, LPConditionError, Number,
                          Refinement, _scan_G, closed_form_h_bound,
                          defect_region, diameter_order_bound, dss_gen_bound,
                          feng_li_threshold, imp2_bound,
                          integrality_refinements, largest_divisible_order,
                          lp_bound_evaluate, lp_bound_optimize, moore_order,
                          ru1_bound, select_diameter, strictly_below_int,
                          tau2_lower)
from hyplp.cli import _csv_rows, main, parse_theta
from hyplp.orthopoly import (FPoly, Params, _poly_eval, _poly_mul, _primitive,
                             _sign_at, fbasis_to_monomial, g_eval,
                             largest_zero_G, monomial_to_fbasis, positive_witness)
from poly_oracles import (at_k_reference, fbasis_to_monomial_reference,
                          poly_divmod, primitive_reference)

P32 = Params(3, 2)
P33 = Params(3, 3)
SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)

PETERSEN_CERT = FPoly(P32, (Fraction(5), Fraction(5), Fraction(3), Fraction(1)))


def test_moore_order_values():
    assert [moore_order(P32, d) for d in range(4)] == [1, 4, 10, 22]
    assert moore_order(P33, 2) == 31
    assert moore_order(Params(4, 2), 4) == 161


def test_select_diameter():
    # lambda_1 = -1 and lambda_2 = 1 at (3, 2): theta = lambda_d picks d
    assert select_diameter(P32, -1)[0] == 1
    assert select_diameter(P32, -3)[0] == 1
    assert select_diameter(P32, 1)[0] == 2
    assert select_diameter(P32, 1 + 1e-12)[0] == 3
    assert select_diameter(P32, 1.2)[0] == 3
    assert select_diameter(P32, SQRT2)[0] == 3
    # with G_{d-1}(theta) and F_d(theta), exact for an exact theta
    assert select_diameter(P32, surd.sqrt(2)) == (3, surd.sqrt(2), -3 * surd.sqrt(2))


def lambda_d_numpy(params, d):
    """Largest zero of G_d: the second eigenvalue of T(r, u, d, 1), by
    numpy on the symmetric matrix with off-diagonal sqrt(sub * super)."""
    s, t = params.u - 1, params.r - 1
    diag = [0.0] + [s - 1.0] * (d - 1) + [s * (t + 1) - 1.0]
    off = [math.sqrt(s * (t + 1))] + [math.sqrt(s * t)] * (d - 1)
    return np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))[-2]


@functools.lru_cache(maxsize=None)
def cached_lambda_d(params, d):
    return lambda_d_numpy(params, d)


def reference_diameter(params, theta):
    """The d with lambda_{d-1} < theta <= lambda_d, walking up numpy's
    lambda_d; within 1e-9 of lambda_d, the side of that simple zero is the
    sign of G_d(theta), computed exactly for an exact theta."""
    d = 1
    while True:
        gap = float(theta) - cached_lambda_d(params, d)
        if abs(gap) <= 1e-9:
            assert not isinstance(theta, float), (params, theta, d)
            if g_eval(params, d, theta) <= 0:
                return d
        elif gap < 0:
            return d
        d += 1


def test_select_diameter_matches_a_linear_scan():
    thetas = [(int(row["r"]), int(row["u"]), parse_theta(row["theta"]))
              for row in _csv_rows("h_catalog.csv")]
    for row in _csv_rows("table1.csv"):
        for key in ("lower", "lambda", "upper"):
            thetas.append((int(row["r"]), int(row["u"]), float(row[key])))
    ds = set()
    for r, u, theta in thetas:
        p = Params(r, u)
        if float(theta) >= p.top:
            continue
        d = select_diameter(p, theta)[0]
        assert d == reference_diameter(p, theta), (r, u, theta)
        ds.add(d)
    assert len(thetas) > 70 and {1, 2, 3, 4} <= ds


def test_select_diameter_matches_an_exact_reference_on_sqrt_thetas():
    # every theta = sqrt(N), N < 200, below the spectral top for r <= 11,
    # u <= 6: the sign scan in Q(sqrt N) against numpy's lambda_d, with the
    # zeros theta sits on exactly, (3, 3, sqrt5) and (4, 3, sqrt7), decided
    # by the exact G_d
    checked, ties = 0, 0
    for r in range(2, 12):
        for u in range(2, 7):
            p = Params(r, u)
            for n in range(1, 200):
                theta = surd.sqrt(n)
                if float(theta) >= p.top:
                    break
                d = select_diameter(p, theta)[0]
                assert d == reference_diameter(p, theta), (r, u, n)
                ties += g_eval(p, d, theta) == 0
                checked += 1
    assert checked > 4000 and ties >= 2


def test_select_diameter_refuses_beyond_the_cap(monkeypatch):
    # one pass of the recurrence, F_0 up to F_cap, and no zero search
    pulled = []
    real = bounds._f_iter

    def counted(params, x):
        for value in real(params, x):
            pulled.append(value)
            yield value

    def no_zero_search(*args):
        raise AssertionError("select_diameter should not compute lambda_d")

    monkeypatch.setattr(bounds, "_f_iter", counted)
    monkeypatch.setattr(bounds, "largest_zero_G", no_zero_search)
    monkeypatch.setattr(bounds, "largest_zero_gc", no_zero_search)
    monkeypatch.setattr(orthopoly, "zeros_above", no_zero_search)
    for theta in (2.8284, Fraction(28284, 10000)):
        pulled.clear()
        with pytest.raises(ValueError) as info:
            select_diameter(P32, theta)
        msg = str(info.value)
        assert "2.8284" in msg and "2.828427" in msg and str(bounds.DIAMETER_CAP) in msg
        assert len(pulled) == bounds.DIAMETER_CAP + 1
    pulled.clear()
    assert select_diameter(P32, 2.82)[0] == 41 == reference_diameter(P32, 2.82)
    assert len(pulled) == 42


def test_closed_form_settles_d_exactly_near_a_zero():
    # rational thetas at a largest zero of G_d, or 1e-10 either side of it:
    # the scan must end with G_{d-1}(theta) > 0 >= G_d(theta)
    cases = [(P32, Fraction(1))]
    for params in (P32, P33, Params(4, 2), Params(5, 3)):
        for d in range(1, 5):
            cases.append((params, Fraction(largest_zero_G(params, d))))
    for params, zero in cases:
        for theta in (zero - Fraction(1, 10 ** 10), zero, zero + Fraction(1, 10 ** 10)):
            b = closed_form_h_bound(params, theta)
            d = b.params["d"]
            assert g_eval(params, d - 1, theta) > 0 >= g_eval(params, d, theta), \
                (params, theta)
            assert b.params["c"] >= 1


def test_closed_form_sqrt_thetas_are_exact():
    # (3, 3, sqrt5) and (4, 3, sqrt7) sit exactly on lambda_2, so c = 1;
    # Heawood meets the (3, 2) bound at sqrt2 with c = 3
    for params, n, d, c, value in ((P33, 5, 2, 1, 31), (Params(4, 3), 7, 2, 1, 57),
                                   (P32, 2, 3, 3, 14)):
        b = closed_form_h_bound(params, surd.sqrt(n))
        assert b.params["d"] == d and b.value == value
        assert b.params["c"] == c and isinstance(b.params["c"], (int, Fraction))
        assert b.certificate is None
        # 3*31, 4*57 and 3*14 are divisible by u: no step changes the value
        assert integrality_refinements(b, params).refinements == ()
    b = closed_form_h_bound(Params(4, 2), surd.sqrt(2))
    assert b.value == Fraction(121, 5) - Fraction(18, 5) * surd.sqrt(2)
    assert str(b.value) == "121/5 - 18/5*sqrt2"
    assert float(b.value) == pytest.approx(19.108834, abs=1e-5)
    assert [step.name for step in integrality_refinements(b, Params(4, 2)).refinements] \
        == ["c-integrality"]


def test_closed_form_petersen_point():
    b = closed_form_h_bound(P32, 1)
    assert b.value == 10
    assert b.theorem == "CLOSED_FORM"
    assert b.params["d"] == 2 and b.params["c"] == 1
    assert b.certificate is not None
    assert b.certificate.coeffs == (5, 5, 3, 1)


def test_closed_form_exact_c_values():
    b = closed_form_h_bound(Params(5, 3), 2)
    assert b.value == 41 and b.params["c"] == Fraction(8, 3)
    b = closed_form_h_bound(P33, 2)
    assert b.value == 25 and b.params["c"] == Fraction(4, 3)
    b = closed_form_h_bound(P33, 0)
    assert b.value == 11 and b.params == {"r": 3, "u": 3, "theta": 0, "d": 2, "c": 6}


def test_closed_form_float_theta():
    b = closed_form_h_bound(Params(4, 2), SQRT2)
    assert b.value == pytest.approx(19.108834, abs=1e-5)
    # heawood meets the (3, 2) bound at sqrt(2): d = 3, c = 3, order 14
    b = closed_form_h_bound(P32, SQRT2)
    assert b.params["d"] == 3
    assert b.params["c"] == pytest.approx(3.0, abs=1e-9)
    assert b.value == pytest.approx(14.0, abs=1e-8)


def test_closed_form_low_theta_degenerates_to_d1():
    assert closed_form_h_bound(P32, -3).value == 2
    b = closed_form_h_bound(P32, -2)
    assert b.value == Fraction(5, 2) and b.params["c"] == 2


def test_closed_form_exact_and_float_paths_agree():
    for r, u, th in [(3, 2, Fraction(1, 2)), (4, 3, Fraction(3, 2)),
                     (3, 3, Fraction(-1, 3))]:
        p = Params(r, u)
        exact = closed_form_h_bound(p, th)
        approx = closed_form_h_bound(p, float(th))
        assert float(exact.value) == pytest.approx(approx.value, abs=1e-8)


def fraction_certificate(params, theta):
    """Reference for the integer route of `closed_form_h_bound`: the
    certificate in Fraction arithmetic, g_c^2/(x - theta) in monomial
    coefficients rewritten in the F-basis; None when an F-coefficient is
    negative."""
    d, gd1, fd = select_diameter(params, theta)
    gc = [Fraction(v) for v in fbasis_to_monomial(params, [-fd / gd1] * d + [1])]
    f = poly_divmod(_poly_mul(gc, gc), [-theta, Fraction(1)])[0]
    fb = monomial_to_fbasis(params, f)
    return tuple(fb) if all(v >= 0 for v in fb) else None


def test_closed_form_certificate_matches_the_fraction_construction():
    thetas = sorted({Fraction(n, m) for n in range(-24, 24) for m in (1, 2, 3, 7)})
    checked = 0
    for r in range(2, 7):
        for u in range(2, 5):
            params = Params(r, u)
            for theta in (t / 4 for t in thetas):
                try:
                    b = closed_form_h_bound(params, theta)
                except ValueError:
                    continue  # at or above the spectral top, or below -k
                expected = fraction_certificate(params, theta)
                got = b.certificate and b.certificate.coeffs
                assert got == expected, (r, u, theta)
                assert expected is None or all(
                    type(v) is Fraction for v in b.certificate.coeffs)
                checked += 1
    assert checked > 2000


def test_closed_form_negative_coefficient_builds_no_certificate(monkeypatch):
    # no theta of the sweep above gives one, so one is forced here
    real = bounds.monomial_to_fbasis
    monkeypatch.setattr(bounds, "monomial_to_fbasis",
                        lambda params, coeffs: [*real(params, coeffs)[:-1], -1])
    b = closed_form_h_bound(P32, 1)
    assert b.value == 10 and b.certificate is None


def test_closed_form_certificate_at_d_118():
    # 1e-3 below the top at (3, 2): g_c has degree 118 and f degree 235
    b = closed_form_h_bound(P32, Fraction("2.8274271247"))
    d, c, f = b.params["d"], b.params["c"], b.certificate
    assert d == 118 and f.degree == 2 * d - 1
    g = g_eval(P32, d - 1, b.params["theta"])
    assert c == -(g_eval(P32, d, b.params["theta"]) - g) / g
    assert b.value == moore_order(P32, d - 1) + Fraction(3 * 2 ** (d - 1)) / c
    assert float(b.value) == pytest.approx(7.313225264212306e35, rel=1e-15)
    assert Fraction(f.at_k(), f.nums[0]) == b.value
    assert all(v >= 0 for v in f.coeffs)


def test_closed_form_refuses_a_quotient_that_does_not_divide(monkeypatch, capsys):
    # a c off the zero of g_c at theta: bx - a cannot divide Q g_c, whether
    # a step of the division or its remainder shows it
    real = select_diameter

    def shifted(params, theta):
        d, gd1, fd = real(params, theta)
        return d, gd1, fd - 1

    monkeypatch.setattr(bounds, "select_diameter", shifted)
    for theta in (1, Fraction(5, 2), Fraction(-1, 3)):
        with pytest.raises(ArithmeticError, match="does not divide"):
            closed_form_h_bound(P32, theta)
    assert main(["bound", "closed-form", "--r", "3", "--u", "2",
                 "--theta", "5/2"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: internal: 2x - 5 does not divide")


def test_closed_form_domain_errors():
    with pytest.raises(ValueError):
        closed_form_h_bound(P32, 2 * SQRT2)  # at the spectral top
    with pytest.raises(ValueError):
        closed_form_h_bound(P32, -3.5)  # below -k


def test_certificate_reevaluates_to_same_bound():
    b = lp_bound_evaluate(P32, PETERSEN_CERT, taus=[1, -2])
    assert b.value == 10
    assert any("equality conditions met" in note for note in b.notes)
    assert any("girth >= 4" in note for note in b.notes)


def test_lp_evaluate_rejects_broken_hypotheses():
    with pytest.raises(LPConditionError) as e:
        lp_bound_evaluate(P32, FPoly(P32, (Fraction(0), Fraction(1))), taus=[-1])
    assert "f_0 > 0" in str(e.value)
    with pytest.raises(LPConditionError):
        lp_bound_evaluate(P32, FPoly(P32, (Fraction(1), Fraction(-1))), taus=[-1])
    with pytest.raises(LPConditionError):
        lp_bound_evaluate(P32, PETERSEN_CERT, taus=[3])  # f(3) = 50 > 0
    with pytest.raises(LPConditionError):
        lp_bound_evaluate(P32, PETERSEN_CERT, theta=2.0)  # positive inside interval
    with pytest.raises(ValueError):
        lp_bound_evaluate(P32, PETERSEN_CERT, taus=[1, 1])
    with pytest.raises(ValueError):
        lp_bound_evaluate(P32, PETERSEN_CERT)
    with pytest.raises(ValueError):
        lp_bound_evaluate(P32, PETERSEN_CERT, taus=[1], theta=1)
    with pytest.raises(ValueError):
        lp_bound_evaluate(Params(4, 2), PETERSEN_CERT, taus=[1])


def test_lp_evaluate_proves_float_taus_exactly():
    # f = (1 + 1e-10) F_0 + F_2 = x^2 - 2 + 1e-10 is positive at sqrt(2); a
    # 1e-9 tolerance on f(tau) once accepted it and called it tight
    above = FPoly(P32, (Fraction(10**10 + 1, 10**10), Fraction(0), Fraction(1)))
    with pytest.raises(LPConditionError) as e:
        lp_bound_evaluate(P32, above, taus=[SQRT2])
    assert "f(tau) <= 0" in str(e.value)
    # a float tau is the rational it holds: the double SQRT2 lies above
    # sqrt(2), where x^2 - 2 is positive, and the witness is that rational
    with pytest.raises(LPConditionError) as e:
        lp_bound_evaluate(P32, FPoly(P32, (1, 0, 1)), taus=[SQRT2])
    assert e.value.witness == (Fraction(SQRT2), Fraction(SQRT2) ** 2 - 2)
    # (x - 2)(x^2 - 2)^2 touches 0 at sqrt(2) from below, so it is negative
    # at the double SQRT2: strict there, as at 1.0 and -1
    touch = FPoly(P33, (34, 77, 20, 14, 2, 1))
    b = lp_bound_evaluate(P33, touch, taus=[SQRT2, 1.0, -1])
    assert b.value == 136
    assert b.notes[0] == (f"f < 0 strictly at [{SQRT2}, 1.0, -1]; "
                          f"equality impossible there")
    # x^2 - 2 - 1e-10 < 0 at the double SQRT2
    below = FPoly(P32, (Fraction(10**10 - 1, 10**10), Fraction(0), Fraction(1)))
    b = lp_bound_evaluate(P32, below, taus=[SQRT2])
    assert b.notes[0] == f"f < 0 strictly at [{SQRT2}]; equality impossible there"
    # at the exact sqrt(2), the touch polynomial meets equality
    b = lp_bound_evaluate(P33, touch, taus=[surd.sqrt(2), 1, -1])
    assert b.value == 136
    assert b.notes[0] == "f < 0 strictly at [1, -1]; equality impossible there"
    b = lp_bound_evaluate(P33, touch, taus=[surd.sqrt(2)])
    assert b.notes[0] == "f vanishes at every given tau (equality conditions met)"
    # x^2 - 2 changes sign at sqrt(2): 0 there, and positive at 1 + sqrt(2)
    b = lp_bound_evaluate(P32, FPoly(P32, (1, 0, 1)), taus=[surd.sqrt(2)])
    assert b.notes[0] == "f vanishes at every given tau (equality conditions met)"
    with pytest.raises(LPConditionError) as e:
        lp_bound_evaluate(P32, FPoly(P32, (1, 0, 1)), taus=[1 + surd.sqrt(2)])
    assert e.value.witness == (1 + surd.sqrt(2), 1 + 2 * surd.sqrt(2))


def test_lp_evaluate_decides_taus_distinct_exactly():
    # both taus round to the double 1.0, but they are distinct numbers; the
    # Petersen certificate (x - 1)(x + 2)^2 is 0 at 1 and negative below it
    below = 1 - Fraction(1, 10 ** 20)
    b = lp_bound_evaluate(P32, PETERSEN_CERT, taus=[1, below])
    assert b.value == 10
    assert b.notes[0] == f"f < 0 strictly at {[below]}; equality impossible there"
    for same in ([1, 1.0], [1, Fraction(2, 2)], [surd.sqrt(2), surd.sqrt(2) + 1 - 1],
                 [surd.sqrt(2), surd.sqrt(8) / 2]):
        with pytest.raises(ValueError, match="distinct"):
            lp_bound_evaluate(P32, PETERSEN_CERT, taus=same)


def fraction_verdict(params, coeffs, theta):
    """The interval-mode verdict of `lp_bound_evaluate` by the Fraction
    route that its integer check replaced: ("value", f(k)/f_0), or the
    failed condition with its witness."""
    coeffs = [Fraction(c) for c in coeffs]
    if coeffs[0] <= 0:
        return "f_0 > 0", coeffs[0]
    for i, fi in enumerate(coeffs):
        if i and fi < 0:
            return "f_i >= 0 for i >= 1", (i, fi)
    fk = at_k_reference(params, coeffs)
    if fk <= 0:
        return "f(k) > 0", fk
    mono = fbasis_to_monomial_reference(params, coeffs)
    whole = primitive_reference(mono)
    hi = theta if isinstance(theta, surd.Surd) else Fraction(theta)
    x = positive_witness(whole, Fraction(-params.r), hi, _sign_at(whole, hi))
    if x is not None:
        return bounds.INTERVAL_CONDITION, (x, _poly_eval(mono, x))
    return "value", fk / coeffs[0]


def certificate_sweep():
    """(params, F-basis coefficients, theta): closed-form certificates at
    seeded rational theta and LP_OPT ones at rational and sqrtN theta, each
    as built, loosened (f_0 * 7/8), raised (f_0 + 1/1000 and f_0 +
    1/10^10), with one f_i moved by a random rational, and with f_0
    negated; each checked at its own theta and at the sqrtN on either side
    of a positive rational one."""
    rng = random.Random(3201)
    bases = []
    while len(bases) < 30:
        params = Params(rng.randint(2, 6), rng.randint(2, 4))
        theta = Fraction(rng.randint(-6, 6 * math.floor(params.top - 0.3)), 6)
        try:
            cert = closed_form_h_bound(params, theta).certificate
        except ValueError:
            continue
        if cert is not None:
            bases.append((params, cert.coeffs, theta))
    for (r, u), theta, s in (((3, 2), 1, 4), ((5, 3), 2, 6), ((3, 2), surd.sqrt(2), 4),
                             ((4, 2), Fraction(3, 2), 5), ((5, 2), surd.sqrt(3), 4),
                             ((3, 3), Fraction(5, 2), 4)):
        params = Params(r, u)
        bases.append((params, lp_bound_optimize(params, theta, s).certificate.coeffs, theta))
    for params, coeffs, theta in bases:
        f0, *rest = coeffs
        i = rng.randrange(len(rest))
        moved = list(rest)
        moved[i] += Fraction(rng.randint(-9, 9), rng.randint(1, 10 ** rng.randint(1, 6)))
        thetas = [theta]
        if not isinstance(theta, surd.Surd) and theta > 0:
            square = theta * theta
            thetas += [surd.sqrt(n) for n in {math.floor(square), math.ceil(square)}
                       if n > 0 and n < params.top ** 2 and isinstance(surd.sqrt(n), surd.Surd)]
        for variant in ([f0, *rest], [f0 * Fraction(7, 8), *rest],
                        [f0 + Fraction(1, 1000), *rest], [f0 + Fraction(1, 10 ** 10), *rest],
                        [f0, *moved], [-f0, *rest]):
            for t in thetas:
                yield params, variant, t


def test_integer_fpoly_matches_the_fraction_reference():
    # the numerators over one denominator give the value, the primitive
    # polynomial and the verdict or witness of the Fraction route, exactly
    kinds = set()
    for params, coeffs, theta in certificate_sweep():
        f = FPoly(params, coeffs)
        assert all(type(v) is int for v in (*f.nums, f.den)) and f.den > 0
        assert math.gcd(*f.nums, f.den) == 1
        assert f.coeffs == tuple(coeffs) and all(type(c) is Fraction for c in f.coeffs)
        assert Fraction(f.at_k(), f.den) == at_k_reference(params, coeffs)
        assert _primitive(f.to_monomial()) == primitive_reference(
            fbasis_to_monomial_reference(params, coeffs))
        try:
            got = "value", lp_bound_evaluate(params, f, theta=theta).value
        except LPConditionError as exc:
            got = exc.condition, exc.witness
        assert got == fraction_verdict(params, coeffs, theta), (params, coeffs, theta)
        # the verdict, whether theta is a sqrtN, and whether a witness
        # point is the Surd theta itself
        point = got[1][0] if got[0] == bounds.INTERVAL_CONDITION else None
        kinds.add((got[0], isinstance(theta, surd.Surd), isinstance(point, surd.Surd)))
    assert kinds == {("value", False, False), ("value", True, False),
                     (bounds.INTERVAL_CONDITION, False, False),
                     (bounds.INTERVAL_CONDITION, True, False),
                     (bounds.INTERVAL_CONDITION, True, True),
                     ("f_0 > 0", False, False), ("f_0 > 0", True, False),
                     ("f_i >= 0 for i >= 1", False, False)}, kinds


def test_lp_evaluate_interval_mode_exact_value():
    f = FPoly(Params(6, 2), (Fraction(153, 2), Fraction(64), Fraction(121, 4),
                             Fraction(9), Fraction(1)))
    b = lp_bound_evaluate(Params(6, 2), f, theta=2)
    assert b.value == Fraction(136, 3)
    assert any("certified on [-6.0, 2.0]" in note for note in b.notes)
    assert any("vanishes at theta" in note for note in b.notes)


def test_lp_optimize_recovers_petersen_point():
    b = lp_bound_optimize(P32, 1.0, 4)
    assert 10 - 1e-4 <= b.value <= 10.01
    assert b.theorem == "LP_OPT"
    assert b.certificate is not None
    # the reported value must re-verify from the stored certificate
    again = lp_bound_evaluate(P32, b.certificate, theta=1.0)
    assert again.value == b.value


def test_lp_optimize_beats_closed_form_when_it_can():
    closed = closed_form_h_bound(Params(4, 2), SQRT2)
    b = lp_bound_optimize(Params(4, 2), SQRT2, 6)
    assert b.value <= 19.15
    assert float(b.value) < float(closed.value)
    assert b.value >= 18.4


def test_lp_optimize_matches_closed_form_when_it_cannot():
    # at (3, 3, sqrt3) the closed-form certificate is already LP-optimal
    closed = closed_form_h_bound(P33, SQRT3)
    b = lp_bound_optimize(P33, SQRT3, 8)
    assert b.value <= 20.86
    assert float(b.value) >= float(closed.value) - 1e-3
    assert float(closed.value) == pytest.approx(20.856406, abs=1e-5)


class ColdTableau:
    """The optimizer's LP solved from the slack basis when it is built and
    after every added column, as the optimizer did before its tableau was
    kept across rounds; `solves` holds each solve's pivot count."""

    def __init__(self, c, a, b):
        self.c, self.a, self.b = list(c), [list(row) for row in a], list(b)
        self.solves = []
        self._solve()

    def add_column(self, c_j, col):
        self.c.append(c_j)
        for row, v in zip(self.a, col):
            row.append(v)
        self._solve()

    def _solve(self):
        self.res = simplex.Tableau(self.c, self.a, self.b).result()
        self.solves.append(self.res.pivots)

    def result(self):
        return self.res


def cutting_plane_only(monkeypatch):
    """Patch the Newton phase out of `lp_bound_optimize`: every round then
    ends by adding its argmax as a column, as before the phase existed."""
    monkeypatch.setattr(bounds, "_touch_newton", lambda *args: None)


def test_lp_optimize_clamps_round_off_duals(monkeypatch):
    # a dual that should be 0 but comes back as -3.3e-18 must not reach the
    # exact certificate check, which would reject f_i < 0; on the cutting-plane
    # path, since a certificate from the Newton phase takes its zeros from its
    # own solve, not from the duals
    cutting_plane_only(monkeypatch)
    hits = []

    class Noisy(simplex.Tableau):
        def result(self):
            res = super().result()
            duals = list(res.duals)
            duals[duals.index(0.0)] -= 3.3e-18
            hits.append(min(duals))
            return res.replace(duals=tuple(duals))

    monkeypatch.setattr(bounds, "Tableau", Noisy)
    b = lp_bound_optimize(Params(4, 2), SQRT2, 6)
    # every round read its duals through the patch, the last one included
    assert len(hits) == b.params["rounds"] >= 2
    assert hits[-1] == -3.3e-18
    assert b.theorem == "LP_OPT"
    assert all(c >= 0 for c in b.certificate.coeffs[1:])


# pivots of the whole (4, 2, sqrt 2, 6) call on the kept tableau, with the
# Newton phase patched out: 17 when measured, over 13 rounds from the 7
# Chebyshev seeds; solving each round's LP from the slack basis took 118
WARM_PIVOTS = 20


def test_lp_optimize_pivot_count(monkeypatch):
    # a non-timing guard on the simplex: lowest-index pricing alone needed
    # 45,794 pivots here, and most-negative pricing from the slack basis in
    # every round needs 118; the kept tableau prices only each round's new
    # column.  The Newton phase ends this call after 3 rounds, too few for a
    # cold solve to show, so the guard runs on the cutting-plane path
    cutting_plane_only(monkeypatch)
    seen = []

    class Counted(simplex.Tableau):
        def result(self):
            res = super().result()
            seen.append(res.pivots)
            return res

    monkeypatch.setattr(bounds, "Tableau", Counted)
    b = lp_bound_optimize(Params(4, 2), SQRT2, 6)
    assert len(seen) == b.params["rounds"] >= 2
    # pivots count from the tableau's construction, so the last read is the
    # call's total, and the call reports it
    assert b.params["pivots"] == seen[-1] <= WARM_PIVOTS

    # the guard tells the two apart: a cold solve per round goes over it
    cold = []

    def cold_tableau(c, a, b):
        cold.append(ColdTableau(c, a, b))
        return cold[-1]

    monkeypatch.setattr(bounds, "Tableau", cold_tableau)
    again = lp_bound_optimize(Params(4, 2), SQRT2, 6)
    assert again.params["rounds"] == b.params["rounds"]
    assert sum(cold[0].solves) > WARM_PIVOTS


def test_lp_optimize_warm_tableau_matches_a_cold_resolve(monkeypatch):
    # the kept tableau must walk the same constraint-generation path as
    # re-solving every round's LP from scratch: same rounds, same points,
    # same certified value, on seeded catalog cells
    rng = random.Random(20261019)
    cells = rng.sample(_csv_rows("h_catalog.csv"), 10)
    compared = 0
    for row in cells:
        r, u, s = int(row["r"]), int(row["u"]), rng.choice((3, 4, 5, 6))
        theta = parse_theta(row["theta"])
        outcomes = []
        for table in (simplex.Tableau, ColdTableau):
            monkeypatch.setattr(bounds, "Tableau", table)
            try:
                outcomes.append(lp_bound_optimize(Params(r, u), theta, s))
            except ValueError as exc:
                outcomes.append(str(exc))
        warm, cold = outcomes
        cell = (r, u, row["theta"], s)
        if isinstance(warm, str):
            assert warm == cold, cell
            continue
        assert isinstance(cold, BoundResult), cell
        for key in ("rounds", "points"):
            assert warm.params[key] == cold.params[key], (cell, key)
        assert float(warm.value) == pytest.approx(float(cold.value), rel=1e-12), cell
        compared += 1
    assert compared >= 6


def test_lp_optimize_separation_work_is_polynomial_in_s(monkeypatch):
    # the 2s + 1 seed columns, then each round evaluates f at -r, theta and
    # the roots of f' (at most s + 1 points) and adds one column: O(s) calls
    # of f_values, where a 10^4-point scan of [-r, theta] would make 10^4
    # per round.  The Newton phase evaluates F at its touches (at most s)
    # once per step; checked on both paths, the cutting-plane one with 13
    # rounds and the phase's with 2
    calls = []
    real = bounds.f_values

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(bounds, "f_values", counted)
    s = 6
    seeds = 2 * s + 1
    for newton in (True, False):
        if not newton:
            cutting_plane_only(monkeypatch)
        calls.clear()
        b = lp_bound_optimize(Params(10, 2), surd.sqrt(5), s)
        assert b.params["rounds"] >= 2
        assert len(calls) - seeds <= (s + 1) ** 2 * b.params["rounds"]


def test_lp_optimize_seeds_end_exactly_at_theta(monkeypatch):
    # the Chebyshev formula gives lo + (th - lo) (1 - cos pi) / 2 =
    # 1.414213562373095 at the top, one ulp below float(sqrt 2); the seeds
    # are the columns built first, one f_values call each
    xs = []
    real = bounds.f_values
    monkeypatch.setattr(bounds, "f_values", lambda p, s, x: xs.append(x) or real(p, s, x))
    for s in (3, 4, 6):
        xs.clear()
        lp_bound_optimize(P32, surd.sqrt(2), s)
        assert xs[0] == -3.0 and xs[2 * s] == SQRT2 == 1.4142135623730951, (s, xs[:2 * s + 1])


def test_lp_optimize_newton_phase_cuts_rounds(monkeypatch):
    # the benchmark's three anchors: Kelley's cutting plane bisects the
    # pair of points around each interior touch, a factor 4 in the
    # violation per round; Newton's method on the touches ends in 1-2
    anchors = {(Params(5, 3), surd.sqrt(18), 4): 15, (Params(5, 3), 2, 6): 12,
               (P32, 1, 4): 13}
    fast = {cell: lp_bound_optimize(*cell) for cell in anchors}
    cutting_plane_only(monkeypatch)
    for cell, rounds in anchors.items():
        slow = lp_bound_optimize(*cell)
        assert slow.params["rounds"] == rounds, cell
        assert fast[cell].params["rounds"] <= 2, cell
        assert fast[cell].value <= slow.value, cell
    # the README example: touches at -3 (the end) and -1 and 1, where the
    # Petersen graph's eigenvalues lie, in one round on the 9 seeds
    b = fast[(P32, 1, 4)]
    assert b.value == Fraction(111111, 11111)
    assert (b.params["rounds"], b.params["points"]) == (1, 9)


def test_lp_optimize_newton_phase_never_raises_the_value(monkeypatch):
    # seeded h-catalog cells: the value with the phase is never above the
    # cutting-plane value, and every LP_OPT is proved by lp_bound_evaluate
    rng = random.Random(20261020)
    cells = rng.sample(_csv_rows("h_catalog.csv"), 24)
    compared = 0
    for row in cells:
        r, u, s = int(row["r"]), int(row["u"]), rng.randint(3, 7)
        theta = parse_theta(row["theta"])
        outcomes = []
        for patched in (False, True):
            if patched:
                cutting_plane_only(monkeypatch)
            try:
                outcomes.append(lp_bound_optimize(Params(r, u), theta, s))
            except ValueError as exc:
                outcomes.append(str(exc))
        monkeypatch.undo()
        newton, cutting = outcomes
        cell = (r, u, row["theta"], s)
        if isinstance(newton, str):
            assert newton == cutting, cell
            continue
        assert newton.theorem == "LP_OPT", cell
        assert newton.value <= cutting.value, cell
        again = lp_bound_evaluate(Params(r, u), newton.certificate, theta=theta)
        assert again.value == newton.value, cell
        compared += 1
    assert compared >= 16


def test_touch_newton_rejects_a_negative_reduced_cost(monkeypatch):
    # the degree-3 optimum at (5, 2, 7/4), offered as a degree-4 touch set:
    # the same equations, touches, masses and f pass every other check, but
    # the degree-4 optimum is lower, so by weak duality the masses break the
    # new constraint F_4(k) + sum mu_i F_4(x_i) >= 0; the phase must decline
    params, theta = Params(5, 2), Fraction(7, 4)
    real = bounds._touch_newton
    seen = []
    monkeypatch.setattr(bounds, "_touch_newton",
                        lambda *args: seen.append((args, real(*args))) or seen[-1][1])
    low = lp_bound_optimize(params, theta, 3)
    args, accepted = seen[-1]
    assert accepted is not None and low.params["rounds"] == len(seen)
    _, fk, tables, res, points, crit, lo, th = args
    tables4 = tables + [[float(c) for c in orthopoly.f_monomial(params, 4)]]
    padded = res.replace(duals=res.duals + (0.0,))
    fk4 = float(params.k * params.q ** 3)
    assert real(params, fk + [fk4], tables4, padded, points, crit, lo, th) is None
    # the control: with F_4(k) raised to 10^12 the reduced cost of f_4 turns
    # positive, and the same touch set passes
    assert real(params, fk + [1e12], tables4, padded, points, crit, lo, th) is not None
    # at degree 4 the rounds where the phase declines go on by adding their
    # argmax as a column, down to the lower optimum; this cell declines none
    # on its 2s + 1 seeds, and (5, 3, sqrt 18) at degree 4 declines one
    seen.clear()
    high = lp_bound_optimize(params, theta, 4)
    assert float(high.value) < float(low.value) - 3
    declined = sum(out is None for _, out in seen)
    assert high.params["points"] == 2 * 4 + 1 + declined
    seen.clear()
    b = lp_bound_optimize(Params(5, 3), surd.sqrt(18), 4)
    declined = sum(out is None for _, out in seen)
    assert declined >= 1 and b.params["rounds"] == len(seen) == declined + 1
    assert b.params["points"] == 2 * 4 + 1 + declined


# perfbench's lp-optimize calls: its two pools, plus the three anchors and
# the kept call that perfbench/workloads.py adds to every batch
POOLS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "pools.json")
LP_ANCHORS_AND_KEPT = ((5, 3, "sqrt18", 4), (5, 2, "sqrt3", 4), (5, 3, "2", 6),
                       (8, 2, "2", 7))


def test_lp_optimize_on_the_benchmark_calls(capsys):
    # every call exits 0 in at most 2 rounds on its 2s + 1 seeds, and
    # lp_bound_evaluate proves its printed certificate and value again
    with open(POOLS) as fh:
        pools = json.load(fh)
    calls = [row[:4] for row in pools["lp_fast"] + pools["lp_stall"]]
    calls += LP_ANCHORS_AND_KEPT
    assert len(calls) == 128
    for r, u, theta, s in calls:
        argv = ["bound", "lp", "--r", str(r), "--u", str(u), f"--theta={theta}",
                "--degree", str(s), "--format", "json"]
        assert main(argv) == 0, argv
        out = json.loads(capsys.readouterr().out)
        assert out["theorem"] == "LP_OPT" and out["rounds"] <= 2, argv
        params = Params(r, u)
        f = FPoly(params, tuple(Fraction(c) for c in out["certificate_f_basis"]))
        again = lp_bound_evaluate(params, f, theta=parse_theta(theta))
        assert again.value == Fraction(out["value"]), argv


def grid_lp_optimum(r, u, theta, s, npts=40001):
    """min 1 + sum f_j F_j(k) over f_j >= 0 with 1 + sum f_j F_j(x) <= 0 on
    a uniform grid of [-r, theta], by scipy's HiGHS solver."""
    k, q, shift = r * (u - 1), (r - 1) * (u - 1), u - 2
    xs = np.linspace(-r, theta, npts)
    cols = [np.ones_like(xs), xs, xs * xs - shift * xs - k]
    while len(cols) <= s:
        cols.append((xs - shift) * cols[-1] - q * cols[-2])
    fk = [float(k * q ** (j - 1)) for j in range(1, s + 1)]
    res = linprog(fk, A_ub=np.stack(cols[1:s + 1], axis=1), b_ub=-np.ones(npts),
                  bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return 1.0 + res.fun


def test_lp_optimize_matches_linprog_on_a_fine_grid():
    # the float LP optimum the exchange reached, before f_0 takes the
    # residual and the headroom: 1 + sum f_j F_j(k) = f(k) - f_0 + 1
    rng = random.Random(20261018)
    cells = rng.sample(_csv_rows("h_catalog.csv"), 12)
    compared = 0
    for row in cells:
        r, u, s = int(row["r"]), int(row["u"]), rng.choice((4, 5, 6))
        theta = parse_theta(row["theta"])
        try:
            b = lp_bound_optimize(Params(r, u), theta, s)
        except ValueError as exc:
            assert "too low" in str(exc)
            continue
        f = b.certificate
        got = float(Fraction(f.at_k() - f.nums[0], f.den) + 1)
        want = grid_lp_optimum(r, u, float(theta), s)
        assert got == pytest.approx(want, rel=1e-6), (r, u, row["theta"], s)
        compared += 1
    assert compared >= 8


def test_lp_optimize_input_validation():
    with pytest.raises(ValueError):
        lp_bound_optimize(P32, 1.0, 0)
    with pytest.raises(ValueError):
        lp_bound_optimize(P32, 3.0, 4)
    with pytest.raises(ValueError):
        lp_bound_optimize(P32, -3.5, 4)


def test_strictly_below_and_divisibility():
    assert strictly_below_int(5) == 4
    assert strictly_below_int(5.0) == 4
    assert strictly_below_int(5.3) == 5
    assert strictly_below_int(Fraction(136, 3)) == 45
    assert largest_divisible_order(41, 5, 3) == 39
    assert largest_divisible_order(24.7, 3, 3) == 24
    assert largest_divisible_order(Fraction(49, 2), 3, 2) == 24


def test_integrality_refinement_chain():
    b = integrality_refinements(closed_form_h_bound(P33, 2), P33)
    assert b.value == 24
    assert [s.name for s in b.refinements] == ["c-integrality"]
    assert (b.refinements[0].before, b.refinements[0].after) == (25, 24)
    b = integrality_refinements(closed_form_h_bound(Params(5, 3), 2), Params(5, 3))
    assert b.value == 39
    assert [(s.name, s.before, s.after) for s in b.refinements] == [
        ("c-integrality", 41, 40), ("divisibility", 40, 39)]
    # integer c and an order already divisible: no strict cut, and the
    # divisibility step, which would read 10 -> 10 and 33 -> 33, is left out
    b = integrality_refinements(closed_form_h_bound(P32, 1), P32)
    assert b.value == 10 and b.refinements == ()
    b = integrality_refinements(closed_form_h_bound(Params(4, 3), 2), Params(4, 3))
    assert b.value == 33 and b.refinements == ()


def test_feng_li_threshold_values():
    assert feng_li_threshold(P32, 1) == pytest.approx(1.0)
    assert feng_li_threshold(P33, 1) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        feng_li_threshold(P32, 0)


def test_diameter_order_bound():
    b = diameter_order_bound(P32, 1)
    assert b.value == 10 and b.params["equality_possible"]
    assert diameter_order_bound(P33, 1).value == 31
    assert not diameter_order_bound(P33, 1).params["equality_possible"]
    assert diameter_order_bound(Params(4, 2), 2).value == 161
    with pytest.raises(ValueError):
        diameter_order_bound(Params(2, 2), 1)
    with pytest.raises(ValueError):
        diameter_order_bound(P32, 0)


def test_dss_check_petersen_tight():
    for lam in (1, -2):
        chk = dss_gen_bound(P32, 2, 10, lam)
        assert chk.passed and chk.slack == 0
        assert chk.order_bound == 10


def test_dss_check_failure_reports_order_cap():
    chk = dss_gen_bound(Params(5, 2), 2, 32, 2)
    assert not chk.passed
    assert chk.slack == -8
    assert chk.order_bound == 24
    with pytest.raises(ValueError):
        dss_gen_bound(P32, 2, 10, 3)  # lam = k
    with pytest.raises(ValueError):
        dss_gen_bound(P32, 0, 10, 1)


def test_imp2_cases():
    b = imp2_bound(Params(8, 2), 2, 2.19258)
    assert b.params["case"] == "between"
    assert b.value == pytest.approx(64.99977, abs=1e-3)
    b = imp2_bound(P32, 2, Fraction(1, 2))
    assert b.params["case"] == "between"
    assert b.params["c"] == Fraction(11, 6)
    assert b.value == 4 + 6 / Fraction(11, 6)
    b = imp2_bound(P32, 2, -1.0)
    assert b.params["case"] == "at-or-below-lambda_{d-1}"
    assert b.value == 4
    b = imp2_bound(P32, 2, 1.5)
    assert b.params["case"] == "at-or-above-lambda_d"
    assert b.value == pytest.approx(10 - 1.75, abs=1e-9)
    # lambda_1 = -1 and lambda_2 = 1 at (3, 2), decided exactly: on a zero
    # counts as on it, 1e-10 inside it as between
    b = imp2_bound(P32, 2, 1)
    assert b.params["case"] == "at-or-above-lambda_d" and b.value == 10
    b = imp2_bound(P32, 2, -1)
    assert b.params["case"] == "at-or-below-lambda_{d-1}" and b.value == 4
    for tau in (1 - Fraction(1, 10 ** 10), -1 + Fraction(1, 10 ** 10),
                1 - 1e-10, -1 + 1e-10):
        assert imp2_bound(P32, 2, tau).params["case"] == "between", tau
    b = imp2_bound(P33, 2, surd.sqrt(5))
    assert b.params["case"] == "at-or-above-lambda_d" and b.value == 31
    b = imp2_bound(P33, 2, 2)
    assert (b.params["case"], b.params["c"], b.value) == ("between", Fraction(4, 3), 25)


def test_imp2_between_stays_below_comparison():
    # the "between" branch does not exceed moore(d) + G_d(tau2): exactly at
    # rational tau2, and up to float rounding at float tau2
    for r, u in [(3, 2), (4, 2), (3, 3)]:
        p = Params(r, u)
        for d in (2, 3):
            lo = largest_zero_G(p, d - 1)
            hi = largest_zero_G(p, d)
            for t in range(1, 10):
                tau = Fraction(lo) + (Fraction(hi) - Fraction(lo)) * t / 10
                b = imp2_bound(p, d, tau)
                assert b.params["case"] == "between", (r, u, d, tau)
                assert b.value <= moore_order(p, d) + g_eval(p, d, tau), (r, u, d, tau)
                tau = lo + (hi - lo) * t / 10
                b = imp2_bound(p, d, tau)
                rhs = moore_order(p, d) + g_eval(p, d, tau)
                assert b.params["case"] == "between", (r, u, d, tau)
                assert b.value <= rhs + 1e-7 * max(1.0, abs(rhs)), (r, u, d, tau)


def test_defect_region_collapses_at_zero():
    for p, d in [(Params(8, 2), 2), (P32, 3), (Params(4, 2), 4)]:
        lower, mid, upper = defect_region(p, d, 0)
        assert mid == pytest.approx(largest_zero_G(p, d), abs=1e-8)
        assert lower == pytest.approx(mid, abs=1e-6)
        assert upper == pytest.approx(mid, abs=1e-6)


def test_defect_region_widens_with_defect():
    p = Params(8, 2)
    prev_lower, _, prev_upper = defect_region(p, 2, 0)
    for e in (2, 5, 8, 20):
        lower, _, upper = defect_region(p, 2, e)
        assert lower < prev_lower and upper > prev_upper
        prev_lower, prev_upper = lower, upper


def test_defect_region_known_row():
    lower, mid, upper = defect_region(Params(8, 2), 2, 8)
    assert lower == pytest.approx(2.09503, abs=5e-6)
    assert mid == pytest.approx(2.19258, abs=5e-6)
    assert upper == pytest.approx(3.40512, abs=5e-6)


def test_defect_region_matches_the_diameter_2_closed_forms():
    # the closed forms defect_region used at d = 2: lower solves
    # x^2 + (K - u + 2)x + K - k = 0 with K = kq/(kq - e), upper solves
    # G_2(x) = x^2 - (u - 3)x + 1 - k = e
    for r, u in [(3, 2), (8, 2), (2, 3), (3, 3), (4, 3), (5, 4), (7, 6)]:
        p = Params(r, u)
        k, q = p.k, p.q
        for e in (0, 1, 2.5, k * q / 3, k * q - 1):
            bigk = k * q / (k * q - e)
            lower = (u - 2 - bigk + math.sqrt((u - bigk) ** 2 + 4 * q)) / 2
            upper = (u - 3 + math.sqrt((u - 1) ** 2 + 4 * q + 4 * e)) / 2
            got = defect_region(p, 2, e)
            # the lower formula cancels terms of size K, and so loses K ulps
            assert abs(got[0] - lower) <= 4e-16 * (bigk + k), (r, u, e)
            assert got[2] == pytest.approx(upper, rel=1e-15), (r, u, e)
            assert got[1] == largest_zero_G(p, 2)


def test_defect_region_validation():
    with pytest.raises(ValueError):
        defect_region(P32, 1, 0)
    with pytest.raises(ValueError):
        defect_region(P32, 2, -1)
    with pytest.raises(ValueError):
        defect_region(P32, 2, 6)  # cap is k*q = 6


def test_defect_region_refuses_a_bracket_where_G_d_reaches_e(monkeypatch):
    # upper is bracketed from the floor of lambda_{d-1}, where G_d < 0 <= e;
    # a bracket start with G_d >= e is an internal failure
    monkeypatch.setattr(bounds, "largest_zero_G", lambda p, j: float(p.k))
    with pytest.raises(ArithmeticError, match="floor of lambda_1"):
        defect_region(Params(8, 2), 2, 8)


# Reference helpers: facts from the paper that no CLI path needs, used by the
# tests below only.


def defect_lower_bounds(params: Params, d: int, tau2: Number) -> Number:
    """Minimum defect forced by tau2 at diameter d, in the three ranges of
    `imp2_bound`: kq^(d-1) at or below lambda_{d-1}, G_d(tau2) above
    lambda_d, and kq^(d-1) G_d(tau2) / F_d(tau2) from lambda_{d-1} up to
    lambda_d, where it is 0."""
    if d < 1:
        raise ValueError("d must be >= 1")
    cap = params.k * params.q ** (d - 1)
    stop, g, f = _scan_G(params, tau2, d)
    if stop < d:
        return cap
    if f is None:
        return g
    return cap * (g + f) / f


def duality_transform(r: int, u: int, theta: Number):
    """Parameter swap (r,u,theta) -> (u, r, theta + r - u) with value scale
    u/r; applying it twice returns the starting point."""
    if r < 2 or u < 2:
        raise ValueError("need r, u >= 2")
    return u, r, theta + (r - u), Fraction(u, r)


def biregular_bound(params: Params, base: BoundResult) -> Number:
    """Scale an order bound to the two-sided count of the incidence graph:
    (r+u)/u times the base value."""
    return Fraction(params.r + params.u, params.u) * base.value


def test_defect_lower_bounds_inverts_the_region():
    for p, d in [(Params(8, 2), 2), (P32, 3)]:
        for e in (1.0, 3.0, 5.0):
            lower, _, upper = defect_region(p, d, e)
            assert defect_lower_bounds(p, d, lower) == pytest.approx(e, abs=1e-6)
            assert defect_lower_bounds(p, d, upper) == pytest.approx(e, abs=1e-6)


def test_defect_lower_bounds_extremes():
    assert defect_lower_bounds(P32, 2, 1.0) == pytest.approx(0.0, abs=1e-9)
    assert defect_lower_bounds(P32, 2, -1.5) == 6.0  # full k*q below lambda_1


def test_duality_transform_involution():
    r2, u2, th2, scale = duality_transform(4, 3, 1)
    assert (r2, u2, th2, scale) == (3, 4, 2, Fraction(3, 4))
    r3, u3, th3, scale2 = duality_transform(r2, u2, th2)
    assert (r3, u3, th3) == (4, 3, 1)
    assert scale * scale2 == 1
    with pytest.raises(ValueError):
        duality_transform(1, 3, 0)


def test_ru1_bound_availability():
    b = ru1_bound(16, 3)
    assert b is not None and b.value == 51
    assert ru1_bound(15, 3) is None
    assert ru1_bound(24, 4).value == 100
    with pytest.raises(ValueError):
        ru1_bound(5, 2)


def test_tau2_lower_examples():
    assert tau2_lower(P32, 10)[:2] == (2, 1)
    assert tau2_lower(P32, 10)[2] == pytest.approx(1.0, abs=1e-9)
    d, c, lam = tau2_lower(P32, 4)
    assert (d, c) == (1, 1) and lam == -1.0
    d, c, lam = tau2_lower(P32, 2)
    assert (d, c) == (1, 3) and lam == -3.0
    d, c, lam = tau2_lower(Params(4, 3), 15)
    assert (d, c) == (2, 8)
    assert lam == pytest.approx(0.0, abs=1e-9)
    d, c, lam = tau2_lower(P33, 9)
    assert (d, c) == (2, 12)
    assert lam == pytest.approx((-11 + math.sqrt(97)) / 2, abs=1e-9)
    with pytest.raises(ValueError):
        tau2_lower(P32, 1)


def test_order_to_tau2_and_back():
    # h_bound(tau2_lower(n)) returns n for orders between Moore levels
    for r, u in [(3, 2), (4, 2), (3, 3), (4, 3)]:
        p = Params(r, u)
        for n in range(3, 40, 3):
            d, c, lam = tau2_lower(p, n)
            back = closed_form_h_bound(p, lam)
            assert float(back.value) == pytest.approx(n, rel=1e-6), (r, u, n)


def test_closed_form_monotone_in_theta():
    for r, u in [(3, 2), (3, 3)]:
        p = Params(r, u)
        top = u - 2 + 2 * math.sqrt((r - 1) * (u - 1))
        prev = 0.0
        for t in range(60):
            th = -r + (top - 0.01 + r) * t / 59
            v = float(closed_form_h_bound(p, th).value)
            assert v >= prev - 1e-7, (r, u, th)
            prev = v


def test_biregular_bound_scales():
    base = closed_form_h_bound(P32, 1)
    assert biregular_bound(P32, base) == 25
    floatbase = BoundResult(10.0, "CLOSED_FORM", {})
    assert biregular_bound(P32, floatbase) == 25.0
    # a value in Q(sqrt 2) scales within it: (4 + 2)/2 (121/5 - 18/5 sqrt 2)
    surdbase = closed_form_h_bound(Params(4, 2), surd.sqrt(2))
    assert biregular_bound(Params(4, 2), surdbase) == Fraction(363, 5) - Fraction(54, 5) * surd.sqrt(2)


def test_bound_result_rejects_non_finite():
    with pytest.raises(ValueError):
        BoundResult(math.inf, "X", {})


def test_bound_result_takes_exact_values_past_the_float_range():
    # an int, Fraction or Surd is finite whatever its size; float() of one
    # past 1.8e308 raised OverflowError
    for value in (10 ** 400, Fraction(10 ** 400, 3), surd.sqrt(2) * 10 ** 400):
        assert BoundResult(value, "X", {}).value == value


def test_refinement_records_are_frozen():
    ref = Refinement("c-integrality", 25, 24, "c = 5/2 not an integer")
    with pytest.raises(AttributeError):
        ref.after = 23
    chk = DssCheck(True, 0, 10, {})
    with pytest.raises(AttributeError):
        chk.passed = False
