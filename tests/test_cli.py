"""Command line behavior: argument parsing, output formats, exit codes, and
pipe composition."""

import csv
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from operator import mul

import numpy as np
import pytest

from hyplp import bounds, cli, constructions, hypergraph, spectra, surd
from hyplp.cli import (UsageError, fmt, jval, load_certificate, main,
                       parse_theta)
from hyplp.constructions import (hypergraph_from_oa, mols_cyclic, named_fixture,
                                 oa_from_mols)
from hyplp.hypergraph import Hypergraph, dual, incident
from hyplp.orthopoly import (Params, _gc_monomial, _poly_deriv,
                             _poly_eval, _prs, _sign_changes, f_values)
from conftest import cycle, random_regular_uniform
from walk_oracles import bfs_connected

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def text_value(out, key):
    for line in out.splitlines():
        if line.startswith(key + ":"):
            return line.split(":", 1)[1].strip()
    raise KeyError(key)


def test_parse_theta():
    assert parse_theta("2") == 2 and isinstance(parse_theta("2"), int)
    assert parse_theta("-1") == -1
    assert parse_theta("3/2") == Fraction(3, 2)
    assert parse_theta("0.5") == Fraction(1, 2)
    # sqrtN is exact: an int for a square N, else a Surd whose float is
    # math.sqrt(N) to the bit
    assert parse_theta("sqrt2") == surd.sqrt(2) and isinstance(parse_theta("sqrt2"), surd.Surd)
    assert float(parse_theta(" sqrt10 ")) == math.sqrt(10)
    assert parse_theta("sqrt9") == 3 and isinstance(parse_theta("sqrt9"), int)
    for bad in ("sqrtx", "sqrt0", "sqrt-3", "abc", "1/0", ""):
        with pytest.raises(UsageError):
            parse_theta(bad)


def test_fmt_rules():
    assert fmt(True) == "yes" and fmt(False) == "no"
    assert fmt(5) == "5"
    assert fmt(Fraction(3, 2)) == "3/2"
    assert fmt(Fraction(8, 2)) == "4"
    assert fmt(Fraction(10 ** 7 + 1, 10 ** 7)) == "1.00000"
    assert fmt(1.5) == "1.50000"
    assert fmt(math.inf) == "inf"
    assert fmt("word") == "word"


def test_jval_rules():
    assert jval(Fraction(1, 2)) == "1/2"
    assert jval(Fraction(4, 1)) == 4
    assert jval(math.inf) == "inf"
    assert jval({"a": [Fraction(1, 3), 2.5]}) == {"a": ["1/3", 2.5]}
    assert jval(True) is True


def test_bound_closed_form_text(capsys):
    code, out, err = run(capsys, "bound", "closed-form", "--r", "3", "--u", "2",
                         "--theta", "1")
    assert code == 0
    assert text_value(out, "theorem") == "CLOSED_FORM"
    assert text_value(out, "value") == "10"
    assert text_value(out, "d") == "2" and text_value(out, "c") == "1"
    assert text_value(out, "certificate_f_basis") == "(5, 5, 3, 1)"
    # 3*10 is even: the divisibility step changes nothing and is not printed
    assert "refinement" not in out


def test_bound_closed_form_refinement_trail(capsys):
    code, out, _ = run(capsys, "bound", "closed-form", "--r", "3", "--u", "3",
                       "--theta", "2")
    assert code == 0
    assert text_value(out, "value") == "24"
    assert text_value(out, "c") == "4/3"
    assert "25 -> 24" in out


def test_refinement_ends_round_up(capsys):
    # both ends bound an order from above: 121/5 - 18/5 sqrt2 = 19.1088311...
    # prints 19.10884, not the nearest 19.10883
    code, out, _ = run(capsys, "bound", "closed-form", "--r", "4", "--u", "2",
                       "--theta", "sqrt2")
    assert code == 0
    assert text_value(out, "refinement [c-integrality]").startswith("19.10884 -> 19 (")
    code, out, _ = run(capsys, "bound", "closed-form", "--r", "4", "--u", "2",
                       "--theta", "sqrt2", "--format", "json")
    assert json.loads(out)["refinement [c-integrality]"].startswith("19.10884 -> 19 (")
    # at d = 41 the value passes 10^12, where a float keeps no 5th decimal:
    # 3542847961899.10254 through a float, 3542847961899.10272 exactly
    b = bounds.closed_form_h_bound(Params(3, 2), Fraction("2.82"))
    code, out, _ = run(capsys, "bound", "closed-form", "--r", "3", "--u", "2",
                       "--theta", "2.82")
    up = -math.floor(-b.value * 10 ** 5)
    before = text_value(out, "refinement [c-integrality]").split(" -> ")[0]
    assert before == f"{up // 10 ** 5}.{up % 10 ** 5:05d}" == "3542847961899.10272"
    assert before != f"{float(b.value):.5f}"


def test_exact_numbers_of_any_length_print(capsys):
    # the certificate at this theta has coefficients of over 100,000 digits,
    # past Python's 4300-digit limit for int-to-str conversion
    theta = "2.7" + "0" * 298 + "1"
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "bound", "closed-form", "--r", "3", "--u", "2",
                         "--theta", theta, "--format", "json")
    assert code == 0, err
    assert sys.get_int_max_str_digits() == limit
    payload = json.loads(out)
    assert payload["value"] == 2664 and payload["d"] == 10
    b = bounds.closed_form_h_bound(Params(3, 2), parse_theta(theta))
    sys.set_int_max_str_digits(0)
    try:
        assert payload["certificate_f_basis"] == jval(list(b.certificate.coeffs))
        assert max(len(str(v)) for v in payload["certificate_f_basis"]) > limit
    finally:
        sys.set_int_max_str_digits(limit)
    code, text, err = run(capsys, "bound", "closed-form", "--r", "3", "--u", "2",
                          "--theta", theta)
    assert code == 0 and text_value(text, "value") == "2664", err


def test_input_past_the_digit_limit_is_refused_and_says_so(tmp_path, capsys):
    digits = "1" * (sys.int_info.default_max_str_digits + 1)
    code, _, err = run(capsys, "bound", "closed-form", "--r", "3", "--u", "2",
                       "--theta", "1/" + digits)
    assert code == 2
    assert "theta has a number of more than 4300 digits" in err
    cert = tmp_path / "long.cert"
    cert.write_text(f"3 2 3\n5 5 3 1/{digits}\n")
    code, _, err = run(capsys, "bound", "lp", "--r", "3", "--u", "2",
                       "--theta", "1", "--cert", str(cert))
    assert code == 2 and "certificate file has a number of more than 4300" in err
    hg = tmp_path / "long.hg"
    hg.write_text(f"2 1\n0 {digits}\n")
    code, _, err = run(capsys, "analyze", str(hg))
    assert code == 2 and "more than 4300 digits" in err


def test_bound_formats_agree(capsys):
    _, text_out, _ = run(capsys, "bound", "closed-form", "--r", "5", "--u", "3",
                         "--theta", "2")
    _, csv_out, _ = run(capsys, "bound", "closed-form", "--r", "5", "--u", "3",
                        "--theta", "2", "--format", "csv")
    _, json_out, _ = run(capsys, "bound", "closed-form", "--r", "5", "--u", "3",
                         "--theta", "2", "--format", "json")
    rows = {row["field"]: row["value"]
            for row in csv.DictReader(io.StringIO(csv_out))}
    for key in ("theorem", "value", "c", "d"):
        assert rows[key] == text_value(text_out, key)
    payload = json.loads(json_out)
    assert payload["value"] == 39
    assert payload["c"] == "8/3"
    assert payload["theorem"] == "CLOSED_FORM"


def test_bound_lp_with_certificate(tmp_path, capsys):
    cert = tmp_path / "petersen.fpoly"
    cert.write_text("3 2 3\n5 5 3 1\n")
    code, out, _ = run(capsys, "bound", "lp", "--r", "3", "--u", "2",
                       "--theta", "1", "--cert", str(cert))
    assert code == 0
    assert text_value(out, "value") == "10"

    f = load_certificate(str(cert), Params(3, 2))
    assert f.coeffs == (5, 5, 3, 1)


def test_certificate_loader_errors(tmp_path):
    p = Params(3, 2)
    bad = tmp_path / "bad.fpoly"
    with pytest.raises(UsageError):
        load_certificate(str(tmp_path / "missing"), p)
    bad.write_text("3 2\n5 5 3 1\n")
    with pytest.raises(UsageError):
        load_certificate(str(bad), p)
    bad.write_text("4 2 3\n5 5 3 1\n")
    with pytest.raises(UsageError):
        load_certificate(str(bad), p)
    bad.write_text("3 2 3\n5 5 3\n")
    with pytest.raises(UsageError):
        load_certificate(str(bad), p)
    bad.write_text("3 2 3\n5 x 3 1\n")
    with pytest.raises(UsageError):
        load_certificate(str(bad), p)


def write_certificate(path, r, u, coeffs):
    path.write_text(f"{r} {u} {len(coeffs) - 1}\n"
                    + " ".join(str(c) for c in coeffs) + "\n")
    return str(path)


def closed_form_coeffs(r, u, theta):
    return list(bounds.closed_form_h_bound(Params(r, u), theta).certificate.coeffs)


WITNESS = re.compile(r"witness \(Fraction\((-?\d+), (\d+)\), "
                     r"Fraction\((-?\d+), (\d+)\)\)")


@pytest.mark.parametrize("r, u, theta", [
    (3, 2, "1"), (5, 3, "2"), (5, 2, "7/4"), (3, 3, "2")])
def test_bound_lp_cert_rejects_near_miss(tmp_path, capsys, r, u, theta):
    # the closed-form certificate with f_0 raised by 1e-10 is positive at
    # theta; a float grid with a 1e-9 touch tolerance once accepted these
    coeffs = closed_form_coeffs(r, u, Fraction(theta))
    coeffs[0] += Fraction(1, 10 ** 10)
    cert = write_certificate(tmp_path / "near.cert", r, u, coeffs)
    code, out, err = run(capsys, "bound", "lp", "--r", str(r), "--u", str(u),
                         "--theta", theta, "--cert", cert)
    assert code == 2 and out == ""
    assert err.startswith("error: violated f <= 0 on [-r, theta]")
    xn, xd, vn, vd = (int(g) for g in WITNESS.search(err).groups())
    x, v = Fraction(xn, xd), Fraction(vn, vd)
    assert -r <= x <= Fraction(theta)
    assert v > 0 and sum(map(mul, coeffs, f_values(Params(r, u), len(coeffs) - 1, x))) == v


def test_bound_lp_cert_accepts_root_at_theta(tmp_path, capsys):
    # f <= 0 holds exactly on [-3, 7/2] with f(7/2) = 0 and double roots
    # inside; float round-off at those roots once exceeded the tolerance
    coeffs = closed_form_coeffs(3, 3, Fraction(7, 2))
    cert = write_certificate(tmp_path / "tight.cert", 3, 3, coeffs)
    code, out, err = run(capsys, "bound", "lp", "--r", "3", "--u", "3",
                         "--theta", "7/2", "--cert", cert)
    assert code == 0, err
    assert text_value(out, "theorem") == "LP_CERT"
    assert text_value(out, "value") == fmt(
        bounds.closed_form_h_bound(Params(3, 3), Fraction(7, 2)).value)


def test_bound_lp_cert_sqrt_theta_is_exact(tmp_path, capsys):
    # sqrt2 is checked on exactly [-r, sqrt(2)]: a closed-form certificate
    # f = g_c^2 / (x - t) vanishing at t = the double math.sqrt(2) or the
    # one above it (both above sqrt(2)) passes; at t = the double below or
    # 1e-15 below sqrt(2), f > 0 on (t, sqrt(2)], and sqrt(2) itself is the
    # witness
    sqrt2 = math.sqrt(2)
    down = Fraction(math.isqrt(2 * 10 ** 30), 10 ** 15)
    cases = ((Fraction(sqrt2), True), (Fraction(math.nextafter(sqrt2, math.inf)), True),
             (Fraction(math.nextafter(sqrt2, -math.inf)), False), (down, False))
    # f(sqrt(2)) printed exactly, as the Surd it is
    values = {
        cases[2][0]: "17679297578637777150084046023973774133018423355062345870962525/"
        "1809251394333064325393341537714169267208258139575505970672958009251349921792"
        " + 22206505442436400823910868854668781485227440350/"
        "3213876088517978369540169470245006641576882592615593329329041*sqrt2",
        down: "1217170734501416468175367248685065786163490468745501390901/"
        "319999999999999915448715213655592741258918948359560581592100000000000000"
        " + 8606696802277624557462631766632808788368158/"
        "3199999999999999154487152136555927412589189483595605815921*sqrt2",
    }
    for theta, accepted in cases:
        assert (theta ** 2 > 2) == accepted
        cert = write_certificate(tmp_path / "sqrt.cert", 3, 2,
                                 closed_form_coeffs(3, 2, theta))
        code, out, err = run(capsys, "bound", "lp", "--r", "3", "--u", "2",
                             "--theta", "sqrt2", "--cert", cert)
        if accepted:
            assert code == 0 and text_value(out, "theorem") == "LP_CERT", err
            assert "certified on [-3.0, 1.4142135623730951]" in out
        else:
            assert code == 2
            assert err == ("error: violated f <= 0 on [-r, theta]: witness "
                           f"(Surd('sqrt2'), Surd('{values[theta]}'))\n")


def test_bound_lp_cert_accepts_root_at_sqrt_theta(tmp_path, capsys):
    # f = x^2 - 5 = F_0 + 2 F_1 + F_2 at (2, 4) is <= 0 on [-2, sqrt(5)] and
    # 0 at sqrt(5): the float bracket [-2, theta+] once refused it
    cert = write_certificate(tmp_path / "sqrt5.cert", 2, 4, [1, 2, 1])
    code, out, err = run(capsys, "bound", "lp", "--r", "2", "--u", "4",
                         "--theta", "sqrt5", "--cert", cert)
    assert code == 0, err
    assert text_value(out, "theorem") == "LP_CERT"
    assert text_value(out, "value") == "31"
    assert "note2: f vanishes at theta" in out.splitlines()
    # x^2 - 4 is positive at sqrt(5) itself, the witness printed exactly
    cert = write_certificate(tmp_path / "sqrt4.cert", 2, 4, [2, 2, 1])
    code, out, err = run(capsys, "bound", "lp", "--r", "2", "--u", "4",
                         "--theta", "sqrt5", "--cert", cert)
    assert code == 2
    assert err == ("error: violated f <= 0 on [-r, theta]: witness "
                   "(Surd('sqrt5'), Fraction(1, 1))\n")


def test_bound_lp_decides_the_spectral_top_exactly(capsys):
    # 2.82842712474619009 lies below the top 2 sqrt(2) = 2.8284271247461900976...
    # of (3, 2), though its double rounds up past it: it reaches the LP,
    # which finds degree 4 too low; 2.82842712474619010 lies above the top
    argv = ["bound", "lp", "--r", "3", "--u", "2", "--degree", "4"]
    code, _, err = run(capsys, *argv, "--theta=2.82842712474619009")
    assert code == 2 and err.startswith("error: degree 4 is too low"), err
    code, _, err = run(capsys, *argv, "--theta=2.82842712474619010")
    assert code == 2 and err.startswith("error: theta must be <"), err


def test_bound_lp_cert_failure_exit_code(tmp_path, capsys):
    cert = tmp_path / "neg.fpoly"
    cert.write_text("3 2 1\n0 1\n")  # f_0 = 0 breaks the hypotheses
    code, _, err = run(capsys, "bound", "lp", "--r", "3", "--u", "2",
                       "--theta", "1", "--cert", str(cert))
    assert code == 2
    assert "f_0 > 0" in err


def test_bound_lp_needs_cert_or_degree(capsys):
    code, _, err = run(capsys, "bound", "lp", "--r", "3", "--u", "2",
                       "--theta", "1")
    assert code == 2
    assert "--cert" in err and "--degree" in err


def test_bound_lp_optimize(capsys):
    code, out, _ = run(capsys, "bound", "lp", "--r", "3", "--u", "2",
                       "--theta", "1", "--degree", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["theorem"] == "LP_OPT"
    value = payload["value"]
    if isinstance(value, str):
        value = float(Fraction(value))
    assert 10 - 1e-4 <= value <= 10.01


@pytest.mark.parametrize("r, u, theta, degree", [
    ("8", "2", "2", "7"), ("8", "2", "2", "8"), ("4", "2", "sqrt2", "7")])
def test_bound_lp_optimize_round_off_duals(capsys, r, u, theta, degree):
    # these calls once failed their own certificate check on a dual of -3.3e-18
    code, out, err = run(capsys, "bound", "lp", "--r", r, "--u", u, "--theta",
                         theta, "--degree", degree, "--format", "json")
    assert code == 0, err
    payload = json.loads(out)
    assert payload["theorem"] == "LP_OPT"
    assert all(Fraction(c) >= 0 for c in payload["certificate_f_basis"][1:])
    assert any("certified" in str(v) for k, v in payload.items()
               if k.startswith("note"))


@pytest.mark.parametrize("r, u, theta", [("6", "2", "3"), ("3", "2", "2")])
def test_bound_lp_degree_too_low_is_a_domain_error(capsys, r, u, theta):
    code, out, err = run(capsys, "bound", "lp", "--r", r, "--u", u, "--theta",
                         theta, "--degree", "4")
    assert code == 2 and out == ""
    assert "degree 4 is too low" in err and "--degree" in err
    assert "internal" not in err


@pytest.mark.parametrize("r, theta", [("5", "sqrt5"), ("7", "sqrt7"), ("8", "sqrt8")])
def test_bound_lp_degree_3_at_sqrt_r_is_a_domain_error(capsys, r, theta):
    # for u = 2, F_1 and F_3 are odd and F_2(+-sqrt r) = 0, so every degree-3
    # f has f(sqrt r) + f(-sqrt r) = 2 f_0 > 0, and sqrt r lies in [-r, theta]
    code, out, err = run(capsys, "bound", "lp", "--r", r, "--u", "2", "--theta",
                         theta, "--degree", "3")
    assert code == 2 and out == ""
    assert "degree 3 is too low" in err and "--degree" in err
    assert "internal" not in err


def test_closed_form_refuses_a_diameter_above_the_cap(capsys):
    code, out, err = run(capsys, "bound", "closed-form", "--r", "3", "--u", "2",
                         "--theta", "2.8284")
    assert code == 2 and out == ""
    assert "theta = 2.8284" in err and "2.8284271247" in err and "400" in err
    assert "internal" not in err


def test_main_reuses_one_parser(capsys, monkeypatch):
    run(capsys, "bound", "ru1", "--r", "16", "--u", "3")
    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("rebuilt"))
    code, out, _ = run(capsys, "bound", "ru1", "--r", "16", "--u", "3")
    assert code == 0 and out
    code, _, err = run(capsys, "bound", "ru1", "--r", "x", "--u", "3")
    assert code == 2 and "--r" in err


def test_bound_dss(capsys):
    code, out, _ = run(capsys, "bound", "dss", "--r", "3", "--u", "2",
                       "--d", "2", "--n", "10", "--theta", "1")
    assert code == 0
    assert text_value(out, "passed") == "yes"
    assert text_value(out, "slack") == "0"
    code, out, _ = run(capsys, "bound", "dss", "--r", "5", "--u", "2",
                       "--d", "2", "--n", "32", "--theta", "2")
    assert code == 0
    assert text_value(out, "passed") == "no"
    assert "order <= 24 < 32" in text_value(out, "conclusion")


def test_bound_imp2(capsys):
    code, out, _ = run(capsys, "bound", "imp2", "--r", "3", "--u", "2",
                       "--d", "2", "--theta", "0.5")
    assert code == 0
    assert text_value(out, "case") == "between"
    assert text_value(out, "value") == "80/11"
    assert text_value(out, "c") == "11/6"


def test_bound_diam(capsys):
    code, out, _ = run(capsys, "bound", "diam", "--r", "3", "--u", "2",
                       "--ell", "1")
    assert code == 0
    assert text_value(out, "value") == "10"
    assert text_value(out, "equality_possible") == "yes"


def test_bound_ru1(capsys):
    code, out, _ = run(capsys, "bound", "ru1", "--r", "16", "--u", "3")
    assert code == 0
    assert text_value(out, "value") == "51"
    code, out, _ = run(capsys, "bound", "ru1", "--r", "15", "--u", "3")
    assert code == 0
    assert text_value(out, "value") == "not applicable"
    assert "needs r >=" in text_value(out, "reason")


def test_bound_tau2_lower(capsys):
    code, out, _ = run(capsys, "bound", "tau2-lower", "--r", "3", "--u", "2",
                       "--n", "10")
    assert code == 0
    assert text_value(out, "tau2_lower") == "1.00000"
    assert text_value(out, "d") == "2" and text_value(out, "c") == "1"


def below_2cos_2pi_over_7(x: Fraction) -> bool:
    """x <= 2cos(2pi/7), exactly, for x > 0: 2cos(2pi/7) = 1.2469796... is
    the largest root of t^3 + t^2 - 2t - 1, whose other roots are negative
    and which is positive above it."""
    assert x > 0
    return x ** 3 + x ** 2 - 2 * x - 1 <= 0


def test_seven_cycle_floor_is_a_theorem(capsys, tmp_path):
    # the 7-cycle is a connected 2-regular 2-uniform hypergraph on 7
    # vertices with tau2 = 2cos(2pi/7) = 1.2469796...; "tau2 >= 1.24698"
    # and the json float 1.2469796037174672 were both above it
    argv = ("bound", "tau2-lower", "--r", "2", "--u", "2", "--n", "7")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert text_value(out, "tau2_lower") == "1.24697"
    assert text_value(out, "meaning").endswith("has tau2 >= 1.24697")
    code, out, _ = run(capsys, *argv, "--format", "json")
    value = json.loads(out)["tau2_lower"]
    assert below_2cos_2pi_over_7(Fraction(value))
    assert not below_2cos_2pi_over_7(Fraction(math.nextafter(value, math.inf)))
    cycle = tmp_path / "c7.txt"
    cycle.write_text("7 7\n" + "".join(f"{i} {(i + 1) % 7}\n" for i in range(7)))
    code, out, _ = run(capsys, "analyze", str(cycle))
    assert code == 0
    assert text_value(out, "tau2_floor_at_order").startswith("value=1.24697, d=3, c=1")


def test_printed_tau2_floors_lie_below_their_zeros(capsys):
    # every printed floor v of r = 2..8, u = 2..5, n = 2..60 has the largest
    # zero of g_c at or above it, by a Sturm chain of g_c in Z[x], each of
    # its members an integer polynomial of content 1; 649 of these 1,652
    # printed floors once lay above it
    floors = 0
    for r in range(2, 9):
        for u in range(2, 6):
            k = r * (u - 1)
            for n in range(2, 61):
                code, out, _ = run(capsys, "bound", "tau2-lower", "--r", str(r),
                                   "--u", str(u), "--n", str(n))
                assert code == 0
                v = Fraction(text_value(out, "tau2_lower"))
                d, c = int(text_value(out, "d")), Fraction(text_value(out, "c"))
                gc = _gc_monomial(Params(r, u), d, c, 1)
                chain = _prs(gc, _poly_deriv(gc))
                assert all(type(a) is int for p in chain for a in p), (r, u, n)
                assert all(math.gcd(*p) == 1 for p in chain), (r, u, n)
                # V(v) - V(k) zeros in (v, k], plus one at v itself
                at_v = _poly_eval(chain[0], v) == 0
                assert _sign_changes(chain, v) - _sign_changes(chain, Fraction(k)) + at_v >= 1, (r, u, n)
                floors += 1
    assert floors == 1652


def test_tol_only_where_a_tolerance_is_read(capsys):
    # no subcommand reads a tolerance: closed-form and imp2 decide exactly
    # and once took a --tol for a float diameter pick, and lp once took one
    # for its stopping rule, now the constant OPT_TOL
    code, _, err = run(capsys, "bound", "tau2-lower", "--r", "3", "--u", "2",
                       "--n", "10", "--tol", "1")
    assert code == 2 and "--tol" in err
    for argv in (["dss", "--theta", "2", "--d", "2", "--n", "32"],
                 ["diam", "--ell", "2"], ["ru1"], ["defect-region", "--e", "8"],
                 ["closed-form", "--theta", "2"], ["imp2", "--theta", "2", "--d", "2"],
                 ["lp", "--theta", "2", "--degree", "3"]):
        code, out, err = run(capsys, "bound", argv[0], "--r", "8", "--u", "2",
                             *argv[1:], "--tol", "1e-9")
        assert code == 2 and not out and "unrecognized arguments: --tol" in err, argv


@pytest.mark.parametrize("argv, d", [(["--theta=10000000001/10000000000"], "3"),
                                     (["--theta", "1"], "2")])
def test_closed_form_settles_d_exactly_at_a_rational_theta(capsys, argv, d):
    # lambda_2 = 1 at (3, 2): theta = 1 is on it, so d = 2, and a theta
    # 1e-10 above it needs d = 3; a float pick once exited 3 on both
    code, out, err = run(capsys, "bound", "closed-form", "--r", "3", "--u", "2",
                         *argv)
    assert code == 0, err
    assert text_value(out, "d") == d
    assert text_value(out, "value") == "10"


def test_closed_form_settles_d_exactly_at_a_sqrt_theta(capsys):
    # the 12-cycle meets the (2, 2) bound at sqrt3 with d = 6 and c = 2,
    # exactly; the float closed form had c = 2.0000000000000053, and with
    # --tol 1e-1 it once exited 3 with "internal: c = 0.63... < 1"
    argv = ("bound", "closed-form", "--r", "2", "--u", "2", "--theta=sqrt3")
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0, err
    got = json.loads(out)
    assert (got["theta"], got["d"], got["c"], got["value"]) == ("sqrt3", 6, 2, 12)
    assert "T(2,2,6,2)" in got["note"]
    code, out, err = run(capsys, *argv, "--tol", "1e-1")
    assert code == 2 and not out and "--tol" in err


def test_h_catalog_json_prints_sqrt_cells_exactly(capsys):
    code, out, err = run(capsys, "table", "h-catalog", "--format", "json")
    assert code == 0, err
    rows = json.loads(out)["rows"]
    cells = {(row["r"], row["u"], row["theta"]): row["bound"] for row in rows}
    assert cells[(4, 2, "sqrt2")] == "121/5 - 18/5*sqrt2"
    assert cells[(3, 3, "sqrt5")] == 31 and cells[(4, 3, "sqrt7")] == 57
    assert cells[(3, 2, "sqrt2")] == 14
    sqrt_rows = [row for row in rows if row["theta"].startswith("sqrt")]
    assert len(sqrt_rows) == 25
    assert all(isinstance(row["bound"], int) or "sqrt" in row["bound"]
               for row in sqrt_rows)


def test_a_closed_pipe_ends_quietly_with_141():
    # `hyplp ... | head -1`: the reader is gone before the output is; the
    # status is a shell's for a SIGPIPE death, 1 being --verify's
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hyplp", "table", "h-catalog", "--format", "json"],
            stdout=write_end, stderr=subprocess.PIPE, timeout=60,
            env={**os.environ, "PYTHONPATH": SRC})
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


def test_bound_defect_region(capsys):
    code, out, _ = run(capsys, "bound", "defect-region", "--r", "8", "--u", "2",
                       "--d", "2", "--e", "8")
    assert code == 0
    # the ends round outward: lower = 2.0950264..., upper = 3.4051248...
    assert text_value(out, "lower") == "2.09502"
    assert text_value(out, "upper") == "3.40513"
    assert text_value(out, "meaning").endswith("in [2.09502, 3.40513]")


def test_bound_domain_error_exit(capsys):
    code, _, err = run(capsys, "bound", "closed-form", "--r", "3", "--u", "2",
                       "--theta", "5")
    assert code == 2 and "theta" in err


def test_analyze_petersen(tmp_path, capsys):
    f = tmp_path / "petersen.hg"
    f.write_text(named_fixture("petersen").to_text())
    code, out, _ = run(capsys, "analyze", str(f))
    assert code == 0
    assert text_value(out, "order") == "10"
    assert text_value(out, "degrees") == "3-regular 2-uniform"
    assert text_value(out, "girth") == "5"
    assert text_value(out, "girth_by_trace") == "5"
    assert text_value(out, "tau2") == "1"
    assert text_value(out, "ramanujan") == "yes"
    assert "met with equality" in text_value(out, "order_bound_at_tau2")
    assert "valid=yes" in text_value(out, "distance_regular")
    assert text_value(out, "spectrum_correspondence") == "ok"



GOLDEN = os.path.join(os.path.dirname(__file__), "data", "analyze")
GOLDEN_NAMES = sorted(f[:-4] for f in os.listdir(GOLDEN) if f.endswith(".txt"))


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_analyze_json_is_byte_identical_to_the_recorded_output(capsys, name):
    # recorded before the integer layers moved to packed rows and sphere
    # bitsets: OA(3,7), OA(4,11), OA(3,13), configuration-model inputs with
    # m < n and m > n, an irregular and a disconnected input; OA(4,29) and
    # the 13-cycle were recorded before the girth came from the traces
    code, out, err = run(capsys, "analyze", os.path.join(GOLDEN, name + ".txt"),
                         "--format", "json")
    assert code == 0, err
    with open(os.path.join(GOLDEN, name + ".json")) as fh:
        assert out == fh.read()


def golden_adjacency(name):
    """The adjacency of a golden's input, read off its edge list here: entry
    (x, y) counts the edges through both x and y."""
    with open(os.path.join(GOLDEN, name + ".txt")) as fh:
        n, _ = map(int, fh.readline().split())
        a = np.zeros((n, n))
        for line in fh:
            edge = [int(x) for x in line.split()]
            for x in edge:
                for y in edge:
                    if x != y:
                        a[x, y] += 1
    return a


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_analyze_goldens_match_numpy(name):
    # a reference other than the eigensolver that recorded the goldens:
    # tau2 within 1e-12 * max(1, k) of numpy's, and the printed spectrum
    # numpy's clusters (gaps above 1e-7) to the 5-decimal print rounding
    with open(os.path.join(GOLDEN, name + ".json")) as fh:
        payload = json.load(fh)
    a = golden_adjacency(name)
    want = sorted(np.linalg.eigvalsh(a), reverse=True)
    k = a.sum(axis=1).max()
    if "tau2" in payload:
        assert abs(payload["tau2"] - want[1]) <= 1e-12 * max(1.0, k)
    groups = []
    for x in want:
        if groups and groups[-1][-1] - x <= 1e-7:
            groups[-1].append(x)
        else:
            groups.append([x])
    printed = [cell.split("x") for cell in payload["spectrum"].split()]
    assert [int(m) for _, m in printed] == [len(g) for g in groups]
    for (value, _), g in zip(printed, groups):
        assert abs(float(value) - sum(g) / len(g)) <= 0.5e-5 + 1e-12 * max(1.0, k)
    assert "-0.00000" not in payload["spectrum"]


def test_analyze_prints_no_negative_zero(capsys):
    # the sign of a value that rounds to zero at 5 decimals is rounding
    # noise: the 18 zero eigenvalues of the OA(3, 7) point graph printed as
    # -0.00000x18, and a slack of -1e-16 as -0.00000
    code, out, err = run(capsys, "analyze", os.path.join(GOLDEN, "oa-3-7.txt"))
    assert code == 0, err
    assert text_value(out, "spectrum") == "14.00000x1 0.00000x18 -7.00000x2"
    assert "-0.00000" not in out
    for x, want in ((-0.0, "0.00000"), (-1e-17, "0.00000"), (-4.9e-6, "0.00000"),
                    (-5.1e-6, "-0.00001"), (4.9e-6, "0.00000"),
                    (-Fraction(1, 10 ** 7), "0.00000")):
        assert fmt(x) == want, x


CERT_GOLDEN = os.path.join(os.path.dirname(__file__), "data", "certify")
with open(os.path.join(CERT_GOLDEN, "cases.json")) as _fh:
    CERT_CASES = json.load(_fh)


@pytest.mark.parametrize("name", sorted(CERT_CASES))
def test_bound_lp_cert_is_byte_identical_to_the_recorded_output(capsys, name):
    # recorded before the exact check decided its signs in integers: tight,
    # loose (f_0 * 7/8) and invalid (f_0 + 1/1000) closed-form certificates
    # at theta 3/2 and at sqrt18 (built at 17/4), the near miss at (3, 2, 1)
    # with f_0 raised by 1e-10, and README's x^2 - 5 at sqrt5
    case = CERT_CASES[name]
    path = os.path.join(CERT_GOLDEN, name + ".cert")
    with open(path) as fh:
        r, u, _ = fh.readline().split()
    code, out, err = run(capsys, "bound", "lp", "--r", r, "--u", u, "--cert", path,
                         f"--theta={case['theta']}", "--format", "json")
    assert code == case["code"]
    with open(os.path.join(CERT_GOLDEN, name + ".json")) as fh:
        assert out == fh.read()
    with open(os.path.join(CERT_GOLDEN, name + ".err")) as fh:
        assert err == fh.read()


def count_calls(monkeypatch, name):
    """The argument tuples of every call of `name`, through whichever of the
    hypergraph, spectra, constructions and cli modules binds it."""
    calls = []
    for mod in (hypergraph, spectra, constructions, cli):
        fn = getattr(mod, name, None)
        if fn is not None:
            def counted(*args, _fn=fn, **kwargs):
                calls.append(args)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.mark.parametrize("h, girth, from_dual",
                         [(named_fixture("petersen"), 5, False),
                          (hypergraph_from_oa(oa_from_mols(mols_cyclic(7, 2))), 3, False),
                          (dual(named_fixture("petersen")), 5, False),
                          (dual(named_fixture("heawood")), 6, True)],
                         ids=["petersen", "oa-4-7", "petersen-dual", "heawood-dual"])
def test_analyze_builds_each_derived_object_once(monkeypatch, h, girth, from_dual):
    # connected regular input with a girth of at most 12 takes it from the
    # traces: no BFS girth, one pass over the edges for the neighbour
    # lists, one regularity check of the input, one search of the spheres,
    # which gives both the connectivity and the diameter, and one
    # distance-regularity check.  The dual of Petersen (n = 15 > m = 10)
    # is distance-regular with an integer spectrum, read off its array.
    # The dual of Heawood (n = 21 > m = 14) has irrational eigenvalues and
    # takes its spectrum from A*, whose lists take one more pass, over the
    # edges through each vertex, and the (r, u) of that dual's dual is not
    # checked again
    bfs = count_calls(monkeypatch, "girth")
    nbrs = count_calls(monkeypatch, "neighbours")
    checks = count_calls(monkeypatch, "check_regular_uniform")
    searches = count_calls(monkeypatch, "spheres")
    regularity = count_calls(monkeypatch, "distance_regularity_check")
    pairs = dict(cli.analyze_pairs(h))
    assert pairs["girth"] == pairs["girth_by_trace"] == girth
    assert bfs == []
    assert nbrs[0] == (h.n, h.edges)
    assert nbrs[1:] == ([(h.m, incident(h))] if from_dual else [])
    assert checks == [(h,)]
    assert len(searches) == 1
    assert len(regularity) == 1


@pytest.mark.parametrize("name", ["irregular", "disconnected", "cycle-13"])
def test_analyze_girth_falls_back_to_bfs(monkeypatch, capsys, name):
    # irregular input has no walk recurrence, the trace path is taken for
    # connected input only, and the 13-cycle's traces vanish up to 12
    bfs = count_calls(monkeypatch, "girth")
    code, out, err = run(capsys, "analyze", os.path.join(GOLDEN, name + ".txt"),
                         "--format", "json")
    assert code == 0, err
    assert len(bfs) == 1
    with open(os.path.join(GOLDEN, name + ".json")) as fh:
        assert out == fh.read()
    if name == "cycle-13":
        payload = json.loads(out)
        assert (payload["girth"], payload["girth_by_trace"]) == (13, "> 12")


def test_analyze_json_precision(tmp_path, capsys):
    f = tmp_path / "petersen.hg"
    f.write_text(named_fixture("petersen").to_text())
    code, out, _ = run(capsys, "analyze", str(f), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["tau2"] - 1.0) < 1e-8
    assert payload["order"] == 10
    assert payload["order_bound_at_tau2"]["relation"] == "met with equality"
    assert payload["distance_regular"] == {"valid": True, "b": [3, 2],
                                           "c": [1, 1], "a": [0, 0, 2]}


def test_analyze_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(named_fixture("k4").to_text()))
    code, out, _ = run(capsys, "analyze", "-")
    assert code == 0
    assert text_value(out, "order") == "4"
    assert text_value(out, "tau2") == "-1"


def test_analyze_iregular_and_disconnected(tmp_path, capsys):
    f = tmp_path / "h.hg"
    f.write_text("3 2\n0 1\n1 2\n")
    code, out, _ = run(capsys, "analyze", str(f))
    assert code == 0
    assert text_value(out, "degrees").startswith("irregular:")
    f.write_text("4 2\n0 1\n2 3\n")
    code, out, _ = run(capsys, "analyze", str(f))
    assert code == 0
    assert text_value(out, "diameter") == "inf (disconnected)"


def test_analyze_error_paths(tmp_path, capsys):
    code, _, err = run(capsys, "analyze", str(tmp_path / "missing.hg"))
    assert code == 2
    f = tmp_path / "bad.hg"
    f.write_text("2 1\n0 zz\n")
    code, _, err = run(capsys, "analyze", str(f))
    assert code == 2
    assert "line 2" in err


def test_table1_verify(capsys):
    code, out, _ = run(capsys, "table", "table1", "--verify")
    assert code == 0
    assert "11/11 rows match" in out
    assert "columns:" in out and "defect-region" in out


def test_table1_verify_fails_a_row_it_cannot_prove(monkeypatch, capsys):
    # every printed decimal must be proved within 0.000005 of its value
    real = bounds.defect_region_within
    calls = []

    def refuse_first(*args):
        calls.append(args)
        return len(calls) > 1 and real(*args)

    monkeypatch.setattr(bounds, "defect_region_within", refuse_first)
    code, out, _ = run(capsys, "table", "table1", "--verify")
    assert code == 1 and "10/11 rows match" in out and len(calls) == 11


def test_defect_region_within_proves_only_correct_roundings():
    h = Fraction(1, 2 * 10 ** 5)
    for row in cli._csv_rows("table1.csv"):
        params = Params(int(row["r"]), int(row["u"]))
        d, e = int(row["d"]), int(row["e"])
        points = [Fraction(row[key]) for key in ("lower", "lambda", "upper")]
        assert bounds.defect_region_within(params, d, e, points, h)
        for i in range(3):
            for step in (-1, 1):
                moved = list(points)
                moved[i] += step * Fraction(1, 10 ** 5)
                assert not bounds.defect_region_within(params, d, e, moved, h)


def test_table1_csv(capsys):
    code, out, _ = run(capsys, "table", "table1", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 11
    first = rows[0]
    assert (first["r"], first["d"], first["v"]) == ("8", "2", "57")
    assert first["lambda"] == "2.19258"


def test_h_catalog_verify(capsys):
    code, out, _ = run(capsys, "table", "h-catalog", "--verify")
    assert code == 0
    assert "39/39 cells match" in out


def test_h_catalog_filter_and_lp_column(capsys):
    code, out, _ = run(capsys, "table", "h-catalog", "--r", "3", "--u", "2",
                       "--theta", "1", "--degree", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["rows"]) == 1
    row = payload["rows"][0]
    assert row["tag"] == "attained"
    assert row["printed"] == "10" and row["expected"] == "10"
    lp = row["lp_opt(s=4)"]
    if isinstance(lp, str):
        lp = float(Fraction(lp))
    assert 10 - 1e-4 <= lp <= 10.01
    assert payload["provenance"]["lp_opt(s=4)"] == "lp-optimizer"


def test_h_catalog_ad_hoc_cell(capsys):
    code, out, _ = run(capsys, "table", "h-catalog", "--r", "3", "--u", "2",
                       "--theta", "0")
    assert code == 0
    assert "not a catalog cell" in out
    code, _, err = run(capsys, "table", "h-catalog", "--r", "99")
    assert code == 2
    assert "no catalog cells" in err


def test_construct_named_to_file(tmp_path, capsys):
    target = tmp_path / "petersen.hg"
    code, out, _ = run(capsys, "construct", "named", "petersen",
                       "-o", str(target))
    assert code == 0
    assert text_value(out, "order") == "10"  # report lands on stdout
    assert Hypergraph.from_text(target.read_text()) == named_fixture("petersen")


def test_construct_unknown_name(capsys):
    code, _, err = run(capsys, "construct", "named", "nope")
    assert code == 2
    assert "petersen" in err  # error lists the available fixtures


def test_construct_mols_oa_pipeline(tmp_path, capsys):
    oa_file = tmp_path / "oa.txt"
    code, out, _ = run(capsys, "construct", "mols-oa", "--p", "5", "--rows", "4",
                       "-o", str(oa_file))
    assert code == 0
    assert text_value(out, "valid") == "yes"
    assert text_value(out, "columns") == "25"

    h_file = tmp_path / "h.hg"
    code, out, _ = run(capsys, "construct", "oa-minus", str(oa_file),
                       "--symbol", "0", "-o", str(h_file))
    assert code == 0
    assert text_value(out, "order") == "15"
    assert text_value(out, "tau2") == "1.00000"

    code, out, _ = run(capsys, "analyze", str(h_file))
    assert code == 0
    assert text_value(out, "degrees") == "4-regular 3-uniform"


def test_construct_mols_oa_validates_the_array_once(monkeypatch, capsys):
    # the command validates the array oa_from_mols assembles, and the
    # report's valid line reads that validation
    calls = count_calls(monkeypatch, "oa_validate")
    code, out, err = run(capsys, "construct", "mols-oa", "--p", "13", "--rows", "5")
    assert code == 0
    assert len(calls) == 1
    assert out.startswith("5 169 13\n")
    assert text_value(err, "valid") == "yes"


def test_every_array_path_validates_once(tmp_path, monkeypatch, capsys):
    # an array is validated where it is used, once: in the fixtures built
    # from Latin squares and in both commands that read one from a file
    # (construct mols-oa has its own test above)
    calls = count_calls(monkeypatch, "oa_validate")
    for name in ("oa33", "oa45-minus"):
        calls.clear()
        named_fixture(name)
        assert len(calls) == 1, name
    oa_file = tmp_path / "oa.txt"
    oa_file.write_text(oa_from_mols(mols_cyclic(5, 2)).to_text())
    bad_file = tmp_path / "bad.txt"
    bad_file.write_text("3 4 2\n0 0 1 1\n0 0 1 1\n0 1 0 1\n")
    for kind, extra in (("from-oa", ()), ("oa-minus", ("--symbol", "0"))):
        calls.clear()
        assert run(capsys, "construct", kind, str(oa_file), *extra)[0] == 0
        assert len(calls) == 1, kind
        calls.clear()
        code, out, err = run(capsys, "construct", kind, str(bad_file), *extra)
        assert (code, out) == (2, "")
        assert err == "error: rows (0, 1): symbol pair (0, 0) repeats at columns 0 and 1\n"
        assert len(calls) == 1, kind


def test_construct_stdout_stdin_pipe(monkeypatch, capsys):
    # payload on stdout, report on stderr, then fed back through stdin
    code, out, err = run(capsys, "construct", "mols-oa", "--p", "3", "--rows", "3")
    assert code == 0
    assert out.startswith("3 9 3\n")
    assert "valid: yes" in err
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, out2, err2 = run(capsys, "construct", "from-oa", "-")
    assert code == 0
    assert out2.startswith("9 9\n")
    assert "tau2: 0" in err2.splitlines()


def test_analyze_oa_11_3_point_hypergraph(tmp_path, capsys):
    # 33 points, 121 lines (m >= n, so the spectrum is the 33 x 33
    # adjacency's); its 154-vertex incidence graph once stalled the QL
    # iteration, as `test_ql_deflates_a_cluster_of_zero_eigenvalues` pins
    oa_file = tmp_path / "oa.txt"
    assert run(capsys, "construct", "mols-oa", "--p", "11", "--rows", "3",
               "-o", str(oa_file))[0] == 0
    h_file = tmp_path / "h.hg"
    assert run(capsys, "construct", "from-oa", str(oa_file), "-o", str(h_file))[0] == 0
    code, out, err = run(capsys, "analyze", str(h_file))
    assert code == 0, err
    assert text_value(out, "order") == "33"
    assert text_value(out, "spectrum_correspondence") == "ok"


def test_construct_writes_data_before_a_failing_report(tmp_path, monkeypatch,
                                                     capsys):
    # a report failure still exits non-zero (3: internal), but only after
    # the hypergraph is out
    def broken(h):
        raise ArithmeticError("report failed")

    monkeypatch.setattr(cli, "analyze_pairs", broken)
    petersen = named_fixture("petersen").to_text()
    code, out, err = run(capsys, "construct", "named", "petersen")
    assert code == 3 and out == petersen
    assert "report failed" in err
    target = tmp_path / "p.hg"
    code, out, err = run(capsys, "construct", "named", "petersen", "-o", str(target))
    assert code == 3 and target.read_text() == petersen
    assert "report failed" in err


def test_internal_failure_in_analyze_exits_3(tmp_path, monkeypatch, capsys):
    def stalled(diag, off):
        raise ArithmeticError("tridiagonal QL iteration did not converge")

    # Heawood's spectrum has irrational values, so the solver runs
    f = tmp_path / "heawood.hg"
    f.write_text(named_fixture("heawood").to_text())
    monkeypatch.setattr(spectra, "ql_eigenvalues", stalled)
    code, out, err = run(capsys, "analyze", str(f))
    assert code == 3 and out == ""
    assert err == "error: internal: tridiagonal QL iteration did not converge\n"


def test_analyze_refuses_an_order_above_the_cap(tmp_path, capsys):
    f = tmp_path / "huge.hg"
    f.write_text("100000 0\n")
    t0 = time.perf_counter()
    code, out, err = run(capsys, "analyze", str(f))
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == ""
    assert "n = 100000" in err and str(cli.ANALYZE_MAX_N) in err
    assert cli.ANALYZE_MAX_N >= 404  # OA(4, 101) point hypergraph


def test_construct_bad_arguments(capsys):
    code, _, err = run(capsys, "construct", "mols-oa", "--p", "4", "--rows", "3")
    assert code == 2 and "not prime" in err
    code, _, err = run(capsys, "construct", "mols-oa", "--p", "5", "--rows", "2")
    assert code == 2 and "--rows" in err


def test_usage_exit_codes(capsys):
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys, "bound", "closed-form", "--r", "3")[0] == 2
    assert run(capsys, "bound", "closed-form", "--r", "3", "--u", "2",
               "--theta", "zzz")[0] == 2


# ---------------------------------------------------------------------------
# theorem lines on distance-regular input


@pytest.mark.parametrize("h, d, c", [(named_fixture("k4"), 1, 1),
                                     (named_fixture("fano"), 1, 1),
                                     (cycle(5), 2, 1), (cycle(11), 5, 1),
                                     (cycle(13), 6, 1)],
                         ids=["K4", "fano", "C5", "C11", "C13"])
def test_t_array_prints_its_own_d_and_c_with_equality(h, d, c):
    # from the float tau2, K4, Fano, C_5 and C_11 printed a d one too
    # large with a c between 7e13 and 2e16, and C_13 a slack of -6.7e-16
    pairs = dict(cli.analyze_pairs(h))
    assert pairs["order_bound_at_tau2"] == {"value": h.n, "d": d, "c": c,
                                            "relation": "met with equality"}
    floor = pairs["tau2_floor_at_order"]
    assert (floor["d"], floor["c"]) == (d, c)
    assert floor["slack"] == 0 and type(floor["slack"]) is int


def regular_sweep():
    """Connected regular uniform inputs with r >= 2: the named fixtures and
    their duals, the cycles C_3 to C_29, the OA(3, p) and OA(4, p) point
    hypergraphs for p <= 29, OA(3, p) and OA(4, p) minus a transversal for
    p <= 13, two multigraph point graphs (2 K_4 from the four triples of 4
    points, and Petersen with each edge doubled) and 24 seeded
    configuration-model inputs."""
    out = [named_fixture(name) for name in constructions.fixture_names()]
    out += [dual(h) for h in out]
    out += [cycle(n) for n in range(3, 30)]
    out += [Hypergraph(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]),
            Hypergraph(10, [e for e in named_fixture("petersen").edges
                            for _ in range(2)])]
    for rows in (3, 4):
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29):
            oa = oa_from_mols(mols_cyclic(p, rows - 2))
            out.append(hypergraph_from_oa(oa))
            if p <= 13:
                out.append(constructions.oa_minus_transversal(oa, 0))
    rng = random.Random(20261020)
    for r, u, n in [(2, 3, 30), (3, 2, 24), (4, 2, 20), (3, 3, 18),
                    (2, 4, 24), (3, 4, 16)] * 4:
        h = random_regular_uniform(rng, r, u, n)
        if h is not None:
            out.append(h)
    return [h for h in out
            if min(map(len, incident(h))) >= 2 and bfs_connected(h)]


def test_equality_exactly_on_t_arrays_whose_d_and_c_tau2_lower_finds():
    # "met with equality" is printed exactly when the array is
    # T(r, u, d, c), and then tau2_lower(n) finds the array's d and c
    tight = 0
    for h in regular_sweep():
        an = cli.Analysis(h)
        params = Params(*an.ru)
        pairs = dict(cli.analyze_pairs(h))
        t = cli.t_array(params, an.distance_regularity)
        bound = pairs["order_bound_at_tau2"]
        assert (isinstance(bound, dict)
                and bound["relation"] == "met with equality") == (t is not None), h
        if t is not None:
            assert bounds.tau2_lower(params, h.n)[:2] == t
            tight += 1
    assert tight >= 40


def test_no_slack_is_negative(capsys):
    for name in GOLDEN_NAMES:
        code, out, err = run(capsys, "analyze", os.path.join(GOLDEN, name + ".txt"),
                             "--format", "json")
        assert code == 0, err
        floor = json.loads(out).get("tau2_floor_at_order")
        assert floor is None or floor["slack"] >= 0, name
    for h in regular_sweep():
        assert dict(cli.analyze_pairs(h))["tau2_floor_at_order"]["slack"] >= 0, h


@pytest.mark.parametrize("h, solves", [
    (hypergraph_from_oa(oa_from_mols(mols_cyclic(11, 2))), 0), (cycle(13), 1)],
    ids=["oa-4-11", "C13"])
def test_integer_spectrum_skips_the_solver(monkeypatch, h, solves):
    # one distance-regularity check serves the spectrum and the report; an
    # integer spectrum is read off the array, and C_13's is irrational
    solver = count_calls(monkeypatch, "symmetric_eigenvalues")
    checks = count_calls(monkeypatch, "distance_regularity_check")
    pairs = dict(cli.analyze_pairs(h))
    assert len(solver) == solves
    assert len(checks) == 1
    assert pairs["distance_regular"]["valid"]


def test_integer_tau2_gives_an_exact_closed_form(capsys):
    # OA(4, 11) pinned c = 32.99999999999999, and K_{4,4} minus a matching
    # (tau2 = 1.0000000000000002) printed d = 3 and c = 2^53
    code, out, err = run(capsys, "analyze", os.path.join(GOLDEN, "oa-4-11.txt"))
    assert code == 0, err
    assert text_value(out, "tau2") == "0"
    assert text_value(out, "order_bound_at_tau2") == (
        "value=64, d=2, c=33, relation=order 44 within bound")
    pairs = dict(cli.analyze_pairs(named_fixture("k44-minus")))
    assert pairs["tau2"] == 1
    assert pairs["order_bound_at_tau2"] == {"value": 10, "d": 2, "c": 1,
                                            "relation": "order 8 within bound"}
