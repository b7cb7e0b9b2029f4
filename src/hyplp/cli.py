"""Command line front end.

`bound` dispatches the analytic order bounds, `analyze` reports everything we
can compute about a hypergraph file, `table` regenerates the shipped tables,
and `construct` builds hypergraphs and orthogonal arrays (composable through
pipes: data goes to stdout, the report to stderr).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import re
import sys
from fractions import Fraction

from . import bounds, surd
from ._record import Record
from .bounds import BoundResult, Refinement
from .constructions import (OrthogonalArray, _require_valid, fixture_names,
                            hypergraph_from_oa, mols_cyclic, named_fixture,
                            oa_from_mols, oa_minus_transversal)
from .hypergraph import Hypergraph, IntersectionNumbers, NotRegularUniformError
from .orthopoly import FPoly, Params
from .spectra import TRACE_GIRTH_MAX, Analysis

__all__ = ["main"]


class UsageError(Exception):
    """Bad arguments or unreadable input; maps to exit code 2 (an internal
    ArithmeticError maps to 3)."""


def _check_digits(text: str, what: str) -> str:
    """text, unless it holds a number of more than 4300 digits, Python's
    default limit for int-str conversion, which takes quadratic time:
    `main` lifts the limit for output, and input keeps it here."""
    if re.search(r"\d{4301}", text):
        raise UsageError(f"{what} has a number of more than 4300 digits, the most hyplp reads")
    return text


# ---------------------------------------------------------------------------
# parsing helpers

def parse_theta(token: str):
    """Accepts an integer, a rational (p/q or decimal), or sqrtN for a
    positive integer N.  All stay exact: sqrtN is an int for a perfect
    square N, else a Surd, the element sqrt(N) of Q(sqrt N)."""
    tok = _check_digits(token.strip(), "theta")
    if tok.startswith("sqrt"):
        try:
            n = int(tok[4:])
        except ValueError:
            raise UsageError(f"cannot parse {token!r}: sqrtN needs an integer N")
        if n <= 0:
            raise UsageError(f"cannot parse {token!r}: sqrtN needs N > 0")
        return surd.sqrt(n)
    try:
        value = Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise UsageError(
            f"cannot parse {token!r}: use an integer, p/q, a decimal, or sqrtN")
    return int(value) if value.denominator == 1 else value


def _read_input(path: str) -> str:
    """The text of a file, or of stdin for "-"; an unreadable file is a
    usage error."""
    if path == "-":
        return _check_digits(sys.stdin.read(), "the input")
    try:
        with open(path) as fh:
            return _check_digits(fh.read(), path)
    except OSError as exc:
        raise UsageError(str(exc))


def load_certificate(path: str, params: Params) -> FPoly:
    """Certificate file: line 1 is "r u s", line 2 holds s+1 rationals
    (coefficients in the F-basis, lowest index first)."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read certificate: {exc}")
    _check_digits(text, "the certificate file")
    lines = [ln.strip() for ln in text.splitlines()
             if ln.strip() and not ln.lstrip().startswith("#")]
    if len(lines) < 2:
        raise UsageError("certificate file needs a header line and a coefficient line")
    head = lines[0].split()
    if len(head) != 3:
        raise UsageError('certificate header must be "r u s"')
    try:
        r, u, s = (int(tok) for tok in head)
        coeffs = tuple(Fraction(tok) for tok in lines[1].split())
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad certificate file: {exc}")
    if (r, u) != (params.r, params.u):
        raise UsageError(
            f"certificate is for ({r},{u}), command asked for ({params.r},{params.u})")
    if len(coeffs) != s + 1:
        raise UsageError(f"expected {s + 1} coefficients, found {len(coeffs)}")
    return FPoly(params, coeffs)


# ---------------------------------------------------------------------------
# rendering

class Rounded(Record):
    """A one-sided bound: text and csv print it to 5 decimals rounded up
    for an upper bound (`up`), down for a lower one, so that the printed
    decimal is still a bound; json prints the value itself."""

    value: object
    up: bool


def fmt(x) -> str:
    """Text/csv cell: ints plain, rationals exact as p/q, floats and surds
    to 5 decimals, to nearest or, for a `Rounded`, exactly outward."""
    up = None
    if isinstance(x, Rounded):
        x, up = x.value, x.up
    if isinstance(x, bool):
        return "yes" if x else "no"
    if not isinstance(x, (float, Fraction, surd.Surd)) or (
            isinstance(x, Fraction) and x.denominator <= 10 ** 6):
        return str(x)
    if math.isinf(x):
        return "inf"
    if up is None:
        return fixed5(float(x))
    scaled = (x if isinstance(x, surd.Surd) else Fraction(x)) * 10 ** 5
    n = -math.floor(-scaled) if up else math.floor(scaled)
    whole, frac = divmod(abs(n), 10 ** 5)
    return f"{'-' if n < 0 else ''}{whole}.{frac:05d}"


def fixed5(x: float) -> str:
    """x to 5 decimals, unsigned when it rounds to zero: the sign of such a
    value is rounding noise."""
    text = f"{x:.5f}"
    return text[1:] if text == "-0.00000" else text


def fmt_flat(x) -> str:
    if isinstance(x, dict):
        return ", ".join(f"{k}={fmt_flat(v)}" for k, v in x.items())
    if isinstance(x, (list, tuple)):
        return "(" + ", ".join(fmt_flat(v) for v in x) + ")"
    return fmt(x)


def jval(x):
    """JSON payload keeps full precision; rationals serialize as p/q strings
    and surds as exact a + b*sqrtN strings."""
    if isinstance(x, Rounded):
        return jval(x.value)
    if isinstance(x, bool):
        return x
    if isinstance(x, surd.Surd):
        return str(x)
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    if isinstance(x, float) and math.isinf(x):
        return "inf"
    if isinstance(x, dict):
        return {str(k): jval(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jval(v) for v in x]
    return x


def emit_pairs(pairs, how: str, out) -> None:
    if how == "json":
        json.dump({k: jval(v) for k, v in pairs}, out, indent=2)
        out.write("\n")
    elif how == "csv":
        w = csv.writer(out)
        w.writerow(["field", "value"])
        for k, v in pairs:
            w.writerow([k, fmt_flat(v)])
    else:
        for k, v in pairs:
            out.write(f"{k}: {fmt_flat(v)}\n")


def emit_grid(header, rows, provenance, how: str, out, trailer) -> None:
    """Tabular output; every column carries its provenance tag."""
    if how == "json":
        payload = {"columns": list(header),
                   "provenance": dict(provenance),
                   "rows": [{k: jval(v) for k, v in zip(header, row)} for row in rows]}
        if trailer:
            payload["summary"] = trailer
        json.dump(payload, out, indent=2)
        out.write("\n")
        return
    cells = [[fmt(v) for v in row] for row in rows]
    if how == "csv":
        w = csv.writer(out)
        w.writerow(header)
        for row in cells:
            w.writerow(row)
        if trailer:
            w.writerow([trailer])
        return
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
              for i, h in enumerate(header)]
    out.write("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip() + "\n")
    for row in cells:
        out.write("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n")
    out.write("columns: " + "; ".join(f"{k}={v}" for k, v in provenance.items()) + "\n")
    if trailer:
        out.write(trailer + "\n")


def bound_pairs(b: BoundResult) -> list:
    # every value, and each end of a refinement, is an upper bound on an order
    pairs = [("theorem", b.theorem), ("value", Rounded(b.value, True))]
    for key, val in b.params.items():
        pairs.append((key, val))
    for ref in b.refinements:
        pairs.append((f"refinement [{ref.name}]",
                      f"{fmt(Rounded(ref.before, True))} -> "
                      f"{fmt(Rounded(ref.after, True))} ({ref.note})"))
    for i, note in enumerate(b.notes):
        pairs.append((f"note{i + 1}" if len(b.notes) > 1 else "note", note))
    if b.certificate is not None:
        pairs.append(("certificate_f_basis", list(b.certificate.coeffs)))
    return pairs


# ---------------------------------------------------------------------------
# bound subcommands

def cmd_bound(args) -> int:
    params = Params(args.r, args.u)
    out = sys.stdout
    sub = args.subcommand

    if sub == "closed-form":
        theta = parse_theta(args.theta)
        b = bounds.closed_form_h_bound(params, theta)
        b = bounds.integrality_refinements(b, params)
        emit_pairs(bound_pairs(b), args.format, out)
        return 0

    if sub == "lp":
        theta = parse_theta(args.theta)
        if args.cert:
            f = load_certificate(args.cert, params)
            b = bounds.lp_bound_evaluate(params, f, theta=theta)
        elif args.degree:
            b = bounds.lp_bound_optimize(params, theta, args.degree)
        else:
            raise UsageError("bound lp needs --cert FILE or --degree S")
        emit_pairs(bound_pairs(b), args.format, out)
        return 0

    if sub == "dss":
        lam = parse_theta(args.theta)
        check = bounds.dss_gen_bound(params, args.d, args.n, lam)
        pairs = [("passed", check.passed), ("slack", check.slack),
                 ("order_bound", check.order_bound)]
        pairs += list(check.params.items())
        if not check.passed:
            pairs.append(("conclusion",
                          f"no such configuration: an eigenvalue {fmt(lam)} forces "
                          f"order <= {fmt(check.order_bound)} < {args.n}"))
        emit_pairs(pairs, args.format, out)
        return 0

    if sub == "imp2":
        tau2 = parse_theta(args.theta)
        b = bounds.imp2_bound(params, args.d, tau2)
        emit_pairs(bound_pairs(b), args.format, out)
        return 0

    if sub == "diam":
        b = bounds.diameter_order_bound(params, args.ell)
        emit_pairs(bound_pairs(b), args.format, out)
        return 0

    if sub == "ru1":
        b = bounds.ru1_bound(args.r, args.u)
        if b is None:
            emit_pairs([("value", "not applicable"),
                        ("reason", f"needs r >= max(7u-5, u^2-1) = "
                                   f"{max(7 * args.u - 5, args.u ** 2 - 1)}")],
                       args.format, out)
            return 0
        emit_pairs(bound_pairs(b), args.format, out)
        return 0

    if sub == "tau2-lower":
        d, c, lam = bounds.tau2_lower(params, args.n)
        emit_pairs([("tau2_lower", Rounded(lam, False)), ("d", d), ("c", c),
                    ("meaning", f"every connected {args.r}-regular {args.u}-uniform "
                                f"hypergraph on >= {args.n} vertices has tau2 >= "
                                f"{fmt(Rounded(lam, False))}")],
                   args.format, out)
        return 0

    if sub == "defect-region":
        lower, lam_d, upper = bounds.defect_region(params, args.d, args.e)
        emit_pairs([("lower", Rounded(lower, False)), ("lambda_d", lam_d),
                    ("upper", Rounded(upper, True)),
                    ("meaning", f"an order within {args.e} of the diameter-{args.d} "
                                f"ceiling forces tau2 in [{fmt(Rounded(lower, False))}, "
                                f"{fmt(Rounded(upper, True))}]")],
                   args.format, out)
        return 0

    raise UsageError(f"unknown bound subcommand {sub!r}")


# ---------------------------------------------------------------------------
# analyze

# dense n x n work (spectrum, walk products, all-pairs BFS) is refused above
# this order; it admits the OA(4, 101) point hypergraph, n = 404
ANALYZE_MAX_N = 1000


def analyze_pairs(h: Hypergraph) -> list:
    if h.n > ANALYZE_MAX_N:
        raise UsageError(f"hypergraph has n = {h.n} vertices; analyze handles "
                         f"at most {ANALYZE_MAX_N}")
    an = Analysis(h)
    pairs = [("order", h.n), ("edges", h.m)]
    try:
        r, u = an.ru
        pairs.append(("degrees", f"{r}-regular {u}-uniform"))
    except NotRegularUniformError as exc:
        pairs.append(("degrees", f"irregular: {exc}"))
        r = u = None

    pairs.append(("girth", an.girth()))
    if r is not None and r >= 2:
        gt = an.girth_by_trace
        pairs.append(("girth_by_trace",
                      gt if gt is not None else f"> {TRACE_GIRTH_MAX}"))

    connected = an.connected
    pairs.append(("diameter", an.diameter() if connected else "inf (disconnected)"))

    pairs.append(("spectrum",
                  " ".join(f"{fixed5(v)}x{m}" for v, m in an.spectrum.clusters)))

    if r is None or not connected or r < 2:
        return pairs

    params = Params(r, u)
    tau2 = an.tau2
    pairs += [("tau2", tau2), ("spectral_gap", params.k - tau2),
              ("ramanujan", an.is_ramanujan())]

    dr = an.distance_regularity
    if dr.valid:
        pairs.append(("distance_regular",
                      {"valid": True, "b": list(dr.b), "c": list(dr.c),
                       "a": list(dr.a)}))
    else:
        pairs.append(("distance_regular",
                      {"valid": False, "witness_pair": list(dr.witness)}))

    # N N^T = A + rI and N^T N = A* + uI hold by definition here (README)
    pairs.append(("spectrum_correspondence", "ok"))

    tight = t_array(params, dr)
    if tight is not None:
        # the paper's equality theorem: the order of T(r, u, d, c) is the
        # closed form at its tau2, the largest zero of g_c
        pairs.append(("order_bound_at_tau2",
                      {"value": h.n, "d": tight[0], "c": tight[1],
                       "relation": "met with equality"}))
    elif tau2 < params.top - 1e-12:
        hb = bounds.closed_form_h_bound(params, tau2)
        value = hb.value
        if isinstance(tau2, int):
            exact = value == h.n
            within = h.n <= value
        else:
            exact = abs(value - h.n) <= 1e-6 * max(1.0, value)
            within = h.n <= value + 1e-9
        if exact:
            relation = "met with equality"
        elif within:
            relation = f"order {h.n} within bound"
        else:
            relation = f"order {h.n} EXCEEDS bound"
        pairs.append(("order_bound_at_tau2",
                      {"value": value, "d": hb.params["d"], "c": hb.params["c"],
                       "relation": relation}))
    else:
        pairs.append(("order_bound_at_tau2",
                      "none (tau2 at or above the universal-cover spectral top)"))

    # on a T-array, tau2_lower(n) finds the array's d and c, and its floor
    # is the same zero of g_c: the slack is 0
    d, c, lam = bounds.tau2_lower(params, h.n)
    pairs.append(("tau2_floor_at_order",
                  {"value": Rounded(lam, False), "d": d, "c": c,
                   "slack": 0 if tight is not None else tau2 - lam}))
    return pairs


def t_array(params: Params, dr: IntersectionNumbers) -> tuple[int, int] | None:
    """(d, c) when the valid intersection numbers `dr` form the array
    T(r, u, d, c): b = (k, q, ..., q) and c = (1, ..., 1, c_d), read
    exactly; None otherwise."""
    d = dr.diameter
    if dr.valid and dr.b[1:] == (params.q,) * (d - 1) and dr.c[:-1] == (1,) * (d - 1):
        return d, dr.c[-1]
    return None


def cmd_analyze(args) -> int:
    h = Hypergraph.from_text(_read_input(args.file))
    emit_pairs(analyze_pairs(h), args.format, sys.stdout)
    return 0


# ---------------------------------------------------------------------------
# tables

def _data_text(name: str) -> str:
    # a plain read of the package-data file: importlib.resources would load
    # typing, pathlib, tempfile and more, about 29 ms per `table` command
    with open(os.path.join(os.path.dirname(__file__), "data", name), encoding="utf-8") as fh:
        return fh.read()


def _csv_rows(name: str) -> list[dict]:
    lines = [ln for ln in _data_text(name).splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def cmd_table1(args) -> int:
    header = ["r", "u", "d", "v", "e", "lower", "lambda", "upper"]
    provenance = {"r": "input", "u": "input", "d": "input",
                  "v": "census fixture", "e": "census fixture",
                  "lower": "defect-region", "lambda": "defect-region",
                  "upper": "defect-region"}
    grid, matches = [], 0
    for row in _csv_rows("table1.csv"):
        r, u, d, v, e = (int(row[key]) for key in header[:5])
        values = bounds.defect_region(Params(r, u), d, e)
        grid.append([r, u, d, v, e, *values])
        # a match prints the paper's decimals, each proved within 0.000005
        printed = [f"{x:.5f}" for x in values]
        if args.verify and printed == [row[key] for key in header[5:]]:
            matches += bounds.defect_region_within(
                Params(r, u), d, e, [Fraction(x) for x in printed], Fraction(1, 2 * 10 ** 5))
    trailer = f"{matches}/{len(grid)} rows match" if args.verify else None
    emit_grid(header, grid, provenance, args.format, sys.stdout, trailer)
    return 1 if args.verify and matches != len(grid) else 0


def _truncate_one_decimal(x) -> str:
    t = math.floor(float(x) * 10) / 10
    return str(int(t)) if t == int(t) else f"{t:.1f}"


def catalog_cell(row: dict, degree: int | None):
    """One h-catalog row: closed form, tag-specific refinement, printed value."""
    r, u = int(row["r"]), int(row["u"])
    params = Params(r, u)
    theta = parse_theta(row["theta"])
    b = bounds.closed_form_h_bound(params, theta)
    raw = b.value
    tag = row["tag"]
    if tag == "LP":
        printed = _truncate_one_decimal(raw)
    elif tag == "attained":
        printed = fmt(raw)
    else:
        if tag == "noSRG":
            cut = bounds.strictly_below_int(b.value)
            b = b.replace(value=cut, refinements=b.refinements + (
                Refinement("no-attaining-object", raw, cut,
                           row.get("note") or "equality ruled out by census"),))
        b = bounds.integrality_refinements(b, params)
        printed = fmt(b.value)
    lp_opt = None
    if degree:
        lp_opt = bounds.lp_bound_optimize(params, theta, degree).value
    return (r, u, row["theta"], tag, raw, printed, row.get("expected", ""),
            lp_opt, row.get("note", ""))


def cmd_h_catalog(args) -> int:
    rows = _csv_rows("h_catalog.csv")
    if args.r is not None:
        rows = [row for row in rows if int(row["r"]) == args.r]
    if args.u is not None:
        rows = [row for row in rows if int(row["u"]) == args.u]
    if args.theta is not None:
        rows = [row for row in rows if row["theta"] == args.theta]
    if not rows:
        if args.r is None or args.u is None or args.theta is None:
            raise UsageError("no catalog cells match the given filters")
        rows = [{"r": str(args.r), "u": str(args.u), "theta": args.theta,
                 "tag": "-", "expected": "", "note": "not a catalog cell"}]

    cells = [catalog_cell(row, args.degree) for row in rows]

    header = ["r", "u", "theta", "tag", "bound", "printed", "expected", "note"]
    provenance = {"r": "input", "u": "input", "theta": "input",
                  "tag": "catalog fixture", "bound": "closed-form",
                  "printed": "closed-form + tag refinements",
                  "expected": "catalog fixture", "note": "catalog fixture"}
    if args.degree:
        header.insert(6, f"lp_opt(s={args.degree})")
        provenance[f"lp_opt(s={args.degree})"] = "lp-optimizer"

    grid = []
    matches = 0
    comparable = 0
    for cell in cells:
        r, u, theta, tag, raw, printed, expected, lp_opt, note = cell
        # bound and lp_opt are upper bounds on an order
        line = [r, u, theta, tag, Rounded(raw, True), printed]
        if args.degree:
            line.append(Rounded(lp_opt, True) if lp_opt is not None else "")
        line += [expected, note]
        grid.append(line)
        if expected:
            comparable += 1
            if printed == expected:
                matches += 1

    trailer = f"{matches}/{comparable} cells match" if args.verify else None
    emit_grid(header, grid, provenance, args.format, sys.stdout, trailer)
    if args.verify and matches != comparable:
        return 1
    return 0


def cmd_table(args) -> int:
    if args.which == "table1":
        return cmd_table1(args)
    return cmd_h_catalog(args)


# ---------------------------------------------------------------------------
# construct

def _write_data(args, payload: str, report) -> None:
    """Data to -o FILE (report on stdout) or to stdout (report on stderr),
    so construct commands compose through pipes.  `report()` builds the
    report pairs only once the data is out, so its failure cannot lose it."""
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
        sys.stdout.flush()
    emit_pairs(report(), "text", sys.stdout if args.output else sys.stderr)


def cmd_construct(args) -> int:
    if args.kind == "mols-oa":
        squares = args.rows - 2
        if squares < 1:
            raise UsageError("--rows must be at least 3 "
                             "(two coordinate rows plus at least one square)")
        oa = oa_from_mols(mols_cyclic(args.p, squares))
        _require_valid(oa)  # raises OAValidationError on an invalid array
        _write_data(args, oa.to_text(),
                    lambda: [("kind", "orthogonal array"), ("rows", oa.rows),
                             ("columns", oa.cols), ("alphabet", oa.alphabet),
                             ("valid", True)])
        return 0

    if args.kind == "named":
        try:
            h = named_fixture(args.name)
        except KeyError:
            raise UsageError(f"unknown fixture {args.name!r}; "
                             f"available: {', '.join(fixture_names())}")
    elif args.kind in ("from-oa", "oa-minus"):
        oa = OrthogonalArray.from_text(_read_input(args.file))
        h = (hypergraph_from_oa(oa) if args.kind == "from-oa"
             else oa_minus_transversal(oa, args.symbol))
    else:
        raise UsageError(f"unknown construct kind {args.kind!r}")

    _write_data(args, h.to_text(), lambda: analyze_pairs(h))
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_format(p) -> None:
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hyplp",
        description="Spectral order bounds for regular uniform hypergraphs.")
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bound", help="analytic order bounds")
    bsub = b.add_subparsers(dest="subcommand", required=True)

    def bound_sub(name, **flags):
        p = bsub.add_parser(name)
        p.add_argument("--r", type=int, required=True)
        p.add_argument("--u", type=int, required=True)
        if flags.get("theta"):
            p.add_argument("--theta", required=True)
        if flags.get("n"):
            p.add_argument("--n", type=int, required=True)
        if flags.get("ell"):
            p.add_argument("--ell", type=int, required=True)
        if flags.get("d"):
            p.add_argument("--d", type=int, default=flags["d"]
                           if flags["d"] is not True else None,
                           required=flags["d"] is True)
        if flags.get("e"):
            p.add_argument("--e", type=int, required=True)
        if flags.get("degree"):
            p.add_argument("--degree", type=int)
        if flags.get("cert"):
            p.add_argument("--cert")
        _add_format(p)
        p.set_defaults(func=cmd_bound)
        return p

    bound_sub("closed-form", theta=True)
    bound_sub("lp", theta=True, degree=True, cert=True)
    bound_sub("dss", theta=True, d=True, n=True)
    bound_sub("imp2", theta=True, d=True)
    bound_sub("diam", ell=True)
    bound_sub("ru1")
    bound_sub("tau2-lower", n=True)
    bound_sub("defect-region", d=2, e=True)

    an = sub.add_parser("analyze", help="report on a hypergraph file")
    an.add_argument("file")
    _add_format(an)
    an.set_defaults(func=cmd_analyze)

    tb = sub.add_parser("table", help="regenerate the shipped tables")
    tb.add_argument("which", choices=("table1", "h-catalog"))
    tb.add_argument("--verify", action="store_true")
    tb.add_argument("--r", type=int)
    tb.add_argument("--u", type=int)
    tb.add_argument("--theta")
    tb.add_argument("--degree", type=int)
    _add_format(tb)
    tb.set_defaults(func=cmd_table)

    co = sub.add_parser("construct", help="build hypergraphs and arrays")
    csub = co.add_subparsers(dest="kind", required=True)
    cn = csub.add_parser("named")
    cn.add_argument("name")
    cf = csub.add_parser("from-oa")
    cf.add_argument("file", nargs="?", default="-")
    cm = csub.add_parser("oa-minus")
    cm.add_argument("file", nargs="?", default="-")
    cm.add_argument("--symbol", type=int, required=True)
    cg = csub.add_parser("mols-oa")
    cg.add_argument("--p", type=int, required=True)
    cg.add_argument("--rows", type=int, required=True)
    for p in (cn, cf, cm, cg):
        p.add_argument("-o", "--output")
        p.set_defaults(func=cmd_construct)

    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # building costs milliseconds, about 10x a closed-form bound, and parsing
    # leaves the parser unchanged, so one instance serves every main() call
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # print exact numbers whole: lift Python's int-str digit limit, which is
    # 0 when it is off, as in every Python before 3.10.7
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader left (`| head -1`): stop without a traceback, with the
        # status a shell gives a SIGPIPE death; stdout now points at devnull,
        # so the flush at exit has nowhere to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE
    except (UsageError, ValueError) as exc:
        # ValueError covers the format, array, regularity and LP-condition
        # errors: all of them are about the input
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        # a numerical method failed on valid input: a fault of hyplp's
        print(f"error: internal: {exc}", file=sys.stderr)
        return 3
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
