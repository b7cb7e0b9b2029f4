"""Checks each benchmark operation's output against a computation made apart
from hyplp, or against a property the method must have.

Runs in its own process, so numpy, scipy and networkx never load into the
measured one:

    python3 perfbench/oracle.py perfbench/out/<run>/ops.json

reads the operations a worker recorded (argv, exit code, stdout, stderr) and
writes `verdicts.json` next to it: one entry per operation, with status
"ok", "kept" (fails in the documented way of a known fault) or "wrong".
"""

from __future__ import annotations

import json
import math
import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import exact  # noqa: E402

# substrings that identify each known fault the workloads keep on purpose
KEPT_FAULTS = {
    "lp-negative-dual": "violated f_i >= 0 for i >= 1",
    "certify-near-miss": None,  # hyplp accepts a certificate that is false
    "analyze-ql": "tridiagonal QL iteration did not converge",
}

LP_GRID = 4001
LP_REL_TOL = 1e-3
EIG_TOL = 1e-6
SPECTRUM_PRINT_TOL = 5e-6 + 1e-9  # `spectrum` is printed with 5 decimals


class Wrong(Exception):
    """An output disagrees with the independent computation."""


def theta_interval_ends(token: str):
    """Rational (lo, hi) with lo <= theta <= hi; equal when theta is rational."""
    if token.startswith("sqrt"):
        return exact.sqrt_bracket(int(token[4:]))
    t = Fraction(token)
    return t, t


def theta_float(token: str) -> float:
    return math.sqrt(int(token[4:])) if token.startswith("sqrt") else float(Fraction(token))


def valid_certificate(r, u, coeffs, theta_token):
    """Whether f = sum coeffs[i] F_i proves an order bound on [-r, theta]:
    f_0 > 0, f_i >= 0, f(k) > 0 and f <= 0 on the interval, all exact.
    For irrational theta both rational brackets must give the same answer."""
    if coeffs[0] <= 0 or any(c < 0 for c in coeffs[1:]):
        return False
    if exact.certificate_value(r, u, coeffs) * coeffs[0] <= 0:
        return False
    poly = exact.to_monomial(r, u, coeffs)
    lo, hi = theta_interval_ends(theta_token)
    at_lo = exact.nonpositive_on(poly, Fraction(-r), lo)
    if lo == hi:
        return at_lo
    at_hi = exact.nonpositive_on(poly, Fraction(-r), hi)
    if at_lo != at_hi:
        raise Wrong(f"cannot decide f <= 0 up to {theta_token}: a root lies within 1e-15 of it")
    return at_lo


# ---------------------------------------------------------------------------
# lp-optimize


def lp_grid_optimum(r: int, u: int, theta: float, s: int) -> float:
    """min 1 + sum_j f_j F_j(k) over f_j >= 0 with 1 + sum_j f_j F_j(x) <= 0
    on a fine grid of [-r, theta], by scipy's HiGHS solver."""
    import numpy as np
    from scipy.optimize import linprog

    k, q, shift = r * (u - 1), (r - 1) * (u - 1), u - 2
    xs = np.linspace(-r, theta, LP_GRID)
    cols = [np.ones_like(xs), xs, xs * xs - shift * xs - k]
    while len(cols) <= s:
        cols.append((xs - shift) * cols[-1] - q * cols[-2])
    a_ub = np.stack(cols[1:s + 1], axis=1)
    fk = [float(v) for v in exact.f_at_k(r, u, s)[1:]]
    res = linprog(fk, A_ub=a_ub, b_ub=-np.ones(len(xs)), bounds=(0, None),
                  method="highs")
    if res.status != 0:
        raise Wrong(f"reference LP did not solve: {res.message}")
    return 1.0 + res.fun


def check_lp_optimize(op) -> None:
    m = op["meta"]
    r, u, s = m["r"], m["u"], m["s"]
    if op["rc"] != 0:
        raise Wrong(f"exit {op['rc']}: {op['stderr'].strip()[:200]}")
    out = json.loads(op["stdout"])
    if out.get("theorem") != "LP_OPT":
        raise Wrong(f"theorem {out.get('theorem')!r}, expected LP_OPT")
    coeffs = [Fraction(str(c)) for c in out["certificate_f_basis"]]
    if len(coeffs) > s + 1:
        raise Wrong(f"certificate has degree {len(coeffs) - 1} > {s}")
    if coeffs[0] <= 0 or any(c < 0 for c in coeffs[1:]):
        raise Wrong("certificate coefficients break f_0 > 0, f_i >= 0")
    value = Fraction(str(out["value"]))
    if value != exact.certificate_value(r, u, coeffs):
        raise Wrong(f"value {value} != f(k)/f_0 of the printed certificate")
    hi = theta_interval_ends(m["theta"])[1]
    if not exact.nonpositive_on(exact.to_monomial(r, u, coeffs), Fraction(-r), hi):
        raise Wrong(f"certificate is positive somewhere on [-{r}, {m['theta']}]")
    ref = lp_grid_optimum(r, u, theta_float(m["theta"]), s)
    if abs(float(value) - ref) > LP_REL_TOL * abs(ref):
        raise Wrong(f"value {float(value):.9g} vs reference LP optimum {ref:.9g}")


# ---------------------------------------------------------------------------
# certify


def read_certificate(path: str):
    with open(path) as fh:
        lines = [ln.split() for ln in fh if ln.strip() and not ln.startswith("#")]
    r, u, s = (int(t) for t in lines[0])
    coeffs = [Fraction(t) for t in lines[1]]
    if len(coeffs) != s + 1:
        raise ValueError(f"{path}: header degree {s}, {len(coeffs)} coefficients")
    return r, u, coeffs


def check_certify(op, root: str) -> None:
    m = op["meta"]
    r, u, coeffs = read_certificate(os.path.join(root, m["file"]))
    expect_valid = valid_certificate(r, u, coeffs, m["theta"])
    if op["rc"] == 0:
        if not expect_valid:
            raise Wrong("accepted a certificate that is not valid")
        out = json.loads(op["stdout"])
        if out.get("theorem") != "LP_CERT":
            raise Wrong(f"theorem {out.get('theorem')!r}, expected LP_CERT")
        value = Fraction(str(out["value"]))
        if value != exact.certificate_value(r, u, coeffs):
            raise Wrong(f"value {value} != f(k)/f_0")
    elif op["rc"] == 2 and op["stderr"].startswith("error: violated"):
        if expect_valid:
            raise Wrong(f"rejected a valid certificate: {op['stderr'].strip()[:200]}")
    else:
        raise Wrong(f"exit {op['rc']}: {op['stderr'].strip()[:200]}")


# ---------------------------------------------------------------------------
# analyze


def read_hypergraph(path: str):
    rows = []
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].split()
            if line:
                rows.append([int(t) for t in line])
    n, m = rows[0]
    edges = rows[1:]
    if len(edges) != m:
        raise ValueError(f"{path}: header says {m} edges, found {len(edges)}")
    return n, edges


def _parse_spectrum(text: str):
    values = []
    for tok in text.split():
        v, mult = tok.split("x")
        values += [float(v)] * int(mult)
    return sorted(values, reverse=True)


def check_analyze(op, root: str) -> None:
    import networkx as nx
    import numpy as np

    n, edges = read_hypergraph(os.path.join(root, op["meta"]["file"]))
    if op["rc"] != 0:
        raise Wrong(f"exit {op['rc']}: {op['stderr'].strip()[:200]}")
    out = json.loads(op["stdout"])
    if (out["order"], out["edges"]) != (n, len(edges)):
        raise Wrong(f"order/edges {out['order']}/{out['edges']} != {n}/{len(edges)}")

    adj = np.zeros((n, n))
    for e in edges:
        for i, x in enumerate(e):
            for y in e[i + 1:]:
                adj[x, y] += 1
                adj[y, x] += 1
    eig = sorted(np.linalg.eigvalsh(adj), reverse=True)
    printed = _parse_spectrum(out["spectrum"])
    if len(printed) != n or max(abs(a - b) for a, b in zip(printed, eig)) > SPECTRUM_PRINT_TOL:
        raise Wrong("spectrum differs from numpy.linalg.eigvalsh")

    inc = nx.Graph()
    inc.add_nodes_from(range(n + len(edges)))
    inc.add_edges_from((v, n + j) for j, e in enumerate(edges) for v in e)
    g2 = nx.girth(inc)
    girth = "inf" if g2 == math.inf else g2 // 2
    if out["girth"] != girth:
        raise Wrong(f"girth {out['girth']} != {girth} (networkx)")
    point = nx.Graph()
    point.add_nodes_from(range(n))
    point.add_edges_from((x, y) for e in edges for i, x in enumerate(e) for y in e[i + 1:])
    if out["diameter"] != nx.diameter(point):
        raise Wrong(f"diameter {out['diameter']} != {nx.diameter(point)} (networkx)")

    deg = [0] * n
    for e in edges:
        for v in e:
            deg[v] += 1
    sizes = {len(e) for e in edges}
    if len(set(deg)) != 1 or len(sizes) != 1:
        if not str(out["degrees"]).startswith("irregular"):
            raise Wrong(f"irregular input reported as {out['degrees']!r}")
        return
    r, u = deg[0], sizes.pop()
    if out["degrees"] != f"{r}-regular {u}-uniform":
        raise Wrong(f"degrees {out['degrees']!r} for an {r}-regular {u}-uniform input")
    expect_trace = girth if girth != "inf" and girth <= 12 else "> 12"
    if out["girth_by_trace"] != expect_trace:
        raise Wrong(f"girth_by_trace {out['girth_by_trace']} != {expect_trace}")

    tau2 = out["tau2"]
    if abs(tau2 - eig[1]) > EIG_TOL:
        raise Wrong(f"tau2 {tau2} != {eig[1]} (numpy)")
    q = (r - 1) * (u - 1)
    edge_of_window = abs(abs(tau2 - (u - 2)) - 2 * math.sqrt(q))
    if edge_of_window > 1e-7 and out["ramanujan"] != (abs(tau2 - (u - 2)) <= 2 * math.sqrt(q)):
        raise Wrong(f"ramanujan {out['ramanujan']} contradicts tau2 {tau2}")
    if out["spectrum_correspondence"] != "ok":
        raise Wrong(f"correspondence check: {out['spectrum_correspondence']}")
    if adj.max() <= 1:
        dr = out["distance_regular"]
        if dr["valid"] != nx.is_distance_regular(point):
            raise Wrong(f"distance_regular valid={dr['valid']} disagrees with networkx")
        if dr["valid"] and [list(x) for x in nx.intersection_array(point)] != [dr["b"], dr["c"]]:
            raise Wrong("intersection array disagrees with networkx")

    bound = out["order_bound_at_tau2"]
    if isinstance(bound, dict):
        value = float(Fraction(str(bound["value"])))
        if n > value * (1 + 1e-9):
            raise Wrong(f"order {n} exceeds the closed-form bound {value} at tau2")
    elif tau2 < u - 2 + 2 * math.sqrt(q) - 1e-9:
        raise Wrong(f"no order bound reported although tau2 {tau2} is below the top")
    floor = out["tau2_floor_at_order"]["value"]
    if tau2 < floor - 1e-9:
        raise Wrong(f"tau2 {tau2} below the floor {floor} for order {n}")


# ---------------------------------------------------------------------------


def verdict(op, root: str) -> dict:
    check = {"lp-optimize": check_lp_optimize,
             "certify": lambda o: check_certify(o, root),
             "analyze": lambda o: check_analyze(o, root)}[op["kind"]]
    try:
        check(op)
        return {"status": "ok"}
    except Wrong as exc:
        detail = str(exc)
    kept = op.get("kept_fault")
    if kept is not None:
        signature = KEPT_FAULTS[kept]
        if signature is None and op["rc"] == 0 or (
                signature is not None and op["rc"] == 2 and signature in op["stderr"]):
            return {"status": "kept", "fault": kept, "detail": detail}
    return {"status": "wrong", "detail": detail}


def main(argv) -> int:
    path = argv[1]
    with open(path) as fh:
        record = json.load(fh)
    root = record["root"]
    verdicts = [verdict(op, root) for op in record["ops"]]
    with open(os.path.join(os.path.dirname(path), "verdicts.json"), "w") as fh:
        json.dump(verdicts, fh, indent=1)
    bad = [(op["argv"], v["detail"]) for op, v in zip(record["ops"], verdicts)
           if v["status"] == "wrong"]
    for argv_, detail in bad:
        print(f"WRONG: {' '.join(argv_)}: {detail}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
