"""Seeded inputs for the three benchmark workloads.

Every workload is a fixed-size batch of `hyplp` command lines.  The seed
decides which inputs fill the batch; the batch size, the cost mix and the
operations kept because of a known fault do not depend on it, so every run
fails the same share of its operations.

Seeded draws come from the vetted pools in `pools.json` (rebuilt by
`python3 perfbench/vet.py`): candidates on which hyplp answers correctly, so
no operation fails on some seeds only.  For the random hypergraphs a pool
entry is the key of a random stream that `cm_edges` or `irregular_edges`
expands into the same edges every time.  Stdlib plus hyplp only, because this
runs inside the measured process as part of its set-up.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
POOLS = os.path.join(HERE, "pools.json")

WORKLOADS = ("lp-optimize", "certify", "analyze")

# lp-optimize: per batch, one call from the stalling pool (Bland's rule runs
# tens of thousands of pivots, 5-7 s) and LP_FAST from the sub-second pool,
# so the median operation sits among the sub-second calls
LP_FAST = 8
LP_STALL = 1
# three fixed calls from the fast pool, of about its median cost: they hold
# the batch's median call in place, which the seeded draws alone moved by
# 6-11% (interquartile range over median of op_p50_s over ten seeds)
LP_ANCHORS = ((5, 3, "sqrt18", 4), (5, 2, "sqrt3", 4), (5, 3, "2", 6))
# the kept fault: round-off leaves a -3.3e-18 dual, which the exact check
# then rejects (exit 2) on every run
LP_KEPT = ("8", "2", "2", 7)

# certify: seeded (r, u, theta) triples, each giving a tight, a loose and an
# invalid certificate; a minority at theta = sqrtN
CERT_RATIONAL = 30
CERT_SQRT = 6
# near misses (f_0 raised by 1e-10) at fixed closed-form certificates; the
# ones hyplp accepts are the kept fault "certify-near-miss"
NEAR_MISSES = ((3, 2, "1"), (5, 3, "2"), (5, 2, "7/4"), (3, 3, "2"),
               (3, 2, "7/4"), (7, 2, "2"))

# analyze: configuration-model hypergraphs of fixed (r, u, n); the seed draws
# their edges.  m < n for most u >= 3 rows, m > n for the graph rows.
CM_SPECS = ((2, 3, 48), (2, 4, 60), (2, 5, 80), (3, 4, 40), (2, 3, 96),
            (2, 5, 100), (3, 2, 40), (4, 2, 50), (3, 3, 45), (3, 2, 80),
            (4, 3, 30), (5, 2, 24))
# orthogonal-array point hypergraphs (rows, prime p): n = rows*p, m = p^2
OA_SPECS = ((3, 7), (4, 7), (5, 7), (5, 5), (4, 11), (3, 13))
# kept fault: QL does not converge on the 154x154 incidence matrix
OA_KEPT = (3, 11)
IRREGULAR_BASE = (2, 3, 30)


def load_pools() -> dict:
    with open(POOLS) as fh:
        return json.load(fh)


def _theta_flag(theta: str) -> str:
    # "--theta=-1/5": argparse would read a separate "-1/5" as an option
    return f"--theta={theta}"


def lp_argv(r, u, theta, s):
    return ["bound", "lp", "--r", str(r), "--u", str(u), _theta_flag(theta),
            "--degree", str(s), "--format", "json"]


def cert_argv(r, u, theta, path):
    return ["bound", "lp", "--r", str(r), "--u", str(u), "--cert", path,
            _theta_flag(theta), "--format", "json"]


def write_certificate(path: str, r: int, u: int, coeffs) -> None:
    with open(path, "w") as fh:
        fh.write(f"{r} {u} {len(coeffs) - 1}\n")
        fh.write(" ".join(str(c) for c in coeffs) + "\n")


def closed_form_certificate(r: int, u: int, theta: Fraction):
    """F-basis coefficients of the closed-form certificate at rational theta,
    or None when its expansion has a negative coefficient."""
    from hyplp.bounds import closed_form_h_bound
    from hyplp.orthopoly import Params

    cert = closed_form_h_bound(Params(r, u), theta).certificate
    return None if cert is None else list(cert.coeffs)


def certificate_variants(coeffs):
    """Tight (as built), loose (f_0 lowered by an eighth) and invalid
    (f_0 raised by 1e-3) versions of one closed-form certificate."""
    f0 = coeffs[0]
    return (("tight", coeffs),
            ("loose", [f0 * Fraction(7, 8)] + coeffs[1:]),
            ("invalid", [f0 + Fraction(1, 1000)] + coeffs[1:]))


def random_regular_uniform(rng: random.Random, r: int, u: int, n: int):
    """Connected r-regular u-uniform hypergraph from the configuration model:
    r stubs per vertex chopped into edges of size u, redrawn until no edge
    repeats a vertex and the point graph is connected."""
    stubs = [v for v in range(n) for _ in range(r)]
    while True:
        rng.shuffle(stubs)
        edges = [stubs[i:i + u] for i in range(0, n * r, u)]
        if all(len(set(e)) == u for e in edges) and _connected(n, edges):
            return edges


def _connected(n: int, edges) -> bool:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in edges:
        for v in e[1:]:
            parent[find(v)] = find(e[0])
    return len({find(v) for v in range(n)}) == 1


def cm_edges(r: int, u: int, n: int, key: int):
    return random_regular_uniform(random.Random(f"cm:{r}:{u}:{n}:{key}"), r, u, n)


def irregular_edges(key: int):
    """A configuration-model hypergraph plus one extra edge, whose u
    vertices then have degree r + 1."""
    r, u, n = IRREGULAR_BASE
    rng = random.Random(f"irregular:{key}")
    edges = random_regular_uniform(rng, r, u, n)
    edges.append(rng.sample(range(n), u))
    return n, edges


def write_hypergraph(path: str, n: int, edges) -> None:
    with open(path, "w") as fh:
        fh.write(f"{n} {len(edges)}\n")
        for e in edges:
            fh.write(" ".join(str(v) for v in sorted(e)) + "\n")


def oa_edges(rows: int, p: int):
    from hyplp.constructions import hypergraph_from_oa, mols_cyclic, oa_from_mols

    h = hypergraph_from_oa(oa_from_mols(mols_cyclic(p, rows - 2)))
    return h.n, [list(e) for e in h.edges]


# ---------------------------------------------------------------------------


def _op(kind, argv, meta, kept=None):
    return {"kind": kind, "argv": argv, "meta": meta, "kept_fault": kept}


def build_lp_optimize(rng, pools, inputs_rel):
    ops = []
    # one draw from each of LP_FAST cost strata of the fast pool, so that the
    # batch's total and its median call vary little from seed to seed
    fast = sorted(pools["lp_fast"], key=lambda row: row[4])
    width = len(fast) / LP_FAST
    picks = [rng.choice(fast[round(i * width):round((i + 1) * width)])
             for i in range(LP_FAST)]
    picks += rng.sample(pools["lp_stall"], LP_STALL)
    for r, u, theta, s in [row[:4] for row in picks] + list(LP_ANCHORS):
        ops.append(_op("lp-optimize", lp_argv(r, u, theta, s),
                       {"r": int(r), "u": int(u), "theta": theta, "s": s}))
    r, u, theta, s = LP_KEPT
    ops.append(_op("lp-optimize", lp_argv(r, u, theta, s),
                   {"r": int(r), "u": int(u), "theta": theta, "s": s},
                   kept="lp-negative-dual"))
    return ops


def build_certify(rng, pools, inputs_rel):
    ops = []
    picks = ([(r, u, th, th) for r, u, th in rng.sample(pools["cert_rational"], CERT_RATIONAL)]
             + [tuple(x) for x in rng.sample(pools["cert_sqrt"], CERT_SQRT)])
    for i, (r, u, theta, built_at) in enumerate(picks):
        coeffs = closed_form_certificate(r, u, Fraction(built_at))
        for variant, cs in certificate_variants(coeffs):
            path = f"{inputs_rel}/c{i:03d}-{variant}.cert"
            write_certificate(path, r, u, cs)
            ops.append(_op("certify", cert_argv(r, u, theta, path),
                           {"file": path, "theta": theta, "variant": variant,
                            "built_at": built_at}))
    for i, (r, u, theta) in enumerate(NEAR_MISSES):
        coeffs = closed_form_certificate(r, u, Fraction(theta))
        coeffs = [coeffs[0] + Fraction(1, 10 ** 10)] + coeffs[1:]
        path = f"{inputs_rel}/near{i}.cert"
        write_certificate(path, r, u, coeffs)
        ops.append(_op("certify", cert_argv(r, u, theta, path),
                       {"file": path, "theta": theta, "variant": "near-miss",
                        "built_at": theta}, kept="certify-near-miss"))
    return ops


def build_analyze(rng, pools, inputs_rel):
    ops = []

    def add(name, n, edges, kept=None, cls="regular"):
        path = f"{inputs_rel}/{name}.txt"
        write_hypergraph(path, n, edges)
        ops.append(_op("analyze", ["analyze", path, "--format", "json"],
                       {"file": path, "class": cls, "n": n, "m": len(edges)}, kept=kept))

    for r, u, n in CM_SPECS:
        key = rng.choice(pools["analyze_cm"][f"{r},{u},{n}"])
        add(f"cm-{r}-{u}-{n}", n, cm_edges(r, u, n, key), cls="configuration")
    for rows, p in OA_SPECS:
        add(f"oa-{rows}-{p}", *oa_edges(rows, p), cls="oa")
    add(f"oa-{OA_KEPT[0]}-{OA_KEPT[1]}", *oa_edges(*OA_KEPT), kept="analyze-ql", cls="oa")
    add("irregular", *irregular_edges(rng.choice(pools["analyze_irregular"])),
        cls="irregular")
    return ops


BUILDERS = {"lp-optimize": build_lp_optimize, "certify": build_certify,
            "analyze": build_analyze}


def build(workload: str, seed: int, inputs_rel: str):
    """The batch of operations for one run.  Input files go to `inputs_rel`
    (relative to the checkout root, which is the working directory).  The
    order of the batch is shuffled by the seed too."""
    rng = random.Random(f"{workload}:{seed}")
    os.makedirs(inputs_rel, exist_ok=True)
    ops = BUILDERS[workload](rng, load_pools(), inputs_rel)
    rng.shuffle(ops)
    return ops
