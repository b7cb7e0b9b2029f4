"""Rebuild `pools.json`, the candidate inputs the seeded workloads draw from.

    python3 perfbench/vet.py [--only lp|cert|analyze]

Every candidate is run through hyplp and judged by the oracle.  Only
candidates that hyplp answers correctly enter a pool, so a seed can never
draw an input that fails; each fault kept in a workload sits at fixed,
seed-independent inputs instead.  Candidates that hyplp gets wrong are
printed, since they are faults of the program.

- lp pools: every h-catalog (r, u, theta) with degree s = 3..8, timed in a
  fresh process each (the median of 5 calls below 1 s, of 3 near the stall
  band).  "fast" takes 0.35-0.8 s, "stall" 5-6 s (Bland's rule stalling in
  the simplex); calls over 12 s are cut off and left out.
- cert pools: rational theta = a/b (b <= 6) strictly between consecutive
  largest zeros lambda_{d-1} < theta < lambda_d (d = 2, 3, 4) where the
  closed-form certificate exists; and theta = sqrtN with the certificate
  built at a rational theta+ = ceil(sqrtN * D) / D, D in (10, 100, 1000).
  Kept when the tight, loose and invalid certificates all get the right
  verdict, each in under 0.25 s (the certifier's slow evaluation-cap path
  is exercised by the fixed near misses instead).
- analyze pools: for each configuration-model (r, u, n) of the workload and
  for the irregular input, the keys 0..39 of the random streams whose
  hypergraph hyplp analyzes correctly.

Timings depend on the machine; the pools were built on a 2-CPU machine with
Python 3.11.7.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import oracle  # noqa: E402
import workloads  # noqa: E402
from worker import run_op  # noqa: E402

FAST = (0.35, 0.8)
STALL = (5.0, 6.0)
LP_CUTOFF = 12.0
CERT_MAX_S = 0.25
CERT_PARAMS = ((3, 2), (4, 2), (5, 2), (6, 2), (7, 2), (2, 3), (3, 3), (4, 3),
               (5, 3), (2, 4), (3, 4))
SQRT_SCALES = (10, 100, 1000)
ANALYZE_KEYS = 40

_TIMED_CALL = ("import statistics, sys, time\n"
               "sys.path.insert(0, sys.argv[1])\n"
               "from hyplp.cli import main\n"
               "times = []\n"
               "for _ in range(int(sys.argv[2])):\n"
               "    t = time.perf_counter()\n"
               "    rc = main(sys.argv[3:])\n"
               "    times.append(time.perf_counter() - t)\n"
               "print('ELAPSED', statistics.median(times), file=sys.stderr)\n"
               "sys.exit(rc)\n")


def timed_call(argv, repeats):
    """(process, median seconds of `repeats` calls) in a fresh process."""
    p = subprocess.run([sys.executable, "-I", "-S", "-c", _TIMED_CALL,
                        os.path.join(ROOT, "src"), str(repeats)] + argv,
                       capture_output=True, text=True, timeout=LP_CUTOFF * repeats)
    err, _, tail = p.stderr.rpartition("ELAPSED ")
    return p, err, float(tail)


def catalog_rows():
    with open(os.path.join(ROOT, "src", "hyplp", "data", "h_catalog.csv")) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return [(int(row["r"]), int(row["u"]), row["theta"]) for row in csv.DictReader(lines)]


def vet_lp(pools):
    fast, stall = [], []
    for r, u, theta in catalog_rows():
        for s in range(3, 9):
            argv = workloads.lp_argv(r, u, theta, s)
            try:
                p, err, elapsed = timed_call(argv, 1)
            except subprocess.TimeoutExpired:
                print(f"lp {r} {u} {theta} s={s}: over {LP_CUTOFF} s, left out", flush=True)
                continue
            # pool members are timed again, as the median of several calls
            if elapsed < 1.0:
                elapsed = timed_call(argv, 5)[2]
            elif STALL[0] * 0.8 <= elapsed <= STALL[1] * 1.2:
                elapsed = timed_call(argv, 3)[2]
            op = {"kind": "lp-optimize", "argv": argv, "rc": p.returncode,
                  "stdout": p.stdout, "stderr": err,
                  "meta": {"r": r, "u": u, "theta": theta, "s": s}}
            v = oracle.verdict(op, ROOT)
            print(f"lp {r} {u} {theta} s={s}: {elapsed:.2f} s {v['status']}"
                  f" {v.get('detail', '')[:100]}", flush=True)
            if v["status"] != "ok":
                continue
            row = [r, u, theta, s, round(elapsed, 3)]
            if FAST[0] <= elapsed <= FAST[1]:
                fast.append(row)
            elif STALL[0] <= elapsed <= STALL[1]:
                stall.append(row)
    pools["lp_fast"], pools["lp_stall"] = fast, stall


def _cert_candidate_ok(r, u, theta, built_at, work_dir):
    from hyplp.cli import main

    try:
        coeffs = workloads.closed_form_certificate(r, u, Fraction(built_at))
    except (ValueError, ArithmeticError) as exc:
        print(f"cert {r} {u} closed form at {built_at} failed: {exc}", flush=True)
        return False
    if coeffs is None:
        return False
    for variant, cs in workloads.certificate_variants(coeffs):
        path = os.path.join(work_dir, f"{variant}.cert")
        workloads.write_certificate(path, r, u, cs)
        argv = workloads.cert_argv(r, u, theta, path)
        rc, out, err, t0, t1 = run_op(main, argv)
        op = {"kind": "certify", "argv": argv, "rc": rc, "stdout": out, "stderr": err,
              "meta": {"file": path, "theta": theta}}
        v = oracle.verdict(op, ROOT)
        if v["status"] != "ok":
            print(f"cert {r} {u} theta={theta} built at {built_at} {variant}: "
                  f"{v['detail'][:120]}", flush=True)
            return False
        if t1 - t0 > CERT_MAX_S:
            return False
    return True


def vet_cert(pools, work_dir):
    from hyplp.orthopoly import Params, largest_zero_G

    rational, sqrt_ = [], []
    for r, u in CERT_PARAMS:
        p = Params(r, u)
        top = u - 2 + 2 * math.sqrt(p.q)
        zeros = [-1.0] + [largest_zero_G(p, d) for d in (2, 3, 4)]
        seen = set()
        for lo, hi in zip(zeros, zeros[1:]):
            for den in range(1, 7):
                for num in range(math.floor(lo * den), math.ceil(hi * den) + 1):
                    th = Fraction(num, den)
                    if not lo < th < hi or th in seen:
                        continue
                    seen.add(th)
                    if _cert_candidate_ok(r, u, str(th), str(th), work_dir):
                        rational.append([r, u, str(th)])
        for n in range(2, 64):
            if math.isqrt(n) ** 2 == n or not -1 < math.sqrt(n) < zeros[-1]:
                continue
            for scale in SQRT_SCALES:
                plus = Fraction(math.isqrt(n * scale * scale) + 1, scale)
                if plus >= top:
                    continue
                if _cert_candidate_ok(r, u, f"sqrt{n}", str(plus), work_dir):
                    sqrt_.append([r, u, f"sqrt{n}", str(plus)])
        print(f"cert ({r},{u}): {len(rational)} rational, {len(sqrt_)} sqrt so far", flush=True)
    pools["cert_rational"], pools["cert_sqrt"] = rational, sqrt_


def _analyze_ok(name, n, edges, work_dir):
    from hyplp.cli import main

    path = os.path.join(work_dir, "h.txt")
    workloads.write_hypergraph(path, n, edges)
    argv = ["analyze", path, "--format", "json"]
    rc, out, err, _, _ = run_op(main, argv)
    op = {"kind": "analyze", "argv": argv, "rc": rc, "stdout": out, "stderr": err,
          "meta": {"file": path}}
    v = oracle.verdict(op, ROOT)
    if v["status"] != "ok":
        print(f"analyze {name}: {v['detail'][:120]}", flush=True)
    return v["status"] == "ok"


def vet_analyze(pools, work_dir):
    cm = {}
    for r, u, n in workloads.CM_SPECS:
        cm[f"{r},{u},{n}"] = [k for k in range(ANALYZE_KEYS)
                              if _analyze_ok(f"cm {r} {u} {n} key {k}", n,
                                             workloads.cm_edges(r, u, n, k), work_dir)]
        print(f"analyze cm ({r},{u},{n}): {len(cm[f'{r},{u},{n}'])} of {ANALYZE_KEYS}",
              flush=True)
    pools["analyze_cm"] = cm
    pools["analyze_irregular"] = [
        k for k in range(ANALYZE_KEYS)
        if _analyze_ok(f"irregular key {k}", *workloads.irregular_edges(k), work_dir)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--only", choices=("lp", "cert", "analyze"))
    args = ap.parse_args(argv)
    pools = workloads.load_pools() if os.path.exists(workloads.POOLS) else {}
    work_dir = os.path.join(HERE, "out", "vet")
    os.makedirs(work_dir, exist_ok=True)
    t = time.perf_counter()
    if args.only in (None, "cert"):
        vet_cert(pools, work_dir)
    if args.only in (None, "analyze"):
        vet_analyze(pools, work_dir)
    if args.only in (None, "lp"):
        vet_lp(pools)
    with open(workloads.POOLS, "w") as fh:
        json.dump(pools, fh, indent=0)
        fh.write("\n")
    print(f"wrote {workloads.POOLS} in {time.perf_counter() - t:.0f} s: "
          + ", ".join(f"{k} {len(v)}" for k, v in pools.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
