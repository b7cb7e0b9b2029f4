"""hyplp benchmark: three workloads, checked outputs, an optional traced run.

One run, from the root of a checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

- set-up: five fresh worker processes import hyplp and build the seeded
  inputs, then exit; `setup_s` is the median of their set-up times and the
  measured worker's own.
- measurement: a fresh worker (`worker.py`, one thread, no site-packages)
  runs the batch in whole rounds for about `--seconds`.  Times are scaled
  to a nominal machine speed sampled by a timer while it works (see
  worker.SpeedProbe); result.json keeps the raw figures too.
- checks: `oracle.py` judges round 1's outputs in a separate process; every
  later round must reproduce them byte for byte.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics from a traced worker with `--trace 1`.

Repeat mode runs each workload N times with seeds seed..seed+N-1,
alternating the workload order, and prints each metric's median, quartiles
and spread (interquartile range over median):

    python3 perfbench/run.py --repeat 10 [--workload analyze] [--seed 1]

Files land in perfbench/out/<workload>-seed<n>[-trace]/: inputs/, ops.json,
worker.json, verdicts.json, spans.jsonl and result.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 5
DEADLINE_S = 170.0
END_TO_END = (("wall_s", "s"), ("op_p50_s", "s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"))
PER_LAYER = tracing.LAYER_METRICS + [("ops", "count"), ("trace.overhead", "ratio"),
                                     ("trace.self_coverage", "ratio")]
MIN_SELF_COVERAGE = 0.9


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _python(script, *args, isolated=False, timeout):
    cmd = [sys.executable] + (["-I", "-S"] if isolated else []) + [script, *args]
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{os.path.basename(script)} ran past {timeout:.0f} s")
    if p.returncode != 0:
        raise BenchError(f"{os.path.basename(script)} exited {p.returncode}:\n{p.stderr[-2000:]}")
    return p


def run_once(workload, seed, seconds, trace, deadline):
    name = f"{workload}-seed{seed}" + ("-trace" if trace else "")
    run_dir = os.path.join(OUT, name)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    rel = os.path.relpath(run_dir, ROOT)
    worker = os.path.join(HERE, "worker.py")
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--run-dir", rel]

    def left():
        return deadline - time.monotonic()

    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            p = _python(worker, *base, "--setup-only", isolated=True, timeout=left())
            setups.append(json.loads(p.stdout.splitlines()[-1])["setup_s"])
    p = _python(worker, *base, *(["--trace"] if trace else []), isolated=True,
                timeout=left())
    summary = json.loads(p.stdout.splitlines()[-1])
    with open(os.path.join(run_dir, "worker.json"), "w") as fh:
        json.dump(summary, fh)
    setups.append(summary["setup_s"])
    _python(os.path.join(HERE, "oracle.py"), os.path.join(rel, "ops.json"), timeout=left())
    with open(os.path.join(run_dir, "verdicts.json")) as fh:
        verdicts = json.load(fh)

    rounds = len(summary["rounds"])
    per_round_failed = sum(1 for v in verdicts if v["status"] != "ok")
    problems = list(summary["problems"])
    problems += [f"wrong output: {v['detail']}" for v in verdicts if v["status"] == "wrong"]
    if summary["oracle_modules_loaded"]:
        problems.append(f"measured process loaded {summary['oracle_modules_loaded']}")
    if summary["threads"] != 1:
        problems.append(f"measured process ran {summary['threads']} threads")

    for r in summary["rounds"]:
        r["scaled"] = [t * f for t, f in zip(r["op_times"], r["speeds"])]
    plain = [r for r in summary["rounds"] if not r["traced"]]
    if trace:
        tr = summary["trace"]
        layers = dict(tr["layers"])
        traced = [r for r in summary["rounds"] if r["traced"]]
        layers["ops"] = summary["ops"]
        layers["trace.overhead"] = (statistics.median(sum(r["scaled"]) for r in traced)
                                    / sum(plain[0]["scaled"]))
        # spans include the speed probe's samples, so compare with gross time
        layers["trace.self_coverage"] = (tr["self_s_ops"] / sum(
            sum(r["op_times"]) + r["probe_s"] for r in traced))
        if layers["trace.self_coverage"] < MIN_SELF_COVERAGE:
            print(f"warning: traced layers cover only {layers['trace.self_coverage']:.1%}"
                  " of the traced wall time", file=sys.stderr)
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        # each operation's median over the rounds, then the median over
        # operations: pooling all samples instead lets the median jump
        # between the clusters of two neighbouring calls
        per_op = [statistics.median(times) for times in zip(*(r["scaled"] for r in plain))]
        values = {"wall_s": statistics.median(sum(r["scaled"]) for r in plain),
                  "op_p50_s": statistics.median(per_op),
                  "peak_rss_mb": summary["peak_rss_mb"],
                  "setup_s": statistics.median(setups)}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    result = {"correct": not problems, "attempted": summary["ops"] * rounds,
              "failed": per_round_failed * rounds, "metrics": metrics}
    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        json.dump({"workload": workload, "seed": seed, "rounds": rounds,
                   "setup_samples": setups,
                   "raw_round_s": [sum(r["op_times"]) for r in summary["rounds"]],
                   "scaled_round_s": [sum(r["scaled"]) for r in summary["rounds"]],
                   "problems": problems,
                   "kept": [v for v in verdicts if v["status"] == "kept"],
                   "result": result}, fh, indent=1)
    for msg in problems:
        print(f"problem: {msg}", file=sys.stderr)
    return result, rounds


def repeat(workloads, n, seed, seconds):
    """Run every workload n times, alternating the order; print quartiles."""
    samples = {w: [] for w in workloads}
    for i in range(n):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            p = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", w,
                                "--seed", str(seed + i), "--seconds", str(seconds),
                                "--trace", "0"], capture_output=True, text=True, cwd=ROOT)
            if p.returncode != 0:
                print(f"{w} seed {seed + i}: exit {p.returncode}\n{p.stderr[-2000:]}")
                return 1
            res = json.loads(p.stdout.splitlines()[-1])
            samples[w].append(res)
            print(f"{w} seed {seed + i}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
                + f" failed={res['failed']}/{res['attempted']} correct={res['correct']}",
                flush=True)
    bounds = {}
    bench = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(bench):
        with open(bench) as fh:
            bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    print(f"{'workload':12} {'metric':12} {'median':>10} {'q1':>10} {'q3':>10}"
          f" {'spread':>7} {'bound':>6}")
    for w, runs in samples.items():
        for name, _unit in END_TO_END:
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
            print(f"{w:12} {name:12} {med:10.5g} {q1:10.5g} {q3:10.5g}"
                  f" {(q3 - q1) / med:7.3f} {bounds.get(name, float('nan')):6.2f}")
        shares = sorted({(r["failed"] / r["attempted"]) for r in runs})
        print(f"{w:12} failed share {shares}, all correct: {all(r['correct'] for r in runs)}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, action="append")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, metavar="N")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "hyplp", "cli.py")):
        print(f"error: no hyplp sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.repeat:
        return repeat(args.workload or list(WORKLOADS), args.repeat, args.seed, args.seconds)
    if not args.workload or len(args.workload) != 1:
        ap.error("give exactly one --workload (or --repeat N)")
    deadline = time.monotonic() + DEADLINE_S
    try:
        result, rounds = run_once(args.workload[0], args.seed, args.seconds,
                                  bool(args.trace), deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, m in result["metrics"].items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(f"rounds: {rounds}, attempted: {result['attempted']}, failed: {result['failed']},"
          f" correct: {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
