"""The measured process: one workload, one thread, hyplp called in-process.

Started by run.py as `python3 -I -S perfbench/worker.py ...` so that nothing
from site-packages can load.  It imports hyplp from the checkout's `src`,
builds the seeded batch, then calls `hyplp.cli.main(argv)` once per
operation as a closed loop with one caller, in whole rounds over the batch,
stopping after the round that ends nearest to `--seconds`.  Round 1's
outputs go to `ops.json` for the oracle; every later round must reproduce
them byte for byte.  A JSON summary goes to stdout: per round the raw time
of every operation and its speed factor (see REF_S).
"""

import sys
import time

T0 = time.perf_counter()

import os  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import argparse  # noqa: E402
import bisect  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import threading  # noqa: E402

ORACLE_ONLY = ("numpy", "scipy", "sympy", "networkx")

# The machine's speed drifts: on a shared 2-CPU sandbox the same call runs
# 10-30% slower for seconds to minutes at a time, and a 5 s call can run 25%
# longer than the same call a minute earlier.  So the worker samples the
# speed while it works: every TICK_S of wall time SIGALRM runs two small
# fixed tasks (a float loop and a list-of-lists update) and records their
# times.  An operation's time, less the time spent in those samples, is
# scaled by REF_S / r, where r is the geometric mean of the two tasks' median
# times over the samples taken during the operation and WINDOW_S either side.
# REF_S is their typical time on the machine the bounds were set on, so a
# scaled time reads as seconds at that machine's usual speed.
REF_S = 0.00022
TICK_S = 0.05
WINDOW_S = 0.25


class SpeedProbe:
    """Timer-driven samples of the machine's current speed."""

    def __init__(self):
        rng = random.Random(0)
        self.matrix = [[rng.random() for _ in range(160)] for _ in range(12)]
        self.stamps, self.loops, self.updates = [], [], []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(1500):
            acc += (i * 1.5) % 7.0
        t1 = time.perf_counter()
        vec = self.matrix[-1]
        for row in self.matrix[:10]:
            f = row[0] * 1e-9
            row[:] = [a - f * b for a, b in zip(row, vec)]
        t2 = time.perf_counter()
        self.stamps.append(t0)
        self.loops.append(t1 - t0)
        self.updates.append(t2 - t1)
        self.spent += t2 - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def settle(self) -> None:
        """Keep the processor busy for WINDOW_S so samples follow the last span."""
        t_end = time.perf_counter() + WINDOW_S
        while time.perf_counter() < t_end:
            pass

    def factor(self, t0: float, t1: float) -> float:
        """REF_S over the reference time around [t0, t1]: below 1 when slow."""
        lo = bisect.bisect_left(self.stamps, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.stamps, t1 + WINDOW_S)
        loop = statistics.median(self.loops[lo:hi])
        update = statistics.median(self.updates[lo:hi])
        return REF_S / (loop * update) ** 0.5


def run_op(main, argv):
    """(exit code, stdout, stderr, start, end) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        rc = main(argv)
        t1 = time.perf_counter()
    return rc, out.getvalue(), err.getvalue(), t0, t1


def shape_problem(rc, out, err):
    """Cheap check made right after each call; the oracle checks the content."""
    if rc == 0:
        try:
            json.loads(out)
        except ValueError:
            return "exit 0 without a JSON report"
        return None
    if rc == 2 and err.startswith("error:"):
        return None
    return f"exit {rc}: {err.strip()[:200]}"


def thread_count() -> int:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return threading.active_count()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--run-dir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    os.chdir(ROOT)
    probe = SpeedProbe()
    probe.start()

    from hyplp import cli
    import workloads

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    ops = workloads.build(args.workload, args.seed, f"{args.run_dir}/inputs")
    t_setup = time.perf_counter()
    setup_raw_s = t_setup - T0 - probe.spent
    probe.settle()
    setup_s = setup_raw_s * probe.factor(T0, t_setup)
    if args.setup_only:
        probe.stop()
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0

    # in the traced run, round 1 runs untraced: it records the outputs and
    # gives the untraced round time the overhead ratio is taken against
    if tracer is not None:
        tracer.uninstall()
    records, problems = [], []
    # per round: each operation's time (less the probe's) and its span
    rounds = []
    t_start = time.perf_counter()
    while True:
        traced = tracer is not None and bool(rounds)
        if traced:
            tracer.phase = "ops"
            tracer.install()
        times, spans, probe_s = [], [], 0.0
        for i, op in enumerate(ops):
            spent = probe.spent
            rc, out, err, t0, t1 = run_op(cli.main, op["argv"])
            inside = probe.spent - spent
            probe_s += inside
            times.append(t1 - t0 - inside)
            spans.append((t0, t1))
            if not rounds:
                records.append((rc, out, err))
                bad = shape_problem(rc, out, err)
                if bad:
                    problems.append(f"{' '.join(op['argv'])}: {bad}")
            elif (rc, out, err) != records[i]:
                problems.append(f"{' '.join(op['argv'])}: output differs from round 1")
        if traced:
            tracer.uninstall()
        rounds.append({"traced": traced, "op_times": times, "spans": spans,
                       "probe_s": probe_s})
        if tracer is not None and len(rounds) < 2:
            continue
        # stop where the run ends closest to --seconds, in whole rounds
        mean_round = (time.perf_counter() - t_start) / len(rounds)
        if time.perf_counter() - t_start + mean_round / 2 >= args.seconds:
            break

    probe.settle()
    probe.stop()
    for r in rounds:
        r["speeds"] = [probe.factor(t0, t1) for t0, t1 in r.pop("spans")]
    for op, (rc, out, err) in zip(ops, records):
        op.update(rc=rc, stdout=out, stderr=err)
    with open(f"{args.run_dir}/ops.json", "w") as fh:
        json.dump({"root": ROOT, "workload": args.workload, "seed": args.seed,
                   "ops": ops}, fh)

    summary = {
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "ops": len(ops),
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "threads": thread_count(),
        "oracle_modules_loaded": [m for m in ORACLE_ONLY if m in sys.modules],
        "problems": problems,
    }
    if tracer is not None:
        tracer.write_spans(f"{args.run_dir}/spans.jsonl")
        ops_totals = tracer.totals("ops")
        summary["trace"] = {
            "setup": tracer.totals("setup"),
            "ops": ops_totals,
            "self_s_ops": sum(row["self_s"] for row in ops_totals.values()),
            "layers": tracing.layer_metrics(tracer.totals("setup"), ops_totals,
                                            len(rounds) - 1),
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
