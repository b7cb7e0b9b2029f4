"""Spans around hyplp's public functions, for the benchmark's traced run.

`Tracer.install` replaces every public function of the listed hyplp modules
(and every public classmethod of their public classes) with a timing
wrapper, in every hyplp module that holds a reference to it: `bounds` imports
`solve_max` and `largest_zero_G` by name and `cli` imports
`second_eigenvalue` and others by name, so patching only the defining module
would miss those calls.  `uninstall` puts the originals back.

Spans stay in memory as tuples (function id, phase, start, end, parent
span) and are written out by `write_spans` when the run ends.  A span's
self time is its duration minus the durations of the wrapped calls made
directly inside it.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from functools import wraps

MODULES = ("cli", "bounds", "orthopoly", "simplex", "spectra", "tridiagonal",
           "hypergraph", "constructions")

# work counts read off a call's arguments or result: name -> (stat, getter)
EXTRAS = {
    "simplex.solve_max": ("cols", lambda args, res: len(args[0])),
    "bounds.lp_bound_optimize": ("rounds", lambda args, res: res.params["rounds"]),
    "tridiagonal.ql_eigenvalues": ("n", lambda args, res: len(args[0])),
    "spectra.symmetric_eigenvalues": ("n3", lambda args, res: len(args[0]) ** 3),
}

# the per-layer metrics the traced run reports: (name, unit)
LAYER_METRICS = [
    ("cli.main.self_s", "s"),
    ("cli.build_parser.s", "s"),
    ("simplex.solve_max.calls", "count"),
    ("simplex.solve_max.s", "s"),
    ("simplex.solve_max.cols", "count"),
    ("bounds.lp_bound_optimize.self_s", "s"),
    ("bounds.lp_bound_optimize.rounds", "count"),
    ("bounds.lp_bound_evaluate.calls", "count"),
    ("bounds.lp_bound_evaluate.s", "s"),
    ("bounds.closed_form_h_bound.s", "s"),
    ("bounds.tau2_lower.s", "s"),
    ("orthopoly.largest_zero_G.calls", "count"),
    ("orthopoly.largest_zero_G.s", "s"),
    ("orthopoly.largest_zero_gc.calls", "count"),
    ("orthopoly.largest_zero_gc.s", "s"),
    ("orthopoly.f_values.calls", "count"),
    ("tridiagonal.ql_eigenvalues.calls", "count"),
    ("tridiagonal.ql_eigenvalues.s", "s"),
    ("tridiagonal.ql_eigenvalues.n", "count"),
    ("spectra.symmetric_eigenvalues.calls", "count"),
    ("spectra.symmetric_eigenvalues.s", "s"),
    ("spectra.symmetric_eigenvalues.n3", "count"),
    ("spectra.householder_tridiagonalize.s", "s"),
    ("spectra.spectrum_correspondence_check.s", "s"),
    ("spectra.second_eigenvalue.calls", "count"),
    ("hypergraph.adjacency.calls", "count"),
    ("hypergraph.adjacency.s", "s"),
    ("hypergraph.girth.s", "s"),
    ("hypergraph.girth_via_trace.s", "s"),
    ("hypergraph.distance_matrix.s", "s"),
    ("hypergraph.distance_regularity_check.s", "s"),
    ("hypergraph.Hypergraph.from_text.s", "s"),
]


def _targets():
    """(name, owner, attribute, original) for every function to wrap."""
    out = []
    for short in MODULES:
        mod = sys.modules[f"hyplp.{short}"]
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                out.append((f"{short}.{attr}", None, attr, obj))
            elif inspect.isclass(obj):
                for meth, desc in vars(obj).items():
                    if not meth.startswith("_") and isinstance(desc, classmethod):
                        out.append((f"{short}.{attr}.{meth}", obj, meth, desc))
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.stats: dict = {}  # (phase, name) -> [calls, s, self_s, extra]
        self.phase = "setup"
        self._stack: list[list] = []
        self._patches: list[tuple] = []

    def _wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        extra = EXTRAS.get(name)
        spans, stack, stats = self.spans, self._stack, self.stats
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            frame = [idx, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            ok = False
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
                ok = True
                return res
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                spans[idx] = (fid, self.phase, t0, t1, parent)
                key = (self.phase, name)
                st = stats.get(key)
                if st is None:
                    st = stats[key] = [0, 0.0, 0.0, 0]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[1]
                if extra is not None and ok:
                    st[3] += extra[1](args, res)

        return traced

    def install(self) -> None:
        wrapped = {}
        for name, owner, attr, orig in _targets():
            if owner is not None:
                self._patches.append((owner, attr, orig))
                setattr(owner, attr, classmethod(self._wrap(name, orig.__func__)))
            else:
                wrapped[id(orig)] = (orig, self._wrap(name, orig))
        for modname, mod in list(sys.modules.items()):
            if modname != "hyplp" and not modname.startswith("hyplp."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def totals(self, phase: str) -> dict:
        """name -> {calls, s, self_s, <extra stat>} for one phase."""
        out = {}
        for (ph, name), (calls, s, self_s, extra) in self.stats.items():
            if ph == phase:
                row = {"calls": calls, "s": s, "self_s": self_s}
                if name in EXTRAS:
                    row[EXTRAS[name][0]] = extra
                out[name] = row
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, (fid, phase, t0, t1, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": self.names[fid], "phase": phase,
                                     "start": t0, "end": t1, "parent": parent}) + "\n")


def layer_metrics(setup: dict, ops: dict, rounds: int) -> dict:
    """Per-layer figures for one pass of the workload: set-up once plus the
    mean of the traced rounds."""
    out = {}
    for metric, _unit in LAYER_METRICS:
        name, stat = metric.rsplit(".", 1)
        total = setup.get(name, {}).get(stat, 0) + ops.get(name, {}).get(stat, 0) / rounds
        out[metric] = total
    return out
