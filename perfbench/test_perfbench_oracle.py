"""The benchmark's checkers must flag wrong outputs, not only pass right ones."""

import contextlib
import io
import json
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import exact  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from hyplp.cli import main  # noqa: E402


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def record(kind, argv, meta, kept=None):
    rc, out, err = run(argv)
    return {"kind": kind, "argv": argv, "meta": meta, "kept_fault": kept,
            "rc": rc, "stdout": out, "stderr": err}


def test_nonpositive_on_sees_sign_changes_not_touching_roots():
    x = [Fraction(0), Fraction(1)]
    touch = exact.scale(exact.mul(exact.mul(exact.add(x, [-1]), exact.add(x, [-1])),
                                  exact.add(x, [2])), -1)  # -(x-1)^2 (x+2)
    assert exact.nonpositive_on(touch, Fraction(-2), Fraction(3))
    assert not exact.nonpositive_on(exact.add(touch, [Fraction(1, 10 ** 10)]),
                                    Fraction(-2), Fraction(3))
    assert not exact.nonpositive_on(touch, Fraction(-3), Fraction(0))


def test_tampered_lp_value_is_flagged():
    argv = workloads.lp_argv(3, 3, "-1", 4)
    op = record("lp-optimize", argv, {"r": 3, "u": 3, "theta": "-1", "s": 4})
    assert oracle.verdict(op, "/")["status"] == "ok"
    out = json.loads(op["stdout"])
    out["value"] = str(Fraction(out["value"]) * Fraction(1001, 1000))
    op["stdout"] = json.dumps(out)
    v = oracle.verdict(op, "/")
    assert v["status"] == "wrong" and "f(k)/f_0" in v["detail"]


def test_accepted_near_miss_certificate_is_flagged(tmp_path):
    path = str(tmp_path / "near.cert")
    workloads.write_certificate(path, 3, 2, [Fraction(5) + Fraction(1, 10 ** 10), 5, 3, 1])
    argv = workloads.cert_argv(3, 2, "1", path)
    accepted = {"kind": "certify", "argv": argv, "meta": {"file": path, "theta": "1"},
                "kept_fault": None, "rc": 0, "stderr": "",
                "stdout": json.dumps({"theorem": "LP_CERT", "value": "10"})}
    v = oracle.verdict(accepted, "/")
    assert v["status"] == "wrong" and "not valid" in v["detail"]
    accepted["kept_fault"] = "certify-near-miss"
    assert oracle.verdict(accepted, "/")["status"] == "kept"
    rejected = dict(accepted, rc=2, stdout="",
                    stderr="error: violated f <= 0 on [-r, theta]: witness (1.0, 1e-10)")
    assert oracle.verdict(rejected, "/")["status"] == "ok"


def test_wrong_tau2_is_flagged(tmp_path):
    path = str(tmp_path / "petersen.txt")
    assert run(["construct", "named", "petersen", "-o", path])[0] == 0
    op = record("analyze", ["analyze", path, "--format", "json"], {"file": path})
    assert oracle.verdict(op, "/")["status"] == "ok"
    out = json.loads(op["stdout"])
    out["tau2"] += 1e-4
    op["stdout"] = json.dumps(out)
    v = oracle.verdict(op, "/")
    assert v["status"] == "wrong" and "tau2" in v["detail"]
