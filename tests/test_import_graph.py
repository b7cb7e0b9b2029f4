"""Start-up cost: `dataclasses` imports `inspect`, which imports `ast`, `dis`
and `tokenize`, and with `typing` that was about 30 ms of every process's
start-up, against well under 1 ms of arithmetic in `bound closed-form`.  In
an isolated interpreter, neither importing the CLI nor running a bound, a
certificate check, an analysis or a verified table may load them.  Building
the named fixtures may not load the eigensolver either, nor may the floor
search behind `bound tau2-lower`: its seed is a float recurrence of its
own, not an eigenvalue of the quotient array."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HEAVY = ("dataclasses", "typing", "inspect", "ast")

CHILD = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from hyplp import cli
codes = []
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
print(json.dumps([codes, [m for m in json.loads(sys.argv[3]) if m in sys.modules]]))
"""


def test_cli_commands_load_no_dataclasses_typing_inspect_or_ast(tmp_path):
    cert = tmp_path / "petersen.cert"
    cert.write_text("3 2 3\n5 5 3 1\n")
    commands = [
        ["bound", "lp", "--r", "3", "--u", "2", "--theta", "1", "--degree", "4"],
        ["bound", "lp", "--r", "3", "--u", "2", "--theta", "1", "--cert", str(cert)],
        ["analyze", str(ROOT / "tests" / "data" / "analyze" / "oa-3-7.txt")],
        ["table", "table1", "--verify"],
        ["bound", "tau2-lower", "--r", "3", "--u", "2", "--n", "10"],
    ]
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", CHILD, str(ROOT / "src"),
         json.dumps(commands), json.dumps(HEAVY)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stdout)
    assert codes == [0] * len(commands)
    assert loaded == []


FIXTURES_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
from hyplp import constructions
built = [constructions.named_fixture(name) for name in constructions.fixture_names()]
print(json.dumps([len(built), [m for m in ("hyplp.spectra", "hyplp.tridiagonal")
                               if m in sys.modules]]))
"""


def test_named_fixtures_load_no_eigensolver():
    # a fixture is built, not analysed: the tests check its catalog row
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", FIXTURES_CHILD, str(ROOT / "src")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [15, []]


TAU2_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
from hyplp import bounds
from hyplp.orthopoly import Params
floor = bounds.tau2_lower(Params(3, 2), 10)[2]
print(json.dumps([floor, [m for m in ("hyplp.spectra", "hyplp.tridiagonal")
                          if m in sys.modules]]))
"""


def test_tau2_floor_loads_no_eigensolver():
    # the CLI module imports the analysis context, so the check is made on
    # the call `bound tau2-lower --r 3 --u 2 --n 10` runs
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", TAU2_CHILD, str(ROOT / "src")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [1.0, []]
