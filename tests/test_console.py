"""The command line in a fresh interpreter, as a user runs it: `python -m homodyne_bell.cli`
in a scratch directory.  Every run that succeeds writes nothing to stderr, and every
refusal exits 1 with an `error:` line."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import homodyne_bell

SRC = str(Path(homodyne_bell.__file__).resolve().parents[1])


def run(cwd, *argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, "-m", "homodyne_bell.cli", *argv], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)


def quiet(cwd, *argv):
    """stdout of a run that exits 0 with an empty stderr."""
    proc = run(cwd, *argv)
    assert (proc.returncode, proc.stderr) == (0, ""), argv
    return proc.stdout


@pytest.fixture(scope="module")
def console(tmp_path_factory):
    """A scratch directory holding circle.json, circle(1.12) as `state` writes it."""
    cwd = tmp_path_factory.mktemp("console")
    quiet(cwd, "state", "--family", "circle", "--r", "1.12", "--out", "circle.json")
    return cwd


@pytest.mark.parametrize("argv", [
    "bell --state circle.json",
    "pipeline --xi 0.7071 --lambda 0.01 --verify-stage1",
    "pipeline --xi 0.7071 --subtraction beamsplitter --bs-r 0.01",
    "scan --param iterations",
    "optimize --family pipeline",
    "state --family custom --file circle.json --format csv",
    "scan --family circle --param r --from 1 --to 1.2 --steps 3",
    "sample --state circle.json --n 1000000 --seed 42",
])
def test_console_run_writes_nothing_to_stderr(console, argv):
    quiet(console, *argv.split())


def test_console_stage1_reports_its_truncated_masses(console):
    # at lambda 0.2 every one of the 16 herald branches has mass; the norm the splitters
    # pushed past the cutoff and the norm the input pairs dropped at it are both above 0
    stage1 = json.loads(quiet(console, "pipeline", "--xi", "0.7071", "--lambda", "0.2",
                              "--verify-stage1"))["stage1"]
    assert stage1["truncated_mass"] > 0 and stage1["input_dropped_mass"] > 0


def test_console_bell_csv_quotes_the_pipelined_provenance(console):
    # the provenance holds a comma, so it arrives quoted: 9 fields in each of the two rows
    quiet(console, "state", "--family", "pipeline", "--xi", "0.7071", "--out", "pipe.json")
    out = quiet(console, "bell", "--state", "pipe.json", "--format", "csv")
    header, row = csv.reader(out.splitlines())
    assert len(header) == 9 and len(row) == 9 and row[-1] == "pipeline(xi=0.7071, iters=3)"


def test_console_optimum_at_n10_and_its_bell(console):
    proc = run(console, "optimize", "--n", "10", "--out", "opt.json")
    assert (proc.returncode, proc.stderr) == (0, "best CHSH = 2.091954429\n")
    out = quiet(console, "bell", "--state", "opt.json")
    assert '  "B": 2.09195442894,' in out.splitlines()


def test_console_raw_pairs_reproduce_the_counts(console):
    # raw pairs from the lazily built cell table: their signs reproduce the run's counts_chi
    quiet(console, "sample", "--state", "circle.json", "--n", "2000", "--seed", "42",
          "--out", "sample.json", "--dump-xy", "xy.csv")
    with open(console / "xy.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert all((float(r["x_" + s]) >= 0) == (r["sign_" + s] == "1") for r in rows for s in "AB")
    counts = [[sum(r["sign_A"] == a and r["sign_B"] == b for r in rows) for b in ("1", "-1")]
              for a in ("1", "-1")]
    assert counts == json.loads((console / "sample.json").read_text())["counts_chi"]


@pytest.mark.parametrize("argv", [
    "pipeline --xi 0.7071 --lambda 0.3 --verify-stage1",      # stage 1 leaks past its cutoff
    "state --family tmss --lambda 0.5 --r 1",                 # a flag that takes no effect
    "state --family custom",                                  # custom without --file
    "optimize --angle",                                       # --angle without --state
    "scan --family circle --param r --value 3",               # a flag that takes no effect
    "sample --state circle.json --n 100000000000000000000",   # beyond 2^63 - 1
    "scan --chi inf",                                         # not finite
    "sample --state circle.json --chi 1e308",                 # phases that overflow
    "bell --state circle.json --chi 1e308",
    "bell --state circle.json --chi inf",
    "scan --chi 1e308 --steps 2",
    "optimize --chi 1e308",
])
def test_console_refusal_exits_1_with_an_error_line(console, argv):
    proc = run(console, *argv.split())
    assert proc.returncode == 1
    assert any(line.startswith("error:") for line in proc.stderr.splitlines()), proc.stderr
