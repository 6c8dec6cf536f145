"""Committed CLI outputs: each command below, run through `cli.main` in a fresh
directory, must write its files in `tests/golden/` again.

The comparison splits each file into numbers and the text between them.  The
text must match exactly, and so must every number printed as an integer
(counts, cutoffs, sample sizes).  Any other number may move by one unit of its
last printed digit, or by 1e-15 absolute where that is larger: a reordered
matmul moves a trace distance printed in full in its last digit, and the
stage-1 trace distance carries about 1e-16 of absolute rounding.  Of two
printings of one number the finer sets the unit.

numpy does not promise `Generator.multinomial` streams across versions (NEP 19),
so `sample` counts can move on a numpy upgrade; a `sample` mismatch names the
numpy version that wrote the files (`golden/numpy_version.txt`).

Commands that read a state take `source.json`, a copy of the golden
`pipeline.json`.  `python tests/regen_golden.py` rewrites every file; a change
that moves one names it, and why, in CHANGES.md.
"""

from __future__ import annotations

import json
import re
import shutil
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from homodyne_bell.cli import main
from homodyne_bell.fock_core import json_text

GOLDEN = Path(__file__).resolve().parent / "golden"
SOURCE = "source.json"      # a copy of the golden pipeline.json

# test id -> argv; the outputs are the paths after --out and --dump-xy
CASES = {
    "pipeline": ["pipeline", "--xi", "0.7071", "--out", "pipeline.json"],
    "state_tmss": ["state", "--family", "tmss", "--lambda", "0.6", "--out", "state_tmss.json"],
    "state_tmss_csv": ["state", "--family", "tmss", "--lambda", "0.6", "--format", "csv",
                       "--out", "state_tmss.csv"],
    "state_pipeline": ["state", "--family", "pipeline", "--xi", "0.7071",
                       "--out", "state_pipeline.json"],
    "state_compare": ["state", "--compare", "--out", "state_compare.csv"],
    **{f"pipeline_stage1_{lam}": ["pipeline", "--xi", "0.7071", "--lambda", lam,
                                  "--verify-stage1", "--out", f"pipeline_stage1_{lam}.json"]
       for lam in ("0.004", "0.01", "0.2")},
    "pipeline_beamsplitter": ["pipeline", "--xi", "0.7071", "--subtraction", "beamsplitter",
                              "--bs-r", "0.01", "--out", "pipeline_beamsplitter.json"],
    "bell": ["bell", "--state", SOURCE, "--out", "bell.json"],
    "bell_csv": ["bell", "--state", SOURCE, "--format", "csv", "--out", "bell.csv"],
    "scan_circle_r": ["scan", "--family", "circle", "--param", "r", "--from", "0.5", "--to", "2",
                      "--steps", "61", "--out", "scan_circle_r.csv"],
    "scan_defaults": ["scan", "--out", "scan_circle_r.csv"],
    "scan_circle_chi": ["scan", "--family", "circle", "--param", "chi", "--value", "1.12",
                        "--from", "0.5", "--to", "1", "--steps", "11",
                        "--out", "scan_circle_chi.csv"],
    "scan_pipeline_chi": ["scan", "--family", "pipeline", "--param", "chi", "--from", "0.5",
                          "--to", "1", "--steps", "11", "--out", "scan_pipeline_chi.csv"],
    "scan_iterations": ["scan", "--param", "iterations", "--to", "6", "--xi", "0.7071",
                        "--out", "scan_iterations.csv"],
    "optimize_n10": ["optimize", "--n", "10", "--out", "optimize_n10.json"],
    "optimize_defaults": ["optimize", "--out", "optimize_n10.json"],
    "optimize_circle": ["optimize", "--family", "circle", "--out", "optimize_circle.csv"],
    "optimize_pipeline": ["optimize", "--family", "pipeline", "--out", "optimize_pipeline.csv"],
    "optimize_angle": ["optimize", "--angle", "--state", SOURCE, "--out", "optimize_angle.csv"],
    "sample_1e6": ["sample", "--state", SOURCE, "--n", "1000000", "--seed", "42",
                   "--out", "sample_1e6.json"],
    "sample_dump_xy": ["sample", "--state", SOURCE, "--n", "200", "--seed", "7",
                       "--out", "sample_200.json", "--dump-xy", "sample_200_xy.csv"],
}

INTEGER_FIELDS = {"cutoff", "n_samples", "seed", "counts_chi", "counts_3chi"}
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
_FLOOR = Decimal("1e-15")


def outputs(argv: list) -> list:
    return [argv[i + 1] for i, a in enumerate(argv) if a in ("--out", "--dump-xy")]


def run_case(argv: list, workdir: Path, source: Path) -> None:
    """Run one command in `workdir`, with `source`, once it exists, copied in as SOURCE."""
    if source.exists():
        shutil.copyfile(source, workdir / SOURCE)
    assert main(argv) == 0, argv


def _unit(token: str) -> Decimal:
    """One unit of the last printed digit of a number token."""
    return Decimal(1).scaleb(Decimal(token).as_tuple().exponent)


def mismatches(want: str, got: str) -> list:
    """Where `got` departs from `want` under the module docstring's rule."""
    if _NUMBER.split(want) != _NUMBER.split(got):
        for i, (w, g) in enumerate(zip(want.splitlines(), got.splitlines())):
            if _NUMBER.split(w) != _NUMBER.split(g):
                return [f"line {i + 1}: text {g!r} != {w!r}"]
        return ["the files differ in their number of lines"]
    bad = []
    for w, g in zip(_NUMBER.findall(want), _NUMBER.findall(got)):
        if not any(c in w + g for c in ".eE"):
            if w != g:
                bad.append(f"integer {g} != {w}")
        elif abs(Decimal(g) - Decimal(w)) > max(min(_unit(w), _unit(g)), _FLOOR):
            bad.append(f"number {g} != {w}")
    return bad


@pytest.mark.parametrize("argv", CASES.values(), ids=CASES.keys())
def test_cli_output_matches_golden(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    run_case(argv, tmp_path, GOLDEN / "pipeline.json")
    capsys.readouterr()
    for name in outputs(argv):
        bad = mismatches((GOLDEN / name).read_text(), (tmp_path / name).read_text())
        if bad and argv[0] == "sample":
            written = (GOLDEN / "numpy_version.txt").read_text().strip()
            bad.insert(0, f"the golden files were written with numpy {written}, this run has "
                          f"numpy {np.__version__}; numpy does not promise multinomial "
                          f"streams across versions")
        assert not bad, f"{name}: " + "; ".join(bad[:6])


def integer_fields(doc, key=None) -> set:
    """The keys under which `doc` holds an integer, a list inheriting its key."""
    if isinstance(doc, dict):
        return set().union(*(integer_fields(v, k) for k, v in doc.items()))
    if isinstance(doc, list):
        return set().union(*(integer_fields(v, key) for v in doc))
    return {key} if type(doc) is int else set()


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("*.json")))
def test_golden_json_is_json_text_of_itself_with_every_float_a_float(name):
    # one writer: each JSON output is json_text of what it parses to, and a float prints as
    # one (0.0, never 0), so only the integer fields hold integers
    text = (GOLDEN / name).read_text()
    doc = json.loads(text)
    assert text == json_text(doc)
    assert integer_fields(doc) <= INTEGER_FIELDS
