import csv
import dataclasses
import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from homodyne_bell import (BellReport, CoefficientVector, chsh_B, circle, estimate_B,
                           read_state_file, sample_joint, seed, write_state_file)
from homodyne_bell import cli
from homodyne_bell.cli import main
from homodyne_bell.fock_core import json_text


def run_cli(*argv):
    return main(list(argv))


def test_state_tmss_file(tmp_path):
    out = tmp_path / "tmss.json"
    assert run_cli("state", "--family", "tmss", "--lambda", "0.6", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert abs(doc["coefficients"][0] - 0.8) < 1e-10
    assert doc["provenance"] == "tmss(0.6)"
    v = read_state_file(out)
    assert v.normalized


def test_state_circle_file(tmp_path):
    out = tmp_path / "circle.json"
    assert run_cli("state", "--family", "circle", "--r", "1.12", "--out", str(out)) == 0
    v = read_state_file(out)
    assert abs(float(v.coeffs @ v.coeffs) - 1.0) < 1e-10


def test_state_pipeline_family(tmp_path):
    out = tmp_path / "pipeline.json"
    assert run_cli("state", "--family", "pipeline", "--xi", "0.7071067811865476",
                   "--out", str(out)) == 0
    assert abs(chsh_B(read_state_file(out), np.pi / 4) - 2.0715) < 5e-5


def test_state_csv_format(tmp_path):
    out = tmp_path / "tmss.csv"
    run_cli("state", "--family", "tmss", "--lambda", "0.6", "--cutoff", "8",
            "--format", "csv", "--out", str(out))
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "n,c_n"
    assert len(lines) == 10


def test_state_compare_table(tmp_path):
    out = tmp_path / "families.csv"
    assert run_cli("state", "--compare", "--out", str(out)) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == ("n,tmss_lambda0.6,ps_tmss_lambda0.6,circle_r1.12,"
                        "pipeline_xi0.71,optimized_N10")
    assert len(lines) == 14  # header + n = 0..12
    first = lines[1].split(",")
    assert abs(float(first[1]) - 0.8) < 1e-9


def test_pipeline_report_shows_violation(tmp_path):
    out = tmp_path / "pipeline.json"
    assert run_cli("pipeline", "--xi", "0.7071", "--iters", "3", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert abs(doc["bell"]["B"] - 2.071) < 0.01
    assert abs(doc["bell"]["S"] - (doc["bell"]["B"] / 4 + 0.5)) < 1e-9
    assert len(doc["gaussify_success_probabilities"]) == 3


def test_pipeline_zero_iterations(tmp_path):
    out = tmp_path / "flat.json"
    run_cli("pipeline", "--xi", "0.7071", "--iters", "0", "--out", str(out))
    doc = json.loads(out.read_text())
    assert abs(doc["bell"]["B"]) < 1e-9
    assert doc["state"]["coefficients"][0] == 1.0


def test_pipeline_stage1_verification(tmp_path):
    out = tmp_path / "verified.json"
    run_cli("pipeline", "--xi", "0.7071", "--iters", "3", "--lambda", "0.01",
            "--verify-stage1", "--out", str(out))
    doc = json.loads(out.read_text())
    assert doc["stage1"]["trace_distance"] < 1e-3
    assert doc["stage1"]["truncated_mass"] == 0.0       # nothing reaches past cutoff 4


@pytest.mark.parametrize("flags", [["--verify-stage1"], ["--lambda", "0.01"]])
def test_pipeline_stage1_needs_both_flags(tmp_path, capsys, flags):
    out = tmp_path / "half.json"
    assert run_cli("pipeline", "--xi", "0.7071", *flags, "--out", str(out)) == 1
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: --verify-stage1 and --lambda")


@pytest.mark.parametrize("lam", ["0.3", "0.5", "0.9"])
def test_pipeline_refuses_stage1_leaking_past_its_cutoff(tmp_path, capsys, lam):
    out = tmp_path / "leaky.json"
    assert run_cli("pipeline", "--xi", "0.7071", "--lambda", lam, "--verify-stage1",
                   "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert f"stage 1 at lambda={lam} leaks" in err and "past cutoff 4" in err


def test_pipeline_bs_r_needs_beamsplitter_subtraction(tmp_path, capsys):
    out = tmp_path / "p.json"
    assert run_cli("pipeline", "--xi", "0.7071", "--bs-r", "0.02", "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith("error: --bs-r")
    assert not out.exists()
    probs = []
    for r in ("0.01", "0.02"):
        assert run_cli("pipeline", "--xi", "0.7071", "--subtraction", "beamsplitter",
                       "--bs-r", r, "--out", str(out)) == 0
        probs.append(json.loads(out.read_text())["subtraction_probability"])
    assert abs(probs[1] / probs[0] - 16.0) < 0.02 * 16.0      # success ~ r^4


def test_bell_on_vacuum_state(tmp_path):
    state = tmp_path / "vacuum.json"
    write_state_file(seed(0.0, cutoff=4), state)
    out = tmp_path / "bell.json"
    assert run_cli("bell", "--state", str(state), "--chi", "0.785398163",
                   "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert abs(doc["B"]) < 1e-9
    assert abs(doc["S"] - 0.5) < 1e-9


def test_bell_reads_pipeline_report(tmp_path, capsys):
    report = tmp_path / "pipeline.json"
    assert run_cli("pipeline", "--xi", "0.7071", "--out", str(report)) == 0
    capsys.readouterr()
    out = tmp_path / "bell.json"
    assert run_cli("bell", "--state", str(report), "--out", str(out)) == 0
    assert json.loads(out.read_text())["B"] == pytest.approx(
        json.loads(report.read_text())["bell"]["B"], abs=1e-11)
    assert capsys.readouterr().err == ""


def test_state_file_without_coefficients_is_an_error(tmp_path, capsys):
    state = tmp_path / "broken.json"
    state.write_text('{"cutoff": 2, "normalized": true}\n')
    assert run_cli("bell", "--state", str(state)) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_state_file_with_a_field_of_the_wrong_type_is_an_error(tmp_path, capsys):
    # "false" is a string, which bool() reads as True
    state = tmp_path / "typed.json"
    state.write_text('{"coefficients": [1.0, 0.0], "cutoff": 1, "normalized": "false"}\n')
    assert run_cli("bell", "--state", str(state)) == 1
    assert capsys.readouterr().err == (
        f"error: state file {state}: normalized field must be true or false\n")


def test_bell_csv_field_names(tmp_path):
    state = tmp_path / "seed.json"
    write_state_file(seed(1.0, cutoff=8), state)
    out = tmp_path / "bell.csv"
    run_cli("bell", "--state", str(state), "--format", "csv", "--out", str(out))
    header = out.read_text().split("\n")[0]
    assert header == "chi,p_pp_chi,p_pp_3chi,E_chi,E_3chi,B,S,cutoff,provenance"


def _bell(tmp_path, provenance, fmt):
    """`bell --format fmt --chi 1` on the vacuum [1, 0] with this provenance: the output."""
    state, out = tmp_path / "vacuum.json", tmp_path / f"bell.{fmt}"
    write_state_file(CoefficientVector([1.0, 0.0], normalized=True, provenance=provenance),
                     state)
    assert run_cli("bell", "--state", str(state), "--format", fmt, "--chi", "1",
                   "--out", str(out)) == 0
    return out


def test_bell_prints_floats_by_the_csv_and_json_rules(tmp_path):
    # CSV prints a float by %.12g, so the vacuum at chi = 1 gives 1 and 0; the JSON is
    # json_text's own, so a float reads back a float: 1.0 and 0.0, and only cutoff is 1
    text = _bell(tmp_path, "vacuum", "json").read_text()
    assert text == json_text(json.loads(text))
    for line in ('"chi": 1.0,', '"E_chi": 0.0,', '"B": 0.0,', '"S": 0.5,', '"cutoff": 1,'):
        assert "\n  " + line + "\n" in text
    assert _bell(tmp_path, "vacuum", "csv").read_text().split("\n")[1] == (
        "1,0.25,0.25,0,0,0,0.5,1,vacuum")


@pytest.mark.parametrize("provenance", ["pipeline(xi=0.7071, iters=3)", 'say "B"',
                                        "line one\nline two", "line one\r\nline two", "plain"])
def test_bell_csv_round_trips_any_provenance(tmp_path, provenance):
    fields = [f.name for f in dataclasses.fields(BellReport)]
    with open(_bell(tmp_path, provenance, "csv"), newline="") as fh:
        header, row = csv.reader(fh)
    assert header == fields and len(row) == 9 and row[-1] == provenance
    doc = json.loads(_bell(tmp_path, provenance, "json").read_text())
    assert list(doc) == fields and doc["provenance"] == provenance


def test_scan_circle_locates_maximum(tmp_path):
    out = tmp_path / "scan.csv"
    assert run_cli("scan", "--family", "circle", "--param", "r", "--from", "0.5",
                   "--to", "2", "--steps", "61", "--metric", "chsh",
                   "--out", str(out)) == 0
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
    values = np.array([[float(a), float(b)] for a, b in rows])
    best = values[np.argmax(values[:, 1])]
    assert abs(best[0] - 1.12) <= 0.05
    assert best[1] > 2.0


def test_scan_honours_cutoff_zero(tmp_path):
    out = tmp_path / "scan.csv"
    assert run_cli("scan", "--family", "circle", "--param", "r", "--from", "0.5", "--to", "2",
                   "--steps", "4", "--cutoff", "0", "--out", str(out)) == 0
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
    assert len(rows) == 4 and all(float(b) == 0.0 for _, b in rows)   # the vacuum's B


def test_scan_iterations(tmp_path):
    out = tmp_path / "iters.csv"
    run_cli("scan", "--param", "iterations", "--to", "6", "--xi", "0.7071",
            "--out", str(out))
    rows = dict(
        (int(line.split(",")[0]), float(line.split(",")[1]))
        for line in out.read_text().strip().split("\n")[1:]
    )
    assert rows[3] == max(rows.values())
    assert rows[3] > rows[4] > rows[5] > rows[6]
    ch = tmp_path / "iters_ch.csv"
    run_cli("scan", "--param", "iterations", "--to", "6", "--xi", "0.7071", "--metric", "ch",
            "--out", str(ch))
    lines = ch.read_text().strip().split("\n")
    assert lines[0] == "iterations,CH"
    for line in lines[1:]:
        i, s = line.split(",")
        assert abs(float(s) - (rows[int(i)] / 4 + 0.5)) < 1e-11


def test_scan_iterations_defaults_to_six(tmp_path):
    # the bare mode scans iterations 0..6; the old shared default of 2 always exited 1
    bare, six = tmp_path / "bare.csv", tmp_path / "six.csv"
    assert run_cli("scan", "--param", "iterations", "--out", str(bare)) == 0
    assert run_cli("scan", "--param", "iterations", "--to", "6", "--out", str(six)) == 0
    assert bare.read_bytes() == six.read_bytes()
    assert [line.split(",")[0] for line in bare.read_text().splitlines()[1:]] \
        == [str(i) for i in range(7)]


def test_sample_summary_and_reproducibility(tmp_path, pipeline_state):
    state = tmp_path / "source.json"
    write_state_file(pipeline_state, state)
    out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
    for out in (out1, out2):
        assert run_cli("sample", "--state", str(state), "--chi", "0.785398163",
                       "--n", "20000", "--seed", "42", "--out", str(out)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert abs(doc["b_hat"] - doc["analytic_B"]) < 3 * doc["stderr"]


def test_sample_dump_xy(tmp_path, pipeline_state):
    state = tmp_path / "source.json"
    write_state_file(pipeline_state, state)
    dump = tmp_path / "xy.csv"
    run_cli("sample", "--state", str(state), "--n", "500", "--seed", "1",
            "--out", str(tmp_path / "s.json"), "--dump-xy", str(dump))
    lines = dump.read_text().strip().split("\n")
    assert lines[0] == "x_A,x_B,sign_A,sign_B"
    assert len(lines) == 501
    # the dump is the batch that was counted at chi
    signs = np.array([line.split(",")[2:] for line in lines[1:]], dtype=int)
    plus_a, plus_b = signs[:, 0] > 0, signs[:, 1] > 0
    dumped = [[int(np.sum(plus_a & plus_b)), int(np.sum(plus_a & ~plus_b))],
              [int(np.sum(~plus_a & plus_b)), int(np.sum(~plus_a & ~plus_b))]]
    assert dumped == json.loads((tmp_path / "s.json").read_text())["counts_chi"]


def test_sample_dump_xy_text_matches_row_by_row_formatting(tmp_path, pipeline_state):
    state = tmp_path / "source.json"
    write_state_file(pipeline_state, state)
    dump = tmp_path / "xy.csv"
    assert run_cli("sample", "--state", str(state), "--n", "300", "--seed", "4",
                   "--out", str(tmp_path / "s.json"), "--dump-xy", str(dump)) == 0
    child = estimate_B(pipeline_state, np.pi / 4, 300, 4).batch_chi.seed
    xy = sample_joint(pipeline_state, np.pi / 4, 300, child, keep_samples=True).samples
    rows = ["%.12g,%.12g,%d,%d" % (xa, xb, 1 if xa >= 0 else -1, 1 if xb >= 0 else -1)
            for xa, xb in xy]
    assert dump.read_text() == "\n".join(["x_A,x_B,sign_A,sign_B", *rows]) + "\n"


def test_automatic_cutoff_at_the_cap_is_an_error(tmp_path, capsys):
    out = tmp_path / "tmss.json"
    assert run_cli("state", "--family", "tmss", "--lambda", "0.9", "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: tmss with lambda = 0.9") and "explicit cutoff" in err
    assert not out.exists()
    assert run_cli("state", "--family", "tmss", "--lambda", "0.9", "--cutoff", "64",
                   "--out", str(out)) == 0
    assert read_state_file(out).cutoff == 64


def test_optimize_coefficients_cli(tmp_path):
    out = tmp_path / "opt.json"
    assert run_cli("optimize", "--objective", "chsh", "--n", "10", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["provenance"].startswith("optimized(CHSH, N=10")
    from homodyne_bell import chsh_B
    assert abs(chsh_B(read_state_file(out), np.pi / 4) - 2.0919544289398) < 1e-10


def test_optimize_angle_cli(tmp_path, pipeline_state):
    state = tmp_path / "source.json"
    write_state_file(pipeline_state, state)
    out = tmp_path / "angle.csv"
    run_cli("optimize", "--angle", "--state", str(state), "--out", str(out))
    row = out.read_text().strip().split("\n")[1].split(",")
    assert abs(float(row[0]) - np.pi / 4) < 0.02


@pytest.mark.parametrize("flags", [
    ["--angle"],
    ["--angle", "--state", "s.json", "--family", "circle"],
    ["--angle", "--state", "s.json", "--chi", "0.5"],
    ["--angle", "--state", "s.json", "--n", "12"],
    ["--family", "circle", "--n", "12"],
    ["--family", "circle", "--state", "s.json"],
    ["--n", "12", "--state", "s.json"],
    ["--state", "s.json"],
])
def test_optimize_rejects_flags_that_take_no_effect(tmp_path, capsys, monkeypatch, flags):
    monkeypatch.chdir(tmp_path)
    write_state_file(circle(1.12, 8), tmp_path / "s.json")
    assert run_cli("optimize", *flags, "--out", "out.txt") == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "out.txt").exists()


def test_optimize_accepts_the_flags_each_mode_uses(tmp_path):
    write_state_file(circle(1.12, 8), tmp_path / "s.json")
    for flags in (["--n", "6", "--chi", "0.7", "--seed", "3"],
                  ["--family", "circle", "--chi", "0.7", "--objective", "ch"],
                  ["--angle", "--state", str(tmp_path / "s.json"), "--seed", "3"]):
        assert run_cli("optimize", *flags, "--out", str(tmp_path / "out.txt")) == 0, flags


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["state", "--family", "quartic"])
    assert exc.value.code != 0


@pytest.mark.parametrize("argv", [
    ["pipeline", "--xi", "0.7071", "--format", "csv"],
    ["bell", "--state", "s.json", "--cutoff", "8"],
    ["scan", "--seed", "3"],
    ["optimize", "--starts", "8"],
])
def test_flags_a_subcommand_does_not_honour_are_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code != 0


@pytest.mark.parametrize("flags", [
    ["--family", "tmss", "--lambda", "0.5", "--r", "1"],
    ["--family", "circle", "--r", "1.12", "--xi", "0.7"],
    ["--family", "tmss", "--lambda", "0.5", "--file", "s.json"],
    ["--family", "custom", "--file", "s.json", "--cutoff", "4"],
    ["--compare", "--family", "circle"],
    ["--compare", "--r", "1.12"],
    ["--compare", "--format", "csv"],
])
def test_state_rejects_flags_that_take_no_effect(tmp_path, capsys, monkeypatch, flags):
    monkeypatch.chdir(tmp_path)
    write_state_file(circle(1.12, 8), tmp_path / "s.json")
    assert run_cli("state", *flags, "--out", "out.txt") == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "out.txt").exists()


def test_scan_rejects_a_parameter_of_another_family(tmp_path):
    out = tmp_path / "scan.csv"
    assert run_cli("scan", "--family", "tmss", "--param", "r", "--from", "0.1", "--to", "0.5",
                   "--steps", "3", "--out", str(out)) == 1
    assert not out.exists()


def test_scan_over_chi_needs_the_family_value(tmp_path):
    out = tmp_path / "scan.csv"
    assert run_cli("scan", "--family", "circle", "--param", "chi", "--from", "0.7",
                   "--to", "0.8", "--steps", "2", "--out", str(out)) == 1
    assert not out.exists()
    assert run_cli("scan", "--family", "circle", "--param", "chi", "--value", "1.12",
                   "--from", "0.7", "--to", "0.8", "--steps", "2", "--out", str(out)) == 0
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
    assert len(rows) == 2
    for chi, b in rows:        # scan builds families at cutoff 32
        assert float(b) == float("%.12g" % chsh_B(circle(1.12, 32), float(chi)))


def test_sample_refuses_a_state_the_grid_truncates(tmp_path, capsys):
    c = np.zeros(100)
    c[80:] = np.sqrt(1.0 / 20.0)
    state = tmp_path / "high.json"
    write_state_file(CoefficientVector(c, normalized=True), state)
    out = tmp_path / "s.json"
    assert run_cli("sample", "--state", str(state), "--n", "100", "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_byte_identical_state_outputs(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("state", "--family", "ps-tmss", "--lambda", "0.6", "--out", str(a))
    run_cli("state", "--family", "ps-tmss", "--lambda", "0.6", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_readme_command_block_runs_in_order(tmp_path, monkeypatch):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = [line for line in readme.read_text().splitlines()
             if line.startswith("homodyne-bell ")]
    assert len(lines) >= 11
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line


@pytest.mark.parametrize("flags, named", [
    (["--family", "circle", "--param", "r", "--value", "3"], ["--value"]),
    (["--param", "iterations", "--to", "6", "--steps", "5", "--from", "9"],
     ["--from", "--steps"]),
    (["--param", "iterations", "--to", "6", "--family", "tmss"], ["--family"]),
    (["--family", "circle", "--param", "r", "--xi", "0.3"], ["--xi"]),
    (["--family", "circle", "--param", "chi", "--value", "1.12", "--chi", "0.3"], ["--chi"]),
    (["--family", "pipeline", "--param", "chi", "--value", "0.7", "--xi", "0.3"],
     ["--value", "--xi"]),
    (["--family", "pipeline", "--param", "chi", "--xi", "0.7", "--value", "0.7"],
     ["--value", "--xi"]),
    (["--param", "iterations", "--to", "6.9"], ["--to"]),
])
def test_scan_rejects_flags_that_take_no_effect(tmp_path, capsys, flags, named):
    out = tmp_path / "scan.csv"
    assert run_cli("scan", *flags, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --") and all(flag in err for flag in named), err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["optimize", "--family", "custom"],
    ["optimize", "--family", "quartic"],
    ["scan", "--family", "custom", "--param", "chi", "--value", "1"],
])
def test_family_without_a_parameter_is_a_usage_error(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_searches_and_scans_take_either_family_spelling(tmp_path):
    for argv in (["optimize", "--family", "ps-tmss"],
                 ["scan", "--family", "ps-tmss", "--param", "lambda", "--from", "0.1",
                  "--to", "0.5", "--steps", "3"]):
        assert run_cli(*argv, "--out", str(tmp_path / "out.csv")) == 0, argv


def test_sample_refuses_n_beyond_int64(tmp_path, capsys):
    # 10^20 pairs left an uncaught OverflowError traceback and no error line
    state = tmp_path / "circle.json"
    write_state_file(circle(1.12), state)
    out = tmp_path / "s.json"
    assert run_cli("sample", "--state", str(state), "--n", "100000000000000000000",
                   "--out", str(out)) == 1
    assert capsys.readouterr().err == \
        "error: n = 100000000000000000000 pairs is outside [1, 2**63 - 1]\n"
    assert not out.exists()


def test_sample_refuses_a_non_finite_chi(tmp_path, capsys):
    # --chi nan failed inside numpy: "pvals < 0, pvals > 1 or pvals contains NaNs"
    state = tmp_path / "circle.json"
    write_state_file(circle(1.12), state)
    assert run_cli("sample", "--state", str(state), "--chi", "nan") == 1
    assert capsys.readouterr().err == "error: chi = nan is not finite\n"


@pytest.mark.filterwarnings("error")
def test_bell_refuses_a_non_finite_chi_without_a_warning(tmp_path, capsys):
    # --chi inf printed a RuntimeWarning from cos(inf) before its error
    state = tmp_path / "circle.json"
    write_state_file(circle(1.12), state)
    assert run_cli("bell", "--state", str(state), "--chi", "inf") == 1
    assert capsys.readouterr().err == "error: chi = inf is not finite\n"


NON_FINITE = [
    (["scan", "--chi", "inf"], "chi = inf"),      # wrote nan values and exited 0
    (["scan", "--param", "chi", "--family", "circle", "--value", "1.12", "--from", "0",
      "--to", "inf", "--steps", "2"], "to = inf"),
    (["scan", "--from", "nan"], "from = nan"),
    (["scan", "--param", "iterations", "--xi=-inf"], "xi = -inf"),
    (["scan", "--param", "chi", "--value", "nan"], "value = nan"),
    (["optimize", "--chi", "inf"], "chi = inf"),    # "Eigenvalues did not converge"
    (["optimize", "--chi", "nan"], "chi = nan"),
    (["pipeline", "--xi", "0.7071", "--chi", "inf"], "chi = inf"),   # ran the protocol first
    (["pipeline", "--xi", "nan"], "xi = nan"),
    (["pipeline", "--xi", "0.7071", "--lambda", "inf", "--verify-stage1"], "lambda = inf"),
    (["pipeline", "--xi", "0.7071", "--subtraction", "beamsplitter", "--bs-r", "nan"],
     "bs-r = nan"),
    (["state", "--family", "circle", "--r", "inf"], "r = inf"),
    (["state", "--family", "tmss", "--lambda=-inf"], "lambda = -inf"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, named", NON_FINITE, ids=[
    f"{argv[0]}:{named.replace(' = ', '=')}" for argv, named in NON_FINITE])
def test_a_non_finite_number_is_refused_before_any_mode_runs(tmp_path, capsys, monkeypatch,
                                                              argv, named):
    def refuse(*args):
        raise AssertionError("a mode read its flags")

    monkeypatch.setattr(cli, "_read_flags", refuse)
    out = tmp_path / "out.txt"
    assert run_cli(*argv, "--out", str(out)) == 1
    assert capsys.readouterr().err == f"error: {named} is not finite\n"
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("chi", ["1e308", "7e307"])
def test_sample_refuses_a_chi_whose_phase_overflows(tmp_path, capsys, chi):
    # 1e308 printed two overflow warnings, then numpy's "pvals ... contains NaNs";
    # 7e307 was refused as "chi = inf", a value never given
    state = tmp_path / "circle.json"
    write_state_file(circle(1.12), state)
    assert run_cli("sample", "--state", str(state), "--chi", chi) == 1
    assert capsys.readouterr().err == f"error: chi = {float(chi)} is too large\n"


OVERFLOWING_CHI = [
    ["bell", "--state", "circle.json"],     # printed two RuntimeWarnings from cos
    ["scan", "--steps", "2"],                 # wrote nan values and exited 0
    ["optimize"],
    ["optimize", "--family", "circle"],
    ["pipeline", "--xi", "0.7071"],
    ["scan", "--param", "chi", "--value", "1.12", "--from", "0", "--steps", "2", "--to"],
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", OVERFLOWING_CHI, ids=lambda argv: " ".join(argv[:3]))
@pytest.mark.parametrize("chi", ["1e308", "7e307"])
def test_a_chi_whose_bell_phases_overflow_is_refused(tmp_path, capsys, monkeypatch, argv, chi):
    # the largest phase of the Bell series is 3 chi times its top frequency
    monkeypatch.chdir(tmp_path)
    write_state_file(circle(1.12), tmp_path / "circle.json")
    flag = [] if argv[-1] == "--to" else ["--chi"]
    assert run_cli(*argv, *flag, chi, "--out", "out.txt") == 1
    assert capsys.readouterr().err == f"error: chi = {float(chi)} is too large\n"
    assert not (tmp_path / "out.txt").exists()


def test_a_large_chi_whose_phases_stay_finite_still_runs(tmp_path):
    state = tmp_path / "circle.json"
    write_state_file(circle(1.12), state)
    out = tmp_path / "bell.json"
    assert run_cli("bell", "--state", str(state), "--chi", "1e300", "--out", str(out)) == 0
    assert abs(json.loads(out.read_text())["B"]) <= 2.0 * np.sqrt(2.0)
