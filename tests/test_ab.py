"""tools/ab.py's summary of A/B run documents, on synthetic documents, and its name for
the measured tree and the two trees it measures, in a scratch git repository: no test
runs the benchmark."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ab.py"
spec = importlib.util.spec_from_file_location("ab", TOOL)
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)

METRICS = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
           {"name": "pairs", "unit": "count", "better": "higher"}]


def doc(wall, pairs, correct=True, failed=0):
    return {"correct": correct, "attempted": 10, "failed": failed,
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "pairs": {"value": pairs, "unit": "count"}}}


def test_summary_reports_medians_quartiles_wins_and_keeps_a_failed_run():
    base = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 2.5, 2.0, 3.0, 6.0]
    docs = [{"seed": 7 + i, "base": doc(b, 10), "change": doc(c, 9 + 2 * (i % 2))}
            for i, (b, c) in enumerate(zip(base, change))]
    docs[2]["change"] = doc(2.0, 11, correct=False, failed=3)
    out = ab.summarize({"analytic": docs}, METRICS)["analytic"]
    wall = out["metrics"]["wall_s"]
    assert wall["base"] == {"median": 3.0, "p25": 1.5, "p75": 4.5}
    assert wall["change"] == {"median": 2.5, "p25": 1.25, "p75": 4.5}
    assert wall["change_won"] == 3 and wall["pairs"] == 5 and wall["bound"] == 0.25
    assert wall["values"][1] == [2.0, 2.5]
    # a higher-is-better metric is won by the larger value; no bound is stated for it
    counts = out["metrics"]["pairs"]
    assert counts["change_won"] == 3 and counts["bound"] is None
    # every run is listed, the one that read correct: false too
    assert [r["seed"] for r in out["runs"]] == [7, 8, 9, 10, 11]
    assert out["runs"][2]["change"] == {"correct": False, "failed": 3, "attempted": 10}
    assert out["runs"][2]["base"] == {"correct": True, "failed": 0, "attempted": 10}


def test_summary_reports_quartiles_of_the_per_pair_ratio():
    base, change = [2.0, 4.0, 1.0, 5.0, 0.0], [1.0, 4.0, 3.0, 4.0, 7.0]
    docs = [{"seed": i, "base": doc(b, 1), "change": doc(c, 1)}
            for i, (b, c) in enumerate(zip(base, change))]
    wall = ab.summarize({"cli_cold": docs}, METRICS)["cli_cold"]["metrics"]["wall_s"]
    # change/base per pair: 0.5, 1.0, 3.0, 0.8; the pair whose base is 0 has no ratio
    assert wall["ratio"] == {"median": 0.9, "p25": 0.575, "p75": 2.5}
    assert wall["pairs"] == 5
    none = [{"seed": 0, "base": doc(0.0, 1), "change": doc(1.0, 1)}]
    assert ab.summarize({"w": none}, METRICS)["w"]["metrics"]["wall_s"]["ratio"] is None


def test_seconds_take_one_value_or_one_per_workload():
    names = ["analytic", "mc_warm", "cli_cold"]
    assert ab.run_seconds("20", names, 20) == dict.fromkeys(names, 20)
    assert ab.run_seconds("analytic=200,mc_warm=20,cli_cold=20", names, 5) == \
        {"analytic": 200, "mc_warm": 20, "cli_cold": 20}
    # named workloads override a bare value, and the rest keep it or the default
    assert ab.run_seconds("30,analytic=200", names, 20) == \
        {"analytic": 200, "mc_warm": 30, "cli_cold": 30}
    assert ab.run_seconds("analytic=200", names, 20) == \
        {"analytic": 200, "mc_warm": 20, "cli_cold": 20}
    with pytest.raises(ValueError, match="'other'"):
        ab.run_seconds("other=5", names, 20)


def scratch_repo(path):
    """A git repository at path with one commit; returns its git runner."""
    def git(*args):
        return subprocess.run(["git", "-C", str(path), "-c", "user.name=t", "-c",
                               "user.email=t@t", *args], check=True, capture_output=True,
                              text=True).stdout.strip()

    git("init", "-q")
    (path / "a.txt").write_text("one\n")
    git("add", "a.txt")
    git("commit", "-qm", "one")
    return git


def test_args_record_the_seconds_of_each_workload(tmp_path, monkeypatch):
    # main runs each workload for its own seconds and records them in args
    spec = {"run_seconds": 20, "workloads": [{"name": "analytic"}, {"name": "mc_warm"}],
            "end_to_end": METRICS}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    scratch_repo(tmp_path)
    runs = []

    def run_once(tree, workload, seed, seconds, trace):
        runs.append((workload, seconds))
        return doc(1.0, 1)

    monkeypatch.setattr(ab, "ROOT", tmp_path)
    monkeypatch.setattr(ab, "run_once", run_once)
    out = tmp_path / "ab.json"
    ab.main(["--base", "HEAD", "--out", str(out), "--pairs", "1",
             "--seconds", "analytic=200"])
    assert sorted(runs) == [("analytic", 200)] * 2 + [("mc_warm", 20)] * 2
    written = json.loads(out.read_text())
    assert written["args"]["seconds"] == {"analytic": 200, "mc_warm": 20}
    assert written["workloads"]["analytic"]["metrics"]["wall_s"]["ratio"]["median"] == 1.0


def test_one_pair_has_its_value_as_every_quartile():
    out = ab.summarize({"mc_warm": [{"seed": 1, "base": doc(2.0, 1), "change": doc(2.0, 1)}]},
                       METRICS)["mc_warm"]["metrics"]["wall_s"]
    assert out["base"] == out["change"] == {"median": 2.0, "p25": 2.0, "p75": 2.0}
    assert out["change_won"] == 0                 # a tie is no win


def test_working_tree_names_what_the_head_commit_lacks(tmp_path, monkeypatch):
    git = scratch_repo(tmp_path)
    monkeypatch.setattr(ab, "ROOT", tmp_path)
    assert ab.working_tree() == git("rev-parse", "HEAD^{tree}")
    (tmp_path / "a.txt").write_text("two\n")
    (tmp_path / "b.txt").write_text("new\n")
    tree = ab.working_tree()
    assert git("diff", "--name-only", "HEAD", tree).split() == ["a.txt", "b.txt"]
    # the index is untouched: nothing staged, b.txt still untracked
    assert git("diff", "--cached", "--name-only") == "" and git("ls-files", "-o") == "b.txt"


def test_both_sides_run_from_extracted_trees(tmp_path, monkeypatch):
    # the base commit and the working tree, an uncommitted edit and an untracked file
    # included, each run from a `git archive` of its own, never from the repository itself
    repo = tmp_path / "repo"
    repo.mkdir()
    scratch_repo(repo)
    (repo / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 20, "workloads": [{"name": "mc_warm"}], "end_to_end": METRICS}))
    (repo / "a.txt").write_text("two\n")
    (repo / "b.txt").write_text("new\n")
    seen = []

    def run_once(tree, workload, seed, seconds, trace):
        seen.append((tree, {p.name: p.read_text() for p in tree.glob("*.txt")}))
        return doc(1.0, 1)

    monkeypatch.setattr(ab, "ROOT", repo)
    monkeypatch.setattr(ab, "run_once", run_once)
    ab.main(["--base", "HEAD", "--out", str(tmp_path / "ab.json"), "--pairs", "1"])
    (base, base_files), (change, change_files) = seen      # pair 1 runs the base first
    assert repo not in (base, change) and base != change
    assert base_files == {"a.txt": "one\n"}
    assert change_files == {"a.txt": "two\n", "b.txt": "new\n"}
