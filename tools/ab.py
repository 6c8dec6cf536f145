"""Record alternating A/B benchmark runs of a base revision and the working tree.

    python3 tools/ab.py --base HEAD --out BENCH_36.json
    python3 tools/ab.py --base HEAD~1 --out ab.json --workloads mc_warm --pairs 5 --seconds 5
    python3 tools/ab.py --base HEAD --out ab.json --seconds analytic=200,mc_warm=20,cli_cold=20

Each side is extracted with `git archive` into a temporary directory of its own, the
base revision and the working tree as `change_tree` (below), so both start alike, with
no compiled bytecode, and each is measured by its own `bench/run.py`, which finds the
program at `<its root>/src`.  Nothing under `bench/` is touched.  Each pair runs both
sides on one fresh seed, the base first in even pairs and the change first in odd
ones, and reads each run's last JSON line.  `--seconds` is one run length for every
workload, or `name=seconds` items, after an optional bare default.

The output holds, per workload and metric (BENCHMARK.json's end-to-end metrics, or
its per-layer ones with --trace 1), each side's median and quartiles, the median and
quartiles of the per-pair ratio change/base (over the pairs whose base is not 0),
every pair's two values, the pairs the change won and the metric's bound; then every run's
`correct`, `failed` and `attempted`, and the environment.  The measured working
tree is named by its git tree hash, `change_tree`, written before the first run with
untracked files included (ignored ones left out), beside its HEAD commit `change_head`:
`git diff change_head change_tree` shows what it held beyond that commit.  It judges
nothing: a run that reads `correct: false` is listed, not dropped.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")


def run_once(tree: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(tree / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list) -> dict:
    """Median and quartiles (statistics.quantiles' default, exclusive method)."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "p25": q1, "p75": q3}


def run_seconds(text: str, workloads: list, default: int) -> dict:
    """Seconds per workload from `--seconds`: "20", "analytic=200,mc_warm=20" or
    "20,analytic=200"; a workload not named runs for the bare value, else for default."""
    out = {}
    for item in text.split(","):
        name, _, value = item.rpartition("=")
        if not name:
            default = int(value)
        elif name in workloads:
            out[name] = int(value)
        else:
            raise ValueError(f"--seconds names {name!r}, which is not among {workloads}")
    return {w: out.get(w, default) for w in workloads}


def summarize(pairs: dict, metrics: list) -> dict:
    """pairs maps a workload to its [{"seed", "base", "change"}] run documents in order."""
    out = {}
    for workload, docs in pairs.items():
        table = {}
        for m in metrics:
            values = [[d[side]["metrics"][m["name"]]["value"] for side in SIDES] for d in docs]
            won = [(c < b) if m["better"] == "lower" else (c > b) for b, c in values]
            ratios = [c / b for b, c in values if b != 0]
            table[m["name"]] = {"unit": m["unit"], "better": m["better"],
                                "bound": m.get("bound"),
                                **{side: spread([v[i] for v in values])
                                   for i, side in enumerate(SIDES)},
                                "ratio": spread(ratios) if ratios else None,
                                "change_won": sum(won), "pairs": len(values), "values": values}
        runs = [{"seed": d["seed"], **{side: {k: d[side][k] for k in
                                              ("correct", "failed", "attempted")}
                                       for side in SIDES}} for d in docs]
        out[workload] = {"metrics": table, "runs": runs}
    return out


def git(*args: str, env=None) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                          check=True, env=env).stdout.strip()


def working_tree() -> str:
    """Tree hash of the working tree as measured, untracked files included (not ignored
    ones), written through a scratch index so the real index is not touched."""
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
        git("add", "-A", env=env)
        return git("write-tree", env=env)


def extract(rev: str, into: str) -> Path:
    """The commit or tree `rev`, unpacked by `git archive` into the directory `into`."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", into], input=archive, check=True)
    return Path(into)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="revision to compare the working tree with")
    ap.add_argument("--out", required=True, help="file to write, e.g. BENCH_<pr>.json")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", default=str(spec["run_seconds"]),
                    help='one value, or per workload: "analytic=200,mc_warm=20,cli_cold=20"')
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = ap.parse_args(argv)
    try:
        args.seconds = run_seconds(args.seconds, args.workloads.split(","), spec["run_seconds"])
    except ValueError as err:
        ap.error(str(err))
    base_rev, change_tree = git("rev-parse", args.base), working_tree()
    pairs = {w: [] for w in args.workloads.split(",")}
    with tempfile.TemporaryDirectory() as base, tempfile.TemporaryDirectory() as change:
        trees = {"base": extract(base_rev, base), "change": extract(change_tree, change)}
        for i in range(args.pairs):
            for workload in pairs:
                seed, doc = args.seed + i, {}
                for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                    doc[side] = run_once(trees[side], workload, seed, args.seconds[workload],
                                         args.trace)
                pairs[workload].append({"seed": seed, **doc})
                print(f"pair {i + 1} {workload} seed {seed}: " + ", ".join(
                    f"{s} correct={doc[s]['correct']} failed={doc[s]['failed']}" for s in SIDES),
                    flush=True)
    result = {
        "args": vars(args),
        "env": {"python": platform.python_version(), "numpy": numpy.__version__,
                "cpu_count": os.cpu_count(), "base": base_rev,
                "base_tree": git("rev-parse", base_rev + "^{tree}"),
                "change_head": git("rev-parse", "HEAD"), "change_tree": change_tree,
                "change_dirty": change_tree != git("rev-parse", "HEAD^{tree}")},
        "workloads": summarize(pairs, spec["per_layer" if args.trace else "end_to_end"]),
    }
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
