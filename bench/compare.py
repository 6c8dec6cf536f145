"""Run sets of benchmark runs and print how well each metric repeats.

    python3 bench/compare.py                      # 2 sets x 10 seeds x every workload
    python3 bench/compare.py --sets 1 --runs 5 --workloads mc_warm

For every workload and end-to-end metric it prints, per set, the median and
the spread (distance between the first and third quartile, as a share of the
median), and, between consecutive sets, how much worse the later median is,
each against the metric's bound in BENCHMARK.json.  A spread is marked when
it exceeds a third of the bound (the target) or the bound itself; setup_s
has no spread limit, only the shift limit.  It also checks that the share of
failed operations is the same in every run of a workload.  Raw results go to
.bench_out/compare-<time>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    doc["elapsed_s"] = time.perf_counter() - t0
    return doc


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    names = args.workloads.split(",")

    runs = {w: [[] for _ in range(args.sets)] for w in names}
    for s in range(args.sets):
        for i in range(args.runs):
            for w in names:
                doc = run_once(w, 1000 * s + i + 1, args.seconds, args.trace)
                runs[w][s].append(doc)
                print(f"set {s + 1} run {i + 1} {w}: {doc['elapsed_s']:.1f} s, "
                      f"correct={doc['correct']} {doc['failed']}/{doc['attempted']} failed",
                      flush=True)
    out = ROOT / ".bench_out" / f"compare-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"args": vars(args), "runs": runs}, indent=1) + "\n")

    metrics = spec["per_layer" if args.trace else "end_to_end"]
    ok = True
    for w in names:
        shares = {d["failed"] / d["attempted"] for sets in runs[w] for d in sets}
        wrong = sum(not d["correct"] for sets in runs[w] for d in sets)
        ok = ok and len(shares) == 1 and not wrong
        print(f"\n{w}: failed share {sorted(shares)}, runs not correct: {wrong}")
        for m in metrics:
            bound = m.get("bound")
            cols, medians = [], []
            for sets in runs[w]:
                values = [d["metrics"][m["name"]]["value"] for d in sets]
                medians.append(statistics.median(values))
                sp = spread(values) if len(values) > 1 and medians[-1] else 0.0
                flag = ""
                if bound is not None and m["name"] != "setup_s":
                    flag = " FAIL" if sp > bound else (" high" if sp > bound / 3 else "")
                    ok = ok and sp <= bound
                cols.append(f"median {medians[-1]:12.6g} spread {sp:6.1%}{flag}")
            line = f"  {m['name']:28s} " + " | ".join(cols)
            for a, b in zip(medians, medians[1:]):
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                flag = " FAIL" if bound is not None and worse > bound else ""
                ok = ok and not flag
                line += f" | worse by {worse:+6.1%}{flag}"
            if bound is not None:
                line += f"  (bound {bound:.0%})"
            print(line)
    print(f"\nresults in {out}\n{'all within bounds' if ok else 'NOT within bounds'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
