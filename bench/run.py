"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload mc_warm --seed 1 --seconds 15 --trace 0

With --trace 0 the last stdout line holds the end-to-end metrics named in
BENCHMARK.json; with --trace 1 it holds the per-layer metrics of a traced
run.  The line before it, and a file under .bench_out/results/, give the
details: environment, operation counts and failed checks.  See README.md.
"""

import time

T_START = time.perf_counter()   # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "homodyne_bell" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no program at {ROOT / 'src' / 'homodyne_bell'}\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import workloads
    import spans
    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"bench: unknown workload {args.workload!r}\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = OUT / f"work-{os.getpid()}"
    w = workloads.WORKLOADS[args.workload](args.seed, args.seconds, ROOT, workdir)
    hb = None
    if w.needs_program:
        import homodyne_bell as hb
    imported = time.perf_counter() - T_START
    try:
        if args.trace:
            w.setup(hb)
            result = traced_run(w, hb, workloads, spans, spec)
        else:
            result = measured_run(w, hb, workloads, imported)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["env"] = environment()
    result["args"] = vars(args)
    detail_dir = OUT / "results"
    detail_dir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    (detail_dir / name).write_text(json.dumps(result, indent=1, default=str) + "\n")

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
               for m in wanted}
    print("detail " + json.dumps({k: result[k] for k in ("env", "extra", "failures")},
                                 default=str))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def outcome(w, ops) -> dict:
    """attempted, failed and correct over `ops`, with the failed checks."""
    shared = w.check_all(ops)
    failures, correct = [], not shared
    for op in ops:
        msgs = [op.error] if op.error else w.check(op)
        msgs = msgs + shared
        if msgs:
            expected = {w.known_faults.get(op.name)}
            correct = correct and set(msgs) <= expected
            failures.append({"op": op.name, "round": op.round, "checks": msgs})
    return {"correct": correct, "attempted": len(ops), "failed": len(failures),
            "failures": failures}


def measured_run(w, hb, workloads, imported: float) -> dict:
    reps = []
    for _ in range(w.setup_reps):
        t0 = time.perf_counter()
        w.setup(hb)
        reps.append(time.perf_counter() - t0)
    ops, wall, per_round = workloads.run_ops(w, hb, w.rounds)
    if isinstance(w, workloads.CliCold):
        peak_kb = max(op.output.rss_kb for op in ops if op.output is not None)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    samples = w.op_times(ops, per_round)
    result = outcome(w, ops)
    result["metrics"] = {
        "wall_s": wall,
        "setup_s": imported + statistics.median(reps),
        "peak_rss_mb": peak_kb / 1024.0,
        "op_p50_ms": 1e3 * statistics.median(samples),
    }
    result["extra"] = {"rounds": w.rounds, "op_p50_samples": len(samples),
                       "import_s": imported, "setup_reps_s": reps,
                       "op_seconds": _by_name(ops)}
    if isinstance(w, workloads.McWarm):
        result["extra"]["pairs_per_s"] = 2 * w.PAIRS * len(ops) / wall
    return result


def traced_run(w, hb, workloads, spans, spec) -> dict:
    """A one-round warm-up, a traced pass and an untraced pass of the same
    rounds, then the layer probe.  The warm-up keeps one-time costs out of
    the comparison of the other two."""
    warmup, _, _ = workloads.run_ops(w, hb, 1)
    if hb is None:
        import homodyne_bell as hb
    tracer = spans.Tracer()
    if isinstance(w, workloads.McWarm):
        tracer.mark_warm(w.state.coeffs, (workloads.ref.CHI, 3 * workloads.ref.CHI))
    tracer.install(hb)
    try:
        traced, traced_wall, _ = workloads.run_ops(w, hb, w.rounds)
    finally:
        tracer.uninstall()
    plain, plain_wall, _ = workloads.run_ops(w, hb, w.rounds)
    tracer.install(hb)
    try:
        probe = workloads.probe(hb, w)
    finally:
        tracer.uninstall()
    cli_ops = traced if isinstance(w, workloads.CliCold) else probe.pop("cli_ops")
    result = outcome(w, warmup + traced + plain)
    result["metrics"] = spans.layer_metrics(tracer, probe, cli_ops, traced_wall - plain_wall)
    result["extra"] = {"rounds": w.rounds, "untraced_wall_s": plain_wall,
                       "traced_wall_s": traced_wall, "spans": len(tracer.spans),
                       "self_times": tracer.self_times()}
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in result["metrics"]]
    if missing:
        raise RuntimeError(f"per-layer metrics not produced: {missing}")
    return result


def _by_name(ops) -> dict:
    out = {}
    for op in ops:
        out.setdefault(op.name, []).append(op.seconds)
    return out


def environment() -> dict:
    """Machine, library versions, BLAS threads and the commit being measured."""
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
            "blas_threads": _blas_threads(), "git_sha": _git_sha()}


def _blas_threads():
    """Thread count of the loaded OpenBLAS, read from the library itself."""
    import ctypes
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                return int(fn())
    return None


def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


if __name__ == "__main__":
    sys.exit(main())
