"""The benchmark's three workloads, their inputs and their output checks.

A workload is a number of identical rounds of named operations.  Its inputs
come from the run's seed; the program sees only those inputs.  Every check
compares an output with `reference`, which never imports the program, and
runs after the timed region.  A check that fails marks its operation failed.
"""

from __future__ import annotations

import csv
import gc
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference as ref

CLOSED_TOL = 1e-9     # program vs reference on closed-form functionals
OPT_TOL = 1e-8        # L-BFGS stops about 1e-9 short of the eigen ceiling
ORACLE_TOL = 1e-8     # 2-D quadrature oracle vs closed form, as in criterion 9
SIGMAS = 5.0


@dataclass
class Op:
    name: str
    round: int
    seconds: float
    output: object = None
    error: str | None = None


def run_ops(workload, hb, rounds: int) -> tuple:
    """Run `rounds` rounds; return (ops, wall seconds, seconds per round)."""
    ops, per_round = [], []
    start = time.perf_counter()
    for r in range(rounds):
        r0 = time.perf_counter()
        for name, fn in workload.round_ops(hb, r):
            t0 = time.perf_counter()
            try:
                out, err = fn(), None
            except Exception as exc:   # a crashing operation is a failed one
                out, err = None, f"{type(exc).__name__}: {exc}"
            ops.append(Op(name, r, time.perf_counter() - t0, out, err))
        per_round.append(time.perf_counter() - r0)
    return ops, time.perf_counter() - start, per_round


class Workload:
    name = ""
    nominal_round_s = 1.0     # rough cost of one round here; sets the round count
    min_rounds = 1
    setup_reps = 3
    needs_program = True      # whether the benchmark process imports homodyne_bell
    known_faults: dict = {}   # operation name -> message of a check known to fail

    def __init__(self, seed: int, seconds: int, root: Path, workdir: Path):
        self.rng = np.random.default_rng(seed)
        self.rounds = max(self.min_rounds, math.ceil(seconds / self.nominal_round_s))
        self.root, self.workdir = root, workdir

    def setup(self, hb) -> None:
        """Work done before timing; repeated to take a median."""

    def round_ops(self, hb, r: int) -> list:
        raise NotImplementedError

    def check(self, op: Op) -> list:
        """Messages of the checks `op` fails."""
        raise NotImplementedError

    def check_all(self, ops: list) -> list:
        """Messages of checks spanning all operations; each fails every op."""
        return []

    def op_times(self, ops: list, per_round: list) -> list:
        """The samples behind op_p50_ms."""
        return [op.seconds for op in ops]


def _close(got, want, tol) -> bool:
    return bool(np.all(np.abs(np.asarray(got, float) - np.asarray(want, float)) <= tol))


def clear_sampler_tables(hb) -> None:
    """Drop the sampler's cached per-(state, chi) tables, where it has them."""
    clear = getattr(getattr(hb.sampler, "_plan_for", None), "cache_clear", None)
    if clear is not None:
        clear()
    gc.collect()


# --- mc_warm -----------------------------------------------------------------

class McWarm(Workload):
    """Seeded estimate_B calls on the pipelined state with the tables built."""

    name = "mc_warm"
    nominal_round_s = 2.6
    min_rounds = 3
    setup_reps = 2            # each repetition builds the 1 GB sampler tables again
    PAIRS = 10 ** 6

    def __init__(self, *a):
        super().__init__(*a)
        self.seeds = [int(s) for s in self.rng.integers(0, 2 ** 62, self.rounds)]

    def setup(self, hb):
        clear_sampler_tables(hb)
        self.state = hb.pipeline.run_pipeline(hb.pipeline.PipelineConfig(xi=ref.XI)).final_state
        hb.sampler.estimate_B(self.state, ref.CHI, 1000, seed=0)

    def round_ops(self, hb, r):
        return [("estimate_B", lambda: hb.sampler.estimate_B(
            self.state, ref.CHI, self.PAIRS, seed=self.seeds[r]))]

    def check(self, op):
        est, b_ref = op.output, _pipelined_B()
        bad = []
        if abs(est.b - b_ref) > SIGMAS * est.stderr:
            bad.append(f"b = {est.b} is {abs(est.b - b_ref) / est.stderr:.1f} stderr from {b_ref}")
        for batch in (est.batch_chi, est.batch_3chi):
            n = batch.n_samples
            plus_a = int(batch.counts[0].sum()) / n
            if abs(plus_a - 0.5) > SIGMAS * 0.5 / math.sqrt(n):
                bad.append(f"A-sign marginal {plus_a} at chi = {batch.chi}")
        return bad

    def check_all(self, ops):
        bad = []
        if not _close(self.state.coeffs, ref.pipelined(ref.XI), 1e-12):
            bad.append("pipelined state differs from the reference recursion")
        ests = [op.output for op in ops if op.error is None]
        if ests:
            mean = statistics.fmean(e.b for e in ests)
            se = math.sqrt(sum(e.stderr ** 2 for e in ests)) / len(ests)
            off = abs(mean - _pipelined_B()) / se
            if off > SIGMAS:
                bad.append(f"pooled mean {mean} is {off:.1f} stderr off")
        return bad


def _pipelined_B(xi: float = ref.XI, chi: float = ref.CHI, iterations: int = 3) -> float:
    return ref.chsh_B(ref.pipelined(xi, iterations), chi)


# --- analytic ----------------------------------------------------------------

class Analytic(Workload):
    """The paper's analytic reproduction, one round per pass, no sampler."""

    name = "analytic"
    nominal_round_s = 2.2
    COEFF_N = (4, 8, 10, 12, 16)
    CIRCLE_R = np.linspace(0.5, 2.0, 61)
    PIPELINE_XI = np.linspace(0.3, 1.2, 19)
    TMSS_LAMBDA = np.arange(0.0, 0.901, 0.1)
    TMSS_CHI = np.linspace(0.05, np.pi / 2, 25)
    SEED_XI = np.arange(0.0, 3.001, 0.1)

    def __init__(self, *a):
        super().__init__(*a)
        self.oracle_chi = self.rng.uniform(0.1, np.pi / 2 - 0.1, (self.rounds, 2))
        self.stage1_lam = self.rng.uniform(0.004, 0.01, (self.rounds, 3))

    def setup(self, hb):
        cat = hb.catalog
        self.state = hb.pipeline.run_pipeline(hb.pipeline.PipelineConfig(xi=ref.XI)).final_state
        self.oracle_states = (self.state, cat.circle(1.12, 32), cat.tmss(0.6, 32))

    def round_ops(self, hb, r):
        bell, cat, pipe, opt = hb.bell, hb.catalog, hb.pipeline, hb.optimizer
        chi = ref.CHI

        ops = []
        for n in self.COEFF_N:
            for objective in ("chsh", "ch"):
                for nonneg in (False, True):
                    def coeff(n=n, objective=objective, nonneg=nonneg):
                        vec, val, _ = opt.optimize_coefficients(n, chi, objective=objective,
                                                                nonnegative=nonneg)
                        return np.array(vec.coeffs), val
                    ops.append((f"coeff_N{n}_{objective}{'_nonneg' if nonneg else ''}", coeff))
        ops += [
            ("bell_pipelined", lambda: (bell.chsh_B(self.state, chi), bell.ch_S(self.state, chi))),
            ("family_circle", lambda: opt.optimize_family_parameter("circle", chi)),
            ("family_pipeline", lambda: opt.optimize_family_parameter("pipeline", chi)),
            ("angle", lambda: opt.optimize_angle(self.state)),
            ("circle_scan", lambda: [bell.chsh_B(cat.circle(float(x), cutoff=32), chi)
                                     for x in self.CIRCLE_R]),
            ("pipeline_scan", lambda: [
                (bell.chsh_B(s, chi), bell.ch_S(s, chi))
                for s in (pipe.run_pipeline(pipe.PipelineConfig(xi=float(xi))).final_state
                          for xi in self.PIPELINE_XI)]),
            ("tmss_grid", lambda: (
                [[bell.chsh_B(cat.tmss(float(lam), cutoff=64), float(c)) for c in self.TMSS_CHI]
                 for lam in self.TMSS_LAMBDA],
                [bell.chsh_B(cat.seed(float(xi), cutoff=8), chi) for xi in self.SEED_XI])),
            ("overgaussification", lambda: pipe.overgaussification_scan(ref.XI, 6)),
            ("oracle", lambda r=r: [bell.p_plus_plus_quadrature_oracle(s, float(c))
                                    for s in self.oracle_states for c in self.oracle_chi[r]]),
            ("stage1", lambda r=r: [
                (rep.trace_distance, rep.success_probability,
                 pipe.stage1_verify(ref.XI, 2 * lam).success_probability)
                for lam in self.stage1_lam[r] for rep in [pipe.stage1_verify(ref.XI, lam)]]),
        ]
        return ops

    def op_times(self, ops, per_round):
        return per_round

    def check(self, op):
        kind = "coeff" if op.name.startswith("coeff_") else op.name
        return getattr(self, "_check_" + kind)(op.output, op)

    def _check_coeff(self, out, op):
        c, val = out
        _, n, objective = op.name.split("_")[:3]
        b_star, s_star = ref.ceiling(int(n[1:]), ref.CHI)
        want = b_star if objective == "chsh" else s_star
        s_own = ref.ch_S(c, ref.CHI) / float(c @ c)
        own = 4.0 * s_own - 2.0 if objective == "chsh" else s_own
        bad = []
        if abs(own - val) > OPT_TOL:
            bad.append(f"reported {val} but the returned vector gives {own}")
        if op.name.endswith("_nonneg"):
            if val > want + CLOSED_TOL or float(np.min(c)) < -1e-12:
                bad.append(f"nonnegative optimum {val} above ceiling {want} or negative entry")
        elif abs(val - want) > OPT_TOL:
            bad.append(f"optimum {val} differs from the eigen ceiling {want}")
        return bad

    def _check_bell_pipelined(self, out, op):
        b, s = out
        b_ref, s_ref = _pipelined_B(), ref.ch_S(ref.pipelined(ref.XI), ref.CHI)
        bad = []
        if not (_close(b, b_ref, CLOSED_TOL) and _close(s, s_ref, CLOSED_TOL)):
            bad.append(f"B, S = {b}, {s} vs reference {b_ref}, {s_ref}")
        if (round(b, 4), round(s, 4), round(b_ref, 4), round(s_ref, 4)) != (2.0715, 1.0179) * 2:
            bad.append(f"B, S = {b:.6f}, {s:.6f} do not print as the paper's 2.0715, 1.0179")
        return bad

    def _check_family_circle(self, out, op):
        r, val = out
        if abs(r - 1.12) > 0.05 or abs(val - ref.chsh_B(ref.circle(r), ref.CHI)) > CLOSED_TOL:
            return [f"circle optimum r = {r}, B = {val}"]
        return []

    def _check_family_pipeline(self, out, op):
        xi, val = out
        if (not 0.2 < xi < 1.5 or abs(val - _pipelined_B(xi)) > CLOSED_TOL
                or val < _pipelined_B() - CLOSED_TOL):
            return [f"pipeline optimum xi = {xi}, B = {val}"]
        return []

    def _check_angle(self, out, op):
        chi_star, val = out
        if abs(chi_star - ref.CHI) > 0.02 or abs(val - _pipelined_B(chi=chi_star)) > CLOSED_TOL:
            return [f"angle optimum chi = {chi_star}, B = {val}"]
        return []

    def _check_circle_scan(self, out, op):
        want = [ref.chsh_B(ref.circle(float(x)), ref.CHI) for x in self.CIRCLE_R]
        r_star = float(self.CIRCLE_R[int(np.argmax(out))])
        if not _close(out, want, CLOSED_TOL) or abs(r_star - 1.12) > 0.05 or max(out) <= 2.0:
            return [f"circle scan peaks at r = {r_star} with B = {max(out)}"]
        return []

    def _check_pipeline_scan(self, out, op):
        bad = []
        for xi, (b, s) in zip(self.PIPELINE_XI, out):
            c = ref.pipelined(float(xi))
            if (abs(b - ref.chsh_B(c, ref.CHI)) > CLOSED_TOL
                    or abs(s - ref.ch_S(c, ref.CHI)) > CLOSED_TOL
                    or abs(s - (b / 4 + 0.5)) > 1e-10):
                bad.append(f"xi = {xi}: B, S = {b}, {s}")
        return bad

    def _check_tmss_grid(self, out, op):
        grid, seeds = out
        bad = []
        for lam, row in zip(self.TMSS_LAMBDA, grid):
            want = [ref.chsh_B(ref.tmss(float(lam), 64), float(x)) for x in self.TMSS_CHI]
            if not _close(row, want, CLOSED_TOL) or max(map(abs, row)) > 2.0 + 1e-9:
                bad.append(f"tmss({lam:.1f}) row differs from the reference or violates |B| <= 2")
        want = [ref.chsh_B(ref.seed(float(xi), 8), ref.CHI) for xi in self.SEED_XI]
        if not _close(seeds, want, CLOSED_TOL) or max(seeds) > 2.0 + 1e-9:
            bad.append("seed states differ from the reference or violate B <= 2")
        return bad

    def _check_overgaussification(self, out, op):
        b = [value for _, value in out]
        want = [_pipelined_B(iterations=i) for i in range(7)]
        if (not _close(b, want, CLOSED_TOL) or int(np.argmax(b)) != 3
                or not all(b[i] > b[i + 1] for i in range(3, 6))):
            return [f"B(i) = {b} differs from the reference or does not peak at i = 3"]
        return []

    def _check_oracle(self, out, op):
        want = [ref.p_plus_plus(s.coeffs, float(c))
                for s in self.oracle_states for c in self.oracle_chi[op.round]]
        if not _close(out, want, ORACLE_TOL):
            return [f"oracle {out} vs closed form {want}"]
        return []

    def _check_stage1(self, out, op):
        return [f"lambda = {lam}: trace distance {dist}, p(2l)/p(l) = {p2 / p1}"
                for lam, (dist, p1, p2) in zip(self.stage1_lam[op.round], out)
                if dist >= 1e-3 or abs(p2 / p1 - 16.0) > 0.05 * 16.0]


# --- cli_cold ----------------------------------------------------------------

@dataclass
class CliRun:
    returncode: int
    rss_kb: int
    stderr: str
    files: dict


def run_cli(root: Path, workdir: Path, argv: list, tag: str, files: dict) -> CliRun:
    """One fresh interpreter running `python argv` in `workdir`, with the
    program's `src/` on its path; `files` names its output files by role."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    err_path = workdir / f"{tag}.stderr"
    with open(workdir / f"{tag}.stdout", "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen([sys.executable, *argv], cwd=workdir, env=env,
                                stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CliRun(proc.returncode, usage.ru_maxrss, err_path.read_text(),
                  {k: workdir / v for k, v in files.items()})


def _read_csv(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class CliCold(Workload):
    """Each subcommand once per round, each in a fresh interpreter."""

    name = "cli_cold"
    nominal_round_s = 15.0
    needs_program = False
    DUMP_FAULT = "dumped signs do not reproduce counts_chi"
    known_faults = {"sample": DUMP_FAULT}
    SAMPLE_N, SAMPLE_SEED = 20000, 7     # fixed: the dump fault shows on every seed

    def __init__(self, *a):
        super().__init__(*a)
        self.lam = round(float(self.rng.uniform(0.3, 0.8)), 6)
        self.xi = round(float(self.rng.uniform(0.6, 0.8)), 6)
        self.stage1_lam = round(float(self.rng.uniform(0.004, 0.01)), 6)
        self.chi = round(float(ref.CHI + self.rng.uniform(-0.05, 0.05)), 9)
        self.opt_seed = int(self.rng.integers(0, 2 ** 31))

    def setup(self, hb):
        self.workdir.mkdir(parents=True, exist_ok=True)
        c = ref.pipelined(ref.XI)
        doc = ('{\n  "cutoff": %d,\n  "coefficients": [%s],\n  "normalized": true,\n'
               '  "provenance": "reference pipeline(xi=1/sqrt2, iters=3)"\n}\n'
               % (c.size - 1, ", ".join(f"{x:.17g}" for x in c)))
        (self.workdir / "source.json").write_text(doc)

    def commands(self, r: int) -> list:
        """(name, argv after `-m homodyne_bell.cli`, output files by role)."""
        p = f"r{r}_"
        return [
            ("state", ["state", "--family", "tmss", "--lambda", str(self.lam),
                       "--out", p + "tmss.json"], {"out": p + "tmss.json"}),
            ("state_compare", ["state", "--compare", "--out", p + "compare.csv"],
             {"out": p + "compare.csv"}),
            ("pipeline", ["pipeline", "--xi", str(self.xi), "--lambda", str(self.stage1_lam),
                          "--verify-stage1", "--out", p + "pipeline.json"],
             {"out": p + "pipeline.json"}),
            ("bell", ["bell", "--state", "source.json", "--chi", str(self.chi),
                      "--out", p + "bell.json"], {"out": p + "bell.json"}),
            ("scan", ["scan", "--family", "circle", "--param", "r", "--from", "0.5", "--to", "2",
                      "--steps", "61", "--out", p + "scan.csv"], {"out": p + "scan.csv"}),
            ("scan_iterations", ["scan", "--param", "iterations", "--to", "6",
                                 "--xi", repr(ref.XI), "--out", p + "iters.csv"],
             {"out": p + "iters.csv"}),
            ("optimize", ["optimize", "--n", "10", "--seed", str(self.opt_seed),
                          "--out", p + "optimal.json"], {"out": p + "optimal.json"}),
            ("optimize_family", ["optimize", "--family", "circle", "--out", p + "family.csv"],
             {"out": p + "family.csv"}),
            ("optimize_angle", ["optimize", "--angle", "--state", "source.json",
                                "--out", p + "angle.csv"], {"out": p + "angle.csv"}),
            ("sample", ["sample", "--state", "source.json", "--n", str(self.SAMPLE_N),
                        "--seed", str(self.SAMPLE_SEED), "--dump-xy", p + "xy.csv",
                        "--out", p + "sample.json"],
             {"out": p + "sample.json", "xy": p + "xy.csv"}),
        ]

    def round_ops(self, hb, r):
        return [(name, lambda argv=argv, name=name, files=files: run_cli(
                    self.root, self.workdir, ["-m", "homodyne_bell.cli", *argv],
                    f"r{r}_{name}", files))
                for name, argv, files in self.commands(r)]

    def check(self, op):
        run = op.output
        if run.returncode != 0:
            return [f"exit code {run.returncode}: {run.stderr.strip()[-300:]}"]
        try:
            return getattr(self, "_check_" + op.name)(run)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]

    def _check_state(self, run):
        doc = json.loads(run.files["out"].read_text())
        want = ref.tmss(self.lam)
        c = np.array(doc["coefficients"])
        if c.size != want.size or not _close(c, want, 1e-12) or doc["cutoff"] != c.size - 1:
            return [f"tmss({self.lam}) coefficients differ from the reference"]
        return []

    def _check_state_compare(self, run):
        rows = _read_csv(run.files["out"])
        header, body = rows[0], np.array(rows[1:], dtype=float)
        cols = {h: body[:, i] for i, h in enumerate(header)}
        bad = []
        want = {"tmss_lambda0.6": ref.tmss(0.6, 32), "ps_tmss_lambda0.6": ref.ps_tmss(0.6, 32),
                "circle_r1.12": ref.circle(1.12, 32), "pipeline_xi0.71": ref.pipelined(0.71)}
        for name, c in want.items():
            if not _close(cols[name], c[:body.shape[0]], 1e-11):
                bad.append(f"column {name} differs from the reference")
        c = cols["optimized_N10"][:11]
        b = 4.0 * ref.ch_S(c, ref.CHI) / float(c @ c) - 2.0
        if abs(b - ref.ceiling(10)[0]) > OPT_TOL or np.any(cols["optimized_N10"][11:]):
            bad.append(f"optimized_N10 column gives B = {b}")
        return bad

    def _check_pipeline(self, run):
        doc = json.loads(run.files["out"].read_text())
        c = ref.pipelined(self.xi)
        b_ref = ref.chsh_B(c, ref.CHI)
        bad = []
        if not _close(doc["state"]["coefficients"], c, 1e-12):
            bad.append("pipelined coefficients differ from the reference recursion")
        b, s = doc["bell"]["B"], doc["bell"]["S"]
        if abs(b - b_ref) > CLOSED_TOL or abs(s - (b / 4 + 0.5)) > 1e-10:
            bad.append(f"B, S = {b}, {s} vs reference B {b_ref}")
        if doc["stage1"]["trace_distance"] >= 1e-3:
            bad.append(f"stage-1 trace distance {doc['stage1']['trace_distance']}")
        return bad

    def _check_bell(self, run):
        doc = json.loads(run.files["out"].read_text())
        c = ref.pipelined(ref.XI)
        want = {"B": ref.chsh_B(c, self.chi), "S": ref.ch_S(c, self.chi),
                "p_pp_chi": ref.p_plus_plus(c, self.chi),
                "p_pp_3chi": ref.p_plus_plus(c, 3 * self.chi)}
        bad = [f"{k} = {doc[k]} vs reference {v}" for k, v in want.items()
               if abs(doc[k] - v) > CLOSED_TOL]
        if abs(doc["S"] - (doc["B"] / 4 + 0.5)) > 1e-10:
            bad.append("S = B/4 + 1/2 does not hold")
        return bad

    def _check_scan(self, run):
        rows = np.array(_read_csv(run.files["out"])[1:], dtype=float)
        want = [ref.chsh_B(ref.circle(r), ref.CHI) for r in rows[:, 0]]
        r_star = rows[int(np.argmax(rows[:, 1])), 0]
        if len(rows) != 61 or not _close(rows[:, 1], want, CLOSED_TOL) or abs(r_star - 1.12) > 0.05:
            return [f"circle scan differs from the reference or peaks at r = {r_star}"]
        return []

    def _check_scan_iterations(self, run):
        rows = np.array(_read_csv(run.files["out"])[1:], dtype=float)
        b = rows[:, 1]
        want = [_pipelined_B(iterations=i) for i in range(7)]
        if (len(b) != 7 or not _close(b, want, CLOSED_TOL) or int(np.argmax(b)) != 3
                or not all(b[i] > b[i + 1] for i in range(3, 6))):
            return [f"B(i) = {list(b)} differs from the reference or does not peak at i = 3"]
        return []

    def _check_optimize(self, run):
        reported = float(run.stderr.split("=")[-1])
        c = np.array(json.loads(run.files["out"].read_text())["coefficients"])
        own = 4.0 * ref.ch_S(c, ref.CHI) - 2.0
        b_star = ref.ceiling(10)[0]
        if abs(reported - b_star) > OPT_TOL or abs(own - b_star) > OPT_TOL:
            return [f"reported {reported}, vector gives {own}, ceiling {b_star}"]
        return []

    def _check_optimize_family(self, run):
        r, val = (float(x) for x in _read_csv(run.files["out"])[1])
        if abs(r - 1.12) > 0.05 or abs(val - ref.chsh_B(ref.circle(r), ref.CHI)) > CLOSED_TOL:
            return [f"circle optimum r = {r}, B = {val}"]
        return []

    def _check_optimize_angle(self, run):
        chi, val = (float(x) for x in _read_csv(run.files["out"])[1])
        if abs(chi - ref.CHI) > 0.02 or abs(val - _pipelined_B(chi=chi)) > CLOSED_TOL:
            return [f"angle optimum chi = {chi}, B = {val}"]
        return []

    def _check_sample(self, run):
        doc = json.loads(run.files["out"].read_text())
        b_ref = _pipelined_B()
        bad = []
        if abs(doc["analytic_B"] - b_ref) > CLOSED_TOL:
            bad.append(f"analytic_B = {doc['analytic_B']} vs reference {b_ref}")
        if abs(doc["b_hat"] - b_ref) > SIGMAS * doc["stderr"]:
            bad.append(f"b_hat = {doc['b_hat']} more than {SIGMAS} stderr from {b_ref}")
        signs = np.array(_read_csv(run.files["xy"])[1:], dtype=float)[:, 2:]
        plus_a, plus_b = signs[:, 0] > 0, signs[:, 1] > 0
        dumped = [[int(np.sum(plus_a & plus_b)), int(np.sum(plus_a & ~plus_b))],
                  [int(np.sum(~plus_a & plus_b)), int(np.sum(~plus_a & ~plus_b))]]
        if dumped != doc["counts_chi"]:
            bad.append(self.DUMP_FAULT)
        return bad


WORKLOADS = {w.name: w for w in (McWarm, Analytic, CliCold)}


# --- layer probe for traced runs ---------------------------------------------

PROBE_CHI = 0.7            # an angle no workload samples at, so the tables are new
PROBE_OVERLAP_SIZE = 96    # an overlap table size no workload uses


def _rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2 ** 20


def probe(hb, w: Workload) -> dict:
    """Fixed calls into every layer, so that a traced run of any workload
    reports every per-layer metric.  Inputs do not depend on the seed."""
    bell, opt = hb.bell, hb.optimizer
    st = hb.pipeline.run_pipeline(hb.pipeline.PipelineConfig(xi=ref.XI, lam=0.01)).final_state
    bell.chsh_B(st, ref.CHI), bell.ch_S(st, ref.CHI), bell.p_plus_plus(st, ref.CHI)
    bell.p_plus_plus_quadrature_oracle(st, PROBE_CHI)
    opt.optimize_coefficients(6, ref.CHI)
    opt.optimize_coefficients(6, ref.CHI, nonnegative=True)
    opt.optimize_family_parameter("circle", ref.CHI)
    opt.optimize_angle(st)
    out = {}
    t0 = time.perf_counter()
    bell.overlap_table(PROBE_OVERLAP_SIZE)
    out["overlap_ms"] = 1e3 * (time.perf_counter() - t0)

    clear_sampler_tables(hb)
    rss0 = _rss_mb()
    t0 = time.perf_counter()
    hb.sampler.estimate_B(st, PROBE_CHI, 1000, seed=0)
    out["plan_s"] = time.perf_counter() - t0
    out["plan_mb"] = _rss_mb() - rss0
    hb.sampler.sample_joint(st, PROBE_CHI, 200_000, seed=1)
    clear_sampler_tables(hb)

    w.workdir.mkdir(parents=True, exist_ok=True)
    imports = []
    for i in range(3):
        t0 = time.perf_counter()
        run = run_cli(w.root, w.workdir, ["-c", "import homodyne_bell"], f"import{i}", {})
        imports.append(time.perf_counter() - t0)
        if run.returncode != 0:
            raise RuntimeError(f"import homodyne_bell failed: {run.stderr}")
    out["import_s"] = statistics.median(imports)
    if not isinstance(w, CliCold):
        cli = CliCold(0, 1, w.root, w.workdir)
        cli.setup(hb)
        ops, _, _ = run_ops(cli, hb, 1)
        broken = [op.name for op in ops if op.error or op.output.returncode != 0]
        if broken:
            raise RuntimeError(f"CLI probe failed: {broken}")
        out["cli_ops"] = ops
    return out
