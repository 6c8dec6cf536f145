"""Command-line front end: reproducible experiments, plot-ready CSV/JSON.

Subcommands: state, pipeline, bell, scan, sample, optimize.  Identical flags
and seeds produce byte-identical primary outputs.  CSV fields print floats by `%.12g`
(_FMT), so an integral float prints `2`; every JSON document goes through
`fock_core.json_text`, so `2.0`, its Bell and sample statistics rounded to 12 digits
first and its state, `stage1` and subtraction values printed in full.  A CSV text
field holding `,`, `"`, a newline or a carriage return is quoted, quotes doubled.

Each mode of `state`, `pipeline`, `scan` and `optimize` rejects a flag it does not
read (`_read_flags`), except `optimize --seed`, accepted and ignored in every mode:
the optimum is exact, and the benchmark's `cli_cold` workload passes it.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from . import bell, catalog, optimizer, sampler
from .fock_core import json_text, read_state_file, state_document
from .pipeline import PipelineConfig, overgaussification_scan, run_pipeline

_FMT = "%.12g"
_DUMP_ROWS = 2 ** 16      # raw pairs formatted per block by sample --dump-xy
_XI = 1.0 / np.sqrt(2.0)
_SEARCHABLE = tuple(f for f, family in catalog.FAMILIES.items() if family.parameter)


def _flag(dest: str) -> str:           # the flag, without its dashes, stored in `dest`
    return {"frm": "from", "lam": "lambda"}.get(dest, dest.replace("_", "-"))


def _read_flags(args, where: str, reads: dict) -> None:
    """The mode `where` reads the flags in `reads`, each unset one taking its default
    there; any other flag given is an error that names it.  The parser defaults are
    None (False for a switch), so a given flag is told from an unset one."""
    unused = ["--" + _flag(f) for f, v in vars(args).items() if v is not None and v is not False
              and f not in reads and f not in ("command", "fn", "out")]
    if unused:
        raise ValueError(f"{', '.join(unused)} take{'s' * (len(unused) == 1)} no effect "
                         f"with {where}")
    for f, default in reads.items():
        if getattr(args, f) is None:
            setattr(args, f, default)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="\n") as fh:
            fh.write(text)


def _cell(x) -> str:
    """One CSV field, by the rules of the module docstring."""
    if isinstance(x, float):
        return _FMT % x
    if isinstance(x, str) and any(c in x for c in ',"\n\r'):
        return '"' + x.replace('"', '""') + '"'
    return str(x)


def _csv(header: list, rows: list) -> str:
    return "".join(",".join(map(_cell, row)) + "\n" for row in [header, *rows])


def _compare_table() -> str:
    """Coefficients of the five benchmark families by photon number, n = 0..12."""
    columns = {
        "tmss_lambda0.6": catalog.tmss(0.6, catalog.WORKING_CUTOFF),
        "ps_tmss_lambda0.6": catalog.ps_tmss(0.6, catalog.WORKING_CUTOFF),
        "circle_r1.12": catalog.circle(1.12, catalog.WORKING_CUTOFF),
        "pipeline_xi0.71": catalog.pipelined(0.71),
        "optimized_N10": optimizer.optimize_coefficients(10, np.pi / 4)[0],
    }
    rows = [(n, *(float(v.coeffs[n]) if n < v.coeffs.size else 0.0 for v in columns.values()))
            for n in range(13)]
    return _csv(["n", *columns], rows)


def cmd_state(args) -> None:
    if args.compare:
        _read_flags(args, "--compare", {"compare": True})
        _emit(_compare_table(), args.out)
        return
    family = args.family or "tmss"
    own = catalog.family(family).parameter
    _read_flags(args, f"--family {family}", {"family": family, "format": "json", **(
        {own: None, "cutoff": None} if own else {"file": None})})
    v = catalog.build(family, own and getattr(args, own), args.cutoff, args.file)
    _emit(_csv(["n", "c_n"], [(n, float(c)) for n, c in enumerate(v.coeffs)])
          if args.format == "csv" else json_text(state_document(v)), args.out)


def cmd_pipeline(args) -> None:
    if args.verify_stage1 != (args.lam is not None):
        raise ValueError("--verify-stage1 and --lambda (the stage-1 squeezing) go together")
    mode = args.subtraction or "exact"
    reads = {"xi": None, "iters": 3, "lam": None, "verify_stage1": False, "subtraction": mode,
             "chi": np.pi / 4, "cutoff": catalog.WORKING_CUTOFF}
    if mode == "beamsplitter":
        reads["bs_r"] = PipelineConfig.subtraction_reflectivity
    _read_flags(args, f"--subtraction {mode}", reads)
    rep = run_pipeline(PipelineConfig(
        xi=args.xi, lam=args.lam, iterations=args.iters, cutoff=args.cutoff, subtraction=mode,
        subtraction_reflectivity=(args.bs_r if mode == "beamsplitter"
                                  else PipelineConfig.subtraction_reflectivity)))
    report = bell.bell_report(rep.final_state, args.chi)
    stage1 = {} if rep.stage1 is None else {"stage1": {k: getattr(rep.stage1, k) for k in (
        "input_dropped_mass", "printed_transmissivity", "success_probability",
        "trace_distance", "transmissivity", "truncated_mass")}}
    doc = {      # keys in sorted order, but the state's, which keep a state file's order
        "bell": {k: float(_FMT % getattr(report, k)) for k in ("B", "S", "chi")},
        "gaussify_success_probabilities": [float(_FMT % p) for p in rep.gaussify_probabilities],
        **stage1,
        "state": state_document(rep.final_state),
        "subtraction_probability": rep.subtraction_probability,
        "truncation_warnings": list(rep.truncation_warnings),
    }
    _emit(json_text(doc), args.out)


def cmd_bell(args) -> None:
    fields = dataclasses.asdict(bell.bell_report(read_state_file(args.state), args.chi))
    if args.format == "csv":
        _emit(_csv(list(fields), [fields.values()]), args.out)
        return
    _emit(json_text({k: float(_FMT % v) if isinstance(v, float) else v
                     for k, v in fields.items()}), args.out)


def cmd_scan(args) -> None:
    param, family = args.param or "r", args.family or "circle"
    own = catalog.family(family).parameter
    sweep = {"param": param, "to": 2.0, "metric": "chsh", "cutoff": catalog.WORKING_CUTOFF}
    grid = {**sweep, "family": family, "frm": 0.5, "steps": 61}
    if param == "iterations":
        _read_flags(args, "--param iterations", {**sweep, "to": 6.0, "xi": _XI, "chi": np.pi / 4})
    elif param == own:
        _read_flags(args, f"--param {param}", {**grid, "chi": np.pi / 4})
    elif param == "chi":    # the seed and pipeline families take xi from --xi unless --value
        by = "xi" if own == "xi" and args.value is None else "value"
        _read_flags(args, f"--param chi on family {family!r} (its {own} from --{by})",
                    {**grid, by: _XI if by == "xi" else None})
    else:
        raise ValueError(f"family {family!r} scans over {own}, chi or iterations, not {param}")
    metric = bell.chsh_B if args.metric == "chsh" else bell.ch_S
    chi = max(args.frm, args.to, key=abs) if param == "chi" else args.chi
    bell.check_phase(chi, args.cutoff, 3)     # the largest angle the sweep evaluates
    if param == "iterations":
        if not args.to.is_integer():
            raise ValueError(f"--to takes a whole number of iterations, not {args.to:g}")
        rows = overgaussification_scan(args.xi, int(args.to), chi=args.chi, cutoff=args.cutoff,
                                       metric=metric)
        _emit(_csv(["iterations", "B" if args.metric == "chsh" else "CH"], rows), args.out)
        return
    values = np.linspace(args.frm, args.to, args.steps)
    if param == "chi":
        value = args.xi if args.value is None else args.value
        if value is None:
            raise ValueError(f"scan over chi needs --value for family {family!r}")
        v = catalog.build(family, value, args.cutoff)
        rows = [(float(ch), metric(v, float(ch))) for ch in values]
    else:
        rows = [(p, metric(catalog.build(family, p, args.cutoff), args.chi))
                for p in values.tolist()]
    _emit(_csv([param, args.metric.upper()], rows), args.out)


def cmd_sample(args) -> None:
    v = read_state_file(args.state)
    est = sampler.estimate_B(v, args.chi, args.n, args.seed)
    doc = {      # keys in sorted order
        "analytic_B": float(_FMT % bell.chsh_B(v, args.chi)),
        "b_hat": float(_FMT % est.b),
        "chi": float(_FMT % args.chi),
        "counts_3chi": est.batch_3chi.counts.tolist(),
        "counts_chi": est.batch_chi.counts.tolist(),
        "generator": sampler.GENERATOR_NAME,
        "n_samples": args.n,
        "seed": args.seed,
        "stderr": float(_FMT % est.stderr),
    }
    _emit(json_text(doc), args.out)
    if args.dump_xy:
        # the batch counted in counts_chi, drawn again from its own (child) seed
        batch = sampler.sample_joint(v, args.chi, args.n, est.batch_chi.seed, keep_samples=True)
        row_fmt = f"{_FMT},{_FMT},%d,%d\n"
        # written a block of rows at a time, so neither the rows' Python objects nor the
        # file's text ever all exist at once
        with open(args.dump_xy, "w", newline="\n") as fh:
            fh.write("x_A,x_B,sign_A,sign_B\n")
            for xy in np.split(batch.samples, range(_DUMP_ROWS, args.n, _DUMP_ROWS)):
                cols = (*xy.T.tolist(), *np.where(xy >= 0, 1, -1).T.tolist())
                fh.write("".join(map(row_fmt.__mod__, zip(*cols))))


def cmd_optimize(args) -> None:
    if args.angle != (args.state is not None):
        raise ValueError("--angle and --state (the state whose chi it optimizes) go together")
    reads = {"objective": "chsh", "seed": 0}     # --seed: see the module docstring
    if args.angle:
        _read_flags(args, "--angle", {**reads, "angle": True, "state": None})
        chi_star, val = optimizer.optimize_angle(read_state_file(args.state),
                                                 objective=args.objective)
        _emit(_csv(["chi_star", args.objective.upper()], [(chi_star, val)]), args.out)
    elif args.family:
        _read_flags(args, f"--family {args.family}", {**reads, "family": None, "chi": np.pi / 4})
        p_star, val = optimizer.optimize_family_parameter(args.family, args.chi,
                                                          objective=args.objective)
        _emit(_csv(["parameter", args.objective.upper()], [(p_star, val)]), args.out)
    else:
        _read_flags(args, "the coefficient search", {**reads, "n": 10, "chi": np.pi / 4})
        vec, val, _ = optimizer.optimize_coefficients(args.n, args.chi, objective=args.objective)
        sys.stderr.write(f"best {args.objective.upper()} = {val:.9f}\n")
        _emit(json_text(state_document(vec)), args.out)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="homodyne-bell",
        description="Correlated photon-number state preparation and homodyne Bell tests.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="output file (default: stdout)")

    def command(fn, summary):
        p = sub.add_parser(fn.__name__.removeprefix("cmd_"), parents=[out], help=summary)
        p.set_defaults(fn=fn)
        return p

    # state, pipeline, scan and optimize keep their defaults in their modes' _read_flags
    p = command(cmd_state, "emit a catalog state file")
    p.add_argument("--cutoff", type=int)
    p.add_argument("--format", choices=("json", "csv"), help="default: json")
    p.add_argument("--family", type=catalog.family_name, choices=catalog.FAMILIES,
                   help="default: tmss")
    p.add_argument("--lambda", type=float)
    p.add_argument("--r", type=float)
    p.add_argument("--xi", type=float)
    p.add_argument("--file", help="state file for --family custom")
    p.add_argument("--compare", action="store_true",
                   help="emit the five-family coefficient comparison CSV")

    p = command(cmd_pipeline, "run the conditional preparation")
    p.add_argument("--cutoff", type=int, help="default: 32")
    p.add_argument("--xi", type=float, required=True)
    p.add_argument("--iters", type=int, help="default: 3")
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--subtraction", choices=("exact", "beamsplitter"), help="default: exact")
    p.add_argument("--bs-r", type=float,
                   help="splitter reflectivity for --subtraction beamsplitter (default 0.01)")
    p.add_argument("--chi", type=float, help="default: pi/4")
    p.add_argument("--verify-stage1", action="store_true")

    p = command(cmd_bell, "evaluate the Bell functionals on a state file")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--state", required=True)
    p.add_argument("--chi", type=float, default=np.pi / 4)

    p = command(cmd_scan, "sweep a family parameter or iteration count")
    p.add_argument("--cutoff", type=int, help="default: 32")
    p.add_argument("--family", type=catalog.family_name, choices=_SEARCHABLE,
                   help="default: circle")
    p.add_argument("--param", choices=("lambda", "r", "xi", "chi", "iterations"),
                   help="default: r")
    p.add_argument("--from", dest="frm", type=float, help="default: 0.5")
    p.add_argument("--to", type=float, help="default: 2; 6 with --param iterations")
    p.add_argument("--steps", type=int, help="default: 61")
    p.add_argument("--metric", choices=("chsh", "ch"), help="default: chsh")
    p.add_argument("--chi", type=float, help="default: pi/4")
    p.add_argument("--xi", type=float, help="default: 1/sqrt(2)")
    p.add_argument("--value", type=float, help="family parameter when sweeping chi")

    p = command(cmd_sample, "Monte Carlo homodyne estimate of B")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--state", required=True)
    p.add_argument("--chi", type=float, default=np.pi / 4)
    p.add_argument("--n", type=int, default=10 ** 5)
    p.add_argument("--dump-xy", default=None,
                   help="also write raw (x_A, x_B, sign_A, sign_B) CSV to this path")

    p = command(cmd_optimize, "maximize a Bell functional")
    p.add_argument("--objective", choices=("chsh", "ch"), help="default: chsh")
    p.add_argument("--n", type=int, help="coefficient cutoff N (default 10)")
    p.add_argument("--chi", type=float, help="default: pi/4")
    p.add_argument("--seed", type=int, help="ignored: the optimum is exact")
    p.add_argument("--family", type=catalog.family_name, choices=_SEARCHABLE,
                   help="optimize a family parameter instead of raw coefficients")
    p.add_argument("--angle", action="store_true", help="optimize chi for --state")
    p.add_argument("--state")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for f, v in vars(args).items():     # every float flag, before any mode reads it
            if isinstance(v, float) and not np.isfinite(v):
                raise ValueError(f"{_flag(f)} = {v} is not finite")
        args.fn(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
