"""Command-line front end: reproducible experiments, plot-ready CSV/JSON.

Subcommands: state, pipeline, bell, scan, sample, optimize.  Identical flags
and seeds produce byte-identical primary outputs; numeric CSV fields carry 12
significant digits, state files 17.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import bell, catalog, optimizer, sampler
from .fock_core import CoefficientVector, read_state_file, state_file_text
from .pipeline import PipelineConfig, overgaussification_scan, run_pipeline

_FMT = "%.12g"
_DUMP_ROWS = 2 ** 16      # raw pairs formatted per block by sample --dump-xy


def _num(x) -> str:
    return _FMT % x


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="\n") as fh:
            fh.write(text)


def _csv(header: list, rows: list) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_num(x) if isinstance(x, float) else str(x) for x in row))
    return "\n".join(lines) + "\n"


def _state_csv(v: CoefficientVector) -> str:
    return _csv(["n", "c_n"], [(n, float(c)) for n, c in enumerate(v.coeffs)])


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
    family = args.family or "tmss"
    own = catalog.FAMILIES[family].parameter
    used = () if args.compare else ("family", "format") + ((own, "cutoff") if own else ("file",))
    unused = [f"--{f}" for f in ("family", "format", "cutoff", "lambda", "r", "xi", "file")
              if f not in used and getattr(args, f) is not None]
    if unused:
        where = "--compare" if args.compare else f"family {family!r}"
        raise ValueError(f"{where} takes no {', '.join(unused)}")
    if args.compare:
        _emit(_compare_table(), args.out)
        return
    v = catalog.CatalogSpec(family, own and getattr(args, own), path=args.file,
                            cutoff=args.cutoff).build()
    _emit(_state_csv(v) if args.format == "csv" else state_file_text(v), args.out)


def cmd_pipeline(args) -> None:
    if args.verify_stage1 != (args.lam is not None):
        raise ValueError("--verify-stage1 and --lambda (the stage-1 squeezing) go together")
    if args.bs_r is not None and args.subtraction != "beamsplitter":
        raise ValueError("--bs-r sets the splitter of --subtraction beamsplitter only")
    cfg = PipelineConfig(
        xi=args.xi,
        lam=args.lam,
        iterations=args.iters,
        cutoff=catalog.WORKING_CUTOFF if args.cutoff is None else args.cutoff,
        subtraction=args.subtraction,
        subtraction_reflectivity=(PipelineConfig.subtraction_reflectivity if args.bs_r is None
                                  else args.bs_r),
    )
    rep = run_pipeline(cfg)
    final = rep.final_state
    report = bell.bell_report(final, args.chi)
    bell_block = {k: float(_num(getattr(report, k))) for k in ("chi", "B", "S")}
    doc = {
        "state": json.loads(state_file_text(final)),
        "gaussify_success_probabilities": [float(_num(p)) for p in rep.gaussify_probabilities],
        "subtraction_probability": rep.subtraction_probability,
        "truncation_warnings": list(rep.truncation_warnings),
        "bell": bell_block,
    }
    if rep.stage1 is not None:
        doc["stage1"] = {
            "trace_distance": rep.stage1.trace_distance,
            "success_probability": rep.stage1.success_probability,
            "transmissivity": rep.stage1.transmissivity,
            "printed_transmissivity": rep.stage1.printed_transmissivity,
        }
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)


def cmd_bell(args) -> None:
    v = read_state_file(args.state)
    report = bell.bell_report(v, args.chi)
    _emit(report.to_csv() if args.format == "csv" else report.to_json(), args.out)


def cmd_scan(args) -> None:
    metric_fn = bell.chsh_B if args.metric == "chsh" else bell.ch_S
    own = catalog.FAMILIES[args.family].parameter
    if args.param not in (own, "chi", "iterations"):
        raise ValueError(f"family {args.family!r} scans over {own}, chi or iterations, "
                         f"not {args.param}")
    cutoff = catalog.WORKING_CUTOFF if args.cutoff is None else args.cutoff
    if args.param == "iterations":
        rows = overgaussification_scan(args.xi, int(args.to), chi=args.chi, cutoff=cutoff,
                                       metric=metric_fn)
        _emit(_csv(["iterations", "B" if args.metric == "chsh" else "CH"], rows), args.out)
        return
    values = np.linspace(args.frm, args.to, args.steps)
    if args.param == "chi":
        param = args.xi if args.value is None and own == "xi" else args.value
        if param is None:
            raise ValueError(f"scan over chi needs --value for family {args.family!r}")
        v = catalog.CatalogSpec(args.family, param, cutoff=cutoff).build()
        rows = [(float(ch), metric_fn(v, float(ch))) for ch in values]
    else:
        specs = (catalog.CatalogSpec(args.family, float(p), cutoff=cutoff) for p in values)
        rows = [(spec.parameter, metric_fn(spec.build(), args.chi)) for spec in specs]
    _emit(_csv([args.param, args.metric.upper()], rows), args.out)


def cmd_sample(args) -> None:
    v = read_state_file(args.state)
    est = sampler.estimate_B(v, args.chi, args.n, args.seed)
    analytic = bell.chsh_B(v, args.chi)
    doc = {
        "n_samples": args.n,
        "seed": args.seed,
        "generator": sampler.GENERATOR_NAME,
        "chi": float(_num(args.chi)),
        "b_hat": float(_num(est.b)),
        "stderr": float(_num(est.stderr)),
        "analytic_B": float(_num(analytic)),
        "counts_chi": est.batch_chi.counts.tolist(),
        "counts_3chi": est.batch_3chi.counts.tolist(),
    }
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    if args.dump_xy:
        # the batch counted in counts_chi, drawn again from its own (child) seed
        batch = sampler.sample_joint(v, args.chi, args.n, est.batch_chi.seed, keep_samples=True)
        row_fmt = f"{_FMT},{_FMT},%d,%d\n"
        text = ["x_A,x_B,sign_A,sign_B\n"]
        # a block of rows at a time, so the rows' Python objects never all exist at once
        for xy in np.split(batch.samples, range(_DUMP_ROWS, args.n, _DUMP_ROWS)):
            cols = (*xy.T.tolist(), *np.where(xy >= 0, 1, -1).T.tolist())
            text.append("".join(map(row_fmt.__mod__, zip(*cols))))
        _emit("".join(text), args.dump_xy)


def cmd_optimize(args) -> None:
    if args.angle != (args.state is not None):
        raise ValueError("--angle and --state (the state whose chi it optimizes) go together")
    used = () if args.angle else ("family", "chi") if args.family else ("n", "chi")
    unused = [f"--{f}" for f in ("n", "chi", "family")
              if f not in used and getattr(args, f) is not None]
    if unused:
        where = ("--angle" if args.angle else f"--family {args.family}" if args.family
                 else "the coefficient search")
        raise ValueError(f"{where} takes no {', '.join(unused)}")
    chi = np.pi / 4 if args.chi is None else args.chi
    if args.angle:
        v = read_state_file(args.state)
        chi_star, val = optimizer.optimize_angle(v, objective=args.objective)
        _emit(_csv(["chi_star", args.objective.upper()], [(chi_star, val)]), args.out)
    elif args.family:
        p_star, val = optimizer.optimize_family_parameter(args.family, chi,
                                                          objective=args.objective)
        _emit(_csv(["parameter", args.objective.upper()], [(p_star, val)]), args.out)
    else:
        vec, val, _ = optimizer.optimize_coefficients(10 if args.n is None else args.n, chi,
                                                      objective=args.objective)
        sys.stderr.write(f"best {args.objective.upper()} = {val:.9f}\n")
        _emit(state_file_text(vec), args.out)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="homodyne-bell",
        description="Correlated photon-number state preparation and homodyne Bell tests.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="output file (default: stdout)")

    p = sub.add_parser("state", help="emit a catalog state file")
    common(p)
    p.add_argument("--cutoff", type=int, default=None)
    p.add_argument("--format", choices=("json", "csv"), default=None, help="default: json")
    p.add_argument("--family", default=None, type=catalog.family_name,
                   choices=catalog.FAMILIES, help="default: tmss")
    p.add_argument("--lambda", type=float, default=None)
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--xi", type=float, default=None)
    p.add_argument("--file", default=None, help="state file for --family custom")
    p.add_argument("--compare", action="store_true",
                   help="emit the five-family coefficient comparison CSV")
    p.set_defaults(fn=cmd_state)

    p = sub.add_parser("pipeline", help="run the conditional preparation")
    common(p)
    p.add_argument("--cutoff", type=int, default=None)
    p.add_argument("--xi", type=float, required=True)
    p.add_argument("--iters", type=int, default=3)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--subtraction", choices=("exact", "beamsplitter"), default="exact")
    p.add_argument("--bs-r", type=float, default=None,
                   help="splitter reflectivity for --subtraction beamsplitter")
    p.add_argument("--chi", type=float, default=np.pi / 4)
    p.add_argument("--verify-stage1", action="store_true")
    p.set_defaults(fn=cmd_pipeline)

    p = sub.add_parser("bell", help="evaluate the Bell functionals on a state file")
    common(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--state", required=True)
    p.add_argument("--chi", type=float, default=np.pi / 4)
    p.set_defaults(fn=cmd_bell)

    p = sub.add_parser("scan", help="sweep a family parameter or iteration count")
    common(p)
    p.add_argument("--cutoff", type=int, default=None)
    p.add_argument("--family", default="circle", type=catalog.family_name,
                   choices=catalog.FAMILIES)
    p.add_argument("--param", default="r",
                   choices=("lambda", "r", "xi", "chi", "iterations"))
    p.add_argument("--from", dest="frm", type=float, default=0.5)
    p.add_argument("--to", type=float, default=2.0)
    p.add_argument("--steps", type=int, default=61)
    p.add_argument("--metric", choices=("chsh", "ch"), default="chsh")
    p.add_argument("--chi", type=float, default=np.pi / 4)
    p.add_argument("--xi", type=float, default=1.0 / np.sqrt(2.0))
    p.add_argument("--value", type=float, default=None,
                   help="family parameter when sweeping chi")
    p.set_defaults(fn=cmd_scan)

    p = sub.add_parser("sample", help="Monte Carlo homodyne estimate of B")
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--state", required=True)
    p.add_argument("--chi", type=float, default=np.pi / 4)
    p.add_argument("--n", type=int, default=10 ** 5)
    p.add_argument("--dump-xy", default=None,
                   help="also write raw (x_A, x_B, sign_A, sign_B) CSV to this path")
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("optimize", help="maximize a Bell functional")
    common(p)
    p.add_argument("--objective", choices=("chsh", "ch"), default="chsh")
    p.add_argument("--n", type=int, default=None, help="coefficient cutoff N (default 10)")
    p.add_argument("--chi", type=float, default=None, help="default: pi/4")
    p.add_argument("--seed", type=int, default=0, help="ignored: the optimum is exact")
    p.add_argument("--family", default=None,
                   help="optimize a family parameter instead of raw coefficients")
    p.add_argument("--angle", action="store_true", help="optimize chi for --state")
    p.add_argument("--state", default=None)
    p.set_defaults(fn=cmd_optimize)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.fn(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
