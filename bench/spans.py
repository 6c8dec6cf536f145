"""Spans around the calls into each `homodyne_bell` module, made from outside.

`Tracer.install` replaces every public module-level function of the layer
modules with a wrapper that records a span (name, start, end, parent) and,
for a few boundaries, a count: pairs drawn by `sample_joint`, the
`nonnegative` flag of `optimize_coefficients`, and `nfev` from each scipy
`minimize` result inside the optimizer.  The wrapper is put in place of the
function in every module namespace that binds it, so calls between modules
are traced too.  `uninstall` restores the originals.  No file of the program
changes.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from dataclasses import dataclass, field

LAYERS = ("bell", "catalog", "fock_core", "linear_optics", "pipeline", "optimizer", "sampler")
BELL_EVALS = ("bell.chsh_B", "bell.ch_S", "bell.p_plus_plus")
CATALOG_BUILDS = ("catalog.tmss", "catalog.circle", "catalog.ps_tmss", "catalog.seed")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int            # index of the enclosing span, -1 at top level
    note: object = None    # count or flag recorded at this boundary

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    warm_keys: set = field(default_factory=set)   # (coeff bytes, chi) with sampler tables built
    _stack: list = field(default_factory=list)
    _patched: list = field(default_factory=list)

    def wrap(self, name: str, fn, note=None):
        """`note(args, kwargs, out)` gives the count recorded with the span."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = Span(name, start, end, parent)
            if note is not None:
                self.spans[idx].note = note(args, kwargs, out)
            return out
        return traced

    def install(self, package) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == package.__name__ or key.startswith(package.__name__ + ".")]
        notes = {"sampler.sample_joint": self._note_draw,
                 "optimizer.optimize_coefficients": _note_nonnegative}
        for layer in LAYERS:
            mod = getattr(package, layer)
            for attr, fn in vars(mod).copy().items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                self._replace(modules, fn, self.wrap(name, fn, notes.get(name)))
        minimize = package.optimizer.minimize
        self._replace([package.optimizer], minimize,
                      self.wrap("optimizer.minimize", minimize, _note_nfev))

    def _replace(self, modules, fn, wrapper) -> None:
        for mod in modules:
            for attr, val in vars(mod).copy().items():
                if val is fn:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def mark_warm(self, coeffs, chis) -> None:
        for chi in chis:
            self.warm_keys.add((coeffs.tobytes(), float(chi)))

    def _note_draw(self, args, kwargs, out):
        """(pairs drawn, whether the sampler tables for this (state, chi) were
        built before the call)."""
        v, chi = args[0], args[1]
        key = (v.coeffs.tobytes(), float(chi))
        warm = key in self.warm_keys
        self.warm_keys.add(key)
        return out.n_samples, warm

    # --- reading the spans -------------------------------------------------

    def named(self, name: str) -> list:
        return [s for s in self.spans if s.name == name]

    def outermost(self, names) -> list:
        """Spans of `names` not nested inside another span of `names`."""
        names = set(names)
        out = []
        for s in self.spans:
            if s.name not in names:
                continue
            p = s.parent
            while p >= 0 and self.spans[p].name not in names:
                p = self.spans[p].parent
            if p < 0:
                out.append(s)
        return out

    def self_times(self) -> dict:
        """Per span name: calls, total inclusive seconds and total self seconds."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.duration
        table = {}
        for s, c in zip(self.spans, child):
            row = table.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += s.duration
            row["self_s"] += s.duration - c
        return table


def _note_nonnegative(args, kwargs, out):
    return bool(kwargs.get("nonnegative", args[5] if len(args) > 5 else False))


def _note_nfev(args, kwargs, out):
    return int(out.nfev)


def median_ms(spans) -> float:
    return 1e3 * statistics.median(s.duration for s in spans)


def layer_metrics(t: Tracer, probe: dict, cli_ops: list, overhead_s: float) -> dict:
    """The per-layer metrics of one traced run (workload plus probe)."""
    draws = t.named("sampler.sample_joint")
    warm = [s for s in draws if s.note[1]]
    coeff = t.named("optimizer.optimize_coefficients")
    lbfgs = t.named("optimizer.minimize")
    evals = t.outermost(BELL_EVALS)
    builds = [s for s in t.spans if s.name in CATALOG_BUILDS]
    m = {
        "sampler.plan_s": probe["plan_s"],
        "sampler.plan_mb": probe["plan_mb"],
        "sampler.draw_s_per_mpair":
            1e6 * sum(s.duration for s in warm) / sum(s.note[0] for s in warm),
        "sampler.pairs": sum(s.note[0] for s in draws),
        "bell.eval_us": 1e3 * median_ms(evals),
        "bell.evals": len(evals),
        "bell.oracle_ms": median_ms(t.named("bell.p_plus_plus_quadrature_oracle")),
        "bell.overlap_ms": probe["overlap_ms"],
        "pipeline.run_ms": median_ms(t.named("pipeline.run_pipeline")),
        "pipeline.gaussify_ms": median_ms(t.named("pipeline.gaussify_step")),
        "pipeline.stage1_ms": median_ms(t.named("pipeline.stage1_verify")),
        "pipeline.runs": len(t.named("pipeline.run_pipeline")),
        "optimizer.coeff_ms": median_ms([s for s in coeff if not s.note]),
        "optimizer.coeff_nonneg_ms": median_ms([s for s in coeff if s.note]),
        "optimizer.family_ms": median_ms(t.named("optimizer.optimize_family_parameter")),
        "optimizer.angle_ms": median_ms(t.named("optimizer.optimize_angle")),
        "optimizer.lbfgs_calls": len(lbfgs),
        "optimizer.lbfgs_nfev": sum(s.note for s in lbfgs),
        "catalog.build_us": 1e3 * median_ms(builds),
        "catalog.builds": len(builds),
        "linear_optics.four_mode_ms":
            median_ms(t.named("linear_optics.apply_bs_pair_on_four_modes")),
        "linear_optics.condition_ms": median_ms(t.named("linear_optics.condition_on_outcome")),
        "fock_core.trace_distance_ms":
            median_ms(t.named("fock_core.trace_distance_pure_vs_ensemble")),
        "cli.import_s": probe["import_s"],
        "trace.overhead_s": overhead_s,
    }
    by_name = {}
    for op in cli_ops:
        by_name.setdefault(op.name, []).append(op.seconds)
    for name, secs in by_name.items():
        m[f"cli.{name}_s"] = statistics.median(secs)
    return m
