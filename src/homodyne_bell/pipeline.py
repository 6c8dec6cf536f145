"""The three-stage conditional source preparation.

Stage 1 mixes two weakly squeezed pairs on unbalanced beam splitters and
heralds on both on/off detectors firing, leaving (for small squeezing) a state
close to |0,0> + xi |1,1>.  Stage 2 iterates the vacuum-heralded 50:50
combination of two state copies, whose coefficient recursion is

    c'_n = 2^(-n) sum_r C(n, r) c_r c_(n-r),

a map with geometric sequences as fixed points (three iterations is the
operating point; more Gaussifies the nonlocality away).  Stage 3 subtracts one
photon from each mode.  `run_pipeline` runs this protocol, with its heralding
probabilities, by the coefficient recursion from the ideal two-term seed; the
four-mode operator simulation verifies stage 1 and the recursion.  The state it
distils is the closed-form row `catalog.pipelined`, which searches and scans read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import lgamma, log

import numpy as np

from . import bell
from .catalog import WORKING_CUTOFF, pipelined, seed, seed_transmissivity, tmss
from .fock_core import (
    TAIL_TOL,
    CoefficientVector,
    ConditionalEnsemble,
    FourModeTensor,
    normalize,
    trace_distance_pure_vs_ensemble,
)
from .linear_optics import (
    NORM_GATE,
    BeamSplitter,
    apply_bs_pair_on_four_modes,
    condition_on_outcome,
    photon_subtract_beamsplitter,
    photon_subtract_exact,
)


@lru_cache(maxsize=32)
def _gaussify_weights(size: int):
    """Read-only cached (w, d): c'_n = sum_r w[n, r] c[d[n, r]] c_r, w = 0 where r > n."""
    n = np.arange(size)
    logfact = np.array([lgamma(k + 1) for k in n])
    d = n[:, None] - n[None, :]                      # n - r; the sum runs over d >= 0
    valid = d >= 0
    d = np.where(valid, d, 0)
    logbin = logfact[:, None] - (logfact[None, :] + logfact[d])
    w = np.where(valid, np.exp(logbin - n[:, None] * log(2.0)), 0.0)
    for a in (w, d):
        a.setflags(write=False)
    return w, d


def gaussify_coefficients(c: np.ndarray) -> np.ndarray:
    """One un-normalized recursion step on raw coefficients (same length out).

    Exact for inputs whose support fits the array: entry n only reads c_0..c_n.
    """
    c = np.asarray(c, dtype=float)
    w, d = _gaussify_weights(c.size)
    return (w * c[d]) @ c


def gaussify_step(v: CoefficientVector):
    """One heralded combination step on a normalized state.

    Returns (normalized output, success probability), the probability being
    the squared norm of the un-normalized recursion output, i.e. the chance
    of the double-vacuum herald.  The convolution doubles the support, so the
    step runs on a doubled array before re-truncating to the input cutoff.
    """
    if not v.normalized:
        raise ValueError("gaussify_step expects a normalized input state")
    n_in = v.coeffs.size
    wide = np.zeros(2 * n_in - 1)
    wide[:n_in] = v.coeffs
    out = gaussify_coefficients(wide)
    success = float(np.dot(out, out))
    truncated = out[:n_in]
    result = normalize(CoefficientVector(truncated, provenance=v.provenance))
    return result, success


def stage1_transmissivity(xi: float, lam: float) -> float:
    """Beam-splitter transmissivity at which the double-click herald of two
    squeezed pairs reproduces the two-term target with ratio xi.

    The calibration is the root on (0, 1/sqrt2) of the gap equation
    2 T sqrt(1 - T^2) xi = lambda (8 T^4 - 8 T^2 + 1).  With T = cos(theta)
    the left side is xi sin(2 theta) and the right side lambda cos(4 theta)
    = lambda (1 - 2 s^2) for s = sin(2 theta), so 2 lambda s^2 + xi s - lambda
    = 0, whose positive root is the printed seed_transmissivity(xi, lambda):
    the paper prints sin(2 theta) of the splitter angle.  T < 1/sqrt2 puts
    2 theta in (pi/2, pi), hence T = sin(arcsin(s) / 2), close to s/2 for
    small lambda.
    """
    if lam <= 0.0:
        raise ValueError("stage-1 calibration needs lambda > 0")
    if xi <= 0.0:
        raise ValueError("stage-1 calibration needs xi > 0")
    return float(np.sin(0.5 * np.arcsin(seed_transmissivity(xi, lam))))


@dataclass(frozen=True)
class Stage1Report:
    """Heralded ensemble plus its distance to the ideal seed."""

    ensemble: ConditionalEnsemble
    trace_distance: float
    success_probability: float
    transmissivity: float
    printed_transmissivity: float


def stage1_verify(xi: float, lam: float, cutoff: int = 4) -> Stage1Report:
    """Full four-mode simulation of the heralded seed preparation.

    Two squeezed pairs are shared crosswise (pair 1 on modes a,d; pair 2 on
    c,b) so each splitter U_ac, U_bd mixes one mode of each pair; both
    second-port detectors (c, d) must click.  Both splitters carry
    R = -sqrt(1 - T^2), the phase at which the heralded two-photon amplitude
    is +xi, with T from the calibrated solve.  Returns the branch ensemble on
    (a, b), its trace distance to seed(xi), and the heralding probability.
    Raises ValueError where the splitters leak more norm past the cutoff than
    conditioning admits.
    """
    if cutoff < 4:
        raise ValueError("stage-1 verification needs cutoff >= 4")
    c = tmss(lam, cutoff).coeffs
    amps = np.zeros((cutoff + 1,) * 4)
    m, n = np.indices((cutoff + 1, cutoff + 1))
    amps[m, n, n, m] = np.outer(c, c)
    tensor = FourModeTensor(amps)
    t_used = stage1_transmissivity(xi, lam)
    mixed = apply_bs_pair_on_four_modes(BeamSplitter.from_transmissivity(t_used, -1), tensor)
    lost = 1.0 - mixed.norm_squared()
    if abs(lost) > NORM_GATE:
        raise ValueError(f"stage 1 at lambda={lam:g} leaks {lost:.3e} of the norm past cutoff "
                         f"{cutoff} ({'; '.join(mixed.notes)}); use a smaller lambda")
    ensemble = condition_on_outcome(mixed)
    target = seed(xi, cutoff)
    dist = trace_distance_pure_vs_ensemble(target, ensemble)
    return Stage1Report(
        ensemble=ensemble,
        trace_distance=dist,
        success_probability=ensemble.success_probability,
        transmissivity=t_used,
        printed_transmissivity=seed_transmissivity(xi, lam),
    )


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for one end-to-end source preparation."""

    xi: float
    lam: float | None = None          # set to verify stage 1 alongside
    iterations: int = 3
    cutoff: int = WORKING_CUTOFF
    subtraction: str = "exact"        # "exact" or "beamsplitter"
    subtraction_reflectivity: float = 0.01

    def __post_init__(self):
        if self.xi <= 0.0:
            raise ValueError("pipeline requires xi > 0")
        if self.iterations < 0:
            raise ValueError("iterations must be nonnegative")
        if self.lam is not None and not 0.0 < self.lam < 1.0:
            raise ValueError("lambda must lie in (0, 1) when given")
        if self.subtraction not in ("exact", "beamsplitter"):
            raise ValueError("subtraction must be 'exact' or 'beamsplitter'")


@dataclass(frozen=True)
class PipelineReport:
    """States and success probabilities for each pipeline stage."""

    config: PipelineConfig
    seed_state: CoefficientVector
    stage_states: tuple                # state after each combination step
    gaussify_probabilities: tuple
    final_state: CoefficientVector     # after photon subtraction
    subtraction_probability: float | None
    stage1: Stage1Report | None
    truncation_warnings: tuple


def run_pipeline(cfg: PipelineConfig) -> PipelineReport:
    """Seed -> iterated combination -> photon subtraction, with bookkeeping."""
    start = seed(cfg.xi, cfg.cutoff)
    warnings = ()
    states = []
    probs = []
    state = start
    for i in range(cfg.iterations):
        state, p = gaussify_step(state)
        if state.tail_mass > TAIL_TOL:
            warnings = warnings + (
                f"iteration {i + 1}: tail mass {state.tail_mass:.3e} above tolerance",
            )
        states.append(state)
        probs.append(p)
    if cfg.subtraction == "exact":
        final = photon_subtract_exact(state)
        p_sub = None
    else:
        final, p_sub = photon_subtract_beamsplitter(state, cfg.subtraction_reflectivity)
    final = CoefficientVector(final.coeffs, normalized=True,
                              provenance=f"pipeline(xi={cfg.xi:g}, iters={cfg.iterations})")
    stage1 = None
    if cfg.lam is not None:
        stage1 = stage1_verify(cfg.xi, cfg.lam)
    return PipelineReport(
        config=cfg,
        seed_state=start,
        stage_states=tuple(states),
        gaussify_probabilities=tuple(probs),
        final_state=final,
        subtraction_probability=p_sub,
        stage1=stage1,
        truncation_warnings=warnings,
    )


def overgaussification_scan(xi: float, max_iterations: int, chi: float = np.pi / 4,
                            cutoff: int = WORKING_CUTOFF, metric=bell.chsh_B) -> list:
    """Bell value (CHSH by default) of the distilled state for each iteration count 0..max."""
    if max_iterations < 4:
        raise ValueError("scan should extend past the operating point; use >= 4")
    return [(i, metric(pipelined(xi, cutoff, i), chi)) for i in range(max_iterations + 1)]
