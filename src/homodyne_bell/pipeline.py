"""The three-stage conditional source preparation.

Stage 1 mixes two weakly squeezed pairs on unbalanced beam splitters and
heralds on both on/off detectors firing, leaving (for small squeezing) a state
close to |0,0> + xi |1,1>.  Stage 2 iterates the vacuum-heralded 50:50
combination of two state copies, whose coefficient recursion is

    c'_n = 2^(-n) sum_r C(n, r) c_r c_(n-r) = (n! / 2^n) sum_r (c_r / r!) (c_(n-r) / (n-r)!),

a map with geometric sequences as fixed points (three iterations is the
operating point; more Gaussifies the nonlocality away): F(z) = sum c_n z^n / n!
goes to F(z/2)^2 (Browne, Eisert, Scheel and Plenio, PRA 67, 062320 (2003)), one
convolution.  Stage 3 subtracts one photon from each mode.  `run_pipeline` runs
this protocol, with its heralding probabilities, by the coefficient recursion from
the ideal two-term seed; the four-mode operator simulation verifies stage 1 and the
recursion.  The state it distils is the closed-form row `catalog.pipelined`, which
searches and scans read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial

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

STAGE1_CUTOFF = 4       # photons kept per mode in the stage-1 simulation


@lru_cache(maxsize=32)
def _gaussify_scales(size: int):
    """Read-only (q, s), q_r = t^r / r! (r < size) and s_n = n! / (2t)^n (n < 2 size - 1), so
    c'_n = s_n sum_r (q c)_r (q c)_(n-r); each a rounded exact ratio.  The power of two t in
    (3 size / 16, 3 size / 8] keeps both normal and scales exactly (the result of t = 1); cached."""
    if size > 512:                                  # where q and s leave the normal range
        raise ValueError(f"Gaussification keeps at most 512 levels, not {size}")
    t = 2 ** max(0, (3 * size // 8).bit_length() - 1)
    q = np.array([t ** r / factorial(r) for r in range(size)])
    s = np.array([factorial(n) / (2 * t) ** n for n in range(2 * size - 1)])
    for a in (q, s):
        a.setflags(write=False)
    return q, s


def _gaussified(c: np.ndarray) -> np.ndarray:
    """The recursion output over the doubled support, 2 len(c) - 1 entries."""
    q, s = _gaussify_scales(c.size)
    qc = q * c
    return np.convolve(qc, qc) * s


def gaussify_coefficients(c: np.ndarray) -> np.ndarray:
    """One un-normalized recursion step on raw coefficients (same length out).

    Exact for inputs whose support fits the array: entry n only reads c_0..c_n.
    """
    c = np.asarray(c, dtype=float)
    return _gaussified(c)[:c.size]


def gaussify_step(v: CoefficientVector):
    """One heralded combination step on a normalized state.

    Returns (normalized output, success probability), the probability being
    the squared norm of the un-normalized recursion output, i.e. the chance
    of the double-vacuum herald.  The convolution doubles the support; the
    output is re-truncated to the input cutoff after the norm is taken.
    """
    if not v.normalized:
        raise ValueError("gaussify_step expects a normalized input state")
    out = _gaussified(v.coeffs)
    success = float(np.dot(out, out))
    return normalize(out[:v.coeffs.size], v.provenance), success


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
    """Heralded ensemble, its distance to the ideal seed, and both losses to STAGE1_CUTOFF:
    splitters' max(0, 1 - |mixed|^2) and the input pairs' 1 - (1 - lambda^(2 cutoff + 2))^2."""

    ensemble: ConditionalEnsemble
    trace_distance: float
    success_probability: float
    transmissivity: float
    printed_transmissivity: float
    truncated_mass: float
    input_dropped_mass: float


def stage1_verify(xi: float, lam: float) -> Stage1Report:
    """Full four-mode simulation of the heralded seed preparation.

    Two squeezed pairs, each kept to STAGE1_CUTOFF photons per mode, are shared
    crosswise (pair 1 on modes a,d; pair 2 on c,b) so each splitter U_ac, U_bd
    mixes one mode of each pair; both second-port detectors (c, d) must click.
    Both splitters carry R = -sqrt(1 - T^2), the phase at which the heralded
    two-photon amplitude is +xi, with T from the calibrated solve.  Returns the
    branch ensemble on (a, b), its trace distance to seed(xi), the heralding
    probability and both losses to the cutoff (Stage1Report).  Raises ValueError
    where the splitters leak more norm past the cutoff than conditioning admits
    (from lambda of about 0.275), quoting the loss.
    """
    pair = np.diag(tmss(lam, STAGE1_CUTOFF).coeffs)       # amps[m, n, n, m] = c_m c_n
    tail = lam ** (2 * STAGE1_CUTOFF + 2)                 # norm each pair drops at the cutoff
    tensor = FourModeTensor(pair[:, None, None, :] * pair.T[None, :, :, None])
    t_used = stage1_transmissivity(xi, lam)
    mixed = apply_bs_pair_on_four_modes(BeamSplitter.from_transmissivity(t_used, -1), tensor)
    lost = 1.0 - mixed.norm_squared()
    if abs(lost) > NORM_GATE:
        raise ValueError(f"stage 1 at lambda={lam:g} leaks {lost:.3e} of the norm past cutoff "
                         f"{STAGE1_CUTOFF}; use a smaller lambda")
    ensemble = condition_on_outcome(mixed)
    target = seed(xi, STAGE1_CUTOFF)
    dist = trace_distance_pure_vs_ensemble(target, ensemble)
    return Stage1Report(
        ensemble=ensemble,
        trace_distance=dist,
        success_probability=ensemble.success_probability,
        transmissivity=t_used,
        printed_transmissivity=seed_transmissivity(xi, lam),
        truncated_mass=max(0.0, lost),
        input_dropped_mass=tail * (2.0 - tail),           # 1 - (1 - tail)^2, uncancelled
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
    steps, state = [], start
    for _ in range(cfg.iterations):
        state, p = gaussify_step(state)
        steps.append((state, p))
    if cfg.subtraction == "exact":
        final, p_sub = photon_subtract_exact(state), None
    else:
        final, p_sub = photon_subtract_beamsplitter(state, cfg.subtraction_reflectivity)
    return PipelineReport(
        config=cfg,
        seed_state=start,
        stage_states=tuple(s for s, _ in steps),
        gaussify_probabilities=tuple(p for _, p in steps),
        final_state=CoefficientVector(final.coeffs, normalized=True, provenance=(
            f"pipeline(xi={cfg.xi:g}, iters={cfg.iterations})")),
        subtraction_probability=p_sub,
        stage1=None if cfg.lam is None else stage1_verify(cfg.xi, cfg.lam),
        truncation_warnings=tuple(
            f"iteration {i}: tail mass {s.tail_mass:.3e} above tolerance"
            for i, (s, _) in enumerate(steps, 1) if s.tail_mass > TAIL_TOL),
    )


def overgaussification_scan(xi: float, max_iterations: int, chi: float = np.pi / 4,
                            cutoff: int = WORKING_CUTOFF, metric=bell.chsh_B) -> list:
    """Bell value (CHSH by default) of the distilled state for each iteration count 0..max."""
    if max_iterations < 4:
        raise ValueError("scan should extend past the operating point; use >= 4")
    return [(i, metric(pipelined(xi, cutoff, i), chi)) for i in range(max_iterations + 1)]
