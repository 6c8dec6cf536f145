"""Beam-splitter action in the Fock basis, on/off conditioning, photon subtraction.

The beam splitter follows the ordered-exponential convention

    U = T^(a+ a) exp(-R* b+ a) exp(R b a+) T^(-b+ b),        |T|^2 + |R|^2 = 1,

which fixes every sign below; a brute-force matrix-exponential oracle in the
test suite pins the convention.  U conserves total photon number, so it is
held as one unitary block per total N.  The adjoint action U a+ U* = T a+ -
R* b+, U b+ U* = R a+ + T* b+ builds block N from block N-1 with creation
operators: no cancelling alternating sum, and a 64-photon block unitary to
rounding.  A real splitter, as stage 1's are, keeps every array in float64.
The stage-1 herald mixes modes (a, c) and (b, d)
of a four-mode tensor and needs both on/off detectors, on c and d, to click;
the suite's Gaussification oracle mixes two copies at 50:50 and heralds on
vacuum in both.  Photon subtraction uses the closed-form single-photon element.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fock_core import (
    TAIL_TOL,
    CoefficientVector,
    ConditionalEnsemble,
    FourModeTensor,
    _normalized,
)

_UNITARITY_TOL = 1e-12
NORM_GATE = 1e-6        # largest |norm^2 - 1| a four-mode state may bring to conditioning


@dataclass(frozen=True)
class BeamSplitter:
    """Two-mode mixer with complex transmissivity T and reflectivity R."""

    T: complex
    R: complex

    def __post_init__(self):
        if abs(abs(self.T) ** 2 + abs(self.R) ** 2 - 1.0) > _UNITARITY_TOL:
            raise ValueError("|T|^2 + |R|^2 must equal 1")

    @classmethod
    def from_transmissivity(cls, t: float, reflection_sign: int = 1) -> "BeamSplitter":
        """Real splitter with |T| = t and R = sign * sqrt(1 - t^2)."""
        return cls(t, reflection_sign * np.sqrt(1.0 - t * t))


@lru_cache(maxsize=64)
def _blocks(T: complex, R: complex, n_max: int) -> np.ndarray:
    """Read-only blocks B[N, j, m] = <j, N-j|U|m, N-m> for j, m <= N <= n_max, 0 elsewhere.

    N |m,n> = sqrt(m) a+|m-1,n> + sqrt(n) b+|m,n-1> and U a+ = (T a+ - R* b+) U,
    U b+ = (R a+ + T* b+) U give block N from block N-1; the number-weighted average of
    the two routes is a map of norm <= 1, so rounding errors do not grow from block to
    block (the a+ route alone amplifies them by up to sqrt(C(N, m))).  It runs on
    P_N = B_N sqrt(m! (N-m)! / (j! (N-j)!)), where raising a row is a shift.
    """
    dtype = complex if np.iscomplexobj(T) or np.iscomplexobj(R) else float
    ramp, j = np.arange(n_max + 1.0), np.arange(n_max + 1)
    share = ramp / np.maximum(ramp, 1.0)[:, None]                 # share[N, m] = m / N
    mix = np.zeros((2, n_max + 1, n_max + 2), dtype)              # T a+ - R* b+, R a+ + T* b+
    mix[:, j, j], mix[:, j, j + 1] = [[T], [R]], [[-R.conjugate()], [T.conjugate()]]
    P = np.zeros((n_max + 1, n_max + 2, n_max + 1), dtype)        # P_N[j, m] at P[N, 1 + j, m]
    P[0, 1, 0] = 1.0
    for N in range(1, n_max + 1):
        a_route, b_route = mix[:, :N + 1, :N + 2] @ P[N - 1, :N + 2, :N]
        P[N, 1:N + 2, 1:N + 1] = a_route * share[N, 1:N + 1]
        P[N, 1:N + 2, :N] += b_route * share[N, N:0:-1]
    root = np.sqrt(np.cumprod(np.maximum(ramp, 1.0)))                       # sqrt(n!)
    norm = root * root[np.abs(np.subtract.outer(ramp, ramp)).astype(int)]   # sqrt(j! |N-j|!)
    B = P[:, 1:] * (norm[:, :, None] / norm[:, None, :])
    B.setflags(write=False)
    return B


@lru_cache(maxsize=64)
def _unitary_table(T: complex, R: complex, cut_a: int, cut_b: int) -> np.ndarray:
    """Dense read-only W[j,k,m,n] = <j,k|U|m,n> on a (cut_a+1) x (cut_b+1) two-mode space."""
    j, k, m, n = np.indices((cut_a + 1, cut_b + 1) * 2)
    W = np.where(j + k == m + n, _blocks(T, R, cut_a + cut_b)[j + k, j, m], 0.0)
    W.setflags(write=False)
    return W


def _mix(bs: BeamSplitter, amps: np.ndarray, notes: tuple):
    """Mix the first two axes of `amps`; returns (mixed amplitudes, notes)."""
    W = _unitary_table(bs.T, bs.R, amps.shape[0] - 1, amps.shape[1] - 1)
    top = float(np.vdot(amps[-1], amps[-1]).real + np.vdot(amps[:-1, -1], amps[:-1, -1]).real)
    if top > TAIL_TOL:
        notes = notes + (f"truncation: top-level input mass {top:.3e} exceeds {TAIL_TOL:g}",)
    pair = amps.shape[0] * amps.shape[1]
    return (W.reshape(pair, pair) @ amps.reshape(pair, -1)).reshape(amps.shape), notes


def apply_bs_pair_on_four_modes(bs: BeamSplitter, t: FourModeTensor) -> FourModeTensor:
    """Apply one splitter to modes (a, c) and one to modes (b, d) of a four-mode
    tensor, a and b entering the first ports.  Amplitudes landing above the cutoffs
    are lost: a pair with more than the tail tolerance in its top levels adds a
    truncation note, (a, c) first."""
    acbd, notes = _mix(bs, t.amps.transpose(0, 2, 1, 3), t.notes)
    bdac, notes = _mix(bs, acbd.transpose(2, 3, 0, 1), notes)
    return FourModeTensor(bdac.transpose(2, 0, 3, 1), notes=notes)


def condition_on_outcome(t: FourModeTensor,
                         outcomes: tuple = ("click", "click")) -> ConditionalEnsemble:
    """Project modes c and d of a normalized four-mode state on on/off detector
    outcomes, each "vacuum" (count 0) or "click" (one branch per count 1..cutoff).

    The ensemble on (a, b) keeps the branches of nonzero weight in count order,
    renormalizes their weights and stores the total outcome probability, summed
    in branch order: a small trace distance to the ensemble moves with its last
    bit.  An unknown outcome or zero total probability raises ValueError.  The
    norm gate admits documented truncation leakage, the input's top-shell mass
    at worst.
    """
    if abs(t.norm_squared() - 1.0) > NORM_GATE:
        raise ValueError("conditioning expects a normalized four-mode state")
    if len(outcomes) != 2 or any(o not in ("vacuum", "click") for o in outcomes):
        raise ValueError(f"outcomes {tuple(outcomes)} are not two of 'vacuum' and 'click'")
    k, l = (np.arange(1) if o == "vacuum" else np.arange(1, n)
            for o, n in zip(outcomes, t.amps.shape[2:]))
    phis = t.amps.transpose(2, 3, 0, 1)[k[:, None], l]    # phis[k, l] = amps[:, :, k, l]
    weights = (phis.conj() * phis).real.sum(axis=(2, 3))
    total = float(np.cumsum(weights)[-1]) if weights.size else 0.0
    if total <= 0.0:
        raise ValueError(f"conditioning on {tuple(outcomes)} has zero probability")
    kept = weights > 0.0
    w = weights[kept]
    return ConditionalEnsemble(w / total, phis[kept] / np.sqrt(w)[:, None, None],
                               success_probability=total)


def photon_subtract_exact(v: CoefficientVector) -> CoefficientVector:
    """Apply one annihilation operator per mode: c'_n proportional to (n+1) c_{n+1}.

    The cutoff drops by one and the result is normalized.  A vacuum-only input
    has nothing to subtract and raises ValueError.
    """
    c = v.coeffs
    if c.size < 2 or not c[1:].any():
        raise ValueError("photon subtraction needs support above n = 0")
    return _normalized(np.arange(1.0, c.size) * c[1:], v.provenance)


def photon_subtract_beamsplitter(v: CoefficientVector, r: float):
    """Physical subtraction: mix each mode with vacuum at reflectivity r and
    condition each ancilla on exactly one photon.

    Returns (conditional state, success probability).  The success probability
    scales as r^2 per mode (r^4 overall) to leading order; r >= 0.5 is outside
    the weak-reflection regime and raises ValueError.
    """
    if not 0.0 < r < 0.5:
        raise ValueError("reflectivity must lie in (0, 0.5)")
    c = v.coeffs
    if c.size < 2 or not np.any(c[1:]):
        raise ValueError("photon subtraction needs support above n = 0")
    # Conditioning both ancillas on one photon keeps the |n,n> diagonal: each
    # mode contributes <n-1, 1|U|n, 0> = -sqrt(n) t^(n-1) r for t^2 = 1 - r^2,
    # squared across the two modes.
    n = np.arange(1, c.size)
    amp = c[1:] * n * (1.0 - r * r) ** (n - 1) * (r * r)
    success = float(np.sum(amp ** 2))
    if success <= 0.0:
        raise ValueError("subtraction conditioning has zero probability")
    return _normalized(amp, v.provenance), success
