"""Beam-splitter action in the Fock basis, on/off conditioning, photon subtraction.

The beam splitter follows the ordered-exponential convention

    U = T^(a+ a) exp(-R* b+ a) exp(R b a+) T^(-b+ b),        |T|^2 + |R|^2 = 1,

which fixes every sign below; a brute-force matrix-exponential oracle in the
test suite pins the convention.  U conserves total photon number, so it is
held as one unitary block per total N.  The adjoint action U a+ U* = T a+ -
R* b+, U b+ U* = R a+ + T* b+ builds block N from block N-1 with creation
operators: no factorials, no cancelling alternating sum, and a 64-photon
block unitary to rounding.  The stage-1 herald mixes modes (a, c) and (b, d)
of a four-mode tensor and detects c and d; photon subtraction uses the
closed-form single-photon element.
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
    TwoModeAmplitudeMatrix,
    normalize,
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


@dataclass(frozen=True)
class DetectorOutcome:
    """On/off detector result: vacuum, click (any photons), or an exact count."""

    kind: str
    count: int | None = None

    _KINDS = ("vacuum", "click", "exact")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown outcome kind {self.kind!r}")
        if self.kind == "exact":
            if self.count is None or self.count < 0:
                raise ValueError("exact-count outcome requires count >= 0")
        elif self.count is not None:
            raise ValueError(f"{self.kind!r} outcome takes no count")

    @classmethod
    def vacuum(cls) -> "DetectorOutcome":
        return cls("vacuum")

    @classmethod
    def click(cls) -> "DetectorOutcome":
        return cls("click")

    @classmethod
    def exact_count(cls, k: int) -> "DetectorOutcome":
        return cls("exact", k)

    def allowed_counts(self, cutoff: int) -> range:
        if self.kind == "vacuum":
            return range(0, 1)
        if self.kind == "click":
            return range(1, cutoff + 1)
        return range(self.count, min(self.count, cutoff) + 1)      # empty above the cutoff


def bs_matrix_element(bs: BeamSplitter, j: int, k: int, m: int, n: int) -> complex:
    """Matrix element <j,k|U|m,n> of the ordered-exponential beam splitter.

    Zero unless j + k = m + n (photon conservation); otherwise entry [j, m] of
    the block on total photon number m + n.
    """
    if min(j, k, m, n) < 0:
        raise ValueError("photon-number indices must be nonnegative")
    if j + k != m + n:
        return 0.0 + 0.0j
    return complex(_blocks(complex(bs.T), complex(bs.R), m + n)[m + n][j, m])


@lru_cache(maxsize=64)
def _blocks(T: complex, R: complex, n_max: int) -> tuple:
    """Read-only blocks B[N][j, m] = <j, N-j|U|m, N-m> for N = 0..n_max.

    Block N follows from block N-1 through N |m,n> = sqrt(m) a+|m-1,n> +
    sqrt(n) b+|m,n-1> and U a+ = (T a+ - R* b+) U, U b+ = (R a+ + T* b+) U.
    Either term alone gives column m; their number-weighted average is a map
    of norm <= 1, so rounding errors do not grow from block to block (the
    a+ route alone amplifies them by up to sqrt(C(N, m))).
    """
    root = np.sqrt(np.arange(n_max + 1.0))
    raised_a, raised_b = np.zeros((2, n_max + 1, n_max), dtype=complex)   # a+, b+ on prev's columns
    blocks = [np.ones((1, 1), dtype=complex)]
    for N in range(1, n_max + 1):
        up, down = root[1:N + 1], root[N:0:-1]                 # sqrt(m + 1), sqrt(N - m)
        a, b = raised_a[:N + 1, :N], raised_b[:N + 1, :N]      # rows 0 of a and N of b stay 0
        a[1:], b[:-1] = up[:, None] * blocks[-1], down[:, None] * blocks[-1]
        block = np.zeros((N + 1, N + 1), dtype=complex)
        block[:, 1:] = (T * a - R.conjugate() * b) * up
        block[:, :-1] += (R * a + T.conjugate() * b) * down
        blocks.append(block / N)
    for block in blocks:
        block.setflags(write=False)
    return tuple(blocks)


@lru_cache(maxsize=64)
def _table_index(cut_a: int, cut_b: int) -> np.ndarray:
    """Read-only index of each W[j, k, m, n] into the concatenated blocks: entry [j, m] of
    B[j + k] where j + k = m + n, else the zero that follows the blocks; cached."""
    j, k, m, n = np.indices((cut_a + 1, cut_b + 1) * 2)
    N, end = j + k, cut_a + cut_b + 1               # B[N] follows N^2 + ... + 1^2 entries
    index = np.where(N == m + n, N * (N + 1) * (2 * N + 1) // 6 + j * (N + 1) + m,
                     end * (end + 1) * (2 * end + 1) // 6)
    index.setflags(write=False)
    return index


@lru_cache(maxsize=64)
def _unitary_table(T: complex, R: complex, cut_a: int, cut_b: int) -> np.ndarray:
    """Dense W[j,k,m,n] on a (cut_a+1) x (cut_b+1) two-mode space (read-only)."""
    flat = np.concatenate([b.ravel() for b in _blocks(T, R, cut_a + cut_b)] + [[0.0]])
    W = flat[_table_index(cut_a, cut_b)]
    W.setflags(write=False)
    return W


def _mix(bs: BeamSplitter, amps: np.ndarray, notes: tuple):
    """Mix the first two axes of `amps`; returns (mixed amplitudes, notes)."""
    W = _unitary_table(complex(bs.T), complex(bs.R), amps.shape[0] - 1, amps.shape[1] - 1)
    top = float(np.sum(np.abs(amps[-1]) ** 2) + np.sum(np.abs(amps[:-1, -1]) ** 2))
    if top > TAIL_TOL:
        notes = notes + (f"truncation: top-level input mass {top:.3e} exceeds {TAIL_TOL:g}",)
    pair = amps.shape[0] * amps.shape[1]
    return (W.reshape(pair, pair) @ amps.reshape(pair, -1)).reshape(amps.shape), notes


def apply_bs_two_mode(bs: BeamSplitter, s: TwoModeAmplitudeMatrix) -> TwoModeAmplitudeMatrix:
    """Mix the two modes of a dense amplitude matrix.

    Amplitudes landing above the stored cutoffs are lost; if the input holds
    more than the tail tolerance in its top levels, the result carries a
    truncation note.
    """
    out, notes = _mix(bs, s.amps, s.notes)
    if not np.iscomplexobj(s.amps) and np.allclose(out.imag, 0.0, atol=1e-300):
        out = out.real
    return TwoModeAmplitudeMatrix(out, notes=notes)


def apply_bs_pair_on_four_modes(bs: BeamSplitter, t: FourModeTensor) -> FourModeTensor:
    """Apply one splitter to modes (a, c) and one to modes (b, d) of a four-mode
    tensor, a and b entering the first ports.  Truncation is noted per pair,
    (a, c) first, as in `apply_bs_two_mode`.
    """
    acbd, notes = _mix(bs, t.amps.transpose(0, 2, 1, 3), t.notes)
    bdac, notes = _mix(bs, acbd.transpose(2, 3, 0, 1), notes)
    return FourModeTensor(bdac.transpose(2, 0, 3, 1), notes=notes)


def condition_on_outcome(t: FourModeTensor,
                         outcomes: tuple = (DetectorOutcome.click(), DetectorOutcome.click()),
                         ) -> ConditionalEnsemble:
    """Project modes c and d of a normalized four-mode state on detector outcomes.

    A click outcome contributes one branch per photon count k >= 1, weighted
    by the branch probability; vacuum and exact counts give a single count.
    The ensemble on (a, b) keeps the branches of nonzero weight in count order,
    renormalizes their weights and stores the total outcome probability, summed
    in branch order: a small trace distance to the ensemble moves with its last
    bit.  Zero total probability raises ValueError.  The norm gate admits
    documented truncation leakage, the input's top-shell mass at worst.
    """
    if abs(t.norm_squared() - 1.0) > NORM_GATE:
        raise ValueError("conditioning expects a normalized four-mode state")
    if len(outcomes) != 2:
        raise ValueError("exactly two detector outcomes (modes c, d) are required")
    k, l = (np.fromiter(o.allowed_counts(n - 1), int) for o, n in zip(outcomes, t.amps.shape[2:]))
    phis = t.amps.transpose(2, 3, 0, 1)[k[:, None], l]    # phis[k, l] = amps[:, :, k, l]
    weights = np.sum(np.abs(phis) ** 2, axis=(2, 3))
    total = float(np.cumsum(weights)[-1]) if weights.size else 0.0
    if total <= 0.0:
        raise ValueError(
            f"conditioning on {tuple(o.kind for o in outcomes)} has zero probability"
        )
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
    if c.size < 2 or not np.any(c[1:]):
        raise ValueError("photon subtraction needs support above n = 0")
    shifted = np.arange(1, c.size) * c[1:]
    return normalize(CoefficientVector(shifted, provenance=v.provenance))


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
    return normalize(CoefficientVector(amp, provenance=v.provenance)), success
