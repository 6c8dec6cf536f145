"""Beam-splitter action in the Fock basis, on/off conditioning, photon subtraction.

The beam splitter follows the ordered-exponential convention

    U = T^(a+ a) exp(-R* b+ a) exp(R b a+) T^(-b+ b),        |T|^2 + |R|^2 = 1,

which fixes every sign below; a brute-force matrix-exponential oracle in the
test suite pins the convention.  Expanding the adjoint action U a+ U* = T a+
- R* b+, U b+ U* = R a+ + T* b+ binomially gives the photon-number matrix
element as a finite sum with only nonnegative powers of T and R, evaluated
with log-factorial accumulation so indices up to 64 neither overflow nor lose
precision to the naive T^(j-n) form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import lgamma

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

    @classmethod
    def balanced(cls) -> "BeamSplitter":
        """The 50:50 splitter T = R = 1/sqrt(2)."""
        s = 1.0 / np.sqrt(2.0)
        return cls(s, s)

    @classmethod
    def identity(cls) -> "BeamSplitter":
        return cls(1.0, 0.0)


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
        return range(self.count, self.count + 1)


def bs_matrix_element(bs: BeamSplitter, j: int, k: int, m: int, n: int) -> complex:
    """Matrix element <j,k|U|m,n> of the ordered-exponential beam splitter.

    Zero unless j + k = m + n (photon conservation).  The sum runs over the
    number of photons transmitted from the first input:

        sqrt(j! k! / (m! n!)) * sum_a C(m,a) C(n,j-a)
            * T^a (-R*)^(m-a) R^(j-a) (T*)^(n-j+a)
    """
    if min(j, k, m, n) < 0:
        raise ValueError("photon-number indices must be nonnegative")
    if j + k != m + n:
        return 0.0 + 0.0j
    T, R = complex(bs.T), complex(bs.R)
    pref = 0.5 * (lgamma(j + 1) + lgamma(k + 1) - lgamma(m + 1) - lgamma(n + 1))
    total = 0.0 + 0.0j
    for a in range(max(0, j - n), min(m, j) + 1):
        logmag = (pref
                  + lgamma(m + 1) - lgamma(a + 1) - lgamma(m - a + 1)
                  + lgamma(n + 1) - lgamma(j - a + 1) - lgamma(n - j + a + 1))
        total += (np.exp(logmag) * T ** a * (-np.conj(R)) ** (m - a)
                  * R ** (j - a) * np.conj(T) ** (n - j + a))
    return complex(total)


@lru_cache(maxsize=64)
def _unitary_table(T: complex, R: complex, cut_a: int, cut_b: int) -> np.ndarray:
    """Dense W[j,k,m,n] on a (cut_a+1) x (cut_b+1) two-mode space (read-only)."""
    bs = BeamSplitter(T, R)
    da, db = cut_a + 1, cut_b + 1
    W = np.zeros((da, db, da, db), dtype=complex)
    for m in range(da):
        for n in range(db):
            s = m + n
            for j in range(max(0, s - (db - 1)), min(da - 1, s) + 1):
                W[j, s - j, m, n] = bs_matrix_element(bs, j, s - j, m, n)
    W.setflags(write=False)
    return W


def apply_bs_two_mode(bs: BeamSplitter, s: TwoModeAmplitudeMatrix) -> TwoModeAmplitudeMatrix:
    """Mix the two modes of a dense amplitude matrix.

    Amplitudes landing above the stored cutoffs are lost; if the input holds
    more than the tail tolerance in its top levels, the result carries a
    truncation note.
    """
    cut_a, cut_b = s.cutoffs
    W = _unitary_table(complex(bs.T), complex(bs.R), cut_a, cut_b)
    out = np.einsum("jkmn,mn->jk", W, s.amps.astype(complex))
    notes = s.notes
    top = float(np.sum(np.abs(s.amps[-1, :]) ** 2) + np.sum(np.abs(s.amps[:-1, -1]) ** 2))
    if top > TAIL_TOL:
        notes = notes + (f"truncation: top-level input mass {top:.3e} exceeds {TAIL_TOL:g}",)
    if not np.iscomplexobj(s.amps) and np.allclose(out.imag, 0.0, atol=1e-300):
        out = out.real
    return TwoModeAmplitudeMatrix(out, notes=notes)


_MODE_AXES = {"a": 0, "b": 1, "c": 2, "d": 3}


def apply_bs_pair_on_four_modes(bs: BeamSplitter, t: FourModeTensor,
                                pairing: tuple = ("ac", "bd")) -> FourModeTensor:
    """Apply one splitter to each mode pair of a four-mode tensor.

    `pairing` names two disjoint mode pairs, default ("ac", "bd"): the first
    named mode of each pair enters the splitter's first port.
    """
    if sorted("".join(pairing)) != ["a", "b", "c", "d"]:
        raise ValueError(f"pairing {pairing!r} must cover modes a,b,c,d exactly once")
    amps = t.amps.astype(complex)
    notes = t.notes
    for pair in pairing:
        ax1, ax2 = _MODE_AXES[pair[0]], _MODE_AXES[pair[1]]
        moved = np.moveaxis(amps, (ax1, ax2), (0, 1))
        cut_a, cut_b = moved.shape[0] - 1, moved.shape[1] - 1
        W = _unitary_table(complex(bs.T), complex(bs.R), cut_a, cut_b)
        top = (np.sum(np.abs(moved[-1, ...]) ** 2)
               + np.sum(np.abs(moved[:-1, -1, ...]) ** 2))
        if top > TAIL_TOL:
            notes = notes + (f"truncation: pair {pair} top-level mass {top:.3e}",)
        moved = np.einsum("jkmn,mn...->jk...", W, moved)
        amps = np.moveaxis(moved, (0, 1), (ax1, ax2))
    return FourModeTensor(amps, notes=notes)


def condition_on_outcome(t: FourModeTensor, modes: tuple = ("c", "d"),
                         outcomes: tuple = (DetectorOutcome.click(), DetectorOutcome.click()),
                         ) -> ConditionalEnsemble:
    """Project two modes of a normalized four-mode state on detector outcomes.

    A click outcome contributes one branch per photon count k >= 1, weighted
    by the branch probability; vacuum and exact counts give a single count.
    The returned ensemble renormalizes weights and stores the total outcome
    probability.  Zero total probability raises ValueError.  The norm gate
    leaves room for documented truncation leakage, which shrinks the norm by
    the input's top-shell mass at worst.
    """
    if abs(t.norm_squared() - 1.0) > NORM_GATE:
        raise ValueError("conditioning expects a normalized four-mode state")
    if len(modes) != 2 or len(outcomes) != 2:
        raise ValueError("exactly two detected modes and outcomes are required")
    ax1, ax2 = (_MODE_AXES[m] for m in modes)
    moved = np.moveaxis(t.amps, (ax1, ax2), (2, 3))
    cut1, cut2 = moved.shape[2] - 1, moved.shape[3] - 1
    branches = []
    total = 0.0
    for k in outcomes[0].allowed_counts(cut1):
        for l in outcomes[1].allowed_counts(cut2):
            phi = moved[:, :, k, l]
            w = float(np.sum(np.abs(phi) ** 2))
            total += w
            if w > 0.0:
                branches.append((w, phi))
    if total <= 0.0:
        raise ValueError(
            f"conditioning on {tuple(o.kind for o in outcomes)} has zero probability"
        )
    ensemble = tuple(
        (w / total, TwoModeAmplitudeMatrix(phi / np.sqrt(w))) for w, phi in branches
    )
    return ConditionalEnsemble(ensemble, success_probability=total)


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
    bs = BeamSplitter.from_transmissivity(np.sqrt(1.0 - r * r))
    # Conditioning both ancillas on one photon keeps the |n,n> diagonal:
    # each mode contributes <n-1, 1|U|n, 0>, squared across the two modes.
    amp = np.array([
        c[n] * (bs_matrix_element(bs, n - 1, 1, n, 0) ** 2).real
        for n in range(1, c.size)
    ])
    success = float(np.sum(amp ** 2))
    if success <= 0.0:
        raise ValueError("subtraction conditioning has zero probability")
    return normalize(CoefficientVector(amp, provenance=v.provenance)), success
