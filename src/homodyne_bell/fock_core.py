"""Truncated Fock-space state containers and metrics.

A two-mode state correlated in photon number, sum_n c_n |n,n>, is stored as a
CoefficientVector holding the real amplitudes c_0..c_N; its `tail_mass` is c_N^2,
the top kept level, read against TAIL_TOL to judge a truncation at N.  Beam-splitter
action breaks the |n,n> correlation mid-computation, so the four-mode heralding
simulations keep a dense rank-4 FourModeTensor, whose squared norm falls short
of 1 by what the splitters pushed past its cutoffs.  Conditioning on on/off
detectors produces a ConditionalEnsemble: a weight array, the stack of
post-measurement two-mode pure states it weighs, and the total success
probability.

All containers are immutable after construction; arrays are stored with the
write flag cleared so values can be shared freely between workers.  One
overflow-safe norm (math.hypot) checks a CoefficientVector's entries and norm;
`normalize` is the one normalizer.  `json_text` writes state files (`state_document`)
and every JSON document of the CLI, each float as its shortest exact repr.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

NORM_TOL = 1e-10
TAIL_TOL = 1e-12


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, copy=True)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class CoefficientVector:
    """Real amplitudes c_0..c_N of a photon-number-correlated two-mode state."""

    coeffs: np.ndarray
    normalized: bool = False
    provenance: str = ""

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=float)        # a private copy
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficient vector must be a non-empty 1-D sequence")
        norm = math.hypot(*c.tolist())
        if not math.isfinite(norm) and not np.isfinite(c).all():
            raise ValueError("coefficient vector contains non-finite entries")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)
        if self.normalized:
            n2 = norm * norm
            if abs(n2 - 1.0) > NORM_TOL:
                raise ValueError(
                    f"vector flagged normalized but has squared norm {n2!r}"
                )

    @property
    def cutoff(self) -> int:
        return self.coeffs.size - 1

    @property
    def tail_mass(self) -> float:
        """Squared amplitude of the top retained level, c_N^2."""
        return float(self.coeffs[-1] ** 2)


@dataclass(frozen=True, eq=False)
class FourModeTensor:
    """Read-only rank-4 amplitude tensor over modes (a, b, c, d), squared norm at most 1."""

    amps: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.amps)
        if a.ndim != 4:
            raise ValueError("FourModeTensor amplitudes must have rank 4")
        a = _readonly(a.astype(complex if np.iscomplexobj(a) else float, copy=False))
        object.__setattr__(self, "amps", a)
        if self.norm_squared() > 1.0 + NORM_TOL:
            raise ValueError(f"squared norm {self.norm_squared()!r} exceeds 1 beyond tolerance")

    def norm_squared(self) -> float:
        return float(np.vdot(self.amps, self.amps).real)


@dataclass(frozen=True, eq=False)
class ConditionalEnsemble:
    """Weighted post-measurement pure states plus heralding probability.

    `weights` (K,) sum to one and weigh the K two-mode amplitude matrices
    stacked in `states` (K, m, n); `success_probability` keeps the
    pre-normalization mass of the conditioned branches.
    """

    weights: np.ndarray
    states: np.ndarray
    success_probability: float

    def __post_init__(self):
        w, s = np.asarray(self.weights, dtype=float), np.asarray(self.states)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("ensemble must contain at least one branch")
        if s.ndim != 3 or s.shape[0] != w.size:
            raise ValueError(f"states {s.shape} must stack one matrix per weight ({w.size})")
        n2 = float((s.conj() * s).real.sum(axis=(1, 2)).max())
        if n2 > 1.0 + NORM_TOL:
            raise ValueError(f"branch squared norm {n2!r} exceeds 1 beyond tolerance")
        if w.min() < -NORM_TOL:
            raise ValueError("branch weights must be nonnegative")
        if abs(float(w.sum()) - 1.0) > NORM_TOL:
            raise ValueError(f"branch weights sum to {w.sum()!r}, expected 1")
        if not -NORM_TOL <= self.success_probability <= 1.0 + NORM_TOL:
            raise ValueError("success probability out of [0, 1]")
        object.__setattr__(self, "weights", _readonly(w))
        object.__setattr__(self, "states", _readonly(s))

    def density_matrix(self) -> np.ndarray:
        """Density matrix on the flattened two-mode space."""
        V = self.states.reshape(self.weights.size, -1)
        return (V.T * self.weights) @ V.conj()


def normalize(c, provenance: str = "") -> CoefficientVector:
    """The raw coefficients `c` rescaled to unit norm, the first nonzero one made
    nonnegative; `c` is copied, never written.

    Raises ValueError on a zero vector (an impossible conditioning branch).
    """
    c = np.array(c, dtype=float)
    n2 = float(np.dot(c, c))
    if n2 <= 0.0:
        raise ValueError("cannot normalize a zero coefficient vector")
    c /= math.sqrt(n2)
    if c[np.argmax(c != 0.0)] < 0:
        c = -c
    return CoefficientVector(c, normalized=True, provenance=provenance)


def trace_distance_pure_vs_ensemble(target: CoefficientVector,
                                    e: ConditionalEnsemble) -> float:
    """Trace distance (1/2)||rho_e - |t><t|||_1 between ensemble and pure target.

    The target embeds diagonally; branch matrices must share its cutoff on
    both modes, otherwise a ValueError is raised.  The O(1) entries of rho_e -
    |t><t| leave about 1e-16 absolute rounding: a small distance moves in its
    last digits with any reordering of the sums that build rho_e.
    """
    shape = e.states.shape[1:]
    if shape != (target.cutoff + 1, target.cutoff + 1):
        raise ValueError(
            f"cutoff mismatch: ensemble branches are {shape}, "
            f"target needs {(target.cutoff + 1,) * 2}"
        )
    t = np.diag(target.coeffs).reshape(-1)
    delta = e.density_matrix() - np.outer(t, t)
    eigs = np.linalg.eigvalsh(delta)
    return float(0.5 * np.sum(np.abs(eigs)))


# --- JSON documents (shared with the CLI) ------------------------------------

def json_text(doc) -> str:
    """The one JSON writer: indent 2, keys in insertion order, floats as shortest repr."""
    return json.dumps(doc, indent=2) + "\n"


def state_document(v: CoefficientVector) -> dict:
    """The state file's fields, in the order a state file lists them."""
    return {"cutoff": v.cutoff, "coefficients": v.coeffs.tolist(),
            "normalized": v.normalized, "provenance": v.provenance}


def write_state_file(v: CoefficientVector, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(json_text(state_document(v)))


def read_state_file(path) -> CoefficientVector:
    """Read a state file, or the state nested under `state` in a pipeline report."""
    with open(path) as fh:
        doc = json.load(fh)
    if isinstance(doc, dict) and isinstance(doc.get("state"), dict):
        doc = doc["state"]
    if not isinstance(doc, dict) or not {"coefficients", "cutoff", "normalized"} <= doc.keys():
        raise ValueError(f"state file {path}: needs coefficients, cutoff and normalized fields")
    coeffs, cutoff, normalized = doc["coefficients"], doc["cutoff"], doc["normalized"]
    provenance = doc.get("provenance", "")
    for field, ok, kind in (   # JSON types exactly: a bool is neither a number nor an integer
            ("coefficients", isinstance(coeffs, list)
             and all(type(x) in (int, float) for x in coeffs), "a list of numbers"),
            ("cutoff", type(cutoff) is int, "an integer"),
            ("normalized", type(normalized) is bool, "true or false"),
            ("provenance", type(provenance) is str, "a string")):
        if not ok:
            raise ValueError(f"state file {path}: {field} field must be {kind}")
    try:
        coeffs = np.asarray(coeffs, dtype=float)
    except OverflowError:
        raise ValueError(f"state file {path}: coefficients field holds an integer "
                         "beyond the float range") from None
    if cutoff != coeffs.size - 1:
        raise ValueError(f"state file {path}: cutoff field does not match coefficients")
    return CoefficientVector(coeffs, normalized=normalized, provenance=provenance)
