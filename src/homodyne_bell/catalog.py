"""Closed-form coefficient generators for the named state families.

Families (amplitudes of sum_n c_n |n,n>):

* two-mode squeezed state:       c_n = lambda^n sqrt(1 - lambda^2)
* circle state:                  c_n = r^(2n) / (n! sqrt(I0(2 r^2)))
* photon-subtracted squeezed:    c_n = sqrt((1-lambda^2)^3 / (1+lambda^2)) (n+1) lambda^n
* two-term seed:                 (|0,0> + xi |1,1>) / sqrt(1 + xi^2)

Generators renormalize the truncated tail (the discarded mass is below the
tail tolerance at auto-selected cutoffs, so printed-formula values survive to
better than 1e-12).  An automatic cutoff that reaches HARD_CUTOFF_CAP with
the tail still above tolerance is an error; an explicit cutoff truncates as
asked and the vector reports `converged = False`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lgamma, log

import numpy as np

from .fock_core import TAIL_TOL, CoefficientVector, read_state_file

HARD_CUTOFF_CAP = 64


def bessel_i0(x: float) -> float:
    """Modified Bessel I0 by its power series with term-ratio recurrence.

    Arguments used here stay below ~20, where the series converges quickly.
    """
    if x < 0:
        raise ValueError("I0 series implemented for x >= 0")
    term = 1.0
    total = 1.0
    k = 0
    while term > 1e-18 * total:
        k += 1
        term *= (x * x / 4.0) / (k * k)
        total += term
        if k > 1000:
            raise ValueError(f"I0 series failed to converge for x = {x!r}")
    return total


def _auto_cutoff(param: float, log_coeff, cutoff: int | None) -> int:
    """Smallest N with c_N^2 < tail tolerance, capped; or the explicit cutoff.

    A zero parameter gives the vacuum, which needs no level above n = 1.
    """
    if cutoff is not None:
        if cutoff < 0:
            raise ValueError("cutoff must be nonnegative")
        return cutoff
    if param == 0.0:
        return 1
    for n in range(1, HARD_CUTOFF_CAP + 1):
        if 2.0 * log_coeff(n) < log(TAIL_TOL):
            return n
    return HARD_CUTOFF_CAP


def _finished(c: np.ndarray, cutoff: int | None, family: str, param: float) -> CoefficientVector:
    """Normalized family state; an automatic cutoff must have converged."""
    c = c / np.sqrt(float(np.dot(c, c)))    # family coefficients are never negative
    if cutoff is None and not c[-1] ** 2 < TAIL_TOL:
        raise ValueError(
            f"{family} with {FAMILY_PARAMETERS[family]} = {param:g} keeps tail mass "
            f"c_N^2 = {c[-1] ** 2:.2e} > {TAIL_TOL:g} at the {HARD_CUTOFF_CAP}-level "
            f"automatic cutoff cap; pass an explicit cutoff")
    return CoefficientVector(c, normalized=True, provenance=f"{family}({param:g})")


def tmss(lam: float, cutoff: int | None = None) -> CoefficientVector:
    """Two-mode squeezed state with lambda = tanh(squeezing), 0 <= lambda < 1."""
    if not 0.0 <= lam < 1.0:
        raise ValueError("squeezing parameter lambda must lie in [0, 1)")
    n_max = _auto_cutoff(lam, lambda n: n * log(lam), cutoff)
    n = np.arange(n_max + 1)
    c = lam ** n * np.sqrt(1.0 - lam * lam)
    return _finished(c, cutoff, "tmss", lam)


def circle(r: float, cutoff: int | None = None) -> CoefficientVector:
    """Circle state; the printed form is self-normalizing via sum r^(4n)/(n!)^2 = I0(2 r^2)."""
    if r < 0:
        raise ValueError("circle parameter r must be nonnegative")
    n_max = _auto_cutoff(r, lambda n: 2 * n * log(r) - lgamma(n + 1)
                         - 0.5 * log(bessel_i0(2 * r * r)), cutoff)
    # c_n = c_(n-1) r^2 / n
    c = np.cumprod(np.concatenate(([1.0], r * r / np.arange(1, n_max + 1))))
    c /= np.sqrt(bessel_i0(2.0 * r * r))
    return _finished(c, cutoff, "circle", r)


def ps_tmss(lam: float, cutoff: int | None = None) -> CoefficientVector:
    """Photon-subtracted two-mode squeezed state."""
    if not 0.0 <= lam < 1.0:
        raise ValueError("squeezing parameter lambda must lie in [0, 1)")
    n_max = _auto_cutoff(lam, lambda n: log(n + 1.0) + n * log(lam), cutoff)
    n = np.arange(n_max + 1)
    c = np.sqrt((1.0 - lam * lam) ** 3 / (1.0 + lam * lam)) * (n + 1) * lam ** n
    return _finished(c, cutoff, "ps_tmss", lam)


def seed(xi: float, cutoff: int | None = None) -> CoefficientVector:
    """Normalized two-term state (1, xi)/sqrt(1 + xi^2), zero-padded."""
    if xi < 0:
        raise ValueError("seed parameter xi must be nonnegative")
    n_max = cutoff if cutoff is not None else 2
    if n_max < 1 and xi > 0:
        raise ValueError("seed needs cutoff >= 1 to hold the |1,1> term")
    c = np.zeros(n_max + 1)
    c[0] = 1.0
    if xi > 0:
        c[1] = xi
    c /= np.sqrt(1.0 + xi * xi)
    return CoefficientVector(c, normalized=True, provenance=f"seed({xi:g})")


def seed_transmissivity(xi: float, lam: float) -> float:
    """|T(lambda)| = |xi - sqrt(xi^2 + 8 lambda^2)| / (4 lambda).

    Evaluated as 2 lambda / (xi + sqrt(xi^2 + 8 lambda^2)), the same value
    without the cancellation at lambda << xi.  Small-lambda limit lambda/xi.
    Singular at lambda = 0.
    """
    if lam <= 0.0:
        raise ValueError("transmissivity formula is singular at lambda = 0")
    return 2.0 * lam / (xi + np.sqrt(xi * xi + 8.0 * lam * lam))


# Each family with the name of its parameter; "custom" reads a state file.
FAMILY_PARAMETERS = {"tmss": "lambda", "ps_tmss": "lambda", "circle": "r", "seed": "xi",
                     "pipeline": "xi"}
_FAMILIES = (*FAMILY_PARAMETERS, "custom")


@dataclass(frozen=True)
class CatalogSpec:
    """A named state family plus its parameter, resolvable to coefficients."""

    family: str
    parameter: float | None = None
    path: str | None = None
    cutoff: int | None = None

    def __post_init__(self):
        fam = self.family.replace("-", "_")
        object.__setattr__(self, "family", fam)
        if fam not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; choose from {_FAMILIES}")
        if fam == "custom":
            if not self.path:
                raise ValueError("custom family requires a state-file path")
        elif self.parameter is None:
            raise ValueError(f"family {fam!r} requires a parameter")

    def build(self) -> CoefficientVector:
        """The family's state; `pipeline` runs the preparation at xi = parameter."""
        if self.family == "custom":
            return read_state_file(self.path)
        if self.family == "pipeline":
            from .pipeline import PipelineConfig, run_pipeline
            cutoff = 32 if self.cutoff is None else self.cutoff
            return run_pipeline(PipelineConfig(xi=self.parameter, cutoff=cutoff)).final_state
        generator = {"tmss": tmss, "circle": circle, "ps_tmss": ps_tmss, "seed": seed}
        return generator[self.family](self.parameter, self.cutoff)
