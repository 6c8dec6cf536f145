"""Closed-form coefficient generators for the named state families.

Tmss, ps_tmss, circle and pipelined are power series c_n = alpha_n t^n / norm, the
amplitudes of sum_n c_n |n,n>, each stated once by t and alpha_n / alpha_(n-1) (its
`Family.ratio`) with alpha_0 = 1: tmss (lambda, 1), ps_tmss (lambda, (n+1)/n), circle (r^2, 1/n),
pipelined (xi, (n+1)/n max(1 - n/2^k, 0)).  The norm is taken once over the kept
levels; the printed prefactors sqrt(1 - lambda^2), sqrt((1-lambda^2)^3 / (1+lambda^2))
and I0(2 r^2)^(-1/2) are its limits.  Without a cutoff the levels run to the first
N >= 1 with (alpha_N t^N)^2 < TAIL_TOL = 1e-12, at most HARD_CUTOFF_CAP = 64.  The
norm is at least alpha_0 = 1, so only a capped state can keep c_N^2 at or above the
tolerance, and such a state is refused.  An explicit cutoff truncates as asked and the
vector reports `converged = False`.  The two-term seed (|0,0> + xi |1,1>) / sqrt(1 + xi^2)
has its own generator.  The catalog holds states only: the distillation protocol that
prepares `pipelined` lives in `pipeline`.  Rows are immutable, so the generators share one
cache of 32 rows keyed on (family, parameter and its sign bit, cutoff, iterations), and
`_alphas` keeps the alpha_n per family and size; `generator.__wrapped__` builds afresh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, wraps
from typing import Callable, NamedTuple

import numpy as np

from .fock_core import TAIL_TOL, CoefficientVector, read_state_file

HARD_CUTOFF_CAP = 64
WORKING_CUTOFF = 32     # the pipeline's, scans' and family searches' default cutoff


class Family(NamedTuple):
    parameter: str | None       # None: the family reads a state file
    bounds: tuple | None        # default interval of a search over the parameter
    build: Callable | None      # generator(parameter, cutoff); None: the state file
    ratio: Callable | None = None   # alpha_n / alpha_(n-1) at (n, 2^-iterations): a power series


def family_name(name: str) -> str:
    """The spelling of a family in FAMILIES: `ps-tmss` is `ps_tmss`."""
    return name.replace("-", "_")


@lru_cache(maxsize=64)
def _alphas(family: str, n_max: int, step: float) -> np.ndarray:
    """Read-only alpha_0..alpha_n_max of a power-series family; cached by family and size."""
    alpha = np.ones(n_max + 1)
    alpha[1:] = FAMILIES[family].ratio(np.arange(1.0, n_max + 1), step)
    alpha = np.cumprod(alpha)
    alpha.setflags(write=False)
    return alpha


def _series(family: str, param: float, t: float, cutoff: int | None, step: float = 1.0,
            provenance: str | None = None) -> CoefficientVector:
    """Normalized c_n ~ alpha_n t^n with the family's alpha_n, labelled `provenance` or
    `family(param)`; the automatic cutoff and its refusal are the module docstring's."""
    if cutoff is not None and cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    n_max = HARD_CUTOFF_CAP if cutoff is None else cutoff
    c = np.array(_alphas(family, n_max, step))
    k = np.count_nonzero(c)                 # alpha_n = 0 from its first zero on
    c[:k] *= t ** np.arange(float(k))       # t^n only where alpha_n != 0: a large t cannot overflow
    if cutoff is None:
        small = np.flatnonzero(c[1:] ** 2 < TAIL_TOL)
        c = c[:small[0] + 2] if small.size else c
    c /= math.sqrt(c @ c)
    if cutoff is None and not c[-1] ** 2 < TAIL_TOL:
        raise ValueError(
            f"{family} with {FAMILIES[family].parameter} = {param:g} keeps tail mass "
            f"c_N^2 = {c[-1] ** 2:.2e} > {TAIL_TOL:g} at the {HARD_CUTOFF_CAP}-level "
            f"automatic cutoff cap; pass an explicit cutoff")
    return CoefficientVector(c, normalized=True, provenance=provenance or f"{family}({param:g})")


@lru_cache(maxsize=32, typed=True)
def _cached_row(generator, param, sign, *args, **kwargs) -> CoefficientVector:
    return generator(param, *args, **kwargs)


def _row_cache(generator):
    """`generator` served from `_cached_row`, as a plain function (the tracer wraps those)."""
    return wraps(generator)(lambda param, *args, **kwargs: _cached_row(
        generator, param, math.copysign(1.0, param), *args, **kwargs))


@_row_cache
def tmss(lam: float, cutoff: int | None = None) -> CoefficientVector:
    """Two-mode squeezed state with lambda = tanh(squeezing), 0 <= lambda < 1."""
    if not 0.0 <= lam < 1.0:
        raise ValueError("squeezing parameter lambda must lie in [0, 1)")
    return _series("tmss", lam, lam, cutoff)


@_row_cache
def circle(r: float, cutoff: int | None = None) -> CoefficientVector:
    """Circle state, c_n ~ r^(2n) / n!."""
    if r < 0:
        raise ValueError("circle parameter r must be nonnegative")
    return _series("circle", r, r * r, cutoff)


@_row_cache
def ps_tmss(lam: float, cutoff: int | None = None) -> CoefficientVector:
    """Photon-subtracted two-mode squeezed state, c_n ~ (n+1) lambda^n."""
    if not 0.0 <= lam < 1.0:
        raise ValueError("squeezing parameter lambda must lie in [0, 1)")
    return _series("ps_tmss", lam, lam, cutoff)


@_row_cache
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


@_row_cache
def pipelined(xi: float, cutoff: int | None = None, iterations: int = 3) -> CoefficientVector:
    """The state `pipeline` distils, on levels 0..cutoff-1 (the seed's cutoff, by default
    WORKING_CUTOFF, less the subtracted level).  k vacuum-heralded 50:50 steps map
    F(z) = sum c_n z^n / n! to F(z/2)^2 each, so the seed 1 + xi z gives (1 + xi z/2^k)^(2^k)
    (Eisert et al., Ann. Phys. 311, 431 (2004)); subtracting a photon per mode leaves
    c_n ~ (n + 1) (2^k)! / (2^k - n - 1)! (xi/2^k)^n, tending to ps_tmss(xi) as k grows."""
    if xi <= 0.0:
        raise ValueError("pipeline requires xi > 0")
    if iterations < 0:
        raise ValueError("iterations must be nonnegative")
    cutoff = WORKING_CUTOFF if cutoff is None else cutoff
    if cutoff < 1:
        raise ValueError("seed needs cutoff >= 1 to hold the |1,1> term")
    return _series("pipeline", xi, xi, cutoff - 1, 2.0 ** -iterations,
                   f"pipeline(xi={xi:g}, iters={iterations})")


FAMILIES = {
    "tmss": Family("lambda", (0.0, 0.95), tmss, lambda n, step: 1.0),
    "ps_tmss": Family("lambda", (0.0, 0.95), ps_tmss, lambda n, step: (n + 1.0) / n),
    "circle": Family("r", (0.05, 3.0), circle, lambda n, step: 1.0 / n),
    "seed": Family("xi", (0.0, 3.0), seed),
    "pipeline": Family("xi", (0.2, 1.5), pipelined,
                       lambda n, step: (n + 1.0) / n * np.maximum(1.0 - n * step, 0.0)),
    "custom": Family(None, None, None),
}


def seed_transmissivity(xi: float, lam: float) -> float:
    """|T(lambda)| = |xi - sqrt(xi^2 + 8 lambda^2)| / (4 lambda).

    Evaluated as 2 lambda / (xi + sqrt(xi^2 + 8 lambda^2)), the same value
    without the cancellation at lambda << xi.  Small-lambda limit lambda/xi.
    Singular at lambda = 0.
    """
    if lam <= 0.0:
        raise ValueError("transmissivity formula is singular at lambda = 0")
    return 2.0 * lam / (xi + np.sqrt(xi * xi + 8.0 * lam * lam))


@dataclass(frozen=True)
class CatalogSpec:
    """A named state family plus its parameter, resolvable to coefficients."""

    family: str
    parameter: float | None = None
    path: str | None = None
    cutoff: int | None = None

    def __post_init__(self):
        fam = family_name(self.family)
        object.__setattr__(self, "family", fam)
        if fam not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; choose from {tuple(FAMILIES)}")
        if fam == "custom":
            if not self.path:
                raise ValueError("custom family requires a state-file path")
        elif self.parameter is None:
            raise ValueError(f"family {fam!r} requires a parameter")

    def build(self) -> CoefficientVector:
        """The family's state at its parameter."""
        build = FAMILIES[self.family].build
        return read_state_file(self.path) if build is None else build(self.parameter, self.cutoff)
