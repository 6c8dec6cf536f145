"""Closed-form coefficient generators for the named state families.

Every family is a power series c_n = alpha_n t^n / norm, the amplitudes of
sum_n c_n |n,n>, stated once by t and alpha_n / alpha_(n-1) (its `Family.ratio`) with
alpha_0 = 1: tmss (lambda, 1), ps_tmss (lambda, (n+1)/n), circle (r^2, 1/n), the two-term
seed (xi, 1 at n = 1 and 0 beyond), pipelined (xi, (n+1)/n max(1 - n/2^k, 0)).  The norm
is taken once over the kept levels; the printed prefactors sqrt(1 - lambda^2),
sqrt((1-lambda^2)^3 / (1+lambda^2)), I0(2 r^2)^(-1/2) and (1 + xi^2)^(-1/2) are its limits.
Without a cutoff the levels run to the first N >= 1 with (alpha_N t^N)^2 < TAIL_TOL = 1e-12,
at most HARD_CUTOFF_CAP = 64.  The norm is at least alpha_0 = 1, so only a capped state can
keep c_N^2 at or above the tolerance, and such a state is refused.  An explicit cutoff
truncates as asked and the vector's `tail_mass` reports c_N^2; the seed's default cutoff is
2.  `family(name)` is the one lookup of a family's FAMILIES entry (any spelling
`family_name` accepts) and `build(name, parameter, cutoff, path)` the one dispatch to its
generator, or to the state file of `custom`.  The catalog holds states only: the
distillation protocol that prepares `pipelined` lives in `pipeline`.  Rows are immutable,
so `_series` keeps the last 32 rows, keyed on the canonical arguments every generator
passes it, and `_alphas` keeps the alpha_n per family and size.
"""

from __future__ import annotations

import math
from functools import lru_cache
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


def family(name: str) -> Family:
    """The FAMILIES entry of `name`, in any spelling `family_name` accepts."""
    if family_name(name) not in FAMILIES:
        raise ValueError(f"unknown family {family_name(name)!r}; choose from {tuple(FAMILIES)}")
    return FAMILIES[family_name(name)]


def build(name: str, parameter: float | None = None, cutoff: int | None = None,
          path: str | None = None) -> CoefficientVector:
    """The family's state at `parameter`, or for `custom` the state file at `path`."""
    fam = family(name)
    if fam.build is None:
        if not path:
            raise ValueError("custom family requires a state-file path")
        return read_state_file(path)
    if parameter is None:
        raise ValueError(f"family {family_name(name)!r} requires a parameter")
    return fam.build(parameter, cutoff)


@lru_cache(maxsize=64)
def _alphas(name: str, n_max: int, step: float) -> np.ndarray:
    """Read-only alpha_0..alpha_n_max of a power-series family; cached by family and size."""
    alpha = np.ones(n_max + 1)
    alpha[1:] = family(name).ratio(np.arange(1.0, n_max + 1), step)
    alpha = np.cumprod(alpha)
    alpha.setflags(write=False)
    return alpha


@lru_cache(maxsize=32)
def _series(name: str, param: float, t: float, cutoff: int | None, step: float,
            provenance: str) -> CoefficientVector:
    """Normalized c_n ~ alpha_n t^n with the family's alpha_n, labelled `provenance`; the
    automatic cutoff and its refusal are the module docstring's.  Cached: every generator
    passes its arguments in this one positional form, and the label keeps -0 apart from 0."""
    if cutoff is not None and cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    n_max = HARD_CUTOFF_CAP if cutoff is None else cutoff
    c = np.array(_alphas(name, n_max, step))
    k = np.count_nonzero(c)                 # alpha_n = 0 from its first zero on
    c[:k] *= t ** np.arange(float(k))       # t^n only where alpha_n != 0: a large t cannot overflow
    if cutoff is None:
        small = np.flatnonzero(c[1:] ** 2 < TAIL_TOL)
        c = c[:small[0] + 2] if small.size else c
    c /= math.sqrt(c @ c)
    if cutoff is None and not c[-1] ** 2 < TAIL_TOL:
        raise ValueError(
            f"{name} with {family(name).parameter} = {param:g} keeps tail mass "
            f"c_N^2 = {c[-1] ** 2:.2e} > {TAIL_TOL:g} at the {HARD_CUTOFF_CAP}-level "
            f"automatic cutoff cap; pass an explicit cutoff")
    return CoefficientVector(c, normalized=True, provenance=provenance)


def tmss(lam: float, cutoff: int | None = None) -> CoefficientVector:
    """Two-mode squeezed state with lambda = tanh(squeezing), 0 <= lambda < 1."""
    if not 0.0 <= lam < 1.0:
        raise ValueError("squeezing parameter lambda must lie in [0, 1)")
    return _series("tmss", lam, lam, cutoff, 1.0, f"tmss({lam:g})")


def circle(r: float, cutoff: int | None = None) -> CoefficientVector:
    """Circle state, c_n ~ r^(2n) / n!."""
    if r < 0:
        raise ValueError("circle parameter r must be nonnegative")
    return _series("circle", r, r * r, cutoff, 1.0, f"circle({r:g})")


def ps_tmss(lam: float, cutoff: int | None = None) -> CoefficientVector:
    """Photon-subtracted two-mode squeezed state, c_n ~ (n+1) lambda^n."""
    if not 0.0 <= lam < 1.0:
        raise ValueError("squeezing parameter lambda must lie in [0, 1)")
    return _series("ps_tmss", lam, lam, cutoff, 1.0, f"ps_tmss({lam:g})")


def seed(xi: float, cutoff: int | None = None) -> CoefficientVector:
    """Normalized two-term state (1, xi)/sqrt(1 + xi^2), zero-padded."""
    if xi < 0:
        raise ValueError("seed parameter xi must be nonnegative")
    cutoff = 2 if cutoff is None else cutoff
    if cutoff < 1 and xi > 0:
        raise ValueError("seed needs cutoff >= 1 to hold the |1,1> term")
    return _series("seed", xi, xi, cutoff, 1.0, f"seed({xi:g})")


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
    "seed": Family("xi", (0.0, 3.0), seed, lambda n, step: 1.0 * (n == 1)),
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
