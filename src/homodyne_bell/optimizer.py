"""Maximization of the Bell functionals.

Every search maximizes the CH value S = 3 P++(chi) - P++(3 chi).  The CHSH value
B = 4 S - 2 is an increasing affine function of S, so it has the same maximizer;
the objective only chooses which of the two is reported, and both read one cache
of the maximizers.  At fixed chi, S is the Rayleigh quotient of M = 3 K(chi) -
K(3 chi), so the free optimum is its top eigenpair: S* = lambda_max, B* = 4 S* - 2.
Family-parameter and angle searches are bounded 1-D maximizations by
`_bounded_brent`, a step-for-step port of the bounded Brent search that
`scipy.optimize.minimize_scalar(method="bounded")` runs, so they need numpy
alone and return scipy's values bit for bit.

The nonnegative optimum, where the constraint binds, is a projected power
(minorize-maximize) ascent that ends on an exact face solve certified by the
KKT conditions; it needs numpy alone too.  The module attribute `minimize` is
still bound to scipy's on first access (PEP 562) for outside code that reads
it, such as the benchmark tracer; nothing in the package calls it.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import bell, catalog
from .fock_core import CoefficientVector

_OBJECTIVES = ("chsh", "ch")
_SCIPY_NAMES = ("minimize",)
_KKT_TOL = 1e-12        # eigenvalue ties, zero entries and (M c)_i <= 0 are judged to it
_ASCENT_STEPS = 20_000


def __getattr__(name: str):
    if name not in _SCIPY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import scipy.optimize
    value = getattr(scipy.optimize, name)
    globals()[name] = value
    return value


def _reported(objective: str):
    """The value reported for `objective` as a function of S: B = 4 S - 2 for
    "chsh", S itself for "ch"."""
    if objective not in _OBJECTIVES:
        raise ValueError(f"objective must be one of {_OBJECTIVES}")
    return (lambda s: 4.0 * s - 2.0) if objective == "chsh" else (lambda s: s)


def _nonnegative_top(M: np.ndarray, w_min: float, v_top: np.ndarray, chi: float):
    """A unit c >= 0 maximizing c^T M c, certified as a KKT point.

    Projected power steps x <- P+((M - w_min I) x) / norm from |v_top| never lower
    the quotient.  Whenever the support F holds for one step, x_F is projected on
    the top eigenspace of M_FF; that c is returned once it is nonnegative (entries
    down to -_KKT_TOL are clipped to 0) with (M c)_i <= 0 wherever c_i = 0.  An x
    orthogonal to that eigenspace is a saddle: it takes a half step along M_FF's
    top eigenvector, then P+.  Raises RuntimeError at the step cap.
    """
    A, x = M - w_min * np.eye(len(M)), np.abs(v_top)
    prev, tried = (x > 0.0).tobytes(), None
    for _ in range(_ASCENT_STEPS):
        face = x > 0.0
        key = face.tobytes()
        if key == prev and key != tried:
            tried = key
            w, V = np.linalg.eigh(M[face][:, face])
            top = V[:, w >= w[-1] - _KKT_TOL]
            c = np.zeros(len(M))
            c[face] = top @ (top.T @ x[face])
            norm = math.sqrt(c @ c)
            if norm < _KKT_TOL:
                t = V[:, -1] * np.copysign(1.0, V[:, -1] @ x[face])
                x[face] = np.maximum(x[face] + 0.5 * t, 0.0)
                tried = None
            elif c.min() >= -_KKT_TOL * norm:
                c = np.maximum(c, 0.0) / norm
                if np.all((M @ c)[c == 0.0] <= _KKT_TOL):
                    return c
        prev, x = key, np.maximum(A @ x, 0.0)
        norm = math.sqrt(x @ x)
        if norm == 0.0:
            break
        x /= norm
    raise RuntimeError(f"nonnegative ascent certified no optimum within {_ASCENT_STEPS} "
                       f"steps (N={len(M) - 1}, chi={chi!r})")


def optimize_coefficients(n_max: int, chi: float, objective: str = "chsh",
                          nonnegative: bool = False):
    """Maximize the Bell functional over unit coefficient vectors c_0..c_n_max.

    Returns (CoefficientVector, value, (value,)); the first nonzero coefficient
    is made positive.  The free optimum is exact.  The nonnegative one, where
    the constraint binds, is the KKT point `_nonnegative_top` certifies, for
    chi in (0, pi/2] only: beyond it that point can lie below the optimum.
    """
    bell.check_phase(chi, n_max, 3)
    report = _reported(objective)
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if nonnegative and not 0.0 < chi <= np.pi / 2:
        raise ValueError(f"nonnegative optimum needs chi in (0, pi/2], not chi = {chi!r}")
    c, s = _unit_maximizer(n_max, chi, nonnegative)
    label = f"optimized({objective.upper()}, N={n_max}, chi={chi!r})"
    return CoefficientVector(c, normalized=True, provenance=label), report(s), (report(s),)


@lru_cache(maxsize=4)
def _unit_maximizer(n_max: int, chi: float, nonnegative: bool):
    """Read-only unit maximizer c of S = c^T M c (first nonzero entry positive) and S."""
    k = n_max + 1
    M = 3.0 * bell.kernel(k, chi) - bell.kernel(k, 3.0 * chi)
    w, V = np.linalg.eigh(M)
    c = _nonnegative_top(M, w[0], V[:, -1], chi) if nonnegative else V[:, -1]
    c = c / np.linalg.norm(c)
    c = c * np.sign(c[np.flatnonzero(np.abs(c) > 1e-12)[0]])
    c.setflags(write=False)
    return c, float(c @ M @ c)


_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_SQRT_EPS = math.sqrt(2.2e-16)


def _bounded_brent(f, lo: float, hi: float, xatol: float, maxfun: int = 500):
    """Minimize f on [lo, hi]; returns (x, f(x), evaluations).  Each golden-section
    or parabolic step and the stopping rule are scipy's bounded Brent
    (`minimize_scalar(method="bounded")`) in the same floating-point order, so
    all three agree with it exactly."""
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
        raise ValueError(f"bounds must be finite with lo <= hi, got ({lo}, {hi})")
    a, b = lo, hi
    v = w = x = a + _GOLDEN * (b - a)          # v, w: the two previous best points
    fv = fw = fx = f(x)
    d = e = 0.0                                 # last step, the one before it
    evals, xm, tol1 = 1, 0.5 * (a + b), _SQRT_EPS * abs(x) + xatol / 3.0
    while abs(x - xm) > 2.0 * tol1 - 0.5 * (b - a) and evals < maxfun:
        golden = True
        if abs(e) > tol1:                       # try a parabola through x, w, v
            r, q = (x - w) * (fx - fv), (x - v) * (fx - fw)
            p, q = (x - v) * q - (x - w) * r, 2.0 * (q - r)
            p, q, r, e = (-p if q > 0.0 else p), abs(q), e, d
            if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
                golden, d = False, p / q
                if (x + d) - a < 2.0 * tol1 or b - (x + d) < 2.0 * tol1:
                    d = tol1 if xm - x >= 0.0 else -tol1
        if golden:
            e = (a if x >= xm else b) - x
            d = _GOLDEN * e
        u = x + (1.0 if d >= 0.0 else -1.0) * max(abs(d), tol1)
        fu, evals = f(u), evals + 1
        if fu <= fx:
            a, b = (x, b) if u >= x else (a, x)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
        xm, tol1 = 0.5 * (a + b), _SQRT_EPS * abs(x) + xatol / 3.0
    return x, fx, evals


def optimize_family_parameter(family: str, chi: float, objective: str = "chsh"):
    """Bounded 1-D maximization of the functional over one family parameter, over
    its interval in `catalog.FAMILIES`, at cutoff `catalog.WORKING_CUTOFF`.

    Returns (best parameter, best value).
    """
    bell.check_phase(chi, catalog.WORKING_CUTOFF, 3)
    report = _reported(objective)
    fam = catalog.family(family)
    if fam.bounds is None:
        raise ValueError(f"no default bounds for family {catalog.family_name(family)!r}")
    x, fun, _ = _bounded_brent(lambda p: -bell.ch_S(fam.build(p, catalog.WORKING_CUTOFF), chi),
                               *fam.bounds, xatol=1e-8)
    return float(x), report(-float(fun))


def optimize_angle(v: CoefficientVector, objective: str = "chsh"):
    """Maximize the functional over the angle sum chi in (0, pi/2].

    Returns (chi*, best value); a flat objective (S = 1/2, e.g. vacuum) reports
    the conventional chi = pi/4.
    """
    report = _reported(objective)
    x, fun, _ = _bounded_brent(lambda ch: -bell.ch_S(v, ch), 1e-6, np.pi / 2, xatol=1e-10)
    chi_star, s_star = float(x), -float(fun)
    if abs(s_star - 0.5) < 1e-11:
        chi_star, s_star = np.pi / 4, 0.5
    return chi_star, report(s_star)
