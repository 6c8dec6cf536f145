"""Reference values computed apart from the program.

Nothing here imports `homodyne_bell`.  The half-line overlap table comes from
adaptive quadrature of oscillator wavefunctions (scipy's `quad_vec`), and
`overlap_closed` gives the same table from the Wronskian identity
(psi_n psi_m' - psi_m psi_n')' = 2 (n - m) psi_n psi_m, so the two can check
each other.  The state families and the pipeline recursion are re-derived
from their printed formulas.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial, pi, sqrt

import numpy as np
from scipy.integrate import quad_vec

TAIL_TOL = 1e-12
CHI = pi / 4
XI = 1.0 / sqrt(2.0)


def wavefunctions(n_max: int, x: float) -> np.ndarray:
    """psi_0(x)..psi_n_max(x) by the normalized Hermite recurrence."""
    psi = np.empty(n_max + 1)
    psi[0] = pi ** -0.25 * np.exp(-0.5 * x * x)
    if n_max >= 1:
        psi[1] = sqrt(2.0) * x * psi[0]
    for n in range(1, n_max):
        psi[n + 1] = sqrt(2.0 / (n + 1)) * x * psi[n] - sqrt(n / (n + 1)) * psi[n - 1]
    return psi


@lru_cache(maxsize=8)
def overlap_quad(n_max: int) -> np.ndarray:
    """G_nm = integral_0^inf psi_n psi_m dx by adaptive vector quadrature."""
    upper = sqrt(2.0 * n_max + 1.0) + 14.0
    G, _ = quad_vec(lambda x: np.outer(*(wavefunctions(n_max, x),) * 2), 0.0, upper,
                    epsabs=1e-15, epsrel=1e-13, limit=2000)
    G = 0.5 * (G + G.T)
    G.setflags(write=False)
    return G


def overlap_closed(n_max: int) -> np.ndarray:
    """The same table from psi_n(0), psi_n'(0) and the Wronskian identity."""
    psi0 = np.array([_psi_at_zero(k) for k in range(n_max + 2)])
    # psi_n' = sqrt(n/2) psi_{n-1} - sqrt((n+1)/2) psi_{n+1}
    dpsi0 = np.array([sqrt(k / 2.0) * psi0[k - 1] - sqrt((k + 1) / 2.0) * psi0[k + 1] if k else 0.0
                      for k in range(n_max + 1)])
    psi0 = psi0[:-1]
    d = np.subtract.outer(np.arange(n_max + 1), np.arange(n_max + 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        G = -(np.outer(psi0, dpsi0) - np.outer(dpsi0, psi0)) / (2.0 * d)
    np.fill_diagonal(G, 0.5)
    return G


def _psi_at_zero(k: int) -> float:
    if k % 2:
        return 0.0
    return pi ** -0.25 * (-1) ** (k // 2) * sqrt(factorial(k)) / (2 ** (k // 2) * factorial(k // 2))


def kernel(c_size: int, chi: float) -> np.ndarray:
    """P++ kernel cos((n - m) chi) G_nm^2 on the first c_size levels."""
    G = overlap_quad(max(c_size - 1, 1))[:c_size, :c_size]
    d = np.subtract.outer(np.arange(c_size), np.arange(c_size))
    return np.cos(d * chi) * G * G


def p_plus_plus(c, chi: float) -> float:
    c = np.asarray(c, dtype=float)
    return float(c @ kernel(c.size, chi) @ c)


def ch_S(c, chi: float) -> float:
    return 3.0 * p_plus_plus(c, chi) - p_plus_plus(c, 3.0 * chi)


def chsh_B(c, chi: float) -> float:
    """B = 3 E(chi) - E(3 chi) with E = 4 P++ - 1, i.e. 4 S - 2."""
    return 4.0 * ch_S(c, chi) - 2.0


def ceiling(n_max: int, chi: float = CHI) -> tuple:
    """(B*, S*): the top eigenvalue of (3 cos(d chi) - cos(3 d chi)) o G o G."""
    k = n_max + 1
    lam = float(np.linalg.eigvalsh(3.0 * kernel(k, chi) - kernel(k, 3.0 * chi))[-1])
    return 4.0 * lam - 2.0, lam


def _unit(c) -> np.ndarray:
    c = np.asarray(c, dtype=float)
    return c / np.linalg.norm(c)


def _auto_cutoff(log_c) -> int:
    for n in range(1, 65):
        if 2.0 * log_c(n) < np.log(TAIL_TOL):
            return n
    return 64


def tmss(lam: float, cutoff: int | None = None) -> np.ndarray:
    n_max = _auto_cutoff(lambda n: n * np.log(lam)) if cutoff is None else cutoff
    return _unit([lam ** n for n in range(n_max + 1)])


def ps_tmss(lam: float, cutoff: int = 32) -> np.ndarray:
    return _unit([(n + 1) * lam ** n for n in range(cutoff + 1)])


def circle(r: float, cutoff: int = 32) -> np.ndarray:
    return _unit([r ** (2 * n) / factorial(n) for n in range(cutoff + 1)])


def seed(xi: float, cutoff: int = 2) -> np.ndarray:
    c = np.zeros(cutoff + 1)
    c[0], c[1] = 1.0, xi
    return _unit(c)


def pipelined(xi: float, iterations: int = 3, cutoff: int = 32) -> np.ndarray:
    """Seed -> `iterations` vacuum-heralded combinations -> one subtraction per mode.

    Each combination is c'_n = 2^-n sum_r C(n, r) c_r c_(n-r) on the doubled
    support, truncated back to the cutoff and renormalized.
    """
    c = seed(xi, cutoff)
    for _ in range(iterations):
        wide = np.concatenate([c, np.zeros(cutoff)])
        out = [sum(comb(n, r) * wide[r] * wide[n - r] for r in range(n + 1)) / 2.0 ** n
               for n in range(cutoff + 1)]
        c = _unit(out)
    return _unit(np.arange(1, cutoff + 1) * c[1:])

