"""Quadrature wavefunctions, half-line overlaps, and the CHSH/CH functionals.

Homodyne outcomes are dichotomized by sign.  For a state sum_n c_n |n,n> with
real c_n, the probability that both parties see a nonnegative quadrature
depends only on the angle sum chi = theta + phi and is the quadratic form

    P++(chi) = c^T K(chi) c,    K(chi)_nm = cos((n - m) chi) G_nm^2,

where G_nm = integral_0^inf psi_n(x) psi_m(x) dx over orthonormal oscillator
wavefunctions.  G has a closed form: psi_n'' = (x^2 - 2n - 1) psi_n, so the
Wronskian psi_m psi_n' - psi_n psi_m' has derivative 2 (m - n) psi_n psi_m and

    G_nn = 1/2,    G_nm = (psi_n'(0) psi_m(0) - psi_n(0) psi_m'(0)) / (2 (n - m)),

with psi_n'(0) = sqrt(n/2) psi_(n-1)(0) - sqrt((n+1)/2) psi_(n+1)(0).  Entries
of equal parity vanish.  One quadrature, `half_line_gram` (two Gauss-Legendre
nodes per cell of the sampler's grid, cached), gives the 2-D oracle and the sampler
their half-line Gram matrices W, and one form, `quadrant_mass` = Re p^H (W o W) p,
their quadrant masses, so both stay independent of G; sign binning is scale
invariant, so the quadrature convention is immaterial.  Flipping one party's
sign shifts chi by pi, and the parity of G gives K(chi) + K(chi + pi) = I/2, so
P+-(chi) = P++(chi + pi) = 1/2 - P++(chi).  Every Bell quantity therefore
follows from P++ at chi and 3 chi: the correlation E = 2 (P++ - P+-) = 4 P++ - 1,
the CH combination S = 3 P++(chi) - P++(3 chi) and the CHSH combination
B = 3 E(chi) - E(3 chi) = 4 S - 2.  Searches maximize S.  With G_nn = 1/2 and
only odd n - m off the diagonal, P++(chi) = |c|^2 / 4 + sum_(d odd) a_d cos(d chi)
where a_d = 2 sum_(n - m = d) c_n c_m G_nm^2, and S(chi) = |c|^2 / 2 +
sum_(d odd) a_d (3 cos(d chi) - cos(3 d chi)).  Each state forms its a_d and both
series once (a cache of 16 keyed on the coefficient bytes), then P++, S or B
costs one cosine and one dot.  The optimizer's S = c^T M c reads the same table (`ch_matrix`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fock_core import CoefficientVector

_EVAL_NORM_TOL = 1e-8
CELL_WIDTH = 24.0 / 2 ** 14      # quadrature cell, the sampler's grid cell (3 * 2^-11, exact)
_GRAM_BLOCKS = 8                 # blocks of nodes a half-line Gram is summed over
_CH_WEIGHTS = np.array([[3.0], [-1.0]])    # S = 3 P++(chi) - P++(3 chi), term by term


def hermite_basis(n_max: int, xs: np.ndarray) -> np.ndarray:
    """All psi_0..psi_n_max on a grid, shape (n_max+1, len(xs))."""
    out = np.empty((n_max + 1, xs.size))
    out[0] = np.pi ** -0.25 * np.exp(-0.5 * xs ** 2)
    if n_max >= 1:
        out[1] = np.sqrt(2.0) * xs * out[0]
    for n in range(1, n_max):
        out[n + 1] = (np.sqrt(2.0 / (n + 1)) * xs * out[n]
                      - np.sqrt(n / (n + 1.0)) * out[n - 1])
    return out


def cell_nodes(centers: np.ndarray) -> np.ndarray:
    """Two Gauss-Legendre nodes in each cell of width CELL_WIDTH about these centres, cell i's
    at 2i and 2i + 1; each weighs CELL_WIDTH / 2 (error O(CELL_WIDTH^4) per cell)."""
    return (centers[:, None] + np.array([-0.5, 0.5]) * CELL_WIDTH / np.sqrt(3.0)).ravel()


@lru_cache(maxsize=64)
def half_line_gram(n_max: int, x_max: float) -> np.ndarray:
    """Read-only W_nm = integral_0^x_max psi_n psi_m dx, n, m <= n_max, by cell_nodes over the
    first ceil(x_max / CELL_WIDTH) cells from 0, summed over _GRAM_BLOCKS blocks of nodes, each
    block's product by einsum, which never starts OpenBLAS's threads: in a process started
    after an idle spell, waking them stalled a first call for up to a second; cached."""
    centers = (np.arange(math.ceil(x_max / CELL_WIDTH)) + 0.5) * CELL_WIDTH
    blocks = (hermite_basis(n_max, x) for x in np.array_split(cell_nodes(centers), _GRAM_BLOCKS))
    W = 0.5 * CELL_WIDTH * sum(np.einsum("ni,mi->nm", V, V) for V in blocks)
    W.setflags(write=False)
    return W


def quadrant_mass(W: np.ndarray, p: np.ndarray) -> float:
    """Re p^H (W o W) p: the mass of |sum_n p_n psi_n(x) psi_n(y)|^2 over the quadrant whose
    two half-lines have the Gram matrix W."""
    return float(np.vdot(p, (W * W) @ p).real)


@lru_cache(maxsize=64)
def overlap_table(n_max: int) -> np.ndarray:
    """Read-only half-line overlaps G_nm for indices 0..n_max by the Wronskian
    closed form (module docstring); cached."""
    if n_max < 0:
        raise ValueError("table size must be nonnegative")
    psi = hermite_basis(n_max + 1, np.zeros(1))[:, 0]
    n = np.arange(n_max + 1)
    dpsi = np.sqrt(n / 2.0) * np.concatenate(([0.0], psi[:-2])) - np.sqrt((n + 1) / 2.0) * psi[1:]
    psi = psi[:-1]
    gap = 2.0 * np.subtract.outer(n, n)
    np.fill_diagonal(gap, 1)
    G = (np.outer(dpsi, psi) - np.outer(psi, dpsi)) / gap
    np.fill_diagonal(G, 0.5)
    G.setflags(write=False)
    return G


def checked_coeffs(c: np.ndarray) -> np.ndarray:
    """c rescaled to unit norm; refused unless |c|^2 is within _EVAL_NORM_TOL of 1."""
    n2 = float(np.dot(c, c))
    if abs(n2 - 1.0) > _EVAL_NORM_TOL:
        raise ValueError(f"Bell evaluation and sampling need a normalized state (norm^2 = {n2!r})")
    return c / math.sqrt(n2)


def check_phase(chi: float, cutoff: int, times: int = 1) -> None:
    """Refuse chi unless times * chi * cutoff, the largest phase in n (times chi), is finite."""
    if not math.isfinite(times * float(chi) * cutoff):     # floats: no overflow warning
        raise ValueError(f"chi = {chi} is " + ("too large" if math.isfinite(chi) else "not finite"))


@lru_cache(maxsize=64)
def _odd_pairs(k: int):
    """Read-only (n, m, (n - m - 1) / 2, 2 G_nm^2) over the pairs n > m of levels 0..k-1 with
    n - m odd, where G is nonzero off the diagonal, then the frequencies d and (d; 3 d); cached."""
    d = np.subtract.outer(np.arange(k), np.arange(k))
    n, m = np.nonzero((d > 0) & (d % 2 == 1))
    odd = np.arange(1.0, k - k % 2, 2.0)
    table = (n, m, (n - m - 1) // 2, 2.0 * overlap_table(k - 1)[n, m] ** 2,
             odd, np.outer((1.0, 3.0), odd))
    for a in table:
        a.setflags(write=False)
    return table


@lru_cache(maxsize=16)
def _p_plus_plus_of(coeff_bytes: bytes):
    """(P++, S) as functions of chi for the state with these coefficient bytes, by the cosine
    series of the module docstring; cached.  Checks the norm on a miss, the phase on a call."""
    c = checked_coeffs(np.frombuffer(coeff_bytes))
    n, m, half, w, odd, freqs = _odd_pairs(c.size)
    a, top = np.bincount(half, weights=w * c[n] * c[m], minlength=odd.size), c.size - 1

    def series(times, base, f, weights):          # check_phase's test, inline; it only raises
        def value(chi):
            if not math.isfinite(times * float(chi) * top):
                check_phase(chi, top, times)
            return float(base + np.vdot(np.cos(chi * f), weights))
        return value
    return series(1, 0.25 * (c @ c), odd, a), series(3, 0.5 * (c @ c), freqs, a * _CH_WEIGHTS)


def ch_matrix(k: int, chi: float) -> np.ndarray:
    """S = c^T M c on levels 0..k-1: M_nn = 1/2; M_nm = M_mn = half the S series' (n, m) term."""
    n, m, half, w, _, freqs = _odd_pairs(k)
    M = np.diag(np.full(k, 0.5))
    M[n, m] = M[m, n] = 0.5 * w * (_CH_WEIGHTS * np.cos(chi * freqs)).sum(axis=0)[half]
    return M


def p_plus_plus(v: CoefficientVector, chi: float) -> float:
    """Joint probability that both homodyne outcomes are nonnegative, at angle sum chi."""
    return _p_plus_plus_of(v.coeffs.tobytes())[0](chi)


def chsh_B(v: CoefficientVector, chi: float) -> float:
    """CHSH combination B = 3 E(chi) - E(3 chi) = 4 S - 2; |B| <= 2 for local models."""
    return 4.0 * _p_plus_plus_of(v.coeffs.tobytes())[1](chi) - 2.0


def ch_S(v: CoefficientVector, chi: float) -> float:
    """CH combination S = 3 P++(chi) - P++(3 chi); |S| <= 1 for local realism."""
    return _p_plus_plus_of(v.coeffs.tobytes())[1](chi)


def p_plus_plus_quadrature_oracle(v: CoefficientVector, chi: float) -> float:
    """2-D quadrature of |sum_n p_n psi_n(x) psi_n(y)|^2, p_n = c_n e^(i n chi), over the
    positive quadrant on the tensor product of half_line_gram's nodes: the sum factorizes
    exactly as quadrant_mass.  Never reads G; used as the closed form's oracle."""
    c = checked_coeffs(v.coeffs)
    W = half_line_gram(c.size - 1, max(12.0, math.sqrt(2.0 * c.size - 1.0) + 6.0))
    return quadrant_mass(W, c * np.exp(1j * chi * np.arange(c.size)))


@dataclass(frozen=True)
class BellReport:
    """Bell functional evaluation of one state at one angle sum; `cli` prints it."""

    chi: float
    p_pp_chi: float
    p_pp_3chi: float
    E_chi: float
    E_3chi: float
    B: float
    S: float
    cutoff: int
    provenance: str

    def __post_init__(self):
        for name in ("p_pp_chi", "p_pp_3chi"):
            p = getattr(self, name)
            if not -1e-10 <= p <= 1.0 + 1e-10:
                raise ValueError(f"{name} = {p!r} is not a probability")
        for name in ("E_chi", "E_3chi"):
            if abs(getattr(self, name)) > 1.0 + 1e-10:
                raise ValueError(f"{name} out of [-1, 1]")
        if abs(self.S - (self.B / 4.0 + 0.5)) > 1e-10:
            raise ValueError("CH/CHSH identity S = B/4 + 1/2 violated")


def bell_report(v: CoefficientVector, chi: float) -> BellReport:
    """Evaluate P++ and E at chi and 3 chi, and S and B = 4 S - 2 from the S series, so
    they equal ch_S and chsh_B bit for bit."""
    check_phase(chi, v.cutoff, 3)
    p, series = _p_plus_plus_of(v.coeffs.tobytes())
    p1, p3, s = p(chi), p(3.0 * chi), series(chi)
    return BellReport(chi=chi, p_pp_chi=p1, p_pp_3chi=p3, E_chi=4.0 * p1 - 1.0,
                      E_3chi=4.0 * p3 - 1.0, B=4.0 * s - 2.0, S=s, cutoff=v.cutoff,
                      provenance=v.provenance)
