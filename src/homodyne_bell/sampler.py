"""Monte Carlo emulation of the two-party homodyne record.

Pairs (x_A, x_B) come from the Born density
|sum_n c_n e^(i n chi) psi_n(x_A) psi_n(x_B)|^2 on 2^14 cells of bell.CELL_WIDTH
over [-12, 12].  Only signs enter the Bell functionals.  Per (state, chi) the
sampler keeps the four quadrant masses Re(p^H (W_sA o W_sB) p), p = c o e^(i n chi),
from W+ = bell.half_line_gram over the cells of x >= 0 (two Gauss-Legendre nodes
per cell, error O(dx^4): the masses match the closed form P++ to about 1e-15),
cached there, so the plans at chi and 3 chi of a state share it.  By parity
W- = (-1)^(n+m) W+, so A+B+ = A-B- and A+B- = A-B+ are bell.quadrant_mass of W+
at p and at p o (-1)^n; a state the grid holds less than 1 - 1e-9 of is refused.
The sign counts of n i.i.d. pairs are then exactly Multinomial(n, quadrant
masses), one 4-category draw for any n.  Raw pairs, made only on request, read the
table P(x_A in cell, sign x_B), built then as sums of squares from a factor of W+
(so no cell's mass is rounding below 0) with its x_B < 0 column the mirror image of
its x_B >= 0 one, and start from per-cell counts drawn given the counts (each
quadrant's count spread over its cells by a multinomial, their exact conditional
law).  One level down the same step spreads each (cell, half-line)'s count over
128-point blocks of x_B, in proportion to the blocks' weights within that half, and
x_B inverts its block's own CDF of point weights at the cell's midpoint, so a half
with little mass keeps its precision; x_A is uniform inside its cell.  The pairs
are then shuffled; drawn after the counts, they never change them.  The counts, per
quadrant and per x_A cell, follow the exact law; a raw pair inside its cells does not
follow the Born density (x_A uniform, x_B from point weights at the cell midpoints).
The sampler never reuses the closed-form overlap table, so it stays an independent
check on it.

Randomness comes from numpy's counter-based Philox engine; the algorithm name
is recorded in each batch, and a batch is a pure function of its seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .bell import (CELL_WIDTH, cell_nodes, check_phase, checked_coeffs, half_line_gram,
                   hermite_basis, quadrant_mass)
from .fock_core import CoefficientVector

GENERATOR_NAME = "philox4x64"
GRID_POINTS = 2 ** 14
GRID_HALF_WIDTH = GRID_POINTS // 2 * CELL_WIDTH      # 12.0
_MASS_TOL = 1e-9          # largest share of the state's mass the grid may miss
_ROW_CHUNK = 256          # drawn cells whose x_B are inverted at once when making raw pairs
_BLOCK = 128              # grid points per block: x_B drawn by block, then inside it


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """Sign-binned counts of one seeded batch at one angle sum chi."""

    seed: int
    n_samples: int
    chi: float
    counts: np.ndarray            # 2x2, rows = A sign (+,-), cols = B sign (+,-)
    samples: np.ndarray | None = None   # optional raw (x_A, x_B) pairs
    generator = GENERATOR_NAME          # the engine of every batch

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.int64)
        if c.shape != (2, 2) or int(c.sum()) != self.n_samples:
            raise ValueError("counts must form a 2x2 table summing to n_samples")
        c.setflags(write=False)
        object.__setattr__(self, "counts", c)

    def correlation(self) -> float:
        c = self.counts
        return float(c[0, 0] + c[1, 1] - c[0, 1] - c[1, 0]) / self.n_samples


class _SamplerPlan:
    """Quadrant masses for one (state, chi) from W+; the cell table on first raw-pair use."""

    half = GRID_POINTS // 2                       # first cell of x >= 0

    def __init__(self, coeffs: np.ndarray, chi: float):
        k = coeffs.size
        self.phase = coeffs * np.exp(1j * chi * np.arange(k))
        # W+ over the grid's x >= 0 cells; psi_n has parity (-1)^n, so W- = parity o W+ and
        # quadrant (s_A, s_B) holds Re(p^H (W_sA o W_sB) p), p = phase: A-B- is A+B+ and
        # A-B+ is A+B-, the mass of W+ at p o (-1)^n
        self.w_plus = half_line_gram(k - 1, GRID_HALF_WIDTH)
        same = quadrant_mass(self.w_plus, self.phase)
        cross = quadrant_mass(self.w_plus, self.phase * (-1.0) ** np.arange(k))
        masses = np.array([same, cross, cross, same])        # A+B+, A+B-, A-B+, A-B-
        lost = 1.0 - masses.sum() / np.dot(coeffs, coeffs)
        if lost > _MASS_TOL:
            raise ValueError(f"the sampling grid [-{GRID_HALF_WIDTH:g}, {GRID_HALF_WIDTH:g}] "
                             f"misses {lost:.3g} of the state's quadrature mass "
                             f"(limit {_MASS_TOL:g})")
        self.quadrants = masses / masses.sum()

    @cached_property
    def edges(self) -> np.ndarray:
        """Cell edges of the grid, exact multiples of CELL_WIDTH; raw pairs only."""
        return (np.arange(GRID_POINTS + 1) - GRID_POINTS // 2) * CELL_WIDTH

    @cached_property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])

    @cached_property
    def joint(self) -> np.ndarray:
        """joint[cell, s] = P(x_A in cell, sign x_B = s), s = x_B >= 0, x_B < 0."""
        # Re(a^H W+ a) for a = phase o v is v^T (P o W+) v, P = Re(conj(phase) phase^T) =
        # r r^T + i i^T (r, i the real and imaginary parts); with W+ = L L^T it is
        # ||[r o L, i o L]^T v||^2: never below 0, where v^T (P o W+) v takes a cell's mass
        # of ~1e-21 to +-1e-19 of rounding, and a clip of it to 0 shifts every later draw
        lam, U = np.linalg.eigh(self.w_plus)
        L = U * np.sqrt(np.clip(lam, 0.0, None))
        A = np.hstack([self.phase.real[:, None] * L, self.phase.imag[:, None] * L]).T @ \
            hermite_basis(self.phase.size - 1, cell_nodes(self.centers))
        plus = np.einsum("jc,jc->c", A, A).reshape(-1, 2).sum(axis=1)
        # |amp(-x, -y)| = |amp(x, y)| and the grid is symmetric: a cell's x_B < 0 mass is
        # its mirror cell's x_B >= 0 mass
        joint = np.column_stack([plus, plus[::-1]])
        return joint / joint.sum()

    def cell_counts(self, counts, rng):
        """Per-cell counts m and m_minus (x_B < 0) given the 2x2 quadrant counts, by their
        exact conditional law: each quadrant's count spread over its cells in proportion
        to their joint mass with the quadrant's x_B sign."""
        signs = np.empty(self.joint.shape, dtype=np.int64)
        for (a, s), n_q in np.ndenumerate(counts):
            cells = slice(self.half, None) if a == 0 else slice(self.half)
            signs[cells, s] = rng.multinomial(n_q, self.joint[cells, s] / self.quadrants[2 * a + s])
        return signs.sum(axis=1), signs[:, 1]

    def invert(self, prev, at, idx, u):
        """Point in cell idx where a CDF rising from prev to at reaches u.

        Cells are half-open, so a draw in a cell left of 0 stays negative."""
        span = at - prev
        frac = np.where(span > 0, (u - prev) / np.where(span > 0, span, 1.0), 0.5)
        x = self.edges[idx] + np.clip(frac, 0.0, 1.0) * CELL_WIDTH
        return np.where(idx < self.half, np.minimum(x, -np.finfo(float).tiny), x)

    def raw_pairs(self, m, m_minus, rng):
        """n = sum(m) shuffled (x_A, x_B) pairs with m[i] in cell i, m_minus[i] of them with
        x_B < 0: x_A uniform in its cell, x_B from the point weights at the cell's midpoint
        on its counted half-line.  Given a (cell, half) and its count, the pairs' blocks of
        _BLOCK grid points are i.i.d. with the blocks' weights normalized over that half, so
        the block counts are one multinomial, as the cell counts are one level up; each pair
        then inverts its block's own CDF: O(drawn cells * blocks * k^2 + distinct
        (cell, block) * _BLOCK * k), where full rows cost O(drawn cells * 2^14 * k)."""
        halves = np.column_stack([m_minus, m - m_minus])          # x_B < 0, x_B >= 0
        ia = np.repeat(np.repeat(np.arange(m.size), 2), halves.ravel())   # sorted by cell
        xy = np.empty((ia.size, 2))
        xy[:, 0] = self.invert(0.0, 1.0, ia, rng.random(ia.size))
        u_b, order = rng.random(ia.size), rng.permutation(ia.size)
        V = hermite_basis(self.phase.size - 1, self.centers)
        k, nb = V.shape[0], self.centers.size // _BLOCK
        # block weights v^T Q_b v with Q_b = P o (V_b V_b^T) = R_b^T R_b, taken as ||R_b v||^2:
        # never < 0, and as exact as point weights where a block holds ~0 (v^T Q_b v is not)
        R = np.linalg.qr(V.T.reshape(nb, _BLOCK, k), mode="r")
        R = np.linalg.qr(np.concatenate([R * self.phase.real, R * self.phase.imag], 1), mode="r")
        cells = np.flatnonzero(m)
        for i in range(0, cells.size, _ROW_CHUNK):
            chunk = cells[i:i + _ROW_CHUNK]
            pick = slice(np.searchsorted(ia, chunk[0]), np.searchsorted(ia, chunk[-1], "right"))
            v = V[:, chunk]
            w = (R.reshape(-1, k) @ v).reshape(nb, -1, chunk.size)  # (block, R_b row, cell)
            p = np.einsum("bkc,bkc->cb", w, w).reshape(chunk.size, 2, nb // 2)
            del w                 # freed before the point rows, which can then reuse it
            # per (cell, block) counts, in the pairs' order: by cell, x_B < 0 first, by block
            counts = rng.multinomial(halves[chunk], p / p.sum(axis=2, keepdims=True)).ravel()
            keys = np.flatnonzero(counts)               # drawn (cell, block), as cell * nb + b
            kr, kb = np.divmod(keys, nb)
            g = np.repeat(np.arange(keys.size), counts[keys])
            # the CDF inside each drawn (cell, block), one product per block
            a, rows = self.phase[:, None] * v[:, kr], np.empty((keys.size, _BLOCK))
            for blk in np.flatnonzero(np.bincount(kb)):
                at, pts = kb == blk, V[:, blk * _BLOCK:(blk + 1) * _BLOCK]
                rows[at] = (a[:, at].real.T @ pts) ** 2 + (a[:, at].imag.T @ pts) ** 2
            np.cumsum(rows, axis=1, out=rows)
            rows /= rows[:, -1:]
            j = _lower_bound_rows(rows, g, u_b[pick], 0, _BLOCK - 1)
            xy[pick, 1] = self.invert(np.where(j > 0, rows[g, j - 1], 0.0), rows[g, j],
                                     kb[g] * _BLOCK + j, u_b[pick])
        return xy[order]


@lru_cache(maxsize=4)
def _plan_for(coeff_bytes: bytes, chi: float) -> _SamplerPlan:
    coeffs = np.trim_zeros(np.frombuffer(coeff_bytes), "b")       # occupied levels
    return _SamplerPlan(coeffs, chi)


def _lower_bound_rows(rows: np.ndarray, row_idx: np.ndarray, targets: np.ndarray,
                      lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Vectorized per-row binary search: first j in [lo, hi] with rows[r, j] >= t, else hi."""
    while np.any(lo < hi):
        mid = (lo + hi) // 2
        below = rows[row_idx, mid] < targets
        lo = np.where(below, mid + 1, lo)
        hi = np.where(below, hi, mid)
    return lo


def sample_joint(v: CoefficientVector, chi: float, n: int, seed: int,
                 keep_samples: bool = False) -> SampleBatch:
    """Sign-binned counts of n i.i.d. quadrature pairs, one 4-category draw in O(1).

    Deterministic for a given seed; only the angle sum chi enters the statistics.
    """
    c = v.coeffs
    checked_coeffs(c)                         # refused as bell refuses it, sampled as given
    if not 1 <= n <= 2 ** 63 - 1:
        raise ValueError(f"n = {n} pairs is outside [1, 2**63 - 1]")
    check_phase(chi, c.size - 1)
    plan = _plan_for(c.tobytes(), float(chi))
    rng = np.random.Generator(np.random.Philox(seed))
    counts = rng.multinomial(n, plan.quadrants).reshape(2, 2)
    samples = plan.raw_pairs(*plan.cell_counts(counts, rng), rng) if keep_samples else None
    return SampleBatch(seed=seed, n_samples=n, chi=float(chi), counts=counts,
                       samples=samples)


@dataclass(frozen=True)
class BEstimate:
    """Sampled CHSH estimate with its standard error."""

    b: float
    stderr: float
    batch_chi: SampleBatch
    batch_3chi: SampleBatch


def estimate_B(v: CoefficientVector, chi: float, n: int, seed: int) -> BEstimate:
    """Estimate B = 3 E(chi) - E(3 chi) from two independent sampled batches.

    Child seeds are spawned deterministically from `seed`; the standard error
    combines the binomial variances (1 - E^2)/n of the two correlations.
    """
    check_phase(chi, v.cutoff, 3)
    child_a, child_b = (int(s) for s in
                        np.random.SeedSequence(seed).generate_state(2, dtype=np.uint64))
    batch1 = sample_joint(v, chi, n, seed=child_a)
    batch3 = sample_joint(v, 3.0 * chi, n, seed=child_b)
    e1, e3 = batch1.correlation(), batch3.correlation()
    var = 9.0 * (1.0 - e1 * e1) / n + (1.0 - e3 * e3) / n
    return BEstimate(b=3.0 * e1 - e3, stderr=float(np.sqrt(var)),
                     batch_chi=batch1, batch_3chi=batch3)
