"""Exact references for the tests, each defined once.  This module holds no tests.

For odd o and even e the Wronskian form of the half-line overlap gives the rational
pi G_oe^2 = o C(o - 1, (o - 1)/2) C(e, e/2) / (2^(o + e) (o - e)^2); G_nn = 1/2 and G_nm = 0
for n - m even and nonzero.  At chi = j pi/4, j odd, cos(d chi) = sigma(j d) / sqrt2 for odd
d.  k vacuum-heralded 50:50 steps take the seed 1 + xi z to (1 + xi z / L)^L, L = 2^k, and a
photon subtraction maps its row u_n to (n + 1) u_(n+1).  Nothing here reads the program."""

from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, factorial

import numpy as np

PI_50 = Fraction("3.1415926535897932384626433832795028841971693993751")


@lru_cache(maxsize=None)
def pi_overlap_squared(n, m):
    """pi G_nm^2, a Fraction, for n - m odd."""
    odd, even = (n, m) if n % 2 else (m, n)
    return Fraction(odd * comb(odd - 1, (odd - 1) // 2) * comb(even, even // 2),
                    2 ** (odd + even) * (odd - even) ** 2)


@lru_cache(maxsize=None)
def overlap_squared(k):
    """G o G on levels 0..k-1, each entry rounded once from pi G^2 / PI_50 (read-only)."""
    g2 = np.diag(np.full(k, 0.25))
    for n in range(k):
        for m in range(n % 2 == 0, k, 2):
            g2[n, m] = float(pi_overlap_squared(n, m) / PI_50)
    g2.flags.writeable = False
    return g2


def bell_matrix(n_max, chi):
    """M = 3 K(chi) - K(3 chi), K_nm = cos((n - m) chi) G_nm^2, on levels 0..n_max."""
    d = np.subtract.outer(np.arange(n_max + 1), np.arange(n_max + 1))
    return (3.0 * np.cos(d * chi) - np.cos(3.0 * d * chi)) * overlap_squared(n_max + 1)


def sigma(d):
    """sqrt2 cos(d pi/4) for odd d."""
    return 1 if d % 8 in (1, 7) else -1


def odd_pair_sum(c, j):
    """sum_(n>m, n-m odd) c_n c_m sigma(j (n - m)) pi G_nm^2: pi / sqrt2 times the odd
    pairs' part of c^T K(j pi/4) c."""
    return sum(c[n] * c[m] * sigma(j * (n - m)) * pi_overlap_squared(n, m)
               for n in range(len(c)) for m in range(n % 2 == 0, n, 2))


def distilled_weights(k, size, xi=1):
    """u_n xi^n, n < size, with u_n = L! / ((L - n)! L^n), L = 2^k: (1 + xi z / L)^L in
    z^n / n!, the seed after k steps F(z) -> F(z/2)^2 (Browne et al. 2003)."""
    L, x = 2 ** k, Fraction(xi)
    return [Fraction(factorial(L), factorial(L - n) * L ** n) * x ** n if n <= L
            else Fraction(0) for n in range(size)]


def subtract_photon(u):
    """(n + 1) u_(n+1): one photon subtracted from the row u, one level shorter."""
    return [(n + 1) * un for n, un in enumerate(u[1:])]


def unit_row(a):
    """The rational row a normalized at 50 digits, as doubles."""
    with localcontext() as ctx:
        ctx.prec = 50
        norm2 = sum(x * x for x in a)
        norm = (Decimal(norm2.numerator) / norm2.denominator).sqrt()
        return np.array([float(Decimal(x.numerator) / x.denominator / norm) for x in a])


def pipelined_q(iterations, levels=32):
    """q = pi B of the distilled state at xi = 1/sqrt2, chi = pi/4 on `levels` levels, as
    catalog.pipelined keeps them: c_n ~ w_n xi^n, w the photon-subtracted row, and
    B = 8 sum_(n>m, n-m odd) c_n c_m G_nm^2 (3 cos(d chi) - cos(3 d chi)), where
    xi^(n+m) cos(d chi) = sigma_d / 2^((n+m+1)/2) = sigma_d h_n h_m / (w_n w_m)."""
    w = subtract_photon(distilled_weights(iterations, levels + 1))
    h = [wn / 2 ** ((n + 1) // 2) for n, wn in enumerate(w)]
    norm = sum(wn * wn / 2 ** n for n, wn in enumerate(w))
    return 8 * (3 * odd_pair_sum(h, 1) - odd_pair_sum(h, 3)) / norm


def eigenvalues_below(Q, t):
    """How many eigenvalues of the rational symmetric Q lie below t: the negative pivots of
    an exact LDL^T of Q - t I (Sylvester's law of inertia)."""
    A = [[q - t if i == j else q for j, q in enumerate(row)] for i, row in enumerate(Q)]
    below = 0
    for j, row in enumerate(A):
        assert row[j] != 0, "a zero pivot leaves the count undecided"
        below += row[j] < 0
        for lower in A[j + 1:]:
            f = lower[j] / row[j]
            for i in range(j + 1, len(A)):
                lower[i] -= f * row[i]
    return below


def top_eigenvalue(Q, width):
    """A bracket [lo, hi), hi - lo <= width, of the top eigenvalue of the rational symmetric
    Q, bisected from its largest diagonal entry (a Rayleigh quotient) and Gershgorin's bound."""
    lo, hi = max(row[i] for i, row in enumerate(Q)), max(sum(map(abs, row)) for row in Q)
    assert eigenvalues_below(Q, hi) == len(Q)
    while hi - lo > width:
        mid = (lo + hi) / 2
        lo, hi = (lo, mid) if eigenvalues_below(Q, mid) == len(Q) else (mid, hi)
    return lo, hi


def nonnegative_optimum(M):
    """max c^T M c over unit c >= 0: the largest lambda_max(M_FF) over the supports F whose
    top eigenvector is strictly positive, since the optimum's c_F is that eigenvector.  The
    certificate fails if a repeated top eigenvalue leaves a support near it undecided."""
    best, undecided = -np.inf, []
    for size in range(1, len(M) + 1):
        faces = np.array(list(combinations(range(len(M)), size)))
        w, V = np.linalg.eigh(M[faces[:, :, None], faces[:, None, :]])
        top = V[:, :, -1] * np.sign(V[:, :1, -1])
        repeated = w[:, -1] - w[:, -2] <= 1e-12 if size > 1 else np.zeros(len(faces), bool)
        positive = ~repeated & np.all(top > 0.0, axis=1)
        best = max(best, w[positive, -1].max(initial=-np.inf))
        undecided += [(tuple(f), t) for f, t in zip(faces[repeated], w[repeated, -1])]
    reaching = [(f, t) for f, t in undecided if t >= best - 1e-9]
    assert not reaching, f"repeated top eigenvalue of M_FF near the optimum: {reaching[:4]}"
    return best
