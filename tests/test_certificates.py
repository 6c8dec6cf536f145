"""Exact-arithmetic certificates for the headline numbers, in rationals only.

For odd n and even m, psi_n(0) = 0, psi_m'(0) = 0 and psi_n'(0)^2 = 2n psi_(n-1)(0)^2,
with psi_k(0)^2 = pi^(-1/2) r_k, r_k = (k-1)!!/k!!, for even k.  So the Wronskian form
of the half-line overlap gives pi G_nm^2 = n r_(n-1) r_m / (2 (n - m)^2), a rational.
At chi = pi/4 each odd d has cos(d chi) = sigma_d / sqrt2 with sigma_d = +-1, and at
xi = 1/sqrt2 each pair with n + m odd carries one more 1/sqrt2, so B = q / pi with q
rational.  These checks never read the program's overlap table.

The nonnegative optimum is certified in floating point on the kernel built from those
rationals: a unit c >= 0 maximizing c^T M c with support F has c_F > 0 inside the face,
so it is a local, hence the top, eigenvector of M_FF.  The largest lambda_max(M_FF) over
the supports whose top eigenvector is strictly positive is the global optimum.
"""

from fractions import Fraction
from itertools import combinations
from math import factorial, pi, sqrt

import numpy as np
import pytest

from homodyne_bell import (PipelineConfig, catalog, ch_S, chsh_B, optimize_coefficients,
                           overgaussification_scan, run_pipeline)

XI = 1.0 / sqrt(2.0)
CHI = pi / 4.0
ITERATIONS = 3
Q_PIPELINED = Fraction(13986499535233, 2149190095536)


def ratio_of_double_factorials(k):
    """r_k = (k-1)!!/k!! for even k."""
    out = Fraction(1)
    for j in range(2, k + 1, 2):
        out *= Fraction(j - 1, j)
    return out


def pi_overlap_squared(n, m):
    """pi G_nm^2 for n - m odd."""
    odd, even = (n, m) if n % 2 else (m, n)
    return (odd * ratio_of_double_factorials(odd - 1) * ratio_of_double_factorials(even)
            / (2 * (odd - even) ** 2))


def sigma(d):
    """sqrt2 cos(d pi/4) for odd d."""
    return 1 if d % 8 in (1, 7) else -1


def pipelined_q(iterations, levels=32):
    """q = pi B of the distilled state at xi = 1/sqrt2, chi = pi/4, on the `levels` levels
    the program keeps (catalog.pipelined at cutoff 32), normalized over those levels.

    Its amplitudes are c_n ~ w_n xi^n with w_n = (n+1) L!/(L-n-1)! / L^n, L = 2^k, for
    n < min(L, levels) (catalog.pipelined); B = 8 sum_(n>m, n-m odd) c_n c_m G_nm^2
    (3 cos(d chi) - cos(3 d chi)), and xi^(n+m) (3 cos(d chi) - cos(3 d chi)) =
    (3 sigma_d - sigma_3d) / 2^((n+m+1)/2).
    """
    size = 2 ** iterations
    w = [Fraction((n + 1) * factorial(size), factorial(size - n - 1)) / size ** n
         for n in range(min(size, levels))]
    norm = sum(wn * wn / 2 ** n for n, wn in enumerate(w))
    return 8 * sum(w[n] * w[m] * pi_overlap_squared(n, m)
                   * Fraction(3 * sigma(n - m) - sigma(3 * (n - m)), 2 ** ((n + m + 1) // 2))
                   for n in range(len(w)) for m in range(n) if (n - m) % 2) / norm


def test_criterion_01_exact_certificate():
    q = pipelined_q(ITERATIONS)
    assert q == Q_PIPELINED
    b, s = float(q) / pi, 0.5 + float(q) / (4.0 * pi)
    for state in (run_pipeline(PipelineConfig(xi=XI, cutoff=24)).final_state,
                  catalog.pipelined(XI)):
        assert abs(chsh_B(state, CHI) - b) <= 2e-15
        assert abs(ch_S(state, CHI) - s) <= 2e-15
    assert round(b, 4) == 2.0715


def test_criterion_08_exact_certificate():
    # i = 6 keeps 32 of its 64 levels: the untruncated q_6 / pi is 1.2e-11 off the scan.
    # The criterion's i = 3..6 agree within 1.4e-15; i = 2 reads 2.2e-15 (5 ulps)
    q = [pipelined_q(i) for i in range(7)]
    for (i, b), qi in zip(overgaussification_scan(XI, 6), q):
        assert abs(b - float(qi) / pi) <= (2e-15 if i >= 3 else 2.5e-15)
    assert q[3] > q[4] > q[5] > q[6]
    assert max(range(7), key=q.__getitem__) == 3


def bell_matrix(n_max, chi):
    """M = 3 K(chi) - K(3 chi), K_nm = cos((n - m) chi) G_nm^2, with G_nn^2 = 1/4, G_nm = 0
    for n - m even and nonzero, and G_nm^2 = pi_overlap_squared(n, m) / pi for n - m odd."""
    k = n_max + 1
    g2 = np.diag(np.full(k, 0.25))
    for n in range(k):
        for m in range(n % 2 == 0, k, 2):
            g2[n, m] = float(pi_overlap_squared(n, m)) / pi
    d = np.subtract.outer(np.arange(k), np.arange(k))
    return (3.0 * np.cos(d * chi) - np.cos(3.0 * d * chi)) * g2


def nonnegative_optimum(M):
    """The largest lambda_max(M_FF) over supports F whose top eigenvector is strictly
    positive (up to its sign).  A repeated top eigenvalue leaves that support undecided;
    it is only an upper bound there, so the certificate fails if it could reach the optimum."""
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


@pytest.mark.parametrize("chi", [CHI, 0.5])
@pytest.mark.parametrize("n_max", [4, 6, 8, 10, 12])
def test_nonnegative_optimum_is_global(n_max, chi):
    s_star = nonnegative_optimum(bell_matrix(n_max, chi))
    vec, s, _ = optimize_coefficients(n_max, chi, objective="ch", nonnegative=True)
    assert np.all(vec.coeffs >= 0.0)
    assert abs(s - s_star) <= 1e-15
