"""Exact-arithmetic certificates for the headline numbers, in rationals only.

For odd n and even m, psi_n(0) = 0, psi_m'(0) = 0 and psi_n'(0)^2 = 2n psi_(n-1)(0)^2,
with psi_k(0)^2 = pi^(-1/2) r_k, r_k = (k-1)!!/k!!, for even k.  So the Wronskian form
of the half-line overlap gives pi G_nm^2 = n r_(n-1) r_m / (2 (n - m)^2), a rational.
At chi = pi/4 each odd d has cos(d chi) = sigma_d / sqrt2 with sigma_d = +-1, and at
xi = 1/sqrt2 each pair with n + m odd carries one more 1/sqrt2, so B = q / pi with q
rational.  These checks never read the program's overlap table.
"""

from fractions import Fraction
from math import factorial, pi, sqrt

from homodyne_bell import (PipelineConfig, catalog, ch_S, chsh_B, overgaussification_scan,
                           run_pipeline)

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
