"""Exact-arithmetic certificates for the headline numbers: at chi = pi/4 and xi = 1/sqrt2,
B = q / pi with q rational (`exact.pipelined_q`), and the nonnegative optimum, certified in
floating point on the exact kernel.  None of them reads the program's overlap table."""

from decimal import Decimal, localcontext
from fractions import Fraction
from math import pi, sqrt

import numpy as np
import pytest

from exact import (PI_50, bell_matrix, nonnegative_optimum, pi_overlap_squared, pipelined_q,
                   sigma, top_eigenvalue)
from homodyne_bell import (PipelineConfig, catalog, ch_S, chsh_B, optimize_coefficients,
                           overgaussification_scan, run_pipeline)

XI = 1.0 / sqrt(2.0)
CHI = pi / 4.0
ITERATIONS = 3
Q_PIPELINED = Fraction(13986499535233, 2149190095536)


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


def test_criterion_03_exact_bracket():
    # At chi = pi/4, M = I/2 + Q / (sqrt2 pi) with Q_nm = pi G_nm^2 (3 sigma_d - sigma_3d)
    # rational, so S* = 1/2 + lambda_max(Q) / (sqrt2 pi) and B* = (2 sqrt2 / pi) lambda_max(Q).
    # The program reads 8.0e-16 above the bracket in B and 2.0e-16 in S
    n_max = 10
    Q = [[pi_overlap_squared(n, m) * (3 * sigma(n - m) - sigma(3 * (n - m))) if (n - m) % 2
          else Fraction(0) for m in range(n_max + 1)] for n in range(n_max + 1)]
    bracket = top_eigenvalue(Q, Fraction(1, 10 ** 18))
    with localcontext() as ctx:
        ctx.prec = 50
        unit = 1 / (Decimal(2).sqrt() * Decimal(PI_50.numerator) / PI_50.denominator)
        lam = [Decimal(x.numerator) / x.denominator for x in bracket]
        b_star, s_star = [4 * unit * x for x in lam], [Decimal("0.5") + unit * x for x in lam]
        b = optimize_coefficients(n_max, CHI)[1]
        s = optimize_coefficients(n_max, CHI, objective="ch")[1]
        assert max(b_star[0] - Decimal(b), Decimal(b) - b_star[1], 0) <= Decimal("1e-15")
        assert max(s_star[0] - Decimal(s), Decimal(s) - s_star[1], 0) <= Decimal("5e-16")
    assert f"{float(b_star[0]):.12g}" == "2.09195442894"      # as `bell` prints the optimum


@pytest.mark.parametrize("chi", [CHI, 0.5])
@pytest.mark.parametrize("n_max", [4, 6, 8, 10, 12])
def test_nonnegative_optimum_is_global(n_max, chi):
    s_star = nonnegative_optimum(bell_matrix(n_max, chi))
    vec, s, _ = optimize_coefficients(n_max, chi, objective="ch", nonnegative=True)
    assert np.all(vec.coeffs >= 0.0)
    assert abs(s - s_star) <= 1e-15
