"""The Bell functionals against Gaussian closed forms that share nothing with G.

The two-mode squeezed state tmss(lambda) has jointly Gaussian quadratures with
correlation rho cos(chi), rho = 2 lambda / (1 + lambda^2), so Sheppard's orthant
formula gives P++(chi) = 1/4 + asin(rho cos chi) / (2 pi) and

    B(chi) = (2 / pi) (3 asin(rho cos chi) - asin(rho cos 3 chi)).

The two-term seed (|0,0> + xi |1,1>) / sqrt(1 + xi^2) has a single cosine,
P++(chi) = 1/4 + xi cos(chi) / (pi (1 + xi^2)), so 3 cos chi - cos 3 chi =
6 cos chi - 4 cos^3 chi gives B; its maximum over xi and chi is 4 sqrt 2 / pi,
at xi = 1 and chi = pi/4.  At 64 levels the tmss rows are cut far below rounding.

Stage 1's herald has a closed form too.  After both splitters the four modes hold
the pure Gaussian (1 - lambda^2) exp(a^T A a / 2)|0> over creation operators, with
A = S^T A0 S: A0 holds lambda on the pairs (a, d) and (b, c), and S writes
a -> T a - R c, c -> R a + T c and the same for (b, d).  Vacuum on a detected set
has probability (1 - lambda^2)^2 / sqrt(det(I - A_RR^2)) over the other modes R, so
both detectors click with 1 - P_c - P_d + P_cd (Quesada et al., PRA 100, 022341
(2019)).  Nothing is truncated, so it bounds what the cutoff-4 simulation loses.
"""

import math

import numpy as np
import pytest

from homodyne_bell import chsh_B, p_plus_plus, seed, stage1_transmissivity, stage1_verify, tmss

ANGLES = np.linspace(0.0, np.pi, 181)
CHI = np.pi / 4


def sheppard_p_plus_plus(lam, chi):
    rho = 2.0 * lam / (1.0 + lam * lam)
    return 0.25 + np.arcsin(rho * np.cos(chi)) / (2.0 * np.pi)


@pytest.mark.parametrize("lam", [0.1, 0.3, 0.5, 0.6])
def test_tmss_p_plus_plus_is_sheppards_orthant_probability(lam):
    v = tmss(lam, 64)
    got = np.array([p_plus_plus(v, float(chi)) for chi in ANGLES])
    assert np.max(np.abs(got - sheppard_p_plus_plus(lam, ANGLES))) <= 1e-15


@pytest.mark.parametrize("lam", [0.1, 0.3, 0.5, 0.6])
def test_tmss_chsh_is_the_arcsine_combination(lam):
    v = tmss(lam, 64)
    rho = 2.0 * lam / (1.0 + lam * lam)
    want = (2.0 / np.pi) * (3.0 * np.arcsin(rho * np.cos(ANGLES))
                            - np.arcsin(rho * np.cos(3.0 * ANGLES)))
    got = np.array([chsh_B(v, float(chi)) for chi in ANGLES])
    assert np.max(np.abs(got - want)) <= 4e-15


@pytest.mark.parametrize("xi", [0.0, 0.3, 1 / np.sqrt(2), 1.0, 2.0, 3.0])
def test_seed_chsh_is_a_cubic_in_cos_chi(xi):
    v = seed(xi, 8)
    c = np.cos(ANGLES)
    want = 4.0 * xi / (np.pi * (1.0 + xi * xi)) * (6.0 * c - 4.0 * c ** 3)
    got = np.array([chsh_B(v, float(chi)) for chi in ANGLES])
    assert np.max(np.abs(got - want)) <= 1e-14


def test_criterion_5_seed_maximum_is_four_root_two_over_pi():
    # the seed grid of acceptance criterion 5, which holds xi = 1 exactly
    seed_max = max(chsh_B(seed(float(xi), cutoff=8), CHI) for xi in np.arange(0.0, 3.001, 0.1))
    assert abs(seed_max - 4.0 * np.sqrt(2.0) / np.pi) <= 1e-14


def determinant_herald(xi, lam):
    """P(both stage-1 detectors click) from the determinants, in float64 as
    expm1(l_c) expm1(l_d) + exp(l_c + l_d) expm1(l_cd - l_c - l_d), l_V = log P_V from log1p
    of the eigenvalues of A_RR.  The last difference cancels down to O(lambda^4): 9e-14
    relative at lambda = 0.05, 1.4e-11 at 0.004, so it is used from 0.05 up."""
    t = stage1_transmissivity(xi, lam)
    r = -math.sqrt(1.0 - t * t)
    a0 = np.zeros((4, 4))                               # modes a, b, c, d
    a0[0, 3] = a0[3, 0] = a0[1, 2] = a0[2, 1] = lam
    s = np.array([[t, 0, -r, 0], [0, t, 0, -r], [r, 0, t, 0], [0, r, 0, t]])
    a = s.T @ a0 @ s

    def log_vacuum(rest):
        mu = np.linalg.eigvalsh(a[np.ix_(rest, rest)])
        return 2.0 * math.log1p(-lam * lam) - 0.5 * float(np.sum(np.log1p(-mu * mu)))

    l_c, l_d, l_cd = log_vacuum([0, 1, 3]), log_vacuum([0, 1, 2]), log_vacuum([0, 1])
    return math.expm1(l_c) * math.expm1(l_d) + math.exp(l_c + l_d) * math.expm1(l_cd - l_c - l_d)


@pytest.mark.parametrize("xi", [0.3, 0.7071, 1.2])
def test_stage1_reported_losses_cover_its_herald_shortfall(xi):
    # the shortfall of the cutoff-4 herald was 0.007 to 0.35 of the two losses here
    for lam in np.arange(5, 28) / 100.0:
        try:
            rep = stage1_verify(xi, lam)
        except ValueError:                              # leaks past the cutoff: refused
            assert lam >= 0.26
            break
        shortfall = determinant_herald(xi, lam) - rep.success_probability
        assert shortfall <= rep.truncated_mass + rep.input_dropped_mass


def test_stage1_splitter_loss_alone_misses_the_shortfall():
    # at xi = 0.7071, lambda = 0.2 the herald is 3.72e-8 short, the splitters' cut 2.98e-8
    rep = stage1_verify(0.7071, 0.2)
    shortfall = determinant_herald(0.7071, 0.2) - rep.success_probability
    assert rep.truncated_mass < shortfall <= rep.truncated_mass + rep.input_dropped_mass
    assert abs(shortfall - 3.72e-8) < 5e-11 and abs(rep.truncated_mass - 2.98e-8) < 5e-11
    assert rep.input_dropped_mass == 0.2 ** 10 * (2.0 - 0.2 ** 10)
