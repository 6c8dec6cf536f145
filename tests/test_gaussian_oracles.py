"""The Bell functionals against Gaussian closed forms that share nothing with G.

The two-mode squeezed state tmss(lambda) has jointly Gaussian quadratures with
correlation rho cos(chi), rho = 2 lambda / (1 + lambda^2), so Sheppard's orthant
formula gives P++(chi) = 1/4 + asin(rho cos chi) / (2 pi) and

    B(chi) = (2 / pi) (3 asin(rho cos chi) - asin(rho cos 3 chi)).

The two-term seed (|0,0> + xi |1,1>) / sqrt(1 + xi^2) has a single cosine,
P++(chi) = 1/4 + xi cos(chi) / (pi (1 + xi^2)), so 3 cos chi - cos 3 chi =
6 cos chi - 4 cos^3 chi gives B; its maximum over xi and chi is 4 sqrt 2 / pi,
at xi = 1 and chi = pi/4.  At 64 levels the tmss rows are cut far below rounding.
"""

import numpy as np
import pytest

from homodyne_bell import chsh_B, p_plus_plus, seed, tmss

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
