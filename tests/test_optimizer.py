import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.chebyshev import chebinterpolate, chebroots

from homodyne_bell import (
    CoefficientVector,
    bell,
    catalog,
    ch_S,
    chsh_B,
    optimize_angle,
    optimize_coefficients,
    optimize_family_parameter,
    optimizer,
    seed,
)
from test_certificates import bell_matrix

CHI = np.pi / 4
# The N = 10 ceiling at chi = pi/4, from an independent eigen solve of the kernel
# built on the Wronskian closed form of the overlap table (bench/reference.py).
B_STAR_10, S_STAR_10 = 2.0919544289398, 1.0229886072350
# Nonnegative CHSH optima that a 34-start L-BFGS-B search reached; the exact
# face solve must not fall below them.
NONNEG_B = {4: 2.0782271340989933, 8: 2.0782271340989915, 10: 2.081083633425389,
            12: 2.083191772455937, 16: 2.0831917724419036}


def reference_matrix(n_max, chi):
    """M = 3 K(chi) - K(3 chi), never from the program's table: test_certificates.bell_matrix
    (rational pi G_nm^2) up to N = 32; above it the same closed form in floats,
    pi G_nm^2 = o r_(n - n % 2) r_(m - m % 2) / (2 (n - m)^2) with o the odd one of n, m."""
    if n_max <= 32:
        return bell_matrix(n_max, chi)
    n = np.arange(n_max + 1)
    r = np.cumprod(np.r_[1.0, 1.0 - 0.5 / np.arange(1, n_max // 2 + 1)])[n // 2]
    d = np.subtract.outer(n, n)
    g2 = np.where(d % 2, np.maximum.outer(n % 2 * n, n % 2 * n) * np.outer(r, r), 0.0)
    g2 = g2 / (2.0 * np.pi * np.maximum(d * d, 1)) + np.eye(n_max + 1) / 4.0
    return (3.0 * np.cos(d * chi) - np.cos(3.0 * d * chi)) * g2


def test_vacuum_only_problem():
    vec, value, _ = optimize_coefficients(0, CHI)
    assert np.allclose(vec.coeffs, [1.0])
    assert abs(value) < 1e-12


def test_chsh_optimum_at_n10_beats_threshold():
    vec, value, history = optimize_coefficients(10, CHI)
    assert abs(value - B_STAR_10) < 1e-10
    assert abs(chsh_B(vec, CHI) - value) < 1e-12
    assert history == (value,)


def test_exact_optimum_grows_with_cutoff_and_is_stationary_at_pi_over_4():
    # B*(pi/4, N) runs 2.07823 (N = 4) -> 2.10188 (N = 128); more levels can only help
    cutoffs = (4, 8, 10, 16, 32, 64, 128)
    values = [optimize_coefficients(n, CHI)[1] for n in cutoffs]
    assert all(b <= later for b, later in zip(values, values[1:]))
    assert values[0] > 2.078 and values[-1] < 2.102
    h = 1e-5
    for n in cutoffs:
        def top(chi):
            M = reference_matrix(n, chi)
            return np.linalg.eigvalsh(M)[-1]
        assert abs(top(CHI + h) - top(CHI - h)) / (2 * h) <= 1e-7


@pytest.mark.parametrize("n_max", [10, 32, 64])
def test_ch_matrix_matches_the_reference_matrix(n_max):
    # the program's G^2 sits up to 1.1e-16 from the rational pi G_nm^2 / pi at N = 32, and
    # |3 cos(d chi) - cos(3 d chi)| <= 2 sqrt2 scales it: 3.3e-16 at most, as for 3 K - K3
    for chi in (CHI, 0.3, 1.1):
        M = bell.ch_matrix(n_max + 1, chi)
        assert np.max(np.abs(M - reference_matrix(n_max, chi))) <= 4e-16


def test_ch_optimum_at_n10():
    vec, value, _ = optimize_coefficients(10, CHI, objective="ch")
    assert abs(value - S_STAR_10) < 1e-10
    assert abs(ch_S(vec, CHI) - value) < 1e-12


def test_objectives_share_their_optimum():
    _, b_star, _ = optimize_coefficients(8, CHI)
    _, s_star, _ = optimize_coefficients(8, CHI, objective="ch")
    assert abs(s_star - (b_star / 4.0 + 0.5)) < 1e-12


def test_optimum_reproducible_across_reruns():
    vec1, val1, _ = optimize_coefficients(6, CHI)
    vec2, val2, _ = optimize_coefficients(6, CHI)
    assert val1 == val2
    assert np.array_equal(vec1.coeffs, vec2.coeffs)


def test_canonical_sign_and_label():
    vec, _, _ = optimize_coefficients(6, CHI)
    nz = np.flatnonzero(np.abs(vec.coeffs) > 1e-12)
    assert vec.coeffs[nz[0]] >= 0.0
    assert vec.provenance.startswith("optimized(CHSH, N=6, chi=0.78539816")


def test_unknown_objective_rejected():
    with pytest.raises(ValueError):
        optimize_coefficients(4, CHI, objective="bell")
    with pytest.raises(ValueError):
        optimize_family_parameter("circle", CHI, objective="bell")
    with pytest.raises(ValueError):
        optimize_angle(seed(0.7, cutoff=4), objective="CHSH")


def test_nonnegative_constraint():
    vec, value, _ = optimize_coefficients(10, CHI, nonnegative=True)
    assert np.all(vec.coeffs >= 0.0)
    assert abs(chsh_B(vec, CHI) - value) < 1e-12
    # the constraint binds: the free optimum has mixed signs
    assert value < B_STAR_10 - 1e-3


@pytest.mark.parametrize("n_max", sorted(NONNEG_B))
def test_nonnegative_optimum_is_feasible_and_bounded(n_max):
    _, b_free, _ = optimize_coefficients(n_max, CHI)
    vec, b_nonneg, _ = optimize_coefficients(n_max, CHI, nonnegative=True)
    _, s_nonneg, _ = optimize_coefficients(n_max, CHI, objective="ch", nonnegative=True)
    assert np.all(vec.coeffs >= 0.0)
    assert NONNEG_B[n_max] - 1e-10 <= b_nonneg <= b_free + 1e-12
    assert abs(s_nonneg - (b_nonneg / 4.0 + 0.5)) < 1e-10


def _lbfgs_face_oracle(M):
    """The nonnegative optimum as scipy's L-BFGS-B finds it from the absolute free
    optimum, then solved on the face it ends on where that face's top eigenvector
    is positive; an independent route to the same ceiling."""
    import scipy.optimize

    def negated(x):
        mx, n2 = M @ x, float(x @ x)
        q = float(x @ mx) / n2
        return -q, (2.0 * q * x - 2.0 * mx) / n2

    c = scipy.optimize.minimize(negated, np.abs(np.linalg.eigh(M)[1][:, -1]), jac=True,
                                method="L-BFGS-B", bounds=[(0.0, None)] * len(M),
                                options={"maxiter": 10_000, "ftol": 1e-12}).x
    face = c > 0.0
    top = np.linalg.eigh(M[np.ix_(face, face)])[1][:, -1]
    top *= np.sign(top.sum())
    if np.all(top > 0.0):
        c = np.zeros(len(M))
        c[face] = top
    return float(c @ M @ c) / float(c @ c)


@pytest.mark.parametrize("n_max", [4, 8, 10, 12, 16, 24, 32])
def test_nonnegative_optimum_is_a_certified_kkt_point(n_max):
    # angles in the domain optimize_angle searches, (0, pi/2]
    for chi in [CHI, *np.random.default_rng(n_max).uniform(0.05, np.pi / 2, 3)]:
        M = reference_matrix(n_max, chi)
        vec, s, _ = optimize_coefficients(n_max, chi, objective="ch", nonnegative=True)
        c = vec.coeffs
        face = c > 0.0
        assert np.all(c >= 0.0)
        assert abs(ch_S(vec, chi) - s) < 1e-12
        assert np.max(np.abs(M[np.ix_(face, face)] @ c[face] - s * c[face])) < 1e-12
        assert np.all((M @ c)[~face] <= 1e-12)
        assert s >= _lbfgs_face_oracle(M) - 1e-13


def test_nonnegative_ascent_certifies_integer_matrices():
    # small integer matrices have the ties, exact zeros and saddles the Bell
    # kernel avoids: a face eigenvector with a zero entry, |v_top| a minimizer
    rng = np.random.default_rng(5)
    for _ in range(400):
        k = int(rng.integers(2, 8))
        R = rng.integers(-3, 4, (k, k)).astype(float)
        M = (R + R.T) / 2.0
        w, V = np.linalg.eigh(M)
        c = optimizer._nonnegative_top(M, w[0], V[:, -1], 0.0)
        face, s = c > 0.0, float(c @ M @ c)
        assert np.all(c >= 0.0) and abs(np.linalg.norm(c) - 1.0) < 1e-14
        assert np.max(np.abs(M[np.ix_(face, face)] @ c[face] - s * c[face])) < 1e-12
        assert s >= np.linalg.eigvalsh(M[np.ix_(face, face)])[-1] - 1e-12
        assert np.all((M @ c)[~face] <= 1e-12)


def test_nonnegative_ascent_at_its_step_cap_names_n_and_chi(monkeypatch):
    # N = 10 at pi/4 settles its support after about 20 steps
    monkeypatch.setattr(optimizer, "_ASCENT_STEPS", 1)
    with pytest.raises(RuntimeError, match=r"within 1 steps \(N=10, chi=0\.785"):
        optimize_coefficients(10, CHI, nonnegative=True)


@pytest.mark.parametrize("chi", [0.0, -0.3, np.pi / 2 + 1e-9, 2.3044])
def test_nonnegative_optimum_refuses_angles_outside_its_domain(chi):
    # at N = 6, chi = 2.3044 the ascent certified S = 0.5544 where a multi-start
    # search reaches 0.5786
    with pytest.raises(ValueError, match=re.escape(f"chi = {chi!r}")):
        optimize_coefficients(6, chi, objective="ch", nonnegative=True)
    optimize_coefficients(6, chi, objective="ch")      # the free optimum is exact anywhere


@pytest.mark.parametrize("chi", [CHI, np.pi / 2])
def test_nonnegative_optimum_keeps_its_domain(chi):
    vec, s, _ = optimize_coefficients(6, chi, objective="ch", nonnegative=True)
    assert np.all(vec.coeffs >= 0.0) and abs(ch_S(vec, chi) - s) < 1e-12


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("chi, why", [(1e308, "too large"), (-1e308, "too large"),
                                      (np.nan, "not finite"), (np.inf, "not finite")])
def test_optimizers_refuse_a_chi_whose_phase_overflows(chi, why):
    # only the CLI refused these: at 1e308 the coefficient search warned, then raised
    # LinAlgError, and the family search returned (1.1767997331878102, nan), as at nan
    refused = rf"^chi = {re.escape(str(chi))} is {why}$"
    with pytest.raises(ValueError, match=refused):
        optimize_coefficients(10, chi)
    with pytest.raises(ValueError, match=refused):
        optimize_family_parameter("circle", chi)


def test_large_dimension_is_solved():
    vec, value, _ = optimize_coefficients(24, CHI)
    assert vec.cutoff == 24
    assert abs(chsh_B(vec, CHI) - value) < 1e-12
    assert value > B_STAR_10


def test_optimum_grows_with_dimension():
    # N acts as a convergence knob: enlarging the basis never hurts
    values = [optimize_coefficients(n, CHI)[1] for n in (2, 4, 6, 8, 10, 12)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    assert values[0] > 2.0


@settings(max_examples=25, deadline=None)
@given(n_max=st.integers(0, 12), chi=st.floats(-np.pi, np.pi),
       raw=st.lists(st.floats(-1.0, 1.0), min_size=13, max_size=13))
def test_no_state_beats_the_eigen_optimum(n_max, chi, raw):
    c = np.array(raw[:n_max + 1])
    if np.linalg.norm(c) < 1e-3:
        c[0] = 1.0
    v = CoefficientVector(c / np.linalg.norm(c), normalized=True)
    _, b_star, _ = optimize_coefficients(n_max, chi)
    assert chsh_B(v, chi) <= b_star + 1e-12


def test_circle_family_optimum():
    r_star, b_star = optimize_family_parameter("circle", CHI)
    assert abs(r_star - 1.12) <= 0.05
    assert b_star > 2.0


def test_tmss_family_never_violates():
    _, b_star = optimize_family_parameter("tmss", CHI)
    assert b_star <= 2.0 + 1e-9


def test_pipeline_family_optimum():
    xi_star, b_star = optimize_family_parameter("pipeline", CHI)
    assert b_star >= 2.071 - 0.005
    assert abs(xi_star - 1 / np.sqrt(2)) < 0.05


def test_family_search_names_an_unknown_or_unsearchable_family():
    with pytest.raises(ValueError, match="unknown family 'quartic'"):
        optimize_family_parameter("quartic", CHI)
    with pytest.raises(ValueError, match="no default bounds for family 'custom'"):
        optimize_family_parameter("custom", CHI)


def test_angle_optimum_for_pipeline(pipeline_state):
    chi_star, b_star = optimize_angle(pipeline_state)
    assert abs(chi_star - np.pi / 4) < 0.02
    assert b_star > 2.0


def test_angle_on_flat_objective_returns_convention():
    chi_star, b_star = optimize_angle(seed(0.0, cutoff=4))
    assert chi_star == np.pi / 4
    assert b_star == 0.0


def test_angle_on_a_weakly_entangled_state_is_not_flat():
    # seed(0.001): S = 1/2 + (c0 c1 / pi)(3 cos chi - cos 3 chi), at most 2 sqrt 2 c0 c1 / pi
    # ~ 9.0e-4 above 1/2, at pi/4; the flat rule (|S - 1/2| < 1e-11) must not claim it
    v = seed(0.001)
    chi_star, s_star = optimize_angle(v, objective="ch")
    c0, c1 = v.coeffs[:2]
    assert abs(s_star - 0.5 - 2 * np.sqrt(2) * c0 * c1 / np.pi) < 1e-13
    assert abs(chi_star - np.pi / 4) < 1e-6 and s_star == ch_S(v, chi_star)


def test_angle_on_bell_seed_stays_local():
    chi_star, b_star = optimize_angle(seed(1.0, cutoff=8))
    assert b_star <= 2.0
    assert 0.0 < chi_star <= np.pi / 2


def _assert_brent_is_scipys(f, lo, hi, xatol, maxfun=500):
    """The in-house bounded Brent against the scipy search it ports: same x, same
    f(x) and same evaluation count, compared exactly."""
    import scipy.optimize
    ref = scipy.optimize.minimize_scalar(f, bounds=(lo, hi), method="bounded",
                                         options={"xatol": xatol, "maxiter": maxfun})
    x, fun, evals = optimizer._bounded_brent(f, lo, hi, xatol, maxfun)
    assert (x, fun, evals) == (ref.x, ref.fun, ref.nfev)


@settings(max_examples=15, deadline=None)
@given(family=st.sampled_from(sorted(f for f, spec in catalog.FAMILIES.items() if spec.bounds)),
       chi=st.floats(0.0, np.pi))
def test_family_search_is_scipys_bounded_brent(family, chi):
    def negated_s(p):
        return -ch_S(catalog.build(family, p, cutoff=32), chi)
    _assert_brent_is_scipys(negated_s, *catalog.FAMILIES[family].bounds, 1e-8)


@settings(max_examples=30, deadline=None)
@given(n_max=st.integers(0, 16),
       raw=st.lists(st.floats(-1.0, 1.0), min_size=17, max_size=17))
def test_angle_search_is_scipys_bounded_brent(n_max, raw):
    c = np.array(raw[:n_max + 1])
    if np.linalg.norm(c) < 1e-3:
        c[0] = 1.0
    v = CoefficientVector(c / np.linalg.norm(c), normalized=True)
    _assert_brent_is_scipys(lambda ch: -ch_S(v, ch), 1e-6, np.pi / 2, 1e-10)


@pytest.mark.parametrize("f, maxfun", [
    (lambda x: -x, 500),                                  # maximum at the upper bound
    (lambda x: x, 500),                                   # maximum at the lower bound
    (lambda ch: -ch_S(seed(0.0, cutoff=4), ch), 500),     # flat: the vacuum at every angle
    (lambda x: np.cos(7.0 * x), 6),                       # stopped by the evaluation cap
    (lambda x: np.floor(8.0 * x) % 3.0, 500),             # steps: ties between evaluations
    (lambda x: np.round((x - 0.7) ** 2, 4), 500),         # a flat-bottomed parabola
])
def test_bounded_brent_edge_cases_are_scipys(f, maxfun):
    _assert_brent_is_scipys(f, 1e-6, np.pi / 2, 1e-10, maxfun)
    with pytest.raises(ValueError):
        optimizer._bounded_brent(f, 1.0, 0.0, 1e-8)


def _certified_family_optimum(family, chi):
    """(p*, B*) over a family's bounds at cutoff 32, from every stationary point.

    Each state is alpha_n t^n / norm with t = p or p^2, so dS/dp is a positive
    multiple of the residual (n o c)^T (M - S I) c, whose part along c vanishes.
    The residual, evaluated pointwise, is interpolated at 4k Chebyshev points of
    the bounds; every near-real root of the interpolant (`chebroots`, a colleague
    matrix) and both bounds are candidates, and the best of them is the maximum.
    """
    lo, hi = catalog.FAMILIES[family].bounds

    def state(p):
        return catalog.build(family, float(p), cutoff=32).coeffs

    def at(x):
        return lo + 0.5 * (hi - lo) * (x + 1.0)

    k = state(hi).size
    M, n = reference_matrix(k - 1, chi), np.arange(k)

    def residual(xs):
        cs = [state(at(x)) for x in xs]
        return np.array([(n * c) @ (M @ c - (c @ M @ c) * c) for c in cs])

    coef = chebinterpolate(residual, 4 * k - 1)
    assert np.max(np.abs(coef[-8:])) < 1e-12 * np.max(np.abs(coef))   # resolved
    roots = chebroots(coef)
    candidates = np.concatenate(([lo, hi], at(np.clip(roots[abs(roots.imag) < 1e-3].real, -1, 1))))
    s = [state(p) @ M @ state(p) for p in candidates]
    return candidates[int(np.argmax(s))], 4.0 * max(s) - 2.0


@pytest.mark.parametrize("family", ["tmss", "ps_tmss", "circle", "pipeline"])
def test_family_search_finds_the_certified_global_optimum(family):
    p_cert, b_cert = _certified_family_optimum(family, CHI)
    p_star, b_star = optimize_family_parameter(family, CHI)
    assert abs(b_star - b_cert) <= 1e-14
    assert abs(p_star - p_cert) <= 5e-8
