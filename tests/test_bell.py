import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.legendre import leggauss

from homodyne_bell import (
    BellReport,
    CoefficientVector,
    bell_report,
    ch_S,
    chsh_B,
    circle,
    normalize,
    optimize_angle,
    optimize_family_parameter,
    overgaussification_scan,
    overlap_table,
    p_plus_plus,
    p_plus_plus_quadrature_oracle,
    pipelined,
    ps_tmss,
    seed,
    tmss,
)
from homodyne_bell import bell
from homodyne_bell.bell import ch_matrix, hermite_basis

CHI = np.pi / 4
ORIGIN = np.zeros(1)


def test_ground_state_value_at_origin():
    assert abs(hermite_basis(0, ORIGIN)[0, 0] - np.pi ** -0.25) < 1e-14
    assert abs(hermite_basis(0, ORIGIN)[0, 0] - 0.7511255) < 1e-7


def test_first_excited_vanishes_at_origin():
    assert hermite_basis(1, ORIGIN)[1, 0] == 0.0


def test_wavefunctions_are_normalized_up_to_n_32():
    x, w = leggauss(1200)
    x_max = 14.5
    xs, ws = x_max * x, x_max * w  # full line [-x_max, x_max]
    for n in range(0, 33, 4):
        psi = hermite_basis(n, xs)[n]
        assert abs(float((psi * psi) @ ws) - 1.0) < 1e-10


def test_overlap_table_closed_form_entries():
    G = overlap_table(4)
    assert G[0, 0] == 0.5
    assert np.isclose(G[0, 1], 1.0 / np.sqrt(2.0 * np.pi), rtol=1e-15, atol=0.0)
    assert G[0, 2] == 0.0


def test_overlap_table_invariants_exhaustive_at_32():
    G = overlap_table(32)
    assert np.array_equal(G, G.T)
    # the cached table and the cached odd-pair table behind P++ are shared: never writable
    assert not G.flags.writeable
    assert not any(a.flags.writeable for a in bell._odd_pairs(33))
    assert np.all(np.diag(G) == 0.5)
    off = np.array(G)
    np.fill_diagonal(off, 0.0)
    same_parity = np.equal.outer(np.arange(33) % 2, np.arange(33) % 2)
    assert np.all(off[same_parity] == 0.0)


@pytest.mark.parametrize("n_max", [10, 64, 128])
def test_overlap_table_matches_half_line_quadrature(n_max):
    # composite 20-point Gauss-Legendre on panels of width 1/2 over [0, x_max];
    # a single high-degree rule carries 1e-13-level errors of its own
    x, w = leggauss(20)
    left = np.arange(0.0, np.sqrt(2.0 * n_max + 1.0) + 8.0, 0.5)
    xs = (left[:, None] + 0.25 * (x + 1.0)).ravel()
    ws = np.tile(0.25 * w, left.size)
    V = hermite_basis(n_max, xs)
    assert np.max(np.abs(overlap_table(n_max) - (V * ws) @ V.T)) < 1e-14


def test_p_plus_plus_vacuum_is_quarter():
    # one level has no odd pairs at all; padded levels contribute exact zeros
    for vac in (seed(0.0, cutoff=0), seed(0.0, cutoff=4)):
        for chi in (0.0, 0.3, CHI, 2.0):
            assert p_plus_plus(vac, chi) == 0.25


def test_p_plus_plus_bell_seed_closed_value():
    v = seed(1.0, cutoff=8)
    assert abs(p_plus_plus(v, 0.0) - (0.25 + 1.0 / (2.0 * np.pi))) < 1e-10


def test_p_plus_plus_rejects_unnormalized():
    with pytest.raises(ValueError):
        p_plus_plus(CoefficientVector(np.array([1.0, 1.0])), CHI)


@settings(max_examples=25, deadline=None)
@given(st.floats(-6.0, 6.0), st.integers(0, 2 ** 31))
def test_p_plus_plus_is_even_in_chi(chi, seed_int):
    rng = np.random.default_rng(seed_int)
    v = normalize(CoefficientVector(rng.standard_normal(6)))
    assert abs(p_plus_plus(v, chi) - p_plus_plus(v, -chi)) < 1e-12


def dense_kernel(k, chi):
    """K(chi) = cos((n - m) chi) o G o G on levels 0..k-1, formed densely: P++ = c^T K c."""
    G = overlap_table(k - 1)
    return np.cos(np.subtract.outer(np.arange(k), np.arange(k)) * chi) * G * G


@settings(max_examples=30, deadline=None)
@given(st.floats(-2 * np.pi, 2 * np.pi), st.integers(0, 128), st.integers(0, 2 ** 31))
def test_kernel_invariants_on_random_states(chi, n_max, seed_int):
    rng = np.random.default_rng(seed_int)
    v = normalize(CoefficientVector(rng.standard_normal(n_max + 1)))
    k = n_max + 1
    K, K3, M = dense_kernel(k, chi), dense_kernel(k, 3.0 * chi), ch_matrix(k, chi)
    assert np.array_equal(M, M.T) and np.all(np.diag(M) == 0.5)
    # flipping one sign shifts chi by pi: M(chi + pi) = (-1)^(n - m) M(chi)
    parity = np.where(np.subtract.outer(np.arange(k), np.arange(k)) % 2, -1, 1)
    assert np.max(np.abs(ch_matrix(k, chi + np.pi) - parity * M)) < 1e-15
    c = v.coeffs
    assert abs(p_plus_plus(v, chi) - c @ K @ c) < 1e-15
    assert abs(ch_S(v, chi) - c @ M @ c) < 1e-15
    assert abs(ch_S(v, chi) - c @ (3.0 * K - K3) @ c) < 1e-15
    assert abs(bell_report(v, chi).p_pp_3chi - c @ K3 @ c) < 1e-15
    assert abs(ch_S(v, chi) - (chsh_B(v, chi) / 4.0 + 0.5)) < 1e-10
    # the marginal P+ = P++ + P+- = P++(chi) + P++(chi + pi) is 1/2; E = 4 P++ - 1
    assert abs(p_plus_plus(v, chi) + p_plus_plus(v, chi + np.pi) - 0.5) < 1e-12
    assert abs(4.0 * p_plus_plus(v, chi) - 1.0) <= 1.0 + 1e-12


def test_functionals_never_build_a_kernel(pipeline_state, monkeypatch):
    # every Bell value comes from the cosine polynomial; M is only the eigenproblem's
    def refuse(*_):
        raise AssertionError("a Bell functional built the CH matrix")

    monkeypatch.setattr(bell, "ch_matrix", refuse)
    v = pipeline_state
    values = [p_plus_plus(v, CHI), ch_S(v, CHI), chsh_B(v, CHI), bell_report(v, CHI).B]
    assert np.all(np.isfinite(values))
    assert abs(optimize_angle(v)[0] - CHI) < 1e-7
    r_star, b_star = optimize_family_parameter("circle", CHI)
    assert abs(r_star - 1.12) < 0.05 and b_star > 2.0


def test_marginal_is_half_for_all_angles(pipeline_state):
    # P+(theta) = P++(theta) + P+-(theta), and flipping B's sign shifts chi by pi
    for v, theta, tol in ((seed(0.0, cutoff=4), 0.7, 1e-12), (pipeline_state, 0.3, 1e-10),
                          (seed(1 / np.sqrt(2), cutoff=8), -np.pi / 4, 1e-10)):
        assert abs(p_plus_plus(v, theta) + p_plus_plus(v, theta + np.pi) - 0.5) < tol


def test_correlation_examples():
    # E = P++ + P-- - P+- - P-+ = 4 P++ - 1
    vac = seed(0.0, cutoff=4)
    assert abs(4.0 * p_plus_plus(vac, 1.1) - 1.0) < 1e-12
    v = seed(1.0, cutoff=8)
    assert abs(4.0 * p_plus_plus(v, 0.0) - 1.0 - 2.0 / np.pi) < 1e-10


def test_correlation_reduces_to_quadrant_form():
    rng = np.random.default_rng(19)
    for _ in range(10):
        v = normalize(CoefficientVector(rng.standard_normal(7)))
        chi = rng.uniform(-3, 3)
        # literal quadrant form: P-- = P++ and P-+ = P+- = P++(chi + pi)
        quadrant = 2.0 * (p_plus_plus(v, chi) - p_plus_plus(v, chi + np.pi))
        e, e_minus = 4.0 * p_plus_plus(v, chi) - 1.0, 4.0 * p_plus_plus(v, -chi) - 1.0
        assert abs(e - quadrant) < 1e-12
        assert abs(e - e_minus) < 1e-12
        assert abs(e) <= 1.0 + 1e-12


def test_chsh_vacuum_and_gaussian_bound(pipeline_state):
    assert abs(chsh_B(seed(0.0, cutoff=4), CHI)) < 1e-12
    assert abs(chsh_B(tmss(0.6), CHI)) <= 2.0
    assert abs(chsh_B(pipeline_state, CHI) - 2.071) < 0.01


def test_ch_examples(pipeline_state):
    assert abs(ch_S(seed(0.0, cutoff=4), CHI) - 0.5) < 1e-12
    assert abs(ch_S(pipeline_state, CHI) - 1.018) < 0.005


def test_ch_chsh_identity_on_catalog(pipeline_state):
    states = [tmss(0.6), circle(1.12), ps_tmss(0.6), seed(1 / np.sqrt(2), cutoff=8),
              pipeline_state]
    rng = np.random.default_rng(5)
    for v in states:
        for chi in rng.uniform(0, np.pi, 5):
            assert abs(ch_S(v, chi) - (chsh_B(v, chi) / 4.0 + 0.5)) < 1e-10


def test_literal_ch_ratio_matches_documented_angle_reduction(pipeline_state):
    # [P++(t1+f1) - P++(t1+f2) + P++(t2+f1) + P++(t2+f2)] / [P+(t2) + P+(f1)], literally,
    # at (t1, t2, f1, f2) = (0, pi/2, -pi/4, pi/4), with P+(a) = P++(a) + P++(a + pi)
    def p(chi):
        return p_plus_plus(pipeline_state, chi)

    t1, t2, f1, f2 = 0.0, np.pi / 2, -np.pi / 4, np.pi / 4
    lit = ((p(t1 + f1) - p(t1 + f2) + p(t2 + f1) + p(t2 + f2))
           / (p(t2) + p(t2 + np.pi) + p(f1) + p(f1 + np.pi)))
    expected = p_plus_plus(pipeline_state, CHI) + p_plus_plus(pipeline_state, 3 * CHI)
    assert abs(lit - expected) < 1e-10


def test_quadrature_oracle_agrees_on_catalog_states(pipeline_state):
    # the composite two-node rule is 1.7e-15 to 4.3e-15 off the closed form on such
    # states; the 400-point Gauss-Legendre rule it replaced was 3.2e-14 to 6.3e-14 off
    states = [tmss(0.6), circle(1.12), ps_tmss(0.6), seed(1 / np.sqrt(2), cutoff=8),
              pipeline_state]
    rng = np.random.default_rng(2024)
    for v in states:
        for chi in rng.uniform(-np.pi, np.pi, 20):
            closed = p_plus_plus(v, chi)
            assert 0.0 <= closed <= 1.0
            assert abs(closed - p_plus_plus_quadrature_oracle(v, chi)) < 1e-13


def literal_quadrature_sum(v, chi, scale=1.0, tile=1024):
    """The oracle's sum written out: |amp|^2 over the tensor grid of half_line_gram's nodes
    out to the oracle's x_max, each weighing (CELL_WIDTH / 2)^2, summed over square tiles of
    nodes so that no full grid is held; amp(x, y) = amp(y, x), so a row of tiles starts at
    the diagonal and counts the tiles past it twice.  scale takes the convention
    psi_n(x) -> sqrt(s) psi_n(s x), on the same cells over [0, x_max / s]."""
    c = v.coeffs / np.linalg.norm(v.coeffs)
    x_max = max(12.0, np.sqrt(2.0 * c.size - 1.0) + 6.0) / scale
    xs = bell.cell_nodes((np.arange(np.ceil(x_max / bell.CELL_WIDTH)) + 0.5) * bell.CELL_WIDTH)
    occupied = c != 0.0                        # empty levels add exact zeros to every amp
    V = np.sqrt(scale) * bell.hermite_basis(c.size - 1, scale * xs)[occupied]
    p = (c * np.exp(1j * chi * np.arange(c.size)))[occupied]
    total = 0.0
    for i in range(0, xs.size, tile):
        Vx = V[:, i:i + tile]
        # rows Re amp and Im amp of the tile's x-nodes
        rows = np.concatenate([Vx * p.real[:, None], Vx * p.imag[:, None]], axis=1).T
        for j in range(i, xs.size, tile):
            amp = rows @ V[:, j:j + tile]
            total += (1.0 if j == i else 2.0) * np.sum(np.square(amp, out=amp))
    return (0.5 * bell.CELL_WIDTH) ** 2 * total


def test_quadrature_oracle_is_the_literal_tensor_sum(pipeline_state):
    # the literal grid costs O(nodes^2 levels), so one angle per state; x_max is 12 for
    # circle(1.12) and the seed, and 13.6 to 17.4 past the sampler's grid for the others
    states = [tmss(0.6), circle(1.12), ps_tmss(0.6), seed(1 / np.sqrt(2), cutoff=8),
              pipeline_state, tmss(0.9, 64), circle(3.0)]
    rng = np.random.default_rng(16)
    for v in states:
        chi = rng.uniform(-np.pi, np.pi)
        got = p_plus_plus_quadrature_oracle(v, chi)
        assert abs(got - literal_quadrature_sum(v, chi)) <= 1e-15


def test_quadrature_oracle_simple_values():
    assert abs(p_plus_plus_quadrature_oracle(seed(0.0, cutoff=4), 0.9) - 0.25) < 1e-10
    v = seed(1.0, cutoff=8)
    assert abs(p_plus_plus_quadrature_oracle(v, 0.0) - 0.409155) < 1e-6


def test_sign_statistics_are_scale_invariant(pipeline_state):
    # psi_n(x) -> sqrt(s) psi_n(s x) rescales the quadrature convention, not the sign statistics
    for chi in (0.4, CHI):
        base = p_plus_plus_quadrature_oracle(pipeline_state, chi)
        rescaled = literal_quadrature_sum(pipeline_state, chi, scale=np.sqrt(2.0))
        assert abs(base - rescaled) < 1e-8


def test_functionals_are_invariant_under_global_sign():
    rng = np.random.default_rng(31)
    for _ in range(5):
        c = rng.standard_normal(6)
        c /= np.linalg.norm(c)
        plus = CoefficientVector(c, normalized=True)
        minus = CoefficientVector(-c, normalized=True)
        for chi in (0.3, CHI):
            assert abs(chsh_B(plus, chi) - chsh_B(minus, chi)) < 1e-13
            assert abs(p_plus_plus(plus, chi) - p_plus_plus(minus, chi)) < 1e-13


def test_seed_states_never_violate():
    worst = max(chsh_B(seed(xi, cutoff=8), CHI) for xi in np.arange(0.0, 3.01, 0.1))
    assert worst <= 2.0 + 1e-9


def test_tmss_never_violates():
    chis = np.linspace(0.05, np.pi / 2, 25)
    worst = 0.0
    for lam in np.arange(0.0, 0.91, 0.1):
        v = tmss(lam, cutoff=None if lam < 0.85 else 64)
        worst = max(worst, max(abs(chsh_B(v, chi)) for chi in chis))
    assert worst <= 2.0 + 1e-9


def test_bell_report_fields_and_identity(pipeline_state):
    # the CLI prints a report in this order; tests/test_cli.py pins the printing
    assert [f.name for f in dataclasses.fields(BellReport)] == [
        "chi", "p_pp_chi", "p_pp_3chi", "E_chi", "E_3chi", "B", "S", "cutoff", "provenance"]
    rep = bell_report(pipeline_state, CHI)
    assert abs(rep.S - (rep.B / 4.0 + 0.5)) < 1e-10


def _report(**edge) -> BellReport:
    vacuum = dict(chi=1.0, p_pp_chi=0.25, p_pp_3chi=0.25, E_chi=0.0, E_3chi=0.0, B=0.0, S=0.5,
                  cutoff=1, provenance="vacuum")
    return BellReport(**{**vacuum, **edge})


@pytest.mark.parametrize("name", ["p_pp_chi", "p_pp_3chi"])
@pytest.mark.parametrize("edge", [0.0, 1.0])
def test_bell_report_probability_range_is_pinned_at_its_edge(name, edge):
    out = 1.0 if edge else -1.0      # away from [0, 1]
    _report(**{name: edge + out * 0.9e-10})
    with pytest.raises(ValueError, match="is not a probability"):
        _report(**{name: edge + out * 1.1e-10})


@pytest.mark.parametrize("name", ["E_chi", "E_3chi"])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_bell_report_correlation_range_is_pinned_at_its_edge(name, sign):
    _report(**{name: sign * (1.0 + 0.9e-10)})
    with pytest.raises(ValueError, match="out of"):
        _report(**{name: sign * (1.0 + 1.1e-10)})


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("chi, why", [(1e308, "too large"), (-1e308, "too large"),
                                      (np.nan, "not finite"), (np.inf, "not finite")])
def test_bell_values_refuse_a_chi_whose_phase_overflows(chi, why):
    # these returned nan at nan, and warned on cos or on 3 chi's overflow at inf and 1e308
    refused = rf"^chi = {re.escape(str(chi))} is {why}$"
    for value in (p_plus_plus, ch_S, chsh_B):
        with pytest.raises(ValueError, match=refused):
            value(pipelined(0.7071), chi)
    with pytest.raises(ValueError, match=refused):
        overgaussification_scan(0.7071, 4, chi=chi)


@pytest.mark.filterwarnings("error")
def test_only_the_triple_phase_refuses_a_chi_between_its_limits():
    # 32 levels: P++ reaches the phase chi * 31, finite at 3e306; S reaches 3 chi * 31
    v = pipelined(0.7071)
    assert abs(p_plus_plus(v, 3e306) - 0.0691664940854) < 1e-12
    for value in (ch_S, chsh_B):
        with pytest.raises(ValueError, match=r"^chi = 3e\+306 is too large$"):
            value(v, 3e306)


def test_bell_report_refuses_a_chi_whose_triple_phase_overflows():
    # 32 levels: chi * 31 is finite, 3 chi * 31 is not; the message tells this refusal
    # from BellReport's own check on the NaN probability that evaluating would give
    v = pipelined(2 ** -0.5)
    assert v.cutoff == 31 and np.isfinite(3e306 * 31) and not np.isfinite(3 * 3e306 * 31)
    with pytest.raises(ValueError, match="too large"):
        bell_report(v, 3e306)
