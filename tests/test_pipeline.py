from math import comb, factorial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from homodyne_bell import (
    BeamSplitter,
    CoefficientVector,
    FourModeTensor,
    apply_bs_pair_on_four_modes,
    chsh_B,
    condition_on_outcome,
    gaussify_coefficients,
    gaussify_step,
    normalize,
    overgaussification_scan,
    run_pipeline,
    seed,
    seed_transmissivity,
    stage1_transmissivity,
    stage1_verify,
)
from homodyne_bell import catalog, pipeline
from homodyne_bell.pipeline import PipelineConfig

XI = 1 / np.sqrt(2)


def test_geometric_sequences_are_fixed_points():
    for lam in np.arange(0.1, 0.95, 0.1):
        g = lam ** np.arange(12)
        out = gaussify_coefficients(g)
        assert np.max(np.abs(out - g)) < 1e-12


@pytest.mark.parametrize("size", [99, 100, 200, 512])
def test_geometric_fixed_points_hold_past_the_factorials_float_range(size):
    # n! / 2^n overflows a float from n = 197: the scales run at t^r / r! and n! / (2t)^n
    g = 0.9 ** np.arange(size)
    assert np.max(np.abs(gaussify_coefficients(g) - g)) < 1e-12
    out, p = gaussify_step(normalize(CoefficientVector(g)))
    assert np.max(np.abs(out.coeffs - g / np.linalg.norm(g))) < 1e-12 and 0.0 < p <= 1.0


def test_gaussification_refuses_more_levels_than_its_scales_hold():
    with pytest.raises(ValueError, match="at most 512 levels"):
        gaussify_coefficients(np.ones(513))


def test_unnormalized_leading_coefficient_squares():
    c = np.array([0.5, 0.3, 0.1])
    assert abs(gaussify_coefficients(c)[0] - 0.25) < 1e-15
    c = np.array([1.0, 0.7, 0.0, 0.0])
    assert gaussify_coefficients(c)[0] == 1.0


@settings(max_examples=20, deadline=None)
@given(st.floats(0.05, 0.95), st.integers(2, 16))
def test_gaussify_step_fixes_truncated_geometric_states(lam, size):
    v = normalize(CoefficientVector(lam ** np.arange(size)))
    out, p = gaussify_step(v)
    assert np.max(np.abs(out.coeffs - v.coeffs)) < 1e-12
    assert 0.0 < p <= 1.0


@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=8).filter(
    lambda c: abs(c[0]) > 0.1 * np.linalg.norm(c) > 1e-4))
def test_gaussify_success_is_squared_norm_of_unnormalized_output(raw):
    v = normalize(CoefficientVector(np.array(raw)))
    c, k = v.coeffs, len(raw)
    # c'_n = 2^-n sum_r C(n, r) c_r c_(n-r), summed term by term over the doubled support
    wide = np.array([sum(comb(n, r) * c[r] * c[n - r] for r in range(n + 1)
                         if r < k and n - r < k) / 2 ** n for n in range(2 * k - 1)])
    out, p = gaussify_step(v)
    assert abs(p - float(wide @ wide)) < 1e-12
    expected = wide[:k] / np.linalg.norm(wide[:k])
    assert np.max(np.abs(out.coeffs - expected)) < 1e-12


def test_gaussify_matches_exact_binomial_recursion_on_pipeline_states():
    # the integer-binomial recursion of bench/reference.py, in exact comb() weights
    def exact(c):
        return np.array([sum(comb(n, r) * c[r] * c[n - r] for r in range(n + 1)) / 2.0 ** n
                         for n in range(c.size)])

    for xi, cutoff in ((XI, 32), (0.4, 24), (1.2, 64)):
        rep = run_pipeline(PipelineConfig(xi=xi, iterations=4, cutoff=cutoff))
        for v in (rep.seed_state, *rep.stage_states):
            wide = np.concatenate([v.coeffs, np.zeros(v.coeffs.size - 1)])
            assert np.max(np.abs(gaussify_coefficients(wide) - exact(wide))) < 1e-14
            # the scales are cached by size and shared between calls: never writable
            assert not any(a.flags.writeable for a in pipeline._gaussify_scales(wide.size))


def binomial_stage(xi, k, size):
    """u_k[n] = n! C(2^k, n) (xi / 2^k)^n, n < size: the coefficients of (1 + xi z / 2^k)^(2^k)
    in z^n / n!, the seed 1 + xi z after k steps F(z) -> F(z/2)^2 (Browne et al. 2003)."""
    m = 2 ** k
    return np.array([factorial(n) * comb(m, n) * (xi / m) ** n for n in range(size)])


@pytest.mark.parametrize("xi", [0.3, 1 / np.sqrt(2), 1.2])
def test_gaussify_steps_match_the_binomial_closed_form(xi):
    rep = run_pipeline(PipelineConfig(xi=xi, iterations=4, cutoff=32))
    for k in range(1, 5):
        u, prev = binomial_stage(xi, k, 33), binomial_stage(xi, k - 1, 33)
        p = (u @ u) / (prev @ prev) ** 2       # herald probability of the normalized input
        assert abs(rep.gaussify_probabilities[k - 1] / p - 1.0) <= 1e-14
        assert np.max(np.abs(rep.stage_states[k - 1].coeffs - u / np.linalg.norm(u))) <= 1e-15


def test_seed_expansion_by_hand():
    xi = 0.83
    out = gaussify_coefficients(np.array([1.0, xi, 0.0, 0.0, 0.0]))
    assert abs(out[1] - xi) < 1e-15
    assert abs(out[2] - xi * xi / 2.0) < 1e-15
    assert abs(out[3] - 0.0) < 1e-15  # no support yet at n=3 from a two-term input


def test_gaussify_step_vacuum():
    vac = CoefficientVector(np.array([1.0, 0.0, 0.0]), normalized=True)
    out, p = gaussify_step(vac)
    assert np.allclose(out.coeffs, [1, 0, 0])
    assert p == 1.0


def test_gaussify_step_requires_normalized_input():
    with pytest.raises(ValueError):
        gaussify_step(CoefficientVector(np.array([1.0, 1.0])))


def operator_gaussify(c, cutoff):
    """Combine two copies at 50:50 splitters and project the ancillas on vacuum."""
    d = cutoff + 1
    amps = np.zeros((d, d, d, d))
    for m in range(min(len(c), d)):
        for n in range(min(len(c), d)):
            amps[m, m, n, n] = c[m] * c[n]
    s = 1.0 / np.sqrt(2.0)
    mixed = apply_bs_pair_on_four_modes(BeamSplitter(s, s), FourModeTensor(amps))
    ens = condition_on_outcome(mixed, outcomes=("vacuum", "vacuum"))
    assert ens.weights.shape == (1,)
    kept = ens.states[0]
    diag = np.diagonal(kept).real * np.sqrt(ens.success_probability)
    off = np.abs(kept - np.diag(np.diagonal(kept)))
    assert np.max(off) < 1e-12  # herald keeps the photon-number correlation
    return diag, ens.success_probability


def test_recursion_matches_operator_oracle_cutoff_6():
    rng = np.random.default_rng(42)
    for _ in range(3):
        raw = rng.random(7) * np.array([1.0, 0.8, 0.5, 0.3, 0.1, 0.05, 0.01])
        v = normalize(CoefficientVector(raw))
        # intermediate occupation reaches twice the support, so simulate wide
        diag, p_op = operator_gaussify(v.coeffs, cutoff=12)
        wide = np.zeros(13)
        wide[:7] = v.coeffs
        expected = gaussify_coefficients(wide)
        assert np.max(np.abs(diag - expected)) < 1e-10
        out, p_step = gaussify_step(v)
        assert abs(p_step - p_op) < 1e-10
        assert np.max(np.abs(out.coeffs - normalize(CoefficientVector(expected[:7])).coeffs)) < 1e-10


def test_stage1_transmissivity_is_half_printed_for_small_lambda():
    t_cal = stage1_transmissivity(XI, 0.01)
    t_printed = seed_transmissivity(XI, 0.01)
    assert abs(t_cal / t_printed - 0.5) < 5e-4


@settings(max_examples=30, deadline=None)
@given(st.floats(0.05, 3.0), st.floats(1e-4, 0.99))
def test_stage1_transmissivity_solves_the_gap_equation(xi, lam):
    t = stage1_transmissivity(xi, lam)
    gap = 2.0 * t * np.sqrt(1.0 - t * t) * xi - lam * (8.0 * t ** 4 - 8.0 * t ** 2 + 1.0)
    assert abs(gap) < 1e-11
    assert 0.0 < t < 1.0 / np.sqrt(2.0)
    # the printed transmissivity is sin(2 theta) of the splitter T = cos(theta)
    assert abs(2.0 * t * np.sqrt(1.0 - t * t) - seed_transmissivity(xi, lam)) < 1e-15


def test_stage1_closeness_at_reference_point():
    rep = stage1_verify(XI, 0.01)
    assert rep.trace_distance < 1e-3
    assert 0.0 < rep.success_probability < 1e-6


# (success probability, trace distance) of stage1_verify(1/sqrt 2, lambda) as recorded from
# the einsum mixer and the per-branch conditioning loop; the small distances are
# ill-conditioned (about 1e-16 absolute), so this pins the order of every sum
STAGE1_RECORDED = {
    0.004: (7.679180929738218e-10, 6.399513661020073e-05),
    0.01: (2.9980019778026256e-08, 0.00039981014885200603),
    0.05: (1.84450257505834e-05, 0.009883521767152341),
    0.2: (0.003873566790046955, 0.13649090895937932),
}


@pytest.mark.parametrize("lam", sorted(STAGE1_RECORDED))
def test_stage1_matches_recorded_values(lam):
    rep = stage1_verify(XI, lam)
    p, dist = STAGE1_RECORDED[lam]
    assert abs(rep.success_probability / p - 1.0) <= 1e-15
    assert abs(rep.trace_distance / dist - 1.0) <= 1e-15
    assert rep.ensemble.weights.size == 16


def test_stage1_distance_grows_with_squeezing():
    dists = [stage1_verify(XI, lam).trace_distance for lam in (0.01, 0.05, 0.1)]
    assert dists[0] < dists[1] < dists[2]


def test_stage1_heralding_probability_ratio():
    for lam in (0.005, 0.01, 0.02):
        p1 = stage1_verify(XI, lam).success_probability
        p2 = stage1_verify(XI, 2 * lam).success_probability
        assert abs(p2 / p1 - 16.0) < 0.05 * 16.0


def test_stage1_impossible_at_zero_squeezing():
    with pytest.raises(ValueError):
        stage1_verify(XI, 0.0)


def test_stage1_refuses_leakage_past_its_cutoff():
    assert stage1_verify(XI, 0.25).success_probability > 0.0
    with pytest.raises(ValueError, match=r"lambda=0\.3 leaks .* past cutoff 4"):
        stage1_verify(XI, 0.3)


def test_pipeline_zero_iterations_gives_vacuum(pipeline_state):
    rep = run_pipeline(PipelineConfig(xi=XI, iterations=0))
    assert np.allclose(rep.final_state.coeffs[0], 1.0)
    assert np.all(rep.final_state.coeffs[1:] == 0.0)
    assert abs(chsh_B(rep.final_state, np.pi / 4)) < 1e-12


def test_pipeline_three_iterations_reproduces_reported_violation(pipeline_state):
    b = chsh_B(pipeline_state, np.pi / 4)
    assert abs(b - 2.071) < 0.01
    assert abs(b - 2.0714971115942) < 1e-9  # frozen regression value


def test_pipeline_support_is_finite(pipeline_state):
    # three combinations double the two-term support to n <= 8; subtraction shifts to 7
    assert np.all(pipeline_state.coeffs[8:] == 0.0)
    assert pipeline_state.coeffs[7] != 0.0


def test_pipeline_qualitative_shape_at_grey_triangle_parameter():
    rep = run_pipeline(PipelineConfig(xi=0.71))
    c = rep.final_state.coeffs
    assert c[1] == max(c)
    assert all(c[n] > c[n + 1] for n in range(1, 7))


def test_pipeline_probabilities_and_stage1_block():
    rep = run_pipeline(PipelineConfig(xi=XI, lam=0.01))
    assert len(rep.gaussify_probabilities) == 3
    assert all(0.0 < p <= 1.0 for p in rep.gaussify_probabilities)
    assert rep.stage1 is not None
    assert rep.stage1.trace_distance < 1e-3


def test_pipeline_beamsplitter_subtraction_close_to_exact(pipeline_state):
    rep = run_pipeline(PipelineConfig(xi=XI, subtraction="beamsplitter",
                                      subtraction_reflectivity=0.01))
    assert rep.subtraction_probability is not None
    assert np.linalg.norm(rep.final_state.coeffs - pipeline_state.coeffs) < 1e-4


def test_pipeline_cutoff_stability(pipeline_state):
    b24 = chsh_B(run_pipeline(PipelineConfig(xi=XI, cutoff=24)).final_state, np.pi / 4)
    b32 = chsh_B(pipeline_state, np.pi / 4)
    assert abs(b24 - b32) < 1e-6


def test_pipeline_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(xi=0.0)
    with pytest.raises(ValueError):
        PipelineConfig(xi=0.7, iterations=-1)
    with pytest.raises(ValueError):
        PipelineConfig(xi=0.7, lam=1.5)
    with pytest.raises(ValueError):
        PipelineConfig(xi=0.7, subtraction="teleport")


def test_overgaussification_scan():
    rows = overgaussification_scan(XI, 6)
    values = dict(rows)
    assert abs(values[0]) < 1e-12
    assert values[3] > 2.0
    assert values[3] == max(values.values())
    assert values[3] > values[4] > values[5] > values[6]


def test_overgaussification_scan_needs_room():
    with pytest.raises(ValueError):
        overgaussification_scan(XI, 3)


@pytest.mark.parametrize("k", range(9))
def test_pipelined_row_is_the_protocols_final_state(k):
    for xi in (0.2, 0.5, XI, 1.0, 1.5):
        for cutoff in (3, 4, 8, 32):
            row = catalog.pipelined(xi, cutoff, k)
            final = run_pipeline(PipelineConfig(xi=xi, iterations=k, cutoff=cutoff)).final_state
            assert row.coeffs.size == final.coeffs.size and row.provenance == final.provenance
            assert np.max(np.abs(row.coeffs - final.coeffs)) <= 1e-14


def test_family_state_and_scan_run_no_protocol(monkeypatch):
    want = [(i, chsh_B(run_pipeline(PipelineConfig(xi=XI, iterations=i)).final_state, np.pi / 4))
            for i in range(7)]
    built = run_pipeline(PipelineConfig(xi=XI, cutoff=24)).final_state

    def refuse(*args, **kwargs):
        raise AssertionError("the protocol ran")

    monkeypatch.setattr(pipeline, "run_pipeline", refuse)
    monkeypatch.setattr(pipeline, "gaussify_step", refuse)
    v = catalog.CatalogSpec("pipeline", XI, cutoff=24).build()
    assert np.max(np.abs(v.coeffs - built.coeffs)) <= 1e-14
    for (i, b), (j, b_want) in zip(overgaussification_scan(XI, 6), want, strict=True):
        assert i == j and abs(b - b_want) <= 1e-14
