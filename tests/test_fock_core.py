import numpy as np
import pytest
from hypothesis import given, strategies as st

from homodyne_bell import (
    CoefficientVector,
    ConditionalEnsemble,
    FourModeTensor,
    normalize,
    read_state_file,
    tmss,
    trace_distance_pure_vs_ensemble,
    write_state_file,
)
from homodyne_bell.fock_core import NORM_TOL, state_file_text


def vec(*coeffs):
    return CoefficientVector(np.array(coeffs, dtype=float))


def test_norm_squared_vacuum():
    c = vec(1.0, 0.0, 0.0).coeffs
    assert c @ c == 1.0


def test_norm_squared_arithmetic():
    c = vec(1.0, 1.0 / np.sqrt(2.0)).coeffs
    assert abs(c @ c - 1.5) < 1e-15


def test_norm_squared_tmss_geometric_series():
    c = tmss(0.6, cutoff=40).coeffs
    assert abs(c @ c - 1.0) < 1e-8


def test_normalize_scaling():
    out = normalize(vec(2.0, 0.0))
    assert np.allclose(out.coeffs, [1.0, 0.0])
    assert out.normalized


def test_normalize_equal_weights():
    out = normalize(vec(1.0, 1.0))
    assert np.allclose(out.coeffs, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-15)


def test_normalize_zero_vector_rejected():
    with pytest.raises(ValueError):
        normalize(vec(0.0, 0.0))


def test_normalize_sign_convention():
    out = normalize(vec(0.0, -3.0, 4.0))
    assert out.coeffs[1] > 0 and out.coeffs[2] < 0


@given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=12))
def test_normalize_idempotent(raw):
    if not any(abs(x) > 1e-6 for x in raw):
        return
    once = normalize(CoefficientVector(np.array(raw)))
    twice = normalize(once)
    assert np.max(np.abs(once.coeffs - twice.coeffs)) <= 1e-14


def test_cutoff_matches_length():
    assert vec(1.0, 0.0, 0.0).cutoff == 2


def test_normalized_flag_is_checked():
    with pytest.raises(ValueError):
        CoefficientVector(np.array([1.0, 1.0]), normalized=True)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [0, 1, 2])
def test_non_finite_entries_are_refused(bad, where):
    c = np.array([0.6, 0.8, 0.0])
    c[where] = bad
    with pytest.raises(ValueError, match="non-finite"):
        CoefficientVector(c)
    with pytest.raises(ValueError, match="non-finite"):
        CoefficientVector(np.concatenate([c, [1e200]]))     # an infinite norm either way


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("coeffs", [[1e200, 1e200], [1.7e308, 1.7e308, 0.0], [1e-200, 3e-310]])
def test_finite_entries_whose_squares_overflow_or_underflow_are_kept(coeffs):
    # the check is one overflow-safe norm: no RuntimeWarning, and no entry refused
    v = CoefficientVector(np.array(coeffs))
    assert v.coeffs.tolist() == coeffs and not v.coeffs.flags.writeable
    with pytest.raises(ValueError, match="squared norm"):
        CoefficientVector(np.array(coeffs), normalized=True)


def test_tail_mass_and_convergence():
    v = tmss(0.6)  # auto cutoff targets tail below 1e-12
    assert v.converged
    assert v.tail_mass < 1e-12


def test_four_mode_tensor_rejects_super_normalized():
    with pytest.raises(ValueError):
        FourModeTensor(np.full((2, 2, 2, 2), 1.0))


def test_ensemble_weights_must_sum_to_one():
    m = np.eye(2) / np.sqrt(2.0)
    with pytest.raises(ValueError):
        ConditionalEnsemble([0.5, 0.4], [m, m], success_probability=0.1)


HALF = np.eye(2) / np.sqrt(2.0)      # a unit-norm branch


@pytest.mark.parametrize("weights, states, p, match", [
    ([], np.zeros((0, 2, 2)), 0.5, "at least one branch"),
    ([0.5, 0.5], [HALF], 0.5, "one matrix per weight"),
    ([1.0], HALF, 0.5, "one matrix per weight"),
    ([1.0], [[HALF]], 0.5, "one matrix per weight"),
    ([0.5, 0.5], [HALF, HALF * np.sqrt(1.0 + 10 * NORM_TOL)], 0.5, "exceeds 1"),
    ([1.5, -0.5], [HALF, HALF], 0.5, "nonnegative"),
    ([1.0], [HALF], 1.5, r"out of \[0, 1\]"),
    ([1.0], [HALF], -0.5, r"out of \[0, 1\]"),
])
def test_ensemble_refuses_what_a_branch_container_refused(weights, states, p, match):
    with pytest.raises(ValueError, match=match):
        ConditionalEnsemble(weights, states, success_probability=p)


def test_ensemble_arrays_are_read_only_copies():
    w, states = np.array([0.25, 0.75]), np.stack([HALF, HALF * 1j])
    e = ConditionalEnsemble(w, states, success_probability=0.5)
    w[0], states[0, 0, 0] = 9.0, 9.0
    assert e.weights.shape == (2,) and e.states.shape == (2, 2, 2)
    assert e.weights[0] == 0.25 and e.states[0, 0, 0] == HALF[0, 0]
    assert not e.weights.flags.writeable and not e.states.flags.writeable
    # a global phase leaves a branch's projector unchanged
    assert np.allclose(e.density_matrix(), np.outer(HALF, HALF), atol=1e-15)


def single_branch_ensemble(matrix, p=0.5):
    return ConditionalEnsemble([1.0], [matrix], success_probability=p)


def test_embed_diagonal_roundtrip():
    # the embedding psi[n, n] = c_n that the trace distance gives its target, kept exactly
    v = normalize(vec(1.0, 0.5, 0.25))
    branch = single_branch_ensemble(np.diag(v.coeffs)).states[0]
    assert np.array_equal(np.diagonal(branch), v.coeffs)
    off = np.array(branch)
    np.fill_diagonal(off, 0.0)
    assert np.all(off == 0.0)


def test_trace_distance_identical_state():
    v = normalize(vec(1.0, 0.7, 0.2))
    e = single_branch_ensemble(np.diag(v.coeffs))
    assert abs(trace_distance_pure_vs_ensemble(v, e)) < 1e-12


def test_trace_distance_orthogonal_state():
    target = normalize(vec(1.0, 0.0))
    other = np.diag(normalize(vec(0.0, 1.0)).coeffs)
    d = trace_distance_pure_vs_ensemble(target, single_branch_ensemble(other))
    assert abs(d - 1.0) < 1e-12


def test_trace_distance_cutoff_mismatch():
    target = normalize(vec(1.0, 0.0, 0.0))
    other = np.diag(normalize(vec(1.0, 0.0)).coeffs)
    with pytest.raises(ValueError):
        trace_distance_pure_vs_ensemble(target, single_branch_ensemble(other))


def test_trace_distance_bounds_on_random_ensembles():
    rng = np.random.default_rng(11)
    for _ in range(10):
        target = normalize(CoefficientVector(rng.standard_normal(4)))
        weights = rng.random(3)
        weights /= weights.sum()
        amps = rng.standard_normal((3, 4, 4))
        amps /= np.linalg.norm(amps, axis=(1, 2), keepdims=True)
        e = ConditionalEnsemble(weights, amps, success_probability=0.3)
        d = trace_distance_pure_vs_ensemble(target, e)
        assert -1e-12 <= d <= 1.0 + 1e-12


def test_state_file_roundtrip(tmp_path):
    v = tmss(0.6, cutoff=20)
    path = tmp_path / "state.json"
    write_state_file(v, path)
    back = read_state_file(path)
    assert np.array_equal(back.coeffs, v.coeffs)
    assert back.normalized == v.normalized
    assert back.provenance == v.provenance


def test_state_file_17_digit_floats():
    v = normalize(vec(1.0, 1.0, 1.0))
    text = state_file_text(v)
    assert "0.57735026918962584" in text  # 17 significant digits of 1/sqrt(3)


def test_state_file_cutoff_consistency(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"cutoff": 5, "coefficients": [1.0, 0.0], '
                    '"normalized": true, "provenance": ""}')
    with pytest.raises(ValueError):
        read_state_file(path)
