from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from homodyne_bell import (
    BeamSplitter,
    CoefficientVector,
    FourModeTensor,
    apply_bs_pair_on_four_modes,
    condition_on_outcome,
    normalize,
    photon_subtract_beamsplitter,
    photon_subtract_exact,
    ps_tmss,
    run_pipeline,
    tmss,
)
from homodyne_bell.linear_optics import _blocks, _unitary_table
from homodyne_bell.pipeline import PipelineConfig


def brute_force_unitary(T, R, cutoff):
    """Product of the four factor exponentials on a dense two-mode space.

    Exact on every subspace of conserved total photon number <= cutoff.
    """
    d = cutoff + 1
    a = np.diag(np.sqrt(np.arange(1.0, d)), 1)
    eye = np.eye(d)
    A = np.kron(a, eye)
    B = np.kron(eye, a)
    lnT = np.log(complex(T))
    U = (expm(A.conj().T @ A * lnT)
         @ expm(-np.conj(R) * (B.conj().T @ A))
         @ expm(R * (B @ A.conj().T))
         @ expm(-(B.conj().T @ B) * lnT))
    return U.reshape(d, d, d, d)


S = 1.0 / np.sqrt(2.0)
BALANCED, IDENTITY = BeamSplitter(S, S), BeamSplitter(1.0, 0.0)


def random_splitter(rng):
    theta = rng.uniform(0.15, 1.4)
    return BeamSplitter(np.cos(theta) * np.exp(1j * rng.uniform(0, 2 * np.pi)),
                        np.sin(theta) * np.exp(1j * rng.uniform(0, 2 * np.pi)))


def block(bs, total):
    """The block <j, total-j|U|m, total-m> of the splitter, indexed [j, m]."""
    return _blocks(complex(bs.T), complex(bs.R), total)[total, :total + 1, :total + 1]


def mix_two_modes(bs, amps):
    """Mix a two-mode state held on modes (a, c) of a four-mode tensor whose modes b
    and d are vacuum; returns (mixed amplitudes on (a, c), truncation notes)."""
    four = np.zeros((amps.shape[0], 2, amps.shape[1], 2), dtype=amps.dtype)
    four[:, 0, :, 0] = amps
    out = apply_bs_pair_on_four_modes(bs, FourModeTensor(four))
    assert not np.any(out.amps[:, 1]) and not np.any(out.amps[..., 1])   # b, d stay vacuum
    return out.amps[:, 0, :, 0], out.notes


def test_vacuum_is_invariant():
    assert block(BeamSplitter(0.6, 0.8), 0)[0, 0] == 1.0


def test_single_photon_elements():
    bs = BeamSplitter(0.6 * np.exp(0.3j), 0.8 * np.exp(-0.7j))
    assert abs(block(bs, 1)[1, 1] - bs.T) < 1e-14              # <1,0|U|1,0>
    assert abs(block(bs, 1)[0, 1] + np.conj(bs.R)) < 1e-14     # <0,1|U|1,0>


def test_two_photon_element():
    assert abs(block(BeamSplitter(0.6, 0.8), 2)[2, 1] - np.sqrt(2) * 0.6 * 0.8) < 1e-14


def test_photon_conservation_exhaustive():
    # the dense table is zero wherever j + k != m + n
    W = _unitary_table(0.6 + 0j, 0.8 + 0j, 8, 8)
    j, k, m, n = np.indices(W.shape)
    assert np.all(W[j + k != m + n] == 0.0)


def test_large_indices_stay_finite_and_unitary():
    # 64 photons: the block recurrence has no factorial to overflow and no
    # alternating sum to cancel, so the whole 65 x 65 block is unitary to rounding
    for t in (0.3, 1 / np.sqrt(2), 0.9):
        block64 = block(BeamSplitter.from_transmissivity(t), 64)
        assert np.all(np.isfinite(block64))
        assert np.max(np.abs(block64)) <= 1.0
        assert abs(np.sum(np.abs(block64[:, 32]) ** 2) - 1.0) < 1e-12    # the row <., .|U|32, 32>
        assert np.max(np.abs(block64.conj().T @ block64 - np.eye(65))) < 1e-12


def test_brute_force_equivalence_20_random_splitters():
    rng = np.random.default_rng(1905)
    cutoff = 6
    for _ in range(20):
        bs = random_splitter(rng)
        U = brute_force_unitary(bs.T, bs.R, cutoff)
        worst = 0.0
        for m in range(cutoff + 1):
            for n in range(cutoff + 1):
                if m + n > cutoff:
                    continue
                for j in range(m + n + 1):
                    k = m + n - j
                    worst = max(worst, abs(block(bs, m + n)[j, m] - U[j, k, m, n]))
        assert worst < 1e-10
        # the dense table, on every input the truncated oracle holds exactly
        W = _unitary_table(complex(bs.T), complex(bs.R), cutoff, cutoff)
        exact = np.add.outer(np.arange(cutoff + 1), np.arange(cutoff + 1)) <= cutoff
        assert np.max(np.abs(W - U)[..., exact]) < 1e-10


@settings(max_examples=15, deadline=None)
@given(st.floats(0.0, np.pi / 2), st.floats(0.0, 2 * np.pi), st.floats(0.0, 2 * np.pi),
       st.integers(0, 2 ** 31))
def test_random_splitter_is_unitary_and_conserves_photons(theta, phase_t, phase_r, seed):
    bs = BeamSplitter(np.cos(theta) * np.exp(1j * phase_t), np.sin(theta) * np.exp(1j * phase_r))
    for total in range(9):
        # the block on total photon number N = j + k = m + n is unitary
        b = block(bs, total)
        assert np.max(np.abs(b.conj().T @ b - np.eye(total + 1))) < 1e-12
    # mixing a state supported below the cutoff keeps its photon-number distribution
    rng = np.random.default_rng(seed)
    amps = np.zeros((9, 9), dtype=complex)
    amps[:4, :4] = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    amps /= np.linalg.norm(amps)
    out, _ = mix_two_modes(bs, amps)
    totals = np.add.outer(np.arange(9), np.arange(9)).ravel()
    before, after = (np.bincount(totals, np.abs(a.ravel()) ** 2) for a in (amps, out))
    assert np.max(np.abs(after - before)) < 1e-12


def test_unitarity_of_splitter_constructor():
    with pytest.raises(ValueError):
        BeamSplitter(0.9, 0.9)


def test_identity_splitter_leaves_state():
    rng = np.random.default_rng(3)
    amps = rng.standard_normal((5, 5))
    amps /= np.linalg.norm(amps)
    out, _ = mix_two_modes(IDENTITY, amps)
    assert np.max(np.abs(out - amps)) < 1e-14


def test_balanced_splitter_on_single_photon():
    amps = np.zeros((3, 3))
    amps[1, 0] = 1.0
    out, _ = mix_two_modes(BALANCED, amps)
    assert abs(out[1, 0] - S) < 1e-14
    assert abs(out[0, 1] + S) < 1e-14


def test_two_mode_norm_preserved_below_cutoff():
    rng = np.random.default_rng(7)
    for _ in range(5):
        bs = random_splitter(rng)
        amps = np.zeros((9, 9))
        amps[:4, :4] = rng.standard_normal((4, 4))  # support far below cutoff
        amps /= np.linalg.norm(amps)
        out, notes = mix_two_modes(bs, amps)
        assert abs(np.sum(np.abs(out) ** 2) - 1.0) < 1e-12
        assert notes == ()


def test_truncation_warning_on_top_level_mass():
    amps = np.zeros((3, 3))
    amps[2, 2] = 1.0
    _, notes = mix_two_modes(BALANCED, amps)
    assert any("truncation" in note for note in notes)


def product_of_two_tmss(lam, cutoff):
    c = tmss(lam, cutoff).coeffs
    c = c / np.linalg.norm(c)
    amps = np.einsum("m,n->mn", c, c)
    four = np.zeros((cutoff + 1,) * 4)
    for m in range(cutoff + 1):
        for n in range(cutoff + 1):
            four[m, m, n, n] = amps[m, n]
    return FourModeTensor(four)


def test_four_mode_identity_and_unitarity():
    t = product_of_two_tmss(0.01, 4)
    out = apply_bs_pair_on_four_modes(IDENTITY, t)
    assert np.max(np.abs(out.amps - t.amps)) < 1e-14
    rng = np.random.default_rng(5)
    out2 = apply_bs_pair_on_four_modes(random_splitter(rng), t)
    assert abs(out2.norm_squared() - 1.0) < 1e-12


def test_condition_on_vacuum_click_is_impossible():
    four = np.zeros((3, 3, 3, 3))
    four[0, 0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        condition_on_outcome(FourModeTensor(four), outcomes=("click", "click"))


def test_condition_certain_click():
    four = np.zeros((2, 2, 2, 2))
    four[0, 0, 1, 1] = 1.0  # one photon in each detected mode
    ens = condition_on_outcome(FourModeTensor(four), outcomes=("click", "click"))
    assert abs(ens.success_probability - 1.0) < 1e-12
    assert ens.weights.shape == (1,) and ens.states.shape == (1, 2, 2)


def test_click_ensemble_matches_exhaustive_projector_sum():
    t = product_of_two_tmss(0.15, 5)
    bs = BeamSplitter.from_transmissivity(0.8)
    mixed = apply_bs_pair_on_four_modes(bs, t)
    ens = condition_on_outcome(mixed)
    manual = 0.0
    for k in range(1, 6):
        for l in range(1, 6):
            manual += float(np.sum(np.abs(mixed.amps[:, :, k, l]) ** 2))
    assert abs(ens.success_probability - manual) < 1e-14


def test_click_plus_vacuum_probabilities_are_complete():
    # support kept far enough below the cutoff that truncation leakage < 1e-12
    t = product_of_two_tmss(0.1, 7)
    mixed = apply_bs_pair_on_four_modes(BeamSplitter.from_transmissivity(0.7), t)
    total = sum(
        condition_on_outcome(mixed, outcomes=pair).success_probability
        for pair in (("vacuum", "vacuum"), ("vacuum", "click"), ("click", "vacuum"),
                     ("click", "click"))
    )
    assert abs(total - 1.0) < 1e-12


def test_subtract_exact_single_pair():
    out = photon_subtract_exact(CoefficientVector(np.array([0.0, 1.0])))
    assert np.allclose(out.coeffs, [1.0])


def test_subtract_exact_on_seed_leaves_vacuum():
    for xi in (0.3, 1.0, 2.5):
        out = photon_subtract_exact(normalize(CoefficientVector(np.array([1.0, xi, 0.0]))))
        assert np.allclose(out.coeffs, [1.0, 0.0])


def test_subtract_exact_matches_catalog_formula():
    lam = 0.6
    via_op = photon_subtract_exact(tmss(lam, cutoff=35))
    closed = ps_tmss(lam, cutoff=34)
    assert np.max(np.abs(via_op.coeffs - closed.coeffs)) < 1e-12


def test_subtract_exact_needs_excited_support():
    with pytest.raises(ValueError):
        photon_subtract_exact(CoefficientVector(np.array([1.0, 0.0])))


@pytest.fixture(scope="module")
def stage2_state():
    rep = run_pipeline(PipelineConfig(xi=1 / np.sqrt(2)))
    return rep.stage_states[-1]


def test_subtract_beamsplitter_converges_to_exact(stage2_state):
    exact = photon_subtract_exact(stage2_state)
    approx, _ = photon_subtract_beamsplitter(stage2_state, 0.01)
    assert np.linalg.norm(approx.coeffs - exact.coeffs) < 1e-4


def test_subtract_beamsplitter_success_scaling(stage2_state):
    _, p1 = photon_subtract_beamsplitter(stage2_state, 0.005)
    _, p2 = photon_subtract_beamsplitter(stage2_state, 0.01)
    assert abs(p2 / p1 - 16.0) < 0.02 * 16.0


@pytest.mark.parametrize("r", [1e-2, 1e-3, 1e-4, 1e-5])
def test_subtract_beamsplitter_success_is_exact(stage2_state, r):
    # P = sum_n (c_n <n-1,1|U|n,0>^2)^2 with <n-1,1|U|n,0>^2 = n (1 - r^2)^(n-1) r^2,
    # in exact rational arithmetic on the same floats
    r2 = Fraction(r) ** 2
    exact = sum((Fraction(float(c)) * n * (1 - r2) ** (n - 1) * r2) ** 2
                for n, c in enumerate(stage2_state.coeffs) if n > 0)
    _, success = photon_subtract_beamsplitter(stage2_state, r)
    assert abs(Fraction(success) / exact - 1) < 1e-14


def test_subtract_beamsplitter_rejects_vacuum_and_large_r():
    with pytest.raises(ValueError):
        photon_subtract_beamsplitter(CoefficientVector(np.array([1.0, 0.0])), 0.01)
    with pytest.raises(ValueError):
        photon_subtract_beamsplitter(CoefficientVector(np.array([0.0, 1.0])), 0.5)


# --- per-block references: the dense table, the mixer and conditioning as first written ---

def reference_blocks(T, R, n_max):
    """Blocks of the beam-splitter recurrence, each raised column built by np.pad."""
    blocks = [np.ones((1, 1), dtype=complex)]
    for N in range(1, n_max + 1):
        prev = blocks[-1]
        j = np.arange(N + 1)[:, None]
        raised_a = np.sqrt(j) * np.pad(prev, ((1, 0), (0, 0)))
        raised_b = np.sqrt(N - j) * np.pad(prev, ((0, 1), (0, 0)))
        m = np.arange(N)
        block = np.zeros((N + 1, N + 1), dtype=complex)
        block[:, 1:] += (T * raised_a - np.conj(R) * raised_b) * np.sqrt(m + 1)
        block[:, :-1] += (R * raised_a + np.conj(T) * raised_b) * np.sqrt(N - m)
        blocks.append(block / N)
    return blocks


def reference_table(T, R, cut_a, cut_b):
    """The dense table by one np.ix_ assignment per block."""
    W = np.zeros((cut_a + 1, cut_b + 1, cut_a + 1, cut_b + 1), dtype=complex)
    for N, block in enumerate(reference_blocks(T, R, cut_a + cut_b)):
        a = np.arange(max(0, N - cut_b), min(cut_a, N) + 1)
        W[a[:, None], N - a[:, None], a, N - a] = block[np.ix_(a, a)]
    return W


def reference_mix(bs, amps):
    """Mix the first two axes of `amps` by a 4-index einsum over the reference table."""
    W = reference_table(complex(bs.T), complex(bs.R), amps.shape[0] - 1, amps.shape[1] - 1)
    return np.einsum("jkmn,mn...->jk...", W, amps)


def reference_counts(outcome, cutoff):
    """The photon counts an on/off detector outcome admits."""
    return range(0, 1) if outcome == "vacuum" else range(1, cutoff + 1)


def reference_condition(amps, outcomes):
    """(success probability, [(weight, normalized branch)]) by a loop over count pairs."""
    branches, total = [], 0.0
    for k in reference_counts(outcomes[0], amps.shape[2] - 1):
        for l in reference_counts(outcomes[1], amps.shape[3] - 1):
            phi = amps[:, :, k, l]
            w = float(np.sum(np.abs(phi) ** 2))
            total += w
            if w > 0.0:
                branches.append((w, phi))
    return total, [(w / total, phi / np.sqrt(w)) for w, phi in branches]


SPLITTERS = [BeamSplitter(0.6, -0.8), BALANCED,
             BeamSplitter(0.6 * np.exp(0.3j), 0.8 * np.exp(-0.7j)),
             random_splitter(np.random.default_rng(77))]


@pytest.mark.parametrize("bs", SPLITTERS)
@pytest.mark.parametrize("cuts", [(4, 4), (3, 5), (8, 2)])
def test_unitary_table_matches_per_block_assignment(bs, cuts):
    T, R = complex(bs.T), complex(bs.R)
    W = _unitary_table(T, R, *cuts)
    assert W.shape == (cuts[0] + 1, cuts[1] + 1) * 2 and not W.flags.writeable
    assert np.max(np.abs(W - reference_table(T, R, *cuts))) <= 1e-15
    got = _blocks(T, R, sum(cuts))
    for N, want in enumerate(reference_blocks(T, R, sum(cuts))):
        assert np.max(np.abs(got[N, :N + 1, :N + 1] - want)) <= 1e-15
    assert np.all(got[np.arange(sum(cuts) + 1)[:, None, None] < np.indices(got.shape[1:]).max(0)] == 0)


@pytest.mark.parametrize("bs", SPLITTERS)
def test_mixers_match_einsum_reference(bs):
    rng = np.random.default_rng(11)
    amps = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    amps /= np.linalg.norm(amps)
    out, _ = mix_two_modes(bs, amps)
    assert np.max(np.abs(out - reference_mix(bs, amps))) <= 1e-15
    four = rng.standard_normal((4,) * 4) + 1j * rng.standard_normal((4,) * 4)
    four /= np.linalg.norm(four)
    want = reference_mix(bs, four.transpose(0, 2, 1, 3))
    want = reference_mix(bs, want.transpose(2, 3, 0, 1)).transpose(2, 0, 3, 1)
    got = apply_bs_pair_on_four_modes(bs, FourModeTensor(four)).amps
    assert np.max(np.abs(got - want)) <= 1e-15


VAC, CLICK = "vacuum", "click"


@pytest.mark.parametrize("outcomes", [(CLICK, CLICK), (VAC, CLICK), (CLICK, VAC), (VAC, VAC)])
@pytest.mark.parametrize("which", ["random", "sparse"])
def test_conditioning_matches_loop_reference(outcomes, which):
    rng = np.random.default_rng(3)
    four = rng.standard_normal((3, 4, 5, 4)) + 1j * rng.standard_normal((3, 4, 5, 4))
    if which == "sparse":     # branches with k = 2 or l = 1 weigh exactly 0 and are dropped
        four[:, :, 2] = four[..., 1] = 0.0
    four /= np.linalg.norm(four)
    ens = condition_on_outcome(FourModeTensor(four), outcomes)
    total, branches = reference_condition(four, outcomes)
    assert abs(ens.success_probability / total - 1.0) <= 1e-15
    assert ens.weights.shape == (len(branches),)
    assert ens.states.shape == (len(branches), *four.shape[:2])
    for w, state, (w_ref, phi_ref) in zip(ens.weights, ens.states, branches):
        assert abs(w - w_ref) <= 1e-15
        assert np.max(np.abs(state - phi_ref)) <= 1e-15


def test_unknown_outcome_is_refused():
    # an on/off detector reads vacuum or click, never an exact count
    four = np.zeros((3, 3, 3, 3))
    four[0, 0, 1, 1] = 1.0
    with pytest.raises(ValueError, match=r"^outcomes \('click', 'exact'\) are not two of"):
        condition_on_outcome(FourModeTensor(four), ("click", "exact"))
