import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from exact import odd_pair_sum
from homodyne_bell import (CoefficientVector, PipelineConfig, bell, bell_report, chsh_B, circle,
                           estimate_B, normalize, p_plus_plus, run_pipeline, sample_joint,
                           sampler, seed, tmss)

CHI = np.pi / 4
PINNED = [[38012, 12092], [11960, 37936]]   # pipelined state, chi = pi/4, 10^5 pairs, seed 7


def test_same_seed_reproduces_counts(pipeline_state):
    a = sample_joint(pipeline_state, CHI, 20_000, seed=7)
    b = sample_joint(pipeline_state, CHI, 20_000, seed=7)
    assert np.array_equal(a.counts, b.counts)
    c = sample_joint(pipeline_state, CHI, 20_000, seed=8)
    assert not np.array_equal(a.counts, c.counts)


def test_counts_total_and_metadata(pipeline_state):
    batch = sample_joint(pipeline_state, CHI, 5_000, seed=3)
    assert int(batch.counts.sum()) == 5_000
    assert batch.generator == "philox4x64"
    assert batch.chi == CHI


def test_vacuum_quadrants_are_fair():
    vac = seed(0.0, cutoff=4)
    n = 1_000_000
    batch = sample_joint(vac, 0.3, n, seed=11)
    sigma = np.sqrt(0.25 * 0.75 / n)
    for quadrant in batch.counts.reshape(-1):
        assert abs(quadrant / n - 0.25) < 3 * sigma


def test_marginal_signs_are_balanced(pipeline_state):
    n = 400_000
    for state, chi, s in ((pipeline_state, CHI, 21), (tmss(0.6), 1.1, 22)):
        batch = sample_joint(state, chi, n, seed=s)
        sigma = 0.5 / np.sqrt(n)
        plus_a = batch.counts[0].sum() / n
        plus_b = batch.counts[:, 0].sum() / n
        assert abs(plus_a - 0.5) < 3 * sigma
        assert abs(plus_b - 0.5) < 3 * sigma


def test_empirical_quadrant_tracks_analytic(pipeline_state):
    n = 1_000_000
    batch = sample_joint(pipeline_state, CHI, n, seed=42)
    p = p_plus_plus(pipeline_state, CHI)
    sigma = np.sqrt(p * (1 - p) / n)
    assert abs(batch.counts[0, 0] / n - p) < 3 * sigma


def test_sampling_requires_normalized_state():
    from homodyne_bell import CoefficientVector
    with pytest.raises(ValueError):
        sample_joint(CoefficientVector(np.array([1.0, 1.0])), CHI, 10, seed=0)


@pytest.mark.parametrize("excess", [0.9e-8, -0.9e-8, 1.1e-8, -1.1e-8])
def test_sampler_and_bell_share_one_norm_gate(pipeline_state, excess):
    # |c|^2 - 1 just inside and just outside bell's 1e-8: sample_joint and bell_report accept
    # or refuse together
    c = pipeline_state.coeffs * np.sqrt(1.0 + excess)
    assert abs(np.dot(c, c) - 1.0 - excess) < 1e-15
    v = CoefficientVector(c)
    evaluations = (lambda: sample_joint(v, CHI, 100, seed=0), lambda: bell_report(v, CHI))
    for evaluate in evaluations:
        if abs(excess) < 1e-8:
            evaluate()
        else:
            with pytest.raises(ValueError, match="normalized state"):
                evaluate()


def test_convergence_rate_over_seeded_runs(pipeline_state):
    # 1/sqrt(n) convergence: 3-sigma coverage over 100 seeded runs
    n = 10_000
    p = p_plus_plus(pipeline_state, CHI)
    sigma = np.sqrt(p * (1 - p) / n)
    hits = sum(
        abs(sample_joint(pipeline_state, CHI, n, seed=1000 + i).counts[0, 0] / n - p) < 3 * sigma
        for i in range(100)
    )
    assert hits >= 99


def test_estimate_vacuum_is_zero_within_errors():
    est = estimate_B(seed(0.0, cutoff=4), CHI, 200_000, seed=5)
    assert abs(est.b) < 3 * est.stderr
    assert est.batch_chi.seed != est.batch_3chi.seed


def test_estimate_matches_analytic_for_pipeline(pipeline_state):
    est = estimate_B(pipeline_state, CHI, 1_000_000, seed=42)
    assert abs(est.b - chsh_B(pipeline_state, CHI)) < 3 * est.stderr
    assert est.b > 2.0


def test_estimate_respects_gaussian_bound():
    v = tmss(0.6)
    est = estimate_B(v, CHI, 200_000, seed=17)
    assert est.b <= 2.0 + 3 * est.stderr


def _plan(v, chi):
    """The cached plan sample_joint draws v's batches at chi from."""
    return sampler._plan_for(v.coeffs.tobytes(), float(chi))


def _replayed_cells(plan, n, seed_):
    """sample_joint's stream replayed up to the raw pairs: the quadrant counts, then each
    quadrant's count spread over its cells (A+B+, A+B-, A-B+, A-B-).  Returns the per-cell
    counts m and m_minus (x_B < 0) and the stream as raw_pairs finds it."""
    rng = np.random.Generator(np.random.Philox(seed_))
    quadrant_counts = rng.multinomial(n, plan.quadrants)
    signs = np.empty((plan.centers.size, 2), dtype=np.int64)
    for q, n_q in enumerate(quadrant_counts):
        rows = slice(plan.half, None) if q < 2 else slice(0, plan.half)
        signs[rows, q % 2] = rng.multinomial(n_q, plan.joint[rows, q % 2] / plan.quadrants[q])
    return signs.sum(axis=1), signs[:, 1], rng


def _counted_signs(v, chi, n, seed_):
    """Per-pair (A, B) signs in dump order, replayed from sample_joint's draws: the
    quadrant and cell counts, then the in-cell uniforms of x_A and x_B, then the shuffle."""
    plan = _plan(v, chi)
    m, m_minus, rng = _replayed_cells(plan, n, seed_)
    rng.random(n), rng.random(n)
    order = rng.permutation(n)
    blocks = np.column_stack([m_minus, m - m_minus]).ravel()
    plus_a = np.repeat(np.repeat(np.arange(m.size) >= plan.half, 2), blocks)
    plus_b = np.repeat(np.tile([False, True], m.size), blocks)
    return plus_a[order], plus_b[order]


def test_raw_sample_export(pipeline_state):
    n = 1_000
    for state in (pipeline_state, tmss(0.6)):
        for chi in (CHI, 1.1):
            batch = sample_joint(state, chi, n, seed=1, keep_samples=True)
            assert batch.samples.shape == (n, 2)
            signs = batch.samples >= 0
            counts = np.array([
                [np.sum(signs[:, 0] & signs[:, 1]), np.sum(signs[:, 0] & ~signs[:, 1])],
                [np.sum(~signs[:, 0] & signs[:, 1]), np.sum(~signs[:, 0] & ~signs[:, 1])],
            ])
            assert np.array_equal(counts, batch.counts)
            assert np.array_equal(batch.counts, sample_joint(state, chi, n, seed=1).counts)
            # every dumped value lies in the half-line its counted sign names
            plus_a, plus_b = _counted_signs(state, chi, n, 1)
            assert np.array_equal(signs[:, 0], plus_a)
            assert np.array_equal(signs[:, 1], plus_b)
            assert np.all(np.abs(batch.samples) <= sampler.GRID_HALF_WIDTH)


def test_counts_are_pinned(pipeline_state):
    # recorded with the one quadrant multinomial over the two-node plan
    assert sample_joint(pipeline_state, CHI, 10 ** 5, seed=7).counts.tolist() == PINNED
    assert sample_joint(tmss(0.6), 1.1, 10 ** 5, seed=22).counts.tolist() == \
        [[31507, 18507], [18472, 31514]]


def test_counts_are_one_quadrant_multinomial(pipeline_state):
    for v, chi, n, s in ((pipeline_state, CHI, 10 ** 6, 3), (tmss(0.6), 1.1, 10 ** 17, 4)):
        plan = _plan(v, chi)
        replay = np.random.Generator(np.random.Philox(s)).multinomial(n, plan.quadrants)
        assert sample_joint(v, chi, n, seed=s).counts.tolist() == replay.reshape(2, 2).tolist()
        # the table's rows are the cells, its columns x_B >= 0 and x_B < 0
        assert plan.joint.shape == (sampler.GRID_POINTS, 2) and np.all(plan.joint >= 0)
        assert abs(plan.joint.sum() - 1.0) < 1e-15 and abs(plan.quadrants.sum() - 1.0) < 1e-15
        # the raw pairs' cell counts add up to the quadrant counts they are drawn under
        counts = replay.reshape(2, 2)
        m, m_minus = plan.cell_counts(counts, np.random.Generator(np.random.Philox(s)))
        assert [[(m - m_minus)[plan.half:].sum(), m_minus[plan.half:].sum()],
                [(m - m_minus)[:plan.half].sum(), m_minus[:plan.half].sum()]] == counts.tolist()


def test_plan_holds_the_occupied_levels_only(pipeline_state):
    # 32 levels of which the top 24 are exactly 0: the plan is built on the other 8, and
    # the plan of the trimmed state is the same table
    assert pipeline_state.coeffs.size == 32 and _plan(pipeline_state, CHI).phase.size == 8
    trimmed = CoefficientVector(pipeline_state.coeffs[:8], normalized=True)
    assert np.array_equal(_plan(trimmed, CHI).joint, _plan(pipeline_state, CHI).joint)


def test_coverage_at_1e16_and_1e17_pairs(pipeline_state):
    # midpoint cell integrals bias P++ by about +1.4e-8, which shows here as a mean z of
    # +8.3 (10^16) and +26 (10^17); the two-node integrals leave rounding only
    b = chsh_B(pipeline_state, CHI)
    for n in (10 ** 16, 10 ** 17):
        z = [(est.b - b) / est.stderr
             for est in (estimate_B(pipeline_state, CHI, n, seed=s) for s in range(200))]
        assert abs(np.mean(z)) <= 0.5


def test_tight_coverage_at_1e11_pairs(pipeline_state):
    est = estimate_B(pipeline_state, CHI, 10 ** 11, seed=2718)
    assert 8.5e-6 < est.stderr < 8.7e-6
    assert abs(est.b - chsh_B(pipeline_state, CHI)) <= 3 * est.stderr


@settings(max_examples=10, deadline=None)
@given(st.floats(0.3, 1.0), st.integers(0, 4), st.integers(0, 2 ** 31))
def test_pipeline_sampler_bell_agree(xi, iterations, seed_int):
    v = run_pipeline(PipelineConfig(xi=xi, iterations=iterations)).final_state
    est = estimate_B(v, CHI, 10 ** 9, seed=seed_int)
    assert abs(est.b - chsh_B(v, CHI)) <= 4 * est.stderr


def test_sampler_never_reads_the_overlap_table(pipeline_state, monkeypatch):
    def refuse(*_):
        raise AssertionError("the sampler read the closed-form overlap table")

    sampler._plan_for.cache_clear()
    monkeypatch.setattr(bell, "overlap_table", refuse)
    assert sample_joint(pipeline_state, CHI, 10 ** 5, seed=7).counts.tolist() == PINNED
    assert sample_joint(pipeline_state, CHI, 1_000, seed=7, keep_samples=True).samples.shape \
        == (1_000, 2)
    assert estimate_B(pipeline_state, CHI, 10 ** 5, seed=1).b > 0


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 12), st.floats(-2 * np.pi, 2 * np.pi), st.integers(0, 2 ** 31))
def test_sign_table_reproduces_closed_form(n_max, chi, seed_int):
    # the grid's own two-node cell integrals against the overlap table's closed form: two
    # independent routes, which the midpoint rule parted by about 2e-8
    v = normalize(np.random.default_rng(seed_int).standard_normal(n_max + 1))
    pp, pm, mp, mm = sampler._SamplerPlan(v.coeffs, chi).quadrants
    assert abs(pp - p_plus_plus(v, chi)) < 1e-13
    assert abs(mm - p_plus_plus(v, chi)) < 1e-13
    assert abs(pp + mp - 0.5) < 1e-13 and abs(pp + pm - 0.5) < 1e-13


def test_grid_truncation_is_refused():
    # the +-12 grid misses over a third of levels 80..99 on each axis (0.53 of the joint
    # mass); renormalizing gave B = -0.13
    c = np.zeros(100)
    c[80:] = np.sqrt(1.0 / 20.0)
    with pytest.raises(ValueError, match="misses"):
        sample_joint(CoefficientVector(c, normalized=True), CHI, 100, seed=0)
    # tmss(0.9) cut at 64 levels loses 1.8e-10 per axis, 3.6e-10 of the joint mass on the
    # grid, and is sampled
    assert sample_joint(tmss(0.9, cutoff=64), CHI, 100, seed=0).n_samples == 100


def test_warm_plan_is_small(pipeline_state):
    plan = _plan(pipeline_state, CHI)
    held = sum(a.nbytes for a in vars(plan).values() if isinstance(a, np.ndarray))
    assert held < 2 ** 20


def _cell_of(plan, x):
    """Grid cell of each x, by the cell edges."""
    return np.searchsorted(plan.edges, x, "right") - 1


def _full_row_pairs(plan, m, m_minus, rng, x_b):
    """An oracle from the same stream: one full 2^14-point conditional CDF row per drawn cell,
    256 cells at a time.  Each pair's block is taken from x_b, raw_pairs' own output in its
    order; the pair's point is where the row reaches cum[b * 128 - 1] + u (block's mass)."""
    n = int(m.sum())
    ia = np.repeat(np.repeat(np.arange(m.size), 2), np.column_stack([m_minus, m - m_minus]).ravel())
    x_a = plan.invert(0.0, 1.0, ia, rng.random(n))
    u_b, order = rng.random(n), rng.permutation(n)
    first = np.empty(n, dtype=int)                  # first point of each pair's block
    first[order] = _cell_of(plan, x_b) // sampler._BLOCK * sampler._BLOCK
    V = bell.hermite_basis(plan.phase.size - 1, plan.centers)
    cells = np.flatnonzero(m)
    out = np.empty(n)
    for i in range(0, cells.size, 256):
        block = cells[i:i + 256]
        pick = slice(np.searchsorted(ia, block[0]), np.searchsorted(ia, block[-1], "right"))
        a = plan.phase[:, None] * V[:, block]
        rows = np.cumsum((a.real.T @ V) ** 2 + (a.imag.T @ V) ** 2, axis=1)
        rows /= rows[:, -1:]
        r, lo = np.searchsorted(block, ia[pick]), first[pick]
        below = np.where(lo > 0, rows[r, lo - 1], 0.0)
        t = below + u_b[pick] * (rows[r, lo + sampler._BLOCK - 1] - below)
        jb = sampler._lower_bound_rows(rows, r, t, lo, lo + sampler._BLOCK - 1)
        prev = np.where(jb > 0, rows[r, np.maximum(jb - 1, 0)], 0.0)
        out[pick] = plan.invert(prev, rows[r, jb], jb, t)
    return np.column_stack([x_a, out])[order]


def _point_weights(plan, cell, points):
    """Float64 weights of the grid points `points` (an index array or slice) given x_A's
    cell, as raw_pairs and the full-row oracle form them."""
    V = bell.hermite_basis(plan.phase.size - 1, plan.centers)
    a = plan.phase[:, None] * V[:, [cell]]
    return ((a.real.T @ V[:, points]) ** 2 + (a.imag.T @ V[:, points]) ** 2)[0]


def _exact_x_b(plan, cell, x_b, u):
    """x_B inverted at u within its block (the one x_b lies in) from the float64 point weights
    of `cell` there, in exact rational arithmetic."""
    first = _cell_of(plan, x_b) // sampler._BLOCK * sampler._BLOCK
    # float64 weights are dyadic: as integers in units of 2^-1074 every sum is exact
    w = [n << (1075 - d.bit_length()) for n, d in
         (x.as_integer_ratio() for x in
          _point_weights(plan, cell, slice(first, first + sampler._BLOCK)))]
    target, below = u * sum(w), 0
    for j, wj in enumerate(w[:-1]):
        if below + wj >= target:
            break
        below += wj
    return plan.edges[first + j] + float((target - below) / wj) * bell.CELL_WIDTH


def _replay(plan, m, m_minus, rng):
    """Cell and x_B uniform of each pair raw_pairs returns, in its output order, replayed
    from its stream (rng as raw_pairs found it)."""
    n = int(m.sum())
    _, u_b, order = rng.random(n), rng.random(n), rng.permutation(n)
    cells = np.repeat(np.repeat(np.arange(m.size), 2),
                      np.column_stack([m_minus, m - m_minus]).ravel())
    return cells[order], u_b[order]


def _assert_matches_oracle(plan, m, m_minus, rng, new):
    """new raw pairs against the oracle's from the same stream (rng as raw_pairs found it):
    same x_A and signs, x_B to 1e-9.  Where they differ by more, the oracle's float64
    cumsum over 2^14 points is the coarser one (far tails): new is the nearer the exact."""
    state = rng.bit_generator.state
    old = _full_row_pairs(plan, m, m_minus, rng, new[:, 1])
    rng.bit_generator.state = state
    cells, u_b = _replay(plan, m, m_minus, rng)
    assert np.array_equal(new[:, 0], old[:, 0])               # same uniforms, same x_A
    assert np.array_equal(new >= 0, old >= 0)
    assert np.all(np.abs(new) <= sampler.GRID_HALF_WIDTH)
    far = np.flatnonzero(np.abs(new[:, 1] - old[:, 1]) > 1e-9)
    assert far.size <= 3                                     # far-tail pairs only
    for i in far:
        exact = _exact_x_b(plan, cells[i], new[i, 1], Fraction(u_b[i]))
        assert abs(new[i, 1] - exact) <= 1e-9 < abs(old[i, 1] - exact)


def _assert_light_halves_exact(v, chi, plus, minus=(), tol=1e-9):
    """Two pairs forced onto x_B >= 0 in each cell `plus` and two onto x_B < 0 in each of
    `minus`, on top of a drawn batch: each lands on its half, x_B within tol of an exact
    rational inversion of the same point weights in its block."""
    plan = sampler._SamplerPlan(v.coeffs, chi)
    plus, minus = np.asarray(plus, dtype=int), np.asarray(minus, dtype=int)
    m, m_minus, rng = _replayed_cells(plan, 2_000, 5)
    m[plus] += 2
    m[minus] += 2
    m_minus[minus] += 2
    state = rng.bit_generator.state
    new = plan.raw_pairs(m, m_minus, rng)
    rng.bit_generator.state = state
    cells, u_b = _replay(plan, m, m_minus, rng)
    forced = np.flatnonzero(np.isin(cells, plus) & (new[:, 1] >= 0)
                            | np.isin(cells, minus) & (new[:, 1] < 0))
    assert forced.size >= 2 * (len(plus) + len(minus))
    for i in forced:
        exact = _exact_x_b(plan, cells[i], new[i, 1], Fraction(u_b[i]))
        assert abs(new[i, 1] - exact) <= tol


@settings(max_examples=10, deadline=None)
@given(st.one_of(st.integers(0, 12), st.sampled_from(["pipeline", "tmss"])),
       st.floats(-2 * np.pi, 2 * np.pi), st.integers(0, 2 ** 31))
def test_raw_pairs_match_full_row_oracle(pipeline_state, which, chi, seed_int):
    if which == "pipeline":
        v = pipeline_state
    elif which == "tmss":
        v = tmss(0.6)
    else:
        c = np.random.default_rng(seed_int).standard_normal(which + 1)
        v = normalize(c)
    n = 1_000
    new = sample_joint(v, chi, n, seed_int, keep_samples=True).samples
    # replay sample_joint's stream: the quadrant and cell counts, then what raw_pairs draws
    plan = _plan(v, chi)
    m, m_minus, rng = _replayed_cells(plan, n, seed_int)
    _assert_matches_oracle(plan, m, m_minus, rng, new)


def test_raw_pairs_match_oracle_where_a_half_line_holds_nothing():
    # tmss(0.5) at 64 levels: in the outer x_A cells x_B's conditional mass on the far
    # half-line, about 4e-21 of the cell's, is below float64 rounding of the cell's CDF, so
    # the joint table's share of it is rounding (~1e-16) and the full-row oracle meets a
    # flat CDF there (it put x_B mid first cell, up to 0.19 off).  The block counts are
    # drawn on weights normalized over the counted half, and x_B inverts its block's own
    # CDF, so a near-empty half keeps its relative precision.  At 4e-21 the float64 point
    # weights themselves carry ~1e-16 / sqrt(4e-21) ~ 2e-6 of their value (more where the
    # amplitude cancels), and raw_pairs' products round differently from this test's: x_B
    # lay within 2.7e-9 of the exact inversion of the test's weights
    v = tmss(0.5, cutoff=64)
    for chi in (0.0, np.pi):
        plan = sampler._SamplerPlan(v.coeffs, chi)
        # the eight outermost such cells among those holding all but 1e-12 of the x_A mass
        cdf = np.cumsum(plan.joint.sum(axis=1))
        inner = np.arange(np.searchsorted(cdf, 1e-12), np.searchsorted(cdf, 1.0 - 1e-12) + 1)
        empty_plus = inner[plan.joint[inner, 0] < 1e-15 * plan.joint[inner].sum(axis=1)]
        x_a = plan.centers[empty_plus]
        _assert_light_halves_exact(v, chi, empty_plus[np.argsort(-np.abs(x_a))[:8]], tol=1e-8)


def test_raw_pairs_keep_precision_on_a_light_half_line():
    # tmss(0.6) at chi = 0: cells where one half holds about 2.8e-12 of the cell's mass; in
    # units of the whole cell the x_B >= 0 target q + u (1 - q) and its CDF carry ~1e-16,
    # which put x_B 2.7e-5 off the exact inversion in this batch; block counts over the
    # half and a CDF within the block keep it to 3.2e-13
    v = tmss(0.6)
    plan = sampler._SamplerPlan(v.coeffs, 0.0)
    p_minus_b = plan.joint[:, 1] / plan.joint.sum(axis=1)
    plus = np.argsort(np.abs(1.0 - p_minus_b - 2.8e-12))[:8]
    minus = np.argsort(np.abs(p_minus_b - 2.8e-12))[:8]
    _assert_light_halves_exact(v, 0.0, plus, minus)


@pytest.mark.parametrize("case", ["pipeline", "near-empty half"])
def test_block_counts_of_one_cell_half_are_multinomial(pipeline_state, case):
    # 10^5 pairs forced onto one (cell, half): their blocks of 128 points against the block
    # sums of the full row's point weights (not the QR factors raw_pairs weighs blocks by),
    # normalized over the half, by a chi-square test at level 1e-3 over the blocks expected
    # to hold 5 pairs or more, the rest pooled
    from scipy.stats import chi2
    if case == "pipeline":
        v, chi, cell, negative = pipeline_state, CHI, sampler.GRID_POINTS // 2 + 300, False
    else:                       # tmss(0.5) at chi = 0, x_A = -7.5: x_B >= 0 holds ~1e-26
        v, chi, cell, negative = tmss(0.5, cutoff=64), 0.0, 3072, False
    plan, n = sampler._SamplerPlan(v.coeffs, chi), 10 ** 5
    m, m_minus = np.zeros(sampler.GRID_POINTS, dtype=np.int64), np.zeros(sampler.GRID_POINTS,
                                                                            dtype=np.int64)
    m[cell], m_minus[cell] = n, n if negative else 0
    x_b = plan.raw_pairs(m, m_minus, np.random.Generator(np.random.Philox(9)))[:, 1]
    half = slice(0, plan.half) if negative else slice(plan.half, None)
    w = _point_weights(plan, cell, half).reshape(-1, sampler._BLOCK).sum(axis=1)
    expected = n * w / w.sum()
    got = np.bincount(_cell_of(plan, x_b) // sampler._BLOCK, minlength=sampler.GRID_POINTS
                      // sampler._BLOCK)[half.start // sampler._BLOCK:][:expected.size]
    assert got.sum() == n
    big = expected >= 5
    e, o = np.append(expected[big], expected[~big].sum()), np.append(got[big], got[~big].sum())
    e, o = (e, o) if e[-1] > 0 else (e[:-1], o[:-1])           # nothing to pool
    stat = np.sum((o - e) ** 2 / e)
    assert stat < chi2.ppf(1 - 1e-3, e.size - 1)


def test_invert_keeps_a_draw_at_its_cells_top_edge_negative():
    # u == at puts x on the cell's upper edge, which for the last cell left of 0 is 0 itself
    plan = _plan(tmss(0.6), CHI)
    idx = np.array([plan.half - 1, plan.half])
    x = plan.invert(np.array([0.25, 0.25]), np.array([0.5, 0.5]), idx, np.array([0.5, 0.5]))
    assert x[0] < 0 and x[1] == bell.CELL_WIDTH


def test_cell_table_is_not_moved_by_rounding_of_w_plus():
    # tmss(0.5) at 64 levels: the outer cells' far half-line holds about 4e-21 of their
    # mass.  Taken as v^T (P o W_s) v that mass was +-1e-19 of rounding, 340 cells were
    # clipped to 0, and a W+ changed in its last bits moved every per-cell count after the
    # first cell whose clip it flipped.  As a sum of squares no cell is 0, and such a W+
    # moves no count
    v = tmss(0.5, cutoff=64)
    noise = 1.0 + 4e-16 * np.random.default_rng(3).standard_normal((v.coeffs.size,) * 2)
    for chi in (0.0, 0.3, np.pi):
        plan, nudged = sampler._SamplerPlan(v.coeffs, chi), sampler._SamplerPlan(v.coeffs, chi)
        nudged.w_plus = plan.w_plus * np.sqrt(noise * noise.T)
        assert np.all(plan.joint > 0) and np.all(plan.joint[:, 1] == plan.joint[::-1, 0])
        assert 0 < np.max(np.abs(nudged.joint - plan.joint)) < 1e-15
        for s in range(20):
            counts = np.random.Generator(np.random.Philox(s)).multinomial(
                5_000, plan.quadrants).reshape(2, 2)
            got, want = (np.concatenate(p.cell_counts(counts, np.random.Generator(
                np.random.Philox(s)))) for p in (nudged, plan))
            assert np.array_equal(got, want)


def test_raw_x_b_has_the_x_a_marginal(pipeline_state):
    # sum_n c_n |n, n>: both modes have the reduced state sum_n c_n^2 |n><n|, so x_B of
    # one batch and x_A of an independent one share a law; the two columns of one batch
    # are correlated and are not compared
    n = 10 ** 5
    x_b = sample_joint(pipeline_state, CHI, n, seed=31, keep_samples=True).samples[:, 1]
    x_a = sample_joint(pipeline_state, CHI, n, seed=32, keep_samples=True).samples[:, 0]
    x_a, x_b = np.sort(x_a), np.sort(x_b)
    both = np.concatenate([x_a, x_b])
    ks = np.max(np.abs(np.searchsorted(x_a, both, "right") - np.searchsorted(x_b, both, "right")))
    # two-sample Kolmogorov-Smirnov critical value at level 1e-3 (asymptotic)
    critical = np.sqrt(-0.5 * np.log(1e-3 / 2)) * np.sqrt(2.0 / n)
    assert ks / n < critical


def test_raw_pairs_memory_is_bounded(pipeline_state):
    # full conditional CDF rows peaked at 101 MiB here; block then point inversion
    # holds one chunk's block weights and point rows
    sample_joint(pipeline_state, CHI, 10, seed=3)                 # plan built and cached
    tracemalloc.start()
    try:
        sample_joint(pipeline_state, CHI, 20_000, seed=3, keep_samples=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2 ** 20


def _gram_case(family, pipeline_state):
    return {"pipeline": pipeline_state, "circle": circle(1.12, 32), "tmss": tmss(0.6, 32)}[family]


def _exact_p_plus_plus(coeffs, j):
    """P++ at chi = j pi/4, j odd, from the float coefficients taken as exact rationals:
    |c|^2/4 plus the odd pairs of `exact.odd_pair_sum`, over |c|^2."""
    c = [Fraction(float(x)) for x in coeffs]
    return 0.25 + float(2 * odd_pair_sum(c, j) / sum(x * x for x in c)) / (np.sqrt(2.0) * np.pi)


@pytest.mark.parametrize("j", [1, 3])
@pytest.mark.parametrize("family", ["pipeline", "circle", "tmss"])
def test_gram_quadrants_match_the_closed_form_and_the_table(pipeline_state, family, j):
    # the four masses from W+ and W- (by parity), then the quadrant sums of the per-cell
    # table, built only when read.  The two nodes per cell miss the exact P++ by the rule's
    # O(dx^4) error at the half-line's end x = 0, up to 9.2e-16 here (tmss; 8.7e-16 with
    # the grid in extended precision); the closed form misses it by 1.5e-16, so the two
    # routes part by up to 1.06e-15 (the table's own sums by 1.11e-15)
    v, chi = _gram_case(family, pipeline_state), j * np.pi / 4
    sampler._plan_for.cache_clear()
    plan = _plan(v, chi)
    for p, tol in ((_exact_p_plus_plus(v.coeffs, j), 1e-15), (p_plus_plus(v, chi), 1.2e-15)):
        assert np.max(np.abs(plan.quadrants - [p, 0.5 - p, 0.5 - p, p])) <= tol
    assert "joint" not in vars(plan)
    joint, half = plan.joint, plan.half
    sums = [joint[half:, 0].sum(), joint[half:, 1].sum(),
            joint[:half, 0].sum(), joint[:half, 1].sum()]
    assert np.max(np.abs(plan.quadrants - sums)) <= 4e-16


@pytest.fixture
def basis_sizes(monkeypatch):
    """Node count of each basis evaluation the sampler makes from here on."""
    seen, hermite_basis = [], bell.hermite_basis

    def basis(n_max, xs):
        seen.append(xs.size)
        return hermite_basis(n_max, xs)

    for module in (bell, sampler):               # bell.half_line_gram forms W+
        monkeypatch.setattr(module, "hermite_basis", basis)
    return seen


def test_counts_never_build_the_cell_table(pipeline_state, basis_sizes):
    # the basis is evaluated one block of x >= 0 nodes at a time for the counts, once for
    # the W+ both plans share; the whole 2^15-node grid only once raw pairs are asked for
    seen = basis_sizes
    sampler._plan_for.cache_clear()
    bell.half_line_gram.cache_clear()
    estimate_B(pipeline_state, CHI, 10 ** 6, seed=1)
    block = sampler.GRID_POINTS // bell._GRAM_BLOCKS               # x >= 0 nodes per block
    assert seen == [block] * bell._GRAM_BLOCKS                     # two plans, counts only
    assert not any("joint" in vars(_plan(pipeline_state, chi)) for chi in (CHI, 3.0 * CHI))
    estimate_B(pipeline_state, 0.5, 10 ** 6, seed=1)               # new plans, the same W+
    assert seen == [block] * bell._GRAM_BLOCKS
    sample_joint(pipeline_state, CHI, 10, seed=1, keep_samples=True)
    assert max(seen) == 2 * sampler.GRID_POINTS and "joint" in vars(_plan(pipeline_state, CHI))


def test_grid_truncation_is_refused_from_the_gram_matrix(basis_sizes):
    # refused before any per-cell table, with the message the table's refusal gave
    c = np.zeros(100)
    c[80:] = np.sqrt(1.0 / 20.0)
    bell.half_line_gram.cache_clear()
    with pytest.raises(ValueError) as refused:
        sampler._SamplerPlan(c, CHI)
    assert str(refused.value) == ("the sampling grid [-12, 12] misses 0.529 of the state's "
                                  "quadrature mass (limit 1e-09)")
    assert basis_sizes == [sampler.GRID_POINTS // bell._GRAM_BLOCKS] * bell._GRAM_BLOCKS


def test_plans_read_the_one_cached_gram(pipeline_state):
    # W+ is half_line_gram's own array at the grid's half-width, shared and read-only
    sampler._plan_for.cache_clear()                # no plan kept from an older Gram cache
    k = np.trim_zeros(pipeline_state.coeffs, "b").size
    for chi in (CHI, 3.0 * CHI):
        w_plus = _plan(pipeline_state, chi).w_plus
        assert w_plus is bell.half_line_gram(k - 1, sampler.GRID_HALF_WIDTH)
        assert not w_plus.flags.writeable


def test_sample_joint_refuses_n_beyond_int64(pipeline_state):
    # 10^20 pairs overflowed inside the multinomial draw, as an OverflowError
    for n in (10 ** 20, 2 ** 63, 0, -1):
        with pytest.raises(ValueError, match=rf"^n = {n} pairs is outside \[1, 2\*\*63 - 1\]$"):
            sample_joint(pipeline_state, CHI, n, seed=0)
    assert sample_joint(pipeline_state, CHI, 2 ** 63 - 1, seed=0).counts.sum() == 2 ** 63 - 1


@pytest.mark.filterwarnings("error")
def test_sample_joint_refuses_a_non_finite_chi(pipeline_state):
    # chi = nan reached the multinomial as NaN probabilities
    for chi in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=rf"^chi = {chi} is not finite$"):
            sample_joint(pipeline_state, chi, 100, seed=0)


@pytest.mark.filterwarnings("error")
def test_a_chi_whose_largest_phase_overflows_is_refused_by_name(pipeline_state):
    # chi * N past the largest float overflowed in the plan's phases (two RuntimeWarnings,
    # then NaN probabilities); estimate_B turned 3 chi past it into "chi = inf is not finite"
    N = pipeline_state.cutoff
    for chi in (1e308, -1e308, float(np.finfo(float).max) / N * 1.5):
        with pytest.raises(ValueError, match=rf"^chi = {re.escape(str(chi))} is too large$"):
            sample_joint(pipeline_state, chi, 100, seed=0)
    chi = 0.7e308 / N               # chi * N is finite, 3 chi * N is not
    assert sample_joint(pipeline_state, chi, 100, seed=0).counts.sum() == 100
    for c in (chi, 7e307, 1e308):
        with pytest.raises(ValueError, match=rf"^chi = {re.escape(str(c))} is too large$"):
            estimate_B(pipeline_state, c, 100, seed=0)
