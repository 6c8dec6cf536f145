"""Acceptance gate: one test per criterion, each printing a PASS line with the
measured quantity at its stated tolerance."""

import time

import numpy as np
import pytest

from homodyne_bell import (
    chsh_B,
    ch_S,
    circle,
    estimate_B,
    gaussify_coefficients,
    optimize_angle,
    optimize_coefficients,
    overgaussification_scan,
    overlap_table,
    p_plus_plus,
    p_plus_plus_quadrature_oracle,
    ps_tmss,
    run_pipeline,
    seed,
    stage1_verify,
    tmss,
)
from homodyne_bell.pipeline import PipelineConfig
from tests.test_pipeline import operator_gaussify

XI = 1.0 / np.sqrt(2.0)
CHI = np.pi / 4.0


def report(criterion, ok, detail):
    print(f"criterion {criterion:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_chsh_reproduction():
    t0 = time.perf_counter()
    state = run_pipeline(PipelineConfig(xi=XI, cutoff=24)).final_state
    b = chsh_B(state, CHI)
    elapsed = time.perf_counter() - t0
    ok = abs(b - 2.071) <= 0.01 and elapsed < 10.0
    report(1, ok, f"B = {b:.6f} (target 2.071 +- 0.01) in {elapsed:.2f} s")


def test_criterion_02_ch_reproduction(pipeline_state):
    s = ch_S(pipeline_state, CHI)
    states = [pipeline_state, tmss(0.6), circle(1.12), ps_tmss(0.6),
              seed(XI, cutoff=8), seed(0.0, cutoff=4)]
    rng = np.random.default_rng(20)
    gap = max(abs(ch_S(v, chi) - (chsh_B(v, chi) / 4.0 + 0.5))
              for v in states for chi in rng.uniform(0, np.pi, 4))
    ok = abs(s - 1.018) <= 0.005 and gap <= 1e-10
    report(2, ok, f"S = {s:.6f} (target 1.018 +- 0.005), identity gap {gap:.2e}")


def test_criterion_03_optimal_state_recovery():
    # N = 10 ceiling from an independent eigen solve (bench/reference.py)
    b_ceiling, s_ceiling = 2.0919544289398, 1.0229886072350
    t0 = time.perf_counter()
    _, b_star, _ = optimize_coefficients(10, CHI)
    _, s_star, _ = optimize_coefficients(10, CHI, objective="ch")
    elapsed = time.perf_counter() - t0
    ok = (abs(b_star - b_ceiling) <= 1e-9 and abs(s_star - s_ceiling) <= 1e-9
          and elapsed < 300.0)
    report(3, ok, f"B* = {b_star:.10f} (ceiling {b_ceiling} +- 1e-9), "
                  f"S* = {s_star:.10f} (ceiling {s_ceiling} +- 1e-9) in {elapsed:.3f} s")


def test_criterion_04_circle_state_optimum():
    rs = np.linspace(0.5, 2.0, 61)
    values = [chsh_B(circle(float(r), cutoff=32), CHI) for r in rs]
    r_star = float(rs[int(np.argmax(values))])
    b_star = max(values)
    ok = abs(r_star - 1.12) <= 0.05 and b_star > 2.0
    report(4, ok, f"scan max at r = {r_star:.4f} (target 1.12 +- 0.05), B = {b_star:.4f} > 2")


def test_criterion_05_no_violation_for_gaussian_like_families():
    seed_max = max(chsh_B(seed(float(xi), cutoff=8), CHI)
                   for xi in np.arange(0.0, 3.001, 0.1))
    chis = np.linspace(0.05, np.pi / 2, 25)
    tmss_max = max(
        abs(chsh_B(tmss(float(lam), cutoff=64), float(chi)))
        for lam in np.arange(0.0, 0.901, 0.1) for chi in chis
    )
    ok = seed_max <= 2.0 + 1e-9 and tmss_max <= 2.0 + 1e-9
    report(5, ok, f"max B(seed grid) = {seed_max:.9f}, max |B|(tmss grid) = {tmss_max:.9f}")


def test_criterion_06_gaussification_fixed_point_and_oracle():
    fp_err = 0.0
    for lam in np.arange(0.1, 0.901, 0.1):
        g = lam ** np.arange(12)
        fp_err = max(fp_err, float(np.max(np.abs(gaussify_coefficients(g) - g))))
    rng = np.random.default_rng(6)
    raw = rng.random(7) * np.array([1.0, 0.7, 0.4, 0.2, 0.1, 0.03, 0.01])
    raw /= np.linalg.norm(raw)
    diag, _ = operator_gaussify(raw, cutoff=12)
    wide = np.zeros(13)
    wide[:7] = raw
    oracle_err = float(np.max(np.abs(diag - gaussify_coefficients(wide))))
    ok = fp_err <= 1e-12 and oracle_err <= 1e-10
    report(6, ok, f"fixed-point error {fp_err:.2e} (<= 1e-12), "
                  f"operator-oracle error {oracle_err:.2e} (<= 1e-10)")


def test_criterion_07_stage1_closeness_and_scaling():
    rep = stage1_verify(XI, 0.01)
    ratios = []
    for lam in (0.005, 0.01, 0.02):
        p1 = stage1_verify(XI, lam).success_probability
        p2 = stage1_verify(XI, 2 * lam).success_probability
        ratios.append(p2 / p1)
    ratio_ok = all(abs(r - 16.0) <= 0.05 * 16.0 for r in ratios)
    ok = rep.trace_distance < 1e-3 and ratio_ok
    report(7, ok, f"trace distance {rep.trace_distance:.2e} (< 1e-3), "
                  f"p(2l)/p(l) = {', '.join(f'{r:.3f}' for r in ratios)} (16 +- 5%)")


def test_criterion_08_overgaussification():
    values = dict(overgaussification_scan(XI, 6))
    ok = (values[3] == max(values[i] for i in (3, 4, 5, 6))
          and values[3] > values[4] > values[5] > values[6])
    report(8, ok, "B(i) = " + ", ".join(f"{i}: {values[i]:.4f}" for i in (3, 4, 5, 6)))


def test_criterion_09_quadrature_cross_validation(pipeline_state):
    states = [tmss(0.6), circle(1.12), ps_tmss(0.6), seed(XI, cutoff=8),
              seed(0.0, cutoff=4), pipeline_state]
    rng = np.random.default_rng(9)
    worst = max(
        abs(p_plus_plus(v, float(chi)) - p_plus_plus_quadrature_oracle(v, float(chi)))
        for v in states for chi in rng.uniform(-np.pi, np.pi, 20)
    )
    G = overlap_table(32)
    diag_err = float(np.max(np.abs(np.diag(G) - 0.5)))
    off = np.array(G)
    np.fill_diagonal(off, 0.0)
    parity = np.equal.outer(np.arange(33) % 2, np.arange(33) % 2)
    parity_err = float(np.max(np.abs(off[parity])))
    sym = bool(np.array_equal(G, G.T))
    ok = worst <= 1e-8 and diag_err <= 1e-12 and parity_err <= 1e-12 and sym
    report(9, ok, f"closed-vs-oracle max gap {worst:.2e} (<= 1e-8); "
                  f"G diag err {diag_err:.1e}, parity err {parity_err:.1e}, symmetric {sym}")


def test_criterion_10_monte_carlo_consistency(pipeline_state):
    analytic = chsh_B(pipeline_state, CHI)
    n = 10 ** 6
    hits = 0
    slowest = 0.0
    for i in range(100):
        t0 = time.perf_counter()
        est = estimate_B(pipeline_state, CHI, n, seed=5000 + i)
        slowest = max(slowest, time.perf_counter() - t0)
        if abs(est.b - analytic) <= 3.0 * est.stderr:
            hits += 1
    ok = hits >= 99 and slowest < 120.0
    report(10, ok, f"{hits}/100 runs within 3 stderr (need >= 99); "
                   f"slowest run {slowest:.2f} s (< 120 s)")


def test_criterion_11_angle_optimum(pipeline_state):
    chi_star, b_star = optimize_angle(pipeline_state)
    ok = abs(chi_star - CHI) <= 0.02 and b_star > 2.0
    report(11, ok, f"chi* = {chi_star:.6f} (pi/4 +- 0.02), B(chi*) = {b_star:.4f}")


def test_criterion_12_cutoff_stability(pipeline_state):
    b24 = chsh_B(run_pipeline(PipelineConfig(xi=XI, cutoff=24)).final_state, CHI)
    b32 = chsh_B(pipeline_state, CHI)
    gap = abs(b24 - b32)
    ok = gap < 1e-6
    report(12, ok, f"|B(24) - B(32)| = {gap:.2e} (< 1e-6)")
