import math
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from homodyne_bell import (
    CatalogSpec,
    catalog,
    circle,
    ps_tmss,
    run_pipeline,
    seed,
    seed_transmissivity,
    tmss,
)
from homodyne_bell.pipeline import PipelineConfig


def test_tmss_zero_squeezing_is_vacuum():
    v = tmss(0.0, cutoff=5)
    assert np.allclose(v.coeffs, [1, 0, 0, 0, 0, 0])


def test_tmss_printed_formula_values():
    v = tmss(0.6)
    assert abs(v.coeffs[0] - 0.8) < 1e-10
    assert abs(v.coeffs[1] - 0.48) < 1e-10
    assert abs(v.coeffs[2] - 0.288) < 1e-10


def test_tmss_norm_at_cutoff_40():
    v = tmss(0.6, cutoff=40)
    assert abs(float(v.coeffs @ v.coeffs) - 1.0) < 1e-8


def test_tmss_rejects_unit_squeezing():
    with pytest.raises(ValueError):
        tmss(1.0)


def test_circle_r_zero_is_vacuum():
    assert np.allclose(circle(0.0, cutoff=4).coeffs, [1, 0, 0, 0, 0])


def test_circle_normalization_at_reported_optimum():
    v = circle(1.12, cutoff=32)
    assert abs(float(v.coeffs @ v.coeffs) - 1.0) < 1e-10


def test_circle_coefficient_ratio_recurrence():
    r = 1.12
    v = circle(r, cutoff=20)
    c = v.coeffs
    for n in range(15):
        assert abs(c[n + 1] / c[n] - r * r / (n + 1)) < 1e-10
    # decay sets in past n ~ r^2
    assert all(c[n + 1] < c[n] for n in range(2, 15))


def test_ps_tmss_zero_squeezing_is_vacuum():
    assert np.allclose(ps_tmss(0.0, cutoff=3).coeffs, [1, 0, 0, 0])


def test_ps_tmss_printed_formula_values():
    v = ps_tmss(0.6)
    c0 = np.sqrt(0.64 ** 3 / 1.36)
    assert abs(v.coeffs[0] - c0) < 1e-10
    assert abs(v.coeffs[1] - 2 * 0.6 * c0) < 1e-10


def test_ps_tmss_peaks_at_one_photon_for_strong_squeezing():
    v = ps_tmss(0.6)
    assert v.coeffs[1] > v.coeffs[0]


def test_seed_values():
    assert np.allclose(seed(0.0, cutoff=3).coeffs, [1, 0, 0, 0])
    v = seed(1.0, cutoff=4)
    assert np.allclose(v.coeffs[:2], [1 / np.sqrt(2)] * 2)
    assert np.all(v.coeffs[2:] == 0.0)
    v = seed(1 / np.sqrt(2), cutoff=6)
    assert abs(v.coeffs[0] - 0.81650) < 1e-5
    assert abs(v.coeffs[1] - 0.57735) < 1e-5


def test_seed_transmissivity_values():
    assert abs(seed_transmissivity(1 / np.sqrt(2), 0.01) - 0.0141418) < 1e-5
    assert abs(seed_transmissivity(1.0, 0.1) - 0.098076) < 1e-6


def test_seed_transmissivity_grid_below_one():
    for xi in np.arange(0.1, 2.01, 0.1):
        for lam in np.arange(0.01, 0.2001, 0.01):
            assert 0.0 < seed_transmissivity(xi, lam) < 1.0


def test_seed_transmissivity_singular_at_zero():
    with pytest.raises(ValueError):
        seed_transmissivity(0.7, 0.0)


def test_catalog_outputs_unit_norm_and_nonnegative():
    states = [tmss(0.6), circle(1.12), ps_tmss(0.6), seed(0.71)]
    for v in states:
        assert abs(float(v.coeffs @ v.coeffs) - 1.0) < 1e-10
        assert np.all(v.coeffs >= 0.0)


def test_catalog_spec_builds_and_labels():
    v = CatalogSpec("tmss", 0.6, cutoff=16).build()
    assert v.provenance == "tmss(0.6)"
    assert v.cutoff == 16
    v = CatalogSpec("ps-tmss", 0.6).build()
    assert v.provenance == "ps_tmss(0.6)"
    v = CatalogSpec("pipeline", 1 / np.sqrt(2), cutoff=24).build()
    assert v.provenance.startswith("pipeline(xi=0.707107")
    assert v.cutoff == 23  # the final photon subtraction drops the top level


def test_catalog_spec_validation():
    with pytest.raises(ValueError):
        CatalogSpec("squeezed_cat", 1.0)
    with pytest.raises(ValueError):
        CatalogSpec("tmss", None)
    with pytest.raises(ValueError):
        CatalogSpec("custom")


def test_auto_cutoff_hits_tail_tolerance():
    v = tmss(0.6)
    assert v.tail_mass < 1e-12
    assert tmss(0.6, cutoff=None).cutoff <= 64


def test_auto_cutoff_caps_at_hard_limit():
    for build, message in ((lambda: tmss(0.95, cutoff=None), "lambda = 0.95"),
                           (lambda: tmss(0.85), "lambda = 0.85"),
                           (lambda: ps_tmss(0.9), "lambda = 0.9"),
                           (lambda: CatalogSpec("tmss", 0.9).build(), "lambda = 0.9")):
        with pytest.raises(ValueError, match=message + ".*tail mass.*explicit cutoff"):
            build()
    # the largest auto cutoffs that still converge
    assert tmss(0.8).cutoff == 62 and tmss(0.8).converged
    for r in np.linspace(0.05, 3.0, 60):
        assert circle(float(r)).converged


def test_explicit_cutoff_truncates_and_reports_it():
    v = tmss(0.95, cutoff=64)
    assert v.cutoff == 64
    assert not v.converged  # tail mass reported above tolerance
    assert abs(v.tail_mass - (1 - 0.95 ** 2) * 0.95 ** 128 / (1 - 0.95 ** 130)) < 1e-15


def _first_small_level(log_term) -> int:
    """The first n >= 1 with term_n^2 < 1e-12, from log term_n; 64 if none up to it."""
    return next((n for n in range(1, 65) if 2.0 * log_term(n) < math.log(1e-12)), 64)


@pytest.mark.parametrize("build, grid, log_term", [
    (tmss, np.linspace(0.0, 0.99, 2001)[1:], lambda lam, n: n * math.log(lam)),
    (ps_tmss, np.linspace(0.0, 0.99, 2001)[1:],
     lambda lam, n: math.log(n + 1) + n * math.log(lam)),
    (circle, np.linspace(0.0, 6.0, 2001)[1:],
     lambda r, n: 2 * n * math.log(r) - math.lgamma(n + 1)),
])
def test_automatic_cutoff_is_the_first_small_series_term(build, grid, log_term):
    # c_n ~ alpha_n t^n with alpha_0 = 1: lambda^n, (n+1) lambda^n and r^(2n) / n!
    for p in map(float, grid):
        n_star = _first_small_level(lambda n: log_term(p, n))
        try:
            v = build(p)
        except ValueError as exc:       # refused only at the cap
            assert n_star == 64 and "64-level automatic cutoff cap" in str(exc)
            continue
        assert v.cutoff == n_star and v.converged


@pytest.mark.parametrize("r", [4.3, 4.5, 5.0, 5.6])
def test_large_circle_states_build_below_the_cap(r):
    v = circle(r)
    assert v.converged and v.cutoff <= 64
    assert abs(float(v.coeffs @ v.coeffs) - 1.0) < 1e-12


def test_circle_past_the_cap_is_refused():
    with pytest.raises(ValueError, match=r"circle with r = 5\.7 keeps tail mass .* at the "
                                         r"64-level automatic cutoff cap"):
        circle(5.7)


def test_family_table_names_every_family():
    assert set(catalog.FAMILIES) == {"tmss", "ps_tmss", "circle", "seed", "pipeline", "custom"}
    assert catalog.family_name("ps-tmss") == "ps_tmss"
    for family, (parameter, bounds, build, ratio) in catalog.FAMILIES.items():
        assert (ratio is None) == (family in ("seed", "custom"))     # the power series carry one
        if family == "custom":
            assert parameter is None and bounds is None and build is None
        else:
            assert CatalogSpec(family, bounds[1], cutoff=16).build().normalized


def _distilled_exactly(xi: float, cutoff: int, k: int) -> np.ndarray:
    """The pipelined row in exact rational arithmetic, normalized at 50 digits:
    c_n ~ (n + 1) 2^k! / (2^k - n - 1)! (xi / 2^k)^n on levels 0..cutoff-1."""
    m, x = 2 ** k, Fraction(xi)
    u = [(n + 1) * Fraction(math.factorial(m), math.factorial(m - n - 1)) * (x / m) ** n
         if n < m else Fraction(0) for n in range(cutoff)]
    with localcontext() as ctx:
        ctx.prec = 50
        norm2 = sum(a * a for a in u)
        norm = (Decimal(norm2.numerator) / Decimal(norm2.denominator)).sqrt()
        return np.array([float(Decimal(a.numerator) / Decimal(a.denominator) / norm)
                         for a in u])


@pytest.mark.parametrize("k", range(9))
def test_pipelined_row_is_exact_to_rounding(k):
    for xi in (0.2, 0.5, 1 / np.sqrt(2), 1.0, 1.5):
        for cutoff in (3, 8, 32):
            v = catalog.pipelined(xi, cutoff, k)
            assert v.cutoff == cutoff - 1 and v.provenance == f"pipeline(xi={xi:g}, iters={k})"
            assert np.max(np.abs(v.coeffs - _distilled_exactly(xi, cutoff, k))) <= 4e-16


def test_pipelined_row_tends_to_the_gaussification_limit():
    # (1 + xi z / 2^k)^(2^k) -> e^(xi z): the distilled state tends to ps_tmss(xi),
    # its distance halving with each step
    limit = ps_tmss(0.3, 31).coeffs
    gaps = [np.linalg.norm(catalog.pipelined(0.3, 32, k).coeffs - limit) for k in (8, 10, 12, 14)]
    assert 3e-3 < gaps[0] < 5e-3 and gaps[-1] < 1e-4
    for before, after in zip(gaps, gaps[1:]):
        assert 3.9 < before / after < 4.1


def test_pipelined_row_refuses_what_the_protocol_refuses():
    for build in (lambda: catalog.pipelined(0.0), lambda: catalog.pipelined(0.7, 0),
                  lambda: catalog.pipelined(0.7, iterations=-1)):
        with pytest.raises(ValueError):
            build()


def unguarded_series(t, ratio, cutoff):
    """The series rows as first written: t^n raised on every level, zero or not."""
    n_max = catalog.HARD_CUTOFF_CAP if cutoff is None else cutoff
    c = np.ones(n_max + 1)
    c[1:] = ratio(np.arange(1.0, n_max + 1))
    c = np.cumprod(c) * t ** np.arange(n_max + 1)
    if cutoff is None:
        small = np.flatnonzero(c[1:] ** 2 < catalog.TAIL_TOL)
        c = c[:small[0] + 2] if small.size else c
    return c / np.sqrt(c @ c)


def test_series_rows_are_byte_identical_to_the_unguarded_formula():
    cases = []
    for cutoff in (None, 4, 32, 64):
        cases += [(tmss(lam, cutoff), lam, lambda n: 1.0, cutoff) for lam in (0.0, 0.2, 0.6, 0.8)]
        cases += [(ps_tmss(lam, cutoff), lam, lambda n: (n + 1.0) / n, cutoff)
                  for lam in (0.0, 0.3, 0.6, 0.7)]
        cases += [(circle(r, cutoff), r * r, lambda n: 1.0 / n, cutoff)
                  for r in (0.0, 0.5, 1.12, 2.0, 3.0)]
    for xi in (0.2, 1 / np.sqrt(2), 1.5, 3.0):
        for cutoff in (3, 8, 32):
            for k in range(6):
                ratio = lambda n, k=k: (n + 1.0) / n * np.maximum(1.0 - n * 2.0 ** -k, 0.0)
                cases.append((catalog.pipelined(xi, cutoff, k), xi, ratio, cutoff - 1))
    for v, t, ratio, cutoff in cases:
        assert v.coeffs.tobytes() == unguarded_series(t, ratio, cutoff).tobytes(), v.provenance


@pytest.mark.parametrize("xi", [1e10, 1e12])
def test_pipelined_row_with_large_xi_raises_no_zero_level(xi):
    # levels past 2^k hold exactly 0; raising xi there overflowed to inf * 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        row = catalog.pipelined(xi)
        final = run_pipeline(PipelineConfig(xi=xi)).final_state
    assert row.coeffs.size == final.coeffs.size and np.count_nonzero(row.coeffs) == 8
    assert np.max(np.abs(row.coeffs - final.coeffs)) <= 1e-14
