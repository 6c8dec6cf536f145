"""The per-state result caches return exactly what an uncached call returns.

`catalog` serves its rows, `bell` its P++ polynomials and `optimizer` its unit
maximizers from bounded `lru_cache`s.  A hit must give the same bytes as a fresh
miss, a refused input must be refused on every call, and the public generators
must stay plain functions, which the benchmark tracer (`bench/spans.py`) wraps.
"""

import inspect

import numpy as np
import pytest

from homodyne_bell import (
    CoefficientVector,
    bell,
    bell_report,
    catalog,
    ch_S,
    chsh_B,
    fock_core,
    linear_optics,
    optimizer,
    optimize_coefficients,
    p_plus_plus,
    pipeline,
    sampler,
)

from conftest import RESULT_CACHES

CHI = np.pi / 4
ROWS = [("tmss", 0.6, 32), ("tmss", 0.3, None), ("ps_tmss", 0.6, 32), ("circle", 1.12, 32),
        ("circle", 0.5, None), ("seed", 0.7071, 8), ("seed", 0.0, None),
        ("pipeline", 0.7071, 32), ("pipeline", 0.7071, None)]
# the analytic benchmark's tmss grid: one state at 25 angles
TMSS_LAMBDA = np.arange(0.0, 0.901, 0.1)
TMSS_CHI = np.linspace(0.05, np.pi / 2, 25)


@pytest.mark.parametrize("family, param, cutoff", ROWS)
def test_cached_row_is_the_uncached_row(family, param, cutoff):
    build = catalog.FAMILIES[family].build
    fresh = build.__wrapped__(param, cutoff)
    first, again = build(param, cutoff), build(param, cutoff)
    spec = catalog.CatalogSpec(family, param, cutoff=cutoff).build()
    assert again is first and spec is first
    for row in (first, again):
        assert row.coeffs.tobytes() == fresh.coeffs.tobytes()
        assert row.provenance == fresh.provenance
        assert not row.coeffs.flags.writeable
    catalog._cached_row.cache_clear()
    rebuilt = build(param, cutoff)
    assert rebuilt is not first and rebuilt.coeffs.tobytes() == first.coeffs.tobytes()


def test_pipelined_iterations_key_the_row():
    rows = [catalog.pipelined(0.7071, 32, k) for k in range(5)]
    assert len({v.coeffs.tobytes() for v in rows}) == 5
    assert catalog.pipelined(0.7071, 32, iterations=2).coeffs.tobytes() \
        == rows[2].coeffs.tobytes()


@pytest.mark.parametrize("first, second", [(0.0, -0.0), (-0.0, 0.0)])
def test_signed_zero_keeps_its_own_provenance(first, second):
    # -0.0 == 0.0 as a dictionary key, but tmss(-0.0) is labelled tmss(-0)
    for lam in (first, second, first):
        want = "tmss(-0)" if np.signbit(lam) else "tmss(0)"
        assert catalog.tmss.__wrapped__(lam, 4).provenance == want
        assert catalog.tmss(lam, 4).provenance == want


def test_integer_and_float_parameters_are_kept_apart():
    assert catalog.seed(1, 4).provenance == catalog.seed.__wrapped__(1, 4).provenance
    assert catalog.seed(1.0, 4) is not catalog.seed(1, 4)


def test_bell_values_from_a_hit_equal_a_fresh_miss_bit_for_bit():
    for lam in TMSS_LAMBDA:
        v = catalog.tmss(float(lam), cutoff=64)
        for chi in TMSS_CHI:
            bell._p_plus_plus_of.cache_clear()
            miss = (chsh_B(v, chi), ch_S(v, chi), p_plus_plus(v, chi))
            hits = (chsh_B(v, chi), ch_S(v, chi), p_plus_plus(v, chi))
            assert np.array(miss).tobytes() == np.array(hits).tobytes()
            info = bell._p_plus_plus_of.cache_info()
            assert (info.hits, info.misses) == (5, 1)
        # a copy of the state with the same bytes is served the same series
        twin = CoefficientVector(v.coeffs, normalized=True)
        assert chsh_B(twin, 0.3) == chsh_B(v, 0.3)


def test_a_state_with_a_bad_norm_raises_on_every_call():
    v = CoefficientVector([1.0, 1.0])
    for _ in range(3):
        for evaluate in (chsh_B, ch_S, p_plus_plus, bell_report):
            with pytest.raises(ValueError, match="normalized state"):
                evaluate(v, CHI)
    assert bell._p_plus_plus_of.cache_info().currsize == 0


@pytest.mark.parametrize("n_max", [4, 10, 16])
@pytest.mark.parametrize("nonnegative", [False, True])
def test_ch_and_chsh_share_one_maximizer(n_max, nonnegative):
    vec_b, b, _ = optimize_coefficients(n_max, CHI, "chsh", nonnegative=nonnegative)
    vec_s, s, _ = optimize_coefficients(n_max, CHI, "ch", nonnegative=nonnegative)
    assert vec_s.coeffs.tobytes() == vec_b.coeffs.tobytes()
    assert b == 4.0 * s - 2.0
    assert vec_b.provenance.startswith("optimized(CHSH") and vec_s.provenance.startswith(
        "optimized(CH,")
    info = optimizer._unit_maximizer.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    # a miss in the other order gives the same bytes
    optimizer._unit_maximizer.cache_clear()
    vec_s2, s2, _ = optimize_coefficients(n_max, CHI, "ch", nonnegative=nonnegative)
    assert vec_s2.coeffs.tobytes() == vec_s.coeffs.tobytes() and s2 == s


def test_the_caches_are_bounded():
    # every lru_cache of the package: the result caches and the tables keyed on size
    caches = [fn for module in (bell, catalog, fock_core, linear_optics, optimizer, pipeline,
                                sampler)
              for fn in vars(module).values() if hasattr(fn, "cache_info")]
    tables = {pipeline._gaussify_scales, linear_optics._blocks, catalog._alphas}
    assert set(RESULT_CACHES) | tables <= set(caches)
    for cache in caches:
        assert cache.cache_info().maxsize is not None and cache.cache_info().maxsize <= 64


def test_public_generators_stay_plain_functions():
    generators = [family.build for family in catalog.FAMILIES.values() if family.build]
    assert len(generators) == 5
    for fn in generators:
        assert inspect.isfunction(fn) and fn.__module__ == catalog.__name__
        assert getattr(catalog, fn.__name__) is fn
    for fn in (optimizer.optimize_coefficients, bell.chsh_B, bell.ch_S, bell.p_plus_plus):
        assert inspect.isfunction(fn)
