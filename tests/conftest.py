import numpy as np
import pytest

from homodyne_bell import PipelineConfig, bell, catalog, optimizer, run_pipeline

XI_STAR = 1.0 / np.sqrt(2.0)
CHI_STAR = np.pi / 4.0
# the per-state result caches: catalog rows, Bell series and coefficient optima
RESULT_CACHES = (bell._p_plus_plus_of, catalog._cached_row, optimizer._unit_maximizer)


@pytest.fixture(autouse=True)
def empty_result_caches():
    """Each test starts with the per-state result caches empty, so no row, Bell series or
    coefficient optimum computed by an earlier test answers it, and a test that patches a
    module constant (such as the ascent's step cap) reaches the code it patches."""
    for cached in RESULT_CACHES:
        cached.cache_clear()


@pytest.fixture(scope="session")
def pipeline_state():
    """The three-iteration, photon-subtracted source state at xi = 1/sqrt2."""
    return run_pipeline(PipelineConfig(xi=XI_STAR)).final_state
