"""Conditional preparation of correlated photon-number states and
quadrature-homodyne Bell tests in truncated Fock space."""

from types import ModuleType as _ModuleType

from .bell import (
    BellReport,
    bell_report,
    ch_S,
    chsh_B,
    overlap_table,
    p_plus_plus,
    p_plus_plus_quadrature_oracle,
)
from .catalog import circle, pipelined, ps_tmss, seed, seed_transmissivity, tmss
from .fock_core import (
    CoefficientVector,
    ConditionalEnsemble,
    FourModeTensor,
    normalize,
    read_state_file,
    trace_distance_pure_vs_ensemble,
    write_state_file,
)
from .linear_optics import (
    BeamSplitter,
    apply_bs_pair_on_four_modes,
    condition_on_outcome,
    photon_subtract_beamsplitter,
    photon_subtract_exact,
)
from .optimizer import (
    optimize_angle,
    optimize_coefficients,
    optimize_family_parameter,
)
from .pipeline import (
    PipelineConfig,
    PipelineReport,
    Stage1Report,
    gaussify_coefficients,
    gaussify_step,
    overgaussification_scan,
    run_pipeline,
    stage1_transmissivity,
    stage1_verify,
)
from .sampler import BEstimate, SampleBatch, estimate_B, sample_joint

__version__ = "0.1.0"

# the public API is every class and function imported above
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
