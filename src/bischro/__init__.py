"""Spectral analysis and exact boundary null control of the clamped
fourth-order (biharmonic) Schrodinger equation with variable coefficients
on an interval."""

from .asymptotics import (
    characteristic_roots,
    eigenfunction_asymptote,
    gap_report,
    index_offset,
    spacing_report,
    trace_limit,
    trace_limit_report,
)
from .coefficients import (
    CoefficientProfile,
    ProfileError,
    WaveGeometry,
    build_profile,
    constant_profile,
    geometry,
)
from .config import ConfigError, ExperimentConfig, parse_config
from .control import (
    ConditioningError,
    ControlSolution,
    moments_for_null,
    synthesize_hum_control,
    synthesize_moment_control,
)
from .dynamics import (
    CoarseSamplingError,
    ExponentialSum,
    GramSystem,
    ModalState,
    ResamplingError,
    evolve_controlled,
    evolve_free,
    gram,
    modal_state,
    phase_integral,
    project_initial,
    sobolev_norm,
)
from .observability import (
    ObservabilityReport,
    beurling_density,
    boundary_output,
    observability_constants,
)
from .operator import DiscreteOperator, assemble, boundary_trace
from .spectrum import (
    NumericalError,
    SpectralData,
    SpectrumValidation,
    solve_spectrum,
    validate_spectrum,
)

__version__ = "0.1.0"
