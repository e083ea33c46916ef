"""Simulator for partial polarization measurements, quantum erasure and
entangled-pair correlation experiments."""

from .errors import (
    AxisMismatch,
    ConfigError,
    DegenerateState,
    DomainError,
    InsufficientStatistics,
    PartialEraserError,
    ZeroSurvival,
)
from .polarization import (
    Axis,
    Branch,
    PolarizationState,
    basis_state,
    basis_vector,
    components_in,
    from_components,
    polarization_angle,
    uncertainty_spreads,
    y_correlation_single,
)
from .measurement import (
    MeasurementOutcome,
    PartialMeasurementOp,
    apply_sequence,
    click_probability,
    compose_same_axis,
    no_click_map,
)
from .cascade import (
    Cascade,
    DetectorPlacement,
    beam_intensities,
    build_cascade,
    cascade_measure,
    equivalent_op,
)
from .epr import (
    EprDecomposition,
    IntensityQuadruple,
    PairState,
    Photon,
    apply_partial_pair,
    apply_quadruple,
    epr_decompose,
    make_epr,
    sample_partial_pair,
    weighted_epr_track,
    y_correlation_pair,
)
from .inequality import (
    ViolationReport,
    delta_ac,
    delta_pair,
    inequality_margin,
    violation_region,
    violation_report,
)
from .montecarlo import (
    CascadeStep,
    EventLeaf,
    ExperimentConfig,
    MeasureStep,
    Preparation,
    PrepKind,
    TrialRecord,
    TrialStats,
    analytic_agreement,
    analytic_survival,
    conditional_click_stat,
    enumerate_event_tree,
    estimate_vs_analytic,
    run_experiment,
    trial_stream,
    trial_uniforms,
)

__version__ = "0.1.0"
