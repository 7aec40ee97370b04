"""Stability laboratory for an asset-flow model of speculative prices.

The package couples a nonlinear price/liquidity/sentiment model with the
closed-form stability criteria of its linearization, cross-validates the two
routes against each other, sweeps stability regions over parameter planes,
and carries a log-normal baseline for tail-risk comparison.
"""

__version__ = "0.1.0"

from .errors import (
    BlowUp,
    ConvergenceFailure,
    CryptoflowError,
    DegreeOutOfRange,
    NegativeAmplitude,
    NonFiniteParameter,
    NonPositiveTimeScale,
    OutOfScope,
    ResidualTooLarge,
    ScalingOutOfScope,
    StateOutOfDomain,
    UnsupportedScaling,
)
from .model import (
    FULL_5X5,
    FULL_5X5_PRICE_NORM,
    LIQUIDITY_2X2,
    P_FLOOR,
    SENTIMENT_3X3,
    ModelParams,
    ModelVariant,
    Variant,
    Zeta2Denominator,
    equilibrium,
    ignored_fields,
    rhs,
    validate_params,
)
from .stability import (
    DEFAULT_EPS,
    Polynomial,
    Spectrum,
    StabilityVerdict,
    Verdict,
    char_poly,
    classify,
    eigenvalues,
    jacobian_analytic,
    jacobian_numeric,
    reduced_cubic,
)
from .criteria import (
    DEFAULT_BAND,
    ConsistencyReport,
    CriterionResult,
    Mismatch,
    criterion_2x2,
    criterion_3x3,
    criterion_5x5_q2zero,
    hurwitz_stable,
    rh_5x5,
    simple_condition_5x5,
    sufficient_5x5,
    verify_consistency,
)
from .simulate import (
    EmpiricalVerdict,
    PerturbationOutcome,
    SimConfig,
    Trajectory,
    default_step,
    integrate,
    perturb_and_classify,
)
from .sweep import (
    Axis,
    Method,
    StabilityMap,
    SweepSpec,
    boundary_cells,
    export_map,
    map_from_json,
    run_sweep,
)
from .gbm import (
    ExceedanceReport,
    GbmParams,
    exceedance_report,
    gbm_path_csv,
    gbm_simulate,
    normal_tail,
)

__all__ = [
    "__version__",
    # errors
    "CryptoflowError", "NonFiniteParameter", "NonPositiveTimeScale", "NegativeAmplitude",
    "StateOutOfDomain", "BlowUp", "UnsupportedScaling", "ScalingOutOfScope",
    "OutOfScope", "ConvergenceFailure", "ResidualTooLarge", "DegreeOutOfRange",
    # model
    "Variant", "Zeta2Denominator", "ModelVariant", "ModelParams",
    "FULL_5X5", "FULL_5X5_PRICE_NORM", "SENTIMENT_3X3", "LIQUIDITY_2X2",
    "P_FLOOR", "validate_params", "ignored_fields", "rhs", "equilibrium",
    # stability
    "Polynomial", "Spectrum", "StabilityVerdict", "Verdict", "DEFAULT_EPS",
    "jacobian_analytic", "jacobian_numeric", "char_poly", "eigenvalues",
    "reduced_cubic", "classify",
    # criteria
    "CriterionResult", "DEFAULT_BAND", "criterion_2x2", "criterion_3x3",
    "criterion_5x5_q2zero", "rh_5x5", "sufficient_5x5", "simple_condition_5x5",
    "hurwitz_stable", "verify_consistency", "ConsistencyReport", "Mismatch",
    # simulate
    "SimConfig", "Trajectory", "integrate", "perturb_and_classify",
    "PerturbationOutcome", "EmpiricalVerdict", "default_step",
    # sweep
    "Axis", "SweepSpec", "Method", "StabilityMap", "run_sweep",
    "boundary_cells", "export_map", "map_from_json",
    # gbm
    "GbmParams", "gbm_simulate", "gbm_path_csv", "normal_tail",
    "exceedance_report", "ExceedanceReport",
]
