"""Stability laboratory for an asset-flow model of speculative prices.

The package couples a nonlinear price/liquidity/sentiment model with the
closed-form stability criteria of its linearization, cross-validates the two
routes against each other, sweeps stability regions over parameter planes,
and carries a log-normal baseline for tail-risk comparison.

The namespace is lazy (PEP 562): ``import cryptoflow`` loads no submodule,
and neither numpy nor scipy; the first access to an exported name or to a
submodule attribute (``cryptoflow.model``) imports the submodule concerned.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "errors": (
        "CryptoflowError", "NonFiniteParameter", "NonPositiveTimeScale",
        "NegativeAmplitude", "StateOutOfDomain", "BlowUp", "UnsupportedScaling",
        "ScalingOutOfScope", "OutOfScope", "ConvergenceFailure",
    ),
    "inputs": (
        "Variant", "FULL_5X5", "SENTIMENT_3X3", "LIQUIDITY_2X2", "ModelParams",
        "validate_params", "ignored_fields", "DEFAULT_EPS", "DEFAULT_BAND",
        "SimConfig", "default_step", "Axis", "SweepSpec", "Method", "GbmParams",
    ),
    "model": (
        "P_FLOOR", "rhs", "equilibrium",
    ),
    "stability": (
        "StabilityVerdict", "Verdict", "jacobian_analytic",
        "jacobian_numeric", "char_poly", "eigenvalues", "hurwitz_stable", "classify",
    ),
    "criteria": (
        "CriterionResult", "criterion_2x2", "criterion_3x3",
        "criterion_5x5_q2zero", "rh_5x5", "sufficient_5x5", "simple_condition_5x5",
        "verify_consistency", "ConsistencyReport", "Mismatch",
    ),
    "simulate": (
        "Trajectory", "integrate", "perturb_and_classify",
        "PerturbationOutcome", "EmpiricalVerdict",
    ),
    "sweep": (
        "StabilityMap", "run_sweep",
        "boundary_cells", "export_map", "map_from_json",
    ),
    "gbm": (
        "gbm_simulate", "gbm_path_csv", "normal_tail",
        "exceedance_report", "ExceedanceReport",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_OWNER]


def __getattr__(name):
    module = name if name in _EXPORTS else _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # -X importtime reports __import__ but not importlib.import_module.
    # Importing the submodule binds it in this namespace.
    __import__(f"{__name__}.{module}")
    if name == module:  # a submodule, as ``cryptoflow.model``
        return globals()[name]
    value = getattr(globals()[module], name)
    globals()[name] = value
    return value


def __dir__():
    return list(__all__)
