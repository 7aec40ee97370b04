"""Closed-form stability criteria and their spectral cross-validation.

Each criterion returns a signed margin normalized so that positive means
stable; verdicts use a dead band around zero so that points on the boundary
come back Marginal instead of flipping on roundoff.  ``verify_consistency``
samples random parameter points and checks the closed forms against the
eigenvalue route end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import DegreeOutOfRange, OutOfScope, ScalingOutOfScope
from .model import AMPLITUDES, TIME_SCALES, ModelParams, ModelVariant, Variant
from .stability import (
    DEFAULT_EPS,
    Polynomial,
    Verdict,
    classify,
    eigenvalues,
    jacobian_analytic,
)

DEFAULT_BAND = 1e-6

# Log-uniform sampling ranges for verify_consistency.
AMPLITUDE_RANGE = (1e-3, 10.0)
TIME_SCALE_RANGE = (1e-2, 10.0)


@dataclass(frozen=True)
class CriterionResult:
    """Verdict of a closed-form criterion.

    margin is positive for stable, negative for unstable; binding names the
    inequality that produced the margin.
    """

    verdict: Verdict
    margin: float
    binding: str


def _from_margin(margin: float, binding: str, band: float) -> CriterionResult:
    if margin > band:
        verdict = Verdict.STABLE
    elif margin < -band:
        verdict = Verdict.UNSTABLE
    else:
        verdict = Verdict.MARGINAL
    return CriterionResult(verdict=verdict, margin=margin, binding=binding)


def criterion_2x2(params: ModelParams, band: float = DEFAULT_BAND) -> CriterionResult:
    """Price/liquidity variant: stable iff q < 1 + c/tau0."""
    margin = (1.0 + params.c / params.tau0) - params.q
    return _from_margin(margin, "q_threshold", band)


def criterion_3x3(params: ModelParams, band: float = DEFAULT_BAND) -> CriterionResult:
    """Trend-sentiment variant with c = c1: stable iff Q + c/tau0 > 0."""
    if params.c != params.c1:
        raise ScalingOutOfScope(
            f"criterion_3x3 is derived for c = c1, got c={params.c}, c1={params.c1}"
        )
    margin = params.Q + params.c / params.tau0
    return _from_margin(margin, "K_threshold", band)


def _require_unit_scaling(params: ModelParams, name: str) -> None:
    if not (params.c == params.c1 == params.c2 == 1.0):
        raise ScalingOutOfScope(
            f"{name} is derived for c = c1 = c2 = 1, got "
            f"c={params.c}, c1={params.c1}, c2={params.c2}"
        )


def criterion_5x5_q2zero(
    params: ModelParams, band: float = DEFAULT_BAND
) -> CriterionResult:
    """Full variant with value sentiment off: stable iff Q + 1/tau0 > 0."""
    if params.q2 != 0.0:
        raise OutOfScope(f"criterion_5x5_q2zero requires q2 = 0, got q2={params.q2}")
    _require_unit_scaling(params, "criterion_5x5_q2zero")
    margin = params.Q + 1.0 / params.tau0
    return _from_margin(margin, "K_threshold", band)


def rh_5x5(params: ModelParams, band: float = DEFAULT_BAND) -> CriterionResult:
    """Routh--Hurwitz conditions for the full variant at c = c1 = c2 = 1.

    With the double eigenvalue at -1 split off, the remaining cubic
    lambda^3 + a2 lambda^2 + a1 lambda + a0 has
        a2 = Q + 1/tau0 + 1/c3
        a1 = Q/c3 + 1/tau0 + 2 q2/tau0 + 1/(tau0 c3)
        a0 = 1/(tau0 c3)  (always positive),
    so stability is exactly {a2 > 0, a2*a1 > a0}.  Each inequality yields a
    normalized slack (lhs - rhs)/(1 + |rhs|); the margin is the smaller one.
    """
    _require_unit_scaling(params, "rh_5x5")
    tau0, c3 = params.tau0, params.c3
    a2 = params.Q + 1.0 / tau0 + 1.0 / c3
    a1 = params.Q / c3 + 1.0 / tau0 + 2.0 * params.q2 / tau0 + 1.0 / (tau0 * c3)
    a0 = 1.0 / (tau0 * c3)
    slack_a2 = a2
    slack_prod = (a2 * a1 - a0) / (1.0 + a0)
    if slack_a2 <= slack_prod:
        return _from_margin(slack_a2, "a2_positive", band)
    return _from_margin(slack_prod, "a2a1_exceeds_a0", band)


def sufficient_5x5(params: ModelParams) -> bool:
    """Sufficient (not necessary) stability conditions for the full variant.

    Requires 1/c3 + 1/tau0 > K and 1/c3 + 1/tau0 > K/c3 - 2 q2/tau0.
    """
    _require_unit_scaling(params, "sufficient_5x5")
    lhs = 1.0 / params.c3 + 1.0 / params.tau0
    return lhs > params.K and lhs > params.K / params.c3 - 2.0 * params.q2 / params.tau0


def simple_condition_5x5(params: ModelParams) -> bool:
    """Diagnostic shortcut 1/c3 + 1/tau0 > K; reported, never used as a verdict.

    At q2 = 0 this looks tempting but does not match the spectrum (the exact
    threshold is Q + 1/tau0 > 0); verify_consistency reports its agreement
    rate for the record.
    """
    return 1.0 / params.c3 + 1.0 / params.tau0 > params.K


def closed_forms(
    variant: ModelVariant, q2_zero: bool = False
) -> list[tuple[str, Callable[[ModelParams, float], CriterionResult | bool]]]:
    """The closed forms that apply to a variant, by name; the first gives its verdict.

    Each function takes params and a dead band.  On the full variant the
    verdict comes from Routh--Hurwitz, or from the exact K threshold when q2
    is held at 0 (``q2_zero``); the sufficient condition is reported as a
    bool and never gives a verdict.  The criteria are looked up when this is
    called, so wrappers installed on this module's names are used.
    """
    if variant.tag is Variant.LIQUIDITY_2X2:
        return [("criterion_2x2", criterion_2x2)]
    if variant.tag is Variant.SENTIMENT_3X3:
        return [("criterion_3x3", criterion_3x3)]
    exact = [("rh_5x5", rh_5x5), ("criterion_5x5_q2zero", criterion_5x5_q2zero)]
    if q2_zero:
        exact.reverse()
    return [*exact, ("sufficient_5x5", lambda params, band: sufficient_5x5(params))]


def hurwitz_stable(poly: Polynomial) -> bool:
    """All roots in the open left half plane, decided by Hurwitz minors.

    Accepts monic real polynomials of degree 1 through 5.  Builds the
    Hurwitz matrix H[i,j] = a_{n-1+i-2j} (coefficients indexed by power,
    zero outside 0..n) and requires every leading principal minor > 0.
    """
    n = poly.degree
    if not 1 <= n <= 5:
        raise DegreeOutOfRange(f"degree must be 1..5, got {n}")
    if abs(poly.coeffs[0] - 1.0) > 1e-12:
        raise ValueError(f"polynomial must be monic, leading coefficient {poly.coeffs[0]}")
    # a[k] = coefficient of lambda^k
    a = list(reversed(poly.coeffs))

    def coef(k: int) -> float:
        return a[k] if 0 <= k <= n else 0.0

    h = np.array([[coef(n - 1 + i - 2 * j) for j in range(n)] for i in range(n)])
    for k in range(1, n + 1):
        if not np.linalg.det(h[:k, :k]) > 0.0:
            return False
    return True


@dataclass(frozen=True)
class Mismatch:
    """A sampled point where the closed form and the spectrum disagree."""

    params: ModelParams
    criterion_verdict: Verdict
    spectral_verdict: Verdict
    margin: float
    max_real: float


@dataclass(frozen=True)
class ConsistencyReport:
    """Outcome of a randomized closed-form vs. eigenvalue cross-check."""

    variant_tag: str
    criterion: str
    samples: int
    mismatches: int
    excluded: int
    seed: int
    band: float
    eps: float
    mismatch_list: tuple[Mismatch, ...] = field(default=())
    simple_condition_agreement: float | None = None

    @property
    def agreements(self) -> int:
        return self.samples - self.mismatches - self.excluded


_SAMPLED_FIELDS = {
    Variant.LIQUIDITY_2X2: ("q", "tau0", "c"),
    Variant.SENTIMENT_3X3: ("q", "q1", "tau0", "c"),
    Variant.FULL_5X5: ("q", "q1", "q2", "tau0", "c3"),
}

# Fields a variant does not sample: amplitudes off, time scales at 1.
_UNSAMPLED = {**dict.fromkeys(AMPLITUDES, 0.0), **dict.fromkeys(TIME_SCALES, 1.0)}


def _sample_params(
    variant: ModelVariant,
    rng: np.random.Generator,
    fixed: Mapping[str, float],
) -> ModelParams:
    values = dict(_UNSAMPLED)
    for name in _SAMPLED_FIELDS[variant.tag]:
        if name in fixed:
            values[name] = float(fixed[name])
        else:
            lo, hi = AMPLITUDE_RANGE if name in AMPLITUDES else TIME_SCALE_RANGE
            values[name] = float(10.0 ** rng.uniform(np.log10(lo), np.log10(hi)))
    for name in variant.tied_clocks:
        values[name] = values["c"]
    return ModelParams(**values)


def verify_consistency(
    variant: ModelVariant,
    n: int = 10_000,
    seed: int = 0,
    band: float = DEFAULT_BAND,
    eps: float = DEFAULT_EPS,
    fixed: Mapping[str, float] | None = None,
) -> ConsistencyReport:
    """Cross-validate the variant's closed-form criterion against eigenvalues.

    Samples n parameter points log-uniformly (amplitudes in [1e-3, 10], time
    scales in [1e-2, 10]), evaluates both routes point by point, and counts
    disagreements.  Points within ``band`` of the criterion boundary or within
    ``eps`` of the spectral boundary are excluded rather than compared.

    ``fixed`` pins sampled fields to given values (e.g. {"q2": 0.0} on the
    full variant selects the q2 = 0 criterion and additionally reports the
    agreement rate of the 1/c3 + 1/tau0 > K shortcut for the record).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    fixed = dict(fixed) if fixed else {}
    allowed = set(_SAMPLED_FIELDS[variant.tag])
    unknown = set(fixed) - allowed
    if unknown:
        raise ValueError(
            f"cannot pin {sorted(unknown)} for {variant.tag.value}; "
            f"samplable fields are {sorted(allowed)}"
        )

    # only the full variant samples q2
    q2_pinned_zero = fixed.get("q2") == 0.0
    criterion_name, criterion = closed_forms(variant, q2_pinned_zero)[0]

    rng = np.random.default_rng(seed)
    mismatches: list[Mismatch] = []
    excluded = 0
    simple_agree = 0
    compared = 0
    for _ in range(n):
        params = _sample_params(variant, rng, fixed)
        closed = criterion(params, band)
        spectral = classify(eigenvalues(jacobian_analytic(variant, params)), eps)
        if abs(closed.margin) <= band or abs(spectral.max_real) <= eps:
            excluded += 1
            continue
        compared += 1
        if closed.verdict is not spectral.tag:
            mismatches.append(Mismatch(
                params=params,
                criterion_verdict=closed.verdict,
                spectral_verdict=spectral.tag,
                margin=closed.margin,
                max_real=spectral.max_real,
            ))
        if q2_pinned_zero:
            predicted = Verdict.STABLE if simple_condition_5x5(params) else Verdict.UNSTABLE
            if predicted is spectral.tag:
                simple_agree += 1

    agreement = None
    if q2_pinned_zero:
        agreement = simple_agree / compared if compared else float("nan")
    return ConsistencyReport(
        variant_tag=variant.tag.value,
        criterion=criterion_name,
        samples=n,
        mismatches=len(mismatches),
        excluded=excluded,
        seed=seed,
        band=band,
        eps=eps,
        mismatch_list=tuple(mismatches),
        simple_condition_agreement=agreement,
    )
