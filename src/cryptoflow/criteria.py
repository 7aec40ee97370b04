"""Closed-form stability criteria and their spectral cross-validation.

Each criterion returns a signed margin normalized so that positive means
stable; ``stability.verdict_codes`` gives the verdict with a dead band around
zero, so that points on the boundary come back Marginal instead of flipping on
roundoff.  ``verify_consistency`` samples random parameter points and checks
the closed forms against the eigenvalue route end to end.

Every margin is written once, on ``ModelParams`` whose fields are floats or
arrays; ``evaluate_points`` runs a batch of points through one route (the
spectrum or one closed form) and is what sweeps and verify call.  The
exact Hurwitz test of a polynomial is ``stability.hurwitz_stable``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import ConvergenceFailure, OutOfScope, ScalingOutOfScope
from .inputs import (
    AMPLITUDES,
    DEFAULT_BAND,
    DEFAULT_EPS,
    PARAM_FIELDS,
    PARAM_RULES,
    SAMPLED_FIELDS,
    TIME_SCALES,
    ModelParams,
    Variant,
    check_dead_band,
    check_rules,
    check_verify,
    equal_rule,
    finite,
    rule_errors,
)
from .stability import (
    INVALID,
    JACOBIAN_RULES,
    MARGINAL,
    STABLE,
    VERDICTS,
    Verdict,
    jacobian_stack,
    ordered_spectra,
    verdict_codes,
)

# Points per stacked eigen solve: enough to amortise the per-call cost of
# eigvals, few enough that the stack's memory stays small: one unchunked batch
# gives the same bytes at a higher peak RSS (median of 5 processes, 2 vCPUs),
# `verify -n 10000` 57.0 -> 65.3 MB and a 401x401 full5x5 sweep 64.0 -> 164.5 MB.
CHUNK = 1024

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


def _margin_2x2(p):
    return (1.0 + p.c / p.tau0) - p.q, "q_threshold"


def _margin_3x3(p):
    return p.Q + p.c / p.tau0, "K_threshold"


def _margin_rh_5x5(p):
    # See rh_5x5 for the derivation.
    tau0, c, c3 = p.tau0, p.c, p.c3
    a2 = p.Q / c + 1.0 / tau0 + 1.0 / c3
    a1 = p.Q / (c3 * c) + 1.0 / (c * tau0) + 2.0 * p.q2 / (c * tau0) + 1.0 / (tau0 * c3)
    a0 = 1.0 / (tau0 * c3 * c)
    slack_a2 = a2
    slack_prod = (a2 * a1 - a0) / (1.0 + a0)
    a2_binds = slack_a2 <= slack_prod
    return (np.where(a2_binds, slack_a2, slack_prod),
            np.where(a2_binds, "a2_positive", "a2a1_exceeds_a0"))


# Each criterion: its rules in order (the parameter rules, then the scope it
# is derived for, built from ``Variant.tied_clocks``), which the scalar
# criterion and the batch kernel both check, and its margin with the name of
# the binding inequality.  At q2 = 0 the full variant's zeta2 and Pa decouple
# (eigenvalues -1/c2 and -1/c3), leaving the 3x3 block.
_CRITERIA = {
    "criterion_2x2": (PARAM_RULES, _margin_2x2),
    "criterion_3x3": (
        (*PARAM_RULES, equal_rule(ScalingOutOfScope, Variant.SENTIMENT_3X3.tied_clocks,
                                  "criterion_3x3 is derived for")),
        _margin_3x3),
    "criterion_5x5_q2zero": (
        (*PARAM_RULES, equal_rule(OutOfScope, ("q2",), "criterion_5x5_q2zero requires", 0),
         equal_rule(ScalingOutOfScope, Variant.FULL_5X5.tied_clocks,
                    "criterion_5x5_q2zero is derived for")),
        _margin_3x3),
    "rh_5x5": ((*PARAM_RULES, equal_rule(ScalingOutOfScope, Variant.FULL_5X5.tied_clocks,
                                         "rh_5x5 is derived for")), _margin_rh_5x5),
}

_SUFFICIENT_5X5_RULES = (*PARAM_RULES, equal_rule(
    ScalingOutOfScope, Variant.FULL_5X5.tied_clocks, "sufficient_5x5 is derived for", 1))


def _criterion(name: str, params: ModelParams, band: float) -> CriterionResult:
    check_dead_band("band", band)
    rules, margin = _CRITERIA[name]
    check_rules(rules, params)
    # The kernel's numpy arithmetic: a product of clocks that underflows to 0
    # divides to inf.
    point = ModelParams(**{attr: np.float64(getattr(params, attr))
                           for attr in PARAM_FIELDS})
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        value, binding = margin(point)
    if np.isnan(value):
        raise ConvergenceFailure(f"{name} margin is not a number at these parameters")
    margin = float(value)
    return CriterionResult(VERDICTS[verdict_codes(margin, band)], margin, str(binding))


def criterion_2x2(params: ModelParams, band: float = DEFAULT_BAND) -> CriterionResult:
    """Price/liquidity variant: stable iff q < 1 + c/tau0."""
    return _criterion("criterion_2x2", params, band)


def criterion_3x3(params: ModelParams, band: float = DEFAULT_BAND) -> CriterionResult:
    """Trend-sentiment variant with c = c1: stable iff Q + c/tau0 > 0."""
    return _criterion("criterion_3x3", params, band)


def criterion_5x5_q2zero(
    params: ModelParams, band: float = DEFAULT_BAND
) -> CriterionResult:
    """Full variant with value sentiment off: stable iff Q + c/tau0 > 0.

    Derived for c = c1 = c2.  At q2 = 0 zeta2 and Pa decouple, so the
    threshold is criterion_3x3's.
    """
    return _criterion("criterion_5x5_q2zero", params, band)


def rh_5x5(params: ModelParams, band: float = DEFAULT_BAND) -> CriterionResult:
    """Routh--Hurwitz conditions for the full variant at tied clocks c = c1 = c2.

    With the double eigenvalue at -1/c split off, the remaining cubic
    lambda^3 + a2 lambda^2 + a1 lambda + a0 has
        a2 = Q/c + 1/tau0 + 1/c3
        a1 = Q/(c3 c) + 1/(c tau0) + 2 q2/(c tau0) + 1/(tau0 c3)
        a0 = 1/(tau0 c3 c)  (always positive),
    so stability is exactly {a2 > 0, a2*a1 > a0}.  Each inequality yields a
    normalized slack (lhs - rhs)/(1 + |rhs|); the margin is the smaller one.
    """
    return _criterion("rh_5x5", params, band)


def sufficient_5x5(params: ModelParams) -> bool:
    """Sufficient (not necessary) stability conditions for the full variant.

    Derived for unit clocks c = c1 = c2 = 1, the paper's scaling.  Requires
    1/c3 + 1/tau0 > K and 1/c3 + 1/tau0 > K/c3 - 2 q2/tau0.
    """
    check_rules(_SUFFICIENT_5X5_RULES, params)
    lhs = 1.0 / params.c3 + 1.0 / params.tau0
    return lhs > params.K and lhs > params.K / params.c3 - 2.0 * params.q2 / params.tau0


def simple_condition_5x5(params: ModelParams) -> bool:
    """Diagnostic shortcut 1/c3 + 1/tau0 > K; reported, never used as a verdict.

    At q2 = 0 this looks tempting but does not match the spectrum (the exact
    threshold is Q + c/tau0 > 0); verify_consistency reports its agreement
    rate for the record.  Accepts a batch of points as well.
    """
    return 1.0 / params.c3 + 1.0 / params.tau0 > params.K


def closed_forms(
    variant: Variant,
) -> list[tuple[str, Callable[[ModelParams, float], CriterionResult | bool]]]:
    """The closed forms that apply to a variant, by name; the first gives its verdict.

    Each function takes params and a dead band.  On the full variant the
    verdict comes from Routh--Hurwitz; the exact K threshold, verify's route
    at q2 = 0, and the sufficient condition (a bool) are reported beside it.
    The criteria are looked up when this is called, so wrappers installed on
    this module's names are used.
    """
    if variant is Variant.LIQUIDITY_2X2:
        return [("criterion_2x2", criterion_2x2)]
    if variant is Variant.SENTIMENT_3X3:
        return [("criterion_3x3", criterion_3x3)]
    return [("rh_5x5", rh_5x5), ("criterion_5x5_q2zero", criterion_5x5_q2zero),
            ("sufficient_5x5", lambda params, band: sufficient_5x5(params))]


@dataclass(frozen=True)
class PointVerdicts:
    """Per-point outcome of :func:`evaluate_points`, in input order.

    ``values`` holds max Re(lambda) on the spectral route and the criterion
    margin on a closed-form route, NaN where a point is Invalid.  ``codes``
    index ``VERDICTS``.  ``errors`` is an object array holding the
    CryptoflowError subclass that made a point Invalid, None elsewhere.
    """

    values: np.ndarray
    codes: np.ndarray
    errors: np.ndarray

    @property
    def verdicts(self) -> list[Verdict]:
        return [VERDICTS[code] for code in self.codes.tolist()]


def evaluate_points(
    variant: Variant,
    params: ModelParams,
    criterion: str | None,
    tolerance: float,
) -> PointVerdicts:
    """Verdicts for a batch of parameter points through one route.

    ``params`` holds an array of length n for at least one field; a float
    field holds for every point.  With ``criterion`` None the route is the
    spectrum: the Jacobians of ``CHUNK`` points at a time are stacked and
    solved in one eigenvalue call.  Otherwise the route is the named closed
    form (a name from :func:`closed_forms`).  ``tolerance`` is the route's
    dead band in ``verdict_codes``.  Each value, verdict and error class
    equals what the single-point function gives or raises for that point.
    A point is Invalid when it breaks the first of the route's rules
    (``JACOBIAN_RULES`` or the criterion's), or when its value is NaN (an
    unsolvable spectrum or a margin that is not a number: ConvergenceFailure).
    An Invalid point never affects the others.
    """
    columns = np.broadcast_arrays(*(getattr(params, name) for name in PARAM_FIELDS))
    n = len(columns[0])
    values = np.full(n, np.nan)
    codes = np.full(n, INVALID, dtype=np.int8)
    errors = np.full(n, None, dtype=object)
    # The route's rules, its value, and the sign that makes stable positive.
    if criterion is None:
        rules, sign = JACOBIAN_RULES[variant], -1.0

        def value_of(points):
            # max Re as classify reads it, spectrum[0].real, sign of zero included
            return ordered_spectra(jacobian_stack(variant, points))[:, 0].real
    else:
        (rules, margin), sign = _CRITERIA[criterion], 1.0

        def value_of(points):
            return margin(points)[0]
    for start in range(0, n, CHUNK):
        part = slice(start, start + CHUNK)
        chunk = ModelParams(**{name: column[part]
                               for name, column in zip(PARAM_FIELDS, columns)})
        chunk_errors = rule_errors(rules, chunk)
        valid = np.flatnonzero(chunk_errors == None)  # noqa: E711 (elementwise)
        points = ModelParams(**{name: getattr(chunk, name)[valid] for name in PARAM_FIELDS})
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            value = value_of(points)
        undefined = np.isnan(value)
        chunk_errors[valid[undefined]] = ConvergenceFailure
        valid = valid[~undefined]
        value = value[~undefined]
        values[start + valid] = value
        # Negating max Re is exact, so no point moves across the band.
        codes[start + valid] = verdict_codes(sign * value, tolerance)
        errors[part] = chunk_errors
    return PointVerdicts(values=values, codes=codes, errors=errors)


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

    variant: Variant
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


# Fields a variant does not sample: amplitudes off, time scales at 1.
_UNSAMPLED = {**dict.fromkeys(AMPLITUDES, 0.0), **dict.fromkeys(TIME_SCALES, 1.0)}


def _sample_params(
    variant: Variant,
    rng: np.random.Generator,
    fixed: Mapping[str, float],
    m: int,
) -> ModelParams:
    """m sample points, drawn in the order of a loop over points and fields."""
    columns = {name: np.full(m, value) for name, value in _UNSAMPLED.items()}
    drawn = []
    for name in SAMPLED_FIELDS[variant]:
        if name in fixed:
            value = fixed[name]  # a pin beyond the float range counts as inf
            columns[name] = np.full(m, float(value) if finite(value) else np.inf)
        else:
            drawn.append(name)
    if drawn:
        ranges = [AMPLITUDE_RANGE if name in AMPLITUDES else TIME_SCALE_RANGE
                  for name in drawn]
        exponents = rng.uniform([np.log10(lo) for lo, _ in ranges],
                                [np.log10(hi) for _, hi in ranges],
                                size=(m, len(drawn)))
        # Python's float power, not np.power: their last bits differ on some CPUs.
        powers = np.array([10.0 ** x for x in exponents.ravel().tolist()])
        for k, name in enumerate(drawn):
            columns[name] = powers[k::len(drawn)]
    for name in variant.tied_clocks:
        columns[name] = columns["c"]
    return ModelParams(**columns)


def verify_consistency(
    variant: Variant,
    n: int = 10_000,
    seed: int = 0,
    band: float = DEFAULT_BAND,
    eps: float = DEFAULT_EPS,
    fixed: Mapping[str, float] | None = None,
) -> ConsistencyReport:
    """Cross-validate the variant's closed-form criterion against eigenvalues.

    Samples n parameter points log-uniformly (amplitudes in [1e-3, 10], time
    scales in [1e-2, 10]), evaluates both routes on batches of ``CHUNK``
    points, and counts disagreements.  A point that either route finds
    Marginal is excluded rather than compared.  A sample that cannot be
    evaluated (a pinned value breaks a parameter rule, or its spectrum cannot
    be solved) raises that error.

    ``fixed`` pins sampled fields to given values.  The closed form is the
    variant's verdict form (the first of :func:`closed_forms`), or
    ``criterion_5x5_q2zero`` when q2 is pinned at 0, which also reports the
    agreement rate of the 1/c3 + 1/tau0 > K shortcut for the record.

    Raises:
        ValueError: ``eps`` or ``band`` is negative, NaN or infinite, or
            ``n``, ``seed`` or ``fixed`` is refused by ``check_verify``.
    """
    fixed = dict(fixed) if fixed else {}
    check_dead_band("eps", eps)
    check_dead_band("band", band)
    n, seed = check_verify(variant, n, seed, fixed)

    # only the full variant samples q2
    q2_pinned_zero = fixed.get("q2") == 0.0
    criterion_name = ("criterion_5x5_q2zero" if q2_pinned_zero
                      else closed_forms(variant)[0][0])

    rng = np.random.default_rng(seed)
    mismatches: list[Mismatch] = []
    simple_agree = 0
    compared = 0
    for start in range(0, n, CHUNK):
        params = _sample_params(variant, rng, fixed, min(CHUNK, n - start))
        closed = evaluate_points(variant, params, criterion_name, band)
        spectral = evaluate_points(variant, params, None, eps)
        invalid = np.flatnonzero((closed.codes == INVALID) | (spectral.codes == INVALID))
        if invalid.size:
            i = invalid[0]
            error = closed.errors[i] or spectral.errors[i]
            raise error(f"verify sample {start + i} cannot be evaluated "
                        f"({error.__name__})")
        kept = (closed.codes != MARGINAL) & (spectral.codes != MARGINAL)
        compared += int(np.count_nonzero(kept))
        for i in np.flatnonzero(kept & (closed.codes != spectral.codes)):
            mismatches.append(Mismatch(
                params=ModelParams(**{name: getattr(params, name)[i].item()
                                      for name in PARAM_FIELDS}),
                criterion_verdict=VERDICTS[closed.codes[i]],
                spectral_verdict=VERDICTS[spectral.codes[i]],
                margin=closed.values[i].item(),
                max_real=spectral.values[i].item(),
            ))
        if q2_pinned_zero:
            # a kept point is stable or unstable on the spectrum
            agree = simple_condition_5x5(params) == (spectral.codes == STABLE)
            simple_agree += int(np.count_nonzero(kept & agree))

    agreement = None
    if q2_pinned_zero:
        agreement = simple_agree / compared if compared else float("nan")
    return ConsistencyReport(
        variant=variant,
        criterion=criterion_name,
        samples=n,
        mismatches=len(mismatches),
        excluded=n - compared,
        seed=seed,
        band=band,
        eps=eps,
        mismatch_list=tuple(mismatches),
        simple_condition_agreement=agreement,
    )
