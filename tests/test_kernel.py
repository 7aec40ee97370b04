"""The batched evaluation kernel against per-point reference loops.

``reference_sweep`` and ``reference_verify`` evaluate one parameter point at
a time through the single-point functions (``validate_params``,
``jacobian_analytic``, ``eigenvalues``, ``classify`` and the scalar
criteria), the way sweeps and verify did before they were batched.  The
batched results must equal them exactly: values bit for bit (sign of zero
included), verdicts, Invalid reasons, counts and the mismatch list in sample
order; reports are compared through their repr, which tells -0.0 from 0.0.
"""

import math
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import positional_ids
from cryptoflow import (
    FULL_5X5,
    LIQUIDITY_2X2,
    SENTIMENT_3X3,
    Axis,
    ConsistencyReport,
    ConvergenceFailure,
    CryptoflowError,
    Method,
    Mismatch,
    ModelParams,
    NegativeAmplitude,
    NonFiniteParameter,
    SweepSpec,
    Verdict,
    classify,
    eigenvalues,
    jacobian_analytic,
    run_sweep,
    simple_condition_5x5,
    validate_params,
    verify_consistency,
)
from cryptoflow import criteria
from cryptoflow.criteria import CHUNK, closed_forms
from cryptoflow.inputs import AXIS_NAMES, PARAM_FIELDS
from cryptoflow.stability import ordered_spectra

VARIANTS = (LIQUIDITY_2X2, SENTIMENT_3X3, FULL_5X5)


# ---------------------------------------------------------------- references

def _reference_cell(spec, v1, v2, eps, band):
    cell = asdict(spec.fixed)
    for axis, value in ((spec.axis1, v1), (spec.axis2, v2)):
        if axis.name == "K":
            value = value - 2.0 * spec.fixed.q1
            if value < 0.0:
                return math.nan, Verdict.INVALID, "q_negative_from_K"
        elif axis.name == "c_over_tau0":
            value = value * spec.fixed.tau0
        for name in axis.fields(spec.variant):
            cell[name] = value
    try:
        params = validate_params(ModelParams(**cell))
        if spec.method is Method.EIGEN:
            verdict = classify(eigenvalues(jacobian_analytic(spec.variant, params)), eps)
            return verdict.max_real, verdict.tag, None
        result = closed_forms(spec.variant)[0][1](params, band)
        return result.margin, result.verdict, None
    except CryptoflowError as exc:
        return math.nan, Verdict.INVALID, type(exc).__name__


def reference_sweep(spec, eps=1e-8, band=1e-6):
    """Values, verdicts and Invalid reasons of every cell, one cell at a time."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        rows = [[_reference_cell(spec, v1, v2, eps, band) for v2 in spec.axis2.values()]
                for v1 in spec.axis1.values()]
    values = np.array([[cell[0] for cell in row] for row in rows])
    verdicts = tuple(tuple(cell[1] for cell in row) for row in rows)
    reasons = [[cell[2] for cell in row] for row in rows]
    return values, verdicts, reasons


def assert_sweep_matches_reference(spec, eps=1e-8, band=1e-6):
    result = run_sweep(spec, eps=eps, band=band)
    values, verdicts, reasons = reference_sweep(spec, eps, band)
    assert result.values.tobytes() == values.tobytes()
    assert result.verdicts == verdicts
    assert result.reasons.tolist() == reasons
    return result


SAMPLED = {
    LIQUIDITY_2X2: ("q", "tau0", "c"),
    SENTIMENT_3X3: ("q", "q1", "tau0", "c"),
    FULL_5X5: ("q", "q1", "q2", "tau0", "c3"),
}


def reference_verify(variant, n, seed=0, band=1e-6, eps=1e-8, fixed=None):
    """verify_consistency drawing and evaluating one sample at a time."""
    fixed = dict(fixed or {})
    q2_zero = fixed.get("q2") == 0.0
    name, criterion = closed_forms(variant, q2_zero)[0]
    rng = np.random.default_rng(seed)
    mismatches, excluded, compared, simple_agree = [], 0, 0, 0
    for _ in range(n):
        values = dict(q=0.0, q1=0.0, q2=0.0, tau0=1.0, c=1.0, c1=1.0, c2=1.0, c3=1.0)
        for field in SAMPLED[variant]:
            if field in fixed:
                values[field] = float(fixed[field])
            else:
                lo, hi = (1e-3, 10.0) if field.startswith("q") else (1e-2, 10.0)
                values[field] = float(10.0 ** rng.uniform(np.log10(lo), np.log10(hi)))
        for clock in variant.tied_clocks:
            values[clock] = values["c"]
        params = ModelParams(**values)
        closed = criterion(params, band)
        spectral = classify(eigenvalues(jacobian_analytic(variant, params)), eps)
        if abs(closed.margin) <= band or abs(spectral.max_real) <= eps:
            excluded += 1
            continue
        compared += 1
        if closed.verdict is not spectral.tag:
            mismatches.append(Mismatch(params, closed.verdict, spectral.tag,
                                       closed.margin, spectral.max_real))
        if q2_zero:
            predicted = Verdict.STABLE if simple_condition_5x5(params) else Verdict.UNSTABLE
            simple_agree += predicted is spectral.tag
    agreement = None
    if q2_zero:
        agreement = simple_agree / compared if compared else float("nan")
    return ConsistencyReport(variant, name, n, len(mismatches), excluded,
                             seed, band, eps, tuple(mismatches), agreement)


def assert_same_report(report, expected):
    # Field by field, so that a difference names the first sample it is in.
    assert repr(replace(report, mismatch_list=())) == \
        repr(replace(expected, mismatch_list=()))
    for got, want in zip(report.mismatch_list, expected.mismatch_list, strict=True):
        assert repr(got) == repr(want)


# ---------------------------------------------------------------- sweeps

amplitudes = st.floats(0.0, 3.0)
clocks = st.floats(0.05, 5.0)
REFUSED_PAIRS = ({"K", "q"}, {"K", "q1"}, {"c_over_tau0", "tau0"})


@st.composite
def sweep_specs(draw):
    variant = draw(st.sampled_from(VARIANTS))
    c = draw(clocks)
    # Clocks off the tied value put cells out of the Jacobian's or the
    # criterion's scope.
    c1 = draw(st.sampled_from([c, 1.0, 2.0]))
    c2 = draw(st.sampled_from([c1, 1.0]))
    fixed = ModelParams(q=draw(amplitudes), q1=draw(amplitudes),
                        q2=draw(st.sampled_from([0.0, 0.4, 1.7])),
                        tau0=draw(clocks), c=c, c1=c1, c2=c2, c3=draw(clocks))
    # SweepSpec refuses the pairs in which one axis overwrites a field the
    # other writes or holds.
    names = draw(st.lists(st.sampled_from(AXIS_NAMES), min_size=2, max_size=2,
                          unique=True).filter(lambda n: set(n) not in REFUSED_PAIRS))
    axes = []
    for name in names:
        # Lower bounds below zero give cells that break a parameter rule.
        lo = draw(st.floats(-1.0, 3.0))
        axes.append(Axis(name, lo, lo + draw(st.floats(0.1, 4.0)),
                         draw(st.integers(2, 9))))
    return SweepSpec(variant, fixed, axes[0], axes[1], draw(st.sampled_from(list(Method))))


@settings(max_examples=150, deadline=None)
@given(spec=sweep_specs(), eps=st.sampled_from([1e-8, 0.3]),
       band=st.sampled_from([1e-6, 0.3]))
def test_sweep_equals_per_cell_reference(spec, eps, band):
    assert_sweep_matches_reference(spec, eps, band)


@pytest.mark.parametrize("method", list(Method))
@pytest.mark.parametrize("variant", VARIANTS, ids=positional_ids(len(VARIANTS)))
def test_sweep_across_chunk_boundaries(variant, method):
    # 41 x 26 = 1066 cells: one full chunk and a partial one.
    spec = SweepSpec(variant, ModelParams(q1=0.4, q2=0.3, tau0=0.7, c3=2.0),
                     Axis("K", 0.0, 4.0, 41), Axis("c_over_tau0", 0.0, 3.0, 26), method)
    result = assert_sweep_matches_reference(spec)
    cells = [v for row in result.verdicts for v in row]
    assert len(cells) > CHUNK
    assert Verdict.INVALID in cells


def test_non_finite_jacobian_cell_does_not_poison_its_chunk():
    # 1/tau0 overflows at tau0 = 1e-310: that row has no spectrum, the rest
    # of the chunk is solved as usual.
    spec = SweepSpec(LIQUIDITY_2X2, ModelParams(tau0=1.0),
                     Axis("tau0", 1e-310, 2.0, 5), Axis("q", 0.0, 3.0, 7), Method.EIGEN)
    result = assert_sweep_matches_reference(spec)
    assert result.reasons[0].tolist() == ["ConvergenceFailure"] * 7
    assert all(v is not Verdict.INVALID for row in result.verdicts[1:] for v in row)


def test_lapack_failure_on_a_stack_fails_only_its_matrix(monkeypatch):
    spec = SweepSpec(SENTIMENT_3X3, ModelParams(q1=0.3),
                     Axis("tau0", 0.5, 2.0, 4), Axis("q", 0.0, 3.0, 6), Method.EIGEN)
    good = run_sweep(spec)
    eigvals = np.linalg.eigvals
    stacks = []

    def flaky(a):
        # Matrices with tau0 = 0.5 (entry -1/tau0 = -2) never converge.
        a = np.asarray(a)
        stacks.append(a.ndim == 3)
        if (a[..., 0, 0] == -2.0).any():
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", flaky)
    result = run_sweep(spec)
    assert stacks[0] and not all(stacks)
    assert result.reasons[0].tolist() == ["ConvergenceFailure"] * 6
    assert np.isnan(result.values[0]).all()
    assert result.verdicts[1:] == good.verdicts[1:]
    assert result.values[1:].tobytes() == good.values[1:].tobytes()


def sorted_max_real(m):
    """Max Re of the spectrum as Python's sort orders it, independently of
    ``ordered_spectra``."""
    return sorted(np.linalg.eigvals(m), key=lambda z: (-z.real, z.imag))[0].real


def spectral_route(monkeypatch, stack):
    """``evaluate_points``' spectral route, with ``stack`` as the points' Jacobians."""
    monkeypatch.setattr(criteria, "jacobian_stack", lambda variant, points: stack)
    return criteria.evaluate_points(LIQUIDITY_2X2, ModelParams(q=np.zeros(len(stack))),
                                    None, 1e-8)


@pytest.mark.parametrize("matrices", [
    [np.diag([0.0, -0.0]), np.diag([-0.0, 0.0]), [[-0.0, 1.0], [0.0, -0.0]],
     [[0.0, 1.0], [0.0, 0.0]]],
    [[[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -0.0]],
     [[-0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]],
     [[1.0, -2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]],
    # An eigenvalue that overflows stays inf on both routes: max Re inf, unstable.
    [np.full((2, 2), 1e308)],
])
def test_dominant_real_part_breaks_ties_like_the_sorted_spectrum(monkeypatch, matrices):
    # 0.0 and -0.0 tie; the eigenvalue sorted first decides the sign of zero.
    stack = np.array(matrices, dtype=float)
    expected = np.array([sorted_max_real(m) for m in stack])
    scalar = [classify(eigenvalues(m)) for m in stack]
    assert not np.isnan(expected).any()
    assert ordered_spectra(stack)[:, 0].real.tobytes() == expected.tobytes()
    assert np.array([v.max_real for v in scalar]).tobytes() == expected.tobytes()
    batch = spectral_route(monkeypatch, stack)
    assert batch.values.tobytes() == expected.tobytes()
    assert batch.verdicts == [v.tag for v in scalar]
    assert all(v.tag is Verdict.UNSTABLE for v in scalar if v.max_real > 0.0)


def test_a_nan_eigenvalue_is_a_convergence_failure_on_both_routes(monkeypatch):
    eigvals = np.linalg.eigvals

    def with_nan(a):
        vals = eigvals(a).astype(complex)
        vals[..., 0] = np.nan
        return vals

    monkeypatch.setattr(np.linalg, "eigvals", with_nan)
    m = np.diag([1.0, -1.0])
    with pytest.raises(ConvergenceFailure):
        eigenvalues(m)
    batch = spectral_route(monkeypatch, m[None])
    assert batch.verdicts == [Verdict.INVALID]
    assert batch.errors.tolist() == [ConvergenceFailure]


# ---------------------------------------------------------------- verify

@pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1])
@pytest.mark.parametrize("variant,fixed", [
    (LIQUIDITY_2X2, None), (SENTIMENT_3X3, {"q": 0.3}), (FULL_5X5, {"q2": 0.0}),
], ids=positional_ids(3, "None", "fixed1", "fixed2"))
def test_verify_equals_per_sample_reference(variant, fixed, n):
    report = verify_consistency(variant, n=n, seed=n, fixed=fixed)
    assert_same_report(report, reference_verify(variant, n, seed=n, fixed=fixed))


def test_verify_ten_thousand_samples_equal_reference():
    report = verify_consistency(FULL_5X5, n=10_000, seed=11)
    assert_same_report(report, reference_verify(FULL_5X5, 10_000, seed=11))


@settings(max_examples=30, deadline=None)
@given(variant=st.sampled_from(VARIANTS), n=st.integers(1, 300),
       seed=st.integers(0, 2**32 - 1), pin=st.booleans(),
       band=st.sampled_from([1e-6, 0.5]), eps=st.sampled_from([1e-8, 0.5]),
       value=st.sampled_from([0.0, 0.05, 0.8, 3.0]))
def test_verify_property(variant, n, seed, pin, band, eps, value):
    fixed = None
    if pin:
        field = SAMPLED[variant][0 if variant is not FULL_5X5 else 2]
        fixed = {field: value}
    report = verify_consistency(variant, n=n, seed=seed, band=band, eps=eps, fixed=fixed)
    assert_same_report(report, reference_verify(variant, n, seed, band, eps, fixed))


def test_mismatch_list_keeps_sample_order(monkeypatch):
    scope, margin = criteria._CRITERIA["criterion_2x2"]

    def flipped(p):
        value, binding = margin(p)
        return -value, binding

    # A criterion with its sign flipped disagrees with the spectrum everywhere.
    monkeypatch.setitem(criteria._CRITERIA, "criterion_2x2", (scope, flipped))
    n = CHUNK + 300
    report = verify_consistency(LIQUIDITY_2X2, n=n, seed=4)
    assert report.mismatches > CHUNK
    assert_same_report(report, reference_verify(LIQUIDITY_2X2, n, seed=4))


def test_verify_raises_for_a_sample_it_cannot_evaluate():
    with pytest.raises(ConvergenceFailure):
        verify_consistency(LIQUIDITY_2X2, n=5, fixed={"tau0": 1e-310})
    with pytest.raises(NegativeAmplitude):
        verify_consistency(SENTIMENT_3X3, n=5, fixed={"q": -1.0})
    # a pin beyond the float range is refused as a pin of inf is
    with pytest.raises(NonFiniteParameter):
        verify_consistency(LIQUIDITY_2X2, n=5, fixed={"q": 10**400})


@pytest.mark.parametrize("variant,criterion,point", [
    # tau0 * c3 underflows to 0: a1 = a0 = inf, so a2 * a1 - a0 is inf - inf
    (FULL_5X5, "rh_5x5", {"tau0": 1e-200, "c3": 1e-200}),
    # 1/tau0 overflows, so a2 * a1 - a0 is inf - inf
    (FULL_5X5, "rh_5x5", {"tau0": 1e-310}),
    # Q = -inf and c/tau0 = inf
    (SENTIMENT_3X3, "criterion_3x3", {"q1": 1e308, "c": 1e300, "c1": 1e300,
                                      "tau0": 1e-10}),
], ids=positional_ids(3, "rh_5x5-point0", "rh_5x5-point1", "criterion_3x3-point2"))
def test_nan_margin_is_invalid(variant, criterion, point):
    good = ModelParams()
    bad = ModelParams(**point)
    batch = ModelParams(**{name: np.array([getattr(good, name), getattr(bad, name)])
                           for name in point})
    result = criteria.evaluate_points(variant, batch, criterion, 1e-6)
    assert result.verdicts[1] is Verdict.INVALID
    assert result.errors[1] is ConvergenceFailure
    assert math.isnan(result.values[1])
    # its neighbour is evaluated as on its own
    expected = dict(closed_forms(variant))[criterion](good, 1e-6)
    assert result.verdicts[0] is expected.verdict
    assert result.values[0] == expected.margin
    with pytest.raises(ConvergenceFailure, match="not a number"):
        dict(closed_forms(variant))[criterion](bad, 1e-6)


# Valid points among points that break a parameter rule or a route's scope,
# or whose value is NaN (test_nan_margin_is_invalid's cases).
MIXED_POINTS = [
    {}, {"q2": 0.0}, {"tau0": -1.0}, {"tau0": 0.0}, {"q": -3.0}, {"q2": 0.0, "tau0": 0.0},
    {"c1": 2.0}, {"tau0": 1e-200, "c3": 1e-200}, {"tau0": 1e-310},
    {"q1": 1e308, "c": 1e300, "c1": 1e300, "tau0": 1e-10},
    # c * tau0 underflows to 0: rh_5x5's a1 is inf and its margin is a2.
    {"tau0": 1e-200, "c": 1e-200, "c1": 1e-200, "c2": 1e-200, "c3": 1e200},
]
ROUTES = [(variant, name) for variant in VARIANTS
          for name in (None, *dict(closed_forms(variant))) if name != "sufficient_5x5"]


def _scalar_outcome(variant, criterion, params):
    try:
        if criterion is None:
            return classify(eigenvalues(jacobian_analytic(variant, params)), 1e-6).tag, None
        return dict(closed_forms(variant))[criterion](params, 1e-6).verdict, None
    except CryptoflowError as exc:
        return Verdict.INVALID, type(exc)


@pytest.mark.parametrize("variant,criterion", ROUTES,
                         ids=positional_ids(len(ROUTES), *(str(c) for _, c in ROUTES)))
def test_invalid_reason_is_the_scalar_error(variant, criterion):
    points = [ModelParams(**point) for point in MIXED_POINTS]
    batch = ModelParams(**{name: np.array([getattr(p, name) for p in points])
                           for name in PARAM_FIELDS})
    result = criteria.evaluate_points(variant, batch, criterion, 1e-6)
    assert list(zip(result.verdicts, result.errors.tolist())) == [
        _scalar_outcome(variant, criterion, p) for p in points]
