"""Closed-form criteria against the eigenvalue route."""

import json
import math
import re
import sys
from dataclasses import asdict
from fractions import Fraction

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
    Method,
    ModelParams,
    NegativeAmplitude,
    NonPositiveTimeScale,
    OutOfScope,
    ScalingOutOfScope,
    SweepSpec,
    Verdict,
    char_poly,
    classify,
    criterion_2x2,
    criterion_3x3,
    criterion_5x5_q2zero,
    eigenvalues,
    hurwitz_stable,
    jacobian_analytic,
    rh_5x5,
    run_sweep,
    simple_condition_5x5,
    sufficient_5x5,
    verify_consistency,
)
from cryptoflow import criteria
from cryptoflow.inputs import PARAM_FIELDS
from cryptoflow.stability import (
    MARGINAL,
    STABLE,
    UNSTABLE,
    VERDICTS,
    _exact_char_poly,
    jacobian_stack,
    verdict_codes,
)


def unit_scaled(q=0.5, q1=0.5, q2=0.5, tau0=1.0, c3=1.0):
    return ModelParams(q=q, q1=q1, q2=q2, tau0=tau0, c=1.0, c1=1.0, c2=1.0, c3=c3)


def test_2x2_unstable_example():
    r = criterion_2x2(ModelParams(q=3.0, c=1.0, tau0=1.0))
    assert r.verdict is Verdict.UNSTABLE
    assert r.margin == pytest.approx(-1.0)
    assert r.binding == "q_threshold"


def test_2x2_stable_example():
    r = criterion_2x2(ModelParams(q=1.5, c=1.0, tau0=1.0))
    assert r.verdict is Verdict.STABLE
    assert r.margin == pytest.approx(0.5)


def test_2x2_boundary_is_marginal():
    assert criterion_2x2(ModelParams(q=3.0, c=1.0, tau0=0.5)).verdict is Verdict.MARGINAL


def test_2x2_ignores_unrelated_fields():
    a = criterion_2x2(ModelParams(q=1.5, c=1.0, tau0=1.0, q1=0.1, c3=0.2))
    b = criterion_2x2(ModelParams(q=1.5, c=1.0, tau0=1.0, q1=9.0, c3=7.0))
    assert a == b


def test_3x3_unstable_example():
    r = criterion_3x3(ModelParams(q=2.0, q1=1.0, c=1.0, c1=1.0, tau0=1.0))
    assert r.verdict is Verdict.UNSTABLE
    assert r.margin == pytest.approx(-2.0)
    assert r.binding == "K_threshold"


@pytest.mark.parametrize("c,tau0", [(1.0, 1.0), (0.3, 5.0), (7.0, 0.2)])
def test_3x3_stable_whenever_k_below_one(c, tau0):
    # Q = 0.4 > 0 keeps the verdict stable for any clock settings
    r = criterion_3x3(ModelParams(q=0.2, q1=0.2, c=c, c1=c, tau0=tau0))
    assert r.verdict is Verdict.STABLE


def test_3x3_boundary_is_marginal():
    # Q = -2 against c/tau0 = 2
    p = ModelParams(q=2.0, q1=0.5, c=2.0, c1=2.0, tau0=1.0)
    assert criterion_3x3(p).verdict is Verdict.MARGINAL


def test_3x3_requires_tied_scales():
    with pytest.raises(ScalingOutOfScope, match=re.escape(
            "criterion_3x3 is derived for c = c1, got c=1.0, c1=2.0")):
        criterion_3x3(ModelParams(c=1.0, c1=2.0))


@settings(max_examples=100, deadline=None)
@given(
    q=st.floats(min_value=0.0, max_value=3.0),
    q1=st.floats(min_value=0.0, max_value=1.5),
    c=st.floats(min_value=0.05, max_value=20.0),
    tau0=st.floats(min_value=0.05, max_value=20.0),
    s=st.floats(min_value=1e-2, max_value=1e2),
)
def test_3x3_invariant_under_joint_rescaling(q, q1, c, tau0, s):
    base = criterion_3x3(ModelParams(q=q, q1=q1, c=c, c1=c, tau0=tau0))
    scaled = criterion_3x3(ModelParams(q=q, q1=q1, c=s * c, c1=s * c, tau0=s * tau0))
    assert scaled.verdict is base.verdict
    assert scaled.margin == pytest.approx(base.margin, rel=1e-9)


def test_q2zero_stable_example():
    r = criterion_5x5_q2zero(unit_scaled(q=4.0, q1=3.0, q2=0.0, tau0=0.1))
    assert r.verdict is Verdict.STABLE
    assert r.margin == pytest.approx(1.0)


def test_q2zero_unstable_example():
    r = criterion_5x5_q2zero(unit_scaled(q=6.0, q1=3.0, q2=0.0, tau0=0.1))
    assert r.verdict is Verdict.UNSTABLE
    assert r.margin == pytest.approx(-1.0)


def test_q2zero_boundary_is_marginal():
    r = criterion_5x5_q2zero(unit_scaled(q=3.0, q1=0.0, q2=0.0, tau0=0.5))
    assert r.verdict is Verdict.MARGINAL


def test_q2zero_scope_errors():
    with pytest.raises(OutOfScope, match=re.escape(
            "criterion_5x5_q2zero requires q2 = 0, got q2=0.5")):
        criterion_5x5_q2zero(unit_scaled(q2=0.5))
    with pytest.raises(ScalingOutOfScope, match=re.escape(
            "criterion_5x5_q2zero is derived for c = c1 = c2, got c=1.0, c1=2.0, c2=1.0")):
        criterion_5x5_q2zero(ModelParams(q2=0.0, c=1.0, c1=2.0))


def test_rh_stable_example():
    r = rh_5x5(unit_scaled(q=0.0, q1=0.0, q2=0.0))
    assert r.verdict is Verdict.STABLE
    assert r.margin > 0


def test_rh_product_binding_witness():
    # K = 2.5 with the product inequality tight: q2 rescues stability
    baseline = rh_5x5(unit_scaled(q=1.5, q1=0.5, q2=0.0))
    assert baseline.verdict is Verdict.UNSTABLE
    assert baseline.binding == "a2a1_exceeds_a0"
    rescued = rh_5x5(unit_scaled(q=1.5, q1=0.5, q2=1.0))
    assert rescued.verdict is Verdict.STABLE
    assert rescued.margin == pytest.approx(0.125)
    assert rescued.binding == "a2a1_exceeds_a0"


def test_rh_a2_binding():
    r = rh_5x5(unit_scaled(q=2.5, q1=0.5, q2=0.0))
    assert r.binding == "a2_positive"
    assert r.margin == pytest.approx(-0.5)


def test_rh_requires_tied_clocks():
    with pytest.raises(ScalingOutOfScope, match=re.escape(
            "rh_5x5 is derived for c = c1 = c2, got c=1.0, c1=2.0, c2=1.0")):
        rh_5x5(ModelParams(c=1.0, c1=2.0))


@pytest.mark.parametrize("name,q2", [("rh_5x5", None), ("criterion_5x5_q2zero", 0.0)])
def test_tied_clock_closed_forms_agree_with_the_spectrum_sampled(name, q2):
    # log-uniform points with c = c1 = c2 anywhere in [1e-2, 10], not only at 1
    rng = np.random.default_rng(7)
    m = 20_000
    q, q1, q2s = 10.0 ** rng.uniform(-3, 1, size=(3, m))
    tau0, c, c3 = 10.0 ** rng.uniform(-2, 1, size=(3, m))
    batch = ModelParams(q=q, q1=q1, q2=q2s if q2 is None else np.full(m, q2),
                        tau0=tau0, c=c, c1=c, c2=c, c3=c3)
    closed = criteria.evaluate_points(FULL_5X5, batch, name, 1e-6)
    spectral = criteria.evaluate_points(FULL_5X5, batch, None, 1e-8)
    compared = (np.abs(closed.values) > 1e-6) & (np.abs(spectral.values) > 1e-8)
    assert compared.sum() > 0.99 * m
    assert np.array_equal(closed.codes[compared], spectral.codes[compared])
    assert set(closed.verdicts) == {Verdict.STABLE, Verdict.UNSTABLE}
    single = getattr(criteria, name)
    for i in range(0, m, 200):  # the single-point route gives the batch's bits
        point = ModelParams(**{f: getattr(batch, f)[i].item() for f in PARAM_FIELDS})
        assert single(point).margin == closed.values[i]


def test_full_closed_form_sweep_over_the_clock_ratio_equals_the_eigen_sweep():
    def sweep(method):
        return run_sweep(SweepSpec(FULL_5X5, ModelParams(),
                                   Axis("c_over_tau0", 0.05, 3.0, 31),
                                   Axis("q", 0.0, 4.0, 31), method))

    closed, eigen = sweep(Method.CLOSED_FORM), sweep(Method.EIGEN)
    assert closed.verdicts == eigen.verdicts
    cells = [v for row in closed.verdicts for v in row]
    assert Verdict.INVALID not in cells
    assert {Verdict.STABLE, Verdict.UNSTABLE} <= set(cells)


def test_sufficient_examples():
    assert sufficient_5x5(unit_scaled(q=0.0, q1=0.0, q2=0.0))
    # sufficient fails yet the exact conditions hold
    witness = unit_scaled(q=1.5, q1=0.5, q2=1.0)
    assert not sufficient_5x5(witness)
    assert rh_5x5(witness).verdict is Verdict.STABLE
    # tied clocks are not enough: the conditions are derived at c = 1
    with pytest.raises(ScalingOutOfScope, match=re.escape(
            "sufficient_5x5 is derived for c = c1 = c2 = 1, got c=2.0, c1=2.0, c2=2.0")):
        sufficient_5x5(ModelParams(c=2.0, c1=2.0, c2=2.0))


def test_sufficient_implies_rh_stable_sampled():
    rng = np.random.default_rng(23)
    hits = 0
    for _ in range(2000):
        q, q1, q2 = 10.0 ** rng.uniform(-3, 1, size=3)
        tau0, c3 = 10.0 ** rng.uniform(-2, 1, size=2)
        p = unit_scaled(q=q, q1=q1, q2=q2, tau0=tau0, c3=c3)
        if sufficient_5x5(p):
            hits += 1
            assert rh_5x5(p).verdict is Verdict.STABLE
    assert hits > 100  # the check must not be vacuous


@pytest.mark.parametrize("name", ["criterion_2x2", "criterion_3x3", "criterion_5x5_q2zero",
                                  "rh_5x5", "sufficient_5x5"])
@pytest.mark.parametrize("point,error", [
    ({"tau0": -1.0}, NonPositiveTimeScale),
    ({"tau0": 0.0}, NonPositiveTimeScale),
    ({"q": -3.0}, NegativeAmplitude),
], ids=["tau0=-1", "tau0=0", "q=-3"])
def test_closed_forms_check_the_parameter_rules_first(name, point, error):
    # q2 = 0 puts every closed form in scope
    with pytest.raises(error):
        getattr(criteria, name)(ModelParams(q2=0.0, **point))


def test_simple_condition_is_just_the_shortcut():
    assert simple_condition_5x5(unit_scaled(q=0.1, q1=0.1, tau0=1.0, c3=1.0))
    assert not simple_condition_5x5(unit_scaled(q=3.0, q1=0.5, tau0=1.0, c3=1.0))


def test_hurwitz_degree_one():
    assert hurwitz_stable((1.0, 1.0))
    assert not hurwitz_stable((1.0, -1.0))


def test_hurwitz_cubic_examples():
    assert not hurwitz_stable((1.0, 1.0, 1.0, 2.0))
    assert hurwitz_stable((1.0, 2.0, 3.0, 1.0))


def test_hurwitz_degree_range():
    with pytest.raises(ValueError, match="degree must be at least 1, got 0"):
        hurwitz_stable((1.0,))
    # (lambda + 1)(lambda + 2)...(lambda + 6), then (lambda^7 - 1)/(lambda - 1),
    # whose roots are the 7th roots of unity other than 1
    assert hurwitz_stable((1.0, 21.0, 175.0, 735.0, 1624.0, 1764.0, 720.0))
    assert not hurwitz_stable((1.0,) * 7)


def test_hurwitz_decides_exactly_where_float_minors_fail():
    # with leading-first coefficients 1, a1, a2, a3, the exact Delta2 =
    # a1*a2 - a3 is +7.55e-17, below a float determinant's roundoff
    assert hurwitz_stable((1.0, 2.929433662872602, 0.6339139535783986, 1.857008874977221))


def test_hurwitz_takes_ints_fractions_and_floats():
    # (lambda + 1)(lambda + 2), given exactly, as fractions and times 2.0
    assert hurwitz_stable((1, 3, 2))
    assert hurwitz_stable((Fraction(1), Fraction(3), Fraction(2)))
    assert hurwitz_stable((2.0, 6.0, 4.0))
    assert not hurwitz_stable((1, Fraction(-1, 3), 2))


@pytest.mark.parametrize("lead", [0.0, -1.0, 0, Fraction(-1, 3)], ids=str)
def test_hurwitz_refuses_a_leading_coefficient_that_is_not_positive(lead):
    with pytest.raises(ValueError, match="leading coefficient must be positive, got "):
        hurwitz_stable((lead, 1.0))


def test_a_positive_scale_keeps_the_hurwitz_verdict():
    for coeffs in [(1, 1, 1, 2), (1, 2, 3, 1), (1, 0, 1), (1, 21, 175, 735, 1624, 1764, 720)]:
        want = hurwitz_stable(coeffs)
        for scale in (Fraction(1, 3), 2.0, 1e-300, 7):
            assert hurwitz_stable([scale * c for c in coeffs]) == want, (coeffs, scale)


@pytest.mark.parametrize("coeff", [math.inf, math.nan])
def test_hurwitz_rejects_non_finite_coefficients(coeff):
    with pytest.raises(ValueError, match="coefficients must be finite"):
        hurwitz_stable((1.0, coeff))


def test_hurwitz_against_root_oracle():
    rng = np.random.default_rng(31)
    for _ in range(300):
        n = int(rng.integers(1, 9))
        roots = []
        while len(roots) < n:
            if n - len(roots) >= 2 and rng.random() < 0.5:
                z = complex(rng.uniform(-2, 2), rng.uniform(0.1, 2))
                roots.extend([z, z.conjugate()])
            else:
                roots.append(complex(rng.uniform(-2, 2), 0.0))
        coeffs = np.real(np.poly(np.array(roots)))
        want = all(z.real < 0 for z in roots)
        if max(abs(z.real) for z in roots) < 1e-3:
            continue  # too close to the boundary for a clean sign
        assert hurwitz_stable(tuple(coeffs)) == want


def test_rh_matches_hurwitz_on_the_quintic():
    # unit clocks, then free tied clocks c = c1 = c2
    rng = np.random.default_rng(37)
    for unit in (True, False):
        for _ in range(300):
            q, q1, q2 = 10.0 ** rng.uniform(-3, 1, size=3)
            tau0, c3 = 10.0 ** rng.uniform(-2, 1, size=2)
            c = 1.0 if unit else 10.0 ** rng.uniform(-2, 1)
            p = ModelParams(q=q, q1=q1, q2=q2, tau0=tau0, c=c, c1=c, c2=c, c3=c3)
            r = rh_5x5(p)
            if abs(r.margin) <= 1e-6:
                continue
            jac = jacobian_analytic(FULL_5X5, p)
            # the coefficients as char_poly rounds them, then exact
            for quintic in (char_poly(jac), _exact_char_poly(jac)):
                assert hurwitz_stable(quintic) == (r.verdict is Verdict.STABLE)


def test_the_exact_route_decides_the_huge_amplitude_witness():
    # the first mismatch of verify --variant full5x5 --q2 1e300 -n 20, where
    # the spectral verdict disagrees with rh_5x5
    p = ModelParams(q=0.14945139248881537, q1=5.499075661406077, q2=1e300,
                    tau0=2.80259706180413, c=1.0, c1=1.0, c2=1.0,
                    c3=0.010190969469382439)
    r = rh_5x5(p)
    assert r.verdict is Verdict.STABLE
    assert r.margin == pytest.approx(88.3353004332, rel=1e-12)
    assert hurwitz_stable(_exact_char_poly(jacobian_stack(FULL_5X5, p)))


@pytest.mark.parametrize("variant", [LIQUIDITY_2X2, SENTIMENT_3X3, FULL_5X5],
                         ids=positional_ids(3))
def test_verify_finds_no_mismatches(variant):
    report = verify_consistency(variant, n=500, seed=7)
    assert report.mismatches == 0
    assert report.samples == 500
    assert report.samples == report.mismatches + report.agreements + report.excluded


@pytest.mark.xfail(strict=True, reason="the spectral dead band eps is absolute: at "
                   "q2 = 1e300 the eigen solver's roundoff swamps the real parts")
def test_verify_agrees_at_a_huge_amplitude():
    assert verify_consistency(FULL_5X5, n=20, fixed={"q2": 1e300}).mismatches == 0


def test_verify_q2_pinned_reports_shortcut_rate():
    report = verify_consistency(FULL_5X5, n=500, seed=7, fixed={"q2": 0.0})
    assert report.criterion == "criterion_5x5_q2zero"
    assert report.mismatches == 0
    assert report.simple_condition_agreement is not None
    assert 0.5 < report.simple_condition_agreement < 1.0


def test_verify_unpinned_full_uses_rh():
    report = verify_consistency(FULL_5X5, n=200, seed=1)
    assert report.criterion == "rh_5x5"
    assert report.simple_condition_agreement is None


def test_verify_deterministic_and_thread_independent():
    a = verify_consistency(SENTIMENT_3X3, n=400, seed=42)
    b = verify_consistency(SENTIMENT_3X3, n=400, seed=42)
    assert a == b
    assert a != verify_consistency(SENTIMENT_3X3, n=400, seed=43)


def test_verify_rejects_bad_arguments():
    with pytest.raises(ValueError):
        verify_consistency(SENTIMENT_3X3, n=0)
    with pytest.raises(ValueError):
        verify_consistency(LIQUIDITY_2X2, n=10, fixed={"q1": 0.3})
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        verify_consistency(LIQUIDITY_2X2, n=10, seed=-1)
    for bad, message in [({"n": 10.0}, "n must be an integer, got 10.0"),
                         ({"n": True}, "n must be an integer, got True"),
                         ({"n": 10, "seed": 1.5}, "seed must be an integer, got 1.5")]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            verify_consistency(LIQUIDITY_2X2, **bad)
    # The command line's messages.  Let through, eps=inf would exclude every
    # sample and report no mismatch.
    for bad, message in [({"eps": -1.0}, "eps must be >= 0, got -1.0"),
                         ({"eps": math.inf}, "eps must be finite, got inf"),
                         ({"band": math.nan}, "band must be >= 0, got nan"),
                         ({"band": -math.inf}, "band must be >= 0, got -inf")]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            verify_consistency(FULL_5X5, n=50, **bad)


def test_numpy_integer_counts_give_the_report_of_python_ints():
    report = verify_consistency(LIQUIDITY_2X2, n=np.int64(5), seed=np.int64(2))
    assert all(type(getattr(report, name)) is int
               for name in ("samples", "excluded", "seed"))
    expected = verify_consistency(LIQUIDITY_2X2, n=5, seed=2)
    assert json.dumps(asdict(report)) == json.dumps(asdict(expected))


@pytest.mark.parametrize("bad,message", [(-1.0, "must be >= 0, got -1.0"),
                                         (math.nan, "must be >= 0, got nan"),
                                         (math.inf, "must be finite, got inf"),
                                         (10**400, f"must be finite, got {10**400}"),
                                         (10**5000, "must be finite, "
                                                    "got an int of 5001 digits")],
                         ids=["negative", "nan", "inf", "huge_int", "int_5001_digits"])
def test_the_scalar_routes_reject_a_bad_dead_band(bad, message):
    """classify and the closed forms check their dead band as run_sweep and
    verify_consistency do: unchecked, a NaN or negative band read Marginal."""
    with pytest.raises(ValueError, match=f"^eps {re.escape(message)}$"):
        classify((-1.0 + 0.0j,), bad)
    for criterion in (criterion_2x2, criterion_3x3, criterion_5x5_q2zero, rh_5x5):
        with pytest.raises(ValueError, match=f"^band {re.escape(message)}$"):
            criterion(ModelParams(), bad)


def _edges(value):
    """(band, code) pairs at the edge of the dead band for a signed value:
    the band equal to |value| (Marginal) and one float narrower (decided)."""
    decided = STABLE if value > 0 else UNSTABLE
    if math.isinf(value):
        return [(sys.float_info.max, decided)]
    if value == 0.0:
        return [(0.0, MARGINAL)]
    return [(abs(value), MARGINAL), (np.nextafter(abs(value), 0.0), decided)]


def test_the_dead_band_edge_is_the_same_on_every_route():
    """A value at exactly +-band is Marginal and the next float outward is
    decided, on every route: ``verdict_codes``, ``classify``, a scalar closed
    form, both routes of ``evaluate_points``, and verify's exclusion.  Signed
    zeros, infinities and NaN go through each route that can produce them (a
    NaN margin or a non-finite Jacobian is Invalid before the dead band)."""
    band = 0.25
    signed = [band, -band, np.nextafter(band, np.inf), np.nextafter(-band, -np.inf),
              0.0, -0.0, np.inf, -np.inf, np.nan]
    expected = [MARGINAL, MARGINAL, STABLE, UNSTABLE,
                MARGINAL, MARGINAL, STABLE, UNSTABLE, MARGINAL]
    assert [verdict_codes(float(x), band) for x in signed] == expected
    assert verdict_codes(np.array(signed), band).tolist() == expected
    assert [verdict_codes(x, 0.0) for x in (0.0, -0.0, 5e-324, -5e-324)] == [
        MARGINAL, MARGINAL, STABLE, UNSTABLE]
    # The spectral route's signed value is -max Re.
    for x, code in zip(signed, expected):
        assert classify((complex(-x, 0.0),), eps=band).tag is VERDICTS[code]

    # criterion_3x3 margins 1.5, -1, 0, inf and -inf.
    points = [{"q": 0.5}, {"q": 3.0}, {"q": 2.0},
              {"q": 0.5, "c": 1e300, "c1": 1e300, "tau0": 1e-10},
              {"q": 1e308, "q1": 1e308}]
    base = {"q": 0.0, "q1": 0.0, "tau0": 1.0, "c": 1.0, "c1": 1.0}
    scalars = [ModelParams(**{**base, **p}) for p in points]
    batch = ModelParams(**{name: np.array([getattr(p, name) for p in scalars])
                           for name in base})
    margins = [criterion_3x3(p, 0.0).margin for p in scalars]
    assert margins == [1.5, -1.0, 0.0, math.inf, -math.inf]
    for i, margin in enumerate(margins):
        for edge, code in _edges(margin):
            assert criterion_3x3(scalars[i], edge).verdict is VERDICTS[code]
            result = criteria.evaluate_points(SENTIMENT_3X3, batch, "criterion_3x3", edge)
            assert result.codes[i] == code
    max_real = criteria.evaluate_points(SENTIMENT_3X3, batch, None, 0.0).values
    for i, value in enumerate(max_real):
        if math.isnan(value):  # the Jacobian overflowed: Invalid
            continue
        spectrum = eigenvalues(jacobian_analytic(SENTIMENT_3X3, scalars[i]))
        for edge, code in _edges(-value):
            assert classify(spectrum, edge).tag is VERDICTS[code]
            assert criteria.evaluate_points(SENTIMENT_3X3, batch, None, edge).codes[i] == code

    # verify excludes a sample that either route finds Marginal.  Every
    # sample is the pinned point, so the band is read off its own values.
    for q in (0.5, 3.0):
        pins = {"q": q, "tau0": 1.0, "c": 1.0}
        point = ModelParams(**pins)
        margin = criterion_2x2(point).margin
        value = classify(eigenvalues(jacobian_analytic(LIQUIDITY_2X2, point))).max_real
        cases = [({"band": edge, "eps": 0.0}, code) for edge, code in _edges(margin)]
        cases += [({"band": 0.0, "eps": edge}, code) for edge, code in _edges(-value)]
        for bands, code in cases:
            report = verify_consistency(LIQUIDITY_2X2, n=3, fixed=pins, **bands)
            assert report.excluded == (3 if code == MARGINAL else 0)
            assert report.agreements == 3 - report.excluded
