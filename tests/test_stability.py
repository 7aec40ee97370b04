import re

import numpy as np
import pytest

from cryptoflow import (
    FULL_5X5,
    LIQUIDITY_2X2,
    SENTIMENT_3X3,
    ConvergenceFailure,
    ModelParams,
    NonPositiveTimeScale,
    UnsupportedScaling,
    Verdict,
    char_poly,
    classify,
    eigenvalues,
    jacobian_analytic,
    jacobian_numeric,
)
from cryptoflow.stability import jacobian_stack


def test_jacobian_liquidity_example():
    p = ModelParams(q=0.0, tau0=0.5, c=2.0)
    jac = jacobian_analytic(LIQUIDITY_2X2, p)
    np.testing.assert_allclose(jac, [[-2.0, 2.0], [0.0, -0.5]])


def test_jacobian_sentiment_example():
    p = ModelParams(q=2.0, q1=1.0, tau0=0.5, c=1.0, c1=1.0)
    jac = jacobian_analytic(SENTIMENT_3X3, p)
    np.testing.assert_allclose(
        jac, [[-2.0, 2.0, 4.0], [-2.0, 1.0, 4.0], [-1.0, 1.0, 1.0]]
    )


def test_jacobian_full_at_zero_amplitudes():
    p = ModelParams(q=0.0, q1=0.0, q2=0.0, tau0=1.0, c=1.0, c1=1.0, c2=1.0, c3=1.0)
    jac = jacobian_analytic(FULL_5X5, p)
    expected = [
        [-1.0, 0.0, 1.0, 2.0, 2.0],
        [1.0, -1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, -1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -1.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, -1.0],
    ]
    np.testing.assert_allclose(jac, expected)


def test_jacobian_full_requires_equal_reaction_scales():
    with pytest.raises(UnsupportedScaling):
        jacobian_analytic(FULL_5X5, ModelParams(c=1.0, c1=2.0, c2=1.0))



@pytest.mark.parametrize("variant,params", [
    (LIQUIDITY_2X2, ModelParams(c3=0.0)),  # a clock the variant does not read
    (FULL_5X5, ModelParams(tau0=0.0)),
])
def test_jacobian_rejects_a_zero_clock_by_name(variant, params):
    for jacobian in (jacobian_analytic, jacobian_numeric):
        with pytest.raises(NonPositiveTimeScale):
            jacobian(variant, params)

def test_numeric_jacobian_matches_analytic():
    # at tied clocks, where jacobian_analytic answers every variant, and at
    # independent ones, where only jacobian_stack answers the full variant
    rng = np.random.default_rng(3)
    for jacobian, tied in ((jacobian_analytic, True), (jacobian_stack, False)):
        for variant in (LIQUIDITY_2X2, SENTIMENT_3X3, FULL_5X5):
            for _ in range(20):
                vals = 10.0 ** rng.uniform(-2, 1, size=8)
                if tied:
                    vals[5:7] = vals[4]
                p = ModelParams(*vals)
                diff = np.abs(jacobian(variant, p) - jacobian_numeric(variant, p))
                assert diff.max() <= 1e-6


def test_char_poly_companion_example():
    assert char_poly(np.array([[0.0, 1.0], [-2.0, -3.0]])) == (1.0, 3.0, 2.0)


def test_char_poly_double_root():
    assert char_poly(np.diag([-1.0, -1.0])) == (1.0, 2.0, 1.0)


def test_char_poly_full_variant_binomial():
    p = ModelParams(q=0.0, q1=0.0, q2=0.0, tau0=1.0, c=1.0, c1=1.0, c2=1.0, c3=1.0)
    coeffs = char_poly(jacobian_analytic(FULL_5X5, p))
    np.testing.assert_allclose(coeffs, (1.0, 5.0, 10.0, 10.0, 5.0, 1.0), atol=1e-12)


def test_char_poly_against_root_product_oracle():
    # np.poly builds the polynomial from eigenvalues, an independent route
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        m = rng.uniform(-1e3, 1e3, size=(n, n))
        mine = np.array(char_poly(m))
        oracle = np.poly(m)
        rel = np.max(np.abs(mine - oracle) / np.maximum(1.0, np.abs(oracle)))
        assert rel <= 1e-9


def test_char_poly_rejects_bad_input():
    with pytest.raises(ValueError):
        char_poly(np.ones((2, 3)))
    with pytest.raises(ValueError):
        char_poly(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_char_poly_rounds_a_coefficient_beyond_the_float_range_to_inf():
    # the trace is exactly 2e308, the determinant exactly 0
    assert char_poly(np.full((2, 2), 1e308)) == (1.0, -np.inf, 0.0)


def test_eigenvalues_diagonal():
    spec = eigenvalues(np.diag([-1.0, -2.0]))
    assert spec == (-1.0 + 0.0j, -2.0 + 0.0j)
    assert spec[0].real == -1.0


def test_eigenvalues_rotation():
    spec = eigenvalues(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert abs(spec[0] - (-1j)) <= 1e-10
    assert abs(spec[1] - 1j) <= 1e-10


def test_eigenvalues_triangular_exact():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        m = np.triu(rng.uniform(-5, 5, size=(n, n)))
        got = sorted(z.real for z in eigenvalues(m))
        want = sorted(np.diag(m))
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_eigenvalues_conjugate_pairs_and_residual():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        m = rng.normal(size=(n, n))
        vals = eigenvalues(m)
        norm = np.linalg.norm(m, 2)
        for z in vals:
            # determinant residual, scale-normalized
            proxy = abs(np.linalg.det(m - z * np.eye(n))) / (1.0 + norm**n)
            assert proxy <= 1e-8
            if abs(z.imag) > 0:
                partner = min(vals, key=lambda w: abs(w - z.conjugate()))
                assert abs(partner - z.conjugate()) <= 1e-10


def test_eigenvalues_similarity_invariance():
    rng = np.random.default_rng(4)
    count = 0
    while count < 30:
        n = int(rng.integers(2, 6))
        m = rng.normal(size=(n, n))
        s = np.eye(n) + 0.3 * rng.normal(size=(n, n))
        if np.linalg.cond(s) > 10.0:
            continue
        count += 1
        a = np.array(eigenvalues(m))
        b = np.array(eigenvalues(s @ m @ np.linalg.inv(s)))
        # sorted order pairs the two spectra
        assert np.max(np.abs(a - b)) <= 1e-7


def test_eigenvalues_rejects_nonsquare():
    with pytest.raises(ValueError):
        eigenvalues(np.ones((3, 2)))


@pytest.mark.parametrize("route", [eigenvalues, char_poly])
def test_an_empty_matrix_is_refused_by_its_shape(route):
    with pytest.raises(ValueError, match=re.escape("got shape (0, 0)")):
        route(np.empty((0, 0)))


@pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan])
def test_eigenvalues_names_a_non_finite_entry(entry):
    m = np.diag([-1.0, -2.0])
    m[0, 1] = entry
    with pytest.raises(ConvergenceFailure, match="^matrix has a non-finite entry; "
                                                 "no eigenvalues computed$"):
        eigenvalues(m)


def test_classify_stable():
    v = classify((-1.0 + 0.0j, -2.0 + 0.0j))
    assert v.tag is Verdict.STABLE
    assert not v.oscillatory
    assert v.max_real == -1.0


def test_classify_unstable_spiral():
    v = classify((0.1 + 2.0j, 0.1 - 2.0j, -1.0 + 0.0j))
    assert v.tag is Verdict.UNSTABLE
    assert v.oscillatory


def test_classify_marginal():
    v = classify((-1e-12 + 0.0j, -1.0 + 0.0j), eps=1e-8)
    assert v.tag is Verdict.MARGINAL


def test_classify_custom_eps():
    spec = (-1e-12 + 0.0j,)
    assert classify(spec, eps=1e-15).tag is Verdict.STABLE
    with pytest.raises(ValueError, match="^spectrum must be nonempty$"):
        classify((), eps=1e-15)
