"""Model definitions: variants, parameter validation, and the vector field."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cryptoflow import (
    FULL_5X5,
    LIQUIDITY_2X2,
    SENTIMENT_3X3,
    ModelParams,
    NegativeAmplitude,
    NonFiniteParameter,
    NonPositiveTimeScale,
    StateOutOfDomain,
    equilibrium,
    ignored_fields,
    rhs,
    validate_params,
)
from cryptoflow.inputs import PARAM_FIELDS
from cryptoflow.stability import jacobian_stack

ALL_VARIANTS = (FULL_5X5, SENTIMENT_3X3, LIQUIDITY_2X2)

fields = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)
amplitudes = st.just(0.0) | fields


def params_strategy():
    return st.builds(
        ModelParams,
        q=amplitudes, q1=amplitudes, q2=amplitudes,
        tau0=fields, c=fields, c1=fields, c2=fields, c3=fields,
    )


def test_variant_shapes():
    assert FULL_5X5.dim == 5
    assert SENTIMENT_3X3.dim == 3
    assert LIQUIDITY_2X2.dim == 2
    assert FULL_5X5.labels == ("P", "Pa", "L", "zeta1", "zeta2")
    assert SENTIMENT_3X3.labels == ("P", "L", "zeta1")
    assert LIQUIDITY_2X2.labels == ("P", "L")


def test_ignored_fields():
    assert ignored_fields(FULL_5X5) == frozenset()
    assert ignored_fields(SENTIMENT_3X3) == {"q2", "c2", "c3"}
    assert ignored_fields(LIQUIDITY_2X2) == {"q1", "q2", "c1", "c2", "c3"}


def test_equilibrium_values():
    np.testing.assert_array_equal(equilibrium(FULL_5X5), [1, 1, 1, 0, 0])
    np.testing.assert_array_equal(equilibrium(SENTIMENT_3X3), [1, 1, 0])
    np.testing.assert_array_equal(equilibrium(LIQUIDITY_2X2), [1, 1])


def test_k_and_q():
    p = ModelParams(q=0.5, q1=0.75)
    assert p.K == 2.0
    assert p.Q == -1.0


@pytest.mark.parametrize("name", ["tau0", "c", "c1", "c2", "c3"])
@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_nonpositive_time_scale_rejected(name, bad):
    params = ModelParams(**{name: bad})
    with pytest.raises(NonPositiveTimeScale):
        validate_params(params)


@pytest.mark.parametrize("name", ["q", "q1", "q2"])
def test_negative_amplitude_rejected(name):
    params = ModelParams(**{name: -0.1})
    with pytest.raises(NegativeAmplitude):
        validate_params(params)


@pytest.mark.parametrize("name", ["q", "q1", "q2", "tau0", "c", "c1", "c2", "c3"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                 pytest.param(10**400, id="huge_int"),
                                 pytest.param(-10**400, id="-huge_int"),
                                 pytest.param(10**5000, id="int_5001_digits")])
def test_non_finite_parameter_rejected_before_other_rules(name, bad):
    # NaN slips past the sign checks, so finiteness is checked first; the
    # second bad field would otherwise name another error.  An int beyond the
    # float range is refused as inf is, and one too long for Python to write
    # in decimal is named by its size.
    other = {"c3": -1.0} if name != "c3" else {"q": -1.0}
    text = "an int of 5001 digits" if bad == 10**5000 else str(bad)
    with pytest.raises(NonFiniteParameter) as refusal:
        validate_params(ModelParams(**{name: bad}, **other))
    assert str(refusal.value) == f"{name} must be finite, got {text}"


def test_validation_covers_ignored_fields():
    # the 2x2 variant never reads c3, but a bad c3 is still an error
    with pytest.raises(NonPositiveTimeScale):
        validate_params(ModelParams(c3=-1.0))


def test_validate_returns_params():
    p = ModelParams()
    assert validate_params(p) is p


@settings(max_examples=100, deadline=None)
@given(params=params_strategy())
def test_rhs_vanishes_at_equilibrium(params):
    for variant in ALL_VARIANTS:
        out = rhs(variant, params, equilibrium(variant))
        assert np.max(np.abs(out)) <= 1e-14


def test_rhs_example_liquidity():
    p = ModelParams(q=0.0, tau0=1.0, c=1.0)
    out = rhs(LIQUIDITY_2X2, p, np.array([2.0, 1.0]))
    np.testing.assert_allclose(out, [-1.0, 0.0], atol=1e-15)


def test_rhs_example_value_sentiment():
    # discount (Pa - P)/Pa = -0.1 feeds zeta2 directly at c2 = 1
    p = ModelParams(q=0.5, q1=0.5, q2=1.0, tau0=0.1, c=1.0, c1=1.0, c2=1.0, c3=10.0)
    state = np.array([1.1, 1.0, 1.0, 0.0, 0.0])
    out = rhs(FULL_5X5, p, state)
    assert out[4] == pytest.approx(-0.1, abs=1e-15)


@settings(max_examples=100, deadline=None)
@given(
    params=params_strategy(),
    s=st.floats(min_value=1e-2, max_value=1e2),
    p=st.floats(min_value=0.5, max_value=2.0),
    liq=st.floats(min_value=0.5, max_value=2.0),
    z1=st.floats(min_value=-0.3, max_value=0.3),
)
def test_time_scale_homogeneity(params, s, p, liq, z1):
    # stretching every clock by s slows the flow by exactly 1/s
    slow = ModelParams(
        q=params.q, q1=params.q1, q2=params.q2,
        tau0=s * params.tau0, c=s * params.c, c1=s * params.c1,
        c2=s * params.c2, c3=s * params.c3,
    )
    state = np.array([p, liq, z1])
    fast = rhs(SENTIMENT_3X3, params, state)
    np.testing.assert_allclose(rhs(SENTIMENT_3X3, slow, state), fast / s,
                               rtol=1e-12, atol=1e-15)


def test_price_floor_is_an_error_not_a_clamp():
    params = ModelParams()
    with pytest.raises(StateOutOfDomain):
        rhs(LIQUIDITY_2X2, params, np.array([1e-10, 1.0]))
    with pytest.raises(StateOutOfDomain):
        rhs(FULL_5X5, params, np.array([1.0, 1e-10, 1.0, 0.0, 0.0]))


def test_anchor_floor_only_checked_where_it_exists():
    # the 3x3 state has no anchored price, so only P is floored
    params = ModelParams()
    out = rhs(SENTIMENT_3X3, params, np.array([0.5, 1.0, 0.0]))
    assert np.all(np.isfinite(out))


def test_rhs_rejects_wrong_shape():
    with pytest.raises(ValueError):
        rhs(SENTIMENT_3X3, ModelParams(), np.array([1.0, 1.0]))


def table_jacobian(variant, params):
    """The Jacobian written out by hand: the full variant's table, restricted to
    the rows and columns of the variant's states."""
    q, q1, q2, tau0, c, c1, c2, c3 = (getattr(params, name) for name in PARAM_FIELDS)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        rows = [
            [-1.0 / tau0, 0.0, 1.0 / tau0, 2.0 / tau0, 2.0 / tau0],
            [1.0 / c3, -1.0 / c3, 0.0, 0.0, 0.0],
            [-q / c, 0.0, (q - 1.0) / c, 2.0 * q / c, 2.0 * q / c],
            [-q1 / c1, 0.0, q1 / c1, (2.0 * q1 - 1.0) / c1, 2.0 * q1 / c1],
            [-q2 / c2, q2 / c2, 0.0, 0.0, -1.0 / c2],
        ]
    entries = np.broadcast_arrays(*(entry for row in rows for entry in row))
    table = np.stack(entries, axis=-1).reshape(entries[0].shape + (5, 5))
    kept = [FULL_5X5.labels.index(name) for name in variant.labels]
    return table[..., kept, :][..., kept]


def _scaled(lo, hi):
    return st.floats(min_value=lo, max_value=hi).map(lambda x: 10.0 ** x)


@settings(max_examples=200, deadline=None)
@given(amplitudes=st.tuples(*[st.just(0.0) | _scaled(-3.0, 1.0)] * 3),
       clocks=st.tuples(*[_scaled(-2.0, 1.0)] * 5))
def test_the_jacobian_table_is_the_exact_derivative_of_the_equations(amplitudes, clocks):
    params = ModelParams(*amplitudes, *clocks)
    for variant in ALL_VARIANTS:
        assert (table_jacobian(variant, params).tobytes()
                == jacobian_stack(variant, params).tobytes()), variant


def test_a_jacobian_batch_is_the_exact_derivative_at_each_point():
    rng = np.random.default_rng(12)
    n = 1024
    exponents = np.concatenate([rng.uniform(-3.0, 1.0, (3, n)),
                                rng.uniform(-2.0, 1.0, (5, n))])
    columns = [np.array([10.0 ** x for x in row.tolist()]) for row in exponents]
    for amplitude in columns[:3]:
        amplitude[rng.random(n) < 0.2] = 0.0
    batch = ModelParams(*columns)
    for variant in ALL_VARIANTS:
        stack = jacobian_stack(variant, batch)
        assert stack.tobytes() == table_jacobian(variant, batch).tobytes(), variant
        for k in range(n):
            point = ModelParams(*(float(column[k]) for column in columns))
            assert jacobian_stack(variant, point).tobytes() == stack[k].tobytes(), (variant, k)


@settings(max_examples=300, deadline=None)
@given(params=params_strategy(),
       prices=st.tuples(*[st.floats(min_value=1e-3, max_value=1e3)] * 3),
       z1=st.floats(min_value=-10.0, max_value=10.0))
def test_the_smaller_variants_are_restrictions_of_the_full_model(params, prices, z1):
    # the full model with the dropped states frozen at 0 gives the same bits
    # on the kept rows; Pa is read only by the rows the smaller variants drop
    p, pa, liq = prices
    for variant, state, full_state in ((SENTIMENT_3X3, (p, liq, z1), (p, pa, liq, z1, 0.0)),
                                       (LIQUIDITY_2X2, (p, liq), (p, pa, liq, 0.0, 0.0))):
        full = rhs(FULL_5X5, params, np.array(full_state))
        rows = [FULL_5X5.labels.index(name) for name in variant.labels]
        assert rhs(variant, params, np.array(state)).tobytes() == full[rows].tobytes()


# Any valid value, from the smallest positive clock to the largest amplitude,
# so that the rows a variant drops may overflow or lose every digit.
wide_amplitudes = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
wide_clocks = st.floats(min_value=5e-324, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(params=params_strategy(),
       ignored=st.fixed_dictionaries({
           **{name: wide_amplitudes for name in ("q1", "q2")},
           **{name: wide_clocks for name in ("c1", "c2", "c3")}}),
       prices=st.tuples(*[st.floats(min_value=1e-3, max_value=1e3)] * 2),
       z1=st.floats(min_value=-10.0, max_value=10.0))
def test_a_variant_reads_none_of_the_fields_it_ignores(params, ignored, prices, z1):
    # the smaller variants evaluate the full model's dropped rows too; the
    # fields only those rows read must not reach the kept rows
    p, liq = prices
    for variant, state in ((SENTIMENT_3X3, (p, liq, z1)), (LIQUIDITY_2X2, (p, liq))):
        other = replace(params, **{name: ignored[name] for name in ignored_fields(variant)})
        validate_params(other)
        assert (rhs(variant, params, np.array(state)).tobytes()
                == rhs(variant, other, np.array(state)).tobytes()), variant
        assert (jacobian_stack(variant, params).tobytes()
                == jacobian_stack(variant, other).tobytes()), variant
