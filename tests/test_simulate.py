"""Time integration and trajectory-based classification.

``reference_rhs`` and ``reference_integrate`` are the right-hand side and
the RK4 loop written on numpy arrays, one ``rhs`` call per stage, the way
the package computed them before the integrator moved to plain floats.
``rhs`` and ``integrate`` must equal them bit for bit: values (sign of zero
included), exception classes, messages, failure times and partial runs.
``rhs`` is compared up to the sign of a NaN, which IEEE 754 leaves
uninterpreted and which ``rhs`` does not keep stable (see
``test_rhs_equals_reference_up_to_the_sign_of_nan``).
The one intended difference is a NaN state, which the reference lets
through both guards and ``integrate`` stops as a BlowUp.
"""

import copy
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from conftest import positional_ids
from cryptoflow import (
    FULL_5X5,
    LIQUIDITY_2X2,
    P_FLOOR,
    SENTIMENT_3X3,
    BlowUp,
    EmpiricalVerdict,
    ModelParams,
    NonPositiveTimeScale,
    SimConfig,
    StateOutOfDomain,
    Trajectory,
    default_step,
    eigenvalues,
    equilibrium,
    integrate,
    jacobian_analytic,
    perturb_and_classify,
    rhs,
    validate_params,
)
from cryptoflow.simulate import BLOWUP_GUARD, RK4_AMPLIFICATION, _check_step
from cryptoflow.stability import DEFAULT_EPS, eigenvalues, jacobian_stack

VARIANTS = (LIQUIDITY_2X2, SENTIMENT_3X3, FULL_5X5)


# ---------------------------------------------------------------- references

def reference_rhs(variant, params, state):
    state = np.asarray(state, dtype=float)
    if state.shape != (variant.dim,):
        raise ValueError(
            f"state must have shape ({variant.dim},) for {variant.value}, "
            f"got {state.shape}"
        )
    if state[0] < P_FLOOR:
        raise StateOutOfDomain(f"P = {state[0]} below floor {P_FLOOR}")
    if variant is FULL_5X5 and state[1] < P_FLOOR:
        raise StateOutOfDomain(f"Pa = {state[1]} below floor {P_FLOOR}")

    if variant is LIQUIDITY_2X2:
        p, liq = state
        excess = liq - p
        return np.array([excess / params.tau0,
                         (1.0 - liq + params.q * excess) / params.c])

    if variant is SENTIMENT_3X3:
        p, liq, z1 = state
        s = 1.0 + 2.0 * z1
        excess = s * liq - p
        return np.array([
            excess / params.tau0,
            (1.0 - liq + params.q * excess) / params.c,
            (params.q1 * (s * liq / p - 1.0) - z1) / params.c1,
        ])

    p, pa, liq, z1, z2 = state
    s = 1.0 + 2.0 * z1 + 2.0 * z2
    excess = s * liq - p
    discount = (pa - p) / pa
    return np.array([
        excess / params.tau0,
        (p - pa) / params.c3,
        (1.0 - liq + params.q * excess) / params.c,
        (params.q1 * (s * liq / p - 1.0) - z1) / params.c1,
        (params.q2 * discount - z2) / params.c2,
    ])


def reference_integrate(variant, params, initial, config=SimConfig()):
    validate_params(params)
    initial = np.asarray(initial, dtype=float)
    if initial.shape != (variant.dim,):
        raise ValueError(
            f"initial state must have shape ({variant.dim},), got {initial.shape}"
        )
    h = config.step if config.step is not None else default_step(variant, params)
    horizon = config.horizon
    n_full = int(math.floor(horizon / h + 1e-9))
    last_partial = horizon - n_full * h
    if last_partial < 1e-9 * h:
        last_partial = 0.0

    times = [0.0]
    recorded = [initial.copy()]

    def partial():
        return np.array(times), np.array(recorded)

    def stopped(exc, t):
        exc.time, exc.partial = t, partial()
        return exc

    def guarded_rhs(state, t):
        if np.max(np.abs(state)) > BLOWUP_GUARD:
            raise stopped(BlowUp(
                f"component magnitude exceeded {BLOWUP_GUARD:.0e} at t={t:.6g}"), t)
        try:
            return reference_rhs(variant, params, state)
        except StateOutOfDomain as exc:
            raise stopped(exc, t) from None

    state = initial.copy()
    total_steps = n_full + (1 if last_partial else 0)
    for i in range(total_steps):
        t = i * h
        hi = h if i < n_full else last_partial
        k1 = guarded_rhs(state, t)
        k2 = guarded_rhs(state + 0.5 * hi * k1, t)
        k3 = guarded_rhs(state + 0.5 * hi * k2, t)
        k4 = guarded_rhs(state + hi * k3, t)
        state = state + (hi / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t_next = (i + 1) * h if i < n_full else horizon
        if np.max(np.abs(state)) > BLOWUP_GUARD:
            raise stopped(BlowUp(
                f"component magnitude exceeded {BLOWUP_GUARD:.0e} at t={t_next:.6g}"), t_next)
        times.append(t_next)
        recorded.append(state.copy())
    guarded_rhs(state, times[-1])  # the floor check the next step's k1 would make
    return partial()


def _outcome(run, *args):
    """What a run gives: (times, states) as bytes, or the error and its partial run."""
    try:
        result = run(*args)
    except (BlowUp, StateOutOfDomain) as exc:
        partial = exc.partial
        if not isinstance(partial, tuple):
            partial = (partial.times, partial.states)
        times, states = partial
        return (type(exc), str(exc), repr(exc.time), times.tobytes(),
                states.shape, states.tobytes())
    if not isinstance(result, tuple):
        result = (result.times, result.states)
    times, states = result
    return (None, times.tobytes(), states.shape, states.tobytes())


def test_default_step_tracks_fastest_relevant_clock():
    p = ModelParams(tau0=0.1, c=1.0, c1=1.0, c2=1.0, c3=10.0)
    assert default_step(FULL_5X5, p) == pytest.approx(0.1 / 20)
    # the 2x2 variant ignores c1, c2, c3, so a tiny c3 must not shrink h
    p2 = ModelParams(tau0=1.0, c=2.0, c3=1e-3)
    assert default_step(LIQUIDITY_2X2, p2) == pytest.approx(1.0 / 20)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"step": 0.0},
        {"step": -1.0},
        {"horizon": 0.0},
        {"step": 2.0, "horizon": 1.0},
    ],
)
def test_sim_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        SimConfig(**kwargs)


def test_linear_decay_example():
    # with q = 0 and unit clocks, P relaxes to L as e^{-t}
    p = ModelParams(q=0.0, tau0=1.0, c=1.0)
    traj = integrate(LIQUIDITY_2X2, p, np.array([2.0, 1.0]),
                     SimConfig(step=0.01, horizon=1.0))
    assert traj.final_state[0] == pytest.approx(1.0 + math.exp(-1.0), abs=1e-6)
    assert traj.final_state[1] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("variant", [FULL_5X5, SENTIMENT_3X3, LIQUIDITY_2X2],
                         ids=positional_ids(3))
def test_equilibrium_is_a_fixed_point(variant):
    traj = integrate(variant, ModelParams(), equilibrium(variant),
                     SimConfig(horizon=100.0))
    drift = np.max(np.abs(traj.states - equilibrium(variant)))
    assert drift <= 1e-12


def test_fourth_order_self_convergence():
    p = ModelParams(q=0.2, q1=0.2, tau0=1.0, c=1.0, c1=1.0)
    x0 = np.array([1.3, 0.9, 0.1])

    def final(h):
        cfg = SimConfig(step=h, horizon=5.0)
        return integrate(SENTIMENT_3X3, p, x0, cfg).final_state

    ref = final(1e-4)
    err_coarse = np.max(np.abs(final(0.02) - ref))
    err_fine = np.max(np.abs(final(0.01) - ref))
    assert 12.0 <= err_coarse / err_fine <= 20.0


def test_time_translation_invariance():
    p = ModelParams(q=0.4, q1=0.3, tau0=0.5, c=1.0, c1=1.0)
    x0 = np.array([1.2, 1.0, 0.05])
    cfg7 = SimConfig(step=0.01, horizon=7.0)
    cfg14 = SimConfig(step=0.01, horizon=14.0)
    mid = integrate(SENTIMENT_3X3, p, x0, cfg7).final_state
    twice = integrate(SENTIMENT_3X3, p, mid, cfg7).final_state
    once = integrate(SENTIMENT_3X3, p, x0, cfg14).final_state
    np.testing.assert_allclose(twice, once, atol=1e-9)


def test_trajectory_grid_layout():
    # every step is recorded: the initial state, then one row per step
    p = ModelParams(q=0.0, tau0=1.0, c=1.0)
    traj = integrate(LIQUIDITY_2X2, p, np.array([1.5, 1.0]),
                     SimConfig(step=0.1, horizon=1.0))
    assert traj.times[0] == 0.0
    np.testing.assert_allclose(np.diff(traj.times), 0.1, atol=1e-12)
    assert traj.times[-1] == 1.0
    assert traj.states.shape == (11, 2)
    np.testing.assert_array_equal(traj.states[0], [1.5, 1.0])


def test_partial_final_step():
    p = ModelParams(q=0.0, tau0=1.0, c=1.0)
    traj = integrate(LIQUIDITY_2X2, p, np.array([1.5, 1.0]),
                     SimConfig(step=0.1, horizon=1.05))
    assert traj.times[-1] == pytest.approx(1.05)
    assert traj.times[-2] == pytest.approx(1.0)


def test_csv_round_trip():
    p = ModelParams(q=0.3, q1=0.2, tau0=1.0, c=1.0, c1=1.0)
    traj = integrate(SENTIMENT_3X3, p, np.array([1.1, 1.0, 0.0]),
                     SimConfig(step=0.05, horizon=0.5))
    text = traj.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "t,P,L,zeta1"
    assert len(lines) == len(traj.times) + 1
    parsed = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    np.testing.assert_array_equal(parsed[:, 0], traj.times)
    np.testing.assert_array_equal(parsed[:, 1:], traj.states)


def assert_survives_pickle_and_copy(exc):
    for clone in (pickle.loads(pickle.dumps(exc)), copy.copy(exc)):
        assert type(clone) is type(exc)
        assert str(clone) == str(exc)
        assert clone.time == exc.time
        assert clone.partial.times.tobytes() == exc.partial.times.tobytes()


def test_blow_up_guard_carries_time_and_partial():
    p = ModelParams(q=0.0, tau0=1.0, c=1.0)
    with pytest.raises(BlowUp) as err:
        integrate(LIQUIDITY_2X2, p, np.array([1.0, 2e9]),
                  SimConfig(step=0.1, horizon=10.0))
    assert err.value.time is not None
    assert err.value.partial is not None
    assert err.value.partial.states.shape[0] >= 1
    assert_survives_pickle_and_copy(err.value)


def test_price_floor_exit_carries_time_and_partial():
    # growing spiral drives P into the floor well before any blow-up
    p = ModelParams(q=2.0, q1=1.0, tau0=1.0, c=1.0, c1=1.0)
    with pytest.raises(StateOutOfDomain) as err:
        integrate(SENTIMENT_3X3, p, np.array([1.0001, 1.0, 0.0]),
                  SimConfig(step=0.01, horizon=100.0))
    assert err.value.time > 0.0
    assert err.value.partial.states[:, 0].min() >= 0.0
    assert_survives_pickle_and_copy(err.value)


def test_a_last_state_below_the_floor_is_a_domain_exit():
    # Step 244 ends on the horizon at P = -0.2039.  No stage evaluates a
    # derivative there, yet the run stops there as a longer run does.
    p = ModelParams(q=2.07, q1=0.11, q2=0.07, tau0=1.72, c=1.26, c1=0.76, c2=0.77,
                    c3=0.9)
    at_end, longer = (perturb_and_classify(FULL_5X5, p, SimConfig(step=0.2, horizon=h))
                      for h in (48.8, 200.0))
    assert at_end.failure_time == longer.failure_time == 244 * 0.2
    assert at_end.deviation_ratio == longer.deviation_ratio == math.inf
    assert at_end.growth_rate == longer.growth_rate
    assert at_end.trajectory.states[-1][0] < 0.0
    assert at_end.trajectory.times.tobytes() == longer.trajectory.times.tobytes()
    assert at_end.trajectory.states.tobytes() == longer.trajectory.states.tobytes()
    initial = at_end.trajectory.states[0]
    config = SimConfig(step=0.2, horizon=48.8)
    expected = _outcome(reference_integrate, FULL_5X5, p, initial, config)
    assert (expected[0], expected[2]) == (StateOutOfDomain, "48.800000000000004")
    assert _outcome(integrate, FULL_5X5, p, initial, config) == expected


def test_integrate_validates_inputs():
    with pytest.raises(NonPositiveTimeScale):
        integrate(LIQUIDITY_2X2, ModelParams(tau0=0.0), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        integrate(LIQUIDITY_2X2, ModelParams(), np.array([1.0, 1.0, 1.0]))


def test_perturb_stable_case():
    p = ModelParams(q=0.2, q1=0.2, tau0=1.0, c=1.0, c1=1.0)
    out = perturb_and_classify(SENTIMENT_3X3, p, SimConfig(horizon=50.0))
    assert out.verdict is EmpiricalVerdict.STABLE
    assert out.deviation_ratio < 0.5
    assert out.failure_time is None


def test_perturb_unstable_spiral():
    p = ModelParams(q=2.0, q1=1.0, tau0=1.0, c=1.0, c1=1.0)
    out = perturb_and_classify(SENTIMENT_3X3, p, SimConfig(horizon=50.0))
    assert out.verdict is EmpiricalVerdict.UNSTABLE
    assert out.growth_rate > 0.0
    # spiral growth: the deviation is not monotone on the way out
    d = np.linalg.norm(out.trajectory.states - equilibrium(SENTIMENT_3X3), axis=1)
    signs = np.sign(np.diff(d[d > 0]))
    assert (signs > 0).any() and (signs < 0).any()


def test_perturb_growth_rate_matches_dominant_eigenvalue():
    # real, well-separated spectrum: -0.515 and -3.885
    p = ModelParams(q=0.2, tau0=0.25, c=2.0)
    spec = eigenvalues(jacobian_analytic(LIQUIDITY_2X2, p))
    out = perturb_and_classify(LIQUIDITY_2X2, p, SimConfig(horizon=50.0))
    assert out.verdict is EmpiricalVerdict.STABLE
    rel = abs(out.growth_rate - spec[0].real) / abs(spec[0].real)
    assert rel <= 0.05


def test_perturb_floor_exit_is_unstable():
    p = ModelParams(q=2.0, q1=1.0, tau0=1.0, c=1.0, c1=1.0)
    out = perturb_and_classify(SENTIMENT_3X3, p,
                               SimConfig(horizon=500.0, perturbation=1e-2))
    assert out.verdict is EmpiricalVerdict.UNSTABLE
    assert out.failure_time is not None
    assert out.deviation_ratio == math.inf


def test_perturb_rejects_a_step_that_damps_a_decaying_mode_into_growth():
    # spectrum -1.059 and -9.441; h * -9.441 lies outside RK4's stability
    # region, so the run grew and came back "unstable" with rate +0.235
    p = ModelParams()
    with pytest.raises(ValueError, match=r"h=0\.3 .*lambda=-9\.44076"):
        perturb_and_classify(LIQUIDITY_2X2, p, SimConfig(step=0.3, horizon=30.0))
    out = perturb_and_classify(LIQUIDITY_2X2, p, SimConfig(step=0.15, horizon=30.0))
    assert out.verdict is EmpiricalVerdict.STABLE
    assert out.growth_rate == pytest.approx(-1.0598, abs=1e-4)


def test_perturb_rejects_a_step_that_damps_a_growing_mode():
    # spectrum 0.05 +- 0.9987i; |R(2 * lambda)| = 0.864, so the run decayed
    # and came back "stable" where exp(40 * 0.05) = 7.4 is not
    p = ModelParams(q=2.1, tau0=1.0, c=1.0)
    wrong = r"h=2 .*lambda=0\.05-0\.998749j.* stable over horizon 40, not indeterminate"
    with pytest.raises(ValueError, match=wrong):
        perturb_and_classify(LIQUIDITY_2X2, p, SimConfig(step=2.0, horizon=40.0))
    out = perturb_and_classify(LIQUIDITY_2X2, p, SimConfig(horizon=40.0))
    assert out.verdict is EmpiricalVerdict.UNSTABLE


def test_perturb_rejects_the_step_before_integrating(monkeypatch):
    # at horizon 10000 this run took seconds before the step was refused
    def no_run(*args):
        raise AssertionError("integrated before the step check")

    monkeypatch.setattr("cryptoflow.simulate.integrate", no_run)
    p = ModelParams(q=1.8095042184673926, tau0=0.02246597284103593, c=0.018166343100721585)
    with pytest.raises(ValueError, match=r"h=0\.0404042 gets the growth"):
        perturb_and_classify(LIQUIDITY_2X2, p,
                             SimConfig(step=0.04040419138104886, horizon=10000.0))


def test_step_check_skips_modes_in_the_dead_band():
    # spectrum (q - 2) / 2 +- i; at h = 2 RK4 damps it by 0.745 per step, so
    # over horizon 40 it reads "stable" where the flow reads "indeterminate"
    inside = ModelParams(q=2.0 + 1e-8, tau0=1.0, c=1.0)   # Re lambda 5e-9
    _check_step(LIQUIDITY_2X2, inside, 2.0, 40.0)
    outside = ModelParams(q=2.0 + 1e-6, tau0=1.0, c=1.0)  # Re lambda 5e-7
    with pytest.raises(ValueError, match="stable over horizon 40, not indeterminate"):
        _check_step(LIQUIDITY_2X2, outside, 2.0, 40.0)


def test_step_check_skips_a_non_finite_jacobian():
    # 1 / tau0 overflows to inf, so there is no spectrum to check against
    _check_step(LIQUIDITY_2X2, ModelParams(tau0=1e-310), 1.0, 50.0)


def test_default_step_passes_next_to_a_hopf_boundary():
    # Bisect q onto Re lambda = 1e-7, outside the dead band; there RK4's
    # damping at the default step outweighs the growth, |R(h lambda)| < 1,
    # yet the ratio over the horizon stays near 1 either way: indeterminate.
    base = ModelParams(q=1.7, q1=0.121, q2=2.65, tau0=0.273, c=0.254,
                       c1=0.956, c2=0.576, c3=0.807)

    def dominant(q):
        return eigenvalues(jacobian_stack(FULL_5X5, replace(base, q=q)))[0]

    lo, hi = 1.7, 1.75
    assert dominant(lo).real < 1e-7 < dominant(hi).real
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if dominant(mid).real < 1e-7 else (lo, mid)
    p = replace(base, q=hi)
    lam = dominant(hi)
    h = default_step(FULL_5X5, p)
    assert DEFAULT_EPS < lam.real < 2e-7 and abs(lam.imag) > 7.0
    assert abs(np.polyval(RK4_AMPLIFICATION, h * lam)) < 1.0
    out = perturb_and_classify(FULL_5X5, p, SimConfig(horizon=50.0))
    assert out.step == h
    assert out.verdict is EmpiricalVerdict.INDETERMINATE
    finer = perturb_and_classify(FULL_5X5, p, SimConfig(step=h / 4, horizon=50.0))
    assert out.deviation_ratio == pytest.approx(finer.deviation_ratio, rel=1e-3)


def test_step_check_holds_at_unequal_full_clocks():
    # the scope-free Jacobian: analyze refuses these clocks, simulate does not
    p = ModelParams(c=2.0, c1=0.5)
    out = perturb_and_classify(FULL_5X5, p, SimConfig(horizon=30.0))
    assert out.verdict is EmpiricalVerdict.STABLE
    with pytest.raises(ValueError, match="RK4 amplification"):
        perturb_and_classify(FULL_5X5, p, SimConfig(step=1.0, horizon=30.0))


_LOG_AMPLITUDE = (math.log10(0.05), math.log10(4.0))  # criterion 09's ranges
_LOG_CLOCK = (math.log10(0.25), math.log10(4.0))


@settings(max_examples=300, deadline=None)
@given(variant=st.sampled_from(VARIANTS),
       amplitudes=st.lists(st.floats(*_LOG_AMPLITUDE), min_size=3, max_size=3),
       clocks=st.lists(st.floats(*_LOG_CLOCK), min_size=5, max_size=5))
def test_default_steps_are_never_rejected(variant, amplitudes, clocks):
    q, q1, q2 = (10.0 ** x for x in amplitudes)
    tau0, c, c1, c2, c3 = (10.0 ** x for x in clocks)
    p = ModelParams(q=q, q1=q1, q2=q2, tau0=tau0, c=c, c1=c1, c2=c2, c3=c3)
    _check_step(variant, p, default_step(variant, p), 50.0)


def test_perturb_rejects_oversized_kick():
    with pytest.raises(ValueError):
        perturb_and_classify(LIQUIDITY_2X2, ModelParams(),
                             SimConfig(perturbation=0.5))


@pytest.mark.parametrize("kwargs", [
    {"step": math.inf},
    {"horizon": math.inf},
    {"step": 1e-300, "horizon": 1e300},
    {"horizon": 10**400},
    {"step": 10**5000},
])
def test_sim_config_rejects_non_finite_values(kwargs):
    with pytest.raises(ValueError, match="finite") as refusal:
        SimConfig(**kwargs)
    if kwargs == {"step": 10**5000}:  # too long for Python to write in decimal
        assert str(refusal.value) == "step must be finite, got an int of 5001 digits"


def test_integrate_rejects_non_finite_step_count_of_derived_step():
    # the derived step is 5e-302, so horizon / step overflows; nothing runs
    p = ModelParams(tau0=1e-300, c=1e-300)
    with pytest.raises(ValueError, match="not finite"):
        integrate(LIQUIDITY_2X2, p, np.array([1.0, 1.0]), SimConfig(horizon=1e300))


@pytest.mark.parametrize("delta", [0.0, -1e-4, 0.011, math.nan, math.inf])
def test_sim_config_owns_the_perturbation_check(delta):
    with pytest.raises(ValueError, match="perturbation must lie"):
        SimConfig(perturbation=delta)


@pytest.mark.parametrize("delta", [1e-300, 1e-17])
def test_sim_config_rejects_a_kick_that_leaves_p_at_equilibrium(delta):
    # 1.0 + delta rounds to 1.0, so the run would start at the equilibrium
    with pytest.raises(ValueError, match="too small to move P"):
        SimConfig(perturbation=delta)
    assert SimConfig(perturbation=1e-15).perturbation == 1e-15


@pytest.mark.parametrize("horizon,h,message", [
    (1e-12, 0.005, "holds no step"),      # below 1e-9 of the step: rounds to none
    (1e-300, 0.005, "holds no step"),
    (50.0, 1e-300, "exceeds"),            # 5e301 steps
])
def test_grid_rejects_a_step_count_outside_one_to_maxsize(horizon, h, message):
    with pytest.raises(ValueError, match=message):
        SimConfig(horizon=horizon).grid(h)


@pytest.mark.parametrize("h,message", [
    (-1.0, "step must be positive, got -1.0"),
    (0.0, "step must be positive, got 0.0"),  # a derived step that underflowed
    (10**400, "step must be finite, got 1" + "0" * 400),
], ids=["negative", "zero", "beyond_float"])
def test_grid_rejects_a_step_that_is_not_positive_and_finite(h, message):
    with pytest.raises(ValueError) as info:
        SimConfig().grid(h)
    assert str(info.value) == message


def test_grid_keeps_a_lone_partial_step():
    assert SimConfig(horizon=0.001).grid(0.005) == (0, 0.001)
    assert SimConfig(horizon=1e-8).grid(0.005) == (0, 1e-8)


# ------------------------------------------- float core against the reference

_SPECIAL = (5e-10, 1.5e-9, -0.0, 9.9e8, -9.9e8, 2e9)


@st.composite
def _params(draw):
    amplitude = st.floats(0.0, 3.0)
    time_scale = st.floats(0.05, 10.0)
    return ModelParams(q=draw(amplitude), q1=draw(amplitude), q2=draw(amplitude),
                       tau0=draw(time_scale), c=draw(time_scale), c1=draw(time_scale),
                       c2=draw(time_scale), c3=draw(time_scale))


@st.composite
def _states(draw, variant, special=_SPECIAL):
    eq = equilibrium(variant)
    return np.array([
        draw(st.one_of(st.floats(x - 0.5, x + 0.5), st.sampled_from(special)))
        for x in eq.tolist()
    ])


@st.composite
def _runs(draw):
    variant = draw(st.sampled_from(VARIANTS))
    params = draw(_params())
    initial = draw(_states(variant))
    explicit = draw(st.booleans())
    h = draw(st.floats(0.01, 0.5)) if explicit else default_step(variant, params)
    if draw(st.booleans()):
        horizon = h * draw(st.integers(1, 150))  # ends on (or next to) a full step
    else:
        horizon = h * draw(st.floats(1.0 if explicit else 0.5, 150.0))
    config = SimConfig(step=h if explicit else None, horizon=horizon)
    return variant, params, initial, config


@settings(max_examples=200, deadline=None)
@given(_runs())
def test_integrate_equals_reference_bitwise(run):
    variant, params, initial, config = run
    expected = _outcome(reference_integrate, variant, params, initial, config)
    # The reference lets a NaN state through; those runs are covered below.
    assume(expected[0] is not None or not np.isnan(np.frombuffer(expected[3])).any())
    event("completed" if expected[0] is None else expected[0].__name__)
    assert _outcome(integrate, variant, params, initial, config) == expected


GUARD_STOPS = [
    # a stage state leaves the guard at t = 24
    (LIQUIDITY_2X2, ModelParams(q=3.6, tau0=1.5, c=1.2), [0.885, 1.0], 0.1,
     BlowUp, "at t=24"),
    (FULL_5X5, ModelParams(q=2.9, q1=1.35, q2=1.3, tau0=1.4, c=1.25, c1=0.4, c2=1.4,
                           c3=0.56), [0.81, 1.0, 1.0, 0.0, 0.0], 0.01,
     BlowUp, "at t=0.55"),
    # the end-of-step guard trips at t = 1.6
    (FULL_5X5, ModelParams(q=0.96, q1=1.81, q2=0.24, tau0=1.96, c=0.4, c1=1.82, c2=1.44,
                           c3=2.51), [0.87, 1.0, 1.0, 0.0, 0.0], 0.2,
     BlowUp, "at t=1.6"),
    # a stage price falls below the floor
    (SENTIMENT_3X3, ModelParams(q=0.01, q1=1.7, tau0=1.5, c=0.5, c1=1.75),
     [0.95, 1.0, 0.0], 0.2, StateOutOfDomain, "P = -0.35371103388597264"),
    (FULL_5X5, ModelParams(q=0.41, q1=1.7, q2=1.53, tau0=0.73, c=1.14, c1=1.06, c2=1.41,
                           c3=7.99), [0.81, 1.0, 1.0, 0.0, 0.0], 0.1,
     StateOutOfDomain, "P = -0.18269496663864848"),
    (FULL_5X5, ModelParams(), [1.0, 5e-10, 1.0, 0.0, 0.0], 0.01,
     StateOutOfDomain, "Pa = 5e-10"),
]


@pytest.mark.parametrize(
    "variant,params,initial,step,error,message", GUARD_STOPS,
    ids=positional_ids(len(GUARD_STOPS), *(
        f"params{i}-initial{i}-{step}-{error.__name__}-{message}"
        for i, (_, _, _, step, error, message) in enumerate(GUARD_STOPS))))
def test_integrate_equals_reference_on_guard_stops(variant, params, initial, step, error,
                                                   message):
    # horizon 30.05 ends on a partial step
    initial = np.array(initial)
    config = SimConfig(step=step, horizon=30.05)
    expected = _outcome(reference_integrate, variant, params, initial, config)
    assert expected[0] is error and message in expected[1]
    assert _outcome(integrate, variant, params, initial, config) == expected


@pytest.mark.parametrize("variant", VARIANTS, ids=positional_ids(len(VARIANTS)))
def test_integrate_equals_reference_on_complete_runs(variant):
    params = ModelParams(q=0.3, q1=0.2, q2=0.4, tau0=0.5, c3=2.0)
    initial = equilibrium(variant)
    initial[0] += 0.05
    config = SimConfig(step=0.05, horizon=20.03)
    expected = _outcome(reference_integrate, variant, params, initial, config)
    assert expected[0] is None
    assert _outcome(integrate, variant, params, initial, config) == expected


def _rhs_outcome(fn, variant, params, state):
    """The NaN positions and every other byte of fn's result, or its error."""
    try:
        with np.errstate(all="ignore"):
            out = fn(variant, params, state)
    except StateOutOfDomain as exc:
        return type(exc), str(exc)
    nan = np.isnan(out)
    return out.dtype, out.shape, nan.tobytes(), np.where(nan, 0.0, out).tobytes()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_rhs_equals_reference_bitwise(data):
    variant = data.draw(st.sampled_from(VARIANTS))
    params = data.draw(_params())
    state = data.draw(_states(variant, _SPECIAL + (math.nan, math.inf, -math.inf)))
    assert _rhs_outcome(rhs, variant, params, state) == _rhs_outcome(
        reference_rhs, variant, params, state)


def test_rhs_equals_reference_up_to_the_sign_of_nan():
    # From its 8th call in a process, CPython's specializing interpreter runs
    # the closure's float operations inlined, and the NaN it returns for P'
    # and zeta1' here changes its sign bit.
    state = [1.0, 1.0, math.nan, math.inf, -math.inf]
    for _ in range(8):
        with np.errstate(all="ignore"):
            rhs(FULL_5X5, ModelParams(), state)
    assert _rhs_outcome(rhs, FULL_5X5, ModelParams(), state) == _rhs_outcome(
        reference_rhs, FULL_5X5, ModelParams(), state)


@pytest.mark.parametrize("variant", VARIANTS, ids=positional_ids(len(VARIANTS)))
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 2e9])
def test_non_finite_initial_component_blows_up_at_t0(variant, value):
    for k in range(variant.dim):
        initial = equilibrium(variant)
        initial[k] = value
        with pytest.raises(BlowUp) as err:
            integrate(variant, ModelParams(), initial, SimConfig(step=0.01, horizon=1.0))
        assert err.value.time == 0.0
        np.testing.assert_array_equal(err.value.partial.times, [0.0])
        np.testing.assert_array_equal(err.value.partial.states, [initial])


def test_csv_bytes_match_per_value_formatting():
    states = np.array([[1.0, -0.0, 0.1 + 0.2], [math.nan, math.inf, -math.inf],
                       [5e-324, 1e300, -1.0 / 3.0]])
    traj = Trajectory(SENTIMENT_3X3, np.array([0.0, 0.05, 1.0 / 7.0]), states)
    expected = "t,P,L,zeta1\n" + "".join(
        f"{t:.17g}," + ",".join(f"{x:.17g}" for x in row) + "\n"
        for t, row in zip(traj.times, traj.states))
    assert traj.to_csv() == expected
