"""Fixed-step integration of the nonlinear model and empirical classification.

The integrator is classical fourth-order Runge--Kutta with a fixed step tied
to the fastest time scale of the variant.  Trajectories that leave the price
domain or trip the blow-up guard abort cleanly, carrying the failure time and
the partial trajectory on the exception.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TextIO

import numpy as np

from .errors import BlowUp, StateOutOfDomain
from .inputs import (
    CSV_ROWS_PER_WRITE,
    DEFAULT_EPS,
    ModelParams,
    Variant,
    SimConfig,
    default_step,
    validate_params,
    write_csv,
)
from .model import _derivative, equilibrium
from .stability import STABLE, UNSTABLE, jacobian_stack, ordered_spectra, verdict_codes

BLOWUP_GUARD = 1e9

# Growth-rate fit guards: deviations below the roundoff floor carry no decay
# information, and deviations above the small-signal cap are outside the
# linear regime the rate refers to.
RATE_FLOOR = 1e-13
SMALL_SIGNAL_CAP = 1e-2

# RK4 multiplies a linear mode e^(lambda t) by R(h lambda) per step, with
# R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 (coefficients leading-first).
RK4_AMPLIFICATION = (1.0 / 24.0, 1.0 / 6.0, 0.5, 1.0, 1.0)


@dataclass(frozen=True)
class Trajectory:
    """Recorded integration output on a uniform (plus final) time grid.

    Row k of ``states`` is the state at ``times[k]``; row 0 is the initial
    state.  The parameters are the caller's; the trajectory does not keep them.
    """

    variant: Variant
    times: np.ndarray
    states: np.ndarray

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def to_csv(self, stream: TextIO | None = None) -> str | None:
        """``write_csv``'s CSV of a time column and one column per state label:
        to ``stream``, at most CSV_ROWS_PER_WRITE rows per write, returning
        None; else the text."""
        rows = CSV_ROWS_PER_WRITE
        return write_csv("t," + ",".join(self.variant.labels), (
            zip(self.times[i:i + rows].tolist(), *self.states[i:i + rows].T.tolist())
            for i in range(0, len(self.times), rows)), stream)


class EmpiricalVerdict(str, Enum):
    STABLE = "stable"
    UNSTABLE = "unstable"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class PerturbationOutcome:
    """Result of integrating a small kick off equilibrium with RK4 step ``step``."""

    verdict: EmpiricalVerdict
    growth_rate: float
    deviation_ratio: float
    failure_time: float | None
    trajectory: Trajectory
    step: float


def _ratio_verdict(ratio: float) -> EmpiricalVerdict:
    """Stable below 0.5, unstable above 10, indeterminate between (and NaN)."""
    if ratio < 0.5:
        return EmpiricalVerdict.STABLE
    if ratio > 10.0:
        return EmpiricalVerdict.UNSTABLE
    return EmpiricalVerdict.INDETERMINATE


def _within_guard(state: list[float], t: float) -> list[float]:
    """The state itself, or BlowUp at time t if a component is NaN or exceeds the guard."""
    for x in state:
        if not abs(x) <= BLOWUP_GUARD:
            raise BlowUp(f"component magnitude exceeded {BLOWUP_GUARD:.0e} at t={t:.6g}")
    return state


def integrate(
    variant: Variant,
    params: ModelParams,
    initial: np.ndarray,
    config: SimConfig = SimConfig(),
) -> Trajectory:
    """Integrate the nonlinear system from ``initial`` over the horizon.

    The parameters and the initial shape are checked once; each RK4 stage
    then works on plain floats through the variant's derivative
    (``model._derivative``), and the guard checks the initial state, every
    stage's state and every step's result, each once.  The derivative's
    price-floor check reaches every state, the last one included.  The
    result equals, bit for bit, that of the same RK4 written on numpy arrays
    around :func:`model.rhs`.

    Raises:
        BlowUp: a component exceeded the guard in magnitude, or is NaN;
            carries the time (the stage's time, or the step's end time when
            the step's result is past the guard) and the partial run.
        StateOutOfDomain: a stage state, or the last state, fell below the
            price floor; carries the stage's time (the horizon's for the last
            state) and the partial run.
        ValueError: the initial state has the wrong shape, or the step
            count horizon / step is not finite.
    """
    validate_params(params)
    initial = np.asarray(initial, dtype=float)
    if initial.shape != (variant.dim,):
        raise ValueError(
            f"initial state must have shape ({variant.dim},), got {initial.shape}"
        )
    h = config.step if config.step is not None else default_step(variant, params)
    horizon = config.horizon
    n_full, last_partial = config.grid(h)
    total_steps = n_full + (1 if last_partial else 0)
    derivative = _derivative(variant, params)

    # Row 0 is the initial state, row k the state after k steps.
    # Allocated whole before the first step, so a run too long for memory fails at once.
    times = np.empty(total_steps + 1)
    states = np.empty((total_steps + 1, variant.dim))
    times[0] = 0.0
    states[0] = initial

    # A stop at the initial state records row 0 at t = 0.0, a float as i * h is.
    state, t, i = initial.tolist(), 0.0, 0
    try:
        _within_guard(state, t)
        for i in range(total_steps):
            t = i * h
            hi = h if i < n_full else last_partial
            half = 0.5 * hi
            k1 = derivative(state)
            k2 = derivative(_within_guard([x + half * k for x, k in zip(state, k1)], t))
            k3 = derivative(_within_guard([x + half * k for x, k in zip(state, k2)], t))
            k4 = derivative(_within_guard([x + hi * k for x, k in zip(state, k3)], t))
            sixth = hi / 6.0
            t = (i + 1) * h if i < n_full else horizon
            state = _within_guard([x + sixth * (a + 2.0 * b + 2.0 * c + d)
                                   for x, a, b, c, d in zip(state, k1, k2, k3, k4)], t)
            times[i + 1] = t
            states[i + 1] = state
        # The last state gets the floor check the next step's k1 would make.
        i = total_steps
        derivative(state)
    except (BlowUp, StateOutOfDomain) as exc:
        # The run stopped within step i, or at the last state (i = total_steps),
        # so rows 0..i are recorded.
        exc.time = t
        exc.partial = Trajectory(variant=variant, times=times[:i + 1].copy(),
                                 states=states[:i + 1].copy())
        raise
    return Trajectory(variant=variant, times=times, states=states)


def _fit_growth_rate(traj: Trajectory, reference: np.ndarray, truncated: bool) -> float:
    """Least-squares slope of the log deviation norm.

    Completed runs fit over the final half of the horizon, dropping samples
    at the roundoff floor.  Truncated runs (guard tripped) fit over the
    final half of the small-signal span instead, because everything past it
    measures the blow-out, not the linear rate.
    """
    deviations = np.linalg.norm(traj.states - reference, axis=1)
    if truncated:
        below = np.nonzero(deviations <= SMALL_SIGNAL_CAP)[0]
        if len(below) == 0:
            return float("nan")
        t_end = traj.times[below[-1]]
        mask = (traj.times >= 0.5 * t_end) & (deviations <= SMALL_SIGNAL_CAP)
    else:
        mask = traj.times >= 0.5 * traj.times[-1]
    mask &= deviations > RATE_FLOOR
    times = traj.times[mask]
    with np.errstate(all="ignore"):
        # polyfit divides t by this scale, which must be finite and nonzero
        scale = np.sqrt(np.sum(times * times))
        if len(times) < 2 or not np.isfinite([scale, 1.0 / scale]).all():
            return float("nan")
    return float(np.polyfit(times, np.log(deviations[mask]), 1)[0])


def _check_step(variant: Variant, params: ModelParams, h: float,
                horizon: float) -> None:
    """Reject a step at which RK4 gets the growth of a linear mode wrong.

    Over one step RK4 multiplies an equilibrium mode lambda by R(h lambda)
    where the flow multiplies it by exp(h lambda).  The step is rejected when
    RK4 turns decay into growth or growth into decay (|R| >= 1 on a stable
    mode, |R| <= 1 on an unstable one, as ``verdict_codes`` of -Re lambda
    with DEFAULT_EPS decides) and the mode's own ratio over the horizon,
    exp(horizon Re lambda) against |R|^(horizon / h), falls in a different
    verdict.  So a mode next to a Hopf boundary, where RK4's damping flips
    the sign of a tiny growth rate yet both ratios stay near 1, passes.  A
    spectrum that is not finite or not computed skips the check.  The
    Jacobian is ``stability.jacobian_stack``, the exact derivative of the
    equations integrated here, which holds at unequal clocks.

    Raises:
        ValueError: the step gets some mode's growth wrong; the message
            names h and lambda.
    """
    lam = ordered_spectra(jacobian_stack(variant, params)[None])[0]
    if not np.isfinite(lam).all():
        return
    with np.errstate(all="ignore"):
        gain = np.abs(np.polyval(RK4_AMPLIFICATION, h * lam))
        gain[np.isnan(gain)] = np.inf  # h * lambda overflowed
        exact = np.exp(horizon * lam.real)
        stepped = gain ** (horizon / h)
    sides = verdict_codes(-lam.real, DEFAULT_EPS)
    for i, mode in enumerate(lam):
        flipped = ((sides[i] == STABLE and gain[i] >= 1.0)
                   or (sides[i] == UNSTABLE and gain[i] <= 1.0))
        if flipped and _ratio_verdict(exact[i]) is not _ratio_verdict(stepped[i]):
            raise ValueError(
                f"step h={h:g} gets the growth of the mode lambda={mode:.6g} wrong: "
                f"RK4 amplification |R(h*lambda)| = {gain[i]:.6g} makes it "
                f"{_ratio_verdict(stepped[i]).value} over horizon {horizon:g}, "
                f"not {_ratio_verdict(exact[i]).value}; use a smaller step"
            )


def perturb_and_classify(
    variant: Variant,
    params: ModelParams,
    config: SimConfig = SimConfig(),
) -> PerturbationOutcome:
    """Kick P off equilibrium by the configured perturbation and classify.

    Verdict from the end-to-start deviation ratio: stable below 0.5,
    unstable above 10, indeterminate between.  Runs that abort on the
    blow-up guard or the price floor are unstable by construction (the
    deviation has left the linear neighbourhood entirely) and report the
    failure time.  The parameters and the step (its count over the horizon,
    then :func:`_check_step`) are checked before anything is integrated.
    """
    validate_params(params)
    h = config.step if config.step is not None else default_step(variant, params)
    config.grid(h)
    _check_step(variant, params, h, config.horizon)
    reference = equilibrium(variant)
    initial = reference.copy()
    initial[0] += config.perturbation

    try:
        traj = integrate(variant, params, initial, config)
    except (BlowUp, StateOutOfDomain) as exc:
        traj, failure_time = exc.partial, exc.time
        verdict, ratio = EmpiricalVerdict.UNSTABLE, float("inf")
    else:
        failure_time = None
        d0 = float(np.linalg.norm(traj.states[0] - reference))
        ratio = float(np.linalg.norm(traj.final_state - reference)) / d0
        verdict = _ratio_verdict(ratio)
    return PerturbationOutcome(
        verdict=verdict,
        growth_rate=_fit_growth_rate(traj, reference, truncated=failure_time is not None),
        deviation_ratio=ratio,
        failure_time=failure_time,
        trajectory=traj,
        step=h,
    )
