"""Fixed-step integration of the nonlinear model and empirical classification.

The integrator is classical fourth-order Runge--Kutta with a fixed step tied
to the fastest time scale of the variant.  Trajectories that leave the price
domain or trip the blow-up guard abort cleanly, carrying the failure time and
the partial trajectory on the exception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import BlowUp, StateOutOfDomain
from .model import (
    TIME_SCALES,
    ModelParams,
    ModelVariant,
    equilibrium,
    ignored_fields,
    rhs,
    validate_params,
)

BLOWUP_GUARD = 1e9
DELTA_MAX = 1e-2

# Growth-rate fit guards: deviations below the roundoff floor carry no decay
# information, and deviations above the small-signal cap are outside the
# linear regime the rate refers to.
RATE_FLOOR = 1e-13
SMALL_SIGNAL_CAP = 1e-2


@dataclass(frozen=True)
class SimConfig:
    """Integration controls.

    step None means "derive from the parameters": the fastest time scale the
    variant reads, divided by 20.
    """

    step: float | None = None
    horizon: float = 50.0
    perturbation: float = 1e-4
    record_every: int = 1

    def __post_init__(self):
        if self.step is not None and not self.step > 0.0:
            raise ValueError(f"step must be positive, got {self.step}")
        if not self.horizon > 0.0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.step is not None and self.step > self.horizon:
            raise ValueError(
                f"step {self.step} must not exceed horizon {self.horizon}"
            )
        if self.record_every < 1:
            raise ValueError(f"record_every must be >= 1, got {self.record_every}")


@dataclass(frozen=True)
class Trajectory:
    """Recorded integration output on a uniform (plus final) time grid."""

    variant: ModelVariant
    params: ModelParams
    times: np.ndarray
    states: np.ndarray

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def to_csv(self) -> str:
        """CSV with a time column and one column per state label."""
        lines = ["t," + ",".join(self.variant.labels)]
        for t, row in zip(self.times, self.states):
            lines.append(f"{t:.17g}," + ",".join(f"{x:.17g}" for x in row))
        return "\n".join(lines) + "\n"


class EmpiricalVerdict(str, Enum):
    STABLE = "stable"
    UNSTABLE = "unstable"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class PerturbationOutcome:
    """Result of integrating a small kick off equilibrium."""

    verdict: EmpiricalVerdict
    growth_rate: float
    deviation_ratio: float
    failure_time: float | None
    trajectory: Trajectory


def default_step(variant: ModelVariant, params: ModelParams) -> float:
    """Fastest time scale the variant reads, divided by 20."""
    scales = set(TIME_SCALES) - ignored_fields(variant)
    return min(getattr(params, name) for name in scales) / 20.0


def integrate(
    variant: ModelVariant,
    params: ModelParams,
    initial: np.ndarray,
    config: SimConfig = SimConfig(),
) -> Trajectory:
    """Integrate the nonlinear system from ``initial`` over the horizon.

    Raises:
        BlowUp: a component exceeded the guard; carries time and partial run.
        StateOutOfDomain: a stage state fell below the price floor; same.
    """
    validate_params(params, variant)
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

    def partial_trajectory() -> Trajectory:
        return Trajectory(
            variant=variant,
            params=params,
            times=np.array(times),
            states=np.array(recorded),
        )

    def guarded_rhs(state: np.ndarray, t: float) -> np.ndarray:
        if np.max(np.abs(state)) > BLOWUP_GUARD:
            raise BlowUp(
                f"component magnitude exceeded {BLOWUP_GUARD:.0e} at t={t:.6g}",
                time=t,
                partial=partial_trajectory(),
            )
        try:
            return rhs(variant, params, state)
        except StateOutOfDomain as exc:
            raise StateOutOfDomain(str(exc), time=t, partial=partial_trajectory()) from None

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
            raise BlowUp(
                f"component magnitude exceeded {BLOWUP_GUARD:.0e} at t={t_next:.6g}",
                time=t_next,
                partial=partial_trajectory(),
            )
        if (i + 1) % config.record_every == 0 or i == total_steps - 1:
            times.append(t_next)
            recorded.append(state.copy())
    return partial_trajectory()


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
    if int(np.sum(mask)) < 2:
        return float("nan")
    slope = np.polyfit(traj.times[mask], np.log(deviations[mask]), 1)[0]
    return float(slope)


def perturb_and_classify(
    variant: ModelVariant,
    params: ModelParams,
    config: SimConfig = SimConfig(),
) -> PerturbationOutcome:
    """Kick P off equilibrium by the configured perturbation and classify.

    Verdict from the end-to-start deviation ratio: stable below 0.5,
    unstable above 10, indeterminate between.  Runs that abort on the
    blow-up guard or the price floor are unstable by construction (the
    deviation has left the linear neighbourhood entirely) and report the
    failure time.
    """
    delta = config.perturbation
    if not 0.0 < delta <= DELTA_MAX:
        raise ValueError(f"perturbation must lie in (0, {DELTA_MAX}], got {delta}")
    reference = equilibrium(variant)
    initial = reference.copy()
    initial[0] += delta

    try:
        traj = integrate(variant, params, initial, config)
    except (BlowUp, StateOutOfDomain) as exc:
        traj = exc.partial
        return PerturbationOutcome(
            verdict=EmpiricalVerdict.UNSTABLE,
            growth_rate=_fit_growth_rate(traj, reference, truncated=True),
            deviation_ratio=float("inf"),
            failure_time=exc.time,
            trajectory=traj,
        )

    d0 = float(np.linalg.norm(traj.states[0] - reference))
    d_end = float(np.linalg.norm(traj.final_state - reference))
    ratio = d_end / d0
    if ratio < 0.5:
        verdict = EmpiricalVerdict.STABLE
    elif ratio > 10.0:
        verdict = EmpiricalVerdict.UNSTABLE
    else:
        verdict = EmpiricalVerdict.INDETERMINATE
    return PerturbationOutcome(
        verdict=verdict,
        growth_rate=_fit_growth_rate(traj, reference, truncated=False),
        deviation_ratio=ratio,
        failure_time=None,
        trajectory=traj,
    )
