"""Fixed-step integration of the nonlinear model and empirical classification.

The integrator is classical fourth-order Runge--Kutta with a fixed step tied
to the fastest time scale of the variant.  Trajectories that leave the price
domain or trip the blow-up guard abort cleanly, carrying the failure time and
the partial trajectory on the exception.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import BlowUp, StateOutOfDomain
from .model import (
    TIME_SCALES,
    ModelParams,
    ModelVariant,
    _derivative,
    equilibrium,
    ignored_fields,
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
    variant reads, divided by 20.  perturbation is the kick applied to P by
    :func:`perturb_and_classify`.
    """

    step: float | None = None
    horizon: float = 50.0
    perturbation: float = 1e-4
    record_every: int = 1

    def __post_init__(self):
        if self.step is not None and not self.step > 0.0:
            raise ValueError(f"step must be positive, got {self.step}")
        if self.step is not None and not math.isfinite(self.step):
            raise ValueError(f"step must be finite, got {self.step}")
        if not self.horizon > 0.0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if not math.isfinite(self.horizon):
            raise ValueError(f"horizon must be finite, got {self.horizon}")
        if self.step is not None and self.step > self.horizon:
            raise ValueError(
                f"step {self.step} must not exceed horizon {self.horizon}"
            )
        if self.step is not None:
            self.grid(self.step)
        if not 0.0 < self.perturbation <= DELTA_MAX:
            raise ValueError(
                f"perturbation must lie in (0, {DELTA_MAX}], got {self.perturbation}"
            )
        if 1.0 + self.perturbation == 1.0:  # every equilibrium price is 1
            raise ValueError(
                f"perturbation {self.perturbation} is too small to move P off 1.0"
            )
        if self.record_every < 1:
            raise ValueError(f"record_every must be >= 1, got {self.record_every}")

    def grid(self, h: float) -> tuple[int, float]:
        """Full steps of size h within the horizon, and the last partial step.

        The partial step is 0.0 when the full steps end on the horizon.

        Raises:
            ValueError: the step count horizon / h is not finite or exceeds
                sys.maxsize, or the horizon holds no step at all.
        """
        count = self.horizon / h
        if not math.isfinite(count):
            raise ValueError(
                f"step count horizon / step = {self.horizon} / {h} is not finite"
            )
        if count > sys.maxsize:
            raise ValueError(
                f"step count horizon / step = {self.horizon} / {h} exceeds {sys.maxsize}"
            )
        n_full = int(math.floor(count + 1e-9))
        last_partial = self.horizon - n_full * h
        if last_partial < 1e-9 * h:
            last_partial = 0.0
        if n_full == 0 and last_partial == 0.0:
            raise ValueError(f"horizon {self.horizon} holds no step of size {h}")
        return n_full, last_partial


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
        row_format = ",".join(["%.17g"] * (1 + len(self.variant.labels)))
        # One row at a time, so no whole-array list of floats is held.
        for t, row in zip(self.times.tolist(), self.states):
            lines.append(row_format % (t, *row.tolist()))
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


def _beyond_guard(state) -> bool:
    """A component is NaN or exceeds the blow-up guard in magnitude."""
    for x in state:
        if not abs(x) <= BLOWUP_GUARD:
            return True
    return False


def integrate(
    variant: ModelVariant,
    params: ModelParams,
    initial: np.ndarray,
    config: SimConfig = SimConfig(),
) -> Trajectory:
    """Integrate the nonlinear system from ``initial`` over the horizon.

    The parameters and the initial shape are checked once; each RK4 stage
    then works on plain floats through the variant's derivative
    (``model._derivative``).  The result equals, bit for bit, that of the
    same RK4 written on numpy arrays around :func:`model.rhs`.

    Raises:
        BlowUp: a component exceeded the guard in magnitude, or is NaN;
            carries the time and the partial run.
        StateOutOfDomain: a stage state fell below the price floor; same.
        ValueError: the initial state has the wrong shape, or the step
            count horizon / step is not finite.
    """
    validate_params(params, variant)
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

    # Row 0 is the initial state; then every record_every-th step and the last.
    rows = total_steps // config.record_every + 2
    times = np.empty(rows)
    states = np.empty((rows, variant.dim))
    times[0] = 0.0
    states[0] = initial
    recorded = 1

    def partial_trajectory() -> Trajectory:
        return Trajectory(
            variant=variant,
            params=params,
            times=times[:recorded].copy(),
            states=states[:recorded].copy(),
        )

    def blow_up(t: float) -> BlowUp:
        return BlowUp(
            f"component magnitude exceeded {BLOWUP_GUARD:.0e} at t={t:.6g}",
            time=t,
            partial=partial_trajectory(),
        )

    def guarded_derivative(stage: list[float], t: float) -> tuple[float, ...]:
        if _beyond_guard(stage):
            raise blow_up(t)
        try:
            return derivative(stage)
        except StateOutOfDomain as exc:
            raise StateOutOfDomain(str(exc), time=t, partial=partial_trajectory()) from None

    state = initial.tolist()
    for i in range(total_steps):
        t = i * h
        hi = h if i < n_full else last_partial
        half = 0.5 * hi
        k1 = guarded_derivative(state, t)
        k2 = guarded_derivative([x + half * k for x, k in zip(state, k1)], t)
        k3 = guarded_derivative([x + half * k for x, k in zip(state, k2)], t)
        k4 = guarded_derivative([x + hi * k for x, k in zip(state, k3)], t)
        sixth = hi / 6.0
        state = [x + sixth * (a + 2.0 * b + 2.0 * c + d)
                 for x, a, b, c, d in zip(state, k1, k2, k3, k4)]
        t_next = (i + 1) * h if i < n_full else horizon
        if _beyond_guard(state):
            raise blow_up(t_next)
        if (i + 1) % config.record_every == 0 or i == total_steps - 1:
            times[recorded] = t_next
            states[recorded] = state
            recorded += 1
    return Trajectory(variant=variant, params=params,
                      times=times[:recorded], states=states[:recorded])


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
    reference = equilibrium(variant)
    initial = reference.copy()
    initial[0] += config.perturbation

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
