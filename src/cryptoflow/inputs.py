"""The values a run is built from, and every check on them, without numpy.

Model variants and their names (``FULL_5X5``, ``SENTIMENT_3X3``,
``LIQUIDITY_2X2``), parameters and the rules on them, integration controls
and the derived step, sweep axes, specs and export formats, baseline
parameters, the checks of counts, positive quantities, dead bands and the
verify options, and the SOURCE_DATE_EPOCH timestamp all live here, and this
module imports neither numpy nor scipy.  So the command line builds and
checks a whole invocation before any numeric module loads: a rejected
invocation, --help and --version never load them.

Each check is spelled once: :func:`finite` is the finiteness test, which an
int beyond the float range fails, and :func:`equal_rule` builds every scope
rule "these fields are equal" (c = c1 = c2, q2 = 0, unit clocks).  Each
parameter rule is written once for a point and for a batch: a rule's test
answers with a bool for float fields and with a bool array for array fields.
:func:`check_rules` reads the point answer and :func:`rule_errors` the batch
answer; numpy loads only when a batch is checked.
"""

from __future__ import annotations

import math
import numbers
import operator
import os
import sys
from dataclasses import dataclass, fields
from enum import Enum
from functools import reduce
from typing import TYPE_CHECKING, Callable, Mapping

from .errors import (
    CryptoflowError,
    NegativeAmplitude,
    NonFiniteParameter,
    NonPositiveTimeScale,
)

if TYPE_CHECKING:
    import numpy as np

DEFAULT_EPS = 1e-8
DEFAULT_BAND = 1e-6
DELTA_MAX = 1e-2


def finite(value):
    """Within the float range: False for NaN, +-inf and a larger int; elementwise."""
    return abs(value) <= sys.float_info.max


def shown(value) -> str:
    """A value as a refusal prints it: as ``format`` writes it, but an int too
    long for Python to write in decimal (``sys.set_int_max_str_digits``) by
    its sign and number of digits."""
    try:
        return format(value)
    except ValueError:
        size = abs(value)
        digits = int(math.log10(size)) + 1  # log10 rounds, so settle the count
        digits += (size >= 10**digits) - (size < 10 ** (digits - 1))
        return f"{'a negative' if value < 0 else 'an'} int of {digits} digits"


def check_count(name: str, value: int, least: int) -> int:
    """A count (a lattice size, a sample count, a seed) is an integer >= least;
    a numpy integer is one, a bool is not.  Returns it as a Python int, which
    JSON can write."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {shown(value)}")
    return int(value)


def check_positive(name: str, value: float) -> None:
    """A run quantity (a step, a horizon, a price, a drop) is positive and finite."""
    if not value > 0.0:
        raise ValueError(f"{name} must be positive, got {shown(value)}")
    if not finite(value):
        raise ValueError(f"{name} must be finite, got {shown(value)}")


def check_dead_band(name: str, value: float) -> None:
    """A dead band (``eps`` or ``band``) is nonnegative and finite."""
    if not value >= 0.0:
        raise ValueError(f"{name} must be >= 0, got {shown(value)}")
    if not finite(value):
        raise ValueError(f"{name} must be finite, got {shown(value)}")


# The parameter fields each state's equation reads (see ``model``).
_STATE_FIELDS = {
    "P": ("tau0",),
    "Pa": ("c3",),
    "L": ("q", "c"),
    "zeta1": ("q1", "c1"),
    "zeta2": ("q2", "c2"),
}


class Variant(str, Enum):
    """A model variant: which states are dynamic (``labels``, in storage order).

    The smaller variants are restrictions of the full variant: their
    equations are the full ones on their own states with the dropped
    sentiments at 0, and the fields a variant reads are those its states'
    equations read.
    """

    FULL_5X5 = "full5x5", ("P", "Pa", "L", "zeta1", "zeta2")
    SENTIMENT_3X3 = "sentiment3x3", ("P", "L", "zeta1")
    LIQUIDITY_2X2 = "liquidity2x2", ("P", "L")

    def __new__(cls, value: str, labels: tuple[str, ...]):
        member = str.__new__(cls, value)
        member._value_ = value
        member.labels = labels
        return member

    @property
    def dim(self) -> int:
        return len(self.labels)

    @property
    def tied_clocks(self) -> tuple[str, ...]:
        """Time scales that move together with c, c included.

        These clocks decide the scopes of the closed forms criterion_3x3
        (c = c1), rh_5x5 and criterion_5x5_q2zero (c = c1 = c2), and the
        full variant's Jacobian refusal at unequal c, c1, c2, so sweeps and
        verify samples move them together.  The Jacobian itself holds at any
        clocks (see ``stability.JACOBIAN_RULES``).
        """
        return tuple(name for name in ("c", "c1", "c2")
                     if name not in ignored_fields(self))


FULL_5X5 = Variant.FULL_5X5
SENTIMENT_3X3 = Variant.SENTIMENT_3X3
LIQUIDITY_2X2 = Variant.LIQUIDITY_2X2


@dataclass(frozen=True)
class ModelParams:
    """Model parameters: reaction amplitudes and time scales.

    q, q1, q2 are the liquidity, trend and value reaction amplitudes;
    tau0, c, c1, c2, c3 are the price, liquidity, trend, value and anchor
    time scales.  Defaults match the command-line defaults.  A batch of
    points holds arrays of one length in place of floats (a float field
    holds for every point); the formulas that read params accept both.
    """

    q: float = 0.5
    q1: float = 0.5
    q2: float = 0.5
    tau0: float = 0.1
    c: float = 1.0
    c1: float = 1.0
    c2: float = 1.0
    c3: float = 10.0

    @property
    def K(self) -> float:
        """Combined feedback strength q + 2*q1."""
        return self.q + 2.0 * self.q1

    @property
    def Q(self) -> float:
        """Stability surplus 1 - K."""
        return 1.0 - self.K


PARAM_FIELDS = tuple(f.name for f in fields(ModelParams))
AMPLITUDES = ("q", "q1", "q2")
TIME_SCALES = ("tau0", "c", "c1", "c2", "c3")


@dataclass(frozen=True)
class Rule:
    """A condition on the parameters and the error that reports a breach.

    ``holds`` answers for one point (a bool) or for a batch (a bool array).
    ``message`` is a ``str.format`` template over the field names, which
    :func:`check_rules` fills with the point's values as :func:`shown` writes them.
    """

    error: type[CryptoflowError]
    holds: Callable[[ModelParams], bool | np.ndarray]
    message: str


def check_rules(rules, params: ModelParams) -> None:
    """Raise the error of the first rule the point breaks."""
    for rule in rules:
        if not rule.holds(params):
            raise rule.error(rule.message.format(
                **{name: shown(getattr(params, name)) for name in PARAM_FIELDS}))


def rule_errors(rules, params: ModelParams) -> np.ndarray:
    """Per point of a batch, the error class of the first rule it breaks.

    Returns an object array with None where every rule holds.
    """
    import numpy as np

    errors = np.full(len(params.q), None, dtype=object)
    unbroken = np.ones(len(errors), dtype=bool)
    for rule in rules:
        broken = unbroken & ~rule.holds(params)
        errors[broken] = rule.error
        unbroken &= ~broken
    return errors


def _field_rules(error, names, test, requirement) -> tuple[Rule, ...]:
    return tuple(
        Rule(error, lambda p, name=name: test(getattr(p, name)),
             f"{name} {requirement}, got {{{name}}}")
        for name in names
    )


def equal_rule(error, names, lead, value=None) -> Rule:
    """The rule that the named fields are equal, and equal ``value`` when it
    is given; its message reads "{lead} c = c1 = c2, got c=..., c1=..., c2=..."."""
    pinned = () if value is None else (value,)

    def holds(p):
        sides = [*(getattr(p, name) for name in names), *pinned]
        return reduce(operator.and_, (a == b for a, b in zip(sides, sides[1:])))

    return Rule(error, holds, f"{lead} {' = '.join(map(str, (*names, *pinned)))}, got "
                + ", ".join(f"{name}={{{name}}}" for name in names))


# Checked in this order; the first broken rule names the error.
PARAM_RULES = (
    *_field_rules(NonFiniteParameter, PARAM_FIELDS, finite, "must be finite"),
    *_field_rules(NonPositiveTimeScale, TIME_SCALES, lambda v: v > 0.0,
                  "must be positive"),
    *_field_rules(NegativeAmplitude, AMPLITUDES, lambda v: v >= 0.0,
                  "must be nonnegative"),
)


def ignored_fields(variant: Variant) -> frozenset[str]:
    """Parameter fields the given variant does not read."""
    return frozenset(PARAM_FIELDS).difference(
        *(_STATE_FIELDS[label] for label in variant.labels))


def validate_params(params: ModelParams) -> ModelParams:
    """Check parameter constraints and return the params unchanged.

    All fields are validated, whichever variant reads them; use
    :func:`ignored_fields` to see the fields a variant ignores.  The same rules
    (``PARAM_RULES``) mark the invalid points of a batch.

    Raises:
        NonFiniteParameter: a field is NaN or infinite (checked first).
        NonPositiveTimeScale: a time scale is zero or negative.
        NegativeAmplitude: a reaction amplitude is negative.
    """
    check_rules(PARAM_RULES, params)
    return params


def default_step(variant: Variant, params: ModelParams) -> float:
    """Fastest time scale the variant reads, divided by 20."""
    scales = set(TIME_SCALES) - ignored_fields(variant)
    return min(getattr(params, name) for name in scales) / 20.0


@dataclass(frozen=True)
class SimConfig:
    """Integration controls.

    step None means "derive from the parameters" (:func:`default_step`).
    perturbation is the kick applied to P by :func:`simulate.perturb_and_classify`.
    """

    step: float | None = None
    horizon: float = 50.0
    perturbation: float = 1e-4

    def __post_init__(self):
        if self.step is not None:
            check_positive("step", self.step)
        check_positive("horizon", self.horizon)
        if self.step is not None and self.step > self.horizon:
            raise ValueError(
                f"step {shown(self.step)} must not exceed horizon {shown(self.horizon)}"
            )
        if self.step is not None:
            self.grid(self.step)
        if not 0.0 < self.perturbation <= DELTA_MAX:
            raise ValueError(
                f"perturbation must lie in (0, {DELTA_MAX}], got {shown(self.perturbation)}"
            )
        if 1.0 + self.perturbation == 1.0:  # every equilibrium price is 1
            raise ValueError(
                f"perturbation {shown(self.perturbation)} is too small to move P off 1.0"
            )

    def grid(self, h: float) -> tuple[int, float]:
        """Full steps of size h within the horizon, and the last partial step.

        The partial step is 0.0 when the full steps end on the horizon.

        Raises:
            ValueError: the step count horizon / h is not finite or exceeds
                sys.maxsize, or the horizon holds no step at all.
        """
        count = self.horizon / h
        if not finite(count):
            raise ValueError(
                f"step count horizon / step = {shown(self.horizon)} / {shown(h)} "
                "is not finite"
            )
        if count > sys.maxsize:
            raise ValueError(
                f"step count horizon / step = {shown(self.horizon)} / {shown(h)} "
                f"exceeds {sys.maxsize}"
            )
        n_full = int(math.floor(count + 1e-9))
        last_partial = self.horizon - n_full * h
        if last_partial < 1e-9 * h:
            last_partial = 0.0
        if n_full == 0 and last_partial == 0.0:
            raise ValueError(
                f"horizon {shown(self.horizon)} holds no step of size {shown(h)}")
        return n_full, last_partial


AXIS_NAMES = ("q", "q1", "q2", "K", "tau0", "c3", "c_over_tau0")
# The field each derived axis holds at its fixed value.
_HELD = {"K": "q1", "c_over_tau0": "tau0"}
# Sweep export formats, each written by ``StabilityMap.to_{format}``.
FORMATS = ("csv", "json", "svg")


class Method(str, Enum):
    EIGEN = "eigen"
    CLOSED_FORM = "closed_form"


@dataclass(frozen=True)
class Axis:
    """An inclusive lattice over one swept quantity.

    Besides raw parameter fields, two derived axes are supported: K sweeps
    q at held q1 (q = K - 2*q1), and c_over_tau0 sweeps c at held tau0.
    """

    name: str
    min: float
    max: float
    steps: int

    def __post_init__(self):
        if self.name not in AXIS_NAMES:
            raise ValueError(f"unknown axis {self.name!r}; choose from {AXIS_NAMES}")
        if not (finite(self.min) and finite(self.max)):
            raise ValueError(
                f"axis {self.name}: bounds must be finite, "
                f"got {shown(self.min)}, {shown(self.max)}"
            )
        if not finite(self.max - self.min):
            raise ValueError(
                f"axis {self.name}: span {shown(self.min)} to {shown(self.max)} overflows"
            )
        if not self.min < self.max:
            raise ValueError(f"axis {self.name}: min {shown(self.min)} "
                             f"must be < max {shown(self.max)}")
        object.__setattr__(self, "steps",
                           check_count(f"axis {self.name}: steps", self.steps, 2))

    def values(self) -> np.ndarray:
        import numpy as np

        # an int bound beyond int64 would make an object array
        return np.linspace(float(self.min), float(self.max), self.steps)

    def fields(self, variant: Variant) -> tuple[str, ...]:
        """Parameter fields this axis writes on the given variant.

        The c_over_tau0 axis moves every time scale the variant ties to c.
        """
        if self.name == "K":
            return ("q",)
        if self.name == "c_over_tau0":
            return variant.tied_clocks
        return (self.name,)


@dataclass(frozen=True)
class SweepSpec:
    """Two axes over the ``fixed`` parameters.  An axis may not write a field
    the other writes or holds (K holds q1, c_over_tau0 holds tau0): the axis
    values would mislabel the cells."""

    variant: Variant
    fixed: ModelParams
    axis1: Axis
    axis2: Axis
    method: Method

    def __post_init__(self):
        a, b = self.axis1, self.axis2
        if a.name == b.name:
            raise ValueError(f"axes must differ, both are {a.name!r}")
        shared = set(a.fields(self.variant)) & set(b.fields(self.variant))
        if shared:
            raise ValueError(f"axes {a.name!r} and {b.name!r} both write "
                             f"{', '.join(sorted(shared))}")
        for writer, holder in ((a, b), (b, a)):
            held = _HELD.get(holder.name)
            if held in writer.fields(self.variant):
                raise ValueError(f"axis {writer.name!r} writes {held}, which "
                                 f"axis {holder.name!r} holds at its fixed value")


@dataclass(frozen=True)
class GbmParams:
    """Drift mu and volatility sigma per unit time, step dt, n steps.

    The path's end time n * dt must be finite, so every time it writes is.
    """

    mu: float = 0.0
    sigma: float = 0.0075
    dt: float = 1.0
    n: int = 250
    seed: int = 0

    def __post_init__(self):
        if self.sigma < 0.0:
            raise ValueError(f"sigma must be nonnegative, got {shown(self.sigma)}")
        if not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {shown(self.dt)}")
        object.__setattr__(self, "n", check_count("n", self.n, 1))
        for name in ("mu", "sigma", "dt"):
            if not finite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {shown(getattr(self, name))}")
        try:
            drift, volatility = self.log_step()
        except OverflowError:  # sigma**2 beyond the float range
            drift = volatility = math.inf
        if not (finite(drift) and finite(volatility)):
            raise ValueError(
                f"log-step drift (mu - sigma^2/2) dt and volatility sigma sqrt(dt) "
                f"must be finite, got mu={shown(self.mu)}, sigma={shown(self.sigma)}, "
                f"dt={shown(self.dt)}"
            )
        try:
            end = self.n * self.dt
        except OverflowError:  # n beyond the float range
            end = math.inf
        if not finite(end):
            raise ValueError(
                f"path time n * dt = {shown(self.n)} * {shown(self.dt)} is not finite")
        # numpy's generators need seed >= 0
        object.__setattr__(self, "seed", check_count("seed", self.seed, 0))

    def log_step(self) -> tuple[float, float]:
        """Drift and volatility of log P over one step."""
        return (self.mu - 0.5 * self.sigma**2) * self.dt, self.sigma * math.sqrt(self.dt)


# Fields verify_consistency samples per variant; only these can be pinned.
SAMPLED_FIELDS = {
    Variant.LIQUIDITY_2X2: ("q", "tau0", "c"),
    Variant.SENTIMENT_3X3: ("q", "q1", "tau0", "c"),
    Variant.FULL_5X5: ("q", "q1", "q2", "tau0", "c3"),
}


def check_verify(variant: Variant, n: int, seed: int,
                 fixed: Mapping[str, float]) -> tuple[int, int]:
    """The sample count, seed and pinned fields of a consistency check;
    returns the count and seed as Python ints."""
    n = check_count("n", n, 1)
    allowed = set(SAMPLED_FIELDS[variant])
    unknown = set(fixed) - allowed
    if unknown:
        raise ValueError(
            f"cannot pin {sorted(unknown)} for {variant.value}; "
            f"samplable fields are {sorted(allowed)}"
        )
    return n, check_count("seed", seed, 0)


def timestamp() -> str:
    """The UTC time in ISO form, to the second; SOURCE_DATE_EPOCH pins it.

    Raises:
        ValueError: SOURCE_DATE_EPOCH is not an integer number of seconds
            that a datetime can hold.
    """
    from datetime import datetime, timezone

    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is None:
        return datetime.now(tz=timezone.utc).isoformat(timespec="seconds")
    try:
        stamp = datetime.fromtimestamp(int(epoch), tz=timezone.utc)
    except (ValueError, OverflowError, OSError) as exc:
        raise ValueError(
            f"SOURCE_DATE_EPOCH must be an integer number of seconds, got {epoch!r}"
        ) from exc
    return stamp.isoformat(timespec="seconds")
