"""Asset-flow model of a speculatively traded asset in nondimensional units.

The state couples the trading price P to a finite liquidity pool L and two
sentiment variables: zeta1 follows the recent price trend, zeta2 the discount
of the price against an anchored (slowly adjusting) price Pa.  All prices are
measured in units of the equilibrium liquidity value, so the flat equilibrium
is P = Pa = L = 1, zeta1 = zeta2 = 0.

Three nested variants are exposed:

* ``FULL_5X5``      -- (P, Pa, L, zeta1, zeta2), the complete model
* ``SENTIMENT_3X3`` -- (P, L, zeta1), value sentiment switched off
* ``LIQUIDITY_2X2`` -- (P, L), pure price/liquidity relaxation

With S = 1 + 2*zeta1 + 2*zeta2 the full system reads

    P'     = (S*L - P) / tau0
    Pa'    = (P - Pa) / c3
    L'     = (1 - L + q*(S*L - P)) / c
    zeta1' = (q1*(S*L/P - 1) - zeta1) / c1
    zeta2' = (q2*(Pa - P)/D - zeta2) / c2

where the discount denominator D is the anchored price Pa by default; an
alternative normalization D = P is selectable on the variant.  The smaller
variants drop the corresponding rows and freeze the dropped sentiments at 0.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum
from typing import Callable

import numpy as np

from .errors import (
    CryptoflowError,
    NegativeAmplitude,
    NonFiniteParameter,
    NonPositiveTimeScale,
    StateOutOfDomain,
)

# Prices below this floor are treated as a domain exit, not clamped.
P_FLOOR = 1e-9


class Variant(str, Enum):
    """Which subset of the state is dynamic."""

    FULL_5X5 = "full5x5"
    SENTIMENT_3X3 = "sentiment3x3"
    LIQUIDITY_2X2 = "liquidity2x2"


class Zeta2Denominator(str, Enum):
    """Normalization of the value-sentiment discount (Pa - P)/D."""

    ANCHOR_PA = "anchor_pa"
    PRICE_P = "price_p"


_LABELS = {
    Variant.FULL_5X5: ("P", "Pa", "L", "zeta1", "zeta2"),
    Variant.SENTIMENT_3X3: ("P", "L", "zeta1"),
    Variant.LIQUIDITY_2X2: ("P", "L"),
}

_IGNORED = {
    Variant.FULL_5X5: frozenset(),
    Variant.SENTIMENT_3X3: frozenset({"q2", "c2", "c3"}),
    Variant.LIQUIDITY_2X2: frozenset({"q1", "q2", "c1", "c2", "c3"}),
}

# criterion_3x3 is derived for c1 = c and the full-variant Jacobian for
# c = c1 = c2, so sweeps and verify samples move these clocks together.
_TIED_CLOCKS = {
    Variant.FULL_5X5: ("c", "c1", "c2"),
    Variant.SENTIMENT_3X3: ("c", "c1"),
    Variant.LIQUIDITY_2X2: ("c",),
}


@dataclass(frozen=True)
class ModelVariant:
    """A model variant together with its discount normalization."""

    tag: Variant
    zeta2_denominator: Zeta2Denominator = Zeta2Denominator.ANCHOR_PA

    @property
    def dim(self) -> int:
        return len(_LABELS[self.tag])

    @property
    def labels(self) -> tuple[str, ...]:
        """State component names, in storage order."""
        return _LABELS[self.tag]

    @property
    def tied_clocks(self) -> tuple[str, ...]:
        """Time scales that move together with c, c included."""
        return _TIED_CLOCKS[self.tag]


FULL_5X5 = ModelVariant(Variant.FULL_5X5)
FULL_5X5_PRICE_NORM = ModelVariant(Variant.FULL_5X5, Zeta2Denominator.PRICE_P)
SENTIMENT_3X3 = ModelVariant(Variant.SENTIMENT_3X3)
LIQUIDITY_2X2 = ModelVariant(Variant.LIQUIDITY_2X2)


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
    ``message`` is a ``str.format`` template over the params, named ``p``.
    """

    error: type[CryptoflowError]
    holds: Callable[[ModelParams], bool | np.ndarray]
    message: str


def check_rules(rules, params: ModelParams) -> None:
    """Raise the error of the first rule the point breaks."""
    for rule in rules:
        if not rule.holds(params):
            raise rule.error(rule.message.format(p=params))


def rule_errors(rules, params: ModelParams) -> np.ndarray:
    """Per point of a batch, the error class of the first rule it breaks.

    Returns an object array with None where every rule holds.
    """
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
             f"{name} {requirement}, got {{p.{name}}}")
        for name in names
    )


# Checked in this order; the first broken rule names the error.
PARAM_RULES = (
    *_field_rules(NonFiniteParameter, PARAM_FIELDS, np.isfinite, "must be finite"),
    *_field_rules(NonPositiveTimeScale, TIME_SCALES, lambda v: v > 0.0,
                  "must be positive"),
    *_field_rules(NegativeAmplitude, AMPLITUDES, lambda v: v >= 0.0,
                  "must be nonnegative"),
)


def ignored_fields(variant: ModelVariant) -> frozenset[str]:
    """Parameter fields the given variant does not read."""
    return _IGNORED[variant.tag]


def validate_params(params: ModelParams, variant: ModelVariant) -> ModelParams:
    """Check parameter constraints and return the params unchanged.

    All fields are validated, including ones the variant ignores; use
    :func:`ignored_fields` to see which fields those are.  The same rules
    (``PARAM_RULES``) mark the invalid points of a batch.

    Raises:
        NonFiniteParameter: a field is NaN or infinite (checked first).
        NonPositiveTimeScale: a time scale is zero or negative.
        NegativeAmplitude: a reaction amplitude is negative.
    """
    check_rules(PARAM_RULES, params)
    return params


def equilibrium(variant: ModelVariant) -> np.ndarray:
    """Flat equilibrium state: all prices 1, all sentiments 0."""
    full = {"P": 1.0, "Pa": 1.0, "L": 1.0, "zeta1": 0.0, "zeta2": 0.0}
    return np.array([full[name] for name in variant.labels])


def _below_floor(name: str, value: float) -> StateOutOfDomain:
    return StateOutOfDomain(f"{name} = {value} below floor {P_FLOOR}")


def _derivative(variant: ModelVariant, params: ModelParams):
    """The variant's time derivative as a closure over the parameters.

    The closure takes the state as a sequence of floats and returns its
    derivative as a tuple of floats.  A price (P, and Pa on the full
    variant) below the floor raises StateOutOfDomain rather than being
    clamped.  :func:`rhs` wraps it for arrays, and the integrator calls it
    directly at every stage, so the equations below are the only copy.
    """
    q, q1, q2 = params.q, params.q1, params.q2
    tau0, c, c1, c2, c3 = params.tau0, params.c, params.c1, params.c2, params.c3

    if variant.tag is Variant.LIQUIDITY_2X2:
        def derivative(state):
            p, liq = state
            if p < P_FLOOR:
                raise _below_floor("P", p)
            excess = liq - p
            return (excess / tau0, (1.0 - liq + q * excess) / c)
        return derivative

    if variant.tag is Variant.SENTIMENT_3X3:
        def derivative(state):
            p, liq, z1 = state
            if p < P_FLOOR:
                raise _below_floor("P", p)
            s = 1.0 + 2.0 * z1
            excess = s * liq - p
            return (
                excess / tau0,
                (1.0 - liq + q * excess) / c,
                (q1 * (s * liq / p - 1.0) - z1) / c1,
            )
        return derivative

    anchored = variant.zeta2_denominator is Zeta2Denominator.ANCHOR_PA

    def derivative(state):
        p, pa, liq, z1, z2 = state
        if p < P_FLOOR:
            raise _below_floor("P", p)
        if pa < P_FLOOR:
            raise _below_floor("Pa", pa)
        s = 1.0 + 2.0 * z1 + 2.0 * z2
        excess = s * liq - p
        discount = (pa - p) / (pa if anchored else p)
        return (
            excess / tau0,
            (p - pa) / c3,
            (1.0 - liq + q * excess) / c,
            (q1 * (s * liq / p - 1.0) - z1) / c1,
            (q2 * discount - z2) / c2,
        )
    return derivative


def rhs(variant: ModelVariant, params: ModelParams, state: np.ndarray) -> np.ndarray:
    """Time derivative of the state.

    Parameters are assumed valid (see :func:`validate_params`); the state is
    checked against the price floor and rejected with StateOutOfDomain rather
    than clamped.
    """
    state = np.asarray(state, dtype=float)
    if state.shape != (variant.dim,):
        raise ValueError(
            f"state must have shape ({variant.dim},) for {variant.tag.value}, "
            f"got {state.shape}"
        )
    return np.array(_derivative(variant, params)(state.tolist()))
