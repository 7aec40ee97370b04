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

import numpy as np

from .errors import StateOutOfDomain

from .inputs import ModelParams, ModelVariant, Variant, Zeta2Denominator

# Prices below this floor are treated as a domain exit, not clamped.
P_FLOOR = 1e-9

FULL_5X5 = ModelVariant(Variant.FULL_5X5)
FULL_5X5_PRICE_NORM = ModelVariant(Variant.FULL_5X5, Zeta2Denominator.PRICE_P)
SENTIMENT_3X3 = ModelVariant(Variant.SENTIMENT_3X3)
LIQUIDITY_2X2 = ModelVariant(Variant.LIQUIDITY_2X2)


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
