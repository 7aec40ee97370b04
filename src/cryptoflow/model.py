"""Asset-flow model of a speculatively traded asset in nondimensional units.

The state couples the trading price P to a finite liquidity pool L and two
sentiment variables: zeta1 follows the recent price trend, zeta2 the discount
of the price against an anchored (slowly adjusting) price Pa.  All prices are
measured in units of the equilibrium liquidity value, so the flat equilibrium
is P = Pa = L = 1, zeta1 = zeta2 = 0.

Three nested variants are modelled, the members of ``inputs.Variant``:

* ``FULL_5X5``      -- (P, Pa, L, zeta1, zeta2), the complete model
* ``SENTIMENT_3X3`` -- (P, L, zeta1), value sentiment switched off
* ``LIQUIDITY_2X2`` -- (P, L), pure price/liquidity relaxation

With S = 1 + 2*zeta1 + 2*zeta2 the full system reads

    P'     = (S*L - P) / tau0
    Pa'    = (P - Pa) / c3
    L'     = (1 - L + q*(S*L - P)) / c
    zeta1' = (q1*(S*L/P - 1) - zeta1) / c1
    zeta2' = (q2*(Pa - P)/Pa - zeta2) / c2

The smaller variants keep their own rows of it, with the dropped states
frozen at equilibrium.  These equations are written once, in
:func:`_derivative`: the integrator runs them, and ``stability.jacobian_stack``
differentiates them exactly by running them on a :class:`Dual` number.

This module holds the model alone: the price floor, the equilibrium, the
equations and the Dual number.  The variants, the parameters and every rule
on them live in ``inputs``.
"""

from __future__ import annotations

import numpy as np

from .errors import StateOutOfDomain
from .inputs import ModelParams, Variant

# Prices below this floor are treated as a domain exit, not clamped.
P_FLOOR = 1e-9


def equilibrium(variant: Variant) -> np.ndarray:
    """Flat equilibrium state: all prices 1, all sentiments 0."""
    full = {"P": 1.0, "Pa": 1.0, "L": 1.0, "zeta1": 0.0, "zeta2": 0.0}
    return np.array([full[name] for name in variant.labels])


class Dual:
    """a + b*eps with eps**2 = 0: a value and its derivative along one state.

    Run through the model's equations (only + - * /) with one state seeded
    as ``Dual(x, 1.0)``, each result's ``b`` is the exact derivative along
    that state, rounded once per operation.  Only that state is a Dual, so
    no product of two Duals arises; every other operand stays a float or an
    array and is never promoted to ``Dual(x, 0.0)``, so a term that does not
    read the state adds nothing, not even a zero's sign, and the result has
    the bits of the derivative written out by hand.  ``__array_ufunc__ =
    None`` makes an array or numpy scalar operand defer to the operators here.
    """

    __array_ufunc__ = None

    def __init__(self, a, b):
        self.a, self.b = a, b

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.a + other.a, self.b + other.b)
        return Dual(self.a + other, self.b)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.a - other.a, self.b - other.b)
        return Dual(self.a - other, self.b)

    def __rsub__(self, other):
        return Dual(other - self.a, -self.b)

    def __mul__(self, other):
        return Dual(self.a * other, self.b * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            ratio = self.a / other.a
            # not (b*c - a*d) / c**2, which differs from the hand-written
            # derivative in the last bit
            return Dual(ratio, (self.b - ratio * other.b) / other.a)
        return Dual(self.a / other, self.b / other)

    def __rtruediv__(self, other):
        ratio = other / self.a
        return Dual(ratio, -(ratio * self.b) / self.a)

    def __lt__(self, other):
        return self.a < other


def _below_floor(name: str, value: float) -> StateOutOfDomain:
    return StateOutOfDomain(f"{name} = {value} below floor {P_FLOOR}")


def _derivative(variant: Variant, params: ModelParams):
    """The variant's time derivative as a closure over the parameters.

    The closure takes the state as a sequence of floats and returns its
    derivative as a tuple of floats.  A price (P, and Pa on the full
    variant) below the floor raises StateOutOfDomain rather than being
    clamped.  :func:`rhs` wraps it for arrays, the integrator calls it
    directly at every stage, and ``stability.jacobian_stack`` runs it on a
    :class:`Dual` state.  A smaller variant runs the full closure with its
    dropped states at equilibrium (Pa = 1, sentiments 0) and keeps its own
    rows, bit for bit as if written alone: no kept row reads Pa, and the
    frozen zeros enter only as ``+ 2.0*0.0`` and ``1.0*x``.
    """
    q, q1, q2 = params.q, params.q1, params.q2
    tau0, c, c1, c2, c3 = params.tau0, params.c, params.c1, params.c2, params.c3

    def full(state):
        p, pa, liq, z1, z2 = state
        if p < P_FLOOR:
            raise _below_floor("P", p)
        if pa < P_FLOOR:
            raise _below_floor("Pa", pa)
        s = 1.0 + 2.0 * z1 + 2.0 * z2
        excess = s * liq - p
        return (
            excess / tau0,
            (p - pa) / c3,
            (1.0 - liq + q * excess) / c,
            (q1 * (s * liq / p - 1.0) - z1) / c1,
            (q2 * ((pa - p) / pa) - z2) / c2,
        )

    if variant is Variant.SENTIMENT_3X3:
        def derivative(state):
            p, liq, z1 = state
            dp, _, dliq, dz1, _ = full([p, 1.0, liq, z1, 0.0])
            return (dp, dliq, dz1)
    elif variant is Variant.LIQUIDITY_2X2:
        def derivative(state):
            p, liq = state
            dp, _, dliq, _, _ = full([p, 1.0, liq, 0.0, 0.0])
            return (dp, dliq)
    else:
        return full
    return derivative


def rhs(variant: Variant, params: ModelParams, state: np.ndarray) -> np.ndarray:
    """Time derivative of the state.

    Parameters are assumed valid (see :func:`validate_params`); the state is
    checked against the price floor and rejected with StateOutOfDomain rather
    than clamped.  A zero clock is invalid also where the variant ignores it
    (the dropped rows are still evaluated): it raises ZeroDivisionError.
    """
    state = np.asarray(state, dtype=float)
    if state.shape != (variant.dim,):
        raise ValueError(
            f"state must have shape ({variant.dim},) for {variant.value}, "
            f"got {state.shape}"
        )
    return np.array(_derivative(variant, params)(state.tolist()))
