"""Exception types shared across the package.

Every error raised by this package derives from CryptoflowError, so callers
can catch the whole family with one clause while tests pin down the exact
subclass.
"""

from __future__ import annotations


class CryptoflowError(Exception):
    """Base class for all errors raised by this package."""


class NonFiniteParameter(CryptoflowError):
    """A model parameter is NaN or infinite."""


class NonPositiveTimeScale(CryptoflowError):
    """A time-scale parameter (tau0, c, c1, c2, c3) is zero or negative."""


class NegativeAmplitude(CryptoflowError):
    """An amplitude parameter (q, q1, q2) is negative."""


class StateOutOfDomain(CryptoflowError):
    """A state left the model domain (price or anchored price below the floor).

    When raised during integration, `time` holds the failure time and
    `partial` the trajectory recorded up to the last good step.
    """

    def __init__(self, message: str, time: float | None = None, partial=None):
        super().__init__(message)
        self.time = time
        self.partial = partial


class BlowUp(CryptoflowError):
    """A trajectory component exceeded the blow-up guard during integration."""

    def __init__(self, message: str, time: float, partial=None):
        super().__init__(message)
        self.time = time
        self.partial = partial


class UnsupportedScaling(CryptoflowError):
    """The full variant's Jacobian was asked for at unequal clocks c, c1, c2.

    The Jacobian, the exact derivative of the equations, holds at any
    clocks; this refusal is kept for the exit code it gives.
    """


class ScalingOutOfScope(CryptoflowError):
    """A closed-form criterion was called outside its derived time-scale scope."""


class OutOfScope(CryptoflowError):
    """A criterion was called outside its parameter scope (e.g. q2 != 0)."""


class ConvergenceFailure(CryptoflowError):
    """The eigenvalue solver failed to converge."""
