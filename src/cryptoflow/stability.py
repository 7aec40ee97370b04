"""Linearization at the flat equilibrium and spectral classification.

The Jacobian of each variant at P = Pa = L = 1, zeta1 = zeta2 = 0 is the
exact derivative of the model's equations (forward-mode, ``model.Dual``); a
central-difference Jacobian is provided as an independent cross-check.
A spectrum is one row of ``ordered_spectra``: the eigenvalues in
descending-real, ascending-imaginary order, as an array row for a stack or,
from ``eigenvalues``, as a tuple of complex numbers that ``classify`` reads.
Characteristic polynomials are plain leading-first tuples: the exact
Faddeev--LeVerrier coefficients, or ``char_poly``'s rounding of them.
``hurwitz_stable`` decides either by a Routh array in exact rationals, so that
route and the eigensolver route stay independent of each other.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .errors import ConvergenceFailure, UnsupportedScaling
from .inputs import (
    DEFAULT_EPS,
    PARAM_FIELDS,
    PARAM_RULES,
    ModelParams,
    Variant,
    check_dead_band,
    check_rules,
    equal_rule,
    validate_params,
)
from .model import Dual, _derivative, equilibrium, rhs

# Central-difference step: roundoff dominates below about 1e-8, truncation
# above about 1e-4.
NUMERIC_H = 1e-6


class Verdict(str, Enum):
    STABLE = "stable"
    MARGINAL = "marginal"
    UNSTABLE = "unstable"
    INVALID = "invalid"


VERDICTS = (Verdict.STABLE, Verdict.MARGINAL, Verdict.UNSTABLE, Verdict.INVALID)
STABLE, MARGINAL, UNSTABLE, INVALID = range(len(VERDICTS))


def verdict_codes(signed, band):
    """The dead-band rule every verdict comes from, as ``VERDICTS`` indices.

    ``signed``, a float or an array, is positive on the stable side.  Stable
    where signed > band, unstable where signed < -band, marginal otherwise:
    the band is inclusive and NaN is marginal.
    """
    # STABLE, MARGINAL, UNSTABLE are 0, 1, 2
    return MARGINAL - (signed > band) + (signed < -band)


@dataclass(frozen=True)
class StabilityVerdict:
    tag: Verdict
    oscillatory: bool
    max_real: float


# The rules jacobian_analytic checks, in order: the parameter rules, then on the
# full variant its tied clocks c = c1 = c2, a refusal kept only because the
# benchmark's `point` workload pins its exit 3 (ROADMAP item 3).
JACOBIAN_RULES = {
    **dict.fromkeys(Variant, PARAM_RULES),
    Variant.FULL_5X5: (*PARAM_RULES, equal_rule(
        UnsupportedScaling, Variant.FULL_5X5.tied_clocks,
        "full variant Jacobian requires")),
}


def jacobian_stack(variant: Variant, params: ModelParams) -> np.ndarray:
    """Jacobians at the flat equilibrium, one per point, exact to roundoff.

    Each is the derivative of the variant's equations (``model._derivative``,
    the closure ``simulate`` integrates).  Column j is the derivative along
    state j: the equations run once on the equilibrium with only that state
    a ``Dual``, and each equation's dual part is its entry; an equation that
    does not read the state leaves a zero.  With float fields the result is
    one (dim, dim) matrix; with array fields of shape (n,) it is an
    (n, dim, dim) stack.  Entries are computed with the same operations
    either way, so each matrix of a stack equals the single point's matrix
    bitwise.  No rule is checked here.  With array fields, entries that
    overflow or divide by zero come back non-finite without a warning.
    """
    derivative = _derivative(variant, params)
    x0 = equilibrium(variant).tolist()
    shape = np.broadcast(*(getattr(params, name) for name in PARAM_FIELDS)).shape
    jac = np.zeros(shape + (variant.dim, variant.dim))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for j, xj in enumerate(x0):
            state = x0.copy()
            state[j] = Dual(xj, 1.0)
            for i, out in enumerate(derivative(state)):
                if isinstance(out, Dual):
                    jac[..., i, j] = out.b
    return jac


def jacobian_analytic(variant: Variant, params: ModelParams) -> np.ndarray:
    """Exact Jacobian at the flat equilibrium (``jacobian_stack``), rules first.

    The variant's ``JACOBIAN_RULES`` are checked first: the parameter rules
    (``validate_params``'s), so a zero clock raises NonPositiveTimeScale, not
    ZeroDivisionError; then, on the full variant, c = c1 = c2, whose breach
    raises UnsupportedScaling.  That rule is a refusal, not a limit of the
    derivative, which holds at any clocks, as ``simulate``'s step check
    relies on.
    """
    check_rules(JACOBIAN_RULES[variant], params)
    return jacobian_stack(variant, params)


def jacobian_numeric(variant: Variant, params: ModelParams) -> np.ndarray:
    """Central-difference Jacobian of the right-hand side at equilibrium.

    The parameter rules are checked first, as ``jacobian_analytic`` does, so
    a zero clock raises NonPositiveTimeScale.  No scope rule is: the central
    difference holds at any clocks, which keeps it an independent route.
    """
    validate_params(params)
    h = NUMERIC_H
    x0 = equilibrium(variant)
    n = variant.dim
    jac = np.empty((n, n))
    for j in range(n):
        plus = x0.copy()
        minus = x0.copy()
        plus[j] += h
        minus[j] -= h
        jac[:, j] = (rhs(variant, params, plus) - rhs(variant, params, minus)) / (2.0 * h)
    return jac


def _square(m: np.ndarray) -> np.ndarray:
    """m as a float array, refused unless it is a real, nonempty square matrix."""
    m = np.asarray(m)
    if np.iscomplexobj(m):
        raise ValueError(f"matrix must be real, got dtype {m.dtype}")
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise ValueError(f"matrix must be square and nonempty, got shape {m.shape}")
    return m


def _exact_char_poly(m: np.ndarray) -> tuple[Fraction, ...]:
    """Exact leading-first coefficients of det(lambda*I - m), the first 1.

    Faddeev--LeVerrier, M_1 = I, c_k = -tr(m M_k)/k, M_{k+1} = m M_k + c_k I,
    needs only products and traces, no eigensolver.  Every float entry is a
    dyadic rational, so a common power-of-two scale makes the recursion
    integral; the float version loses digits to trace cancellation.
    """
    m = _square(m)
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    n = m.shape[0]
    fracs = [Fraction(x) for x in m.ravel().tolist()]
    scale = max(f.denominator for f in fracs)
    a = [[int(fracs[i * n + j] * scale) for j in range(n)] for i in range(n)]
    mk = [[int(i == j) for j in range(n)] for i in range(n)]
    coeffs = [Fraction(1)]
    for k in range(1, n + 1):
        am = [
            [sum(a[i][l] * mk[l][j] for l in range(n)) for j in range(n)]
            for i in range(n)
        ]
        # trace of an integer FL iterate is always divisible by k
        ck = -sum(am[i][i] for i in range(n)) // k
        coeffs.append(Fraction(ck, scale**k))
        for i in range(n):
            am[i][i] += ck
        mk = am
    return tuple(coeffs)


def char_poly(m: np.ndarray) -> tuple[float, ...]:
    """Monic det(lambda*I - m), leading-first: ``_exact_char_poly`` rounded once.

    A coefficient beyond the float range rounds to +-inf.  A matrix that is
    not real, square and nonempty, or has a NaN or infinite entry, raises
    ValueError.
    """
    coeffs = []
    for c in _exact_char_poly(m):
        try:
            coeffs.append(float(c))
        except OverflowError:
            coeffs.append(math.inf if c > 0 else -math.inf)
    return tuple(coeffs)


def hurwitz_stable(coeffs) -> bool:
    """All roots in the open left half plane, decided exactly by the Routh array.

    ``coeffs`` is a leading-first sequence of ints, ``Fraction``s or floats;
    degree 0, a NaN or infinite float, or a leading coefficient that is not
    positive raises ValueError.  The Hurwitz minors are all positive iff the
    Routh pivots are (Gantmacher, *Theory of Matrices* II, ch. XV); the array
    is built in ``Fraction`` arithmetic, so the answer is exact as given.
    """
    n = len(coeffs) - 1
    if n < 1:
        raise ValueError(f"polynomial degree must be at least 1, got {n}")
    if any(isinstance(x, float) and not math.isfinite(x) for x in coeffs):
        raise ValueError("polynomial coefficients must be finite")
    a = [Fraction(x) for x in coeffs]
    if a[0] <= 0:
        raise ValueError(f"leading coefficient must be positive, got {coeffs[0]}")
    upper, lower = a[0::2], a[1::2]
    for _ in range(n):
        if lower[0] <= 0:
            return False
        ratio = upper[0] / lower[0]
        upper, lower = lower, [u - ratio * v for u, v in zip(upper[1:], lower[1:] + [0])]
    return True


def ordered_spectra(stack: np.ndarray) -> np.ndarray:
    """Eigenvalues of each matrix of an (n, d, d) stack, one ordered row per matrix.

    Each row is in descending-real, ascending-imaginary order, ties keeping
    LAPACK's order.  The whole stack goes through one ``np.linalg.eigvals``
    call; only if LAPACK fails on it is each matrix solved alone, so one bad
    matrix fails alone.  A row is NaN where its matrix has a non-finite
    entry, LAPACK fails on it, or an eigenvalue is NaN.  An eigenvalue that
    overflowed stays infinite.
    """
    spectra = np.full(stack.shape[:2], np.nan, dtype=complex)
    solvable = np.flatnonzero(np.isfinite(stack).all(axis=(1, 2)))
    try:
        spectra[solvable] = np.linalg.eigvals(stack[solvable])
    except np.linalg.LinAlgError:
        for i in solvable:
            with contextlib.suppress(np.linalg.LinAlgError):
                spectra[i] = np.linalg.eigvals(stack[i])
    spectra[np.isnan(spectra).any(axis=1)] = np.nan
    return np.take_along_axis(spectra, np.lexsort((spectra.imag, -spectra.real)), axis=1)


def eigenvalues(m: np.ndarray) -> tuple[complex, ...]:
    """Eigenvalues of a real square matrix: ``ordered_spectra``'s row as a tuple.

    A complex matrix, or one not square and nonempty, raises ValueError.  A
    matrix with a NaN or infinite entry raises ConvergenceFailure before any
    iteration runs, as does a failed iteration or a NaN eigenvalue.
    """
    m = _square(m)
    if not np.isfinite(m).all():
        raise ConvergenceFailure("matrix has a non-finite entry; no eigenvalues computed")
    spectrum = ordered_spectra(m[None])[0]
    if np.isnan(spectrum).any():
        raise ConvergenceFailure("eigenvalue iteration failed or gave a NaN eigenvalue")
    return tuple(spectrum.tolist())


def classify(spectrum: tuple[complex, ...], eps: float = DEFAULT_EPS) -> StabilityVerdict:
    """Spectral verdict on an ordered spectrum (``eigenvalues``'s tuple).

    The verdict is ``verdict_codes`` of -max Re, read as ``spectrum[0].real``,
    with the dead band eps.  It is oscillatory when an eigenvalue attaining
    the dominant real part (within eps) has |Im| > eps.  An empty spectrum,
    or a negative, NaN or infinite eps, raises ValueError.
    """
    if not spectrum:
        raise ValueError("spectrum must be nonempty")
    check_dead_band("eps", eps)
    mr = spectrum[0].real
    oscillatory = any(abs(z.real - mr) <= eps and abs(z.imag) > eps for z in spectrum)
    return StabilityVerdict(VERDICTS[verdict_codes(-mr, eps)], oscillatory, mr)
