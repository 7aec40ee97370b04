"""Linearization at the flat equilibrium and spectral classification.

The Jacobian of each variant at P = Pa = L = 1, zeta1 = zeta2 = 0 has a
closed form; a finite-difference Jacobian is provided as an independent
cross-check.  Characteristic polynomials are computed by the
Faddeev--LeVerrier trace recursion rather than from eigenvalues, so the
closed-form route and the eigensolver route stay independent of each other.
"""

from __future__ import annotations

import contextlib
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
    Rule,
    Variant,
    check_dead_band,
    check_rules,
)
from .model import FULL_5X5, equilibrium, rhs

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
class Polynomial:
    """Real polynomial with coefficients stored leading-first."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        if len(self.coeffs) < 1:
            raise ValueError("polynomial needs at least one coefficient")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted by descending real part, then ascending imaginary."""

    eigenvalues: tuple[complex, ...]

    @property
    def max_real(self) -> float:
        return self.eigenvalues[0].real


@dataclass(frozen=True)
class StabilityVerdict:
    tag: Verdict
    oscillatory: bool
    max_real: float


# The rules jacobian_analytic checks, in order: the parameter rules, then on the
# full variant c = c1 = c2.  The Jacobian table holds at any clocks, since each
# row divides by its own clock; the c = c1 = c2 rule is a refusal, kept only
# because the benchmark's `point` workload pins its exit 3 (ROADMAP item 3).
JACOBIAN_RULES = {
    **dict.fromkeys(Variant, PARAM_RULES),
    Variant.FULL_5X5: (*PARAM_RULES, Rule(
        UnsupportedScaling,
        lambda p: (p.c == p.c1) & (p.c1 == p.c2),
        "full variant Jacobian requires c = c1 = c2, got c={p.c}, c1={p.c1}, c2={p.c2}",
    )),
}


def jacobian_stack(variant: Variant, params: ModelParams) -> np.ndarray:
    """Closed-form Jacobians at the flat equilibrium, one per point.

    The one table below is the full variant's Jacobian; a smaller variant's
    Jacobian is that table restricted to the rows and columns of its own
    states (``variant.labels``).  With float fields the result is one
    (dim, dim) matrix; with array fields of shape (n,) it is an
    (n, dim, dim) stack.  Entries are computed with the same operations
    either way, so each matrix of a stack equals the single point's matrix
    bitwise.  No rule is checked here.  With array fields, entries
    that overflow or divide by zero come back non-finite without a warning.
    """
    q, q1, q2, tau0, c, c1, c2, c3 = (getattr(params, name) for name in PARAM_FIELDS)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        rows = [
            [-1.0 / tau0, 0.0, 1.0 / tau0, 2.0 / tau0, 2.0 / tau0],
            [1.0 / c3, -1.0 / c3, 0.0, 0.0, 0.0],
            [-q / c, 0.0, (q - 1.0) / c, 2.0 * q / c, 2.0 * q / c],
            [-q1 / c1, 0.0, q1 / c1, (2.0 * q1 - 1.0) / c1, 2.0 * q1 / c1],
            [-q2 / c2, q2 / c2, 0.0, 0.0, -1.0 / c2],
        ]
    kept = [FULL_5X5.labels.index(name) for name in variant.labels]
    shape = np.broadcast(q, q1, q2, tau0, c, c1, c2, c3).shape
    jac = np.empty(shape + (len(kept), len(kept)))
    for i, row in enumerate(kept):
        for j, col in enumerate(kept):
            jac[..., i, j] = rows[row][col]
    return jac


def jacobian_analytic(variant: Variant, params: ModelParams) -> np.ndarray:
    """Closed-form Jacobian at the flat equilibrium.

    The variant's ``JACOBIAN_RULES`` are checked first: the parameter rules
    (``validate_params``'s), so a zero clock raises NonPositiveTimeScale, not
    ZeroDivisionError; then, on the full variant, c = c1 = c2, whose breach
    raises UnsupportedScaling.  That rule is a refusal, not a limit of the
    table: each row divides by its own clock, so ``jacobian_stack`` holds at
    any clocks, as ``simulate``'s step check relies on.
    """
    check_rules(JACOBIAN_RULES[variant], params)
    return jacobian_stack(variant, params)


def jacobian_numeric(variant: Variant, params: ModelParams) -> np.ndarray:
    """Central-difference Jacobian of the right-hand side at equilibrium.

    The parameter rules are checked first, as ``jacobian_analytic`` does, so
    a zero clock raises NonPositiveTimeScale.  No scope rule is: the central
    difference holds at any clocks, which keeps it an independent route.
    """
    check_rules(PARAM_RULES, params)
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
    """m as a float array, refused unless it is a nonempty square matrix."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise ValueError(f"matrix must be square and nonempty, got shape {m.shape}")
    return m


def char_poly(m: np.ndarray) -> Polynomial:
    """Monic characteristic polynomial det(lambda*I - m), leading-first.

    Uses the Faddeev--LeVerrier recursion
        M_1 = I,  c_k = -tr(m M_k)/k,  M_{k+1} = m M_k + c_k I,
    which needs only matrix products and traces, no eigensolver.  The
    recursion runs in exact integer arithmetic (every float entry is a
    dyadic rational, so scaling by a common power of two makes the matrix
    integral and keeps the recursion integral), because the float version
    loses digits to trace cancellation on badly scaled matrices.  Each
    returned coefficient is the exact value correctly rounded once.
    """
    m = _square(m)
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    n = m.shape[0]
    fracs = [Fraction(x) for x in m.ravel().tolist()]
    scale = max(f.denominator for f in fracs)
    a = [[int(fracs[i * n + j] * scale) for j in range(n)] for i in range(n)]
    mk = [[int(i == j) for j in range(n)] for i in range(n)]
    coeffs = [1.0]
    for k in range(1, n + 1):
        am = [
            [sum(a[i][l] * mk[l][j] for l in range(n)) for j in range(n)]
            for i in range(n)
        ]
        # trace of an integer FL iterate is always divisible by k
        ck = -sum(am[i][i] for i in range(n)) // k
        coeffs.append(float(Fraction(ck, scale**k)))
        for i in range(n):
            am[i][i] += ck
        mk = am
    return Polynomial(tuple(coeffs))


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


def eigenvalues(m: np.ndarray) -> Spectrum:
    """Eigenvalues of a real square matrix, ordered as by ``ordered_spectra``.

    A matrix with a NaN or infinite entry raises ConvergenceFailure before
    any iteration runs, as does a failed iteration or a NaN eigenvalue.
    """
    m = _square(m)
    if not np.isfinite(m).all():
        raise ConvergenceFailure("matrix has a non-finite entry; no eigenvalues computed")
    spectrum = ordered_spectra(m[None])[0]
    if np.isnan(spectrum).any():
        raise ConvergenceFailure("eigenvalue iteration failed or gave a NaN eigenvalue")
    return Spectrum(tuple(spectrum.tolist()))


def dominant_real_parts(stack: np.ndarray) -> np.ndarray:
    """Dominant real part of each matrix of an (n, d, d) stack, NaN where it failed.

    The real part of the first column of ``ordered_spectra``, so each value
    equals ``classify(eigenvalues(m)).max_real`` bitwise, sign of zero
    included.
    """
    return ordered_spectra(stack)[:, 0].real


def classify(spectrum: Spectrum, eps: float = DEFAULT_EPS) -> StabilityVerdict:
    """Spectral verdict: ``verdict_codes`` of -max Re with the dead band eps.

    The verdict is oscillatory when an eigenvalue attaining the dominant
    real part (within eps) has |Im| > eps.  A negative, NaN or infinite eps
    raises ValueError.
    """
    check_dead_band("eps", eps)
    mr = spectrum.max_real
    oscillatory = any(
        abs(z.real - mr) <= eps and abs(z.imag) > eps for z in spectrum.eigenvalues
    )
    return StabilityVerdict(VERDICTS[verdict_codes(-mr, eps)], oscillatory, mr)
