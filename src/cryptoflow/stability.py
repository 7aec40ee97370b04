"""Linearization at the flat equilibrium and spectral classification.

The Jacobian of each variant at P = Pa = L = 1, zeta1 = zeta2 = 0 has a
closed form; a finite-difference Jacobian is provided as an independent
cross-check.  Characteristic polynomials are computed by the
Faddeev--LeVerrier trace recursion rather than from eigenvalues, so the
closed-form route and the eigensolver route stay independent of each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .errors import ConvergenceFailure, ResidualTooLarge, UnsupportedScaling
from .inputs import (
    DEFAULT_EPS,
    PARAM_FIELDS,
    PARAM_RULES,
    ModelParams,
    Rule,
    Variant,
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


# The full variant's closed-form Jacobian is derived for c = c1 = c2.
_JACOBIAN_SCOPE = {
    Variant.FULL_5X5: (Rule(
        UnsupportedScaling,
        lambda p: (p.c == p.c1) & (p.c1 == p.c2),
        "full variant Jacobian requires c = c1 = c2, got c={p.c}, c1={p.c1}, c2={p.c2}",
    ),),
}


def jacobian_scope(variant: Variant) -> tuple[Rule, ...]:
    """Conditions under which the variant's closed-form Jacobian holds."""
    return _JACOBIAN_SCOPE.get(variant, ())


def jacobian_stack(variant: Variant, params: ModelParams) -> np.ndarray:
    """Closed-form Jacobians at the flat equilibrium, one per point.

    The one table below is the full variant's Jacobian; a smaller variant's
    Jacobian is that table restricted to the rows and columns of its own
    states (``variant.labels``).  With float fields the result is one
    (dim, dim) matrix; with array fields of shape (n,) it is an
    (n, dim, dim) stack.  Entries are computed with the same operations
    either way, so each matrix of a stack equals the single point's matrix
    bitwise.  The scope is not checked here.  With array fields, entries
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

    The parameters are checked first (``validate_params``'s rules), so a
    zero clock raises NonPositiveTimeScale, not ZeroDivisionError.  The full
    variant is only supported with equal reaction time scales c = c1 = c2
    (the scaling under which its closed form is derived); unequal scales
    raise UnsupportedScaling.  The smaller variants accept general time
    scales.
    """
    check_rules((*PARAM_RULES, *jacobian_scope(variant)), params)
    return jacobian_stack(variant, params)


def jacobian_numeric(variant: Variant, params: ModelParams) -> np.ndarray:
    """Central-difference Jacobian of the right-hand side at equilibrium."""
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
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
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


def eigenvalues(m: np.ndarray) -> Spectrum:
    """Eigenvalues of a real square matrix, deterministically ordered.

    A matrix with a NaN or infinite entry raises ConvergenceFailure before
    any iteration runs.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ConvergenceFailure("matrix has a non-finite entry; no eigenvalues computed")
    try:
        vals = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigenvalue iteration failed: {exc}") from exc
    ordered = sorted((complex(v) for v in vals), key=lambda z: (-z.real, z.imag))
    return Spectrum(tuple(ordered))


def dominant_real_parts(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dominant real part of each matrix of an (n, d, d) stack, and where it failed.

    The whole stack goes through one ``np.linalg.eigvals`` call.  Each value
    equals ``classify(eigenvalues(m)).max_real`` bitwise, sign of zero
    included: it is the real part of the first eigenvalue in descending-real,
    ascending-imaginary order, ties going to LAPACK's order.  A matrix with a
    non-finite entry fails, as it does in ``eigenvalues``.  If LAPACK fails
    on the stack, or returns a non-finite spectrum, the matrices concerned go
    through ``eigenvalues`` one at a time, so one bad matrix fails alone.
    Failed entries hold NaN.
    """
    n = len(stack)
    max_real = np.full(n, np.nan)
    failed = ~np.isfinite(stack).all(axis=(1, 2))
    retry = np.zeros(n, dtype=bool)
    solvable = np.flatnonzero(~failed)
    try:
        vals = np.linalg.eigvals(stack[solvable])
    except np.linalg.LinAlgError:
        retry[solvable] = True
    else:
        re, im = vals.real, vals.imag
        tied = re == re.max(axis=1, keepdims=True)
        lowest = np.where(tied, im, np.inf).min(axis=1, keepdims=True)
        first = (tied & (im == lowest)).argmax(axis=1)
        max_real[solvable] = re[np.arange(len(solvable)), first]
        retry[solvable] = ~np.isfinite(vals).all(axis=1)
    for i in np.flatnonzero(retry):
        try:
            max_real[i] = eigenvalues(stack[i]).max_real
        except ConvergenceFailure:
            max_real[i] = np.nan
            failed[i] = True
    return max_real, failed


def _deflate_at_minus_one(coeffs: tuple[float, ...]) -> tuple[tuple[float, ...], float]:
    """Synthetic division by (lambda + 1); returns quotient and remainder."""
    quot = [coeffs[0]]
    for a in coeffs[1:-1]:
        quot.append(a - quot[-1])
    rem = coeffs[-1] - quot[-1]
    return tuple(quot), rem


def reduced_cubic(params: ModelParams) -> Polynomial:
    """Cubic factor of the full-variant characteristic polynomial.

    Under the c = c1 = c2 = 1 scaling the 5x5 spectrum carries a double
    eigenvalue at -1; dividing the characteristic polynomial by
    (lambda + 1)^2 leaves a monic cubic holding the nontrivial dynamics.
    A division remainder above 1e-8 signals that the scaling
    assumption is violated and raises ResidualTooLarge.
    """
    p5 = char_poly(jacobian_analytic(FULL_5X5, params))
    quot1, rem1 = _deflate_at_minus_one(p5.coeffs)
    quot2, rem2 = _deflate_at_minus_one(quot1)
    residual = max(abs(rem1), abs(rem2))
    if residual > 1e-8:
        raise ResidualTooLarge(
            "remainder after dividing by (lambda + 1)^2 is "
            f"{residual:.3g} > 1e-08; "
            "the c = c1 = c2 = 1 scaling does not hold"
        )
    return Polynomial(quot2)


def classify(spectrum: Spectrum, eps: float = DEFAULT_EPS) -> StabilityVerdict:
    """Spectral verdict from the dominant real part.

    Stable if max Re < -eps, Unstable if > eps, Marginal inside the band.
    The verdict is oscillatory when an eigenvalue attaining the dominant
    real part (within eps) has |Im| > eps.
    """
    mr = spectrum.max_real
    if mr < -eps:
        tag = Verdict.STABLE
    elif mr > eps:
        tag = Verdict.UNSTABLE
    else:
        tag = Verdict.MARGINAL
    oscillatory = any(
        abs(z.real - mr) <= eps and abs(z.imag) > eps for z in spectrum.eigenvalues
    )
    return StabilityVerdict(tag=tag, oscillatory=oscillatory, max_real=mr)
