"""Geometric Brownian motion baseline and normal tail arithmetic.

The baseline prices an asset with independent log-normal returns, the model
the asset-flow dynamics are measured against.  Paths are generated by exact
log-space stepping, so no discretization error enters; normal variates come
from a deterministic inverse-CDF transform of seeded PCG64 uniforms (no
rejection sampling), which keeps every path reproducible from its seed.
``GbmParams`` and every check on a path's or a drop's values live in
``inputs``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .inputs import CSV_ROWS_PER_WRITE, GbmParams, check_positive, write_csv

# Importing scipy.special imports numpy.f2py, which parses SOURCE_DATE_EPOCH
# and raises on a value that is not an integer.  Only sweep metadata reads
# that variable, and it rejects a bad value as a usage error, so the variable
# is hidden for the length of this import.
_epoch = os.environ.pop("SOURCE_DATE_EPOCH", None)
try:
    from scipy.special import ndtri
finally:
    if _epoch is not None:
        os.environ["SOURCE_DATE_EPOCH"] = _epoch
del _epoch


def _standard_normals(rng: np.random.Generator, n: int) -> np.ndarray:
    # (k + 0.5) / 2^53 is above 0, but at k = 2^53 - 1 the tie rounds to
    # even, to exactly 1.0, where the inverse CDF is +inf; the clamp moves
    # that one k to the largest float below 1, so the uniforms stay strictly
    # inside (0, 1) and every other draw keeps its bits.
    u = (rng.integers(0, 1 << 53, size=n, dtype=np.uint64) + 0.5) / float(1 << 53)
    return ndtri(np.minimum(u, 1.0 - 2.0**-53))


def gbm_simulate(params: GbmParams, p0: float = 1.0) -> np.ndarray:
    """Price path of length n+1 with exact log-normal increments.

    log P advances by (mu - sigma^2/2) dt + sigma sqrt(dt) Z per step with
    independent standard normal Z, so each step is distributed exactly.

    Raises:
        ValueError: p0 is not positive and finite, or a price of the path
            leaves the float range (overflows, or underflows to 0).
    """
    check_positive("p0", p0)
    rng = np.random.default_rng(params.seed)
    z = _standard_normals(rng, params.n)
    drift, volatility = params.log_step()
    with np.errstate(over="ignore", invalid="ignore"):
        log_path = math.log(p0) + np.concatenate(([0.0], np.cumsum(drift + volatility * z)))
        path = np.exp(log_path)
    if not (np.isfinite(path) & (path > 0.0)).all():
        raise ValueError(
            f"price path leaves the float range (p0={p0}, log-step drift {drift}, "
            f"volatility {volatility}, n={params.n})"
        )
    return path


def gbm_path_csv(params: GbmParams, path: np.ndarray,
                 stream: TextIO | None = None) -> str | None:
    """``write_csv``'s CSV of time and price columns: to ``stream``, at most
    CSV_ROWS_PER_WRITE rows per write, returning None; else the text."""
    rows, n = CSV_ROWS_PER_WRITE, len(path)
    return write_csv("t,P", (
        zip([k * params.dt for k in range(i, min(i + rows, n))], path[i:i + rows].tolist())
        for i in range(0, n, rows)), stream)


def normal_tail(k: float) -> float:
    """Upper-tail probability that a standard normal falls below -k.

    Evaluated as erfc(k/sqrt(2))/2, which keeps full relative accuracy deep
    into the tail where 1 - Phi(k) would cancel catastrophically.
    """
    return 0.5 * math.erfc(k / math.sqrt(2.0))


@dataclass(frozen=True)
class ExceedanceReport:
    """How improbable a one-step drop is under the log-normal baseline."""

    sigma_daily: float
    drop: float
    k: float
    probability: float
    recurrence_days: float


def exceedance_report(sigma_daily: float, drop: float) -> ExceedanceReport:
    """Tail probability and mean recurrence time of a drop of given size.

    k = drop/sigma_daily is the move in daily standard deviations; the
    recurrence time is the reciprocal probability in days.

    Raises:
        ValueError: sigma_daily or drop is not positive and finite.
    """
    check_positive("sigma_daily", sigma_daily)
    check_positive("drop", drop)
    k = drop / sigma_daily
    probability = normal_tail(k)
    recurrence = math.inf if probability == 0.0 else 1.0 / probability
    return ExceedanceReport(
        sigma_daily=sigma_daily,
        drop=drop,
        k=k,
        probability=probability,
        recurrence_days=recurrence,
    )
