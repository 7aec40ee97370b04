"""Log-normal baseline paths and tail probabilities, with mpmath as oracle."""

import json
import math
import warnings
from dataclasses import asdict
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest

from cryptoflow import (
    ExceedanceReport,
    GbmParams,
    exceedance_report,
    gbm_path_csv,
    gbm_simulate,
    normal_tail,
)
from cryptoflow.gbm import _standard_normals


def test_zero_volatility_is_exact_exponential():
    path = gbm_simulate(GbmParams(mu=0.1, sigma=0.0, dt=1.0, n=10, seed=0))
    assert len(path) == 11
    assert path[-1] == pytest.approx(math.e, rel=1e-12)


def test_same_seed_same_path():
    p = GbmParams(mu=0.0, sigma=0.02, dt=1.0, n=300, seed=9)
    np.testing.assert_array_equal(gbm_simulate(p), gbm_simulate(p))
    other = gbm_simulate(GbmParams(mu=0.0, sigma=0.02, dt=1.0, n=300, seed=10))
    assert not np.array_equal(gbm_simulate(p), other)


def test_path_positive_and_scales_with_p0():
    p = GbmParams(mu=-0.5, sigma=0.3, dt=0.5, n=200, seed=4)
    path = gbm_simulate(p, p0=2.0)
    assert (path > 0.0).all()
    np.testing.assert_allclose(path, 2.0 * gbm_simulate(p, p0=1.0), rtol=1e-12)


def test_log_return_moments():
    p = GbmParams(mu=0.0, sigma=0.0075, dt=1.0, n=10**6, seed=0)
    r = np.diff(np.log(gbm_simulate(p)))
    assert abs(r.mean() - (-0.5 * 0.0075**2)) <= 4 * 0.0075 / math.sqrt(10**6)
    assert abs(r.std(ddof=1) - 0.0075) <= 0.01 * 0.0075
    # six-sigma daily drops essentially never happen under this model
    assert int((r < -6 * 0.0075).sum()) <= 1


def test_params_validation():
    with pytest.raises(ValueError):
        GbmParams(sigma=-0.1)
    with pytest.raises(ValueError):
        GbmParams(dt=0.0)
    with pytest.raises(ValueError):
        GbmParams(n=0)
    # an n beyond the float range, not only n * dt beyond it
    with pytest.raises(ValueError, match=r"^path time n \* dt = 10{400} \* 1\.0 is not finite$"):
        GbmParams(n=10**400)
    with pytest.raises(ValueError, match=r"^mu must be finite, got 10{400}$"):
        GbmParams(mu=10**400)
    # ints too long for Python to write in decimal are named by their size
    with pytest.raises(ValueError, match=r"^path time n \* dt = an int of 5001 digits "
                                         r"\* 1\.0 is not finite$"):
        GbmParams(n=10**5000)
    with pytest.raises(ValueError, match="^mu must be finite, got an int of 5001 digits$"):
        GbmParams(mu=10**5000)
    with pytest.raises(ValueError, match="^seed must be >= 0, "
                                         "got a negative int of 5001 digits$"):
        GbmParams(seed=-10**5000)
    with pytest.raises(ValueError):
        gbm_simulate(GbmParams(), p0=0.0)


def test_path_csv_shape():
    p = GbmParams(mu=0.0, sigma=0.01, dt=2.0, n=3, seed=1)
    lines = gbm_path_csv(p, gbm_simulate(p)).strip().split("\n")
    assert lines[0] == "t,P"
    assert len(lines) == 5
    assert lines[2].startswith("2,")


def test_normal_tail_at_zero():
    assert normal_tail(0.0) == 0.5


def test_normal_tail_six_sigma():
    assert 9.8e-10 <= normal_tail(6.0) <= 9.9e-10


def test_normal_tail_quantile():
    assert normal_tail(1.959964) == pytest.approx(0.025, abs=1e-6)


def test_normal_tail_against_mpmath():
    mpmath.mp.dps = 40
    for k in np.arange(0.0, 8.01, 0.5):
        exact = float(mpmath.ncdf(-mpmath.mpf(float(k))))
        assert normal_tail(float(k)) == pytest.approx(exact, rel=1e-12)


def test_normal_tail_monotone_and_symmetric():
    ks = np.linspace(0.0, 8.0, 33)
    vals = [normal_tail(float(k)) for k in ks]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    for k in (0.3, 1.0, 2.5, 5.0):
        assert normal_tail(k) + normal_tail(-k) == pytest.approx(1.0, abs=1e-14)


def test_exceedance_six_sigma_recurrence():
    report = exceedance_report(sigma_daily=0.0075, drop=0.045)
    assert report.k == pytest.approx(6.0)
    assert 0.9e9 <= report.recurrence_days <= 1.1e9
    assert report.probability * report.recurrence_days == pytest.approx(1.0)


def test_exceedance_one_sigma():
    report = exceedance_report(sigma_daily=0.01, drop=0.01)
    assert report.k == pytest.approx(1.0)
    assert report.probability == pytest.approx(0.15865525393145707, rel=1e-12)


def test_exceedance_rejects_degenerate_inputs():
    with pytest.raises(ValueError, match="drop must be positive"):
        exceedance_report(sigma_daily=0.0075, drop=0.0)
    with pytest.raises(ValueError, match="sigma_daily must be positive"):
        exceedance_report(sigma_daily=0.0, drop=0.045)
    with pytest.raises(ValueError, match="^sigma_daily must be finite, got inf$"):
        exceedance_report(sigma_daily=math.inf, drop=0.1)


def test_params_reject_a_negative_seed_and_keep_large_ones():
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        GbmParams(seed=-1)
    with pytest.raises(ValueError, match="^n must be an integer, got 2.5$"):
        GbmParams(n=2.5)
    with pytest.raises(ValueError, match="^seed must be an integer, got 1.5$"):
        GbmParams(seed=1.5)
    assert len(gbm_simulate(GbmParams(n=3, seed=2**80))) == 4
    assert len(gbm_simulate(GbmParams(n=np.int64(3)))) == 4


def test_numpy_integer_counts_give_the_document_of_python_ints():
    params = GbmParams(n=np.int64(3), seed=np.uint8(2))
    assert type(params.n) is int and type(params.seed) is int
    assert json.dumps(asdict(params)) == json.dumps(asdict(GbmParams(n=3, seed=2)))


@pytest.mark.parametrize("kwargs", [
    {"sigma": 1e200},                 # sigma**2 overflows
    {"mu": 1e308, "dt": 10.0},        # mu * dt overflows
    {"sigma": 1e300, "dt": 1e300},    # sigma * sqrt(dt) overflows
])
def test_params_reject_a_non_finite_log_step(kwargs):
    with pytest.raises(ValueError, match="log-step drift"):
        GbmParams(**kwargs)


@pytest.mark.parametrize("params,p0", [
    (GbmParams(mu=1e308, n=3), 1.0),
    (GbmParams(mu=1.0, n=1000), 1e308),
    (GbmParams(mu=-1.0, dt=1000.0, n=3), 1.0),   # underflows to 0
])
def test_simulate_rejects_a_path_leaving_the_float_range(params, p0):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="leaves the float range"):
            gbm_simulate(params, p0=p0)


def test_the_top_uniform_draw_stays_below_one():
    # (2^53 - 1 + 0.5) / 2^53 rounds to 1.0, where the inverse CDF is +inf
    top = SimpleNamespace(integers=lambda low, high, size, dtype: np.full(size, high - 1, dtype))
    assert 8.0 < _standard_normals(top, 1).item() < math.inf


def test_log_step_is_what_the_path_takes():
    p = GbmParams(mu=0.03, sigma=0.2, dt=0.5, n=4, seed=2)
    drift, volatility = p.log_step()
    assert drift == (0.03 - 0.5 * 0.2**2) * 0.5
    assert volatility == 0.2 * math.sqrt(0.5)
    steps = np.diff(np.log(gbm_simulate(GbmParams(mu=0.03, sigma=0.0, dt=0.5, n=4))))
    np.testing.assert_allclose(steps, 0.03 * 0.5, rtol=1e-12)


def test_report_is_a_value_object():
    a = exceedance_report(0.0075, 0.045)
    b = exceedance_report(0.0075, 0.045)
    assert isinstance(a, ExceedanceReport)
    assert a == b
