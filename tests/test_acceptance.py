"""Acceptance gate: one test per shipping criterion, all tolerances pinned.

Each test prints a single PASS/FAIL line with its measured numbers so a log
scrape shows the full scorecard; the pytest verdict per test is the gate.
Criterion 9's growth-rate clause is checked on points where linear theory
itself can deliver the rate through the same window and fit (an exact
linear replay must land within half the stated tolerance); points whose
dominant mode is unobservable from a price kick or whose window is too
short carry no rate information and are reported, not asserted.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np

import conftest
from cryptoflow import (
    FULL_5X5,
    LIQUIDITY_2X2,
    SENTIMENT_3X3,
    Axis,
    EmpiricalVerdict,
    Method,
    ModelParams,
    SimConfig,
    SweepSpec,
    Verdict,
    boundary_cells,
    char_poly,
    eigenvalues,
    equilibrium,
    exceedance_report,
    integrate,
    jacobian_analytic,
    jacobian_numeric,
    normal_tail,
    perturb_and_classify,
    rh_5x5,
    run_sweep,
    sufficient_5x5,
    verify_consistency,
)
from cryptoflow.simulate import Trajectory, _fit_growth_rate

ALL_VARIANTS = ((LIQUIDITY_2X2, "liquidity2x2"), (SENTIMENT_3X3, "sentiment3x3"),
                (FULL_5X5, "full5x5"))


def _report(num, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {detail}"
    print(line)
    conftest.scorecard_lines.append(line)
    assert ok, line


def test_criterion_01_sentiment_closed_form_matches_spectra():
    t0 = time.monotonic()
    rep = verify_consistency(SENTIMENT_3X3, n=10_000, seed=7)
    elapsed = time.monotonic() - t0
    ok = rep.mismatches == 0 and elapsed <= 5.0
    _report(1, ok, f"mismatches={rep.mismatches}/10000 excluded={rep.excluded} "
                   f"runtime={elapsed:.2f}s (limit 5s)")


def test_criterion_02_liquidity_threshold_matches_spectra():
    rep = verify_consistency(LIQUIDITY_2X2, n=10_000, seed=7)
    _report(2, rep.mismatches == 0,
            f"mismatches={rep.mismatches}/10000 excluded={rep.excluded}")


def test_criterion_03_trend_only_threshold_and_shortcut_rate():
    rep = verify_consistency(FULL_5X5, n=10_000, seed=7, fixed={"q2": 0.0})
    rate = rep.simple_condition_agreement
    ok = rep.mismatches == 0 and rate is not None
    _report(3, ok, f"mismatches={rep.mismatches}/10000 excluded={rep.excluded} "
                   f"shortcut_agreement={rate:.4f} (reported, not gated)")


def test_criterion_04_routh_hurwitz_equivalence_and_sufficiency():
    rep = verify_consistency(FULL_5X5, n=10_000, seed=7)
    rng = np.random.default_rng(20)
    counterexamples = 0
    sufficient_hits = 0
    for _ in range(10_000):
        q, q1, q2 = 10.0 ** rng.uniform(-3, 1, size=3)
        tau0, c3 = 10.0 ** rng.uniform(-2, 1, size=2)
        p = ModelParams(q=q, q1=q1, q2=q2, tau0=tau0, c=1.0, c1=1.0, c2=1.0, c3=c3)
        if sufficient_5x5(p):
            sufficient_hits += 1
            if rh_5x5(p).verdict is not Verdict.STABLE:
                counterexamples += 1
    witness = ModelParams(q=1.5, q1=0.5, q2=1.0, tau0=1.0, c=1.0, c1=1.0,
                          c2=1.0, c3=1.0)
    witness_found = (not sufficient_5x5(witness)
                     and rh_5x5(witness).verdict is Verdict.STABLE)
    ok = rep.mismatches == 0 and counterexamples == 0 and witness_found
    _report(4, ok, f"spectral_mismatches={rep.mismatches}/10000 "
                   f"sufficient_counterexamples={counterexamples}/{sufficient_hits} "
                   f"necessity_witness_found={witness_found}")


def test_criterion_05_double_eigenvalue_division_remainder():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(10_000):
        q, q1, q2, tau0, c3 = 10.0 ** rng.uniform(-2, 2, size=5)
        p = ModelParams(q=q, q1=q1, q2=q2, tau0=tau0, c=1.0, c1=1.0, c2=1.0, c3=c3)
        coeffs = char_poly(jacobian_analytic(FULL_5X5, p))
        rem = np.polydiv(np.array(coeffs), np.array([1.0, 2.0, 1.0]))[1]
        worst = max(worst, float(np.max(np.abs(rem))))
    _report(5, worst <= 1e-8,
            f"max remainder coefficient {worst:.3e} over 10000 samples (limit 1e-8)")


def test_criterion_06_jacobian_cross_check():
    rng = np.random.default_rng(6)
    worst = 0.0
    for variant, _ in ALL_VARIANTS:
        for _ in range(100):
            vals = 10.0 ** rng.uniform(math.log10(0.01), 1.0, size=6)
            shared = vals[5]
            p = ModelParams(q=vals[0], q1=vals[1], q2=vals[2], tau0=vals[3],
                            c=shared, c1=shared, c2=shared, c3=vals[4])
            diff = np.abs(jacobian_analytic(variant, p)
                          - jacobian_numeric(variant, p))
            worst = max(worst, float(diff.max()))
    _report(6, worst <= 1e-6,
            f"max |analytic - central difference| = {worst:.3e} "
            f"over 100 points x 3 variants (limit 1e-6)")


def test_criterion_07_liquidity_boundary_reproduction():
    spec = SweepSpec(
        variant=LIQUIDITY_2X2,
        fixed=ModelParams(q=0.5, tau0=1.0, c=1.0),
        axis1=Axis("q", 0.0, 5.0, 101),
        axis2=Axis("c_over_tau0", 0.0, 3.0, 61),
        method=Method.EIGEN,
    )
    result = run_sweep(spec)
    cells = boundary_cells(result)
    qs, rs = spec.axis1.values(), spec.axis2.values()
    diag = math.hypot(qs[1] - qs[0], rs[1] - rs[0])
    worst = max(abs(qs[i] - 1.0 - rs[j]) / math.sqrt(2.0) for i, j in cells)
    ok = bool(cells) and worst <= diag
    _report(7, ok, f"{len(cells)} boundary cells, max distance to q=1+c/tau0 "
                   f"line {worst:.4f} (limit one cell diagonal {diag:.4f})")


def _k_q2_sweep(tau0, c3):
    spec = SweepSpec(
        variant=FULL_5X5,
        fixed=ModelParams(q=0.0, q1=0.0, q2=0.0, tau0=tau0, c=1.0, c1=1.0,
                          c2=1.0, c3=c3),
        axis1=Axis("K", 0.0, 6.0, 121),
        axis2=Axis("q2", 0.0, 3.0, 61),
        method=Method.CLOSED_FORM,
    )
    return run_sweep(spec)


def _stable_cells(result):
    return {(i, j)
            for i, row in enumerate(result.verdicts)
            for j, v in enumerate(row) if v is Verdict.STABLE}


def test_criterion_08_value_sentiment_region_geometry():
    slow = _k_q2_sweep(tau0=1.0, c3=1.0)
    fast = _k_q2_sweep(tau0=0.1, c3=1.0)
    upward_closed = True
    for result in (slow, fast):
        for row in result.verdicts:
            stable = [v is Verdict.STABLE for v in row]
            if any(stable) and not all(stable[stable.index(True):]):
                upward_closed = False
    slow_set, fast_set = _stable_cells(slow), _stable_cells(fast)
    contained = slow_set <= fast_set
    # anchor-clock comparison is informational only: the two inequalities
    # respond to c3 in opposite directions, so no direction is asserted
    anchor = _k_q2_sweep(tau0=1.0, c3=10.0)
    areas = (len(slow_set), len(_stable_cells(anchor)))
    ok = upward_closed and contained
    _report(8, ok, f"q2-upward-closed={upward_closed} "
                   f"stable set grows as tau0 drops 1->0.1: {contained} "
                   f"({len(slow_set)} -> {len(fast_set)} cells); "
                   f"c3=1 vs c3=10 stable areas {areas[0]} vs {areas[1]} (no gate)")


AMP_RANGE = (math.log10(0.05), math.log10(4.0))
CLOCK_RANGE = (math.log10(0.25), math.log10(4.0))


def _sample_point(variant, rng):
    def amp():
        return float(10.0 ** rng.uniform(*AMP_RANGE))

    def clock():
        return float(10.0 ** rng.uniform(*CLOCK_RANGE))

    if variant is LIQUIDITY_2X2:
        return ModelParams(q=amp(), q1=0.0, q2=0.0, tau0=clock(), c=clock(),
                           c1=1.0, c2=1.0, c3=1.0)
    if variant is SENTIMENT_3X3:
        return ModelParams(q=amp(), q1=amp(), q2=0.0, tau0=clock(), c=clock(),
                           c1=clock(), c2=1.0, c3=1.0)
    return ModelParams(q=amp(), q1=amp(), q2=amp(), tau0=clock(), c=1.0,
                       c1=1.0, c2=1.0, c3=clock())


def _cohort(variant, rng, lo, hi, count):
    out = []
    while len(out) < count:
        p = _sample_point(variant, rng)
        spec = eigenvalues(jacobian_analytic(variant, p))
        if lo <= spec[0].real <= hi:
            out.append((p, spec))
    return out


def _dominant_is_separated(spec):
    lam = spec[0]
    if abs(lam.imag) > 1e-9:
        return False
    rest = spec[1:]
    if any(abs(z - lam) <= 1e-9 for z in rest):
        return False
    return lam.real - max(z.real for z in rest) >= 0.05


def _linear_replay_rate(variant, params, traj, truncated):
    """Exact linear solution pushed through the same window and fit."""
    ref = equilibrium(variant)
    w, v = np.linalg.eig(jacobian_analytic(variant, params))
    kick = np.zeros(variant.dim)
    kick[0] = 1e-4
    coef = np.linalg.solve(v, kick)
    offsets = (v @ (coef[:, None] * np.exp(np.outer(w, traj.times)))).real
    replay = Trajectory(variant, traj.times, ref + offsets.T)
    return _fit_growth_rate(replay, ref, truncated)


def test_criterion_09_nonlinear_linear_agreement():
    rng = np.random.default_rng(2026)
    details = []
    ok = True
    for variant, name in ALL_VARIANTS:
        points = ([(p, s, EmpiricalVerdict.STABLE)
                   for p, s in _cohort(variant, rng, -0.4, -0.1, 50)]
                  + [(p, s, EmpiricalVerdict.UNSTABLE)
                     for p, s in _cohort(variant, rng, 0.1, 2.0, 50)])
        verdict_bad = rate_bad = feasible = separated = 0
        worst = 0.0
        for params, spec, want in points:
            outcome = perturb_and_classify(variant, params, SimConfig(horizon=50.0))
            if outcome.verdict is not want:
                verdict_bad += 1
            if not _dominant_is_separated(spec):
                continue
            separated += 1
            truncated = outcome.failure_time is not None
            lin = _linear_replay_rate(variant, params, outcome.trajectory, truncated)
            if not (np.isfinite(lin)
                    and abs(lin - spec[0].real) <= 0.125 * abs(spec[0].real)):
                continue  # rate not recoverable even from exact linear theory
            feasible += 1
            rel = abs(outcome.growth_rate - spec[0].real) / abs(spec[0].real)
            worst = max(worst, rel)
            if rel > 0.25:
                rate_bad += 1
        ok = ok and verdict_bad == 0 and rate_bad == 0 and feasible >= 10
        details.append(f"{name}: verdicts 100/100 ok={verdict_bad == 0}, "
                       f"rate within 25% on {feasible - rate_bad}/{feasible} "
                       f"feasible of {separated} separated (worst {worst:.3f})")
    _report(9, ok, "; ".join(details))


def test_criterion_10_integrator_order():
    p = ModelParams(q=0.2, q1=0.2, tau0=1.0, c=1.0, c1=1.0)
    x0 = np.array([1.3, 0.9, 0.1])

    def final(h):
        cfg = SimConfig(step=h, horizon=5.0)
        return integrate(SENTIMENT_3X3, p, x0, cfg).final_state

    ref = final(1e-4)
    err_coarse = float(np.max(np.abs(final(0.02) - ref)))
    err_fine = float(np.max(np.abs(final(0.01) - ref)))
    ratio = err_coarse / err_fine
    _report(10, 12.0 <= ratio <= 20.0,
            f"halving h: error {err_coarse:.3e} -> {err_fine:.3e}, "
            f"ratio {ratio:.2f} (required 12..20)")


def test_criterion_11_six_sigma_recurrence():
    tail = normal_tail(6.0)
    report = exceedance_report(sigma_daily=0.0075, drop=0.045)
    ok = (9.8e-10 <= tail <= 9.9e-10
          and report.k == 6.0
          and 0.9e9 <= report.recurrence_days <= 1.1e9)
    _report(11, ok, f"normal_tail(6)={tail:.6e}, "
                    f"recurrence={report.recurrence_days:.4e} days")


def _run(args, env):
    proc = subprocess.run([sys.executable, "-m", "cryptoflow", *args],
                          capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_criterion_12_byte_identical_reruns(tmp_path):
    env = dict(os.environ)
    pinned = dict(env, SOURCE_DATE_EPOCH="1700000000")
    checks = []

    def twice(label, args, out_name, env_used, second_args=None):
        first, second = tmp_path / f"a_{out_name}", tmp_path / f"b_{out_name}"
        out1 = _run([*args, "--out", str(first)], env_used)
        out2 = _run([*(second_args or args), "--out", str(second)], env_used)
        same = out1 == out2 and first.read_bytes() == second.read_bytes()
        checks.append((label, same))

    sweep = ["sweep", "--variant", "liquidity2x2", "--tau0", "1",
             "--axis1", "q:0:3:16", "--axis2", "c_over_tau0:0.5:2:11"]
    twice("sweep csv rerun", [*sweep, "--format", "csv"], "map.csv", env)
    twice("sweep json rerun", [*sweep, "--format", "json"], "map.json", pinned)
    twice("sweep json threads 1 vs 4", [*sweep, "--format", "json", "--threads", "1"],
          "map_t.json", pinned,
          second_args=[*sweep, "--format", "json", "--threads", "4"])
    verify = ["verify", "--variant", "sentiment3x3", "-n", "800", "--seed", "3"]
    twice("verify rerun", verify, "verify.json", env)
    twice("verify threads 1 vs 4", [*verify, "--threads", "1"], "verify_t.json", env,
          second_args=[*verify, "--threads", "4"])
    twice("baseline rerun", ["baseline", "-n", "500", "--seed", "11",
                             "--drop", "0.045"], "path.csv", env)
    twice("simulate rerun", ["simulate", "--variant", "sentiment3x3", "--q", "0.2",
                             "--q1", "0.2", "--tau0", "1", "--horizon", "20"],
          "traj.csv", env)

    bad = [label for label, same in checks if not same]
    _report(12, not bad,
            f"{len(checks)} rerun comparisons byte-identical"
            + (f"; differing: {bad}" if bad else ""))
