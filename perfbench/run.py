"""Benchmark for the cryptoflow CLI: end-to-end runs and a traced per-layer replay.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload point --seed 1 --seconds 18 --trace 0

``--trace 0`` times the workload as a closed loop with one client: it starts
one fresh ``python -m cryptoflow ...`` process at a time, waits for it to
exit, and repeats whole cycles of the workload until ``--seconds`` have
passed.  Every invocation's exit code and output are checked afterwards.
``--trace 1`` replays the first cycle's argument lists in this process
through ``cryptoflow.cli.main``, untraced, traced, and untraced again, and
reports the per-layer metrics.  Both print a JSON line of run facts, then the
result as the last line of standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path
from unittest import mock

import numpy as np

import workloads as wl
from tracing import Tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SOURCE_DATE_EPOCH = "1700000000"
CHILD_TIMEOUT_S = 120.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS")


def child_env() -> dict:
    """Environment of every child: the checkout's sources, a pinned
    SOURCE_DATE_EPOCH, and the inherited BLAS settings left as they are."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["SOURCE_DATE_EPOCH"] = SOURCE_DATE_EPOCH
    env.pop("CRYPTOFLOW_THREADS", None)  # thread counts come from the workload
    return env


def spawn(cmd: list[str], env: dict, work: Path) -> wl.Outcome:
    """Run one child to completion; wall time from start to exit, CPU and
    max-RSS from wait4."""
    stdout_path, stderr_path = work / "stdout", work / "stderr"
    with open(stdout_path, "wb") as so, open(stderr_path, "wb") as se:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=so, stderr=se,
                                env=env, cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wl.Outcome(exit=proc.returncode, stdout=stdout_path.read_bytes(),
                      stderr=stderr_path.read_bytes(), out=None, wall=wall,
                      cpu=usage.ru_utime + usage.ru_stime, rss_kb=usage.ru_maxrss)


def out_path(inv: wl.Invocation, work: Path) -> Path | None:
    return work / f"out.{inv.out_suffix}" if inv.out_suffix else None


def collect_out(res: wl.Outcome, path: Path | None) -> wl.Outcome:
    """Move the --out file, if one was written, into the outcome."""
    if path is not None and path.exists():
        res.out = path.read_bytes()
        path.unlink()
    return res


def run_child(inv: wl.Invocation, env: dict, work: Path) -> wl.Outcome:
    path = out_path(inv, work)
    cmd = [sys.executable, "-m", "cryptoflow", *inv.argv(str(path))]
    return collect_out(spawn(cmd, env, work), path)


def digest(results: list[wl.Outcome]) -> str:
    """SHA-256 over every stdout and --out file, in invocation order."""
    h = hashlib.sha256()
    for res in results:
        for blob in (res.stdout, res.out or b""):
            h.update(len(blob).to_bytes(8, "little"))
            h.update(blob)
    return h.hexdigest()


def failures_of(invocations: list[wl.Invocation], results: list[wl.Outcome]) -> dict:
    """Map invocation index to the reason its outcome breaks the contract."""
    from cryptoflow.sweep import map_from_json

    failures = {}
    for i, (inv, res) in enumerate(zip(invocations, results)):
        try:
            reason = wl.check(inv, res)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            reason = f"unreadable output: {exc!r}"
        if reason:
            failures[i] = reason
    wl.check_groups(invocations, results, failures, map_from_json)
    return failures


def tail(values: list[float]) -> tuple[float, float]:
    """Value and rank of the highest percentile with >= 10 samples beyond it."""
    s = sorted(values)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def import_seconds(env: dict, work: Path) -> float:
    res = spawn([sys.executable, "-c", "import cryptoflow"], env, work)
    if res.exit != 0:
        raise RuntimeError(f"import cryptoflow failed: {res.stderr.decode()[-2000:]}")
    return res.wall


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True,
                              timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads_inherited": {k: os.environ.get(k) for k in BLAS_ENV},
        # Set, children recompile the package on every start, and setup_s shows it.
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "git_commit": git_commit(),
    }


def map_threads() -> int:
    return min(2, os.cpu_count() or 1)


def timed_run(workload: str, seed: int, seconds: float, sizes: wl.Sizes,
              work: Path) -> tuple[dict, dict]:
    env = child_env()
    facts = {"machine": machine_facts(), "loadavg_before": os.getloadavg()}
    import_seconds(env, work)  # warm the page cache and bytecode; not counted

    rng = np.random.default_rng(seed)
    invocations, results, setup = [], [], []
    elapsed, cycles, last_setup = 0.0, 0, -math.inf
    while cycles == 0 or elapsed < seconds:
        cycle = wl.make_cycle(workload, rng, cycles, sizes, map_threads())
        for inv in cycle:
            # Set-up samples are spread over the run so that they see the
            # same machine conditions as the invocations; they cost no loop time.
            if elapsed - last_setup >= sizes.setup_every_s:
                setup.append(import_seconds(env, work))
                last_setup = elapsed
            t0 = time.perf_counter()
            results.append(run_child(inv, env, work))
            elapsed += time.perf_counter() - t0
        invocations += cycle
        if cycles == 0:
            first_cycle = len(cycle)
        cycles += 1

    failures = failures_of(invocations, results)
    units = sum(wl.work_units(workload, inv, res)
                for i, (inv, res) in enumerate(zip(invocations, results))
                if i not in failures)
    walls = [res.wall for res in results]
    tail_value, tail_rank = tail(walls)
    defects = []
    for inv in wl.KNOWN_DEFECTS:
        res = run_child(inv, env, work)
        defects.append({"argv": inv.argv(None), "readme_exit": inv.expect_exit,
                        "exit": res.exit, "holds": wl.check(inv, res) is None,
                        "known_defect": inv.info["defect"]})
    n = len(results)
    facts.update({
        "workload": workload, "seed": seed, "seconds": seconds,
        "loop": "closed", "clients": 1, "cycles": cycles, "invocations": n,
        "loop_wall_s": elapsed, "work_unit": wl.WORK_UNITS[workload], "work_done": units,
        "latency_tail": {"percentile": tail_rank, "samples": n},
        "setup_samples_s": setup,
        "digest_first_cycle": digest(results[:first_cycle]),
        "failures": {str(i): reason for i, reason in sorted(failures.items())},
        "readme_contract_probes": defects,
        "loadavg_after": os.getloadavg(),
    })
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "latency_p50_s": (statistics.median(walls), "s"),
        "latency_tail_s": (tail_value, "s"),
        "throughput_per_s": (units / elapsed, "1/s"),
        "cpu_p50_s": (statistics.median(res.cpu for res in results), "s"),
        "peak_rss_mb": (max(res.rss_kb for res in results) / 1024.0, "MB"),
        "ok_ratio": ((n - len(failures)) / n, "ratio"),
    }
    return facts, result_line(not failures, n, len(failures), metrics)


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> dict:
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": float(value), "unit": unit}
                        for name, (value, unit) in metrics.items()}}


# ---------------------------------------------------------------- traced replay

def replay(cycle: list[wl.Invocation], work: Path) -> tuple[list[wl.Outcome], float]:
    """Run the cycle in this process through cryptoflow.cli.main."""
    from cryptoflow import cli

    results = []
    t_start = time.perf_counter()
    for inv in cycle:
        path = out_path(inv, work)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(inv.argv(str(path)))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a traceback is an outcome to score, not a crash
                traceback.print_exc()
                code = 1
        results.append(collect_out(wl.Outcome(exit=code, stdout=stdout.getvalue().encode(),
                                              stderr=stderr.getvalue().encode(), out=None),
                                   path))
    return results, time.perf_counter() - t_start


def import_profile(env: dict) -> tuple[float, float]:
    """Cumulative import time of cryptoflow, and of the outermost scipy
    modules under it, from ``-X importtime`` in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import cryptoflow"],
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    rows = []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, name.strip(), int(cumulative) * 1e-6))
    total = next(cum for _, name, cum in rows if name == "cryptoflow")
    # Rows are printed children first; walking backwards visits each parent
    # before its subtree, so only the outermost scipy module of a subtree counts.
    scipy, inside = 0.0, None
    for depth, name, cum in reversed(rows):
        if inside is not None and depth <= inside:
            inside = None
        if inside is None and (name == "scipy" or name.startswith("scipy.")):
            scipy += cum
            inside = depth
    return total, scipy


def _count_integrate(tr: Tracer, result, error) -> None:
    traj = result if result is not None else getattr(error, "partial", None)
    if traj is not None:
        tr.counts["rk4_steps"] += len(traj.times) - 1
    if error is not None and type(error).__name__ in ("BlowUp", "StateOutOfDomain"):
        tr.counts["guard_trips"] += 1


def _count_sweep(tr: Tracer, result, error) -> None:
    if result is not None:
        cells = [v.value for row in result.verdicts for v in row]
        tr.counts["sweep_cells"] += len(cells)
        tr.counts["sweep_invalid"] += cells.count("invalid")


def _count_verify(tr: Tracer, result, error) -> None:
    if result is not None:
        tr.counts["verify_samples"] += result.samples
        tr.counts["verify_compared"] += result.samples - result.excluded


HOOKS = {"simulate.integrate": _count_integrate, "sweep.run_sweep": _count_sweep,
         "criteria.verify_consistency": _count_verify}

CRITERIA = ("criteria.criterion_2x2", "criteria.criterion_3x3",
            "criteria.criterion_5x5_q2zero", "criteria.rh_5x5",
            "criteria.sufficient_5x5", "criteria.simple_condition_5x5")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, import_total: float, import_scipy: float,
                  overhead: float) -> dict:
    us = 1e6
    c = tr.counts
    jacobians = ("stability.jacobian_analytic", "stability.jacobian_numeric")
    return {
        "import.total_s": (import_total, "s"),
        "import.scipy_s": (import_scipy, "s"),
        "cli.parse_s": (tr.mean("cli.parse_config"), "s"),
        "cli.self_s": (_ratio(tr.self_time["cli.main"] + tr.self_time["cli.execute"],
                              tr.calls["cli.main"]), "s"),
        "stability.jacobian_calls": (sum(tr.calls[n] for n in jacobians), "count"),
        "stability.jacobian_us": (tr.mean(*jacobians) * us, "us"),
        "stability.eigen_calls": (tr.calls["stability.eigenvalues"], "count"),
        "stability.eigen_us": (tr.mean("stability.eigenvalues") * us, "us"),
        "stability.classify_us": (tr.mean("stability.classify") * us, "us"),
        "criteria.criterion_calls": (sum(tr.calls[n] for n in CRITERIA), "count"),
        "criteria.criterion_us": (tr.mean(*CRITERIA) * us, "us"),
        "criteria.verify_s": (tr.mean("criteria.verify_consistency"), "s"),
        "criteria.verify_self_s": (_ratio(tr.self_time["criteria.verify_consistency"],
                                          tr.calls["criteria.verify_consistency"]), "s"),
        "criteria.compared_ratio": (_ratio(c["verify_compared"], c["verify_samples"]),
                                    "ratio"),
        "sweep.cells": (c["sweep_cells"], "count"),
        "sweep.run_s": (tr.mean("sweep.run_sweep"), "s"),
        "sweep.self_s": (_ratio(tr.self_time["sweep.run_sweep"],
                                tr.calls["sweep.run_sweep"]), "s"),
        "sweep.invalid_ratio": (_ratio(c["sweep_invalid"], c["sweep_cells"]), "ratio"),
        "sweep.export_json_s": (tr.mean("sweep.StabilityMap.to_json"), "s"),
        "sweep.export_csv_s": (tr.mean("sweep.StabilityMap.to_csv"), "s"),
        "sweep.export_svg_s": (tr.mean("sweep.StabilityMap.to_svg"), "s"),
        "model.rhs_calls": (tr.calls["model.rhs"], "count"),
        "model.rhs_us": (tr.mean("model.rhs") * us, "us"),
        "simulate.rk4_steps": (c["rk4_steps"], "count"),
        "simulate.integrate_s": (tr.mean("simulate.integrate"), "s"),
        "simulate.step_us": (_ratio(tr.self_time["simulate.integrate"], c["rk4_steps"]) * us,
                             "us"),
        "simulate.guard_trips": (c["guard_trips"], "count"),
        "simulate.csv_s": (tr.mean("simulate.Trajectory.to_csv"), "s"),
        "gbm.simulate_s": (tr.mean("gbm.gbm_simulate"), "s"),
        "gbm.csv_s": (tr.mean("gbm.gbm_path_csv"), "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }


def traced_run(workload: str, seed: int, sizes: wl.Sizes,
               work: Path) -> tuple[dict, dict]:
    env = child_env()
    facts = {"machine": machine_facts(), "loadavg_before": os.getloadavg()}
    profiles = [import_profile(env) for _ in range(sizes.import_repeats)]
    cycle = wl.make_cycle(workload, np.random.default_rng(seed), 0, sizes, map_threads())

    # The replays see the environment the children get; patch.dict restores it.
    with mock.patch.dict(os.environ, {"SOURCE_DATE_EPOCH": SOURCE_DATE_EPOCH}):
        os.environ.pop("CRYPTOFLOW_THREADS", None)
        untraced, wall_a = replay(cycle, work)
        tracer = Tracer()
        tracer.install(HOOKS)
        try:
            traced, wall_traced = replay(cycle, work)
        finally:
            tracer.uninstall()
        untraced_again, wall_b = replay(cycle, work)

    digests = [digest(r) for r in (untraced, traced, untraced_again)]
    failures = failures_of(cycle, traced)
    overhead = wall_traced / statistics.mean([wall_a, wall_b])
    facts.update({
        "workload": workload, "seed": seed, "invocations": len(cycle),
        "replay_wall_s": {"untraced": [wall_a, wall_b], "traced": wall_traced},
        "digests": {"untraced": digests[0], "traced": digests[1],
                    "untraced_again": digests[2]},
        "failures": {str(i): reason for i, reason in sorted(failures.items())},
        "spans": {name: {"calls": tracer.calls[name], "total_s": tracer.total[name],
                         "self_s": tracer.self_time[name]}
                  for name in sorted(tracer.calls)},
        "counts": dict(tracer.counts),
        "loadavg_after": os.getloadavg(),
    })
    metrics = layer_metrics(tracer, statistics.median(p[0] for p in profiles),
                            statistics.median(p[1] for p in profiles), overhead)
    correct = not failures and len(set(digests)) == 1
    return facts, result_line(correct, len(cycle), len(failures), metrics)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cryptoflow" / "__init__.py").is_file():
        print(f"perfbench: no cryptoflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT))
    try:
        if args.trace:
            facts, result = traced_run(args.workload, args.seed, wl.FULL, work)
        else:
            facts, result = timed_run(args.workload, args.seed, args.seconds, wl.FULL, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(facts, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
