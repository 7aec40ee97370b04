"""Smoke test of the benchmark at minimal sizes.

Run from the root of the checkout:

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import run
import workloads as wl

sys.path.insert(0, str(run.SRC))
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def work():
    path = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=run.ROOT))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _units(result: dict) -> dict:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_every_metric_is_reported_with_its_unit(workload, work):
    facts, timed = run.timed_run(workload, 5, 0.0, wl.SMOKE, work)
    assert _units(timed) == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert timed["correct"] and timed["failed"] == 0, facts["failures"]
    assert all(m["value"] > 0 for m in timed["metrics"].values())
    # Inputs the README says to reject, scored outside the timed operations.
    assert [p["readme_exit"] for p in facts["readme_contract_probes"]] == [2, 2, 2]

    traced_facts, traced = run.traced_run(workload, 5, wl.SMOKE, work)
    assert _units(traced) == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert traced["correct"], traced_facts["failures"]
    # Same seed, same outputs: child processes, untraced and traced replays.
    assert set(traced_facts["digests"].values()) == {facts["digest_first_cycle"]}


def test_wrong_expected_result_counts_as_failed(work, monkeypatch):
    stable = wl.cohort_point("liquidity2x2", np.random.default_rng(0), -0.4, -0.1)
    cycle = [
        wl.Invocation("analyze", ["--variant", "liquidity2x2"], expect_exit=2),
        wl.Invocation("simulate", ["--variant", "liquidity2x2", *wl.param_args(stable)],
                      info={"expect": "unstable"}),
        wl.Invocation("analyze", ["--variant", "liquidity2x2", "--tau0", "-1"],
                      expect_exit=2),
    ]
    monkeypatch.setattr(wl, "make_cycle", lambda *args: cycle)
    facts, result = run.timed_run("point", 0, 0.0, wl.SMOKE, work)
    assert (result["attempted"], result["failed"], result["correct"]) == (3, 2, False)
    assert facts["failures"] == {"0": "exit 0, expected 2",
                                 "1": "verdict stable, cohort is unstable"}
    assert result["metrics"]["ok_ratio"]["value"] == pytest.approx(1 / 3)


def test_fails_without_sources(work):
    copy = work / "bare"
    shutil.copytree(run.ROOT / "perfbench", copy / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", copy)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "point",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=copy, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
