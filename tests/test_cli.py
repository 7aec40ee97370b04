"""Command-line behaviour: parsing, precedence, exit codes, artifacts."""

import json
import os
import subprocess
import sys

import pytest

from cryptoflow import FULL_5X5, LIQUIDITY_2X2, SENTIMENT_3X3, ModelParams, Variant
from cryptoflow.cli import main
from cryptoflow.criteria import closed_forms


def run_cli(capsys, *args):
    try:
        code = main(list(args))
    except SystemExit as exc:  # argparse-native exits
        code = exc.code if exc.code is not None else 0
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_unstable_sentiment(capsys):
    code, out, err = run_cli(capsys, "analyze", "--variant", "sentiment3x3",
                             "--q", "2", "--q1", "1", "--tau0", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["params"]["q"] == 2.0
    assert doc["params"]["q1"] == 1.0
    assert doc["params"]["tau0"] == 1.0
    assert doc["params"]["c3"] == 10.0  # untouched default
    assert doc["verdict"]["tag"] == "unstable"
    assert doc["verdict"]["max_real"] > 0.0
    assert doc["closed_form"]["criterion_3x3"]["verdict"] == "unstable"
    assert doc["version"]
    assert doc["eps"] == 1e-8 and doc["band"] == 1e-6


def test_analyze_defaults_to_full_variant(capsys):
    code, out, _ = run_cli(capsys, "analyze")
    assert code == 0
    doc = json.loads(out)
    assert doc["variant"] == "full5x5"
    assert len(doc["jacobian"]) == 5
    assert len(doc["eigenvalues"]) == 5
    assert doc["ignored_fields"] == []


def test_bad_float_token_exits_2(capsys):
    code, _, err = run_cli(capsys, "analyze", "--q", "banana")
    assert code == 2
    assert "banana" in err


def test_missing_verb_exits_2(capsys):
    code, _, _ = run_cli(capsys)
    assert code == 2


def test_version_flag(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0


def test_config_supplies_values(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"q": 1.0, "variant": "liquidity2x2"}))
    code, out, _ = run_cli(capsys, "analyze", "--config", str(cfg))
    assert code == 0
    doc = json.loads(out)
    assert doc["variant"] == "liquidity2x2"
    assert doc["params"]["q"] == 1.0


def test_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"q": 1.0}))
    code, out, _ = run_cli(capsys, "analyze", "--config", str(cfg), "--q", "2")
    assert code == 0
    assert json.loads(out)["params"]["q"] == 2.0


@pytest.mark.parametrize(
    "payload",
    [
        {"qq": 1.0},            # unknown key
        {"q": True},            # bool is not a number
        {"seed": 1.5},          # float is not an integer
        {"variant": "bogus"},   # not a variant
        {"format": "yaml"},     # not an export format
        {"q": 10**400},         # an integer beyond the float range
    ],
)
def test_bad_config_exits_2(tmp_path, capsys, payload):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(payload))
    code, _, err = run_cli(capsys, "analyze", "--config", str(cfg))
    assert code == 2
    assert json.loads(err)["error"]


def test_sweep_rejects_inverted_axis(capsys):
    code, _, err = run_cli(capsys, "sweep", "--variant", "liquidity2x2",
                           "--axis1", "q:2:1:5", "--axis2", "tau0:0.1:1:5")
    assert code == 2
    assert json.loads(err)["error"]


@pytest.mark.parametrize("axis2", ["c_over_tau0:0.5:2:3", "tau0:0.5:2:3"])
@pytest.mark.parametrize("variant,field", [("liquidity2x2", "c1"), ("sentiment3x3", "c2")])
def test_sweep_rejects_bad_field_no_axis_writes(capsys, variant, field, axis2):
    # the ratio axis moves only the clocks the variant ties to c
    code, out, err = run_cli(capsys, "sweep", "--variant", variant, f"--{field}", "-1",
                             "--axis1", "q:0:2:3", "--axis2", axis2)
    assert code == 2
    assert out == ""
    assert f"{field} must be positive" in json.loads(err)["message"]


def test_sweep_requires_axes(capsys):
    code, _, _ = run_cli(capsys, "sweep")
    assert code == 2


def test_sweep_writes_csv(tmp_path, capsys):
    out_file = tmp_path / "map.csv"
    code, _, _ = run_cli(capsys, "sweep", "--variant", "liquidity2x2",
                         "--tau0", "1", "--axis1", "q:0:2:5",
                         "--axis2", "c_over_tau0:0.5:1.5:3",
                         "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().strip().split("\n")
    assert lines[0] == "axis1,axis2,max_real_or_margin,verdict"
    assert len(lines) == 16


def test_sweep_infers_json_from_suffix(tmp_path, capsys):
    out_file = tmp_path / "map.json"
    code, _, _ = run_cli(capsys, "sweep", "--variant", "liquidity2x2",
                         "--tau0", "1", "--axis1", "q:0:2:3",
                         "--axis2", "c_over_tau0:0.5:1.5:3",
                         "--out", str(out_file))
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["type"] == "stability_map"
    assert doc["axis1"]["steps"] == 3


def test_verify_clean_run_exits_0(capsys):
    code, out, _ = run_cli(capsys, "verify", "--variant", "liquidity2x2",
                           "-n", "400", "--seed", "7")
    assert code == 0
    doc = json.loads(out)
    assert doc["mismatches"] == 0
    assert doc["criterion"] == "criterion_2x2"
    assert doc["samples"] == 400


def test_verify_pins_explicit_params(capsys):
    code, out, _ = run_cli(capsys, "verify", "--variant", "full5x5",
                           "--q2", "0", "-n", "300")
    assert code == 0
    doc = json.loads(out)
    assert doc["criterion"] == "criterion_5x5_q2zero"
    assert doc["pinned"] == {"q2": 0.0}
    assert doc["simple_condition_agreement"] is not None


@pytest.mark.parametrize("variant", [FULL_5X5, SENTIMENT_3X3, LIQUIDITY_2X2])
def test_verbs_read_one_closed_form_table(capsys, variant):
    tag = variant.tag.value
    forms = closed_forms(variant)
    code, out, _ = run_cli(capsys, "analyze", "--variant", tag)
    assert code == 0
    assert set(json.loads(out)["closed_form"]) == {name for name, _ in forms}

    pin = ["--q2", "0"] if variant.tag is Variant.FULL_5X5 else ["--q", "0.3"]
    for extra, q2_zero in (([], False), (pin, pin[0] == "--q2")):
        code, out, _ = run_cli(capsys, "verify", "--variant", tag, "-n", "50", *extra)
        assert code == 0
        assert json.loads(out)["criterion"] == closed_forms(variant, q2_zero)[0][0]

    code, out, _ = run_cli(capsys, "sweep", "--variant", tag, "--method", "closed_form",
                           "--tau0", "1", "--axis1", "q:0:2:3", "--axis2", "q1:0:1:2",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    cell = ModelParams(**{**doc["fixed"], "q": 1.0, "q1": 1.0})
    margin = forms[0][1](cell, doc["metadata"]["band"]).margin
    assert margin != 0.0
    assert doc["values"][1][1] == margin


def test_simulate_emits_verdict_and_csv(tmp_path, capsys):
    out_file = tmp_path / "traj.csv"
    code, out, _ = run_cli(capsys, "simulate", "--variant", "sentiment3x3",
                           "--q", "0.2", "--q1", "0.2", "--tau0", "1",
                           "--horizon", "50", "--out", str(out_file))
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "stable"
    assert doc["step"] == pytest.approx(1.0 / 20)
    assert out_file.read_text().startswith("t,P,L,zeta1\n")


def test_runtime_error_exits_3(capsys):
    # full-variant spectrum needs tied reaction scales
    code, _, err = run_cli(capsys, "analyze", "--c1", "2")
    assert code == 3
    doc = json.loads(err)
    assert "UnsupportedScaling" in doc["error"]


def test_baseline_report_and_path(tmp_path, capsys):
    out_file = tmp_path / "path.csv"
    code, out, _ = run_cli(capsys, "baseline", "-n", "50", "--seed", "3",
                           "--drop", "0.045", "--out", str(out_file))
    assert code == 0
    doc = json.loads(out)
    assert doc["exceedance"]["k"] == pytest.approx(6.0)
    assert 0.9e9 <= doc["exceedance"]["recurrence_days"] <= 1.1e9
    lines = out_file.read_text().strip().split("\n")
    assert lines[0] == "t,P"
    assert len(lines) == 52


def test_baseline_rejects_zero_drop(capsys):
    code, _, _ = run_cli(capsys, "baseline", "--drop", "0")
    assert code == 2


def test_threads_env_default(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CRYPTOFLOW_THREADS", "3")
    code, out, _ = run_cli(capsys, "verify", "--variant", "liquidity2x2", "-n", "200")
    assert code == 0
    baseline = json.loads(out)
    monkeypatch.delenv("CRYPTOFLOW_THREADS")
    code, out, _ = run_cli(capsys, "verify", "--variant", "liquidity2x2", "-n", "200")
    assert code == 0
    assert json.loads(out) == baseline


def test_threads_env_must_be_integer(capsys, monkeypatch):
    monkeypatch.setenv("CRYPTOFLOW_THREADS", "many")
    code, _, _ = run_cli(capsys, "verify", "--variant", "liquidity2x2", "-n", "10")
    assert code == 2


def test_nan_survives_json_output(tmp_path, capsys):
    # indeterminate growth fits may produce non-finite numbers; output stays JSON
    code, out, _ = run_cli(capsys, "simulate", "--variant", "sentiment3x3",
                           "--q", "2", "--q1", "1", "--tau0", "1",
                           "--horizon", "50")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "unstable"


def _one_json_line(err):
    lines = err.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


@pytest.mark.parametrize("args", [
    ("analyze", "--variant", "sentiment3x3", "--q", "nan"),
    ("simulate", "--variant", "sentiment3x3", "--q", "nan"),
    ("analyze", "--variant", "liquidity2x2", "--tau0", "inf"),
    ("verify", "--variant", "liquidity2x2", "--c=-inf", "-n", "10"),
    ("sweep", "--variant", "liquidity2x2", "--q1", "nan",
     "--axis1", "q:0:1:3", "--axis2", "tau0:1:2:3"),
])
def test_non_finite_parameter_exits_2(capsys, args):
    code, out, err = run_cli(capsys, *args)
    assert code == 2
    assert out == ""
    assert "must be finite" in _one_json_line(err)["message"]


@pytest.mark.parametrize("axis", ["q:0:inf:3", "q:-inf:1:3", "q:nan:1:3",
                                  "q:-1e308:1e308:3"])
def test_sweep_rejects_non_finite_axis(capsys, axis):
    code, out, err = run_cli(capsys, "sweep", "--variant", "liquidity2x2",
                             "--axis1", axis, "--axis2", "tau0:1:2:3")
    assert code == 2
    assert out == ""
    _one_json_line(err)


@pytest.mark.parametrize("args", [
    ("analyze",),
    ("sweep", "--variant", "liquidity2x2", "--axis1", "q:0:1:3",
     "--axis2", "tau0:1:2:3"),
    ("verify", "--variant", "liquidity2x2", "-n", "10"),
    ("simulate", "--variant", "liquidity2x2", "--horizon", "1"),
    ("baseline", "-n", "10"),
])
def test_unwritable_out_exits_3(tmp_path, capsys, args):
    target = tmp_path / "missing" / "out.json"
    code, out, err = run_cli(capsys, *args, "--out", str(target))
    assert code == 3
    assert out == ""
    assert _one_json_line(err)["error"] == "FileNotFoundError"


def test_bad_source_date_epoch_exits_2(capsys, monkeypatch):
    sweep = ("sweep", "--variant", "liquidity2x2", "--axis1", "q:0:1:3",
             "--axis2", "tau0:1:2:3", "--format", "json")
    for epoch in ("abc", "1.5", "99999999999999999999"):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
        code, out, err = run_cli(capsys, *sweep)
        assert code == 2
        assert out == ""
        assert "SOURCE_DATE_EPOCH" in _one_json_line(err)["message"]


def test_bad_source_date_epoch_in_a_fresh_process():
    # scipy.special's import reads the variable too; it must not crash first.
    env = dict(os.environ, SOURCE_DATE_EPOCH="abc")
    proc = subprocess.run([sys.executable, "-m", "cryptoflow", "sweep", "--variant",
                           "liquidity2x2", "--axis1", "q:0:1:3", "--axis2", "tau0:1:2:3"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "SOURCE_DATE_EPOCH" in _one_json_line(proc.stderr)["message"]


@pytest.mark.parametrize("args,message", [
    (("simulate", "--step", "100"), "must not exceed horizon"),
    (("simulate", "--horizon", "inf"), "horizon must be finite"),
    # 1e600 steps: rejected before anything runs
    (("simulate", "--horizon", "1e300", "--step", "1e-300"), "is not finite"),
    # the derived step is 5e-302, so the step count overflows the same way
    (("simulate", "--variant", "liquidity2x2", "--tau0", "1e-300", "--c", "1e-300",
      "--horizon", "1e300"), "is not finite"),
    (("verify", "--variant", "liquidity2x2", "-n", "100", "--eps", "inf"),
     "eps must be finite"),
    (("verify", "--variant", "liquidity2x2", "-n", "100", "--band", "inf"),
     "band must be finite"),
    (("baseline", "--mu", "nan"), "mu must be finite"),
    (("baseline", "--sigma", "inf"), "sigma must be finite"),
    (("baseline", "--step", "inf"), "dt must be finite"),
    (("baseline", "--p0", "inf"), "p0 must be finite"),
    (("baseline", "--drop", "inf"), "drop must be finite"),
])
def test_non_finite_option_exits_2(capsys, args, message):
    code, out, err = run_cli(capsys, *args)
    assert code == 2
    assert out == ""
    assert message in _one_json_line(err)["message"]


def test_analyze_reports_nan_margin_as_closed_form_error(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--variant", "full5x5",
                           "--tau0", "1e-200", "--c3", "1e-200")
    assert code == 0
    entry = json.loads(out)["closed_form"]["rh_5x5"]
    assert entry == {"error": "ConvergenceFailure: rh_5x5 margin is not a number "
                              "at these parameters"}


def test_simulate_csv_holds_the_trajectory(tmp_path, capsys):
    out_file = tmp_path / "traj.csv"
    code, out, _ = run_cli(capsys, "simulate", "--variant", "full5x5", "--horizon", "1",
                           "--step", "0.03", "--out", str(out_file))
    assert code == 0
    rows = out_file.read_text().splitlines()
    assert rows[0] == "t,P,Pa,L,zeta1,zeta2"
    assert len(rows) == 1 + 35  # t = 0, 33 full steps, 1 partial step
    assert rows[1] == "0,1.0001,1,1,0,0"
    assert rows[-1].split(",")[0] == "1"
