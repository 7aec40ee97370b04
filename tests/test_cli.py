"""Command-line behaviour: parsing, precedence, exit codes, artifacts."""

import json
import os

import pytest

from conftest import positional_ids
from cryptoflow import FULL_5X5, LIQUIDITY_2X2, SENTIMENT_3X3, ModelParams
from cryptoflow.cli import OPTIONS, main
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


@pytest.mark.parametrize("variant", [FULL_5X5, SENTIMENT_3X3, LIQUIDITY_2X2],
                         ids=positional_ids(3))
def test_verbs_read_one_closed_form_table(capsys, variant):
    tag = variant.value
    forms = closed_forms(variant)
    code, out, _ = run_cli(capsys, "analyze", "--variant", tag)
    assert code == 0
    assert set(json.loads(out)["closed_form"]) == {name for name, _ in forms}

    pin = ["--q2", "0"] if variant is FULL_5X5 else ["--q", "0.3"]
    q2_route = "criterion_5x5_q2zero" if variant is FULL_5X5 else forms[0][0]
    for extra, route in (([], forms[0][0]), (pin, q2_route)):
        code, out, _ = run_cli(capsys, "verify", "--variant", tag, "-n", "50", *extra)
        assert code == 0
        assert json.loads(out)["criterion"] == route

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


@pytest.mark.parametrize("verb", [("verify", "--variant", "liquidity2x2", "-n", "20"),
                                  ("baseline", "-n", "20")], ids=lambda v: v[0])
def test_a_negative_seed_is_named_and_a_large_one_accepted(capsys, verb):
    # the negative seed: REJECTED's verify --seed -1 and baseline --seed -3
    code, out, _ = run_cli(capsys, *verb, "--seed", str(2**80))
    assert code == 0
    assert json.loads(out)["seed"] == 2**80


def test_the_cli_reads_no_threads_variable(capsys, monkeypatch):
    monkeypatch.delenv("CRYPTOFLOW_THREADS", raising=False)
    expected = run_cli(capsys, "analyze", "--variant", "liquidity2x2")
    monkeypatch.setenv("CRYPTOFLOW_THREADS", "many")
    assert run_cli(capsys, "analyze", "--variant", "liquidity2x2") == expected
    assert expected[0] == 0


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


OUT_VERBS = [
    ("analyze",),
    ("sweep", "--variant", "liquidity2x2", "--axis1", "q:0:1:3",
     "--axis2", "tau0:1:2:3"),
    ("verify", "--variant", "liquidity2x2", "-n", "10"),
    ("simulate", "--variant", "liquidity2x2", "--horizon", "1"),
    ("baseline", "-n", "10"),
]


@pytest.mark.parametrize("args", OUT_VERBS)
def test_unwritable_out_exits_3(tmp_path, capsys, args):
    target = tmp_path / "missing" / "out.json"
    code, out, err = run_cli(capsys, *args, "--out", str(target))
    assert code == 3
    assert out == ""
    assert _one_json_line(err)["error"] == "FileNotFoundError"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("args", OUT_VERBS)
def test_out_on_a_full_device_exits_3_before_stdout(capsys, args):
    # the --out file is written before stdout, and fails as it is closed
    code, out, err = run_cli(capsys, *args, "--out", "/dev/full")
    assert code == 3
    assert out == ""
    assert _one_json_line(err) == {"error": "OSError",
                                   "message": "[Errno 28] No space left on device"}


def test_a_run_that_fails_before_its_result_leaves_out_as_it_was(tmp_path, capsys):
    # 10^18 steps: countable, but the trajectory buffer cannot be allocated.
    # The counts refused before numpy loads are REJECTED rows (test_cli_process.py).
    out_file = tmp_path / "traj.csv"
    out_file.write_bytes(b"t,P\r\nkept\n")
    code, out, err = run_cli(capsys, "simulate", "--horizon", "1e10", "--step", "1e-8",
                             "--out", str(out_file))
    assert code == 3
    assert out == ""
    doc = _one_json_line(err)
    assert doc["error"] == "MemoryError"
    assert "allocate" in doc["message"]
    assert out_file.read_bytes() == b"t,P\r\nkept\n"


def test_analyze_reports_nan_margin_as_closed_form_error(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--variant", "full5x5",
                           "--tau0", "1e-200", "--c3", "1e-200")
    assert code == 0
    entry = json.loads(out)["closed_form"]["rh_5x5"]
    assert entry == {"error": "ConvergenceFailure: rh_5x5 margin is not a number "
                              "at these parameters"}


def test_an_overflowing_jacobian_is_not_reported_as_a_failed_iteration(capsys):
    # 1/tau0 overflows, so no eigenvalue iteration runs
    code, out, err = run_cli(capsys, "analyze", "--variant", "full5x5", "--tau0", "1e-310")
    assert (code, out) == (3, "")
    assert _one_json_line(err) == {"error": "ConvergenceFailure", "message":
                                   "matrix has a non-finite entry; no eigenvalues computed"}


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


def test_simulate_rejects_a_step_that_gets_a_mode_wrong(tmp_path, capsys):
    out_file = tmp_path / "traj.csv"
    args = ("simulate", "--variant", "liquidity2x2", "--step", "0.3", "--horizon", "30")
    code, out, err = run_cli(capsys, *args, "--out", str(out_file))
    assert code == 2
    assert out == "" and not out_file.exists()
    message = _one_json_line(err)["message"]
    assert "h=0.3" in message and "lambda=-9.44076" in message


# Each verb's JSON document, key by key.  Several are built from the library's
# result types, so renaming a field there would rename a key here.
ANALYZE_KEYS = {"band", "closed_form", "eigenvalues", "eps", "ignored_fields", "jacobian",
                "params", "variant", "verdict", "version"}
SIMULATE_KEYS = {"delta", "deviation_ratio", "failure_time", "growth_rate", "horizon",
                 "params", "step", "variant", "verdict", "version"}
VERIFY_KEYS = {"agreements", "band", "criterion", "eps", "excluded", "mismatch_list",
               "mismatches", "pinned", "samples", "seed", "simple_condition_agreement",
               "variant", "version"}
BASELINE_KEYS = {"dt", "exceedance", "final_price", "log_return_total", "mu", "n", "p0",
                 "seed", "sigma", "version"}
SWEEP_KEYS = {"axis1", "axis2", "fixed", "flags", "metadata", "method", "values",
              "variant", "verdicts", "type"}


def _document(capsys, *args, code=0):
    got, out, err = run_cli(capsys, *args)
    assert (got, err) == (code, "")
    return json.loads(out)


def test_analyze_document_keys(capsys):
    doc = _document(capsys, "analyze")
    assert set(doc) == ANALYZE_KEYS
    assert set(doc["params"]) == set(ModelParams.__dataclass_fields__)
    assert set(doc["verdict"]) == {"max_real", "oscillatory", "tag"}
    entries = {frozenset(entry) for entry in doc["closed_form"].values()}
    entries |= {frozenset(entry) for entry in _document(
        capsys, "analyze", "--tau0", "1e-200", "--c3", "1e-200")["closed_form"].values()}
    assert entries == {frozenset({"binding", "margin", "verdict"}),
                       frozenset({"error"}), frozenset({"satisfied"})}


def test_simulate_document_keys(capsys):
    assert set(_document(capsys, "simulate", "--horizon", "1")) == SIMULATE_KEYS


def test_verify_document_keys(capsys):
    assert set(_document(capsys, "verify", "-n", "20")) == VERIFY_KEYS
    # the absolute dead band makes this run report mismatches (see README)
    doc = _document(capsys, "verify", "--variant", "full5x5", "--q2", "1e300", "-n", "20",
                    code=1)
    assert set(doc) == VERIFY_KEYS
    assert doc["mismatch_list"]
    for entry in doc["mismatch_list"]:
        assert set(entry) == {"criterion_verdict", "margin", "max_real", "params",
                              "spectral_verdict"}
        assert set(entry["params"]) == set(ModelParams.__dataclass_fields__)


def test_baseline_document_keys(capsys):
    assert set(_document(capsys, "baseline", "-n", "5")) == BASELINE_KEYS
    doc = _document(capsys, "baseline", "-n", "5", "--drop", "0.05")
    assert set(doc) == BASELINE_KEYS
    assert set(doc["exceedance"]) == {"drop", "k", "probability", "recurrence_days",
                                      "sigma_daily"}


def test_sweep_document_keys(capsys):
    doc = _document(capsys, "sweep", "--variant", "liquidity2x2", "--axis1", "q:0:1:3",
                    "--axis2", "tau0:1:2:3", "--format", "json")
    assert set(doc) == SWEEP_KEYS
    for axis in (doc["axis1"], doc["axis2"]):
        assert set(axis) == {"max", "min", "name", "steps"}


NUMERIC_FLAGS = [flag for opt in OPTIONS if opt.type is not str
                 for flag in opt.option_strings]
# A verb parser's long flags: --config, --help and the long flags in OPTIONS.
LONG_FLAGS = ["--config", "--help", *(flag for opt in OPTIONS
                                      for flag in opt.option_strings
                                      if flag.startswith("--"))]


def shortest_prefix(flag):
    """The shortest spelling argparse resolves to ``flag``: the flag itself or
    a prefix of no other long flag."""
    return next(flag[:end] for end in range(3, len(flag) + 1)
                if flag[:end] == flag
                or [f for f in LONG_FLAGS if f.startswith(flag[:end])] == [flag])


ABBREVIATED_FLAGS = [shortest_prefix(flag) for flag in NUMERIC_FLAGS
                     if flag.startswith("--") and shortest_prefix(flag) != flag]


@pytest.mark.parametrize("flag", NUMERIC_FLAGS + ABBREVIATED_FLAGS)
def test_a_negative_value_in_exponent_form_is_the_option_value(capsys, flag):
    """argparse reads -1e-4 as a flag; after a numeric option, spaced or with
    ``=``, it is that option's value, also after an abbreviated flag."""
    for value in ("-1e-4", "-1E-4", "-.5e-3"):
        for verb in (("analyze", "--variant", "liquidity2x2"), ("baseline", "-n", "3")):
            spaced = run_cli(capsys, *verb, flag, value)
            assert spaced == run_cli(capsys, *verb, f"{flag}={value}")
            assert "expected one argument" not in spaced[2]


def test_a_negative_value_in_exponent_form_reaches_its_check(capsys):
    code, out, _ = run_cli(capsys, "baseline", "--mu", "-1e-4", "-n", "3")
    assert code == 0
    assert json.loads(out)["mu"] == -1e-4


def test_analyze_and_sweep_agree_where_a_product_of_clocks_underflows(capsys):
    # c * tau0 underflows to 0, so rh_5x5's a1 is inf and its margin is a2.
    point = ("--variant", "full5x5", "--tau0", "1e-200", "--c", "1e-200",
             "--c1", "1e-200", "--c2", "1e-200", "--c3", "1e200")
    code, out, _ = run_cli(capsys, "analyze", *point)
    assert code == 0
    rh = json.loads(out)["closed_form"]["rh_5x5"]
    code, out, _ = run_cli(capsys, "sweep", *point, "--method", "closed_form", "--format",
                           "json", "--axis1", "q:0.5:1:2", "--axis2", "q1:0.5:1:2")
    assert code == 0
    cell = json.loads(out)
    assert (rh["verdict"], rh["margin"]) == (cell["verdicts"][0][0], cell["values"][0][0])
    assert (rh["verdict"], rh["margin"]) == ("stable", 5e199)


@pytest.mark.parametrize("name,start", [("map.SVG", "<svg"), ("map.Json", "{")])
def test_sweep_reads_the_out_suffix_without_regard_to_case(tmp_path, capsys, name, start):
    out_file = tmp_path / name
    code, _, _ = run_cli(capsys, "sweep", "--variant", "liquidity2x2",
                         "--axis1", "q:0:2:3", "--axis2", "tau0:0.5:1.5:3",
                         "--out", str(out_file))
    assert code == 0
    assert out_file.read_text().startswith(start)
