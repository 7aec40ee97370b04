"""The CLI's exit-code contract, as a property over argv and as fixed cases.

Every invocation exits 0, 1, 2 or 3.  Exits 2 and 3 write one JSON object on
stderr, nothing on stdout and no --out file.  No invocation prints a
traceback or a Python warning.  A verb rejects bad values of the options it
reads, before it writes anything, and ignores the options it does not read.
The refusals the program words itself are ``REJECTED`` rows in
test_cli_process.py; argparse's, whose wording varies with the Python
version, are matched here by substring.
"""

import contextlib
import io
import json
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from cryptoflow.cli import OPTIONS, VERBS, main

# Adversarial tokens, drawn for one option in four.  With the time
# scales and horizons these tokens and the defaults give (0.1, 1, 10; 50),
# every simulate step count, explicit or derived (time scale / 20), is either
# at most 10^4 or above sys.maxsize; no count in between is ever generated.
BAD = ("nan", "inf", "-inf", "0", "-1", "1e-300", "1e300", "banana")
GOOD = {
    "n": ("1", "20", "100"),
    "seed": ("0", "7"),
    "threads": ("1", "2"),
    "step": ("0.25", "2"),
    "horizon": ("0.5", "2"),
    "drop": ("0.05",),
    "axis1": ("q:0:1:3", "K:0:2:5", "c_over_tau0:0.5:2:3", "tau0:0.5:1:4", "c3:1:20:2"),
}
BAD_ONLY = {
    "n": ("0", "-1", "x", "1e300"),
    "seed": ("-1", "x", "1e300"),
    "threads": ("0", "-1", "x"),
    "axis1": ("tau0:nan:1:3", "q:1:0:3", "bogus:0:1:3", "q:0:1", "q:0:1e300:5",
              "q:-1e300:1e300:3", "c3:1e-300:1:2", "q1:0:1:x"),
}
for table in (GOOD, BAD_ONLY):
    table["axis2"] = table["axis1"]
OUT_NAMES = ("out.csv", "out.json", "out.svg", "out.txt", "missing/out.csv")


def _tokens(opt):
    if opt.choices is not None:
        good, bad = opt.choices, ("bogus",)
    else:
        good = GOOD.get(opt.name, (str(opt.default), "0.5", "2"))
        bad = BAD_ONLY.get(opt.name, BAD)
    return st.integers(0, 3).flatmap(
        lambda i: st.sampled_from(bad if i == 0 else good))


def _config_value(opt, token):
    """A drawn token as a config file holds it: typed if it parses, else text."""
    try:
        return opt.type(token)
    except ValueError:
        return token


@st.composite
def invocations(draw):
    verb = draw(st.sampled_from(tuple(VERBS)))
    # -n is always given, so verify and baseline never fall back to 10^4
    always = {"n", "axis1", "axis2"} if verb == "sweep" else {"n"}
    names = always | draw(st.sets(st.sampled_from(
        [o.name for o in OPTIONS if o.name not in always and o.name != "out"]), max_size=4))
    chosen = [o for o in OPTIONS if o.name in names]
    values = {o.name: draw(_tokens(o)) for o in chosen}
    in_config = draw(st.sets(st.sampled_from(sorted(values)), max_size=3))
    argv = [verb]
    for opt in chosen:
        if opt.name not in in_config:
            argv.append(f"{opt.option_strings[-1]}={values[opt.name]}")
    config = {o.name: _config_value(o, values[o.name]) for o in chosen
              if o.name in in_config}
    out = draw(st.one_of(st.none(), st.sampled_from(OUT_NAMES)))
    return argv, config, out


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert [str(w.message) for w in caught] == []
    return code, out.getvalue(), err.getvalue()


def assert_contract(code, out, err, out_path=None):
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code in (2, 3):
        lines = err.splitlines()
        assert len(lines) == 1, err
        doc = json.loads(lines[0])
        assert set(doc) >= {"error", "message"}
        assert out == ""
        if out_path is not None:
            assert not out_path.exists()
        return doc
    assert err == ""
    return None


@settings(max_examples=250, deadline=None)
@given(invocations())
def test_every_argv_keeps_the_exit_contract(invocation):
    argv, config, out_name = invocation
    with tempfile.TemporaryDirectory() as tmp:
        argv = list(argv)
        if config:
            path = Path(tmp, "config.json")
            path.write_text(json.dumps(config))
            argv.append(f"--config={path}")
        out_path = None
        if out_name is not None:
            out_path = Path(tmp, out_name)
            argv.append(f"--out={out_path}")
        code, out, err = run_main(argv)
        doc = assert_contract(code, out, err, out_path)
        event(f"{argv[0]} exit {code}" + (f" {doc['error']}" if code == 3 else ""))


def _run(*argv):
    code, out, err = run_main(list(argv))
    return code, out, assert_contract(code, out, err)


# An option a verb does not read is ignored, however bad its value; the
# verbs that read it reject it.
IGNORED = [
    ("-n", "0", ("analyze", "sweep", "simulate"), ("verify", "baseline")),
    ("--step", "-1", ("analyze", "sweep", "verify"), ("simulate", "baseline")),
    ("--horizon", "0", ("analyze", "sweep", "verify", "baseline"), ("simulate",)),
    ("--delta", "1", ("analyze", "sweep", "verify", "baseline"), ("simulate",)),
    ("--sigma", "-1", ("analyze", "sweep", "simulate", "verify"), ("baseline",)),
    ("--p0", "0", ("analyze", "sweep", "simulate", "verify"), ("baseline",)),
    ("--drop", "0", ("analyze", "sweep", "simulate", "verify"), ("baseline",)),
]
SMALL = {
    "analyze": (),
    "sweep": ("--variant", "liquidity2x2", "--axis1", "q:0:1:3", "--axis2", "tau0:1:2:3"),
    "simulate": ("--variant", "liquidity2x2", "--horizon", "1"),
    "verify": ("--variant", "liquidity2x2", "-n", "20"),
    "baseline": ("-n", "20"),
}


@pytest.mark.parametrize("flag,value,ignored_by,read_by", IGNORED)
def test_a_verb_checks_only_the_options_it_reads(flag, value, ignored_by, read_by):
    for verb in ignored_by:
        code, out, _ = _run(verb, *SMALL[verb], f"{flag}={value}")
        assert code == 0, (verb, flag)
        assert out
    for verb in read_by:
        code, _, doc = _run(verb, *SMALL[verb], f"{flag}={value}")
        assert code == 2, (verb, flag)
        assert doc["error"] == "UsageError"


@pytest.mark.parametrize("verb", tuple(VERBS))
def test_threads_and_dead_bands_are_checked_on_every_verb(verb):
    for bad in (("--threads", "0"), ("--eps", "-1"), ("--band", "nan"), ("--eps", "inf")):
        assert _run(verb, *SMALL[verb], *bad)[0] == 2, (verb, bad)
    assert _run(verb, *SMALL[verb], "--threads", "2")[0] == 0


def test_unequal_full_clocks_still_fail_at_run_time():
    code, _, doc = _run("analyze", "--variant", "full5x5", "--c", "2", "--c1", "0.5")
    assert code == 3
    assert doc["error"] == "UnsupportedScaling"


def test_horizon_below_the_derived_step_runs_one_partial_step(tmp_path):
    out = tmp_path / "t.csv"
    code, stdout, _ = _run("simulate", "--horizon", "0.001", "--out", str(out))
    assert code == 0
    assert json.loads(stdout)["step"] == 0.005
    rows = out.read_text().splitlines()
    assert len(rows) == 3 and rows[-1].split(",")[0] == "0.001"


@pytest.mark.parametrize("argv,text", [
    (("analyze", "--q", "banana"), "invalid float value: 'banana'"),
    (("analyze", "--format", "yaml"), "invalid choice: 'yaml'"),
    (("analyze", "--bogus", "1"), "unrecognized arguments: --bogus 1"),
    ((), "the following arguments are required: verb"),
    (("explode",), "invalid choice: 'explode'"),
    (("verify", "--seed", "1.5"), "invalid int value: '1.5'"),
    # a dash-led token float() reads is a value, unless it starts with a
    # flag (-nan is -n with "an") or the option refuses it
    (("analyze", "--q", "-nan"), "argument --q: expected one argument"),
    (("analyze", "--variant", "-1e-4"), "argument --variant: invalid choice: '-1e-4'"),
    (("baseline", "--s", "-1e-4"), "ambiguous option: --s could match"),
    (("analyze", "--samples", "3"), "unrecognized arguments: --samples 3"),
])
def test_argparse_errors_are_one_json_object(argv, text):
    code, _, doc = _run(*argv)
    assert code == 2
    assert doc["error"] == "UsageError"
    assert text in doc["message"]


# Config files Python cannot read as JSON text, and the words Python's own
# reason holds; the version words the rest.
UNREADABLE_CONFIGS = {
    "not_utf8": (b"\xff\xfe{", "can't decode byte 0xff"),
    "long_int": (b'{"seed": 1' + b"0" * 5000 + b"}", "integer string conversion"),
}
# Runs main on argv in a fresh interpreter; prints its exit code and which of
# numpy and scipy it loaded.
_MAIN_LOADED = """
import json, sys
from cryptoflow.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, [m for m in ("numpy", "scipy") if m in sys.modules]]))
"""


@pytest.mark.parametrize("content,reason", UNREADABLE_CONFIGS.values(),
                         ids=UNREADABLE_CONFIGS)
def test_an_unreadable_config_is_refused_by_name_before_numpy_loads(tmp_path, content,
                                                                     reason):
    path = tmp_path / "config.json"
    path.write_bytes(content)
    proc = subprocess.run([sys.executable, "-c", _MAIN_LOADED, "analyze", "--config",
                           str(path)], capture_output=True, text=True, timeout=120)
    assert json.loads(proc.stdout) == [2, []]
    doc = json.loads(proc.stderr)
    assert doc["error"] == "UsageError"
    assert doc["message"].startswith(f"config {path} is not valid JSON: ")
    assert reason in doc["message"]


@pytest.mark.parametrize("argv", [("--help",), ("--version",), ("analyze", "--help"),
                                  ("analyze", "-h", "-1e-4")])
def test_help_and_version_exit_0(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
    assert exc.value.code in (0, None)
    assert out.getvalue()


@pytest.mark.parametrize("name", ["-1e-4", "-5"])
def test_an_out_path_that_reads_as_a_number_is_a_file(monkeypatch, tmp_path, name):
    monkeypatch.chdir(tmp_path)
    code, out, _ = _run("analyze", "--variant", "liquidity2x2", "--out", name)
    assert code == 0
    assert (tmp_path / name).read_text() == out


@pytest.mark.parametrize("argv", [
    # ten steps of 1e-300: the fit's sum of t^2 underflows to 0
    ("--step", "1e-300", "--horizon", "1e-299"),
    # times near 1e300: the sum of t^2 overflows
    ("--tau0", "1e300", "--c", "1e300", "--horizon", "1e300", "--step", "1e299"),
])
def test_extreme_time_scales_give_a_nan_growth_rate(capfd, argv):
    code, out, _ = _run("simulate", "--variant", "liquidity2x2", *argv)
    assert code == 0
    assert json.loads(out)["growth_rate"] == "nan"
    # LAPACK's messages go to file descriptor 1, past redirect_stdout
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("argv,text", [
    (("baseline", "--mu", "1e308", "-n", "3"), "leaves the float range"),
    (("baseline", "--p0", "1e308", "--mu", "1", "-n", "1000"), "leaves the float range"),
    (("baseline", "--mu", "-1", "--step", "1000", "-n", "3"), "leaves the float range"),
])
def test_gbm_overflow_is_a_usage_error(tmp_path, argv, text):
    out = tmp_path / "p.csv"
    code, _, doc = _run(*argv, "--out", str(out))
    assert code == 2
    assert text in doc["message"]
    assert not out.exists()
