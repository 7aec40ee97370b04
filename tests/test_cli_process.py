"""The process entry points: ``python -m cryptoflow`` and the ``cryptoflow``
console script both run ``__main__.main``.

``CASES`` and ``REJECTED`` are the CLI's contract cases.  Each ``CASES`` row
gives the exit code, stdout, stderr and --out bytes of ``main()`` called in
this process through both entry points.  ``REJECTED`` holds every refusal
the program words itself before numpy loads; each row exits 2 with its
message through both, loads neither numpy nor scipy and writes no --out
file.  The console-script tests need a ``cryptoflow`` on PATH and are
skipped without it.  The tests whose names end in
``neither_numpy_nor_scipy`` need neither library, so they run where only
pytest is installed.  A stdout that cannot be written is a runtime error
(exit 3) reported as one JSON object on stderr.  The process sets the
native thread counts to 1 unless they are set already, so it runs no BLAS
worker threads.
"""

import io
import json
import os
import shutil
import subprocess
import sys

import pytest

from cryptoflow.__main__ import NATIVE_THREAD_VARS
from cryptoflow.cli import main

SWEEP = ("sweep", "--variant", "liquidity2x2", "--axis1", "q:0:5:11",
         "--axis2", "tau0:0.5:2:6")
CLOSED_FORM_SWEEP = ("sweep", "--method", "closed_form", "--variant", "full5x5",
                     "--axis1", "c_over_tau0:0.05:3:11", "--axis2", "q:0:4:11",
                     "--format", "csv")
CASES = [
    (("analyze", "--variant", "liquidity2x2"), 0),
    ((*SWEEP, "--format", "json"), 0),
    ((*SWEEP, "--out", "{dir}/map.svg"), 0),
    (("simulate", "--variant", "sentiment3x3", "--horizon", "2",
      "--out", "{dir}/traj.csv"), 0),
    (("verify", "--variant", "liquidity2x2", "-n", "50", "--out", "{dir}/v.json"), 0),
    (("verify", "--variant", "full5x5", "--q2", "1e300", "-n", "20"), 1),
    (("baseline", "-n", "50", "--drop", "0.045", "--out", "{dir}/path.csv"), 0),
    (("analyze", "--q", "banana"), 2),
    (("sweep", "--axis1", "q:1:0:3", "--axis2", "tau0:1:2:3"), 2),
    (("analyze", "--variant", "full5x5", "--c", "2", "--c1", "0.5"), 3),
    (("baseline", "-n", "5", "--out", "{dir}/missing/path.csv"), 3),
    (("--help",), 0),
    (("--version",), 0),
    (("baseline", "--mu", "-1e-4", "-n", "3"), 0),
    (("sweep", "--out", "{dir}/m.SVG", *SWEEP[1:]), 0),
    (("analyze", "--c", "2", "--c1", "2", "--c2", "2", "--variant", "full5x5"), 0),
    (CLOSED_FORM_SWEEP, 0),
]
MODULE = (sys.executable, "-m", "cryptoflow")
SCRIPT = shutil.which("cryptoflow")
needs_script = pytest.mark.skipif(SCRIPT is None, reason="no cryptoflow console script on PATH")
# The process entry points at hand: the module always, the script when installed.
PROCESSES = [MODULE] + ([(SCRIPT,)] if SCRIPT else [])


def _env(**extra):
    return {**os.environ, "SOURCE_DATE_EPOCH": "1700000000", **extra}


def _out_bytes(argv):
    if "--out" not in argv:
        return None
    path = argv[argv.index("--out") + 1]
    if not os.path.exists(path):
        return None
    with open(path, "rb") as f:
        data = f.read()
    os.unlink(path)
    return data


def _in_process(argv, capsys, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    try:
        code = main(argv)
    except SystemExit as exc:  # --help and --version
        code = 0 if exc.code is None else exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err, _out_bytes(argv)


def _fresh_process(argv, entry=MODULE, **env):
    proc = subprocess.run([*entry, *argv], capture_output=True, text=True,
                          env=_env(**env), timeout=120)
    return proc.returncode, proc.stdout, proc.stderr, _out_bytes(argv)


CASE_IDS = [" ".join(a[:3]) for a, _ in CASES]


@pytest.mark.parametrize("argv,code", CASES, ids=CASE_IDS)
def test_a_fresh_process_matches_main(tmp_path, capsys, monkeypatch, argv, code):
    argv = [arg.format(dir=tmp_path) for arg in argv]
    expected = _in_process(argv, capsys, monkeypatch)
    assert expected[0] == code
    assert _fresh_process(argv) == expected


@needs_script
@pytest.mark.parametrize("argv,code", CASES, ids=CASE_IDS)
def test_the_console_script_matches_main(tmp_path, capsys, monkeypatch, argv, code):
    argv = [arg.format(dir=tmp_path) for arg in argv]
    expected = _in_process(argv, capsys, monkeypatch)
    assert expected[0] == code
    assert _fresh_process(argv, (SCRIPT,)) == expected


def test_the_closed_form_full_sweep_has_no_invalid_cell(capsys, monkeypatch):
    code, out, err, _ = _in_process(list(CLOSED_FORM_SWEEP), capsys, monkeypatch)
    assert (code, err, out.count("\n"), "invalid" in out) == (0, "", 1 + 11 * 11, False)


class _FullStdout(io.StringIO):
    def flush(self):
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("argv", [("analyze",), ("--version",)])
def test_main_maps_an_unwritable_stdout_to_exit_3(monkeypatch, capsys, argv):
    with monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", _FullStdout())
        code = main(list(argv))
    assert code == 3
    err = capsys.readouterr().err
    assert json.loads(err) == {"error": "OSError",
                               "message": "[Errno 28] No space left on device"}


def _buffering_env(unbuffered):
    env = {k: v for k, v in _env().items() if k != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONUNBUFFERED": "1"} if unbuffered else env


def _run_on_dev_full(argv, unbuffered):
    for entry in PROCESSES:
        with open("/dev/full", "w") as full:
            proc = subprocess.run([*entry, *argv], stdout=full, stderr=subprocess.PIPE,
                                  text=True, env=_buffering_env(unbuffered), timeout=120)
        assert proc.returncode == 3, entry
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "OSError"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True])
def test_stdout_on_dev_full_exits_3(unbuffered):
    _run_on_dev_full(("analyze", "--variant", "liquidity2x2"), unbuffered)
    _run_on_dev_full((*SWEEP, "--format", "json"), unbuffered)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [("--version",), ("--help",), ("analyze", "--help")],
                         ids=" ".join)
@pytest.mark.parametrize("unbuffered", [False, True])
def test_help_and_version_on_dev_full_exit_3(unbuffered, argv):
    _run_on_dev_full(argv, unbuffered)


@pytest.mark.parametrize("unbuffered", [False, True])
def test_a_pipe_closed_mid_export_exits_3(unbuffered):
    # The map's CSV (about 600 kB) is far larger than a pipe holds, so the
    # child is still writing when the reader closes.  Unbuffered, stdout is a
    # raw file whose short write TextIOWrapper would drop without an error.
    for entry in PROCESSES:
        proc = subprocess.Popen([*entry, "sweep", "--variant", "liquidity2x2", "--axis1",
                                 "q:0:5:101", "--axis2", "tau0:0.5:2:101"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=_buffering_env(unbuffered))
        head = proc.stdout.read(100)
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert head.startswith(b"axis1,axis2,max_real_or_margin,verdict\n")
        assert proc.returncode == 3, entry
        lines = err.decode().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "BrokenPipeError",
                                        "message": "[Errno 32] Broken pipe"}


# Runs the CLI as ``python -m cryptoflow`` does and, as the process ends,
# reports its thread count and its native thread variables on stderr.
_REPORT_THREADS = """
import json, os, runpy, sys
end = os._exit
def report(code):
    with open("/proc/self/status") as status:
        threads = next(int(line.split()[1]) for line in status
                       if line.startswith("Threads:"))
    env = {k: v for k, v in os.environ.items() if k.endswith("_THREADS")}
    sys.stderr.write(json.dumps({"threads": threads, "env": env}) + "\\n")
    sys.stderr.flush()
    end(code)
os._exit = report
sys.argv = ["cryptoflow", *sys.argv[1:]]
runpy.run_module("cryptoflow", run_name="__main__", alter_sys=True)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
@pytest.mark.parametrize("user", [{}, {"OPENBLAS_NUM_THREADS": "2"}])
def test_a_cli_process_defaults_native_threads_to_one(user):
    env = _env()
    for var in NATIVE_THREAD_VARS:
        env.pop(var, None)
    env.update(user)
    proc = subprocess.run([sys.executable, "-c", _REPORT_THREADS, "analyze",
                           "--variant", "liquidity2x2"], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["verdict"]["tag"] == "stable"
    report = json.loads(proc.stderr)
    assert {var: report["env"].get(var) for var in NATIVE_THREAD_VARS} == \
        {var: user.get(var, "1") for var in NATIVE_THREAD_VARS}
    if not user:
        assert report["threads"] == 1


# Runs the CLI as ``python -m cryptoflow`` does and, as the process ends,
# writes which of numpy and scipy it loaded to the file $LOADED_REPORT.
_REPORT_LOADED = """
import json, os, runpy, sys
end = os._exit
def report(code):
    with open(os.environ["LOADED_REPORT"], "w") as f:
        json.dump([m for m in ("numpy", "scipy") if m in sys.modules], f)
    end(code)
os._exit = report
sys.argv = ["cryptoflow", *sys.argv[1:]]
runpy.run_module("cryptoflow", run_name="__main__", alter_sys=True)
"""


def _loaded_by(argv, tmp_path, **env):
    """Exit code, stdout, stderr and the numeric libraries a CLI process loaded."""
    env = _env(LOADED_REPORT=str(tmp_path / "loaded.json"), **env)
    proc = subprocess.run([sys.executable, "-c", _REPORT_LOADED, *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    return (proc.returncode, proc.stdout, proc.stderr,
            json.loads((tmp_path / "loaded.json").read_text()))


def _usage_error(message):
    return json.dumps({"error": "UsageError", "message": message}) + "\n"


# Config files the REJECTED tests write, named in a row as {dir}/<name>.
CONFIGS = {
    "bad.json": '{"q": "x"}',
    "qq.json": '{"qq": 1.0}',
    "bool.json": '{"q": true}',
    "seed.json": '{"seed": 1.5}',
    "variant.json": '{"variant": "bogus"}',
    "format.json": '{"format": "yaml"}',
    "huge.json": '{"q": 1' + "0" * 400 + "}",
    "empty.json": "",
    "list.json": "[]",
}
L2 = ("--variant", "liquidity2x2")
L2_SWEEP = ("sweep", *L2, "--axis2", "tau0:1:2:3")

# Every invocation the program refuses in its own words before numpy loads,
# with its whole stderr, where {dir} is the test's directory; a row's --out
# file must not exist afterwards.  Refusals worded by argparse, whose text
# varies with the Python version, are in test_cli_contract.py's substring
# table.
REJECTED = [
    # config files
    (("analyze", "--config", "{dir}/bad.json"), "config key 'q' must be a number, got 'x'"),
    (("analyze", "--config", "{dir}/qq.json"), "unknown config key 'qq'"),
    (("analyze", "--config", "{dir}/bool.json"), "config key 'q' must be a number, got True"),
    (("analyze", "--config", "{dir}/seed.json"),
     "config key 'seed' must be an integer, got 1.5"),
    (("analyze", "--config", "{dir}/variant.json"),
     "config key 'variant' must be one of full5x5, sentiment3x3, liquidity2x2, got 'bogus'"),
    (("analyze", "--config", "{dir}/format.json"),
     "config key 'format' must be one of csv, json, svg, got 'yaml'"),
    (("analyze", "--config", "{dir}/huge.json"),
     "config key 'q' must be a number: int too large to convert to float"),
    (("analyze", "--config", "{dir}/missing.json"), "cannot read config {dir}/missing.json: "
     "[Errno 2] No such file or directory: '{dir}/missing.json'"),
    (("analyze", "--config", "{dir}/empty.json"), "config {dir}/empty.json is not valid "
     "JSON: Expecting value: line 1 column 1 (char 0)"),
    (("analyze", "--config", "{dir}/list.json"), "config {dir}/list.json must be a JSON object"),
    # model parameters, also after an abbreviated flag or with a dash-led value
    (("analyze", "--variant", "sentiment3x3", "--tau0", "-0.5"),
     "tau0 must be positive, got -0.5"),
    (("analyze", "--tau0", "-.5e-3"), "tau0 must be positive, got -0.0005"),
    (("analyze", "--q", "-inf"), "q must be finite, got -inf"),
    (("analyze", "--q", "-1e-3"), "q must be nonnegative, got -0.001"),
    (("analyze", "--variant", "sentiment3x3", "--q", "nan"), "q must be finite, got nan"),
    (("analyze", *L2, "--tau0", "inf", "--out", "{dir}/a.json"),
     "tau0 must be finite, got inf"),
    (("simulate", *L2, "--c", "-1.2"), "c must be positive, got -1.2"),
    (("simulate", "--variant", "sentiment3x3", "--q", "nan"), "q must be finite, got nan"),
    (("verify", *L2, "--c=-inf", "-n", "10"), "c must be finite, got -inf"),
    # sweep: axes and the fields no axis writes
    (("sweep", "--out", "{dir}/map.csv"), "sweep requires --axis1 and --axis2"),
    (("sweep", *L2, "--axis1", "bogus:0:1:5", "--axis2", "q:0:1:5"),
     "axis 'bogus:0:1:5': unknown axis 'bogus'; choose from "
     "('q', 'q1', 'q2', 'K', 'tau0', 'c3', 'c_over_tau0')"),
    ((*L2_SWEEP, "--axis1", "q:0:1"), "axis 'q:0:1' must have the form name:min:max:steps"),
    (("sweep", *L2, "--axis1", "q:2:1:5", "--axis2", "tau0:0.1:1:5"),
     "axis 'q:2:1:5': axis q: min 2.0 must be < max 1.0"),
    (("sweep", "--axis1", "q:0:1:1", "--axis2", "tau0:0.5:2:11", *L2),
     "axis 'q:0:1:1': axis q: steps must be >= 2, got 1"),
    ((*L2_SWEEP, "--axis1", "q:0:inf:3"),
     "axis 'q:0:inf:3': axis q: bounds must be finite, got 0.0, inf"),
    ((*L2_SWEEP, "--axis1", "q:-inf:1:3"),
     "axis 'q:-inf:1:3': axis q: bounds must be finite, got -inf, 1.0"),
    ((*L2_SWEEP, "--axis1", "q:nan:1:3"),
     "axis 'q:nan:1:3': axis q: bounds must be finite, got nan, 1.0"),
    ((*L2_SWEEP, "--axis1", "q:-1e308:1e308:3"),
     "axis 'q:-1e308:1e308:3': axis q: span -1e+308 to 1e+308 overflows"),
    (("sweep", *L2, "--axis1", "q:0:1:3", "--axis2", "q:1:2:3"),
     "axes must differ, both are 'q'"),
    (("sweep", "--axis1", "K:0:4:3", "--axis2", "q:0:1:3", *L2),
     "axes 'K' and 'q' both write q"),
    (("sweep", "--axis1", "K:0:2:3", "--axis2", "q1:0:1:3"),
     "axis 'q1' writes q1, which axis 'K' holds at its fixed value"),
    ((*L2_SWEEP, "--q1", "nan", "--axis1", "q:0:1:3"), "q1 must be finite, got nan"),
    # the ratio axis moves only the clocks the variant ties to c
    *((("sweep", "--variant", variant, f"--{field}", "-1", "--axis1", "q:0:2:3",
        "--axis2", axis2), f"{field} must be positive, got -1.0")
      for variant, field in (("liquidity2x2", "c1"), ("sentiment3x3", "c2"))
      for axis2 in ("c_over_tau0:0.5:2:3", "tau0:0.5:2:3")),
    # simulate: the horizon, the step, explicit or derived, and the kick
    (("simulate", "--variant", "sentiment3x3", "--horizon", "nan"),
     "horizon must be positive, got nan"),
    (("simulate", "--horizon", "inf"), "horizon must be finite, got inf"),
    (("simulate", "--step", "0"), "step must be positive, got 0.0"),
    (("simulate", "--step", "100"), "step 100.0 must not exceed horizon 50.0"),
    (("simulate", "--horizon", "1e-12", "--out", "{dir}/t.csv"),
     "horizon 1e-12 holds no step of size 0.005"),
    (("simulate", "--horizon", "1e-300"), "horizon 1e-300 holds no step of size 0.005"),
    (("simulate", "--horizon", "50", "--step", "1e-300"),
     f"step count horizon / step = 50.0 / 1e-300 exceeds {sys.maxsize}"),
    (("simulate", "--horizon", "1e300", "--step", "1e-300"),
     "step count horizon / step = 1e+300 / 1e-300 is not finite"),
    # the derived step is 5e-302
    (("simulate", *L2, "--tau0", "1e-300", "--c", "1e-300", "--horizon", "1e300"),
     "step count horizon / step = 1e+300 / 5e-302 is not finite"),
    # the derived step 5e-324 / 20 underflows to 0.0
    (("simulate", *L2, "--tau0", "5e-324"), "step must be positive, got 0.0"),
    (("simulate", "--delta", "1"), "perturbation must lie in (0, 0.01], got 1.0"),
    (("simulate", "--variant", "full5x5", "--delta", "1e-300"),
     "perturbation 1e-300 is too small to move P off 1.0"),
    # verify: samples, seed, pins and dead bands
    (("verify", "-n", "0", "--out", "{dir}/v.json"), "n must be >= 1, got 0"),
    (("verify", "--seed", "-1"), "seed must be >= 0, got -1"),
    (("verify", *L2, "--q1", "0.3"),
     "cannot pin ['q1'] for liquidity2x2; samplable fields are ['c', 'q', 'tau0']"),
    (("verify", *L2, "-n", "10", "--eps", "nan"), "eps must be >= 0, got nan"),
    (("verify", *L2, "-n", "100", "--eps", "inf"), "eps must be finite, got inf"),
    (("verify", *L2, "-n", "100", "--band", "inf"), "band must be finite, got inf"),
    # baseline, --drop and --sigma checked before the path is simulated:
    # 10^12 normals cannot be allocated, so the refusal must come first
    (("baseline", "-n", "1000000000000", "--drop", "0"), "drop must be positive, got 0.0"),
    (("baseline", "--drop", "nan"), "drop must be positive, got nan"),
    (("baseline", "--drop", "inf"), "drop must be finite, got inf"),
    (("baseline", "--sigma", "0", "--drop", "0.05", "--out", "{dir}/p.csv"),
     "sigma * sqrt(step) must be positive, got 0.0"),
    (("baseline", "--sig", "-1e-4", "-n", "3"), "sigma must be nonnegative, got -0.0001"),
    (("baseline", "--sigma=-1"), "sigma must be nonnegative, got -1.0"),
    (("baseline", "--sigma", "inf"), "sigma must be finite, got inf"),
    (("baseline", "--mu", "nan"), "mu must be finite, got nan"),
    (("baseline", "--sigma", "1e200", "-n", "3", "--out", "{dir}/p.csv"),
     "log-step drift (mu - sigma^2/2) dt and "
     "volatility sigma sqrt(dt) must be finite, got mu=0.0, sigma=1e+200, dt=1.0"),
    (("baseline", "--step", "0"), "dt must be positive, got 0.0"),
    (("baseline", "--step", "inf"), "dt must be finite, got inf"),
    (("baseline", "--sigma", "0", "--step", "1e308", "-n", "3", "--out", "{dir}/p.csv"),
     "path time n * dt = 3 * 1e+308 is not finite"),
    (("baseline", "-n", "0"), "n must be >= 1, got 0"),
    (("baseline", "--p0", "0"), "p0 must be positive, got 0.0"),
    (("baseline", "--p0", "inf"), "p0 must be finite, got inf"),
    (("baseline", "--seed", "-3"), "seed must be >= 0, got -3"),
    # an option every verb checks
    (("analyze", "--threads", "0"), "threads must be >= 1, got 0"),
]
REJECTED_IDS = [" ".join(argv) for argv, _ in REJECTED]


def _rejected(tmp_path, argv, message):
    """The row's argv and stderr in tmp_path, with the config files written there."""
    for name, text in CONFIGS.items():
        (tmp_path / name).write_text(text)
    return [arg.format(dir=tmp_path) for arg in argv], _usage_error(message.format(dir=tmp_path))


@pytest.mark.parametrize("argv,message", REJECTED, ids=REJECTED_IDS)
def test_a_rejected_invocation_loads_neither_numpy_nor_scipy(tmp_path, argv, message):
    argv, err = _rejected(tmp_path, argv, message)
    assert (*_loaded_by(argv, tmp_path), _out_bytes(argv)) == (2, "", err, [], None)


@needs_script
@pytest.mark.parametrize("argv,message", REJECTED, ids=REJECTED_IDS)
def test_the_console_script_rejects_the_same_invocations(tmp_path, argv, message):
    argv, err = _rejected(tmp_path, argv, message)
    assert _fresh_process(argv, (SCRIPT,)) == (2, "", err, None)


@pytest.mark.parametrize("epoch", ["abc", "1.5", "99999999999999999999"])
def test_a_bad_source_date_epoch_on_sweep_loads_neither_numpy_nor_scipy(tmp_path, epoch):
    sweep = ("sweep", "--variant", "liquidity2x2", "--axis1", "q:0:1:3",
             "--axis2", "tau0:1:2:3")
    message = f"SOURCE_DATE_EPOCH must be an integer number of seconds, got {epoch!r}"
    expected = (2, "", _usage_error(message))
    assert _loaded_by(sweep, tmp_path, SOURCE_DATE_EPOCH=epoch) == (*expected, [])
    for entry in PROCESSES[1:]:
        assert _fresh_process(sweep, entry, SOURCE_DATE_EPOCH=epoch)[:3] == expected


def test_verbs_other_than_sweep_ignore_source_date_epoch(tmp_path):
    code, out, err, _ = _loaded_by(("analyze", "--variant", "liquidity2x2"), tmp_path,
                                   SOURCE_DATE_EPOCH="abc")
    assert (code, err) == (0, "")
    assert json.loads(out)["verdict"]["tag"] == "stable"


@pytest.mark.parametrize("argv", [("--help",), ("--version",)], ids=" ".join)
def test_help_and_version_load_neither_numpy_nor_scipy(tmp_path, argv):
    code, out, err, loaded = _loaded_by(argv, tmp_path)
    assert (code, err, loaded) == (0, "", []) and out


def test_a_valid_run_loads_numpy_and_scipy(tmp_path):
    code, out, err, loaded = _loaded_by(("analyze", "--variant", "liquidity2x2"), tmp_path)
    assert (code, err, loaded) == (0, "", ["numpy", "scipy"])
    assert json.loads(out)["verdict"]["tag"] == "stable"


def test_importing_the_cli_loads_neither_numpy_nor_scipy():
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys, cryptoflow.cli; print(json.dumps("
         "[m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')]))"],
        capture_output=True, text=True, env=_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


# One valid invocation of each verb, parsed in a fresh interpreter: it
# reports, per verb, how many arguments the returned run requires, then which
# of numpy and scipy are loaded.
_PARSE_VALID = """
import inspect, json, sys
from cryptoflow.cli import parse_config
runs = [parse_config(argv) for argv in json.loads(sys.argv[1])]
required = [[p.name for p in inspect.signature(run).parameters.values()
             if p.default is p.empty] for run in runs]
print(json.dumps([[callable(run), names] for run, names in zip(runs, required)]
                 + [[m for m in ("numpy", "scipy") if m in sys.modules]]))
"""


def test_parsing_a_valid_invocation_loads_neither_numpy_nor_scipy(tmp_path):
    valid = [["analyze", "--variant", "full5x5", "--out", str(tmp_path / "a.json")],
             [*SWEEP, "--method", "closed_form"],
             ["simulate", "--variant", "sentiment3x3", "--horizon", "2"],
             ["verify", "--variant", "full5x5", "--q2", "0", "-n", "20"],
             ["baseline", "-n", "50", "--drop", "0.045", "--mu", "-1e-4"]]
    proc = subprocess.run([sys.executable, "-c", _PARSE_VALID, json.dumps(valid)],
                          capture_output=True, text=True, env=_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[True, []]] * len(valid) + [[]]
    assert not (tmp_path / "a.json").exists()  # parsing writes nothing
