"""The process entry points: ``python -m cryptoflow`` and the ``cryptoflow``
console script both run ``__main__.main``.

``CASES`` and ``REJECTED`` are the CLI's contract cases.  Each ``CASES`` row
gives the exit code, stdout, stderr and --out bytes of ``main()`` called in
this process through both entry points, and each ``REJECTED`` row exits 2
with its message through both.  The console-script tests need a
``cryptoflow`` on PATH and are skipped without it.  A stdout that cannot be
written is a runtime error (exit 3) reported as one JSON object on stderr.
The process sets the native thread counts to 1 unless they are set already,
so it runs no BLAS worker threads.
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


# Invocations the boundary rejects, each with its whole stderr: the point
# workload's five usage errors, a bad config file, --drop and --sigma checked
# before the path is simulated, negative seeds, the verify and baseline
# options that only the run checked before, sweep axes that collide, an
# abbreviated flag with a dash-led value, no threads, and a one-step axis.
REJECTED = [
    (("sweep", "--variant", "liquidity2x2", "--axis1", "bogus:0:1:5", "--axis2", "q:0:1:5"),
     "axis 'bogus:0:1:5': unknown axis 'bogus'; choose from "
     "('q', 'q1', 'q2', 'K', 'tau0', 'c3', 'c_over_tau0')"),
    (("analyze", "--variant", "sentiment3x3", "--tau0", "-0.5"),
     "tau0 must be positive, got -0.5"),
    (("simulate", "--variant", "liquidity2x2", "--c", "-1.2"), "c must be positive, got -1.2"),
    (("simulate", "--variant", "sentiment3x3", "--horizon", "nan"),
     "horizon must be positive, got nan"),
    (("verify", "--variant", "liquidity2x2", "-n", "10", "--eps", "nan"),
     "eps must be >= 0, got nan"),
    (("analyze", "--config", "{dir}/bad.json"), "config key 'q' must be a number, got 'x'"),
    # 10^12 normals cannot be allocated: the refusal must come first
    (("baseline", "-n", "1000000000000", "--drop", "0"), "drop must be positive, got 0.0"),
    (("baseline", "--drop", "nan"), "drop must be positive, got nan"),
    (("baseline", "--sigma", "0", "--drop", "0.05"),
     "sigma * sqrt(step) must be positive, got 0.0"),
    (("verify", "--seed", "-1"), "seed must be >= 0, got -1"),
    (("baseline", "--seed", "-3"), "seed must be >= 0, got -3"),
    (("verify", "-n", "0"), "n must be >= 1, got 0"),
    (("verify", "--variant", "liquidity2x2", "--q1", "0.3"),
     "cannot pin ['q1'] for liquidity2x2; samplable fields are ['c', 'q', 'tau0']"),
    (("baseline", "--p0", "0"), "p0 must be positive, got 0.0"),
    (("sweep", "--axis1", "K:0:4:3", "--axis2", "q:0:1:3", "--variant", "liquidity2x2"),
     "axes 'K' and 'q' both write q"),
    (("baseline", "--sig", "-1e-4", "-n", "3"), "sigma must be nonnegative, got -0.0001"),
    (("analyze", "--threads", "0"), "threads must be >= 1, got 0"),
    (("sweep", "--axis1", "q:0:1:1", "--axis2", "tau0:0.5:2:11", "--variant", "liquidity2x2"),
     "axis 'q:0:1:1': axis q: steps must be >= 2, got 1"),
]
REJECTED_IDS = [" ".join(a[:3]) for a, _ in REJECTED]


@pytest.mark.parametrize("argv,message", REJECTED, ids=REJECTED_IDS)
def test_a_rejected_invocation_loads_neither_numpy_nor_scipy(tmp_path, argv, message):
    (tmp_path / "bad.json").write_text('{"q": "x"}')
    argv = [arg.format(dir=tmp_path) for arg in argv]
    assert _loaded_by(argv, tmp_path) == (2, "", _usage_error(message), [])


@needs_script
@pytest.mark.parametrize("argv,message", REJECTED, ids=REJECTED_IDS)
def test_the_console_script_rejects_the_same_invocations(tmp_path, argv, message):
    (tmp_path / "bad.json").write_text('{"q": "x"}')
    argv = [arg.format(dir=tmp_path) for arg in argv]
    assert _fresh_process(argv, (SCRIPT,))[:3] == (2, "", _usage_error(message))


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
             ["baseline", "-n", "50", "--drop", "0.045"]]
    proc = subprocess.run([sys.executable, "-c", _PARSE_VALID, json.dumps(valid)],
                          capture_output=True, text=True, env=_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[True, []]] * len(valid) + [[]]
    assert not (tmp_path / "a.json").exists()  # parsing writes nothing
