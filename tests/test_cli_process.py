"""The process entry point: ``python -m cryptoflow`` runs ``__main__.main``.

A fresh process gives the same stdout, stderr, exit code and --out bytes as
``main()`` called in this process, and a stdout that cannot be written is a
runtime error (exit 3) reported as one JSON object on stderr.  The process
sets the native thread counts to 1 unless they are set already, so it runs
no BLAS worker threads.
"""

import io
import json
import os
import subprocess
import sys

import pytest

from cryptoflow.__main__ import NATIVE_THREAD_VARS
from cryptoflow.cli import main

SWEEP = ("sweep", "--variant", "liquidity2x2", "--axis1", "q:0:5:11",
         "--axis2", "tau0:0.5:2:6")
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
]


def _env(**extra):
    env = dict(os.environ, SOURCE_DATE_EPOCH="1700000000", **extra)
    env.pop("CRYPTOFLOW_THREADS", None)
    return env


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
    monkeypatch.delenv("CRYPTOFLOW_THREADS", raising=False)
    try:
        code = main(argv)
    except SystemExit as exc:  # --help and --version
        code = 0 if exc.code is None else exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err, _out_bytes(argv)


def _fresh_process(argv):
    proc = subprocess.run([sys.executable, "-m", "cryptoflow", *argv],
                          capture_output=True, text=True, env=_env(), timeout=120)
    return proc.returncode, proc.stdout, proc.stderr, _out_bytes(argv)


@pytest.mark.parametrize("argv,code", CASES, ids=[" ".join(a[:3]) for a, _ in CASES])
def test_a_fresh_process_matches_main(tmp_path, capsys, monkeypatch, argv, code):
    argv = [arg.format(dir=tmp_path) for arg in argv]
    expected = _in_process(argv, capsys, monkeypatch)
    assert expected[0] == code
    assert _fresh_process(argv) == expected


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


def _run_on_dev_full(argv, unbuffered):
    env = _env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "cryptoflow", *argv], stdout=full,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "OSError"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True])
def test_stdout_on_dev_full_exits_3(unbuffered):
    _run_on_dev_full(("analyze", "--variant", "liquidity2x2"), unbuffered)


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
    env = _env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen([sys.executable, "-m", "cryptoflow", "sweep", "--variant",
                             "liquidity2x2", "--axis1", "q:0:5:101", "--axis2",
                             "tau0:0.5:2:101"], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    head = proc.stdout.read(100)
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert head.startswith(b"axis1,axis2,max_real_or_margin,verdict\n")
    assert proc.returncode == 3
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
