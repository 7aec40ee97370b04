"""The process entry point: ``python -m cryptoflow`` ends through ``cli.run``.

A fresh process gives the same stdout, stderr, exit code and --out bytes as
``main()`` called in this process, and a stdout that cannot be written is a
runtime error (exit 3) reported as one JSON object on stderr.
"""

import io
import json
import os
import subprocess
import sys

import pytest

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


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True])
def test_stdout_on_dev_full_exits_3(unbuffered):
    env = _env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "cryptoflow", "analyze",
                               "--variant", "liquidity2x2"], stdout=full,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "OSError"
