"""Start-up ordering of the server CLIs: ready means SIGTERM-safe.

Both ``python -m repro.runtime`` and ``python -m repro.cluster`` publish a
``--ready-file`` that supervisors (CI, the benchmark harness) wait on and
then signal. A SIGTERM sent the moment the file appears must get the
graceful path — exit 0 with a flushed checkpoint — so the CLIs arm their
signal handlers before they publish, and publish atomically.

The subprocess runs the CLI with its file writes wrapped so that it
stalls for half a second right after the ready file becomes visible —
the window a descheduled process would leave open — which turns the race
into a deterministic check.
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

from repro.runtime.checkpoint import read_checkpoint

REPO_SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

_STALLING_MAIN = """
import os, pathlib, sys, time

_replace, _write_text = os.replace, pathlib.Path.write_text

def _stall(path):
    if str(path).endswith("ready.json"):
        time.sleep(0.5)

def replace(src, dst, *args, **kwargs):
    _replace(src, dst, *args, **kwargs)
    _stall(dst)

def write_text(self, *args, **kwargs):
    written = _write_text(self, *args, **kwargs)
    _stall(self)
    return written

os.replace = replace
pathlib.Path.write_text = write_text
module = sys.argv[1]
if module == "repro.runtime":
    from repro.runtime.server import main
else:
    from repro.cluster.__main__ import main
sys.exit(main(sys.argv[2:]))
"""

TASKS = [{"name": f"t{i}", "threshold": 100.0} for i in range(4)]

CLIS = {
    "runtime": ["repro.runtime", "--shards", "2"],
    "cluster": ["repro.cluster", "--backend", "inproc", "--workers", "1",
                "--shards", "2"],
}


@pytest.mark.slow
@pytest.mark.parametrize("cli", sorted(CLIS))
def test_sigterm_at_ready_file_flushes_checkpoint(cli, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"tasks": TASKS}), encoding="utf-8")
    ready = tmp_path / "ready.json"
    ckpt = tmp_path / "ckpt.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{REPO_SRC}{os.pathsep}" + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-c", _STALLING_MAIN, *CLIS[cli],
         "--port", "0", "--config", str(config), "--checkpoint", str(ckpt),
         "--checkpoint-interval", "3600", "--ready-file", str(ready)],
        env=env, cwd=tmp_path,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    try:
        deadline = time.monotonic() + 60
        while not ready.exists():
            assert proc.poll() is None, \
                f"{cli} died at startup:\n{proc.stdout.read()}"
            assert time.monotonic() < deadline, f"{cli} never got ready"
            time.sleep(0.005)
        proc.send_signal(signal.SIGTERM)
        output, _ = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, output
    assert json.loads(ready.read_text(encoding="utf-8"))["port"] > 0
    state = read_checkpoint(ckpt)
    assert sorted(state["task_shard"]) == [t["name"] for t in TASKS]
