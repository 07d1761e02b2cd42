"""Server processes under test: spawn through the public CLIs, stop, measure.

Every server runs as its own process, started with ``--ready-file`` and
stopped with SIGTERM (the graceful path: drain every queue, flush the
final checkpoint). Memory and CPU figures are read from ``/proc`` for the
whole process tree: the router plus its workers for a cluster.
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import subprocess
import sys
import time
from typing import Any

from repro.runtime.client import RuntimeClient

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCH = pathlib.Path(__file__).resolve().parent
TRACED_PATH = BENCH / "traced"

READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0
_CLK_TCK = os.sysconf("SC_CLK_TCK")


def server_env(trace_dir: pathlib.Path | None) -> dict[str, str]:
    """Environment for a server process (and the workers it spawns).

    Traced runs put ``perfbench/traced`` on ``PYTHONPATH``: its
    ``sitecustomize`` installs the layer wrappers in every Python process
    the server starts, which is how cluster workers get traced.
    """
    env = dict(os.environ)
    paths = [str(SRC)]
    if trace_dir is not None:
        paths.insert(0, str(TRACED_PATH))
        env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
    else:
        env.pop("PERFBENCH_TRACE_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONHASHSEED"] = "0"
    return env


class ServerProcess:
    """One server under test (``repro.runtime`` or ``repro.cluster``)."""

    def __init__(self, kind: str, workdir: pathlib.Path, shards: int,
                 workers: int = 1, checkpoint: pathlib.Path | None = None,
                 trace_dir: pathlib.Path | None = None,
                 config: dict[str, Any] | None = None):
        self.kind = kind
        self.workdir = workdir
        self.trace_dir = trace_dir
        self.ready_path = workdir / f"{kind}.ready.json"
        # Server logs go to a file: a pipe nobody reads while the server
        # runs would block a server that logs a lot.
        self.log_path = workdir / f"{kind}.stderr"
        module = "repro.runtime" if kind == "runtime" else "repro.cluster"
        args = ["--port", "0", "--shards", str(shards),
                "--max-batch", "16384", "--queue-depth", "4096",
                "--ready-file", str(self.ready_path)]
        if config is not None:
            # Tasks and trigger plans registered at startup, before the
            # server reports ready (the --config file of either CLI).
            config_path = workdir / f"{kind}.config.json"
            config_path.write_text(json.dumps(config), encoding="utf-8")
            args += ["--config", str(config_path)]
        if kind == "cluster":
            # Relative to the server's working directory (the checkout
            # root): unix socket paths must stay under ~100 bytes.
            runtime_dir = os.path.relpath(workdir / "rt", ROOT)
            args += ["--workers", str(workers), "--backend", "subprocess",
                     "--runtime-dir", runtime_dir]
        if checkpoint is not None:
            args += ["--checkpoint", str(checkpoint),
                     "--checkpoint-interval", "3600"]
        if trace_dir is None:
            self.argv = [sys.executable, "-m", module] + args
        else:
            self.argv = [sys.executable, str(BENCH / "entry.py"),
                         kind] + args
        self.proc: subprocess.Popen[bytes] | None = None
        self.port = 0
        self.pids: list[int] = []

    def start(self) -> float:
        """Spawn and wait until ready; returns the spawn timestamp.

        The server leads a process group of its own, so a failed start
        or a hard stop reaches the workers it spawned too.
        """
        if self.ready_path.exists():
            self.ready_path.unlink()
        began = time.perf_counter()
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(
                self.argv, cwd=ROOT, env=server_env(self.trace_dir),
                stdout=subprocess.DEVNULL, stderr=log,
                start_new_session=True)
        try:
            self._await_ready()
        except BaseException:
            self.kill()
            raise
        return began

    def _await_ready(self) -> None:
        deadline = time.monotonic() + READY_TIMEOUT_S
        while not self.ready_path.exists():
            if self.proc.poll() is not None:
                err = self.log_path.read_text(errors="replace")
                raise RuntimeError(
                    f"{self.kind} server exited with code "
                    f"{self.proc.returncode} before ready:\n{err[-2000:]}")
            if time.monotonic() > deadline:
                raise RuntimeError(f"{self.kind} server not ready after "
                                   f"{READY_TIMEOUT_S}s")
            time.sleep(0.005)
        ready = _read_json_when_complete(self.ready_path)
        self.port = int(ready["port"])
        self.pids = [self.proc.pid] + [int(p) for p in
                                       (ready.get("workers") or {}).values()
                                       if p]
        # Both CLIs write the ready file just before arming their SIGTERM
        # handler; one served request proves the handler is armed, so a
        # later stop() always takes the graceful path.
        with RuntimeClient(port=self.port, timeout=READY_TIMEOUT_S) as client:
            client.ping()

    def peak_rss_mb(self) -> float:
        """Sum of VmHWM (peak resident set) over the process tree."""
        total_kb = 0
        for pid in self.pids:
            try:
                text = pathlib.Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            for line in text.splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def cpu_s(self) -> float:
        """User + system CPU seconds consumed so far by the tree."""
        total = 0
        for pid in self.pids:
            try:
                fields = pathlib.Path(f"/proc/{pid}/stat").read_text()
            except OSError:
                continue
            rest = fields[fields.rindex(")") + 2:].split()
            total += int(rest[11]) + int(rest[12])
        return total / _CLK_TCK

    def signal_all(self, signum: int) -> None:
        for pid in self.pids:
            try:
                os.kill(pid, signum)
            except ProcessLookupError:
                pass

    def stop(self) -> None:
        """Graceful SIGTERM stop (drain + final checkpoint); waits."""
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError(f"{self.kind} server ignored SIGTERM")
        self._kill_group()
        if self.proc.returncode != 0:
            raise RuntimeError(f"{self.kind} server exited with code "
                               f"{self.proc.returncode} on SIGTERM")

    def kill(self) -> None:
        """Hard stop of the whole process group (error paths); waits."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self._kill_group()

    def _kill_group(self) -> None:
        """SIGKILL whatever is left of the group and wait until it is gone."""
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                return
            time.sleep(0.01)


def _read_json_when_complete(path: pathlib.Path) -> dict[str, Any]:
    """Read a ready file, retrying while it is still being written."""
    for _ in range(200):
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError:
            time.sleep(0.005)
    raise RuntimeError(f"ready file {path} never became valid JSON")
