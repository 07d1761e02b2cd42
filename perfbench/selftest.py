"""Planted-defect self-test: the correctness gate must be able to fail.

Runs a tiny binary noisy ingest workload through the same rep and gate
as the real workloads, against an in-process ``RuntimeServer`` carrying
a testkit :class:`~repro.testkit.faults.FaultPlan`:

* no fault: the gate passes;
* ``force_shed_rate``: shed offers make ``failed_frac`` positive and the
  gate fails;
* ``shard_error_rate``: batches dropped inside the shard drain loop are
  ACKed but never applied, so the scalar-reference check fails.

Exits 0 only when all three outcomes are as expected.
"""

from __future__ import annotations

import asyncio
import logging
import pathlib
import resource
import shutil
import sys
import tempfile
import threading
import time
from typing import Any

from repro.config import RuntimeConfig
from repro.runtime.server import RuntimeServer
from repro.testkit.faults import FaultPlan, FaultSpec, PlanFaultHook

import drive
import reference
import streams as st

TINY = st.Workload("selftest-binary-noisy", "runtime", tasks=64, batch=64,
                   steps=40)
SEED = 7


class InProcessServer:
    """A ``RuntimeServer`` on a background thread (fault-injectable)."""

    def __init__(self, spec: FaultSpec):
        self.hook = PlanFaultHook(FaultPlan(SEED, spec))
        self.server: RuntimeServer | None = None
        self.loop: asyncio.AbstractEventLoop | None = None
        self.port = 0
        self.pids: list[int] = []
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        async def amain() -> None:
            config = RuntimeConfig(shards=TINY.shards, port=0,
                                   max_batch=16384, queue_depth=4096)
            tasks = [TINY.task_entry(name)
                     for name in st.task_names(TINY, SEED)]
            self.server = RuntimeServer(config,
                                        service_config={"tasks": tasks},
                                        fault_hook=self.hook)
            await self.server.start()
            self.loop = asyncio.get_running_loop()
            self._ready.set()
            await self.server.serve_forever()
        asyncio.run(amain())

    def start(self) -> float:
        began = time.perf_counter()
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("in-process server did not start")
        self.port = int(self.server.tcp_port)
        return began

    def cpu_s(self) -> float:
        return 0.0

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def stop(self) -> None:
        future = asyncio.run_coroutine_threadsafe(self.server.shutdown(),
                                                  self.loop)
        future.result(timeout=30)
        self._thread.join(timeout=30)

    kill = stop


def _case(label: str, spec: FaultSpec, workdir: pathlib.Path,
          ref: dict[str, Any]) -> drive.Rep:
    server = InProcessServer(spec)
    rep = drive.ingest_rep(TINY, SEED, workdir, ref, server=server)
    frac = rep.failed / rep.attempted
    print(f"[selftest] {label}: failed_frac={frac:.4f} "
          f"injected={ {k: v for k, v in server.hook.injected.items() if v} } "
          f"gate={'FAIL' if rep.failures else 'pass'}", flush=True)
    for failure in rep.failures:
        print(f"[selftest]   {failure}", flush=True)
    return rep


def main() -> int:
    logging.getLogger("repro.runtime.shard").setLevel(logging.CRITICAL)
    reference.CACHE.mkdir(parents=True, exist_ok=True)
    workdir = pathlib.Path(tempfile.mkdtemp(prefix="selftest-",
                                            dir=reference.CACHE.parent))
    try:
        ref = reference.ingest_reference(TINY, SEED,
                                         st.stream_digest(TINY, SEED))
        clean = _case("no fault", FaultSpec(), workdir, ref)
        shed = _case("force_shed_rate=0.5",
                     FaultSpec(force_shed_rate=0.5), workdir, ref)
        error = _case("shard_error_rate=0.5",
                      FaultSpec(shard_error_rate=0.5), workdir, ref)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    checks = {
        "clean run passes the gate": not clean.failures,
        "force_shed raises failed_frac above 0 and fails the gate":
            shed.failed > 0 and bool(shed.failures),
        "shard_error trips the scalar-reference check":
            any("scalar reference" in f for f in error.failures),
    }
    for label, ok in checks.items():
        print(f"[selftest] {'ok  ' if ok else 'FAIL'} {label}", flush=True)
    return 0 if all(checks.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
