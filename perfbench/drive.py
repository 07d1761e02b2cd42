"""The load generator: one closed loop over one connection per rep.

Each rep starts a fresh server, sets it up, replays the workload's fixed
stream (the next batch goes out only after the previous ACK arrived),
waits until the server reports every accepted offer applied, checks the
outcome against the scalar reference and stops the server.
"""

from __future__ import annotations

import gc
import json
import os
import pathlib
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.exceptions import ProtocolError
from repro.runtime.checkpoint import read_checkpoint, state_fingerprint
from repro.runtime.client import RuntimeClient
from repro.runtime.protocol import PROTOCOL_BINARY

import layers
import servers
import streams as st

DRAIN_TIMEOUT_S = 60.0


@dataclass
class Rep:
    """What one rep measured and which checks it failed."""

    setup_began: float = 0.0     # perf_counter at spawn
    setup_s: float = 0.0
    wall_s: float = 0.0          # first send .. every accepted offer applied
    attempted: int = 0
    acked: int = 0
    failed: int = 0              # shed + rejected + error replies
    applied: int = 0
    consumed: int = 0
    alerts: int = 0
    latencies_s: list[float] = field(default_factory=list)
    # (offers, start, end, latencies) per measurement window: part of an
    # ingest rep, a churn round or a sweep; times are perf_counter values.
    windows: list[tuple[int, float, float, list[float]]] = field(
        default_factory=list)
    peak_rss_mb: float = 0.0
    cpu_s: float = 0.0           # server tree CPU over the measured phase
    failures: list[str] = field(default_factory=list)
    server: dict[str, Any] = field(default_factory=dict)
    phases: dict[str, list[dict[str, Any]]] = field(default_factory=dict)
    client_spans: dict[str, Any] = field(default_factory=dict)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)


def _family_total(metrics: dict[str, Any], name: str) -> float:
    family = metrics.get(name) or {}
    return float(sum(s["value"] for s in family.get("series", [])))


def _histogram_sum(metrics: dict[str, Any], name: str) -> tuple[float, int]:
    family = metrics.get(name) or {}
    series = family.get("series") or []
    if not series:
        return 0.0, 0
    value = series[0]["value"]
    return float(value.get("sum", 0.0)), int(value.get("count", 0))


class _Phases:
    """Collects the traced server's per-phase span dumps (SIGUSR2)."""

    def __init__(self, server: servers.ServerProcess,
                 trace_dir: pathlib.Path | None):
        self.server = server
        self.dir = trace_dir
        self.seq: dict[int, int] = {}

    def take(self) -> list[dict[str, Any]]:
        if self.dir is None:
            return []
        self.server.signal_all(signal.SIGUSR2)
        dumps = []
        deadline = time.monotonic() + 30.0
        for pid in self.server.pids:
            n = self.seq.get(pid, 0)
            path = self.dir / f"{pid}-{n}.json"
            while not path.exists():
                if time.monotonic() > deadline:
                    raise RuntimeError(f"no span dump from pid {pid}")
                time.sleep(0.005)
            self.seq[pid] = n + 1
            dumps.append(json.loads(path.read_text(encoding="utf-8")))
        return dumps


def _drain(client: RuntimeClient) -> dict[str, Any]:
    """Poll ``stats`` until every accepted offer has been applied."""
    deadline = time.monotonic() + DRAIN_TIMEOUT_S
    while True:
        totals = client.stats()["totals"]
        if (totals["applied"] + totals["rejected"] >= totals["offered"]
                and totals["queue_depth"] == 0):
            return totals
        if time.monotonic() > deadline:
            raise RuntimeError(f"server did not drain: {totals}")
        time.sleep(0.002)


def _windows(first: float, drained: float, ends: list[float],
             acks: list[int], latencies: list[float], size: int,
             ) -> list[tuple[int, float, float, list[float]]]:
    """Split a rep's batches into windows of ``size`` batches each.

    Windows are cut by batch count, not by time, so every rep cuts the
    same work at the same places (a workload that settles, as samplers
    back off, keeps its early batches in the same windows however fast
    the host runs). The last window runs until every accepted offer is
    applied, so the drain is always measured.
    """
    windows = []
    lo, start = 0, first
    while lo < len(ends):
        hi = min(lo + size, len(ends))
        end = drained if hi == len(ends) else ends[hi - 1]
        windows.append((sum(acks[lo:hi]), start, end, latencies[lo:hi]))
        lo, start = hi, end
    return windows


def _delta(after: dict[str, Any], before: dict[str, Any], key: str) -> int:
    return int(after[key]) - int(before[key])


def ingest_rep(w: st.Workload, seed: int, workdir: pathlib.Path,
               ref: dict[str, Any], trace_dir: pathlib.Path | None = None,
               client_tracer: layers.Tracer | None = None,
               server: Any = None) -> Rep:
    """One rep of an ingest workload (runtime or cluster server)."""
    rep = Rep()
    names = st.task_names(w, seed)
    plans = st.trigger_plans(w, names)
    values = st.ingest_values(w, seed)
    binary = w.protocol == "binary"
    if binary:
        step_cols = [np.full(w.tasks, s, dtype=np.int64)
                     for s in range(w.steps)]
    else:
        batches = [[[name, s, v] for name, v in zip(names, row)]
                   for s, row in enumerate(values.tolist())]
    config = {"tasks": [w.task_entry(name) for name in names],
              "trigger_plans": plans}
    if server is None:
        server = servers.ServerProcess(w.kind, workdir, w.shards,
                                       trace_dir=trace_dir, config=config)
    phases = _Phases(server, trace_dir)
    began = server.start()
    client = RuntimeClient(port=server.port, timeout=60.0)
    try:
        client.connect()
        intern_s = 0.0
        if binary:
            if client.negotiate() < PROTOCOL_BINARY:
                raise RuntimeError("server refused the binary protocol")
            t0 = time.perf_counter()
            idx = np.asarray(client.intern(names), dtype=np.uint32)
            intern_s = time.perf_counter() - t0
        rep.setup_began = began
        rep.setup_s = time.perf_counter() - began
        rep.phases["setup"] = phases.take()
        before = client.stats()["totals"]
        tel_before = client.telemetry()["metrics"]
        cpu_before = server.cpu_s()
        if client_tracer is not None:
            client_tracer.take()
        latencies = rep.latencies_s
        errors = 0
        perf = time.perf_counter
        gc.disable()
        acks: list[int] = []
        ends: list[float] = []
        first = perf()
        for s in range(w.steps):
            sent = perf()
            try:
                if binary:
                    reply = client.offer_columns(idx, step_cols[s],
                                                 values[s])
                    accepted, shed, rejected = (reply.accepted, reply.shed,
                                                reply.rejected)
                else:
                    reply = client.offer_batch(batches[s])
                    accepted, shed, rejected = (reply["accepted"],
                                                reply["shed"],
                                                reply["rejected"])
            except ProtocolError:
                errors += w.tasks
                continue
            ends.append(perf())
            latencies.append(ends[-1] - sent)
            acks.append(accepted)
            rep.failed += shed + rejected
        loop_s = perf() - first
        gc.enable()
        if client_tracer is not None:
            rep.client_spans = client_tracer.take()
            rep.client_spans["loop_s"] = loop_s
        after = _drain(client)
        drained = perf()
        rep.wall_s = drained - first
        rep.acked = sum(acks)
        rep.windows = _windows(first, drained, ends, acks, latencies,
                               w.window)
        rep.cpu_s = server.cpu_s() - cpu_before
        rep.phases["ingest"] = phases.take()
        tel_after = client.telemetry()["metrics"]
        rep.attempted = w.steps * w.tasks
        rep.failed += errors
        rep.applied = _delta(after, before, "applied")
        rep.consumed = _delta(after, before, "consumed")
        rep.alerts = _delta(after, before, "alerts")
        offered = int(_family_total(tel_after, "volley_updates_offered_total")
                      - _family_total(tel_before,
                                      "volley_updates_offered_total"))
        route_after = _histogram_sum(tel_after, "volley_offer_latency_seconds")
        route_before = _histogram_sum(tel_before,
                                      "volley_offer_latency_seconds")
        rep.server = {"route_s": route_after[0] - route_before[0],
                      "intern_s": intern_s}
        if plans:
            reply = client.trigger_plans()
            rep.server["edges"] = sum(reply["edges"].values())
            rep.server["suspensions"] = int(reply["suspensions"])
            rep.check(rep.server["suspensions"] == ref["suspensions"],
                      f"trigger suspensions {rep.server['suspensions']} != "
                      f"reference {ref['suspensions']}")
        rep.peak_rss_mb = server.peak_rss_mb()
        rep.check(rep.acked == offered,
                  f"ACKed offers {rep.acked} != server offered delta "
                  f"{offered}")
        rep.check(rep.failed == 0, f"{rep.failed} of {rep.attempted} offers "
                  f"failed (shed, rejected or error replies)")
        rep.check(rep.consumed == ref["consumed"],
                  f"consumed {rep.consumed} != scalar reference "
                  f"{ref['consumed']}")
        rep.check(rep.alerts == ref["alerts"],
                  f"alerts {rep.alerts} != scalar reference {ref['alerts']}")
    except BaseException:
        client.close()
        server.kill()
        raise
    finally:
        gc.enable()
    client.close()
    server.stop()
    return rep


def churn_rep(w: st.Workload, seed: int, workdir: pathlib.Path,
              ref: dict[str, Any], trace_dir: pathlib.Path | None = None,
              client_tracer: layers.Tracer | None = None) -> Rep:
    """Register, then rounds of offers + churn + checkpoint; restart."""
    rep = Rep()
    plan = st.churn_plan(w, seed)
    ckpt = workdir / "churn-ckpt.json"
    if ckpt.exists():
        ckpt.unlink()
    server = servers.ServerProcess("runtime", workdir, w.shards,
                                   checkpoint=ckpt, trace_dir=trace_dir)
    phases = _Phases(server, trace_dir)
    began = server.start()
    client = RuntimeClient(port=server.port, timeout=120.0)
    perf = time.perf_counter
    try:
        client.connect()
        register_s = 0.0
        registered = 0

        def register(names: list[str]) -> None:
            nonlocal register_s, registered
            t0 = perf()
            for name in names:
                client.register_task(name, st.THRESHOLD,
                                     error_allowance=st.ERROR_ALLOWANCE,
                                     max_interval=st.MAX_INTERVAL)
            register_s += perf() - t0
            registered += len(names)

        register(plan.initial)
        rep.phases["setup"] = phases.take()
        if client.negotiate() < PROTOCOL_BINARY:
            raise RuntimeError("server refused the binary protocol")
        intern_s = 0.0
        t0 = perf()
        client.intern(plan.initial)
        intern_s += perf() - t0
        rep.setup_began = began
        rep.setup_s = perf() - began
        before = client.stats()["totals"]
        tel_before = client.telemetry()["metrics"]
        cpu_before = server.cpu_s()
        checkpoint_s = 0.0
        errors = 0
        loop_s = 0.0
        client_ns: dict[str, int] = {}
        for step, (live, values, removed, added) in enumerate(zip(
                plan.live, plan.values, plan.removed, plan.added)):
            round_began = perf()
            idx = np.asarray(client.intern(live), dtype=np.uint32)
            steps = np.full(len(live), step, dtype=np.int64)
            if client_tracer is not None:
                client_tracer.take()
            latencies: list[float] = []
            acked = 0
            gc.disable()
            first = perf()
            for lo in range(0, len(live), w.batch):
                hi = lo + w.batch
                sent = perf()
                try:
                    reply = client.offer_columns(idx[lo:hi], steps[lo:hi],
                                                 values[lo:hi])
                except ProtocolError:
                    errors += len(idx[lo:hi])
                    continue
                latencies.append(perf() - sent)
                acked += reply.accepted
                rep.failed += reply.shed + reply.rejected
            loop_s += perf() - first
            gc.enable()
            if client_tracer is not None:
                for name, span in client_tracer.take()["spans"].items():
                    client_ns[name] = client_ns.get(name, 0) + \
                        span["total_ns"]
            _drain(client)
            rep.attempted += len(live)
            for name in removed:
                client.remove_task(name)
            register(added)
            t0 = perf()
            client.intern(added)
            intern_s += perf() - t0
            t0 = perf()
            client.checkpoint()
            checkpoint_s = perf() - t0
            round_end = perf()
            rep.wall_s += round_end - round_began
            rep.acked += acked
            rep.latencies_s += latencies
            rep.windows.append((acked, round_began, round_end, latencies))
        rep.cpu_s = server.cpu_s() - cpu_before
        rep.client_spans = {"spans": {name: {"total_ns": ns} for name, ns
                                      in client_ns.items()},
                            "loop_s": loop_s}
        rep.phases["ingest"] = phases.take()
        checkpoint_bytes = ckpt.stat().st_size
        after = client.stats()["totals"]
        tel_after = client.telemetry()["metrics"]
        offered = int(_family_total(tel_after, "volley_updates_offered_total")
                      - _family_total(tel_before,
                                      "volley_updates_offered_total"))
        route_s = (_histogram_sum(tel_after, "volley_offer_latency_seconds")[0]
                   - _histogram_sum(tel_before,
                                    "volley_offer_latency_seconds")[0])
        rep.failed += errors
        rep.applied = _delta(after, before, "applied")
        rep.consumed = _delta(after, before, "consumed")
        rep.alerts = _delta(after, before, "alerts")
        rep.peak_rss_mb = server.peak_rss_mb()
        state = read_checkpoint(ckpt)
        t0 = perf()
        state_fingerprint(state)
        fingerprint_s = perf() - t0
        alerts_retained = sum(len(task["alerts"])
                              for shard in state["shards"]
                              for task in shard["tasks"])
    except BaseException:
        client.close()
        server.kill()
        raise
    finally:
        gc.enable()
    client.close()
    server.stop()
    rep.check(rep.acked == offered,
              f"ACKed offers {rep.acked} != server offered delta {offered}")
    rep.check(rep.failed == 0, f"{rep.failed} of {rep.attempted} offers "
              f"failed (shed, rejected or error replies)")
    rep.check(rep.consumed == ref["consumed"],
              f"consumed {rep.consumed} != scalar reference "
              f"{ref['consumed']}")
    rep.check(rep.alerts == ref["alerts"],
              f"alerts {rep.alerts} != scalar reference {ref['alerts']}")

    restart = servers.ServerProcess("runtime", workdir, w.shards,
                                    checkpoint=ckpt, trace_dir=trace_dir)
    restart_phases = _Phases(restart, trace_dir)
    began = restart.start()
    restart_s = perf() - began
    client = RuntimeClient(port=restart.port, timeout=60.0)
    try:
        client.connect()
        rep.phases["restore"] = restart_phases.take()
        expected = ref["tasks"]
        mismatched = 0
        for name, want in expected.items():
            info = client.task_info(name)
            got = [info["interval"], info["next_due"], info["samples_taken"]]
            if got != want:
                mismatched += 1
        live = client.stats()["totals"]["tasks"]
    except BaseException:
        client.close()
        restart.kill()
        raise
    client.close()
    restart.stop()
    rep.check(live == len(expected),
              f"restarted server has {live} tasks, expected {len(expected)}")
    rep.check(mismatched == 0,
              f"{mismatched} tasks changed interval/next_due/samples_taken "
              f"across the restart (or differ from the scalar reference)")
    rep.server = {"route_s": route_s,
                  "register_s": register_s, "registered": registered,
                  "intern_s": intern_s, "checkpoint_s": checkpoint_s,
                  "checkpoint_bytes": checkpoint_bytes,
                  "fingerprint_s": fingerprint_s,
                  "alerts_retained": alerts_retained,
                  "restart_s": restart_s, "tasks": len(expected)}
    return rep


def sweep_rep(w: st.Workload, seed: int, workdir: pathlib.Path,
              expected_csv: str, traced: bool = False) -> Rep:
    """One ``python -m repro.experiments fig5a`` run (via entry.py)."""
    rep = Rep()
    out = workdir / "sweep.json"
    csv_dir = workdir / "csv"
    for stale in (out, csv_dir / "fig5a.csv"):
        if stale.exists():
            stale.unlink()
    argv = [sys.executable, str(servers.BENCH / "entry.py"), "sweep",
            str(out), "fig5a", "--seed", str(seed), "--workers", "1",
            "--no-cache", "--streams", str(w.streams), "--horizon",
            str(w.horizon), "--csv", str(csv_dir)]
    if traced:
        argv.append("--trace")
    log = workdir / "sweep.stderr"
    began = time.perf_counter()
    with open(log, "wb") as stderr:
        proc = subprocess.Popen(argv, cwd=servers.ROOT,
                                env=servers.server_env(None),
                                stdout=subprocess.DEVNULL, stderr=stderr)
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        err = log.read_text(encoding="utf-8", errors="replace")
        raise RuntimeError(f"fig5a sweep failed ({proc.returncode}):\n"
                           f"{err[-2000:]}")
    payload = json.loads(out.read_text(encoding="utf-8"))
    csv = (csv_dir / "fig5a.csv").read_text(encoding="utf-8")
    rows = [line.split(",") for line in csv.strip().splitlines()[1:]]
    cells = len(rows)
    rep.setup_began = began
    rep.setup_s = payload["sweep_began"] - began
    rep.wall_s = payload["wall_s"]
    rep.latencies_s = list(payload["cell_s"])
    rep.attempted = cells
    rep.applied = cells * w.streams * w.horizon
    rep.windows = [(rep.applied, payload["sweep_began"],
                    payload["sweep_began"] + rep.wall_s, rep.latencies_s)]
    ratios = [float(r[2]) for r in rows]
    rep.server = {"sampling_ratio": sum(ratios) / len(ratios),
                  "misdetection": sum(float(r[3]) for r in rows) / cells,
                  "spans": payload.get("spans")}
    rep.peak_rss_mb = usage.ru_maxrss / 1024.0
    rep.check(csv == expected_csv,
              "fig5a CSV differs from the in-process reference for this seed")
    return rep
