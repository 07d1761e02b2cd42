"""Sharded asyncio ingestion server wrapping MonitoringService shards.

One process, one event loop, ``shards`` independent
:class:`~repro.service.MonitoringService` instances each owned by a
:class:`~repro.runtime.shard.ShardWorker`. Connection handlers parse
frames and route; the only work done inline on the data path is hashing
the task name and a non-blocking queue put — application of updates
happens in the shard drain loops, so a burst on one shard backpressures
that shard alone.

Delivery semantics: an ``offer_batch`` reply with ``accepted == n`` means
the updates are queued on their shards. Batches are applied in arrival
order per shard. On graceful shutdown (SIGTERM/SIGINT or
:meth:`RuntimeServer.shutdown`) the server stops accepting connections,
drains every queue, and flushes a final checkpoint — every acknowledged
update is therefore either applied or persisted. On a hard crash, updates
queued after the last checkpoint are lost (at-most-once); clients that
need stronger guarantees replay from their own cursor.

Sharding constraint: correlation triggers
(:meth:`~repro.service.MonitoringService.add_trigger`) connect two tasks
through shared last-seen state, so target and trigger must hash to the
same shard; ``add_trigger`` rejects cross-shard pairs with code
``cross-shard-trigger``. The *trigger channel* (``trigger_install`` and
friends, DESIGN.md S32) lifts that constraint: it gates on explicit
arm/disarm edges routed by the server, so the pair may live on any two
shards — or, under the cluster runtime, any two workers.
"""

from __future__ import annotations

import argparse
import asyncio
import functools
import json
import logging
import os
import pathlib
import signal
import sys
import time
from typing import Any, Awaitable, Callable

import numpy as np

from repro.config import RuntimeConfig, register_task_from_config
from repro.core.adaptation import AdaptationConfig
from repro.core.substrates import TASK_TYPES
from repro.exceptions import (CheckpointError, ConfigurationError,
                              ProtocolError, ReproError)
from repro.runtime.checkpoint import read_checkpoint, write_checkpoint
from repro.runtime.protocol import (PROTOCOL_BINARY, PROTOCOL_JSON,
                                    PROTOCOL_VERSION, OfferColumns,
                                    encode_frame, encode_frame_parts,
                                    encode_offer_reply, read_frame)
from repro.runtime.shard import (ColumnBatch, ShardWorker, restore_counters,
                                 shard_for)
from repro.service import MonitoringService
from repro.telemetry.exposition import (CONTENT_TYPE_PROMETHEUS,
                                        TelemetryHTTPServer,
                                        render_prometheus)
from repro.telemetry.registry import MetricsRegistry, instrument_samplers
from repro.telemetry.selfmon import SelfMonitor
from repro.telemetry.trace import DecisionTrace
from repro.testkit.faults import FaultHook, NOOP_HOOK
from repro.triggers.plan import TriggerPlan

__all__ = ["RuntimeServer", "main"]

logger = logging.getLogger(__name__)


def _error(message: str, code: str = "bad-request") -> dict[str, Any]:
    return {"ok": False, "error": message, "code": code}


def arm_shutdown_signals(shutdown: Callable[[], Awaitable[None]]) -> None:
    """Route SIGTERM/SIGINT on the running loop to ``shutdown()``."""
    loop = asyncio.get_running_loop()
    tasks: list[asyncio.Task] = []  # the loop holds tasks only weakly

    def _request_shutdown() -> None:
        tasks.append(loop.create_task(shutdown()))

    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, _request_shutdown)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # non-unix platforms / nested loops


def write_ready_file(path: pathlib.Path, ready: dict[str, Any]) -> None:
    """Publish a ready file atomically (temp file + ``os.replace``), so a
    watcher never reads a partial one."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(ready), encoding="utf-8")
    os.replace(tmp, path)


_MAX_INTERN = 1 << 20  # hard cap on per-connection intern table size


class _InternNames:
    """Lazy position → task-name view for the columnar fallback path.

    ``offer_columns`` touches names only for the (rare) fallback
    positions, so the hot path never materialises a per-offer name list.
    """

    __slots__ = ("table", "idx")

    def __init__(self, table: list[str | None], idx: np.ndarray):
        self.table = table
        self.idx = idx

    def __getitem__(self, pos: int) -> str | None:
        i = int(self.idx[pos])
        return self.table[i] if 0 <= i < len(self.table) else None


class _ConnState:
    """Per-connection wire state: negotiated version + intern table."""

    __slots__ = ("protocol", "names", "shard", "row")

    def __init__(self) -> None:
        self.protocol = PROTOCOL_JSON
        self.names: list[str | None] = []
        # idx → shard id (-1 = unknown name slot) and SoA engine row
        # (-1 = resolve by name), rebuilt as arrays after each intern op.
        self.shard = np.empty(0, dtype=np.int64)
        self.row = np.empty(0, dtype=np.int64)


class RuntimeServer:
    """The live-ingestion runtime: shards, wire handlers, checkpoints.

    Args:
        runtime: deployment knobs (shard count, queue depth, listen
            addresses, checkpoint path/interval).
        service_config: optional declarative service config (the
            ``defaults``/``tasks``/``triggers`` shape of
            :func:`repro.config.service_from_config`); tasks it declares
            are registered at startup unless a checkpoint already has them.
        adaptation: default adaptation tunables for tasks registered over
            the wire.
        fault_hook: chaos-testing seam (``repro.testkit``). The default
            :data:`~repro.testkit.faults.NOOP_HOOK` injects nothing and
            costs one guarded attribute check per frame/batch.
        registry: metrics registry for the runtime's instruments; the
            default creates a fresh live
            :class:`~repro.telemetry.registry.MetricsRegistry`. Pass
            :data:`~repro.telemetry.registry.NULL_REGISTRY` to run
            un-instrumented.
        trace: decision trace receiving structured runtime events; the
            default creates a
            :class:`~repro.telemetry.trace.DecisionTrace` ring of
            ``runtime.trace_capacity`` events. Pass
            :data:`~repro.telemetry.trace.NULL_TRACE` to disable.
    """

    def __init__(self, runtime: RuntimeConfig | None = None,
                 service_config: dict[str, Any] | None = None,
                 adaptation: AdaptationConfig | None = None,
                 fault_hook: FaultHook = NOOP_HOOK,
                 registry: Any = None, trace: Any = None):
        self.config = runtime or RuntimeConfig()
        self._adaptation = adaptation or AdaptationConfig()
        self._defaults: dict[str, Any] = {}
        self.fault_hook = fault_hook
        self.registry = MetricsRegistry() if registry is None else registry
        self.trace = (DecisionTrace(self.config.trace_capacity)
                      if trace is None else trace)
        # Protocol ≥ 2 servers back eligible tasks with the SoA engine so
        # binary offer columns apply without per-offer Python objects; a
        # protocol-1 deployment keeps the historical scalar-only services.
        self._soa_enabled = self.config.protocol >= PROTOCOL_BINARY
        self._workers = [
            ShardWorker(i, MonitoringService(self._adaptation,
                                             soa=self._soa_enabled),
                        self.config.queue_depth, fault_hook=fault_hook)
            for i in range(self.config.shards)
        ]
        self._task_shard: dict[str, int] = {}
        self._trigger_plans: dict[str, TriggerPlan] = {}
        self._trigger_edges = {"arm": 0, "disarm": 0}
        self._servers: list[asyncio.AbstractServer] = []
        self._connections: set[asyncio.Task[None]] = set()
        self._checkpoint_task: asyncio.Task[None] | None = None
        self._shutdown_started = False
        self._done = asyncio.Event()
        self._started_monotonic = 0.0
        self._last_checkpoint_monotonic: float | None = None
        self._checkpoint_failures = 0
        self._frames = 0
        self._restored_tasks = 0
        self._pending_config = service_config or {}
        self._tcp_port: int | None = None
        self._http: TelemetryHTTPServer | None = None
        self.selfmon: SelfMonitor | None = None
        self._register_metrics()
        self._wire_worker_telemetry()

    # ------------------------------------------------------------------
    # Shard plumbing

    def worker_for(self, name: str) -> ShardWorker:
        """The shard worker a task name routes to."""
        return self._workers[shard_for(name, self.config.shards)]

    # ------------------------------------------------------------------
    # Telemetry

    def _register_metrics(self) -> None:
        """Register the runtime's metric families on :attr:`registry`.

        Everything the runtime already counts is exported through
        snapshot-time callbacks (``fn=``) — the shard workers' plain int
        counters stay the single source of truth and the hot path pays
        nothing. Only the latency/size/interval distributions are
        push-based histograms.
        """
        registry = self.registry
        per_shard = (
            ("volley_updates_offered_total",
             "Updates accepted into shard queues", "offered"),
            ("volley_updates_applied_total",
             "Updates applied to shard services", "applied"),
            ("volley_updates_consumed_total",
             "Updates consumed as scheduled samples", "consumed"),
            ("volley_updates_shed_total",
             "Updates shed under backpressure", "shed"),
            ("volley_updates_rejected_total",
             "Updates rejected (unknown task / malformed)", "rejected"),
            ("volley_alerts_fired_total",
             "State-violation alerts fired", "alerts_fired"),
        )
        for name, help_text, attr in per_shard:
            family = registry.counter(name, help_text, labels=("shard",))
            for worker in self._workers:
                family.labels(
                    worker.shard_id,
                    fn=lambda w=worker, a=attr: float(getattr(w, a)))
        depth = registry.gauge("volley_queue_depth",
                               "Batches queued per shard",
                               labels=("shard",))
        for worker in self._workers:
            depth.labels(worker.shard_id,
                         fn=lambda w=worker: float(w.depth))
        registry.counter("volley_frames_total",
                         "Wire frames handled",
                         fn=lambda: float(self._frames))
        registry.gauge("volley_tasks",
                       "Monitoring tasks registered",
                       fn=lambda: float(len(self._task_shard)))
        by_type = registry.gauge("volley_tasks_by_type",
                                 "Monitoring tasks registered, per task "
                                 "type", labels=("type",))
        for kind in TASK_TYPES:
            by_type.labels(kind, fn=lambda k=kind: float(sum(
                w.service.task_type_counts().get(k, 0)
                for w in self._workers)))
        registry.gauge("volley_uptime_seconds",
                       "Seconds since the server started",
                       fn=lambda: (time.monotonic() - self._started_monotonic
                                   if self._started_monotonic else 0.0))
        registry.counter("volley_checkpoint_failures_total",
                         "Periodic checkpoint writes that failed",
                         fn=lambda: float(self._checkpoint_failures))
        registry.gauge("volley_checkpoint_age_seconds",
                       "Seconds since the last successful checkpoint "
                       "(0 before the first)",
                       fn=lambda: self.checkpoint_age() or 0.0)
        registry.counter("volley_trace_events_dropped_total",
                         "Decision-trace events evicted unread",
                         fn=lambda: float(self.trace.dropped))
        self._offer_latency = registry.histogram(
            "volley_offer_latency_seconds",
            "offer_batch handler latency (server-side)")
        self._offer_batch_size = registry.histogram(
            "volley_offer_batch_size",
            "Updates per offer_batch frame")
        self._interval_hist = registry.histogram(
            "volley_sampling_interval",
            "Sampling interval after each consumed update")
        edges = registry.counter(
            "volley_trigger_edges_total",
            "Trigger-channel arm/disarm edges routed to guarded tasks",
            labels=("op",))
        for edge_op in ("arm", "disarm"):
            edges.labels(edge_op,
                         fn=lambda o=edge_op: float(self._trigger_edges[o]))
        registry.gauge("volley_trigger_plans",
                       "Correlation trigger plans installed",
                       fn=lambda: float(len(self._trigger_plans)))
        registry.counter(
            "volley_trigger_suspensions_total",
            "Consumed offers deferred by disarmed trigger guards",
            fn=lambda: float(sum(w.service.trigger_accounting()[0]
                                 for w in self._workers)))
        registry.gauge(
            "volley_trigger_probe_cost_saved",
            "Estimated probe collections avoided by trigger guards",
            fn=lambda: float(sum(w.service.trigger_accounting()[1]
                                 for w in self._workers)))
        self._checkpoint_write = registry.histogram(
            "volley_checkpoint_write_seconds",
            "Checkpoint serialize+fsync latency")

    def _wire_worker_telemetry(self) -> None:
        """(Re)attach trace + interval histogram to every shard worker.

        Called at construction and again after a checkpoint restore
        replaces the workers' services.
        """
        interval_hist = (self._interval_hist
                         if self.registry.enabled else None)
        for worker in self._workers:
            worker.interval_hist = interval_hist
            worker.service.attach_telemetry(self.trace, worker.shard_id)
            # Trigger edges route synchronously: watch fires in a shard
            # drain loop, the sink flips the target's armed flag on its
            # own shard inline (one event loop, so no cross-shard race).
            worker.service.set_trigger_sink(self._on_trigger_edge)

    def checkpoint_age(self) -> float | None:
        """Seconds since the last successful checkpoint (None if never)."""
        last = self._last_checkpoint_monotonic
        return None if last is None else time.monotonic() - last

    @property
    def http_port(self) -> int | None:
        """The bound telemetry HTTP port (None when disabled)."""
        return self._http.port if self._http is not None else None

    def _http_routes(self) -> dict[str, Any]:
        def metrics(params: dict[str, str]) -> tuple[int, str, str]:
            body = render_prometheus(self.registry.snapshot())
            return 200, CONTENT_TYPE_PROMETHEUS, body

        def healthz(params: dict[str, str]) -> tuple[int, str, str]:
            healthy = not self._shutdown_started
            body = json.dumps({
                "ok": healthy,
                "shards": self.config.shards,
                "tasks": len(self._task_shard),
                "uptime_s": time.monotonic() - self._started_monotonic,
            })
            return (200 if healthy else 503), "application/json", body

        def trace_route(params: dict[str, str]) -> tuple[int, str, str]:
            try:
                since = int(params.get("since", "0"))
            except ValueError:
                return 400, "text/plain; charset=utf-8", "bad since\n"
            return (200, "application/x-ndjson",
                    self.trace.to_jsonl(since=since))

        return {"/metrics": metrics, "/healthz": healthz,
                "/trace": trace_route}

    # ------------------------------------------------------------------
    # Lifecycle

    async def start(self) -> None:
        """Restore state, start shard workers, bind listen sockets."""
        self._started_monotonic = time.monotonic()
        instrument_samplers(self.registry)
        self._maybe_restore()
        self._wire_worker_telemetry()  # restore replaces worker services
        self._apply_service_config(self._pending_config)
        for worker in self._workers:
            worker.start()
        cfg = self.config
        if cfg.unix_socket is not None:
            cfg.unix_socket.parent.mkdir(parents=True, exist_ok=True)
            if cfg.unix_socket.exists():
                cfg.unix_socket.unlink()
            self._servers.append(await asyncio.start_unix_server(
                self._on_connection, path=str(cfg.unix_socket)))
        if cfg.port is not None:
            server = await asyncio.start_server(
                self._on_connection, host=cfg.host, port=cfg.port)
            self._tcp_port = server.sockets[0].getsockname()[1]
            self._servers.append(server)
        if cfg.http_port is not None:
            self._http = TelemetryHTTPServer(
                self._http_routes(), host=cfg.host, port=cfg.http_port)
            await self._http.start()
        if cfg.selfmon_interval is not None:
            self.selfmon = SelfMonitor(self, registry=self.registry,
                                       trace=self.trace)
            self.selfmon.start(cfg.selfmon_interval)
        if cfg.checkpoint_path is not None:
            self._checkpoint_task = asyncio.get_running_loop().create_task(
                self._checkpoint_loop(), name="checkpoint-loop")

    @property
    def tcp_port(self) -> int | None:
        """The bound TCP port (resolves ``port=0`` to the actual port)."""
        return self._tcp_port

    @property
    def restored_tasks(self) -> int:
        """Number of tasks recovered from the checkpoint at startup."""
        return self._restored_tasks

    def _maybe_restore(self) -> None:
        path = self.config.checkpoint_path
        if path is None or not pathlib.Path(path).exists():
            return
        state = read_checkpoint(path)
        shard_count = int(state.get("shard_count", -1))
        if shard_count != self.config.shards:
            raise CheckpointError(
                f"checkpoint was written with {shard_count} shards but the "
                f"server is configured with {self.config.shards}; "
                f"resharding a checkpoint is not supported")
        snapshots = state.get("shards", [])
        for worker, snapshot in zip(self._workers, snapshots):
            worker.service = MonitoringService.restore(
                snapshot, soa=self._soa_enabled)
            self._restored_tasks += len(worker.service.task_names)
        self._task_shard = {str(k): int(v) for k, v in
                            state.get("task_shard", {}).items()}

        for counters, worker in zip(state.get("counters", []), self._workers):
            restore_counters(worker, counters)
        # Rebuild the routing table only — the armed flags and watcher
        # debounce state already came back inside the shard snapshots,
        # bit-identical; re-installing would conservatively re-arm.
        for entry in state.get("triggers", []):
            plan = TriggerPlan.from_dict(dict(entry))
            self._trigger_plans[plan.target] = plan
        self.trace.emit("restore", tasks=self._restored_tasks,
                        shards=self.config.shards, path=str(path))

    def _apply_service_config(self, config: dict[str, Any]) -> None:
        if not config:
            return
        if not isinstance(config, dict):
            raise ConfigurationError(
                f"service config must be a dict, got {config!r}")
        self._defaults = dict(config.get("defaults", {}))
        for entry in config.get("tasks", []):
            name = str(entry.get("name", ""))
            if name in self._task_shard:
                continue  # checkpoint wins over the config file
            self._register_task(dict(entry))
        for trigger in config.get("triggers", []):
            reply = self._op_add_trigger(dict(trigger))
            if not reply.get("ok"):
                raise ConfigurationError(str(reply.get("error")))
        for entry in config.get("trigger_plans", []):
            plan = TriggerPlan.from_dict(dict(entry))
            for name in (plan.target, plan.trigger):
                if name not in self._task_shard:
                    raise ConfigurationError(
                        f"trigger plan references unknown task {name!r}")
            if plan.target not in self._trigger_plans:  # checkpoint wins
                self._install_plan(plan)

    def _register_task(self, entry: dict[str, Any]) -> dict[str, Any]:
        name = str(entry.get("name", ""))
        worker = self.worker_for(name)
        spec = register_task_from_config(worker.service, entry,
                                         self._defaults,
                                         config=self._adaptation)
        self._task_shard[spec.name] = worker.shard_id
        self.trace.emit("task_registered", task=spec.name,
                        shard=worker.shard_id, threshold=spec.threshold,
                        type=worker.service.task_type(spec.name))
        return {"ok": True, "task": spec.name, "shard": worker.shard_id,
                "type": worker.service.task_type(spec.name)}

    async def shutdown(self) -> None:
        """Graceful stop: quiesce, drain every shard, flush a checkpoint."""
        if self._shutdown_started:
            await self._done.wait()
            return
        self._shutdown_started = True
        for server in self._servers:
            server.close()
        for server in self._servers:
            await server.wait_closed()
        for conn in list(self._connections):
            conn.cancel()
        if self.selfmon is not None:
            await self.selfmon.stop()
        if self._http is not None:
            await self._http.stop()
        if self._checkpoint_task is not None:
            self._checkpoint_task.cancel()
            try:
                await self._checkpoint_task
            except asyncio.CancelledError:
                pass
        for worker in self._workers:
            await worker.stop()
        if self.config.checkpoint_path is not None:
            self.write_checkpoint()
        if (self.config.unix_socket is not None
                and self.config.unix_socket.exists()):
            self.config.unix_socket.unlink()
        self._done.set()

    async def drain(self) -> None:
        """Wait until every queued batch on every shard has been applied."""
        for worker in self._workers:
            await worker.drain()

    async def abort(self) -> None:
        """Hard crash: stop everything with no drain and no final flush.

        The counterpart of :meth:`shutdown` for chaos testing — queued
        batches are abandoned and no checkpoint is written, so the next
        incarnation restores exactly the last durable checkpoint
        (at-most-once delivery, as documented in the module docstring).
        """
        if self._shutdown_started:
            await self._done.wait()
            return
        self._shutdown_started = True
        for server in self._servers:
            server.close()
        for server in self._servers:
            await server.wait_closed()
        for conn in list(self._connections):
            conn.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        if self.selfmon is not None:
            await self.selfmon.stop()
        if self._http is not None:
            await self._http.stop()
        if self._checkpoint_task is not None:
            self._checkpoint_task.cancel()
            try:
                await self._checkpoint_task
            except asyncio.CancelledError:
                pass
        for worker in self._workers:
            await worker.abort()
        if (self.config.unix_socket is not None
                and self.config.unix_socket.exists()):
            self.config.unix_socket.unlink()
        self._done.set()

    async def serve_forever(self,
                            on_ready: Callable[[], None] | None = None,
                            ) -> None:
        """Run until :meth:`shutdown` (or SIGTERM/SIGINT) completes.

        ``on_ready`` runs once the signal handlers are armed — the CLIs
        publish their ready file there, so a supervisor may signal the
        moment it appears.
        """
        arm_shutdown_signals(self.shutdown)
        if on_ready is not None:
            on_ready()
        await self._done.wait()

    # ------------------------------------------------------------------
    # Checkpointing

    def runtime_state(self) -> dict[str, Any]:
        """The full runtime state (what checkpoints persist)."""
        state: dict[str, Any] = {
            "shard_count": self.config.shards,
            "task_shard": dict(self._task_shard),
            "shards": [w.service.snapshot() for w in self._workers],
            "counters": [w.stats() for w in self._workers],
        }
        if self._trigger_plans:
            # Only-when-present, like the typed-task snapshot keys:
            # checkpoints without trigger plans stay byte-identical to
            # every earlier release's.
            state["triggers"] = [self._trigger_plans[t].to_dict()
                                 for t in sorted(self._trigger_plans)]
        return state

    def write_checkpoint(self) -> pathlib.Path:
        """Write a checkpoint now; returns the path written."""
        path = self.config.checkpoint_path
        if path is None:
            raise ConfigurationError("no checkpoint_path configured")
        began = time.monotonic()
        written = write_checkpoint(path, self.runtime_state(),
                                   fault_hook=self.fault_hook)
        finished = time.monotonic()
        self._last_checkpoint_monotonic = finished
        self._checkpoint_write.observe(finished - began)
        self.trace.emit("checkpoint_written", path=str(written),
                        write_s=finished - began,
                        tasks=len(self._task_shard))
        return written

    async def _checkpoint_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.checkpoint_interval)
            try:
                self.write_checkpoint()
            except Exception:
                # A transient write failure (disk full, permissions) must
                # not kill the periodic loop — crash recovery would then
                # silently degrade to the last successful checkpoint. Log,
                # count it, and retry next interval. Failure age is
                # visible via the `stats` op.
                self._checkpoint_failures += 1
                self.trace.emit("checkpoint_failed",
                                failures=self._checkpoint_failures)
                logger.exception("periodic checkpoint failed (%d so far); "
                                 "will retry in %gs",
                                 self._checkpoint_failures,
                                 self.config.checkpoint_interval)

    # ------------------------------------------------------------------
    # Wire handling

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._connections.add(task)
        conn = _ConnState()
        try:
            hook = self.fault_hook
            while True:
                try:
                    request = await read_frame(reader, fault_hook=hook)
                except ProtocolError as exc:
                    writer.writelines(encode_frame_parts(
                        _error(str(exc), code="protocol")))
                    await writer.drain()
                    break
                if request is None:
                    break
                self._frames += 1
                if isinstance(request, OfferColumns):
                    if conn.protocol < PROTOCOL_BINARY:
                        writer.writelines(encode_frame_parts(_error(
                            "binary frames require a negotiated "
                            "protocol >= 2 (send a 'hello' op first)",
                            code="protocol")))
                        await writer.drain()
                        break
                    writer.writelines(self._offer_columns(conn, request))
                    await writer.drain()
                    continue
                if not isinstance(request, dict):
                    # Decoded binary frame of a kind the ingest server
                    # has no business receiving (reply / shard fan-out).
                    writer.writelines(encode_frame_parts(_error(
                        "unexpected binary frame kind", code="protocol")))
                    await writer.drain()
                    break
                op = request.get("op")
                if op == "hello":
                    reply = self._op_hello(conn, request)
                elif op == "intern":
                    reply = self._op_intern(conn, request)
                else:
                    reply = self.handle_request(request)
                    if (hook.enabled and op == "offer_batch"
                            and hook.duplicate_frame(request)):
                        # Duplicated delivery: the frame is dispatched
                        # twice but only the primary reply goes back on
                        # the wire — exactly what a client retrying a
                        # lost ACK produces.
                        hook.note_duplicate_reply(
                            self.handle_request(request))
                writer.writelines(encode_frame_parts(reply))
                await writer.drain()
        except (asyncio.CancelledError, ConnectionResetError,
                BrokenPipeError):
            pass
        finally:
            self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    def handle_request(self, request: dict[str, Any]) -> dict[str, Any]:
        """Dispatch one decoded request frame to its op handler.

        Synchronous by design: every op either enqueues (data path) or
        reads/mutates shard state inline (control path); nothing awaits,
        so a request can never interleave with another mid-handler.
        """
        op = request.get("op")
        handler = self._OPS.get(op) if isinstance(op, str) else None
        if handler is None:
            return _error(f"unknown op {op!r}", code="unknown-op")
        try:
            return handler(self, request)
        except ReproError as exc:
            return _error(str(exc))
        except (ValueError, TypeError, KeyError) as exc:
            # Malformed field inside an otherwise well-framed request
            # (e.g. aggregate="bogus", non-int step). The connection must
            # get an error reply, never be dropped.
            return _error(f"invalid request: {exc}")

    def _op_ping(self, request: dict[str, Any]) -> dict[str, Any]:
        return {"ok": True, "shards": self.config.shards,
                "tasks": len(self._task_shard),
                "protocol": self.max_protocol}

    def _op_register_task(self, request: dict[str, Any]) -> dict[str, Any]:
        entry = request.get("task")
        if not isinstance(entry, dict):
            return _error("register_task needs a 'task' dict")
        return self._register_task(entry)

    def _op_remove_task(self, request: dict[str, Any]) -> dict[str, Any]:
        name = str(request.get("task", ""))
        if name not in self._task_shard:
            return _error(f"unknown task {name!r}", code="unknown-task")
        worker = self.worker_for(name)
        worker.service.remove_task(name)
        del self._task_shard[name]
        self.trace.emit("task_removed", task=name, shard=worker.shard_id)
        return {"ok": True, "task": name}

    def _op_add_trigger(self, request: dict[str, Any]) -> dict[str, Any]:
        target = str(request.get("target", ""))
        trigger = str(request.get("trigger", ""))
        for name in (target, trigger):
            if name not in self._task_shard:
                return _error(f"unknown task {name!r}", code="unknown-task")
        if self._task_shard[target] != self._task_shard[trigger]:
            return _error(
                f"target {target!r} (shard {self._task_shard[target]}) and "
                f"trigger {trigger!r} (shard {self._task_shard[trigger]}) "
                f"hash to different shards; correlation gating is "
                f"intra-shard", code="cross-shard-trigger")
        worker = self.worker_for(target)
        worker.service.add_trigger(
            target, trigger,
            elevation_level=float(request.get("elevation_level", 0.0)),
            suspend_interval=int(request.get("suspend_interval", 10)))
        return {"ok": True, "target": target, "trigger": trigger}

    # -- trigger channel (repro.triggers, DESIGN.md S32) ----------------

    def _on_trigger_edge(self, event: dict[str, Any]) -> None:
        """Route one watch edge to every guarded target (the sink)."""
        op = event.get("op")
        trigger = event.get("trigger")
        armed = op == "arm"
        for plan in self._trigger_plans.values():
            if plan.trigger != trigger:
                continue
            try:
                self.worker_for(plan.target).service.set_trigger_armed(
                    plan.target, armed)
            except ConfigurationError:
                continue  # target removed since the plan was installed
            self._trigger_edges["arm" if armed else "disarm"] += 1

    def _install_plan(self, plan: TriggerPlan) -> None:
        self.worker_for(plan.trigger).service.install_trigger_plan(plan)
        self.worker_for(plan.target).service.install_trigger_plan(plan)
        self._trigger_plans[plan.target] = plan
        self.trace.emit("trigger_plan_installed", task=plan.target,
                        shard=self._task_shard.get(plan.target),
                        trigger=plan.trigger,
                        elevation_level=plan.elevation_level,
                        suspend_interval=plan.suspend_interval)

    def _op_trigger_install(self, request: dict[str, Any]) -> dict[str, Any]:
        entry = request.get("plan")
        if not isinstance(entry, dict):
            return _error("trigger_install needs a 'plan' dict")
        plan = TriggerPlan.from_dict(entry)
        for name in (plan.target, plan.trigger):
            if name not in self._task_shard:
                return _error(f"unknown task {name!r}", code="unknown-task")
        self._install_plan(plan)
        return {"ok": True, "target": plan.target, "trigger": plan.trigger,
                "plans": len(self._trigger_plans)}

    def _set_trigger_armed(self, request: dict[str, Any],
                           armed: bool) -> dict[str, Any]:
        name = str(request.get("task", ""))
        if name not in self._task_shard:
            return _error(f"unknown task {name!r}", code="unknown-task")
        was = self.worker_for(name).service.set_trigger_armed(name, armed)
        if was != armed:
            self._trigger_edges["arm" if armed else "disarm"] += 1
        return {"ok": True, "task": name, "armed": armed, "was_armed": was}

    def _op_trigger_arm(self, request: dict[str, Any]) -> dict[str, Any]:
        return self._set_trigger_armed(request, True)

    def _op_trigger_disarm(self, request: dict[str, Any]) -> dict[str, Any]:
        return self._set_trigger_armed(request, False)

    def _op_trigger_state(self, request: dict[str, Any]) -> dict[str, Any]:
        name = str(request.get("task", ""))
        if name not in self._task_shard:
            return _error(f"unknown task {name!r}", code="unknown-task")
        status = self.worker_for(name).service.trigger_status(name)
        return {"ok": True, "task": name, "state": status}

    def _op_trigger_plans(self, request: dict[str, Any]) -> dict[str, Any]:
        suspensions, saved = 0, 0.0
        for worker in self._workers:
            s, p = worker.service.trigger_accounting()
            suspensions += s
            saved += p
        return {"ok": True,
                "plans": [self._trigger_plans[t].to_dict()
                          for t in sorted(self._trigger_plans)],
                "edges": dict(self._trigger_edges),
                "suspensions": suspensions,
                "probe_cost_saved": saved}

    def _op_offer_batch(self, request: dict[str, Any]) -> dict[str, Any]:
        instrumented = self.registry.enabled
        began = time.perf_counter() if instrumented else 0.0
        updates = request.get("updates")
        if not isinstance(updates, list):
            return _error("offer_batch needs an 'updates' list")
        if len(updates) > self.config.max_batch:
            return _error(
                f"batch of {len(updates)} exceeds max_batch="
                f"{self.config.max_batch}", code="batch-too-large")
        per_shard: dict[int, list[Any]] = {}
        rejected = 0
        for update in updates:
            if (not isinstance(update, (list, tuple)) or len(update) != 3):
                return _error(
                    "each update must be [task, step, value]")
            step, value = update[1], update[2]
            if (not isinstance(step, (int, float))
                    or not isinstance(value, (int, float))
                    or isinstance(step, bool) or isinstance(value, bool)):
                # Reject before enqueueing: a malformed update must never
                # be ACKed and then fail inside the shard drain loop.
                return _error(
                    f"update step and value must be numbers, got "
                    f"[{update[0]!r}, {step!r}, {value!r}]",
                    code="bad-update")
            shard = self._task_shard.get(str(update[0]))
            if shard is None:
                rejected += 1
                continue
            per_shard.setdefault(shard, []).append(update)
        accepted = 0
        shed = 0
        hook = self.fault_hook
        for shard, items in per_shard.items():
            worker = self._workers[shard]
            if hook.enabled and hook.force_shed(shard):
                # Chaos seam: shed as if the queue were full, so the
                # backpressure reply path is exercised deterministically.
                worker.shed += len(items)
                shed += len(items)
            elif worker.try_enqueue(items):
                accepted += len(items)
            else:
                shed += len(items)
        reply: dict[str, Any] = {"ok": True, "accepted": accepted,
                                 "shed": shed, "rejected": rejected}
        if shed:
            reply["backpressure"] = True
            reply["retry_after_ms"] = self.config.shed_retry_ms
            self.trace.emit("shed", count=shed,
                            batch=len(updates), accepted=accepted)
        if instrumented:
            self._offer_batch_size.observe(len(updates))
            self._offer_latency.observe(time.perf_counter() - began)
        return reply

    # -- binary protocol (negotiation, interning, columnar offers) ------

    @property
    def max_protocol(self) -> int:
        """Highest wire protocol version this server negotiates."""
        return min(self.config.protocol, PROTOCOL_VERSION)

    def _op_hello(self, conn: _ConnState,
                  request: dict[str, Any]) -> dict[str, Any]:
        """Version negotiation: both sides meet at the lower maximum.

        A protocol-1 server has no ``hello`` op at all — clients treat
        its ``unknown-op`` error as "stay on JSON", which is what makes
        the upgrade transparent in both directions.
        """
        try:
            peer_max = int(request.get("max_protocol", PROTOCOL_JSON))
        except (TypeError, ValueError):
            return _error("hello needs an integer 'max_protocol'")
        conn.protocol = max(PROTOCOL_JSON, min(peer_max, self.max_protocol))
        return {"ok": True, "protocol": conn.protocol,
                "server_protocol": self.max_protocol,
                "max_batch": self.config.max_batch}

    def _op_intern(self, conn: _ConnState,
                   request: dict[str, Any]) -> dict[str, Any]:
        """Install ``[index, name]`` pairs in the connection's table.

        Indexes are caller-assigned (so the client's own numbering rides
        the wire), may be re-interned to repoint a slot, and resolve to
        ``(shard, SoA row)`` eagerly — shard assignment is a stable hash
        so it can never go stale, and a stale row degrades to the
        always-correct by-name fallback. Names interned before their task
        is registered stay on the fallback path until re-interned.
        """
        entries = request.get("tasks")
        if not isinstance(entries, list):
            return _error("intern needs a 'tasks' list of [index, name]")
        for entry in entries:
            if (not isinstance(entry, (list, tuple)) or len(entry) != 2
                    or isinstance(entry[0], bool)
                    or not isinstance(entry[0], int)):
                return _error("each intern entry must be [index, name]")
            idx, name = int(entry[0]), str(entry[1])
            if not 0 <= idx < _MAX_INTERN:
                return _error(f"intern index {idx} out of range "
                              f"[0, {_MAX_INTERN})")
            if idx >= len(conn.names):
                conn.names.extend([None] * (idx + 1 - len(conn.names)))
            conn.names[idx] = name
        shards = self.config.shards
        shard = np.empty(len(conn.names), dtype=np.int64)
        row = np.empty(len(conn.names), dtype=np.int64)
        for i, name in enumerate(conn.names):
            if name is None:
                shard[i] = -1
                row[i] = -1
                continue
            shard[i] = shard_for(name, shards)
            service = self._workers[shard[i]].service
            try:
                row[i] = service.soa_row_for(name)
            except ConfigurationError:
                row[i] = -1
        conn.shard = shard
        conn.row = row
        return {"ok": True, "interned": len(entries),
                "table_size": len(conn.names)}

    def _offer_columns(self, conn: _ConnState,
                       cols: OfferColumns) -> tuple[bytes, bytes]:
        """Apply a decoded binary offer batch; returns the reply frame.

        The columnar twin of :meth:`_op_offer_batch`: same routing,
        backpressure and counter semantics, but the offers stay numpy
        columns from the wire to the shard queues.
        """
        instrumented = self.registry.enabled
        began = time.perf_counter() if instrumented else 0.0
        count = len(cols)
        if count > self.config.max_batch:
            return encode_frame_parts(_error(
                f"batch of {count} exceeds max_batch="
                f"{self.config.max_batch}", code="batch-too-large"))
        idx = cols.task_idx.astype(np.int64)
        steps = cols.steps
        values = cols.values
        valid = idx < len(conn.names)
        rejected = 0
        if not valid.all():
            keep = np.flatnonzero(valid)
            rejected = count - len(keep)
            idx = idx[keep]
            steps = steps[keep]
            values = values[keep]
        shards = conn.shard[idx] if len(idx) else conn.shard[:0]
        unknown = shards < 0
        if unknown.any():
            keep = np.flatnonzero(~unknown)
            rejected += int(unknown.sum())
            idx = idx[keep]
            steps = steps[keep]
            values = values[keep]
            shards = shards[keep]
        accepted = 0
        shed = 0
        hook = self.fault_hook
        for shard in np.unique(shards).tolist():
            sel = np.flatnonzero(shards == shard)
            sub_idx = idx[sel]
            batch = ColumnBatch(rows=conn.row[sub_idx],
                                steps=steps[sel], values=values[sel],
                                names=_InternNames(conn.names, sub_idx))
            worker = self._workers[shard]
            if hook.enabled and hook.force_shed(shard):
                worker.shed += len(batch)
                shed += len(batch)
            elif worker.try_enqueue_columns(batch):
                accepted += len(batch)
            else:
                shed += len(batch)
        backpressure = shed > 0
        if backpressure:
            self.trace.emit("shed", count=shed, batch=count,
                            accepted=accepted)
        if instrumented:
            self._offer_batch_size.observe(count)
            self._offer_latency.observe(time.perf_counter() - began)
        return encode_offer_reply(accepted, shed, rejected, backpressure,
                                  self.config.shed_retry_ms
                                  if backpressure else 0)

    def _op_due(self, request: dict[str, Any]) -> dict[str, Any]:
        name = str(request.get("task", ""))
        step = int(request.get("step", 0))
        worker = self.worker_for(name)
        next_due = worker.service.next_due(name)
        return {"ok": True, "due": step >= next_due,
                "next_due": next_due, "shard": worker.shard_id}

    def _op_task_info(self, request: dict[str, Any]) -> dict[str, Any]:
        name = str(request.get("task", ""))
        worker = self.worker_for(name)
        service = worker.service
        return {
            "ok": True,
            "task": name,
            "shard": worker.shard_id,
            "samples_taken": service.samples_taken(name),
            "alerts": len(service.alerts(name)),
            "interval": service.interval(name),
            "next_due": service.next_due(name),
            "observations": service.observations(name),
            "type": service.task_type(name),
            "estimate": service.task_estimate(name),
        }

    def _op_alerts(self, request: dict[str, Any]) -> dict[str, Any]:
        name = str(request.get("task", ""))
        alerts = self.worker_for(name).service.alerts(name)
        return {"ok": True, "task": name,
                "alerts": [[a.time_index, a.value, a.threshold]
                           for a in alerts]}

    def _op_stats(self, request: dict[str, Any]) -> dict[str, Any]:
        shards = [w.stats() for w in self._workers]
        # The totals dict keeps its original short keys: it is the reply's
        # own namespace (consumed by loadgen, replay, the chaos harness),
        # distinct from the per-shard canonical counter snapshots.
        totals = {short: sum(s[canonical] for s in shards)
                  for short, canonical in
                  (("offered", "updates_offered"),
                   ("applied", "updates_applied"),
                   ("consumed", "updates_consumed"),
                   ("shed", "updates_shed"),
                   ("rejected", "updates_rejected"),
                   ("alerts", "alerts_fired"),
                   ("queue_depth", "queue_depth"))}
        totals["tasks"] = len(self._task_shard)
        reply = {"ok": True, "shards": shards, "totals": totals,
                 "frames": self._frames,
                 "protocol": self.max_protocol,
                 "uptime_s": time.monotonic() - self._started_monotonic,
                 "restored_tasks": self._restored_tasks}
        if self.config.checkpoint_path is not None:
            last = self._last_checkpoint_monotonic
            reply["checkpoint"] = {
                "failures": self._checkpoint_failures,
                "last_age_s": (None if last is None
                               else time.monotonic() - last),
            }
        return reply

    def _op_checkpoint(self, request: dict[str, Any]) -> dict[str, Any]:
        path = self.write_checkpoint()
        return {"ok": True, "path": str(path)}

    def _op_telemetry(self, request: dict[str, Any]) -> dict[str, Any]:
        """Full metrics snapshot as JSON (the wire twin of ``/metrics``)."""
        reply: dict[str, Any] = {"ok": True,
                                 "metrics": self.registry.snapshot(),
                                 "trace": {"next_seq": self.trace.next_seq,
                                           "dropped": self.trace.dropped,
                                           "retained": len(self.trace)}}
        if self.selfmon is not None:
            reply["selfmon"] = self.selfmon.stats()
        return reply

    def _op_trace(self, request: dict[str, Any]) -> dict[str, Any]:
        since = int(request.get("since", 0))
        raw_limit = request.get("limit")
        limit = None if raw_limit is None else int(raw_limit)
        return {"ok": True,
                "events": self.trace.drain(since=since, limit=limit),
                "next_seq": self.trace.next_seq,
                "dropped": self.trace.dropped}

    _OPS = {
        "ping": _op_ping,
        "register_task": _op_register_task,
        "remove_task": _op_remove_task,
        "add_trigger": _op_add_trigger,
        "trigger_install": _op_trigger_install,
        "trigger_arm": _op_trigger_arm,
        "trigger_disarm": _op_trigger_disarm,
        "trigger_state": _op_trigger_state,
        "trigger_plans": _op_trigger_plans,
        "offer_batch": _op_offer_batch,
        "due": _op_due,
        "task_info": _op_task_info,
        "alerts": _op_alerts,
        "stats": _op_stats,
        "checkpoint": _op_checkpoint,
        "telemetry": _op_telemetry,
        "trace": _op_trace,
    }


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime",
        description="Sharded live-ingestion server for Volley monitoring "
                    "tasks (length-prefixed JSON over TCP/unix socket).")
    parser.add_argument("--config", type=pathlib.Path, default=None,
                        help="JSON config file; may hold a 'runtime' "
                             "section plus defaults/tasks/triggers")
    parser.add_argument("--host", default=None)
    parser.add_argument("--port", type=int, default=None,
                        help="TCP port (0 = ephemeral)")
    parser.add_argument("--unix", type=pathlib.Path, default=None,
                        help="unix-domain socket path to listen on")
    parser.add_argument("--shards", type=int, default=None)
    parser.add_argument("--queue-depth", type=int, default=None)
    parser.add_argument("--max-batch", type=int, default=None)
    parser.add_argument("--checkpoint", type=pathlib.Path, default=None,
                        help="checkpoint file (restored at startup if it "
                             "exists; flushed on shutdown)")
    parser.add_argument("--checkpoint-interval", type=float, default=None,
                        help="seconds between periodic checkpoints")
    parser.add_argument("--http-port", type=int, default=None,
                        help="telemetry HTTP port serving /metrics, "
                             "/healthz and /trace (0 = ephemeral; "
                             "omitted = disabled)")
    parser.add_argument("--selfmon-interval", type=float, default=None,
                        help="seconds between self-monitoring polls "
                             "(omitted = disabled)")
    parser.add_argument("--protocol", type=int, choices=(1, 2),
                        default=None,
                        help="highest wire protocol version to negotiate "
                             "(1 = JSON only, 2 = JSON + binary offers)")
    parser.add_argument("--ready-file", type=pathlib.Path, default=None,
                        help="write {port, unix, http_port, pid} JSON "
                             "once listening")
    return parser


def _runtime_config(args: argparse.Namespace,
                    file_section: dict[str, Any]) -> RuntimeConfig:
    base = RuntimeConfig.from_dict(file_section)
    overrides: dict[str, Any] = {}
    for arg, key in (("host", "host"), ("port", "port"),
                     ("shards", "shards"), ("queue_depth", "queue_depth"),
                     ("max_batch", "max_batch"),
                     ("checkpoint_interval", "checkpoint_interval"),
                     ("http_port", "http_port"),
                     ("selfmon_interval", "selfmon_interval"),
                     ("protocol", "protocol")):
        value = getattr(args, arg)
        if value is not None:
            overrides[key] = value
    if args.unix is not None:
        overrides["unix_socket"] = args.unix
    if args.checkpoint is not None:
        overrides["checkpoint_path"] = args.checkpoint
    if not overrides:
        return base
    merged = {key: getattr(base, key) for key in (
        "shards", "queue_depth", "max_batch", "host", "port", "unix_socket",
        "checkpoint_path", "checkpoint_interval", "shed_retry_ms",
        "http_port", "trace_capacity", "selfmon_interval", "protocol")}
    merged.update(overrides)
    return RuntimeConfig(**merged)


async def _run(args: argparse.Namespace) -> None:
    service_config: dict[str, Any] = {}
    runtime_section: dict[str, Any] = {}
    adaptation: AdaptationConfig | None = None
    if args.config is not None:
        loaded = json.loads(args.config.read_text(encoding="utf-8"))
        if not isinstance(loaded, dict):
            raise ConfigurationError("config file must hold a JSON object")
        runtime_section = dict(loaded.pop("runtime", {}))
        adaptation_section = loaded.pop("adaptation", None)
        if adaptation_section is not None:
            try:
                adaptation = AdaptationConfig(**adaptation_section)
            except TypeError as exc:
                raise ConfigurationError(
                    f"bad adaptation section: {exc}") from None
        service_config = loaded
    server = RuntimeServer(_runtime_config(args, runtime_section),
                           service_config=service_config,
                           adaptation=adaptation)
    await server.start()
    endpoints = []
    if server.tcp_port is not None:
        endpoints.append(f"tcp {server.config.host}:{server.tcp_port}")
    if server.config.unix_socket is not None:
        endpoints.append(f"unix {server.config.unix_socket}")
    if server.http_port is not None:
        endpoints.append(f"http {server.config.host}:{server.http_port}")
    print(f"[runtime] listening on {', '.join(endpoints)} "
          f"({server.config.shards} shards, "
          f"{server.restored_tasks} tasks restored)", flush=True)
    ready = None
    if args.ready_file is not None:
        ready = functools.partial(write_ready_file, args.ready_file, {
            "port": server.tcp_port,
            "unix": (str(server.config.unix_socket)
                     if server.config.unix_socket else None),
            "http_port": server.http_port,
            "pid": os.getpid()})
    await server.serve_forever(on_ready=ready)
    print("[runtime] shut down cleanly", flush=True)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point (``python -m repro.runtime``)."""
    args = _build_parser().parse_args(argv)
    try:
        asyncio.run(_run(args))
    except ReproError as exc:
        print(f"[runtime] error: {exc}", file=sys.stderr, flush=True)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
