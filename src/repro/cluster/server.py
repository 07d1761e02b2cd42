"""The cluster routing tier: the client-facing front end.

:class:`ClusterServer` speaks the exact op surface of the single-process
:class:`~repro.runtime.server.RuntimeServer` — same op names, same reply
shapes, same validation and backpressure contract — so every existing
client (:mod:`repro.runtime.client`, the load generator, the scenario
replayer) points at a cluster without changes. Two cluster-only ops are
added: ``migrate`` (move a shard between workers live) and ``placement``
(the live placement table, with worker pids for supervision).

Unlike ``RuntimeServer.handle_request`` (synchronous by design, because
all its state is local), dispatch here is async: every data/control op
awaits worker round-trips through the
:class:`~repro.cluster.coordinator.Coordinator`. Per-connection ordering
is preserved — one frame is fully handled before the next is read — but
connections interleave at await points; all cross-connection coordination
(buffering, cutover, settled waits) lives in the coordinator.
"""

from __future__ import annotations

import asyncio
import json
import logging
import time
from typing import Any, Callable

import numpy as np

from repro.config import ClusterConfig
from repro.core.adaptation import AdaptationConfig
from repro.exceptions import (ConfigurationError, ProtocolError, ReproError)
from repro.runtime.protocol import (PROTOCOL_BINARY, PROTOCOL_JSON,
                                    PROTOCOL_VERSION, OfferColumns,
                                    encode_frame_parts, encode_offer_reply,
                                    read_frame)
from repro.runtime.server import arm_shutdown_signals
from repro.telemetry.exposition import (CONTENT_TYPE_PROMETHEUS,
                                        TelemetryHTTPServer,
                                        render_prometheus)

from repro.cluster.coordinator import Coordinator

__all__ = ["ClusterServer"]

logger = logging.getLogger(__name__)

_MAX_INTERN = 1 << 20
"""Cap on interned task indexes per connection (same as the runtime)."""


def _error(message: str, code: str = "bad-request") -> dict[str, Any]:
    return {"ok": False, "error": message, "code": code}


class _ConnState:
    """Per-connection negotiation + intern state at the routing tier.

    ``shard`` caches each interned name's routing hash (stable for the
    cluster's lifetime); ``gid`` caches its cluster-global task id, which
    is only valid while the task is registered — ``epoch`` tracks the
    coordinator's task-table version so gid resolution refreshes lazily
    after any register/remove instead of per offer.
    """

    __slots__ = ("protocol", "names", "shard", "gid", "epoch")

    def __init__(self) -> None:
        self.protocol = PROTOCOL_JSON
        self.names: list[str | None] = []
        self.shard = np.empty(0, dtype=np.int64)
        self.gid = np.empty(0, dtype=np.int64)
        self.epoch = -1


class ClusterServer:
    """Routing tier bound to one :class:`Coordinator`."""

    def __init__(self, config: ClusterConfig,
                 adaptation: AdaptationConfig | None = None):
        self.config = config
        self.coordinator = Coordinator(config, adaptation=adaptation)
        self.registry = self.coordinator.registry
        self.trace = self.coordinator.trace
        self._servers: list[asyncio.AbstractServer] = []
        self._connections: set[asyncio.Task] = set()
        self._http: TelemetryHTTPServer | None = None
        self._tcp_port: int | None = None
        self._frames = 0
        self._shutdown_started = False
        self._done = asyncio.Event()
        self._started_monotonic = time.monotonic()
        self.registry.counter(
            "volley_frames_total", "Request frames handled by the router",
            fn=lambda: float(self._frames))
        self._offer_batch_size = self.registry.histogram(
            "volley_offer_batch_size", "Updates per offer_batch frame")
        self._offer_latency = self.registry.histogram(
            "volley_offer_latency_seconds",
            "Router-side offer_batch handling latency")

    # ------------------------------------------------------------------
    # Lifecycle

    async def start(self) -> None:
        """Start workers and placement, then bind the listen sockets."""
        await self.coordinator.start()
        cfg = self.config
        server = await asyncio.start_server(
            self._on_connection, host=cfg.host, port=cfg.port)
        self._tcp_port = server.sockets[0].getsockname()[1]
        self._servers.append(server)
        if cfg.http_port is not None:
            self._http = TelemetryHTTPServer(
                self._http_routes(), host=cfg.host, port=cfg.http_port)
            await self._http.start()

    @property
    def tcp_port(self) -> int | None:
        """The bound TCP port (resolves ``port=0`` to the actual port)."""
        return self._tcp_port

    @property
    def http_port(self) -> int | None:
        return self._http.port if self._http is not None else None

    async def apply_config(self, config: dict[str, Any]) -> None:
        """Register defaults, tasks and triggers from a config dict.

        Tasks go in one worker round trip per shard, after every entry
        has been parsed and checked for duplicate names
        (:meth:`Coordinator.register_tasks`).
        """
        self.coordinator.defaults = dict(config.get("defaults", {}))
        await self.coordinator.register_tasks(list(config.get("tasks", [])))
        for trigger in config.get("triggers", []):
            reply = await self.coordinator.add_trigger(dict(trigger))
            if not reply.get("ok"):
                raise ConfigurationError(str(reply.get("error")))
        for entry in config.get("trigger_plans", []):
            # A checkpoint-restored plan wins over the config copy, so a
            # deliberately disarmed guard is not re-armed on restart.
            target = str(dict(entry).get("target", ""))
            if target in self.coordinator.trigger_plans:
                continue
            reply = await self.coordinator.install_trigger(
                {"plan": dict(entry)})
            if not reply.get("ok"):
                raise ConfigurationError(str(reply.get("error")))

    async def drain(self) -> None:
        """Wait until every live worker has applied its queued batches."""
        await self.coordinator.drain()

    async def shutdown(self) -> None:
        """Stop accepting, close connections, shut the cluster down."""
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
        if self._http is not None:
            await self._http.stop()
        await self.coordinator.shutdown()
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
    # HTTP telemetry (serves the heartbeat-refreshed fleet cache: the
    # route handlers are synchronous, so they must not await workers)

    def _http_routes(self) -> dict[str, Any]:
        def metrics(params: dict[str, str]) -> tuple[int, str, str]:
            snapshot = (self.coordinator.fleet_snapshot
                        or self.registry.snapshot())
            return 200, CONTENT_TYPE_PROMETHEUS, render_prometheus(snapshot)

        def healthz(params: dict[str, str]) -> tuple[int, str, str]:
            placement = self.coordinator.placement()
            up = sum(1 for w in placement["workers"].values() if w["alive"])
            healthy = not self._shutdown_started and up > 0
            body = json.dumps({
                "ok": healthy,
                "workers": len(placement["workers"]),
                "workers_up": up,
                "shards": self.coordinator.n_shards,
                "tasks": len(self.coordinator.task_shard),
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
    # Wire handling

    @property
    def max_protocol(self) -> int:
        """Highest protocol version this router offers clients."""
        return min(self.config.protocol, PROTOCOL_VERSION)

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._connections.add(task)
        conn = _ConnState()
        try:
            while True:
                try:
                    request = await read_frame(reader)
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
                            "binary frames require a negotiated protocol "
                            ">= 2 (send a 'hello' op first)",
                            code="protocol")))
                        await writer.drain()
                        break
                    writer.writelines(await self._offer_columns(conn,
                                                                request))
                    await writer.drain()
                    continue
                if not isinstance(request, dict):
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
                    reply = await self.handle_request(request)
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

    # ------------------------------------------------------------------
    # Connection-scoped ops (negotiation + interning)

    def _op_hello(self, conn: _ConnState,
                  request: dict[str, Any]) -> dict[str, Any]:
        try:
            peer_max = int(request.get("max_protocol", PROTOCOL_JSON))
        except (TypeError, ValueError):
            return _error("hello max_protocol must be an integer")
        conn.protocol = max(PROTOCOL_JSON, min(peer_max, self.max_protocol))
        return {"ok": True, "protocol": conn.protocol,
                "server_protocol": self.max_protocol,
                "max_batch": self.config.max_batch}

    def _op_intern(self, conn: _ConnState,
                   request: dict[str, Any]) -> dict[str, Any]:
        entries = request.get("tasks")
        if not isinstance(entries, list):
            return _error("intern needs a 'tasks' list")
        for entry in entries:
            if (not isinstance(entry, (list, tuple)) or len(entry) != 2
                    or isinstance(entry[0], bool)
                    or not isinstance(entry[0], int)
                    or not isinstance(entry[1], str)):
                return _error("each intern entry must be [index, name]")
            if not 0 <= entry[0] < _MAX_INTERN:
                return _error(
                    f"intern index {entry[0]} out of range "
                    f"[0, {_MAX_INTERN})")
        for idx, name in entries:
            if idx >= len(conn.names):
                conn.names.extend([None] * (idx + 1 - len(conn.names)))
            conn.names[idx] = name
        self._refresh_conn(conn, force=True)
        return {"ok": True, "interned": len(entries),
                "table_size": len(conn.names)}

    def _refresh_conn(self, conn: _ConnState, force: bool = False) -> None:
        """(Re)resolve interned names to routing shards and gids."""
        coord = self.coordinator
        if not force and conn.epoch == coord.task_epoch:
            return
        n = len(conn.names)
        shard = np.full(n, -1, dtype=np.int64)
        gid = np.full(n, -1, dtype=np.int64)
        task_shard = coord.task_shard
        gids = coord.gids
        for i, name in enumerate(conn.names):
            if name is None:
                continue
            sid = task_shard.get(name)
            if sid is None:
                continue
            shard[i] = sid
            gid[i] = gids.get(name, -1)
        conn.shard = shard
        conn.gid = gid
        conn.epoch = coord.task_epoch

    async def _offer_columns(self, conn: _ConnState,
                             cols: OfferColumns) -> tuple[bytes, bytes]:
        """Route one decoded binary batch; returns the reply frame parts."""
        instrumented = self.registry.enabled
        began = time.perf_counter() if instrumented else 0.0
        if len(cols) > self.config.max_batch:
            return encode_frame_parts(_error(
                f"batch of {len(cols)} exceeds max_batch="
                f"{self.config.max_batch}", code="batch-too-large"))
        self._refresh_conn(conn)
        idx = cols.task_idx.astype(np.int64)
        known = idx < len(conn.names)
        rejected = int(len(idx) - known.sum())
        idx = idx[known]
        steps = cols.steps[known]
        values = cols.values[known]
        gids = conn.gid[idx]
        shards = conn.shard[idx]
        registered = gids >= 0
        rejected += int(len(gids) - registered.sum())
        gids, shards = gids[registered], shards[registered]
        steps, values = steps[registered], values[registered]
        per_shard: dict[int, tuple[Any, Any, Any]] = {}
        for sid in np.unique(shards).tolist():
            sel = np.flatnonzero(shards == sid)
            per_shard[int(sid)] = (gids[sel], steps[sel], values[sel])
        accepted, shed, worker_rejected = \
            await self.coordinator.submit_columns(per_shard)
        rejected += worker_rejected
        if shed:
            self.trace.emit("shed", count=shed, batch=len(cols),
                            accepted=accepted)
        if instrumented:
            self._offer_batch_size.observe(len(cols))
            self._offer_latency.observe(time.perf_counter() - began)
        return encode_offer_reply(
            accepted, shed, rejected, backpressure=shed > 0,
            retry_after_ms=self.config.shed_retry_ms if shed else 0)

    async def handle_request(self, request: dict[str, Any],
                             ) -> dict[str, Any]:
        """Dispatch one decoded request frame to its op handler."""
        op = request.get("op")
        handler = self._OPS.get(op) if isinstance(op, str) else None
        if handler is None:
            return _error(f"unknown op {op!r}", code="unknown-op")
        try:
            return await handler(self, request)
        except ReproError as exc:
            return _error(str(exc))
        except (ValueError, TypeError, KeyError) as exc:
            return _error(f"invalid request: {exc}")

    # ------------------------------------------------------------------
    # Ops — runtime-compatible surface

    async def _op_ping(self, request: dict[str, Any]) -> dict[str, Any]:
        return {"ok": True, "shards": self.coordinator.n_shards,
                "tasks": len(self.coordinator.task_shard),
                "workers": len(self.coordinator.transports),
                "protocol": self.max_protocol}

    async def _op_register_task(self, request: dict[str, Any],
                                ) -> dict[str, Any]:
        entry = request.get("task")
        if not isinstance(entry, dict):
            return _error("register_task needs a 'task' dict")
        return await self.coordinator.register_task(entry)

    async def _op_remove_task(self, request: dict[str, Any],
                              ) -> dict[str, Any]:
        return await self.coordinator.remove_task(
            str(request.get("task", "")))

    async def _op_add_trigger(self, request: dict[str, Any],
                              ) -> dict[str, Any]:
        return await self.coordinator.add_trigger(request)

    async def _op_trigger_install(self, request: dict[str, Any],
                                  ) -> dict[str, Any]:
        return await self.coordinator.install_trigger(request)

    async def _op_trigger_arm(self, request: dict[str, Any],
                              ) -> dict[str, Any]:
        return await self.coordinator.set_trigger_armed(
            str(request.get("task", "")), True)

    async def _op_trigger_disarm(self, request: dict[str, Any],
                                 ) -> dict[str, Any]:
        return await self.coordinator.set_trigger_armed(
            str(request.get("task", "")), False)

    async def _op_trigger_state(self, request: dict[str, Any],
                                ) -> dict[str, Any]:
        return await self.coordinator.forward_task_read(
            "w_trigger_state", str(request.get("task", "")))

    async def _op_trigger_plans(self, request: dict[str, Any],
                                ) -> dict[str, Any]:
        coord = self.coordinator
        await coord.pump_triggers()
        suspensions, saved = await coord.trigger_plan_stats()
        return {"ok": True,
                "plans": [coord.trigger_plans[t].to_dict()
                          for t in sorted(coord.trigger_plans)],
                "edges": dict(coord.trigger_edges),
                "suspensions": suspensions,
                "probe_cost_saved": saved}

    async def _op_offer_batch(self, request: dict[str, Any],
                              ) -> dict[str, Any]:
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
        task_shard = self.coordinator.task_shard
        for update in updates:
            if (not isinstance(update, (list, tuple)) or len(update) != 3):
                return _error("each update must be [task, step, value]")
            step, value = update[1], update[2]
            if (not isinstance(step, (int, float))
                    or not isinstance(value, (int, float))
                    or isinstance(step, bool) or isinstance(value, bool)):
                return _error(
                    f"update step and value must be numbers, got "
                    f"[{update[0]!r}, {step!r}, {value!r}]",
                    code="bad-update")
            shard = task_shard.get(str(update[0]))
            if shard is None:
                rejected += 1
                continue
            per_shard.setdefault(shard, []).append(update)
        accepted, shed, worker_rejected = await self.coordinator.submit(
            per_shard)
        rejected += worker_rejected
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

    async def _op_due(self, request: dict[str, Any]) -> dict[str, Any]:
        return await self.coordinator.forward_task_read(
            "w_due", str(request.get("task", "")),
            {"step": int(request.get("step", 0))})

    async def _op_task_info(self, request: dict[str, Any],
                            ) -> dict[str, Any]:
        return await self.coordinator.forward_task_read(
            "w_task_info", str(request.get("task", "")))

    async def _op_alerts(self, request: dict[str, Any]) -> dict[str, Any]:
        return await self.coordinator.forward_task_read(
            "w_alerts", str(request.get("task", "")))

    async def _op_stats(self, request: dict[str, Any]) -> dict[str, Any]:
        coord = self.coordinator
        shards: list[dict[str, Any]] = []
        for wid in sorted(coord.transports):
            if wid in coord._dead:
                continue
            try:
                reply = await coord._request(wid, {"op": "w_stats"})
            except ReproError:
                continue
            if reply.get("ok"):
                shards.extend(reply.get("shards", ()))
        shards.sort(key=lambda s: s.get("shard", 0))
        totals = {short: sum(s[canonical] for s in shards)
                  for short, canonical in
                  (("offered", "updates_offered"),
                   ("applied", "updates_applied"),
                   ("consumed", "updates_consumed"),
                   ("shed", "updates_shed"),
                   ("rejected", "updates_rejected"),
                   ("alerts", "alerts_fired"),
                   ("queue_depth", "queue_depth"))}
        # Shed at the routing tier (unreachable worker, migration-buffer
        # overflow) never reached a shard queue; fold it into the total
        # so offered/applied/shed accounting stays conservation-true.
        totals["shed"] += coord.router_shed
        totals["tasks"] = len(coord.task_shard)
        reply = {"ok": True, "shards": shards, "totals": totals,
                 "frames": self._frames, "protocol": self.max_protocol,
                 "uptime_s": time.monotonic() - self._started_monotonic,
                 "restored_tasks": coord.restored_tasks,
                 "cluster": {
                     "workers": len(coord.transports),
                     "workers_up": sum(
                         1 for wid in coord.transports
                         if wid not in coord._dead),
                     "router_shed": coord.router_shed,
                     "migrations": coord.migrations,
                     "replacements": coord.replacements,
                 }}
        if self.config.checkpoint_path is not None:
            last = coord._last_checkpoint_monotonic
            reply["checkpoint"] = {
                "failures": coord.checkpoint_failures,
                "last_age_s": (None if last is None
                               else time.monotonic() - last),
            }
        return reply

    async def _op_checkpoint(self, request: dict[str, Any],
                             ) -> dict[str, Any]:
        if self.config.checkpoint_path is None:
            return _error("no checkpoint_path configured")
        path = await self.coordinator.write_checkpoint()
        return {"ok": True, "path": str(path)}

    async def _op_telemetry(self, request: dict[str, Any],
                            ) -> dict[str, Any]:
        metrics = await self.coordinator.refresh_fleet()
        return {"ok": True, "metrics": metrics,
                "trace": {"next_seq": self.trace.next_seq,
                          "dropped": self.trace.dropped,
                          "retained": len(self.trace)}}

    async def _op_trace(self, request: dict[str, Any]) -> dict[str, Any]:
        await self.coordinator.pull_traces()
        since = int(request.get("since", 0))
        raw_limit = request.get("limit")
        limit = None if raw_limit is None else int(raw_limit)
        return {"ok": True,
                "events": self.trace.drain(since=since, limit=limit),
                "next_seq": self.trace.next_seq,
                "dropped": self.trace.dropped}

    # ------------------------------------------------------------------
    # Ops — cluster-only

    async def _op_migrate(self, request: dict[str, Any]) -> dict[str, Any]:
        return await self.coordinator.migrate(
            int(request.get("shard", -1)),
            str(request.get("worker", "")))

    async def _op_placement(self, request: dict[str, Any],
                            ) -> dict[str, Any]:
        return {"ok": True, **self.coordinator.placement()}

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
        "migrate": _op_migrate,
        "placement": _op_placement,
    }
