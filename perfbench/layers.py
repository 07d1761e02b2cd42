"""Per-layer tracing by wrapping each layer's functions from outside.

Nothing under ``src/`` is edited: :func:`install_server` and
:func:`install_client` replace module and class attributes with timing
wrappers. Each wrapper records a span: calls, total time, the time its
child spans covered (so self time is total minus children) and a
per-span item count (offers, bytes or points). A wrapper's own
bookkeeping counts as child time of the enclosing span but belongs to no
span, so tracing cost lands in ``trace.unattributed_frac`` instead of
inflating some layer's self time. Spans nest through a
context variable, so coroutines on one event loop keep separate stacks
and a task started under a span reports to it.

A traced server process dumps its spans on SIGUSR2 to
``$PERFBENCH_TRACE_DIR/<pid>-<n>.json`` and starts a fresh phase; the
benchmark sends the signal at phase boundaries, when the server is idle.
"""

from __future__ import annotations

import collections
import contextvars
import functools
import inspect
import json
import os
import pathlib
import signal
import time
from typing import Any, Callable

_STACK: contextvars.ContextVar[tuple[list[Any], ...]] = \
    contextvars.ContextVar("perfbench_spans", default=())

# Span name -> sample-keeping flag (per-call durations kept for quantiles).
_SAMPLED = {"transport.request_columns", "service.add_task"}


class Tracer:
    """Span statistics for one process."""

    def __init__(self) -> None:
        self.stats: dict[str, list[Any]] = {}
        self.extra: dict[str, Any] = {"queue_wait_ns": [],
                                      "queue_depth_max": 0,
                                      "fallback_calls": 0}
        self._enqueued: dict[int, collections.deque[int]] = {}

    def _entry(self, name: str) -> list[Any]:
        entry = self.stats.get(name)
        if entry is None:
            # calls, total_ns, child_ns, items, samples
            entry = [0, 0, 0, 0, [] if name in _SAMPLED else None]
            self.stats[name] = entry
        return entry

    def _record(self, name: str, elapsed: int, child: int,
                items: int) -> None:
        entry = self._entry(name)
        entry[0] += 1
        entry[1] += elapsed
        entry[2] += child
        entry[3] += items
        if entry[4] is not None:
            entry[4].append(elapsed)

    def wrap(self, owner: Any, attr: str, name: str,
             items: Callable[..., int] | None = None,
             result_items: Callable[[Any], int] | None = None,
             idle_name: str | None = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        With ``idle_name``, calls whose item count is 0 (a control frame
        rather than an offer frame) record under that name instead.
        """
        raw = inspect.getattr_static(owner, attr)
        kind = None
        if isinstance(raw, classmethod):
            kind, fn = classmethod, raw.__func__
        elif isinstance(raw, staticmethod):
            kind, fn = staticmethod, raw.__func__
        else:
            fn = raw
        if getattr(fn, "__perfbench__", False):
            return
        tracer = self
        perf = time.perf_counter_ns

        def record(elapsed: int, child: int, args: tuple, kwargs: dict,
                   result: Any) -> None:
            n = items(*args, **kwargs) if items is not None else 0
            if result_items is not None:
                n += result_items(result)
            tracer._record(idle_name if idle_name and not n else name,
                           elapsed, child, n)

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def wrapper(*args: Any, **kwargs: Any) -> Any:
                entered = perf()
                frame = [0, name]
                token = _STACK.set(_STACK.get() + (frame,))
                result = None
                began = perf()
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    elapsed = perf() - began
                    _STACK.reset(token)
                    record(elapsed, frame[0], args, kwargs, result)
                    stack = _STACK.get()
                    if stack:
                        stack[-1][0] += perf() - entered
        else:
            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                entered = perf()
                frame = [0, name]
                token = _STACK.set(_STACK.get() + (frame,))
                result = None
                began = perf()
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    elapsed = perf() - began
                    _STACK.reset(token)
                    record(elapsed, frame[0], args, kwargs, result)
                    stack = _STACK.get()
                    if stack:
                        stack[-1][0] += perf() - entered
        wrapper.__perfbench__ = True  # type: ignore[attr-defined]
        setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)

    # -- shard queue instrumentation --------------------------------------

    def wrap_enqueue(self, cls: Any, attr: str) -> None:
        """Stamp successful enqueues so apply can measure queue wait."""
        fn = getattr(cls, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(worker: Any, batch: Any) -> bool:
            ok = fn(worker, batch)
            if ok:
                tracer._enqueued.setdefault(id(worker), collections.deque()
                                            ).append(time.perf_counter_ns())
                depth = worker.depth
                if depth > tracer.extra["queue_depth_max"]:
                    tracer.extra["queue_depth_max"] = depth
            return ok
        setattr(cls, attr, wrapper)

    def wrap_apply(self, cls: Any, attr: str) -> None:
        """Pop the enqueue stamp at apply start, then time the apply span."""
        tracer = self
        fn = getattr(cls, attr)

        @functools.wraps(fn)
        def stamped(worker: Any, batch: Any) -> None:
            queue = tracer._enqueued.get(id(worker))
            if queue:
                tracer.extra["queue_wait_ns"].append(
                    time.perf_counter_ns() - queue.popleft())
            return fn(worker, batch)
        setattr(cls, attr, stamped)
        self.wrap(cls, attr, "shard.apply", items=lambda w, b: len(b))

    def note_fallback(self) -> None:
        stack = _STACK.get()
        if len(stack) >= 2 and stack[-2][1] == "service.offer_columns":
            self.extra["fallback_calls"] += 1

    # -- phases -----------------------------------------------------------

    def take(self) -> dict[str, Any]:
        """Return this phase's spans and start a fresh phase."""
        stats, extra = self.stats, self.extra
        self.stats = {}
        self.extra = {"queue_wait_ns": [], "queue_depth_max": 0,
                      "fallback_calls": 0}
        return {"spans": {name: {"calls": e[0], "total_ns": e[1],
                                 "child_ns": e[2], "items": e[3],
                                 "samples": e[4]}
                          for name, e in stats.items()},
                **extra}


def _offer_items(frame: Any) -> int:
    """Offers carried by a decoded request frame (0 for control ops)."""
    if isinstance(frame, dict):
        updates = frame.get("updates")
        return len(updates) if isinstance(updates, list) else 0
    try:
        return len(frame)
    except TypeError:
        return 0


def install_server(tracer: Tracer) -> None:
    """Wrap every server-side layer this process may run."""
    import asyncio

    from repro.cluster import coordinator, hosting, transport, worker
    from repro.cluster import server as cluster_server
    from repro.core.adaptation import ViolationLikelihoodSampler
    from repro.core.soa import SoaSamplerEngine
    from repro.runtime import server as runtime_server
    from repro.runtime.shard import ShardWorker
    from repro.service import MonitoringService
    from repro.telemetry.trace import DecisionTrace

    for module in (runtime_server, cluster_server, worker):
        tracer.wrap(module, "read_frame", "protocol.read_frame",
                    result_items=_offer_items,
                    idle_name="protocol.read_control_frame")
    tracer.wrap(asyncio.StreamReader, "readexactly", "io.readexactly")
    for attr in ("try_enqueue", "try_enqueue_columns"):
        tracer.wrap_enqueue(ShardWorker, attr)
        tracer.wrap(ShardWorker, attr, "shard.enqueue")
    for attr in ("apply", "apply_columns"):
        tracer.wrap_apply(ShardWorker, attr)
    tracer.wrap(MonitoringService, "offer_columns", "service.offer_columns",
                items=lambda self, rows, *a, **k: len(rows))
    fast = MonitoringService.offer_fast

    @functools.wraps(fast)
    def offer_fast(self: Any, name: str, value: float, step: int) -> Any:
        tracer.note_fallback()
        return fast(self, name, value, step)
    MonitoringService.offer_fast = offer_fast
    tracer.wrap(MonitoringService, "offer_fast", "service.offer_fast",
                items=lambda *a, **k: 1)
    tracer.wrap(MonitoringService, "add_task", "service.add_task",
                items=lambda *a, **k: 1)
    tracer.wrap(MonitoringService, "snapshot", "checkpoint.snapshot")
    tracer.wrap(MonitoringService, "restore", "checkpoint.restore")
    tracer.wrap(runtime_server, "write_checkpoint", "checkpoint.write")
    tracer.wrap(SoaSamplerEngine, "run_columns", "soa.run_columns",
                items=lambda self, rows, *a, **k: len(rows))
    tracer.wrap(ViolationLikelihoodSampler, "observe_fast",
                "adaptation.observe_fast", items=lambda *a, **k: 1)
    tracer.wrap(ViolationLikelihoodSampler, "run_trace",
                "adaptation.run_trace",
                items=lambda self, values, *a, **k: len(values))
    tracer.wrap(DecisionTrace, "emit", "trace.emit", items=lambda *a, **k: 1)
    tracer.wrap(coordinator.Coordinator, "submit_columns",
                "coordinator.submit_columns")
    tracer.wrap(coordinator.Coordinator, "_heartbeat_once",
                "coordinator.heartbeat")
    tracer.wrap(transport._PooledSocketTransport, "request_columns",
                "transport.request_columns")
    tracer.wrap(transport, "encode_shard_offer", "transport.encode",
                result_items=lambda parts: sum(len(p) for p in parts))
    tracer.wrap(hosting.WorkerHost, "handle_shard_offer",
                "hosting.handle_shard_offer",
                items=lambda self, segments: sum(len(c) for _, c in segments))


def install_client(tracer: Tracer) -> None:
    """Wrap the load generator's client-side layer (this process)."""
    from repro.runtime import client

    tracer.wrap(client, "encode_offer_columns", "client.encode",
                items=lambda idx, *a, **k: len(idx))
    tracer.wrap(client, "encode_frame_parts", "client.encode",
                items=lambda payload: _offer_items(payload))
    tracer.wrap(client, "read_frame_blocking", "client.wait")


def install_sweep(tracer: Tracer) -> None:
    """Wrap the offline sweep's sampler (``run_trace``)."""
    from repro.core.adaptation import ViolationLikelihoodSampler

    tracer.wrap(ViolationLikelihoodSampler, "run_trace",
                "adaptation.run_trace",
                items=lambda self, values, *a, **k: len(values))


def serve_phases(tracer: Tracer, directory: str) -> None:
    """Dump-and-reset on SIGUSR2 into ``directory``."""
    out = pathlib.Path(directory)
    seq = [0]

    def dump(*_: Any) -> None:
        payload = tracer.take()
        path = out / f"{os.getpid()}-{seq[0]}.json"
        seq[0] += 1
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(payload), encoding="utf-8")
        tmp.replace(path)

    signal.signal(signal.SIGUSR2, dump)


_ACTIVE: list[Tracer] = []


def activate_from_env() -> Tracer | None:
    """Install server wrappers once when ``PERFBENCH_TRACE_DIR`` is set."""
    directory = os.environ.get("PERFBENCH_TRACE_DIR")
    if not directory:
        return None
    if not _ACTIVE:
        tracer = Tracer()
        install_server(tracer)
        serve_phases(tracer, directory)
        _ACTIVE.append(tracer)
    return _ACTIVE[0]
