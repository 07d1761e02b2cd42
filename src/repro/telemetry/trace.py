"""Bounded structured trace of sampler/coordinator decisions.

Counters say *how much*; the decision trace says *what happened, in
order*. Every notable decision the runtime takes — an interval adapted,
an allowance reallocated, a violation detected, a batch shed, a
checkpoint written — is appended to a fixed-capacity ring buffer as a
structured event carrying a process-wide sequence number and a monotonic
timestamp. The buffer is drainable over the wire (``trace`` op, with a
``since`` cursor so pollers never re-read events) and dumpable to JSONL
for offline analysis or CI artifacts.

The ring is deliberately lossy at the head: under event storms old
events are evicted, never blocking the hot path — ``dropped`` counts the
evictions so readers know the history is incomplete. Emission is O(1)
(a deque append); un-traced deployments hold :data:`NULL_TRACE` and pay
one ``enabled`` check.

Batch producers (the columnar offer path) append whole *chunks* with
:meth:`DecisionTrace.emit_many`: one entry holding ``n`` events of one
kind as parallel columns, expanded into per-event dicts only when read
(DESIGN.md S29). Capacity, eviction, ``dropped`` and sequence numbers
still count events, not entries.
"""

from __future__ import annotations

import json
import pathlib
import time
from collections import deque
from typing import Any, Sequence

from repro.exceptions import ConfigurationError

__all__ = [
    "DecisionTrace",
    "NULL_TRACE",
    "NullTrace",
    "TRACE_EVENT_KINDS",
]

TRACE_EVENT_KINDS = (
    "interval_adapted",      # a sampler grew or reset its interval
    "violation",             # a sampled value violated its threshold
    "allowance_reallocated", # a coordinator moved error allowance
    "shed",                  # offer_batch updates shed under backpressure
    "checkpoint_written",    # a checkpoint flushed successfully
    "checkpoint_failed",     # a periodic checkpoint write failed
    "task_registered",
    "task_removed",
    "restore",               # server restored state from a checkpoint
    "selfmon_alert",         # the self-monitor alerted on runtime health
    "worker_started",        # cluster: a worker process joined the fleet
    "worker_lost",           # cluster: heartbeat declared a worker dead
    "shard_migrated",        # cluster: live migration cut a shard over
    "migration_aborted",     # cluster: a migration rolled back safely
    "shard_replaced",        # cluster: failure-driven re-placement
    "trigger_plan_installed",  # a correlation trigger plan was wired up
    "trigger_armed",         # a guarded task resumed full-rate sampling
    "trigger_disarmed",      # a guarded task dropped to its idle interval
)
"""Kinds emitted by the instrumented runtime (extensible by callers)."""


class _Chunk:
    """``len(tasks)`` events of one kind, stored as columns.

    Event ``i`` carries sequence number ``seq + i`` and the values
    ``columns[key][i]``; events before ``start`` have been evicted.
    """

    __slots__ = ("seq", "ts", "kind", "tasks", "shard", "columns", "start")

    def __init__(self, seq: int, ts: float, kind: str,
                 tasks: Sequence[str | None], shard: int | str | None,
                 columns: dict[str, Sequence[Any]], start: int):
        self.seq = seq
        self.ts = ts
        self.kind = kind
        self.tasks = tasks
        self.shard = shard
        self.columns = columns
        self.start = start

    def expand(self, first: int, stop: int) -> list[dict[str, Any]]:
        """Events ``first..stop-1`` as the dicts :meth:`DecisionTrace.emit`
        would have built."""
        out = []
        seq, ts, kind, shard = self.seq, self.ts, self.kind, self.shard
        items = list(self.columns.items())
        tasks = self.tasks
        for i in range(first, stop):
            event: dict[str, Any] = {"seq": seq + i, "ts_monotonic": ts,
                                     "kind": kind}
            task = tasks[i]
            if task is not None:
                event["task"] = task
            if shard is not None:
                event["shard"] = shard
            for key, column in items:
                event[key] = column[i]
            out.append(event)
        return out


class DecisionTrace:
    """Fixed-capacity ring buffer of structured decision events.

    Args:
        capacity: maximum events retained; older events are evicted
            (and counted in :attr:`dropped`) once the ring is full.
    """

    enabled = True

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ConfigurationError(
                f"trace capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        # Entries are single event dicts or _Chunks; _size counts events.
        self._ring: deque[dict[str, Any] | _Chunk] = deque()
        self._size = 0
        self._next_seq = 0
        self.dropped = 0

    def emit(self, kind: str, task: str | None = None,
             shard: int | str | None = None, **data: Any) -> int:
        """Append one event; returns its sequence number.

        ``data`` values must be JSON-able (they travel over the wire and
        into JSONL dumps verbatim).
        """
        seq = self._next_seq
        self._next_seq = seq + 1
        event: dict[str, Any] = {"seq": seq,
                                 "ts_monotonic": time.monotonic(),
                                 "kind": kind}
        if task is not None:
            event["task"] = task
        if shard is not None:
            event["shard"] = shard
        if data:
            event.update(data)
        if self._size == self.capacity:
            self._evict(1)
        self._ring.append(event)
        self._size += 1
        return seq

    def emit_many(self, kind: str, tasks: Sequence[str | None],
                  shard: int | str | None = None,
                  **columns: Sequence[Any]) -> int:
        """Append ``len(tasks)`` events of one kind as a single chunk.

        Event ``i`` reads back exactly as ``emit(kind, task=tasks[i],
        shard=shard, **{k: columns[k][i]})`` would have, except that all
        events of the chunk share one ``ts_monotonic``. Each column must
        have ``len(tasks)`` JSON-able values; the trace keeps the
        sequences by reference, so callers must not mutate them
        afterwards. Returns the first event's sequence number (the chunk
        takes ``next_seq .. next_seq + len(tasks) - 1``).
        """
        seq = self._next_seq
        n = len(tasks)
        if n == 0:
            return seq
        self._next_seq = seq + n
        # A chunk larger than the ring keeps only its newest events.
        start = max(0, n - self.capacity)
        self.dropped += start
        excess = self._size + n - start - self.capacity
        if excess > 0:
            self._evict(excess)
        self._ring.append(_Chunk(seq, time.monotonic(), kind, tasks, shard,
                                 columns, start))
        self._size += n - start
        return seq

    def _evict(self, count: int) -> None:
        """Drop the ``count`` oldest retained events."""
        self.dropped += count
        self._size -= count
        ring = self._ring
        while count:
            head = ring[0]
            if type(head) is dict:
                ring.popleft()
                count -= 1
                continue
            left = len(head.tasks) - head.start
            if left <= count:
                ring.popleft()
                count -= left
            else:
                head.start += count
                count = 0

    def __len__(self) -> int:
        return self._size

    @property
    def next_seq(self) -> int:
        """Sequence number the next emitted event will carry."""
        return self._next_seq

    def drain(self, since: int = 0,
              limit: int | None = None) -> list[dict[str, Any]]:
        """Events with ``seq >= since``, oldest first (non-destructive).

        Pollers remember the last reply's ``next_seq`` and pass it back as
        ``since``; events evicted before being read are simply absent (the
        gap in sequence numbers, plus :attr:`dropped`, reveals the loss).
        """
        if since < 0:
            raise ValueError(f"since must be >= 0, got {since}")
        if limit is not None and limit < 0:
            return self.drain(since)[:limit]
        want = self._size if limit is None else limit
        out: list[dict[str, Any]] = []
        for entry in self._ring:
            if len(out) >= want:
                break
            if type(entry) is dict:
                if entry["seq"] >= since:
                    out.append(entry)
                continue
            first = max(entry.start, since - entry.seq)
            stop = min(len(entry.tasks), first + want - len(out))
            if first < stop:
                out.extend(entry.expand(first, stop))
        return out

    def dump_jsonl(self, path: pathlib.Path | str,
                   since: int = 0) -> pathlib.Path:
        """Write the retained events to a JSONL file; returns the path."""
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = "".join(json.dumps(event, separators=(",", ":")) + "\n"
                        for event in self.drain(since=since))
        path.write_text(lines, encoding="utf-8")
        return path

    def to_jsonl(self, since: int = 0) -> str:
        """The retained events as JSONL text (the ``/trace`` endpoint)."""
        return "".join(json.dumps(event, separators=(",", ":")) + "\n"
                       for event in self.drain(since=since))


class NullTrace:
    """No-op trace: ``emit`` discards, ``drain`` is empty.

    Hot paths that emit more than a couple of fields guard with
    ``trace.enabled`` to skip even the argument packing.
    """

    enabled = False
    capacity = 0
    dropped = 0
    next_seq = 0

    def emit(self, kind: str, task: str | None = None,
             shard: int | str | None = None, **data: Any) -> int:
        return 0

    def emit_many(self, kind: str, tasks: Sequence[str | None],
                  shard: int | str | None = None,
                  **columns: Sequence[Any]) -> int:
        return 0

    def __len__(self) -> int:
        return 0

    def drain(self, since: int = 0,
              limit: int | None = None) -> list[dict[str, Any]]:
        return []

    def to_jsonl(self, since: int = 0) -> str:
        return ""


NULL_TRACE = NullTrace()
"""The shared disabled trace (``enabled = False``)."""
