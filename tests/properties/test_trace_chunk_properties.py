"""Property tests: chunked trace emission equals per-event emission.

:meth:`DecisionTrace.emit_many` stores a batch of events as one column
chunk, and the ring evicts by event count, trimming chunk heads. Any
interleaving of ``emit`` / ``emit_many`` at any capacity must read back
exactly like a plain list of per-event dicts under the same bounded-ring
rules — ``drain(since, limit)``, ``len``, ``next_seq``, ``dropped`` and
``to_jsonl`` — with ``ts_monotonic`` the only field allowed to differ.
"""

from __future__ import annotations

import json
from typing import Any

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry.trace import DecisionTrace


class ReferenceRing:
    """The specification: a list of fully built events, head-evicted."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.events: list[dict[str, Any]] = []
        self.next_seq = 0
        self.dropped = 0

    def emit(self, kind: str, task: str | None, shard: int | None,
             **data: Any) -> int:
        seq = self.next_seq
        self.next_seq += 1
        event: dict[str, Any] = {"seq": seq, "kind": kind}
        if task is not None:
            event["task"] = task
        if shard is not None:
            event["shard"] = shard
        event.update(data)
        self.events.append(event)
        if len(self.events) > self.capacity:
            self.events.pop(0)
            self.dropped += 1
        return seq

    def drain(self, since: int, limit: int | None) -> list[dict[str, Any]]:
        out = [e for e in self.events if e["seq"] >= since]
        return out if limit is None else out[:limit]


def _strip(events: list[dict[str, Any]]) -> list[dict[str, Any]]:
    return [{k: v for k, v in e.items() if k != "ts_monotonic"}
            for e in events]


KINDS = st.sampled_from(["interval_adapted", "violation", "shed"])
TASKS = st.one_of(st.none(), st.sampled_from(["a", "b", "c"]))
SHARDS = st.one_of(st.none(), st.integers(0, 3))

single = st.tuples(st.just("emit"), KINDS, TASKS, SHARDS,
                   st.integers(-5, 5))
chunk = st.tuples(st.just("emit_many"), KINDS,
                  st.lists(TASKS, min_size=0, max_size=12), SHARDS,
                  st.integers(-5, 5))
OPS = st.lists(st.one_of(single, chunk), min_size=0, max_size=25)


def _apply(trace: DecisionTrace, ref: ReferenceRing, op: tuple) -> None:
    what, kind, tasks, shard, base = op
    if what == "emit":
        got = trace.emit(kind, task=tasks, shard=shard, step=base,
                         value=float(base))
        want = ref.emit(kind, tasks, shard, step=base, value=float(base))
        assert got == want
        return
    steps = [base + i for i in range(len(tasks))]
    values = [float(s) / 2 for s in steps]
    flags = [s % 2 == 0 for s in steps]
    first = ref.next_seq
    got = trace.emit_many(kind, tasks, shard, step=steps, value=values,
                          grew=flags)
    for task, step, value, flag in zip(tasks, steps, values, flags):
        ref.emit(kind, task, shard, step=step, value=value, grew=flag)
    assert got == first


def _check(trace: DecisionTrace, ref: ReferenceRing,
           queries: list[tuple[int, int | None]]) -> None:
    assert len(trace) == len(ref.events)
    assert trace.next_seq == ref.next_seq
    assert trace.dropped == ref.dropped
    assert _strip(trace.drain()) == ref.events
    for since, limit in queries:
        assert _strip(trace.drain(since, limit)) == ref.drain(since, limit)
    lines = [json.loads(line) for line in trace.to_jsonl().splitlines()]
    assert _strip(lines) == ref.events
    assert trace.to_jsonl() == "".join(
        json.dumps(e, separators=(",", ":")) + "\n" for e in trace.drain())


@settings(max_examples=300, deadline=None)
@given(capacity=st.integers(1, 9), ops=OPS,
       queries=st.lists(st.tuples(st.integers(0, 60),
                                  st.one_of(st.none(), st.integers(-3, 12))),
                        max_size=6))
def test_interleaved_emission_matches_reference_ring(capacity, ops, queries):
    trace = DecisionTrace(capacity=capacity)
    ref = ReferenceRing(capacity)
    for op in ops:
        _apply(trace, ref, op)
        _check(trace, ref, queries)


@settings(max_examples=100, deadline=None)
@given(capacity=st.integers(1, 9), ops=OPS)
def test_every_since_cursor_matches(capacity, ops):
    # Every cursor position, including ones inside a chunk and inside
    # its evicted head.
    trace = DecisionTrace(capacity=capacity)
    ref = ReferenceRing(capacity)
    for op in ops:
        _apply(trace, ref, op)
    for since in range(ref.next_seq + 2):
        assert _strip(trace.drain(since)) == ref.drain(since, None)
        assert _strip(trace.drain(since, 2)) == ref.drain(since, 2)


def test_eviction_splits_a_chunk_head():
    trace = DecisionTrace(capacity=5)
    ref = ReferenceRing(5)
    _apply(trace, ref, ("emit_many", "violation", ["a", "b", "c", "a"],
                        1, 10))
    _apply(trace, ref, ("emit", "shed", None, None, 0))
    _apply(trace, ref, ("emit_many", "interval_adapted", ["b", "c"],
                        None, 20))
    # Two of the first chunk's four events are gone; two survive.
    assert trace.dropped == 2
    assert [e["seq"] for e in trace.drain()] == [2, 3, 4, 5, 6]
    _check(trace, ref, [(3, None), (3, 1), (0, 2), (6, 5), (7, None)])


def test_chunk_larger_than_capacity_keeps_its_tail():
    trace = DecisionTrace(capacity=3)
    ref = ReferenceRing(3)
    _apply(trace, ref, ("emit", "shed", "x", 0, 1))
    _apply(trace, ref, ("emit_many", "violation", list("abcdefg"), 2, 0))
    assert [e["seq"] for e in trace.drain()] == [5, 6, 7]
    assert trace.dropped == 5
    _check(trace, ref, [(6, None), (0, 1)])


def test_chunk_events_share_one_timestamp():
    trace = DecisionTrace(capacity=16)
    trace.emit_many("violation", ["a", "b", "c"], 0, step=[1, 2, 3],
                    value=[1.0, 2.0, 3.0])
    stamps = {e["ts_monotonic"] for e in trace.drain()}
    assert len(stamps) == 1
