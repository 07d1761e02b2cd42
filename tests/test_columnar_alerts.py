"""The columnar offer path's alert log, bulk counters and trace chunks.

``MonitoringService.offer_columns`` logs a batch's violations as columns
and emits its trace events as chunks (DESIGN.md S29/S31): no ``Alert``
object exists until a history is read, and ``DecisionTrace.emit`` is
never called. Everything observable must still equal a scalar service
fed the same stream — alert histories, snapshots, the ``alerts_fired``
count and the trace events — including across JSON/binary interleaving,
scalar eviction by a trigger installed mid-stream, task removal, and,
end to end, the runtime's checkpoint restore and the cluster's live
migration.
"""

from __future__ import annotations

import asyncio
from collections import Counter

import numpy as np
import pytest

import repro.service as service_module
from repro.cluster.routing import route
from repro.config import ClusterConfig, RuntimeConfig
from repro.cluster.server import ClusterServer
from repro.core.adaptation import AdaptationConfig
from repro.core.task import TaskSpec
from repro.runtime.client import AsyncRuntimeClient
from repro.runtime.protocol import PROTOCOL_BINARY
from repro.runtime.server import RuntimeServer
from repro.service import MonitoringService
from repro.telemetry.trace import DecisionTrace
from repro.types import Alert

TASKS = 12
STEPS = 240
NAMES = [f"col-{i:02d}" for i in range(TASKS)]
CONFIG = AdaptationConfig(min_samples=5, patience=5)


def _values(seed: int = 5, steps: int = STEPS) -> np.ndarray:
    """``(steps, TASKS)`` values: noisy around 86 (threshold 100), with
    calm stretches on even tasks so intervals grow and reset too."""
    rng = np.random.default_rng(seed)
    values = rng.normal(86.0, 13.0, (steps, TASKS))
    calm = (np.arange(steps)[:, None] // 40 % 2 == 0) & (
        np.arange(TASKS)[None, :] % 2 == 0)
    values[calm] = 86.0 + (values[calm] - 86.0) / 13.0
    return values


def _spec(name: str) -> TaskSpec:
    return TaskSpec(threshold=100.0, error_allowance=0.02, max_interval=8,
                    name=name)


def _service(soa: bool) -> tuple[MonitoringService, DecisionTrace]:
    service = MonitoringService(CONFIG, soa=soa)
    for name in NAMES:
        service.add_task(name, _spec(name))
    trace = DecisionTrace(capacity=100_000)
    service.attach_telemetry(trace, shard=0)
    return service, trace


def _trace_multiset(trace: DecisionTrace) -> Counter:
    return Counter(
        tuple((k, v) for k, v in event.items()
              if k not in ("seq", "ts_monotonic"))
        for event in trace.drain())


def _offer(scalar: MonitoringService, columnar: MonitoringService,
           rows: np.ndarray, step: int, values: np.ndarray,
           live: list[str], binary: bool) -> None:
    """One step of every live task: scalar by name; the columnar service
    through ``offer_columns`` (binary) or ``offer_fast`` (JSON)."""
    picked = [NAMES.index(name) for name in live]
    for name, i in zip(live, picked):
        scalar.offer_fast(name, float(values[i]), step)
    if binary:
        applied, _, rejected, _ = columnar.offer_columns(
            rows[picked], np.full(len(picked), step, dtype=np.int64),
            values[picked], names=live)
        assert (applied, rejected) == (len(live), 0)
    else:
        for name, i in zip(live, picked):
            columnar.offer_fast(name, float(values[i]), step)


def _assert_equivalent(scalar, columnar, scalar_trace, columnar_trace):
    names = scalar.task_names
    assert columnar.task_names == names
    assert ({n: columnar.alerts(n) for n in names}
            == {n: scalar.alerts(n) for n in names})
    assert columnar.snapshot() == scalar.snapshot()
    assert columnar.alerts_fired == scalar.alerts_fired > 0
    assert (_trace_multiset(columnar_trace)
            == _trace_multiset(scalar_trace))
    assert len(columnar_trace) == len(scalar_trace)


class TestNoPerEventObjects:
    def test_batches_build_no_alert_and_never_call_emit(self, monkeypatch):
        emitted = []
        real_emit = DecisionTrace.emit

        def counting_emit(self, *args, **kwargs):
            emitted.append(args)
            return real_emit(self, *args, **kwargs)

        built = []

        def counting_alert(**kwargs):
            built.append(kwargs)
            return Alert(**kwargs)

        monkeypatch.setattr(DecisionTrace, "emit", counting_emit)
        monkeypatch.setattr(service_module, "Alert", counting_alert)
        service, trace = _service(soa=True)
        rows = np.asarray([service.soa_row_for(n) for n in NAMES])
        values = _values()
        for step in range(STEPS):
            service.offer_columns(rows, np.full(TASKS, step), values[step])
        assert emitted == []
        assert built == []
        assert service.alerts_fired > 0
        kinds = Counter(event["kind"] for event in trace.drain())
        assert kinds["violation"] == service.alerts_fired
        assert kinds["interval_adapted"] > 0
        # A snapshot serialises the log without materialising it either.
        service.snapshot()
        assert built == []
        # Reading one task's history builds exactly that task's alerts,
        # and leaves the log columnar.
        histories = []
        for name in NAMES:
            built.clear()
            histories.append(service.alerts(name))
            assert len(built) == len(histories[-1])
        assert sum(map(len, histories)) == service.alerts_fired
        assert max(map(len, histories)) < service.alerts_fired
        assert [service.alerts(name) for name in NAMES] == histories
        built.clear()
        service.snapshot()
        assert built == []

    def test_callbacks_still_fire_synchronously_in_order(self):
        seen: list[Alert] = []
        service = MonitoringService(CONFIG, soa=True)
        for name in NAMES:
            service.add_task(name, _spec(name),
                             on_alert=seen.append if name == NAMES[1]
                             else None)
        rows = np.asarray([service.soa_row_for(n) for n in NAMES])
        values = _values()
        for step in range(STEPS):
            service.offer_columns(rows, np.full(TASKS, step), values[step])
            # Every alert of the batch reached the callback before the
            # call returned.
            assert len(seen) == len(service._state(NAMES[1]).alerts)
        assert seen and seen == service.alerts(NAMES[1])

    def test_callback_removing_a_task_mid_batch(self):
        # The batch already advanced the removed task's row; its trace
        # events and logged alert are dropped with it, the rest land.
        service = MonitoringService(CONFIG, soa=True)
        victim = NAMES[3]

        def remove_victim(alert: Alert) -> None:
            if victim in service.task_names:
                service.remove_task(victim)

        for name in NAMES:
            service.add_task(name, _spec(name),
                             on_alert=remove_victim if name == NAMES[1]
                             else None)
        trace = DecisionTrace(capacity=100_000)
        service.attach_telemetry(trace, shard=0)
        rows = np.asarray([service.soa_row_for(n) for n in NAMES])
        values = _values()
        values[:, 1] = 50.0
        # Both violate in the first batch, the remover's row first.
        values[0, 1] = values[0, 3] = 150.0
        service.offer_columns(rows, np.zeros(TASKS), values[0])
        assert victim not in service.task_names
        live = [i for i in range(TASKS) if i != 3]
        for step in range(1, STEPS):
            service.offer_columns(rows[live], np.full(len(live), step),
                                  values[step][live])
        assert not [e for e in trace.drain() if e.get("task") == victim]
        assert [a.time_index for a in service.alerts(NAMES[1])] == [0]
        # The victim's one alert was counted before it was dropped.
        assert service.alerts_fired == sum(
            len(service.alerts(n)) for n in service.task_names) + 1


class TestScalarEquivalence:
    def test_json_and_binary_offers_interleaved(self):
        scalar, s_trace = _service(soa=False)
        columnar, c_trace = _service(soa=True)
        rows = np.asarray([columnar.soa_row_for(n) for n in NAMES])
        values = _values()
        for step in range(STEPS):
            _offer(scalar, columnar, rows, step, values[step], NAMES,
                   binary=step % 3 != 2)
            if step == STEPS // 2:
                # A read mid-stream materialises the log; later batches
                # append after it.
                assert columnar.alerts(NAMES[0]) == scalar.alerts(NAMES[0])
        _assert_equivalent(scalar, columnar, s_trace, c_trace)

    def test_trigger_installed_mid_stream_evicts_rows(self):
        scalar, s_trace = _service(soa=False)
        columnar, c_trace = _service(soa=True)
        rows = np.asarray([columnar.soa_row_for(n) for n in NAMES])
        values = _values(seed=6)
        for step in range(STEPS):
            if step == STEPS // 2:
                for service in (scalar, columnar):
                    service.add_trigger(NAMES[1], NAMES[0],
                                        elevation_level=90.0,
                                        suspend_interval=4)
                assert columnar.soa_row_for(NAMES[1]) == -1
                assert columnar.soa_row_for(NAMES[0]) == -1
            # Stale rows of evicted tasks fall back by name.
            _offer(scalar, columnar, rows, step, values[step], NAMES,
                   binary=True)
        _assert_equivalent(scalar, columnar, s_trace, c_trace)

    def test_remove_and_reregister_mid_stream(self):
        scalar, s_trace = _service(soa=False)
        columnar, c_trace = _service(soa=True)
        rows = np.asarray([columnar.soa_row_for(n) for n in NAMES])
        values = _values(seed=7)
        gone = NAMES[2]
        live = list(NAMES)
        for step in range(STEPS):
            if step == STEPS // 3:
                for service in (scalar, columnar):
                    service.remove_task(gone)
                live.remove(gone)
            if step == 2 * STEPS // 3:
                for service in (scalar, columnar):
                    service.add_task(gone, _spec(gone))
                live.append(gone)
                rows[NAMES.index(gone)] = columnar.soa_row_for(gone)
            _offer(scalar, columnar, rows, step, values[step], live,
                   binary=True)
        _assert_equivalent(scalar, columnar, s_trace, c_trace)
        # The re-registered task's history starts from its new row.
        assert all(a.time_index >= 2 * STEPS // 3
                   for a in columnar.alerts(gone))


# ----------------------------------------------------------------------
# End to end: the runtime (checkpoint restore) and the cluster
# (migration) report the same alerts and counters as a scalar service.


def _reference(values: np.ndarray) -> tuple[dict, int]:
    service = MonitoringService(CONFIG)
    for name in NAMES:
        service.add_task(name, _spec(name))
    for step, row in enumerate(values):
        for name, value in zip(NAMES, row.tolist()):
            service.offer_fast(name, value, step)
    alerts = {n: [[a.time_index, a.value, a.threshold]
                  for a in service.alerts(n)] for n in NAMES}
    return alerts, service.alerts_fired


async def _register(client) -> None:
    for name in NAMES:
        reply = await client.register_task(name, 100.0,
                                           error_allowance=0.02,
                                           max_interval=8)
        assert reply["ok"], reply


async def _offer_binary(client, values: np.ndarray, first: int) -> None:
    assert await client.negotiate() == PROTOCOL_BINARY
    idx = np.asarray(await client.intern(NAMES), dtype=np.uint32)
    for step, row in enumerate(values, first):
        reply = await client.offer_columns(
            idx, np.full(TASKS, step, dtype=np.int64), row)
        assert reply.rejected == 0


async def _observe(client) -> dict:
    infos = {}
    for name in NAMES:
        info = await client.task_info(name)
        infos[name] = (info["alerts"], info["samples_taken"],
                       info["interval"], info["next_due"])
    alerts = {name: await client.alerts(name) for name in NAMES}
    stats = await client.stats()
    telemetry = await client.telemetry()
    family = telemetry["metrics"]["volley_alerts_fired_total"]
    return {"infos": infos, "alerts": alerts,
            "alerts_total": stats["totals"]["alerts"],
            "metric": sum(series["value"] for series in family["series"])}


def _check_against_reference(observed: dict, values: np.ndarray) -> None:
    ref_alerts, ref_fired = _reference(values)
    assert observed["alerts"] == ref_alerts
    assert observed["alerts_total"] == observed["metric"] == ref_fired > 0
    assert all(observed["infos"][n][0] == len(ref_alerts[n])
               for n in NAMES)


class TestRuntimeCheckpointRestore:
    def test_replies_and_counters_survive_restore(self, tmp_path):
        path = tmp_path / "runtime.ckpt.json"
        values = _values(seed=8)
        half = STEPS // 2

        async def run_server(first: int, chunk: np.ndarray, fresh: bool):
            server = RuntimeServer(RuntimeConfig(port=0, shards=4,
                                                 checkpoint_path=path),
                                   adaptation=CONFIG)
            await server.start()
            client = AsyncRuntimeClient(port=server.tcp_port)
            try:
                restored = await _observe(client) if not fresh else None
                if fresh:
                    await _register(client)
                await _offer_binary(client, chunk, first)
                await server.drain()
                return restored, await _observe(client)
            finally:
                await client.close()
                await server.shutdown()  # flushes the checkpoint

        _, before = asyncio.run(run_server(0, values[:half], fresh=True))
        restored, after = asyncio.run(run_server(half, values[half:],
                                              fresh=False))
        assert restored == before
        _check_against_reference(after, values)


class TestClusterMigration:
    def test_replies_and_counters_survive_migration(self):
        values = _values(seed=9)
        half = STEPS // 2
        shards = 4

        async def scenario():
            server = ClusterServer(
                ClusterConfig(backend="inproc", workers=2, port=0,
                              shards=shards), adaptation=CONFIG)
            await server.start()
            client = AsyncRuntimeClient(port=server.tcp_port)
            try:
                await _register(client)
                await _offer_binary(client, values[:half], 0)
                await server.coordinator.drain()
                before = await _observe(client)
                placement = await client.placement()
                for worker, entry in placement["workers"].items():
                    target = "w1" if worker == "w0" else "w0"
                    for shard in entry["shards"]:
                        migrated = await client.migrate(shard, target)
                        assert migrated["fingerprint_match"], migrated
                moved = await _observe(client)
                await _offer_binary(client, values[half:], half)
                await server.coordinator.drain()
                return before, moved, await _observe(client)
            finally:
                await client.close()
                await server.shutdown()

        before, moved, after = asyncio.run(scenario())
        assert {route(n, shards) for n in NAMES} == set(range(shards))
        assert moved == before
        _check_against_reference(after, values)


@pytest.mark.parametrize("capacity", [1, 7])
def test_small_trace_rings_stay_bounded(capacity):
    # Chunks larger than the ring keep only their newest events.
    service, _ = _service(soa=True)
    trace = DecisionTrace(capacity=capacity)
    service.attach_telemetry(trace, shard=0)
    rows = np.asarray([service.soa_row_for(n) for n in NAMES])
    values = _values()
    for step in range(40):
        service.offer_columns(rows, np.full(TASKS, step), values[step])
    assert len(trace) == capacity
    assert trace.dropped == trace.next_seq - capacity
    assert [e["seq"] for e in trace.drain()] == list(
        range(trace.next_seq - capacity, trace.next_seq))
