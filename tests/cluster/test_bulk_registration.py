"""Config registration: one worker round trip per shard, same result.

``ClusterServer.apply_config`` registers a whole config with one
``w_register_task`` request per shard. The cluster it builds must be
indistinguishable from one built by registering the same entries one at
a time: same catalog, placement, gid order, trace events, shard state
and checkpoint bytes. A malformed config must fail before any worker is
touched, and re-placement after a worker loss must re-register a shard's
tasks in one request too.
"""

from __future__ import annotations

import json

import pytest

from cluster_utils import run_cluster

from repro.exceptions import ConfigurationError
from repro.runtime.checkpoint import state_fingerprint
from repro.runtime.client import AsyncRuntimeClient

SHARDS = 4

CONFIG = {
    "defaults": {"error_allowance": 0.02, "max_interval": 8},
    "tasks": (
        [{"name": f"vm-{i:02d}", "threshold": 60.0 + i} for i in range(24)]
        + [{"name": "win", "threshold": 70.0, "window": 4,
            "aggregate": "max"},
           {"name": "p99", "type": "quantile", "threshold": 90.0,
            "quantile": 0.99},
           {"name": "ent", "type": "entropy", "threshold": 1.5},
           {"name": "tight", "threshold": 55.0, "error_allowance": 0.0,
            "max_interval": 4}]),
}

UPDATES = [[entry["name"], step, 50.0 + (step * 7 + i) % 30]
           for step in range(12)
           for i, entry in enumerate(CONFIG["tasks"])]

CLUSTER = {"workers": 2, "shards": SHARDS, "heartbeat_interval": 3600.0}


def count_requests(coord, op: str) -> dict[int, int]:
    """Wrap every transport so requests of ``op`` are counted per shard."""
    counts: dict[int, int] = {}
    for transport in coord.transports.values():
        inner = transport.request

        async def request(payload, _inner=inner):
            if payload.get("op") == op:
                counts[payload["shard"]] = counts.get(payload["shard"], 0) + 1
            return await _inner(payload)
        transport.request = request
    return counts


async def observe(cluster) -> dict:
    coord = cluster.coordinator
    client = AsyncRuntimeClient(port=cluster.tcp_port)
    try:
        reply = await client.offer_batch(UPDATES)
        assert reply["accepted"] == len(UPDATES), reply
    finally:
        await client.close()
    await coord.drain()
    fingerprints = {}
    for routed in coord.routes:
        snap = await coord._request(routed.worker_id, {
            "op": "w_snapshot_shard", "shard": routed.shard_id,
            "fingerprint": True})
        assert snap["fingerprint"] == state_fingerprint(snap["snapshot"])
        fingerprints[routed.shard_id] = snap["fingerprint"]
    path = await coord.write_checkpoint()
    events = [{k: v for k, v in e.items() if k not in ("seq", "ts_monotonic")}
              for e in coord.trace.drain(0)
              if e["kind"] == "task_registered"]
    return {"catalog": list(coord.catalog.items()),
            "task_shard": list(coord.task_shard.items()),
            "gids": list(coord.gid_names),
            "events": events,
            "fingerprints": fingerprints,
            "checkpoint": path.read_bytes()}


def test_config_registration_equals_per_task_registration(tmp_path):
    config_file = tmp_path / "cluster.json"
    config_file.write_text(json.dumps(CONFIG), encoding="utf-8")

    async def from_config(cluster):
        counts = count_requests(cluster.coordinator, "w_register_task")
        await cluster.apply_config(
            json.loads(config_file.read_text(encoding="utf-8")))
        assert counts == {sid: 1 for sid in range(SHARDS)}
        return await observe(cluster)

    async def per_task(cluster):
        coord = cluster.coordinator
        coord.defaults = dict(CONFIG["defaults"])
        counts = count_requests(coord, "w_register_task")
        for entry in CONFIG["tasks"]:
            assert (await coord.register_task(entry))["ok"]
        assert sum(counts.values()) == len(CONFIG["tasks"])
        return await observe(cluster)

    bulk = run_cluster(from_config, checkpoint_path=tmp_path / "bulk.ckpt",
                       **CLUSTER)
    single = run_cluster(per_task, checkpoint_path=tmp_path / "single.ckpt",
                         **CLUSTER)
    assert len(bulk["catalog"]) == len(CONFIG["tasks"])
    assert {e["type"] for e in bulk["events"]} \
        == {"value", "quantile", "entropy"}
    for key in ("catalog", "task_shard", "gids", "events", "fingerprints",
                "checkpoint"):
        assert bulk[key] == single[key], key


@pytest.mark.parametrize("bad_entry", [
    {"name": "vm-03", "threshold": 1.0},          # duplicate name
    {"name": "no-threshold"},                     # malformed
    {"name": "typo", "threshold": 1.0, "treshold": 2.0},  # unknown key
])
def test_bad_config_fails_before_any_worker_request(bad_entry):
    async def scenario(cluster):
        coord = cluster.coordinator
        counts = count_requests(coord, "w_register_task")
        config = dict(CONFIG, tasks=CONFIG["tasks"] + [bad_entry])
        with pytest.raises(ConfigurationError):
            await cluster.apply_config(config)
        assert counts == {}
        assert coord.catalog == {} and coord.gid_names == []
        for routed in coord.routes:
            snap = await coord._request(routed.worker_id, {
                "op": "w_snapshot_shard", "shard": routed.shard_id})
            assert snap["snapshot"]["tasks"] == []

    run_cluster(scenario, **CLUSTER)


def test_worker_refusal_keeps_coordinator_in_step_with_workers():
    # The coordinator's parse accepts this entry; the worker's quantile
    # sketch refuses it, after registering the entries before it.
    refused = {"name": "bad-q", "type": "quantile", "threshold": 1.0,
               "quantile": 1.5}

    async def scenario(cluster):
        coord = cluster.coordinator
        config = dict(CONFIG, tasks=CONFIG["tasks"] + [refused])
        with pytest.raises(ConfigurationError, match="quantile"):
            await cluster.apply_config(config)
        hosted = set()
        for routed in coord.routes:
            snap = await coord._request(routed.worker_id, {
                "op": "w_snapshot_shard", "shard": routed.shard_id})
            hosted |= {t["name"] for t in snap["snapshot"]["tasks"]}
        assert hosted == set(coord.catalog) == set(coord.task_shard)
        assert "bad-q" not in hosted
        assert hosted == {t["name"] for t in CONFIG["tasks"]}

    run_cluster(scenario, **CLUSTER)


def test_replacement_without_recovery_state_is_one_request_per_shard():
    async def scenario(cluster):
        coord = cluster.coordinator
        await cluster.apply_config(CONFIG)
        victim = coord.routes[0].worker_id
        lost = [r.shard_id for r in coord.routes if r.worker_id == victim]
        coord._last_checkpoint_state = None  # nothing to restore from
        counts = count_requests(coord, "w_register_task")
        await coord.kill_worker(victim)
        await coord._handle_worker_loss(victim)
        assert counts == {sid: 1 for sid in lost}
        for routed in coord.routes:
            assert routed.worker_id != victim
            snap = await coord._request(routed.worker_id, {
                "op": "w_snapshot_shard", "shard": routed.shard_id})
            expected = [name for name, sid in coord.task_shard.items()
                        if sid == routed.shard_id]
            assert [t["name"] for t in snap["snapshot"]["tasks"]] == expected

    run_cluster(scenario, **CLUSTER)
