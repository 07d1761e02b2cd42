"""Metric definitions and how each is computed from measured reps.

Names, units, directions and bounds live in ``BENCHMARK.json`` alone and
are read from there. ``MOVES`` adds what that file has no key for: the
end-to-end metric each per-layer metric should move, the mapping a
change that claims a gain must argue along.
"""

from __future__ import annotations

import json
import math
import pathlib
import statistics
from typing import Any, Callable

_SPEC = json.loads((pathlib.Path(__file__).resolve().parents[1]
                    / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END: dict[str, dict[str, Any]] = {m["name"]: m for m in
                                         _SPEC["end_to_end"]}
PER_LAYER: dict[str, dict[str, Any]] = {m["name"]: m for m in
                                        _SPEC["per_layer"]}

# per-layer metric -> the end-to-end metric it should move
MOVES: dict[str, str] = {
    "client.encode_ns_per_offer": "offers_per_s",
    "client.wait_frac": "offers_per_s",
    "protocol.decode_ns_per_offer": "offers_per_s",
    "server.route_ns_per_offer": "latency_p50_ms",
    "server.intern_ms": "setup_s",
    "shard.queue_wait_ms_p50": "latency_p90_ms",
    "shard.queue_wait_ms_p99": "latency_p90_ms",
    "shard.queue_depth_max": "latency_p90_ms",
    "shard.apply_ns_per_offer": "offers_per_s",
    "service.offer_ns_per_offer": "offers_per_s",
    "service.scalar_fallback_frac": "offers_per_s",
    "service.register_us_per_task": "setup_s",
    "service.register_growth": "setup_s",
    "service.register_per_s": "setup_s",
    "service.missed_violation_frac": "sampling_ratio",
    "soa.advance_ns_per_offer": "offers_per_s",
    "adaptation.observe_ns_per_sample": "offers_per_s",
    "adaptation.run_trace_points_per_s": "offers_per_s",
    "trace.events_per_kilo_offer": "offers_per_s",
    "trace.emit_ns_per_offer": "offers_per_s",
    "alerts.per_kilo_offer": "offers_per_s",
    "triggers.edges": "sampling_ratio",
    "triggers.suspensions": "sampling_ratio",
    "coordinator.submit_ns_per_offer": "offers_per_s",
    "coordinator.heartbeat_ms": "latency_p90_ms",
    "transport.hop_ms_p50": "latency_p50_ms",
    "transport.hop_ms_p99": "latency_p90_ms",
    "transport.bytes_per_offer": "offers_per_s",
    "hosting.apply_ns_per_offer": "offers_per_s",
    "checkpoint.snapshot_ms": "latency_p90_ms",
    "checkpoint.write_ms": "latency_p90_ms",
    "checkpoint.fingerprint_ms": "latency_p90_ms",
    "checkpoint.bytes_per_task": "peak_rss_mb",
    "checkpoint.alerts_retained": "peak_rss_mb",
    "checkpoint.restore_ms": "setup_s",
    "checkpoint.op_s": "latency_p90_ms",
    "checkpoint.bytes": "peak_rss_mb",
    "checkpoint.restart_s": "setup_s",
    "sweep.cell_s_p50": "latency_p50_ms",
    "sweep.run_trace_frac": "offers_per_s",
    "trace.unattributed_frac": "offers_per_s",
    "trace.overhead_frac": "offers_per_s",
}
if set(MOVES) != set(PER_LAYER) or not set(MOVES.values()) <= set(END_TO_END):
    raise RuntimeError("metrics.MOVES disagrees with BENCHMARK.json")

# Spans whose time is spent waiting on another process or the socket
# (the heartbeat mostly awaits worker replies); they count as neither
# server CPU nor a layer's self time.
_WAIT_SPANS = {"io.readexactly", "transport.request_columns",
               "coordinator.heartbeat"}


def with_units(values: dict[str, float],
               section: str) -> dict[str, dict[str, Any]]:
    """``{name: {"value", "unit"}}`` with units from BENCHMARK.json."""
    table = END_TO_END if section == "end_to_end" else PER_LAYER
    return {k: {"value": v, "unit": table[k]["unit"]}
            for k, v in values.items()}


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (0.0 on an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def end_to_end(w: Any, reps: list[Any],
               speed: Callable[[float, float], float] | None,
               ) -> dict[str, float]:
    """The untraced end-to-end metrics over a run's reps.

    ``speed(start, end)`` is the host-speed factor over an interval (see
    ``hostspeed``); every wall time of a rep is scaled by the factor over
    the whole rep, spawn to drain, so times read as seconds at the
    reference speed. ``speed=None`` gives the raw figures. Throughput
    and latency are medians over the run's measurement windows (a fixed
    number of batches of an ingest rep, a churn round, a sweep), so a
    window hit by a burst of interference moves them little.
    ``setup_s`` is the median of every setup in the run.
    """
    windows = []
    setups = []
    for rep in reps:
        k = speed(rep.setup_began, rep.windows[-1][2]) if speed else 1.0
        setups.append(rep.setup_s * k)
        windows += [(n, (end - start) * k, [x * k for x in lat])
                    for n, start, end, lat in rep.windows]
    if w.kind == "sweep":
        ratio = statistics.median(r.server["sampling_ratio"] for r in reps)
    else:
        ratio = (sum(r.consumed for r in reps)
                 / max(1, sum(r.applied for r in reps)))
    return {
        "offers_per_s": statistics.median(n / s for n, s, _ in windows),
        "latency_p50_ms": 1e3 * statistics.median(
            quantile(lat, 0.50) for _, _, lat in windows),
        "latency_p90_ms": 1e3 * statistics.median(
            quantile(lat, 0.90) for _, _, lat in windows),
        "sampling_ratio": ratio,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in reps),
    }


def _merge(dumps: list[dict[str, Any]]) -> dict[str, Any]:
    spans: dict[str, dict[str, Any]] = {}
    waits: list[int] = []
    depth = 0
    fallback = 0
    for dump in dumps:
        for name, s in dump["spans"].items():
            into = spans.setdefault(name, {"calls": 0, "total_ns": 0,
                                           "child_ns": 0, "items": 0,
                                           "samples": []})
            for key in ("calls", "total_ns", "child_ns", "items"):
                into[key] += s[key]
            into["samples"] += s["samples"] or []
        waits += dump.get("queue_wait_ns", [])
        depth = max(depth, dump.get("queue_depth_max", 0))
        fallback += dump.get("fallback_calls", 0)
    return {"spans": spans, "waits": waits, "depth": depth,
            "fallback": fallback}


def _span(merged: dict[str, Any], name: str) -> dict[str, Any]:
    return merged["spans"].get(name, {"calls": 0, "total_ns": 0,
                                      "child_ns": 0, "items": 0,
                                      "samples": []})


def _self_ns(merged: dict[str, Any], name: str) -> int:
    s = _span(merged, name)
    return s["total_ns"] - s["child_ns"]


def _growth(samples: list[int]) -> float:
    tenth = len(samples) // 10
    if tenth == 0:
        return 0.0
    first = statistics.fmean(samples[:tenth])
    return statistics.fmean(samples[-tenth:]) / first if first else 0.0


def per_layer(w: Any, plain: Any, traced: Any,
              violating: int) -> dict[str, float]:
    """Every per-layer metric from one traced rep (0 where a layer idles).

    ``plain`` is an untraced rep of the same work, the base of
    ``trace.overhead_frac``; ``violating`` counts the generated values
    above the threshold in one rep's stream.
    """
    m = {name: 0.0 for name in PER_LAYER}
    offers = max(1, traced.applied)
    m["trace.overhead_frac"] = 1.0 - ((traced.applied / traced.wall_s)
                                      / (plain.applied / plain.wall_s))
    if w.kind == "sweep":
        spans = traced.server["spans"] or {}
        run_trace = spans.get("adaptation.run_trace") or {}
        rt_s = run_trace.get("total_ns", 0) / 1e9
        m["adaptation.run_trace_points_per_s"] = (
            run_trace.get("items", 0) / rt_s if rt_s else 0.0)
        m["sweep.cell_s_p50"] = quantile(traced.latencies_s, 0.5)
        m["sweep.run_trace_frac"] = rt_s / traced.wall_s
        # The sweep's only traced layer is run_trace; the rest of its
        # time (trace generation, scoring) is what stays unattributed.
        m["trace.unattributed_frac"] = 1.0 - rt_s / traced.wall_s
        m["service.missed_violation_frac"] = traced.server["misdetection"]
        return m

    ingest = _merge(traced.phases["ingest"])
    setup = _merge(traced.phases["setup"])
    client = traced.client_spans
    encode = client["spans"].get("client.encode", {})
    wait = client["spans"].get("client.wait", {})
    m["client.encode_ns_per_offer"] = encode.get("total_ns", 0) / offers
    m["client.wait_frac"] = wait.get("total_ns", 0) / 1e9 / client["loop_s"]
    m["protocol.decode_ns_per_offer"] = (_self_ns(ingest,
                                                  "protocol.read_frame")
                                         / offers)
    server = traced.server
    route_ns = server.get("route_s", 0.0) * 1e9
    m["server.route_ns_per_offer"] = route_ns / offers
    m["server.intern_ms"] = server.get("intern_s", 0.0) * 1e3
    waits = [ns / 1e6 for ns in ingest["waits"]]
    m["shard.queue_wait_ms_p50"] = quantile(waits, 0.5)
    m["shard.queue_wait_ms_p99"] = quantile(waits, 0.99)
    m["shard.queue_depth_max"] = float(ingest["depth"])
    m["shard.apply_ns_per_offer"] = _self_ns(ingest, "shard.apply") / offers
    m["service.offer_ns_per_offer"] = (
        _self_ns(ingest, "service.offer_columns")
        + _self_ns(ingest, "service.offer_fast")) / offers
    m["service.scalar_fallback_frac"] = ingest["fallback"] / offers
    registration = _merge(traced.phases["setup"] + traced.phases["ingest"])
    add_task = _span(registration, "service.add_task")
    if add_task["calls"]:
        m["service.register_us_per_task"] = (add_task["total_ns"] / 1e3
                                             / add_task["calls"])
    m["service.register_growth"] = _growth(
        _span(setup, "service.add_task")["samples"])
    if server.get("register_s"):
        m["service.register_per_s"] = (server["registered"]
                                       / server["register_s"])
    m["service.missed_violation_frac"] = (
        1.0 - traced.alerts / violating if violating else 0.0)
    m["soa.advance_ns_per_offer"] = (_self_ns(ingest, "soa.run_columns")
                                     / offers)
    observe = _span(ingest, "adaptation.observe_fast")
    if observe["calls"]:
        m["adaptation.observe_ns_per_sample"] = (observe["total_ns"]
                                                 / observe["calls"])
    emit = _span(ingest, "trace.emit")
    m["trace.events_per_kilo_offer"] = 1e3 * emit["calls"] / offers
    m["trace.emit_ns_per_offer"] = emit["total_ns"] / offers
    m["alerts.per_kilo_offer"] = 1e3 * traced.alerts / offers
    m["triggers.edges"] = float(server.get("edges", 0))
    m["triggers.suspensions"] = float(server.get("suspensions", 0))
    m["coordinator.submit_ns_per_offer"] = (
        _self_ns(ingest, "coordinator.submit_columns") / offers)
    beats = _span(ingest, "coordinator.heartbeat")
    if beats["calls"]:
        m["coordinator.heartbeat_ms"] = (beats["total_ns"] / 1e6
                                         / beats["calls"])
    hops = [ns / 1e6 for ns in
            _span(ingest, "transport.request_columns")["samples"]]
    m["transport.hop_ms_p50"] = quantile(hops, 0.5)
    m["transport.hop_ms_p99"] = quantile(hops, 0.99)
    m["transport.bytes_per_offer"] = (_span(ingest, "transport.encode")
                                      ["items"] / offers)
    m["hosting.apply_ns_per_offer"] = (
        _self_ns(ingest, "hosting.handle_shard_offer") / offers)
    writes = _span(ingest, "checkpoint.write")
    if writes["calls"]:
        m["checkpoint.snapshot_ms"] = (_span(ingest, "checkpoint.snapshot")
                                       ["total_ns"] / 1e6 / writes["calls"])
        m["checkpoint.write_ms"] = writes["total_ns"] / 1e6 / writes["calls"]
    if "checkpoint_bytes" in server:
        m["checkpoint.fingerprint_ms"] = server["fingerprint_s"] * 1e3
        m["checkpoint.bytes_per_task"] = (server["checkpoint_bytes"]
                                          / server["tasks"])
        m["checkpoint.alerts_retained"] = float(server["alerts_retained"])
        m["checkpoint.op_s"] = server["checkpoint_s"]
        m["checkpoint.bytes"] = float(server["checkpoint_bytes"])
        m["checkpoint.restart_s"] = server["restart_s"]
        restore = _merge(traced.phases["restore"])
        m["checkpoint.restore_ms"] = (_span(restore, "checkpoint.restore")
                                      ["total_ns"] / 1e6)

    # Layer sum: every span's self time except waits, with the route
    # handler's own time (the offer-latency sketch minus the spans it
    # encloses in the routing process).
    head = _merge(traced.phases["ingest"][:1])
    route_self = route_ns - (_span(head, "shard.enqueue")["total_ns"]
                             + _span(head, "coordinator.submit_columns")
                             ["total_ns"])
    attributed = route_self + sum(
        s["total_ns"] - s["child_ns"] for name, s in ingest["spans"].items()
        if name not in _WAIT_SPANS)
    m["trace.unattributed_frac"] = 1.0 - attributed / 1e9 / traced.cpu_s
    return m
