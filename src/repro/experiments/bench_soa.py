"""Scalar-vs-SoA equivalence benchmark (``python -m repro.experiments.bench_soa``).

Drives the same multi-task offer stream through two
:class:`~repro.service.MonitoringService` instances — one stepping every
offer through the scalar :class:`~repro.core.adaptation
.ViolationLikelihoodSampler` path, one batching through the columnar
:class:`~repro.core.soa.SoaSamplerEngine` — and verifies the bit-equivalence
contract of DESIGN.md S31 end to end: identical snapshots (every sampler
state_dict float included), identical per-task alert sequences, identical
sampling counters and identical decision traces (each service carries a
:class:`~repro.telemetry.trace.DecisionTrace`, so the columnar path's
chunked emission is checked against per-event emission). Both
estimators (``chebyshev`` and ``gaussian``) are checked; the default
stream is 1M+ points so the Welford accumulators pass through growth,
violation streaks, restarts and stale-serving regimes.

The report also carries throughput for each path, which is the honest way
to state the SoA speedup: the columnar engine's win is amortising the
per-offer Python interpreter cost across thousands of rows per tick.

Exit code 1 when any estimator diverges — the CI core-hotpath job runs
this as the equivalence gate.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from collections import Counter
from typing import Any

import numpy as np

from repro.core.adaptation import AdaptationConfig
from repro.core.task import TaskSpec
from repro.service import MonitoringService
from repro.telemetry.trace import DecisionTrace

__all__ = ["equivalence_report", "main", "run_equivalence"]

_THRESHOLD = 100.0
_PHASE_STEPS = 500

ESTIMATORS = ("chebyshev", "gaussian")


def _build_service(tasks: int, estimator: str, soa: bool,
                   max_interval: int) -> MonitoringService:
    config = AdaptationConfig(estimator=estimator)
    service = MonitoringService(config, soa=soa)
    for i in range(tasks):
        service.add_task(
            f"soa-{i:04d}",
            TaskSpec(threshold=_THRESHOLD, error_allowance=0.01,
                     max_interval=max_interval, name=f"soa-{i:04d}"))
    return service


def _alert_log(service: MonitoringService) -> dict[str, list[tuple]]:
    return {name: [(a.time_index, a.value, a.threshold)
                   for a in service.alerts(name)]
            for name in service.task_names}


def _trace_multiset(trace: DecisionTrace) -> Counter:
    """``(kind, task, step, payload)`` of every event, seq and ts excluded.

    A multiset, not a sequence: the scalar path interleaves event kinds
    per offer, the columnar path groups them per batch.
    """
    skip = {"seq", "ts_monotonic", "kind", "task", "step"}
    return Counter(
        (event["kind"], event.get("task"), event.get("step"),
         tuple((key, value) for key, value in event.items()
               if key not in skip))
        for event in trace.drain())


def _task_counters(service: MonitoringService) -> dict[str, tuple]:
    return {name: (service.samples_taken(name), service.interval(name),
                   service.next_due(name), service.observations(name))
            for name in service.task_names}


def run_equivalence(points: int, tasks: int, estimator: str,
                    batch: int = 4096, seed: int = 7,
                    max_interval: int = 10) -> dict[str, Any]:
    """One estimator's bit-identity check + throughput numbers.

    The stream is round-robin over ``tasks`` with heavy gaussian noise
    hovering below the threshold. Even-numbered tasks alternate between
    that noise and a calm phase (an 18th of the spread) every
    ``_PHASE_STEPS`` steps, so interval growth, violations and resets
    all occur. The scalar service consumes it offer-by-offer
    (:meth:`~repro.service.MonitoringService.offer_fast`); the SoA service
    consumes it as ``batch``-sized columns
    (:meth:`~repro.service.MonitoringService.offer_columns`). Both paths
    run with a decision trace attached, so the throughputs include
    trace emission.
    """
    if tasks < 1 or points < tasks:
        raise ValueError(f"need points >= tasks >= 1, got "
                         f"{points=} {tasks=}")
    rng = np.random.default_rng(seed)
    values = rng.normal(80.0, 18.0, points)
    positions = np.arange(points, dtype=np.int64)
    calm = (positions % tasks % 2 == 0) & (
        positions // tasks // _PHASE_STEPS % 2 == 0)
    values[calm] = 80.0 + (values[calm] - 80.0) / 18.0
    names = [f"soa-{i:04d}" for i in range(tasks)]

    scalar = _build_service(tasks, estimator, soa=False,
                            max_interval=max_interval)
    vector = _build_service(tasks, estimator, soa=True,
                            max_interval=max_interval)
    # At most two events (adaptation + violation) per offer: nothing is
    # evicted, so the whole stream's decisions are compared.
    traces = [DecisionTrace(capacity=2 * points) for _ in range(2)]
    scalar.attach_telemetry(traces[0], shard=0)
    vector.attach_telemetry(traces[1], shard=0)

    # Scalar path: one interpreter round-trip per offer.
    started = time.perf_counter()
    value_list = values.tolist()
    for i, value in enumerate(value_list):
        scalar.offer_fast(names[i % tasks], value, i // tasks)
    scalar_elapsed = time.perf_counter() - started

    # Columnar path: the same stream as (row, step, value) columns. Rows
    # resolve once up front, exactly as the server's intern table does.
    rows_by_task = np.asarray([vector.soa_row_for(n) for n in names],
                              dtype=np.int64)
    all_rows = rows_by_task[positions % tasks]
    all_steps = positions // tasks
    started = time.perf_counter()
    applied = 0
    for lo in range(0, points, batch):
        hi = min(lo + batch, points)
        a, _, rejected, _ = vector.offer_columns(
            all_rows[lo:hi], all_steps[lo:hi], values[lo:hi], names=None)
        applied += a
        if rejected:
            raise AssertionError(
                f"columnar path rejected {rejected} offers")
    soa_elapsed = time.perf_counter() - started

    snapshots_equal = scalar.snapshot() == vector.snapshot()
    alerts_equal = _alert_log(scalar) == _alert_log(vector)
    counters_equal = _task_counters(scalar) == _task_counters(vector)
    trace_events = len(traces[1])
    traces_equal = (len(traces[0]) == trace_events
                    and _trace_multiset(traces[0])
                    == _trace_multiset(traces[1]))
    return {
        "estimator": estimator,
        "points": points,
        "tasks": tasks,
        "batch": batch,
        "applied": applied,
        "identical": bool(snapshots_equal and alerts_equal
                          and counters_equal and traces_equal),
        "snapshots_equal": snapshots_equal,
        "alerts_equal": alerts_equal,
        "counters_equal": counters_equal,
        "traces_equal": traces_equal,
        "trace_events": trace_events,
        "alerts": sum(len(log) for log in _alert_log(vector).values()),
        "scalar_points_per_sec": (round(points / scalar_elapsed)
                                  if scalar_elapsed else 0),
        "soa_points_per_sec": (round(points / soa_elapsed)
                               if soa_elapsed else 0),
        "soa_speedup": (round(scalar_elapsed / soa_elapsed, 2)
                        if soa_elapsed else 0.0),
    }


def equivalence_report(points: int = 1_000_000, tasks: int = 1024,
                       batch: int = 4096, seed: int = 7) -> dict[str, Any]:
    """Both estimators' equivalence runs plus a combined verdict.

    This is the block the load generator's ``--protocol-sweep`` embeds in
    ``BENCH_runtime.json``.
    """
    runs = [run_equivalence(points, tasks, estimator, batch=batch,
                            seed=seed) for estimator in ESTIMATORS]
    return {
        "points": points,
        "tasks": tasks,
        "identical": all(run["identical"] for run in runs),
        "estimators": {run["estimator"]: run for run in runs},
    }


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.bench_soa",
        description="Verify the SoA sampler engine is bit-identical to "
                    "the scalar sampler over a large stream and report "
                    "the throughput of both paths.")
    parser.add_argument("--points", type=int, default=1_000_000,
                        help="stream length per estimator (default 1M)")
    parser.add_argument("--tasks", type=int, default=1024,
                        help="concurrent tasks (default 1024)")
    parser.add_argument("--batch", type=int, default=4096,
                        help="columnar batch size (default 4096)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="write the JSON report here")
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point (``python -m repro.experiments.bench_soa``)."""
    args = _build_parser().parse_args(argv)
    report = equivalence_report(points=args.points, tasks=args.tasks,
                                batch=args.batch, seed=args.seed)
    for estimator, run in report["estimators"].items():
        verdict = "bit-identical" if run["identical"] else "DIVERGED"
        print(f"[bench-soa] {estimator}: {verdict} over "
              f"{run['points']} points / {run['tasks']} tasks; "
              f"scalar {run['scalar_points_per_sec']}/s, "
              f"soa {run['soa_points_per_sec']}/s "
              f"({run['soa_speedup']}x); alerts={run['alerts']}",
              flush=True)
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=2) + "\n",
                            encoding="utf-8")
        print(f"[bench-soa] -> {args.out}", flush=True)
    if not report["identical"]:
        print("[bench-soa] FAIL: SoA engine diverged from the scalar "
              "sampler", file=sys.stderr, flush=True)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
