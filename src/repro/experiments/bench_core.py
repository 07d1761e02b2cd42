"""Core hot-path benchmark (``python -m repro.experiments.bench_core``).

Measures the sampling core against its reference oracle
(:class:`~repro.testkit.oracle.ReferenceSampler`) on a ~1M-point
synthetic trace and writes the numbers to ``BENCH_core.json``:

* ``observe`` — per-call throughput of the oracle's ``observe`` vs.
  :meth:`~repro.core.adaptation.ViolationLikelihoodSampler.observe_fast`
  (every grid point fed, worst-case estimation load);
* ``run_adaptive`` — end-to-end wall time of a full adaptive run of the
  oracle through the reference driver (:func:`~repro.experiments.runner.run_sampler_on_trace`,
  one ``SamplingDecision`` per step) vs. the fused driver
  (:func:`~repro.experiments.runner.run_adaptive`);
* ``evaluate_sampling`` — the vectorized scorer vs. the seed's
  Python-set/episode-scan implementation (kept here verbatim as the
  timing baseline);
* ``max_admissible_interval`` — closed-form Cantelli inversion + one
  fused pass vs. probing ``misdetection_bound`` per candidate interval;
* ``telemetry_overhead`` — the fused ``observe_fast`` loop with the
  process-wide sampler counters pointed at a live
  :class:`~repro.telemetry.registry.MetricsRegistry` vs. the default
  :data:`~repro.telemetry.registry.NULL_REGISTRY`; ``--max-telemetry-overhead``
  (default 5%) turns the relative slowdown into an exit-code ceiling, the
  guard that keeps instrumentation honest about its hot-path cost.

Before timing anything the CLI proves the fast path is *exactly*
equivalent to the oracle: both drivers are run over the same trace for
both estimators (``chebyshev`` and ``gaussian``), at the configured
allowance and at ``err = 1`` (where ``beta`` can equal it), and their
``(sampled_indices, intervals, beta)`` streams must match bit-for-bit,
accuracy summaries included. A mismatch fails the run regardless of any
throughput result. ``--min-speedup`` turns the ``run_adaptive`` speedup
into an exit-code floor for CI.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from dataclasses import replace
from typing import Any, Callable

import numpy as np

from repro.core.accuracy import alert_episodes, truth_alert_indices
from repro.core.adaptation import AdaptationConfig, ViolationLikelihoodSampler
from repro.core.likelihood import (max_admissible_interval,
                                   misdetection_bound)
from repro.core.task import TaskSpec
from repro.experiments.runner import (run_adaptive, run_sampler_on_trace)
from repro.testkit.oracle import ReferenceSampler

__all__ = ["main", "run_bench", "synthetic_trace"]

BENCH_VERSION = 1


def synthetic_trace(points: int, seed: int) -> np.ndarray:
    """A deterministic mean-reverting trace with bursts.

    Mimics the paper's traffic-difference streams: a quiet noisy band the
    sampler can stretch its interval over, plus sparse bursts that force
    resets — so both the growth and the reset paths are exercised.
    """
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, 1.0, points)
    walk = np.empty(points)
    level = 0.0
    phi = 0.98
    for i in range(points):
        level = phi * level + noise[i]
        walk[i] = level
    bursts = np.zeros(points)
    n_bursts = max(points // 50_000, 1)
    starts = rng.integers(0, max(points - 200, 1), n_bursts)
    for s in starts:
        width = int(rng.integers(20, 200))
        bursts[s:s + width] += rng.uniform(8.0, 20.0)
    return walk + bursts


def _best_of(repeats: int, fn: Callable[[], Any]) -> tuple[float, Any]:
    """``(best wall seconds, last result)`` over ``repeats`` runs."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _evaluate_sampling_legacy(values: np.ndarray, threshold: float,
                              sampled_indices: np.ndarray) -> dict[str, Any]:
    """The seed's set-based scorer, kept verbatim as the timing baseline."""
    arr = np.asarray(values, dtype=float)
    truth = truth_alert_indices(arr, threshold)
    sampled = np.unique(np.asarray(sampled_indices, dtype=int))
    sampled_set = set(int(i) for i in sampled)
    detected = np.array([i for i in truth if int(i) in sampled_set],
                        dtype=int)
    episodes = alert_episodes(truth)
    detected_eps = 0
    delays: list[int] = []
    for start, end in episodes:
        hit = next((i for i in range(start, end + 1) if i in sampled_set),
                   None)
        if hit is not None:
            detected_eps += 1
            delays.append(hit - start)
    n_truth = int(truth.size)
    return {
        "truth_alerts": n_truth,
        "detected_alerts": int(detected.size),
        "misdetection_rate": (0.0 if n_truth == 0
                              else 1.0 - detected.size / n_truth),
        "truth_episodes": len(episodes),
        "detected_episodes": detected_eps,
        "mean_detection_delay": float(np.mean(delays)) if delays else 0.0,
    }


def _check_equivalence(trace: np.ndarray, task: TaskSpec,
                       estimator: str) -> dict[str, Any]:
    """Prove fast-path and oracle decision streams are identical.

    Runs the oracle's reference driver (``observe``) and the fused driver
    (``run_trace``) over the same trace, then replays the schedule
    step-by-step collecting per-sample ``beta`` from both samplers.
    """
    config = AdaptationConfig(estimator=estimator)
    reference = run_sampler_on_trace(
        trace, ReferenceSampler(task, config), task.threshold,
        task.direction)
    fast = run_adaptive(trace, task, config)

    schedule_equal = (
        np.array_equal(reference.sampled_indices, fast.sampled_indices)
        and np.array_equal(reference.intervals, fast.intervals)
        and reference.accuracy == fast.accuracy)

    ref_sampler = ReferenceSampler(task, config)
    fast_sampler = ViolationLikelihoodSampler(task, config)
    betas_equal = True
    for t in reference.sampled_indices.tolist():
        value = float(trace[t])
        decision = ref_sampler.observe(value, t)
        fast_sampler.observe_fast(value, t)
        if decision.misdetection_bound != \
                fast_sampler.last_misdetection_bound:
            betas_equal = False
            break
    return {
        "estimator": estimator,
        "error_allowance": task.error_allowance,
        "samples": int(reference.sampled_indices.size),
        "schedule_identical": bool(schedule_equal),
        "beta_stream_identical": bool(betas_equal),
        "identical": bool(schedule_equal and betas_equal),
    }


def run_bench(points: int = 1_000_000, repeats: int = 3, seed: int = 0,
              error_allowance: float = 0.05, max_interval: int = 10,
              equivalence_points: int = 150_000,
              skip_equivalence: bool = False) -> dict[str, Any]:
    """Execute the benchmark; returns the ``BENCH_core.json`` payload."""
    trace = synthetic_trace(points, seed)
    threshold = float(np.quantile(trace, 0.99))
    task = TaskSpec(threshold=threshold, error_allowance=error_allowance,
                    max_interval=max_interval, name="bench-core")
    config = AdaptationConfig()

    report: dict[str, Any] = {
        "version": BENCH_VERSION,
        "points": points,
        "repeats": repeats,
        "seed": seed,
        "threshold": threshold,
        "error_allowance": error_allowance,
        "max_interval": max_interval,
    }

    # --- equivalence gate -------------------------------------------------
    if not skip_equivalence:
        eq_trace = trace[:min(equivalence_points, points)]
        # At err = 1, beta == err on every violation sampled on a grown
        # interval: the boundary of the reset rule's strict beta > err.
        checks = [_check_equivalence(
                      eq_trace, replace(task, error_allowance=err), est)
                  for err in dict.fromkeys((error_allowance, 1.0))
                  for est in ("chebyshev", "gaussian")]
        report["equivalence"] = {
            "checked_points": int(eq_trace.size),
            "checks": checks,
            "identical": all(c["identical"] for c in checks),
        }

    # --- observe vs observe_fast (per-call, every grid point) -------------
    n_observe = min(points, 200_000)
    observe_values = trace[:n_observe].tolist()

    def drive_reference() -> None:
        sampler = ReferenceSampler(task, config)
        observe = sampler.observe
        for t in range(n_observe):
            observe(observe_values[t], t)

    def drive_fast() -> None:
        sampler = ViolationLikelihoodSampler(task, config)
        observe_fast = sampler.observe_fast
        for t in range(n_observe):
            observe_fast(observe_values[t], t)

    ref_seconds, _ = _best_of(repeats, drive_reference)
    fast_seconds, _ = _best_of(repeats, drive_fast)
    report["observe"] = {
        "calls": n_observe,
        "reference_per_sec": n_observe / ref_seconds,
        "fast_per_sec": n_observe / fast_seconds,
        "speedup": ref_seconds / fast_seconds,
    }

    # --- run_adaptive end to end ------------------------------------------
    def adaptive_reference():
        return run_sampler_on_trace(
            trace, ReferenceSampler(task, config), task.threshold,
            task.direction)

    ref_seconds, ref_result = _best_of(repeats, adaptive_reference)
    fast_seconds, fast_result = _best_of(
        repeats, lambda: run_adaptive(trace, task, config))
    if ref_result.accuracy != fast_result.accuracy:  # pragma: no cover
        raise AssertionError("fast run_adaptive diverged from reference")
    report["run_adaptive"] = {
        "points": points,
        "samples_taken": int(fast_result.accuracy.samples_taken),
        "sampling_ratio": fast_result.accuracy.sampling_ratio,
        "reference_seconds": ref_seconds,
        "fast_seconds": fast_seconds,
        "reference_points_per_sec": points / ref_seconds,
        "fast_points_per_sec": points / fast_seconds,
        "speedup": ref_seconds / fast_seconds,
    }

    # --- evaluate_sampling: vectorized vs seed scorer ---------------------
    sampled = ref_result.sampled_indices
    from repro.core.accuracy import evaluate_sampling
    legacy_seconds, _ = _best_of(
        repeats,
        lambda: _evaluate_sampling_legacy(trace, threshold, sampled))
    vector_seconds, _ = _best_of(
        repeats, lambda: evaluate_sampling(trace, threshold, sampled))
    report["evaluate_sampling"] = {
        "sampled_points": int(sampled.size),
        "reference_seconds": legacy_seconds,
        "vectorized_seconds": vector_seconds,
        "speedup": legacy_seconds / vector_seconds,
    }

    # --- admissible interval: closed-form inversion vs probing ------------
    probe_args = (0.0, threshold)
    stats_mean, stats_std = 0.01, 1.0
    n_queries = 20_000

    def probe() -> int:
        best = 0
        for i in range(1, max_interval + 1):
            if misdetection_bound(*probe_args, stats_mean, stats_std,
                                  i) > error_allowance:
                break
            best = i
        return best

    def probe_all() -> int:
        total = 0
        for _ in range(n_queries):
            total += probe()
        return total

    def inverted_all() -> int:
        total = 0
        for _ in range(n_queries):
            total += max_admissible_interval(
                *probe_args, stats_mean, stats_std, error_allowance,
                max_interval)
        return total

    probe_seconds, probe_total = _best_of(repeats, probe_all)
    invert_seconds, invert_total = _best_of(repeats, inverted_all)
    if probe_total != invert_total:  # pragma: no cover - correctness gate
        raise AssertionError("max_admissible_interval diverged from probing")
    report["max_admissible_interval"] = {
        "queries": n_queries,
        "probe_seconds": probe_seconds,
        "inverted_seconds": invert_seconds,
        "speedup": probe_seconds / invert_seconds,
    }

    # --- telemetry overhead on the fast path ------------------------------
    from repro.telemetry.registry import (MetricsRegistry, NULL_REGISTRY,
                                          instrument_samplers)
    live = MetricsRegistry()
    try:
        instrument_samplers(NULL_REGISTRY)
        null_seconds, _ = _best_of(repeats, drive_fast)
        instrument_samplers(live)
        live_seconds, _ = _best_of(repeats, drive_fast)
    finally:
        instrument_samplers(NULL_REGISTRY)
    observed = float(live.snapshot()["volley_sampler_observations_total"]
                     ["series"][0]["value"])
    if observed < n_observe:  # pragma: no cover - correctness gate
        raise AssertionError("live registry missed sampler observations")
    report["telemetry_overhead"] = {
        "calls": n_observe,
        "null_registry_seconds": null_seconds,
        "live_registry_seconds": live_seconds,
        "overhead_fraction": max(0.0, live_seconds / null_seconds - 1.0),
    }
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.bench_core",
        description="Benchmark the sampling core's fused fast path "
                    "against the reference oracle.")
    parser.add_argument("--points", type=int, default=1_000_000,
                        help="trace length in grid points (default 1M)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats; best is reported (default 3)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--error-allowance", type=float, default=0.05)
    parser.add_argument("--max-interval", type=int, default=10)
    parser.add_argument("--equivalence-points", type=int, default=150_000,
                        help="trace prefix length for the per-step "
                             "equivalence check")
    parser.add_argument("--skip-equivalence", action="store_true")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail (exit 1) when the run_adaptive speedup "
                             "is below this floor")
    parser.add_argument("--max-telemetry-overhead", type=float, default=0.05,
                        help="fail (exit 1) when live-registry sampler "
                             "instrumentation slows observe_fast by more "
                             "than this fraction (default 0.05); negative "
                             "disables the guard")
    parser.add_argument("--out", type=pathlib.Path,
                        default=pathlib.Path("BENCH_core.json"))
    args = parser.parse_args(argv)

    if args.points < 1_000:
        parser.error("--points must be >= 1000")
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    report = run_bench(points=args.points, repeats=args.repeats,
                       seed=args.seed,
                       error_allowance=args.error_allowance,
                       max_interval=args.max_interval,
                       equivalence_points=args.equivalence_points,
                       skip_equivalence=args.skip_equivalence)

    args.out.write_text(json.dumps(report, indent=2) + "\n")

    ra = report["run_adaptive"]
    ob = report["observe"]
    ev = report["evaluate_sampling"]
    print(f"[bench-core] observe: {ob['reference_per_sec']:,.0f}/s ref, "
          f"{ob['fast_per_sec']:,.0f}/s fast ({ob['speedup']:.2f}x)")
    print(f"[bench-core] run_adaptive ({ra['points']:,} points): "
          f"{ra['reference_seconds']:.3f}s ref, {ra['fast_seconds']:.3f}s "
          f"fast ({ra['speedup']:.2f}x)")
    print(f"[bench-core] evaluate_sampling: {ev['reference_seconds']*1e3:.1f}"
          f"ms ref, {ev['vectorized_seconds']*1e3:.1f}ms vectorized "
          f"({ev['speedup']:.1f}x)")
    tel = report["telemetry_overhead"]
    print(f"[bench-core] telemetry overhead: "
          f"{tel['null_registry_seconds']*1e3:.1f}ms null, "
          f"{tel['live_registry_seconds']*1e3:.1f}ms live "
          f"({100 * tel['overhead_fraction']:.2f}%)")
    print(f"[bench-core] wrote {args.out}")

    ok = True
    if "equivalence" in report and not report["equivalence"]["identical"]:
        print("[bench-core] FAIL: fast path diverged from the oracle",
              file=sys.stderr)
        ok = False
    if args.min_speedup is not None and ra["speedup"] < args.min_speedup:
        print(f"[bench-core] FAIL: run_adaptive speedup {ra['speedup']:.2f}x "
              f"below the {args.min_speedup:.2f}x floor", file=sys.stderr)
        ok = False
    if (args.max_telemetry_overhead >= 0
            and tel["overhead_fraction"] > args.max_telemetry_overhead):
        print(f"[bench-core] FAIL: telemetry overhead "
              f"{100 * tel['overhead_fraction']:.2f}% above the "
              f"{100 * args.max_telemetry_overhead:.1f}% ceiling",
              file=sys.stderr)
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
