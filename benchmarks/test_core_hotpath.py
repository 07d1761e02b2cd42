"""Core hot-path benchmarks: fused fast path vs. reference (DESIGN.md S27).

Times the optimised layers on the same synthetic trace the
``bench_core`` CLI uses and — most importantly — asserts their decision
streams are *identical* to the readable reference step
(:class:`repro.testkit.oracle.ReferenceSampler`) before any timing
result counts. The standalone
CLI (``python -m repro.experiments.bench_core``) runs the same
comparison on a ~1M-point trace and writes ``BENCH_core.json``.
"""

from __future__ import annotations

import numpy as np

from repro.core.adaptation import AdaptationConfig, ViolationLikelihoodSampler
from repro.core.task import TaskSpec
from repro.experiments.bench_core import (_evaluate_sampling_legacy,
                                          synthetic_trace)
from repro.experiments.runner import run_adaptive, run_sampler_on_trace
from repro.testkit.oracle import ReferenceSampler

N = 50_000
SEED = 7


def _bench_task(trace: np.ndarray) -> TaskSpec:
    threshold = float(np.quantile(trace, 0.99))
    return TaskSpec(threshold=threshold, error_allowance=0.05,
                    max_interval=10, name="bench-hotpath")


def test_observe_fast_throughput(benchmark, report):
    """Per-call observe_fast vs. the oracle at every grid point."""
    trace = synthetic_trace(N, SEED)
    values = trace.tolist()
    task = _bench_task(trace)
    config = AdaptationConfig()

    def run_fast():
        sampler = ViolationLikelihoodSampler(task, config)
        observe_fast = sampler.observe_fast
        for t in range(N):
            observe_fast(values[t], t)
        return sampler

    benchmark.pedantic(run_fast, rounds=3, iterations=1)

    # Equivalence gate: the fast surface must leave the sampler in the
    # exact state the oracle does.
    fast = run_fast()
    ref = ReferenceSampler(task, config)
    for t in range(N):
        ref.observe(values[t], t)
    assert fast.state_dict() == ref.state_dict()

    per_call = benchmark.stats["mean"] / N
    report(f"observe_fast: {per_call * 1e6:.2f} us/call "
           f"({1.0 / per_call:,.0f} calls/s)")


def test_run_adaptive_fused_vs_reference(benchmark, report):
    """End-to-end fused driver vs. the reference decision-object driver."""
    trace = synthetic_trace(N, SEED)
    task = _bench_task(trace)
    config = AdaptationConfig()

    fast = benchmark.pedantic(lambda: run_adaptive(trace, task, config),
                              rounds=3, iterations=1)
    reference = run_sampler_on_trace(
        trace, ReferenceSampler(task, config), task.threshold,
        task.direction)
    assert np.array_equal(reference.sampled_indices, fast.sampled_indices)
    assert np.array_equal(reference.intervals, fast.intervals)
    assert reference.accuracy == fast.accuracy

    points_per_sec = N / benchmark.stats["mean"]
    report(f"run_adaptive (fused): {points_per_sec:,.0f} points/s, "
           f"sampling ratio {fast.accuracy.sampling_ratio:.3f}")


def test_evaluate_sampling_vectorized(benchmark, report):
    """Vectorized scorer vs. the seed's set-based scorer."""
    from repro.core.accuracy import evaluate_sampling

    trace = synthetic_trace(N, SEED)
    task = _bench_task(trace)
    sampled = run_adaptive(trace, task).sampled_indices

    result = benchmark(
        lambda: evaluate_sampling(trace, task.threshold, sampled))
    legacy = _evaluate_sampling_legacy(trace, task.threshold, sampled)
    assert legacy["truth_alerts"] == result.truth_alerts
    assert legacy["detected_alerts"] == result.detected_alerts
    assert legacy["detected_episodes"] == result.detected_episodes
    assert legacy["misdetection_rate"] == result.misdetection_rate
    assert legacy["mean_detection_delay"] == result.mean_detection_delay

    report(f"evaluate_sampling: {benchmark.stats['mean'] * 1e3:.2f} ms "
           f"for {N:,} points / {sampled.size:,} samples")
