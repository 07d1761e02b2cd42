"""Task registration, removal and restore cost O(1) per task.

A service must not get slower to change as it grows: the cost of one
``add_task`` / ``remove_task`` may not depend on how many tasks are
already registered, and restoring a snapshot must cost time linear in
its task count. Each check compares two timings taken in the same
process, so host speed cancels out; the garbage collector is paused
while timing, so a collection pass over the whole heap does not land in
one sample.
"""

from __future__ import annotations

import gc
import statistics
import time

from repro.core.task import TaskSpec
from repro.service import MonitoringService

SPEC = TaskSpec(threshold=100.0, error_allowance=0.01, max_interval=10)
N_TASKS = 8192
MAX_GROWTH = 3.0


def tenth_growth(samples: list[int]) -> float:
    """Mean of the last tenth of ``samples`` over the first tenth's."""
    tenth = len(samples) // 10
    return (statistics.fmean(samples[-tenth:])
            / statistics.fmean(samples[:tenth]))


def test_registration_cost_is_flat():
    service = MonitoringService(soa=True)
    perf = time.perf_counter_ns
    samples = []
    gc.disable()
    try:
        for i in range(N_TASKS):
            began = perf()
            service.add_task(f"t{i}", SPEC)
            samples.append(perf() - began)
    finally:
        gc.enable()
    assert service.soa_row_for(f"t{N_TASKS - 1}") >= 0
    assert tenth_growth(samples) < MAX_GROWTH


def test_removal_cost_is_flat():
    # Every 8th registration, time the removal of 8 just-added probes:
    # one sample per removal batch, at ever larger task counts.
    service = MonitoringService(soa=True)
    perf = time.perf_counter_ns
    probes = [f"probe{j}" for j in range(8)]
    samples = []
    gc.disable()
    try:
        for i in range(N_TASKS):
            service.add_task(f"t{i}", SPEC)
            if i % 8:
                continue
            for probe in probes:
                service.add_task(probe, SPEC)
            began = perf()
            for probe in probes:
                service.remove_task(probe)
            samples.append(perf() - began)
    finally:
        gc.enable()
    assert len(service.task_names) == N_TASKS
    assert tenth_growth(samples) < MAX_GROWTH


def test_restore_cost_is_linear():
    def best_restore_s(n: int) -> float:
        service = MonitoringService(soa=True)
        for i in range(n):
            service.add_task(f"t{i}", SPEC)
        snapshot = service.snapshot()
        best = float("inf")
        gc.disable()
        try:
            for _ in range(3):
                began = time.perf_counter()
                MonitoringService.restore(snapshot, soa=True)
                best = min(best, time.perf_counter() - began)
        finally:
            gc.enable()
        return best

    # Four times the tasks: linear is ~4x, the old per-task scan ~18x.
    assert best_restore_s(4096) / best_restore_s(1024) < 6.0
