"""Host-speed sampler: a fixed interpreter loop timed all through a run.

On a shared host the speed of a CPU drifts by tens of percent over
seconds and minutes (other tenants on the same cores): a fixed loop
averaged over 9 s blocks still varies with a CV of 0.12 on the reference
host. A run's raw wall times carry the host's state as much as the
program's, so every timed figure is scaled by how fast the host ran
while it was measured.

:class:`Sampler` runs this file as a side process that times a short
fixed loop in CPU time (so waiting for a CPU does not count) about every
``PERIOD_S``, taking turns on every CPU, and appends the time, the loop's
seconds and the host's stolen and total CPU ticks to a file.
``factor(start, end)`` is ``REFERENCE_S`` divided by the median loop time
in that interval, times the share of CPU time the hypervisor did not
steal from the virtual machine meantime (the loop is timed in CPU time,
which a stolen CPU does not advance); a wall time ``t`` measured there
is reported as ``t * factor``, seconds at the reference speed. The loop is benchmark
code and never changes with the program, so a program that does its
work faster still reports shorter times. The sampler costs about 3% of
one CPU, the same for every program version.
"""

from __future__ import annotations

import bisect
import os
import pathlib
import statistics
import subprocess
import sys
import time

# The loop's CPU time on the unloaded reference host (Intel Xeon, 2 vCPU,
# Python 3.11). Only the scale of reported times depends on it.
REFERENCE_S = 0.0015
PERIOD_S = 0.05


def spin() -> float:
    """CPU seconds of one fixed piece of interpreter work."""
    began = time.thread_time()
    table: dict[int, int] = {}
    for i in range(8000):
        key = i & 511
        table[key] = table.get(key, 0) + i
    return time.thread_time() - began


def cpu_ticks() -> tuple[int, int]:
    """``(stolen, total)`` clock ticks of every CPU since boot."""
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            fields = [int(x) for x in stat.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return fields[7], sum(fields)


class Sampler:
    """The side process and the samples it wrote."""

    def __init__(self, path: pathlib.Path):
        self.path = path
        self.proc = subprocess.Popen(
            [sys.executable, __file__, str(path)],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        self.samples: list[tuple[float, float, int, int]] = []

    def stop(self) -> None:
        self.proc.terminate()
        self.proc.wait()
        self.samples = []
        for line in self.path.read_text(encoding="utf-8").splitlines():
            fields = line.split()
            if len(fields) == 4:  # the last line may be cut short
                self.samples.append((float(fields[0]), float(fields[1]),
                                     int(fields[2]), int(fields[3])))

    def _inside(self, start: float,
                end: float) -> list[tuple[float, float, int, int]]:
        times = [sample[0] for sample in self.samples]
        inside = self.samples[bisect.bisect_left(times, start):
                              bisect.bisect_right(times, end)]
        return inside if len(inside) > 1 else self.samples

    def stolen(self, start: float, end: float) -> float:
        """Share of the host's CPU time the hypervisor took meanwhile."""
        inside = self._inside(start, end)
        total = inside[-1][3] - inside[0][3]
        return (inside[-1][2] - inside[0][2]) / total if total else 0.0

    def factor(self, start: float, end: float) -> float:
        """Scale for a wall time measured from ``start`` to ``end``."""
        speed = REFERENCE_S / statistics.median(
            sample[1] for sample in self._inside(start, end))
        return speed * (1.0 - self.stolen(start, end))


def _sample(path: str) -> None:
    # Take turns on every CPU this process may use: a single-process
    # workload leaves one CPU idle, and an idle CPU's speed says little
    # about the busy one's.
    cpus = sorted(os.sched_getaffinity(0))
    turn = 0
    with open(path, "w", encoding="utf-8", buffering=1) as out:
        while True:
            os.sched_setaffinity(0, {cpus[turn % len(cpus)]})
            turn += 1
            seconds = spin()
            stolen, total = cpu_ticks()
            out.write(f"{time.perf_counter():.6f} {seconds:.9f} "
                      f"{stolen} {total}\n")
            time.sleep(PERIOD_S)


if __name__ == "__main__":
    _sample(sys.argv[1])
