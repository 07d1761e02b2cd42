"""Workload definitions and their input streams.

Every input a server receives is generated here, as a pure function of
``(workload, seed)``: task names, thresholds, trigger plans and every
offered value. :func:`stream_digest` hashes the generated inputs so a
run can check that two generations agree byte for byte.
"""

from __future__ import annotations

import hashlib
import zlib
from dataclasses import dataclass

import numpy as np

from repro.cluster.routing import route

THRESHOLD = 100.0
ERROR_ALLOWANCE = 0.01
MAX_INTERVAL = 10
VALUE_MEAN = 80.0


@dataclass(frozen=True)
class Workload:
    """One fixed amount of work; ``reps`` fresh servers replay it."""

    name: str
    kind: str            # "runtime" | "cluster" | "churn" | "sweep"
    tasks: int = 0
    batch: int = 0
    steps: int = 0       # batches per rep (one step of every task each)
    value_std: float = 18.0
    protocol: str = "binary"
    shards: int = 4
    triggers: bool = False
    rounds: int = 0      # churn only
    churn_frac: int = 16  # churn only: remove/register 1/churn_frac a round
    streams: int = 0     # sweep only
    horizon: int = 0     # sweep only
    reps: int = 3
    window: int = 50     # batches per measurement window (ingest only)

    def task_entry(self, name: str) -> dict[str, object]:
        return {"name": name, "threshold": THRESHOLD,
                "error_allowance": ERROR_ALLOWANCE,
                "max_interval": MAX_INTERVAL}


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("ingest-binary-calm", "runtime", tasks=4096, batch=4096,
             steps=500, value_std=0.1),
    Workload("ingest-json-noisy", "runtime", tasks=512, batch=512,
             steps=300, protocol="json", triggers=True),
    Workload("cluster-binary-noisy", "cluster", tasks=4096, batch=4096,
             steps=200, window=10, reps=2),
    Workload("churn-checkpoint", "churn", tasks=4096, batch=64,
             rounds=10, reps=2),
    Workload("sweep-fig5a", "sweep", streams=32, horizon=750),
)}


def _rng(workload: str, seed: int, stream: str) -> np.random.Generator:
    key = zlib.crc32(f"{workload}/{stream}".encode("utf-8"))
    return np.random.default_rng([int(seed) & 0xFFFFFFFF, key])


def task_names(w: Workload, seed: int) -> list[str]:
    """Task names; with triggers, pairs ``(2k, 2k+1)`` share a shard.

    Names carry a seed-derived prefix, so the shard each lands on (a
    stable CRC of the name) is part of the generated input too.
    """
    prefix = f"s{seed & 0xFFFF:04x}"
    if not w.triggers:
        return [f"{prefix}-t{i:05d}" for i in range(w.tasks)]
    per_shard: list[list[str]] = [[] for _ in range(w.shards)]
    quota = w.tasks // w.shards
    i = 0
    while any(len(group) < quota for group in per_shard):
        name = f"{prefix}-t{i:05d}"
        i += 1
        group = per_shard[route(name, w.shards)]
        if len(group) < quota:
            group.append(name)
    names: list[str] = []
    for k in range(quota // 2):
        for group in per_shard:
            names += [group[2 * k], group[2 * k + 1]]
    return names


def trigger_plans(w: Workload, names: list[str]) -> list[dict[str, object]]:
    """Each odd task guarded by the even task before it (same shard)."""
    if not w.triggers:
        return []
    return [{"target": names[i + 1], "trigger": names[i],
             "elevation_level": THRESHOLD, "suspend_interval": 10,
             "hysteresis": 0.1, "min_hold": 3}
            for i in range(0, len(names), 2)]


def ingest_values(w: Workload, seed: int) -> np.ndarray:
    """``(steps, tasks)`` values; row ``s`` is step ``s`` of every task."""
    rng = _rng(w.name, seed, "values")
    return rng.normal(VALUE_MEAN, w.value_std, (w.steps, w.tasks))


@dataclass
class ChurnPlan:
    """The churn workload's whole schedule, generated up front."""

    initial: list[str]
    values: list[np.ndarray]       # per round, over that round's live set
    live: list[list[str]]          # per round, live tasks in offer order
    removed: list[list[str]]       # per round, removed after the offers
    added: list[list[str]]         # per round, registered after removal


def churn_plan(w: Workload, seed: int) -> ChurnPlan:
    rng = _rng(w.name, seed, "churn")
    prefix = f"s{seed & 0xFFFF:04x}"
    live = [f"{prefix}-t{i:05d}" for i in range(w.tasks)]
    plan = ChurnPlan(initial=list(live), values=[], live=[], removed=[],
                     added=[])
    next_id = w.tasks
    per_round = w.tasks // w.churn_frac
    for _ in range(w.rounds):
        plan.live.append(list(live))
        plan.values.append(rng.normal(VALUE_MEAN, w.value_std, len(live)))
        picks = np.sort(rng.choice(len(live), per_round, replace=False))
        removed = [live[i] for i in picks.tolist()]
        added = [f"{prefix}-t{next_id + j:05d}" for j in range(per_round)]
        next_id += per_round
        gone = set(removed)
        live = [n for n in live if n not in gone] + added
        plan.removed.append(removed)
        plan.added.append(added)
    return plan


def stream_digest(w: Workload, seed: int) -> str:
    """SHA-256 over every generated input of ``(workload, seed)``."""
    h = hashlib.sha256(w.name.encode("utf-8"))
    if w.kind == "sweep":
        h.update(f"fig5a seed={seed} streams={w.streams} "
                 f"horizon={w.horizon}".encode("utf-8"))
        return h.hexdigest()
    if w.kind == "churn":
        plan = churn_plan(w, seed)
        h.update("\n".join(plan.initial).encode("utf-8"))
        for live, values, removed, added in zip(plan.live, plan.values,
                                                plan.removed, plan.added):
            h.update("\n".join(live).encode("utf-8"))
            h.update(values.tobytes())
            h.update("\n".join(removed + added).encode("utf-8"))
        return h.hexdigest()
    names = task_names(w, seed)
    h.update("\n".join(names).encode("utf-8"))
    h.update(repr(trigger_plans(w, names)).encode("utf-8"))
    h.update(ingest_values(w, seed).tobytes())
    return h.hexdigest()


def violating(w: Workload, seed: int) -> tuple[int, int]:
    """``(values above the threshold, values)`` in one rep's stream."""
    if w.kind == "sweep":
        return 0, 0
    if w.kind == "churn":
        values = np.concatenate(churn_plan(w, seed).values)
    else:
        values = ingest_values(w, seed)
    return int(np.sum(values > THRESHOLD)), int(values.size)
