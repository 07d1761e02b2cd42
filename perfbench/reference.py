"""In-process scalar references the correctness gate compares against.

The reference is a scalar :class:`~repro.service.MonitoringService` (no
SoA engine) fed exactly the generated stream, in the order each shard
applies it. Trigger edges are routed the way the runtime routes them: a
sink that flips the guarded target's armed flag synchronously.

References are pure functions of ``(workload, seed)`` and the source
tree, so they are cached in the checkout under ``.perfbench/cache``,
keyed by the stream digest and a digest of ``src/``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import pathlib
from typing import Any

from repro.config import register_task_from_config
from repro.core.adaptation import AdaptationConfig
from repro.service import MonitoringService
from repro.triggers.plan import TriggerPlan

import streams as st

ROOT = pathlib.Path(__file__).resolve().parents[1]
CACHE = ROOT / ".perfbench" / "cache"


@functools.cache
def source_sha256() -> str:
    """SHA-256 over every source file under ``src/`` (path + bytes)."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cached(key: str, compute) -> dict[str, Any]:
    """``compute()``, cached per key and per source tree."""
    path = CACHE / f"{key}-{source_sha256()[:16]}.json"
    if path.exists():
        return json.loads(path.read_text(encoding="utf-8"))
    value = compute()
    CACHE.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(value), encoding="utf-8")
    tmp.replace(path)
    return value


class _Reference:
    """A scalar service plus the runtime's alert and edge bookkeeping."""

    def __init__(self, w: st.Workload):
        self.w = w
        self.service = MonitoringService(soa=False)
        self.config = AdaptationConfig()
        self.alerts = 0
        self.consumed = 0
        self.plans: list[TriggerPlan] = []
        self.service.set_trigger_sink(self._on_edge)

    def _on_alert(self, alert: Any) -> None:
        self.alerts += 1

    def _on_edge(self, event: dict[str, Any]) -> None:
        armed = event.get("op") == "arm"
        for plan in self.plans:
            if plan.trigger == event.get("trigger"):
                self.service.set_trigger_armed(plan.target, armed)

    def register(self, name: str) -> None:
        register_task_from_config(self.service, self.w.task_entry(name),
                                  {}, on_alert=self._on_alert,
                                  config=self.config)

    def install(self, entry: dict[str, Any]) -> None:
        plan = TriggerPlan.from_dict(dict(entry))
        self.service.install_trigger_plan(plan)
        self.plans.append(plan)

    def offer(self, names: list[str], step: int, values: list[float]) -> None:
        """Offer one step of every task, in the order a shard applies it."""
        offer_fast = self.service.offer_fast
        consumed = 0
        for name, value in zip(names, values):
            if offer_fast(name, value, step) is not None:
                consumed += 1
        self.consumed += consumed

    def offer_due(self, names: list[str], values: Any) -> None:
        """Offer a ``(steps, tasks)`` stream, skipping not-due offers.

        Only valid without trigger wiring: a not-due offer to a plain
        value task changes nothing but the last-seen value, which only
        triggers read. Tasks are independent, so each runs to the end of
        the stream in turn.
        """
        service = self.service
        offer_fast = service.offer_fast
        next_due = service.next_due
        steps = len(values)
        consumed = 0
        for i, name in enumerate(names):
            column = values[:, i].tolist()
            step = next_due(name)
            while step < steps:
                if offer_fast(name, column[step], step) is not None:
                    consumed += 1
                step = max(step + 1, next_due(name))
        self.consumed += consumed


def ingest_reference(w: st.Workload, seed: int, digest: str,
                     ) -> dict[str, Any]:
    """Consumed and alert totals for one rep of an ingest workload."""
    def compute() -> dict[str, Any]:
        names = st.task_names(w, seed)
        ref = _Reference(w)
        for name in names:
            ref.register(name)
        for plan in st.trigger_plans(w, names):
            ref.install(plan)
        values = st.ingest_values(w, seed)
        if ref.plans:
            for step in range(w.steps):
                ref.offer(names, step, values[step].tolist())
        else:
            ref.offer_due(names, values)
        suspensions, _ = ref.service.trigger_accounting()
        return {"consumed": ref.consumed, "alerts": ref.alerts,
                "suspensions": suspensions}
    return _cached(f"{w.name}-{seed}-{digest[:16]}", compute)


def churn_reference(w: st.Workload, seed: int, digest: str,
                    ) -> dict[str, Any]:
    """Totals plus every live task's final schedule state."""
    def compute() -> dict[str, Any]:
        plan = st.churn_plan(w, seed)
        ref = _Reference(w)
        for name in plan.initial:
            ref.register(name)
        for step, (live, values, removed, added) in enumerate(zip(
                plan.live, plan.values, plan.removed, plan.added)):
            ref.offer(live, step, values.tolist())
            for name in removed:
                ref.service.remove_task(name)
            for name in added:
                ref.register(name)
        service = ref.service
        tasks = {name: [service.interval(name), service.next_due(name),
                        service.samples_taken(name)]
                 for name in service.task_names}
        return {"consumed": ref.consumed, "alerts": ref.alerts,
                "tasks": tasks}
    return _cached(f"{w.name}-{seed}-{digest[:16]}", compute)


def sweep_reference(w: st.Workload, seed: int) -> str:
    """The fig5a CSV text, computed in-process at one worker."""
    from repro.experiments.__main__ import run_figure
    from repro.experiments.reporting import to_csv

    def compute() -> dict[str, Any]:
        _, result = run_figure("fig5a", seed, workers=1, cache=None,
                               streams=w.streams, horizon=w.horizon)
        headers, rows = result.to_rows()
        return {"csv": to_csv(headers, rows)}
    digest = st.stream_digest(w, seed)
    return _cached(f"{w.name}-{seed}-{digest[:16]}", compute)["csv"]
