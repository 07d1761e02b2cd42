"""Hypothesis property: the service's reverse trigger index stays exact.

``MonitoringService`` keeps, for every trigger name, the set of tasks
gating on it (through a local ``add_trigger`` or a channel
``remote_trigger``), so that SoA eligibility and ``remove_task``'s
cleanup never scan the task table. Random sequences of add, remove,
``add_trigger``, ``add_remote_trigger``, trigger-plan install and
snapshot/restore must leave that index equal to a brute-force scan, and
SoA eligibility equal to the scanning predicate it replaced.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.task import TaskSpec
from repro.service import MonitoringService
from repro.triggers.plan import TriggerPlan

NAMES = [f"t{i}" for i in range(6)]
SPEC = TaskSpec(threshold=100.0, error_allowance=0.01, max_interval=8)

name = st.sampled_from(NAMES)
pair = st.tuples(name, name)
ops = st.lists(st.one_of(
    st.tuples(st.just("add"), name),
    st.tuples(st.just("window"), name),
    st.tuples(st.just("remove"), name),
    st.tuples(st.just("trigger"), pair),
    st.tuples(st.just("remote"), pair),
    st.tuples(st.just("plan"), pair),
    st.tuples(st.just("restore"), st.just(None)),
), min_size=1, max_size=40)


def brute_force_index(service: MonitoringService):
    local: dict[str, set[str]] = {}
    remote: dict[str, set[str]] = {}
    for state in service._tasks.values():
        if state.trigger_task is not None:
            local.setdefault(state.trigger_task, set()).add(state.name)
        if state.remote_trigger is not None:
            remote.setdefault(state.remote_trigger, set()).add(state.name)
    return local, remote


def scanning_eligible(service: MonitoringService, state) -> bool:
    """SoA eligibility as it was computed before the index existed."""
    if service._soa is None or state.window > 1:
        return False
    if state.task_type != "value" or state.trigger_task is not None:
        return False
    if state.remote_trigger is not None or state.watch is not None:
        return False
    return all(other.trigger_task != state.name
               for other in service._tasks.values())


def apply(service: MonitoringService, op: str, arg) -> MonitoringService:
    tasks = service._tasks
    if op in ("add", "window") and arg not in tasks:
        service.add_task(arg, SPEC, window=3 if op == "window" else 1)
    elif op == "remove" and arg in tasks:
        service.remove_task(arg)
        assert all(arg not in (s.trigger_task, s.remote_trigger)
                   for s in tasks.values())
    elif op == "trigger" and arg[0] in tasks and arg[1] in tasks:
        service.add_trigger(arg[0], arg[1], elevation_level=50.0)
    elif op == "remote" and arg[0] in tasks and arg[0] != arg[1]:
        # The trigger need not be registered here (it may be remote).
        service.add_remote_trigger(arg[0], arg[1], elevation_level=50.0)
    elif op == "plan" and arg[0] != arg[1]:
        service.install_trigger_plan(TriggerPlan(
            target=arg[0], trigger=arg[1], elevation_level=50.0))
    elif op == "restore":
        service = MonitoringService.restore(service.snapshot(), soa=True)
    return service


@given(sequence=ops)
@settings(max_examples=200, deadline=None)
def test_index_matches_brute_force_scan(sequence):
    service = MonitoringService(soa=True)
    for op, arg in sequence:
        service = apply(service, op, arg)
        assert (service._local_refs, service._remote_refs) \
            == brute_force_index(service)
        for state in service._tasks.values():
            assert service._soa_eligible(state) \
                == scanning_eligible(service, state)
