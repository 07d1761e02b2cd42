"""Hypothesis properties for correlation-trigger arm/disarm edges.

A :class:`~repro.core.correlation.TriggeredSampler` guards a task: cold
trigger → idle at the suspend interval, hot trigger → the inner
adaptation's decision verbatim. The edge cases worth pinning are the
boundary value itself (``trigger == level`` counts as *elevated*: only
strictly-below suspends), the ``None`` trigger (conservatively
elevated), the interval floor (idle never *shortens* an inner interval
that is already longer), and the observe/observe_fast equivalence the
runtime drain loop depends on — the latter against a guard whose inner
sampler is the reference oracle
(:class:`repro.testkit.oracle.ReferenceSampler`).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adaptation import AdaptationConfig, ViolationLikelihoodSampler
from repro.core.correlation import TriggeredSampler
from repro.core.task import TaskSpec
from repro.testkit.oracle import ReferenceSampler

values_st = st.lists(st.floats(min_value=0.0, max_value=200.0,
                               allow_nan=False),
                     min_size=1, max_size=150)
triggers_st = st.lists(st.one_of(st.none(),
                                 st.floats(min_value=0.0, max_value=100.0,
                                           allow_nan=False)),
                       min_size=1, max_size=150)


def _inner(max_interval=8, sampler=ViolationLikelihoodSampler):
    spec = TaskSpec(threshold=150.0, error_allowance=0.05,
                    max_interval=max_interval)
    config = AdaptationConfig(patience=3, min_samples=4)
    return sampler(spec, config)


class TestTriggerEdges:
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           level=st.floats(min_value=10.0, max_value=90.0,
                           allow_nan=False),
           suspend=st.integers(min_value=2, max_value=20),
           n=st.integers(min_value=1, max_value=120))
    @settings(max_examples=60, deadline=None)
    def test_cold_trigger_floors_at_suspend_interval(self, seed, level,
                                                     suspend, n):
        rng = np.random.default_rng(seed)
        guarded = TriggeredSampler(_inner(), level,
                                   suspend_interval=suspend)
        shadow = _inner()
        step = 0
        suspended = 0
        for value in rng.normal(100.0, 30.0, n):
            trig = float(rng.uniform(0.0, 100.0))
            decision = guarded.observe(float(value), step)
            inner = shadow.observe(float(value), step)
            got = guarded.observe(float(value), step + 1,
                                  trigger_value=trig)
            expected = shadow.observe(float(value), step + 1)
            if trig < level:
                suspended += 1
                # Arm edge: idling floors the interval, never shrinks it.
                assert got.next_interval \
                    == max(expected.next_interval, suspend)
            else:
                # Disarm edge: the inner decision passes through verbatim.
                assert got == expected
            assert decision == inner  # no trigger given -> pass-through
            step += 2
        assert guarded.suspended_steps == suspended

    @given(level=st.floats(min_value=1.0, max_value=99.0,
                           allow_nan=False),
           suspend=st.integers(min_value=2, max_value=20))
    @settings(max_examples=40, deadline=None)
    def test_boundary_value_counts_as_elevated(self, level, suspend):
        """``trigger == level`` must NOT suspend — the arm edge is
        strictly-below, matching the planner's ``trig >= level``
        elevation convention."""
        guarded = TriggeredSampler(_inner(), level,
                                   suspend_interval=suspend)
        shadow = _inner()
        got = guarded.observe(50.0, 0, trigger_value=level)
        expected = shadow.observe(50.0, 0)
        assert got == expected
        assert guarded.suspended_steps == 0
        # Epsilon below the level is the other side of the edge.
        eps_below = np.nextafter(level, -np.inf)
        got2 = guarded.observe(50.0, 1, trigger_value=float(eps_below))
        expected2 = shadow.observe(50.0, 1)
        assert got2.next_interval == max(expected2.next_interval, suspend)
        assert guarded.suspended_steps == 1

    @given(values=values_st, triggers=triggers_st,
           level=st.floats(min_value=10.0, max_value=90.0,
                           allow_nan=False),
           suspend=st.integers(min_value=2, max_value=20))
    @settings(max_examples=80, deadline=None)
    def test_observe_fast_is_bit_equivalent(self, values, triggers, level,
                                            suspend):
        """The drain-loop surface: intervals, inner sampler state and the
        suspended-steps counter must match observe() exactly, including
        None triggers (conservatively elevated)."""
        slow = TriggeredSampler(_inner(sampler=ReferenceSampler), level,
                                suspend_interval=suspend)
        fast = TriggeredSampler(_inner(), level, suspend_interval=suspend)
        step = 0
        for value, trig in zip(values, triggers * (
                len(values) // len(triggers) + 1)):
            a = slow.observe(float(value), step, trigger_value=trig)
            b = fast.observe_fast(float(value), step, trigger_value=trig)
            assert b == a.next_interval
            assert fast.suspended_steps == slow.suspended_steps
            assert fast.interval == slow.interval
            step += a.next_interval
        assert fast._inner.state_dict() == slow._inner.state_dict()

    @given(suspend=st.integers(min_value=2, max_value=20))
    @settings(max_examples=20, deadline=None)
    def test_none_trigger_never_suspends(self, suspend):
        guarded = TriggeredSampler(_inner(), 50.0,
                                   suspend_interval=suspend)
        shadow = _inner()
        step = 0
        for value in (10.0, 60.0, 160.0, 40.0):
            got = guarded.observe(value, step, trigger_value=None)
            expected = shadow.observe(value, step)
            assert got == expected
            step += got.next_interval
        assert guarded.suspended_steps == 0
