"""The readable adaptation step, kept as the equivalence oracle.

:class:`~repro.core.adaptation.ViolationLikelihoodSampler` has one
production step, the fused :meth:`observe_fast`. :class:`ReferenceSampler`
keeps the paper's monitor-level step (SIII-B) written out plainly, on the
per-step reference kernels of :mod:`repro.core.likelihood`, so the
equivalence suites and the ``bench_core`` CI job can hold the production
step to it bit for bit (DESIGN.md S27).

Both of its step surfaces (``observe`` and ``observe_fast``) run the
reference step, so a :class:`~repro.service.MonitoringService` whose
samplers are swapped for oracles (:func:`use_reference_samplers`) is a
reference service. ``run_trace`` is inherited unchanged: it is a
production path the suites compare against the oracle, not part of it.
"""

from __future__ import annotations

import math

from repro.core.adaptation import (_MIN_ERROR_NEEDED, SamplingDecision,
                                   ViolationLikelihoodSampler)
from repro.core.likelihood import (gaussian_misdetection_estimate,
                                   misdetection_bound)

__all__ = ["ReferenceSampler", "use_reference_samplers"]


class ReferenceSampler(ViolationLikelihoodSampler):
    """A :class:`ViolationLikelihoodSampler` stepped by the reference rule.

    Same state, same ``state_dict``; only the step differs: one
    :class:`SamplingDecision` per call, the bound from
    :func:`~repro.core.likelihood.misdetection_bound` /
    :func:`~repro.core.likelihood.gaussian_misdetection_estimate`, every
    tunable read from the config, and no telemetry counters.
    """

    __slots__ = ()

    def observe(self, value: float, time_index: int) -> SamplingDecision:
        """Absorb a sampled value and return the adaptation decision."""
        v = self._sign * value
        violation = v > self._threshold
        self._observations += 1

        if self._last_time is not None:
            steps = time_index - self._last_time
            if steps <= 0:
                raise ValueError(
                    f"time_index must increase: {time_index} after "
                    f"{self._last_time}")
            # delta_hat = (v(t) - v(t - I)) / I  (paper SIII-B)
            self._stats.update((v - self._last_value) / steps)
        self._last_value = v
        self._last_time = time_index

        cfg = self._config
        err = self._error_allowance
        if self._stats.effective_count >= cfg.min_samples:
            estimate = (misdetection_bound if cfg.estimator == "chebyshev"
                        else gaussian_misdetection_estimate)
            beta = estimate(v, self._threshold, self._stats.mean,
                            self._stats.std, self._interval)
        else:
            beta = 1.0

        grew = False
        reset = False
        if err <= 0.0:
            # A zero allowance degenerates to periodic default sampling.
            if self._interval != 1:
                self._interval = 1
                reset = True
            self._streak = 0
        elif beta > err:
            reset = self._interval != 1
            self._interval = 1
            self._streak = 0
            if reset:
                self._reset_events += 1
        elif beta <= (1.0 - cfg.slack_ratio) * err:
            self._streak += 1
            if self._streak >= cfg.patience:
                self._streak = 0
                if self._interval < self._task.max_interval:
                    self._interval += 1
                    grew = True
                    self._grow_events += 1
        else:
            self._streak = 0

        # Coordination statistics: updating-period averages of r_i and e_i.
        # r_i is the cost reduction available from growing the interval by
        # one (1/I - 1/(I+1), the marginal saving in samples per step);
        # a monitor already at the maximum interval cannot convert more
        # allowance into cost reduction, so its potential r_i is zero.
        # e_i = beta(I)/(1-gamma) is the allowance that would let it grow
        # (from the adaptation rule's growth condition); it is averaged
        # geometrically because instantaneous bounds span many orders of
        # magnitude and the *typical* requirement is what allowance buys.
        interval = self._interval
        if interval < self._task.max_interval:
            self._coord_sum_r += 1.0 / interval - 1.0 / (interval + 1.0)
        self._coord_sum_log_e += math.log(
            max(beta / (1.0 - cfg.slack_ratio), _MIN_ERROR_NEEDED))
        self._coord_n += 1

        self._last_beta = beta
        self._last_flags = ((1 if grew else 0) | (2 if reset else 0)
                            | (4 if violation else 0))
        return SamplingDecision(next_interval=self._interval,
                                misdetection_bound=beta,
                                grew=grew, reset=reset, violation=violation)

    def observe_fast(self, value: float, time_index: int) -> int:
        """The reference step, returning only the next interval."""
        return self.observe(value, time_index).next_interval


def use_reference_samplers(service) -> None:
    """Swap every scalar-driven task's sampler of a
    :class:`~repro.service.MonitoringService` for a :class:`ReferenceSampler`
    carrying the same state, so the service's offer path runs the oracle.

    Engine-backed tasks (``soa_row >= 0``) are left alone: their state
    lives in the SoA engine, which has its own equivalence gate.
    """
    for name in service.task_names:
        state = service._state(name)
        if state.soa_row >= 0:
            continue
        sampler = state.sampler
        oracle = ReferenceSampler(sampler.task, sampler.config)
        oracle.load_state_dict(sampler.state_dict())
        state.sampler = oracle
