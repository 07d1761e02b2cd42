"""Structure-of-arrays sampler engine (DESIGN.md S31).

:class:`SoaSamplerEngine` advances *many* tasks' violation-likelihood
samplers as column vectors per tick — the multi-task analogue of
:meth:`~repro.core.adaptation.ViolationLikelihoodSampler.run_trace`,
which batches one task over many steps. A tick is a set of offers with at
most one offer per task; :meth:`run_columns` splits an arbitrary decoded
offer batch into such ticks (stable-sorted occurrence splitting) so every
task still sees its updates in arrival order.

Bit-equivalence contract
------------------------

Every row's state trajectory is bit-identical to driving a scalar
:class:`~repro.core.adaptation.ViolationLikelihoodSampler` through
:meth:`~repro.service.MonitoringService.offer_fast` with the same
(value, step) stream: the vectorised Welford / restart / stale-serving /
Cantelli / AIMD / coordination math performs the same floating-point
operations in the same order and association per element (numpy float64
arithmetic is IEEE-754 double, exactly CPython's float). Two operations
are *not* vectorised because their numpy kernels are not guaranteed
bit-identical to libm: ``log`` (coordination accumulator) and ``erfc``
(gaussian estimator) run element-wise through :mod:`math` over the — much
smaller — consumed subset. ``sqrt`` and the arithmetic primitives are
correctly rounded by IEEE and safe to vectorise.

State moves between the scalar and columnar representations through the
sampler ``state_dict`` format (:meth:`SoaSamplerEngine.row_state_dict` /
:meth:`SoaSamplerEngine.load_row_state`), so checkpoints, snapshot
fingerprints and live migration stay byte-compatible with scalar-only
peers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core import adaptation as _adaptation
from repro.core.adaptation import _MIN_ERROR_NEEDED, AdaptationConfig
from repro.core.task import TaskSpec
from repro.exceptions import ConfigurationError

__all__ = ["SoaSamplerEngine", "ColumnBatchResult"]

_SQRT2 = math.sqrt(2.0)  # the identical double to likelihood._SQRT2

# Stand-in for "restarts disabled": no real stream reaches 2**62 samples,
# so `n > limit` never fires (mirrors run_trace's unreachable bound).
_NO_RESTART = 2 ** 62

_EMPTY_I8 = np.empty(0, dtype=np.int64)
_EMPTY_F8 = np.empty(0, dtype=np.float64)


@dataclass
class ColumnBatchResult:
    """Outcome of one :meth:`SoaSamplerEngine.run_columns` call.

    ``fallback`` holds positions (into the input arrays) whose rows are no
    longer engine-managed — the caller re-drives those by name through the
    scalar path, which is always correct. The ``viol_*`` / ``adapt_*``
    arrays carry the rare alert/trace-worthy events for the service to
    materialise.
    """

    applied: int = 0
    consumed: int = 0
    rejected: int = 0
    consumed_intervals: np.ndarray = field(
        default_factory=lambda: _EMPTY_I8)
    fallback: np.ndarray = field(default_factory=lambda: _EMPTY_I8)
    viol_rows: np.ndarray = field(default_factory=lambda: _EMPTY_I8)
    viol_steps: np.ndarray = field(default_factory=lambda: _EMPTY_I8)
    viol_values: np.ndarray = field(default_factory=lambda: _EMPTY_F8)
    adapt_rows: np.ndarray = field(default_factory=lambda: _EMPTY_I8)
    adapt_steps: np.ndarray = field(default_factory=lambda: _EMPTY_I8)
    adapt_intervals: np.ndarray = field(default_factory=lambda: _EMPTY_I8)
    adapt_flags: np.ndarray = field(default_factory=lambda: _EMPTY_I8)
    adapt_betas: np.ndarray = field(default_factory=lambda: _EMPTY_F8)


class SoaSamplerEngine:
    """Columnar storage + vectorised stepping for many samplers.

    Rows are allocated by :meth:`add_task` and never reused: a removed or
    evicted task's row is deactivated, so stale row references held by
    long-lived connections degrade to an explicit fallback instead of
    silently hitting another task's state.
    """

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ConfigurationError(
                f"capacity must be >= 1, got {capacity}")
        self._rows = 0
        self._alloc(capacity)

    def _alloc(self, capacity: int) -> None:
        i8 = lambda: np.zeros(capacity, dtype=np.int64)  # noqa: E731
        f8 = lambda: np.zeros(capacity, dtype=np.float64)  # noqa: E731
        b1 = lambda: np.zeros(capacity, dtype=bool)  # noqa: E731
        # Per-row invariants (from TaskSpec / AdaptationConfig).
        self.sign = f8()
        self.threshold = f8()          # oriented (upper-frame) threshold
        self.alert_threshold = f8()    # raw spec threshold, for Alert dicts
        self.err = f8()                # error allowance (coordinator-tunable)
        self.max_interval = i8()
        self.patience = i8()
        self.min_samples = i8()
        self.one_minus_slack = f8()
        self.use_cheb = b1()
        self.restart_limit = i8()
        self.min_fresh = i8()
        # Sampler mutable state (ViolationLikelihoodSampler slots).
        self.interval = i8()
        self.streak = i8()
        self.last_value = f8()
        self.has_last = b1()
        self.last_time = i8()
        self.observations = i8()
        self.grow_events = i8()
        self.reset_events = i8()
        self.coord_sum_r = f8()
        self.coord_sum_log_e = f8()
        self.coord_n = i8()
        self.last_beta = f8()
        self.last_flags = i8()
        # OnlineStatistics mutable state.
        self.stat_n = i8()
        self.mean = f8()
        self.var = f8()
        self.stale_mean = f8()
        self.stale_var = f8()
        self.has_stale = b1()
        self.stale_count = i8()
        self.restarts = i8()
        self.total_count = i8()
        # Service-level schedule state (MonitoringService.TaskState).
        self.next_due = i8()
        self.samples_taken = i8()
        self.last_offered = f8()
        self.has_offered = b1()
        self.active = b1()

    _COLUMNS = (
        "sign", "threshold", "alert_threshold", "err", "max_interval",
        "patience", "min_samples", "one_minus_slack", "use_cheb",
        "restart_limit", "min_fresh", "interval", "streak", "last_value",
        "has_last", "last_time", "observations", "grow_events",
        "reset_events", "coord_sum_r", "coord_sum_log_e", "coord_n",
        "last_beta", "last_flags", "stat_n", "mean", "var", "stale_mean",
        "stale_var", "has_stale", "stale_count", "restarts", "total_count",
        "next_due", "samples_taken", "last_offered", "has_offered",
        "active")

    def __len__(self) -> int:
        return self._rows

    def _grow(self) -> None:
        for name in self._COLUMNS:
            old = getattr(self, name)
            new = np.zeros(len(old) * 2, dtype=old.dtype)
            new[:len(old)] = old
            setattr(self, name, new)

    # ------------------------------------------------------------------
    # Row lifecycle

    def add_task(self, task: TaskSpec,
                 config: AdaptationConfig | None = None) -> int:
        """Allocate a row for ``task`` in its scalar-fresh initial state."""
        config = config or AdaptationConfig()
        if self._rows == len(self.sign):
            self._grow()
        row = self._rows
        self._rows += 1
        sign, threshold = task.oriented()
        self.sign[row] = sign
        self.threshold[row] = threshold
        self.alert_threshold[row] = task.threshold
        self.err[row] = task.error_allowance
        self.max_interval[row] = task.max_interval
        self.patience[row] = config.patience
        self.min_samples[row] = config.min_samples
        self.one_minus_slack[row] = 1.0 - config.slack_ratio
        self.use_cheb[row] = config.estimator == "chebyshev"
        self.restart_limit[row] = (_NO_RESTART if config.stats_restart
                                   is None else config.stats_restart)
        self.min_fresh[row] = config.min_samples
        self.interval[row] = 1
        self.streak[row] = 0
        self.has_last[row] = False
        self.last_beta[row] = 1.0
        self.last_flags[row] = 0
        self.next_due[row] = 0
        self.samples_taken[row] = 0
        self.has_offered[row] = False
        self.active[row] = True
        return row

    def deactivate(self, row: int) -> None:
        """Retire a row; offers routed to it fall back / reject."""
        self.active[row] = False

    # ------------------------------------------------------------------
    # state_dict round-trip (checkpoint v2 compatibility)

    def row_state_dict(self, row: int) -> dict[str, Any]:
        """The row's sampler state in the exact scalar ``state_dict`` shape.

        Every value is a plain Python type, so the dict feeds straight
        into :meth:`ViolationLikelihoodSampler.load_state_dict`, JSON
        canonicalisation and checkpoint fingerprints.
        """
        has_last = bool(self.has_last[row])
        has_stale = bool(self.has_stale[row])
        return {
            "interval": int(self.interval[row]),
            "streak": int(self.streak[row]),
            "last_value": float(self.last_value[row]) if has_last else None,
            "last_time": int(self.last_time[row]) if has_last else None,
            "error_allowance": float(self.err[row]),
            "observations": int(self.observations[row]),
            "grow_events": int(self.grow_events[row]),
            "reset_events": int(self.reset_events[row]),
            "coord_sum_r": float(self.coord_sum_r[row]),
            "coord_sum_log_e": float(self.coord_sum_log_e[row]),
            "coord_n": int(self.coord_n[row]),
            "stats": {
                "n": int(self.stat_n[row]),
                "mean": float(self.mean[row]),
                "var": float(self.var[row]),
                "stale_mean": (float(self.stale_mean[row])
                               if has_stale else None),
                "stale_var": (float(self.stale_var[row])
                              if has_stale else None),
                "stale_count": int(self.stale_count[row]),
                "restarts": int(self.restarts[row]),
                "total_count": int(self.total_count[row]),
            },
        }

    def rows_state_dicts(self, rows: np.ndarray) -> list[dict[str, Any]]:
        """:meth:`row_state_dict` for many rows, gathering each column once.

        Returns one dict per entry of ``rows``, equal key for key and
        value for value to ``row_state_dict(row)`` (the snapshot path).
        """
        def col(name: str) -> list[Any]:
            return getattr(self, name)[rows].tolist()

        out = []
        for (interval, streak, has_last, last_value, last_time, err, obs,
             grows, resets, sum_r, sum_log_e, coord_n, stat_n, mean, var,
             has_stale, stale_mean, stale_var, stale_count, restarts,
             total) in zip(
                col("interval"), col("streak"), col("has_last"),
                col("last_value"), col("last_time"), col("err"),
                col("observations"), col("grow_events"),
                col("reset_events"), col("coord_sum_r"),
                col("coord_sum_log_e"), col("coord_n"), col("stat_n"),
                col("mean"), col("var"), col("has_stale"),
                col("stale_mean"), col("stale_var"), col("stale_count"),
                col("restarts"), col("total_count")):
            out.append({
                "interval": interval,
                "streak": streak,
                "last_value": last_value if has_last else None,
                "last_time": last_time if has_last else None,
                "error_allowance": err,
                "observations": obs,
                "grow_events": grows,
                "reset_events": resets,
                "coord_sum_r": sum_r,
                "coord_sum_log_e": sum_log_e,
                "coord_n": coord_n,
                "stats": {
                    "n": stat_n,
                    "mean": mean,
                    "var": var,
                    "stale_mean": stale_mean if has_stale else None,
                    "stale_var": stale_var if has_stale else None,
                    "stale_count": stale_count,
                    "restarts": restarts,
                    "total_count": total,
                },
            })
        return out

    def load_row_state(self, row: int, state: dict[str, Any]) -> None:
        """Load a scalar sampler ``state_dict`` into the row."""
        self.interval[row] = int(state["interval"])
        self.streak[row] = int(state["streak"])
        last_value = state.get("last_value")
        last_time = state.get("last_time")
        self.has_last[row] = last_time is not None
        self.last_value[row] = (0.0 if last_value is None
                                else float(last_value))
        self.last_time[row] = 0 if last_time is None else int(last_time)
        err = float(state["error_allowance"])
        if not 0.0 <= err <= 1.0:
            raise ConfigurationError(
                f"error allowance must be in [0, 1], got {err}")
        self.err[row] = err
        self.observations[row] = int(state.get("observations", 0))
        self.grow_events[row] = int(state.get("grow_events", 0))
        self.reset_events[row] = int(state.get("reset_events", 0))
        self.coord_sum_r[row] = float(state.get("coord_sum_r", 0.0))
        self.coord_sum_log_e[row] = float(state.get("coord_sum_log_e", 0.0))
        self.coord_n[row] = int(state.get("coord_n", 0))
        stats = state["stats"]
        self.stat_n[row] = int(stats["n"])
        self.mean[row] = float(stats["mean"])
        self.var[row] = float(stats["var"])
        stale_mean = stats.get("stale_mean")
        stale_var = stats.get("stale_var")
        self.has_stale[row] = stale_mean is not None
        self.stale_mean[row] = (0.0 if stale_mean is None
                                else float(stale_mean))
        self.stale_var[row] = 0.0 if stale_var is None else float(stale_var)
        self.stale_count[row] = int(stats.get("stale_count", 0))
        self.restarts[row] = int(stats.get("restarts", 0))
        self.total_count[row] = int(stats.get("total_count", 0))

    # ------------------------------------------------------------------
    # Scalar drive surface (mixed JSON/binary traffic to the same task)

    def observe_one(self, row: int, value: float, step: int) -> int:
        """Advance one row by one offer; returns the next interval.

        The exact scalar-math mirror of
        :meth:`ViolationLikelihoodSampler.observe_fast` operating on
        column storage — the by-name JSON path and the columnar path may
        interleave freely on the same task without representation sync.
        """
        v = float(self.sign[row]) * value
        threshold = float(self.threshold[row])
        flags = 4 if v > threshold else 0
        self.observations[row] += 1

        if self.has_last[row]:
            steps = step - int(self.last_time[row])
            if steps <= 0:
                raise ValueError(
                    f"time_index must increase: {step} after "
                    f"{int(self.last_time[row])}")
            x = (v - float(self.last_value[row])) / steps
            if not math.isfinite(x):
                raise ValueError(f"non-finite observation: {x!r}")
            n_acc = int(self.stat_n[row]) + 1
            self.total_count[row] += 1
            prev_mean = float(self.mean[row])
            mean_acc = prev_mean + (x - prev_mean) / n_acc
            var_acc = ((n_acc - 1) * float(self.var[row])
                       + (x - mean_acc) * (x - prev_mean)) / n_acc
            if n_acc > int(self.restart_limit[row]):
                self.stale_mean[row] = mean_acc
                self.stale_var[row] = var_acc
                self.stale_count[row] = n_acc
                self.has_stale[row] = True
                self.restarts[row] += 1
                n_acc = 0
                mean_acc = 0.0
                var_acc = 0.0
            self.stat_n[row] = n_acc
            self.mean[row] = mean_acc
            self.var[row] = var_acc
        self.last_value[row] = v
        self.last_time[row] = step
        self.has_last[row] = True

        n_acc = int(self.stat_n[row])
        if self.has_stale[row] and n_acc < int(self.min_fresh[row]):
            eff = int(self.stale_count[row])
            mean_est = float(self.stale_mean[row])
            var_est = float(self.stale_var[row])
        else:
            eff = n_acc
            mean_est = float(self.mean[row])
            var_est = max(float(self.var[row]), 0.0)

        interval = int(self.interval[row])
        if eff >= int(self.min_samples[row]):
            std_est = math.sqrt(var_est)
            gap0 = threshold - v
            if std_est == 0.0:
                worst = interval if mean_est >= 0.0 else 1
                beta = 0.0 if gap0 - worst * mean_est > 0.0 else 1.0
            elif self.use_cheb[row]:
                survive = 1.0
                for i in range(1, interval + 1):
                    gap = gap0 - i * mean_est
                    if gap <= 0.0:
                        beta = 1.0
                        break
                    k = gap / (i * std_est)
                    survive *= 1.0 - 1.0 / (1.0 + k * k)
                else:
                    beta = 1.0 - survive
            else:
                survive = 1.0
                for i in range(1, interval + 1):
                    p = 0.5 * math.erfc(
                        (gap0 - i * mean_est) / (i * std_est) / _SQRT2)
                    if p >= 1.0:
                        beta = 1.0
                        break
                    survive *= 1.0 - p
                else:
                    beta = 1.0 - survive
        else:
            beta = 1.0

        err = float(self.err[row])
        one_minus_slack = float(self.one_minus_slack[row])
        streak = int(self.streak[row])
        if err <= 0.0:
            if interval != 1:
                interval = 1
                flags |= 2
            streak = 0
        elif beta > err:
            if interval != 1:
                flags |= 2
                interval = 1
                self.reset_events[row] += 1
            streak = 0
        elif beta <= one_minus_slack * err:
            streak += 1
            if streak >= int(self.patience[row]):
                streak = 0
                if interval < int(self.max_interval[row]):
                    interval += 1
                    flags |= 1
                    self.grow_events[row] += 1
        else:
            streak = 0

        if interval < int(self.max_interval[row]):
            self.coord_sum_r[row] += (1.0 / interval
                                      - 1.0 / (interval + 1.0))
        self.coord_sum_log_e[row] += math.log(
            max(beta / one_minus_slack, _MIN_ERROR_NEEDED))
        self.coord_n[row] += 1

        self.interval[row] = interval
        self.streak[row] = streak
        self.last_beta[row] = beta
        self.last_flags[row] = flags

        metrics = _adaptation._SAMPLER_METRICS
        if metrics.enabled:
            metrics.observations += 1
            if flags:
                if flags & 1:
                    metrics.grow_events += 1
                if flags & 2:
                    metrics.reset_events += 1
                if flags & 4:
                    metrics.violations += 1
        return interval

    # ------------------------------------------------------------------
    # Vectorised drive surface

    def run_columns(self, rows: np.ndarray, steps: np.ndarray,
                    values: np.ndarray) -> ColumnBatchResult:
        """Apply a decoded offer batch (may repeat rows) to the columns.

        Splits the batch into ticks — one occurrence per row, in arrival
        order — and advances each tick vectorised. Inactive rows are
        reported back as ``fallback`` positions instead of being applied.
        """
        result = ColumnBatchResult()
        if len(rows) == 0:
            return result
        act = self.active[rows]
        if not act.all():
            result.fallback = np.flatnonzero(~act)
            keep = np.flatnonzero(act)
            rows = rows[keep]
            steps = steps[keep]
            values = values[keep]
            if len(rows) == 0:
                return result

        # Occurrence splitting: a stable sort groups equal rows while
        # preserving their arrival order, so occurrence k of every row can
        # be processed in tick k.
        order = np.argsort(rows, kind="stable")
        sorted_rows = rows[order]
        new_group = np.empty(len(sorted_rows), dtype=bool)
        new_group[0] = True
        np.not_equal(sorted_rows[1:], sorted_rows[:-1], out=new_group[1:])
        group_starts = np.flatnonzero(new_group)
        group_ids = np.cumsum(new_group) - 1
        occurrence = np.arange(len(sorted_rows)) - group_starts[group_ids]
        max_occ = int(occurrence.max())

        viol_r: list[np.ndarray] = []
        viol_s: list[np.ndarray] = []
        viol_v: list[np.ndarray] = []
        adapt_r: list[np.ndarray] = []
        adapt_s: list[np.ndarray] = []
        adapt_i: list[np.ndarray] = []
        adapt_f: list[np.ndarray] = []
        adapt_b: list[np.ndarray] = []
        intervals: list[np.ndarray] = []

        for k in range(max_occ + 1):
            sel = order[occurrence == k]
            tick_rows = rows[sel]
            tick_steps = steps[sel]
            tick_values = values[sel]
            # The last-offered columns mirror offer_fast's unconditional
            # last-seen refresh (before the due check); per-tick scatter
            # keeps "latest occurrence wins" exact under duplicates.
            self.last_offered[tick_rows] = tick_values
            self.has_offered[tick_rows] = True
            due = tick_steps >= self.next_due[tick_rows]
            not_due = int(len(sel) - due.sum())
            result.applied += not_due
            if not due.all():
                d = np.flatnonzero(due)
                tick_rows = tick_rows[d]
                tick_steps = tick_steps[d]
                tick_values = tick_values[d]
            if len(tick_rows) == 0:
                continue
            tick = self._observe_tick(tick_rows, tick_values, tick_steps)
            (ok_rows, ok_steps, ok_values, iv_new, flags, beta,
             n_rejected) = tick
            result.rejected += n_rejected
            result.applied += len(ok_rows)
            result.consumed += len(ok_rows)
            if len(ok_rows) == 0:
                continue
            # Schedule advance (no triggers on engine rows by
            # construction, so the gate is just max(1, interval)).
            self.next_due[ok_rows] = ok_steps + np.maximum(iv_new, 1)
            self.samples_taken[ok_rows] += 1
            intervals.append(iv_new)
            viol = (flags & 4) != 0
            if viol.any():
                viol_r.append(ok_rows[viol])
                viol_s.append(ok_steps[viol])
                viol_v.append(ok_values[viol])
            adapted = (flags & 3) != 0
            if adapted.any():
                adapt_r.append(ok_rows[adapted])
                adapt_s.append(ok_steps[adapted])
                adapt_i.append(iv_new[adapted])
                adapt_f.append(flags[adapted])
                adapt_b.append(beta[adapted])

        if intervals:
            result.consumed_intervals = (intervals[0] if len(intervals) == 1
                                         else np.concatenate(intervals))
        if viol_r:
            result.viol_rows = np.concatenate(viol_r)
            result.viol_steps = np.concatenate(viol_s)
            result.viol_values = np.concatenate(viol_v)
        if adapt_r:
            result.adapt_rows = np.concatenate(adapt_r)
            result.adapt_steps = np.concatenate(adapt_s)
            result.adapt_intervals = np.concatenate(adapt_i)
            result.adapt_flags = np.concatenate(adapt_f)
            result.adapt_betas = np.concatenate(adapt_b)
        return result

    def _observe_tick(self, rows: np.ndarray, values: np.ndarray,
                      steps: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                                  np.ndarray, np.ndarray,
                                                  np.ndarray, np.ndarray,
                                                  int]:
        """Advance unique ``rows`` by one offer each (all due and active).

        Returns ``(rows, steps, raw_values, new_intervals, flags, beta,
        rejected)`` for the accepted subset. Matches the scalar error
        contract: a non-increasing step or non-finite delta rejects only
        that row's offer, after the observation counter bump, leaving all
        other state untouched.
        """
        v = self.sign[rows] * values
        viol = v > self.threshold[rows]
        self.observations[rows] += 1

        has = self.has_last[rows]
        dt = steps - self.last_time[rows]
        with np.errstate(all="ignore"):
            x = (v - self.last_value[rows]) / dt.astype(np.float64)
            bad = has & ((dt <= 0) | ~np.isfinite(x))
            if bad.any():
                ok = np.flatnonzero(~bad)
                rejected = int(bad.sum())
                rows = rows[ok]
                steps = steps[ok]
                values = values[ok]
                v = v[ok]
                viol = viol[ok]
                has = has[ok]
                dt = dt[ok]
                x = x[ok]
            else:
                rejected = 0
            if len(rows) == 0:
                return (rows, steps, values, _EMPTY_I8, _EMPTY_I8,
                        _EMPTY_F8, rejected)

            # Welford update with restart (OnlineStatistics.update).
            if has.any():
                ur = rows[has]
                ux = x[has]
                n_acc = self.stat_n[ur] + 1
                self.total_count[ur] += 1
                prev_mean = self.mean[ur]
                mean_acc = prev_mean + (ux - prev_mean) / n_acc
                var_acc = ((n_acc - 1) * self.var[ur]
                           + (ux - mean_acc) * (ux - prev_mean)) / n_acc
                restart = n_acc > self.restart_limit[ur]
                if restart.any():
                    rr = ur[restart]
                    self.stale_mean[rr] = mean_acc[restart]
                    self.stale_var[rr] = var_acc[restart]
                    self.stale_count[rr] = n_acc[restart]
                    self.has_stale[rr] = True
                    self.restarts[rr] += 1
                    n_acc = np.where(restart, 0, n_acc)
                    mean_acc = np.where(restart, 0.0, mean_acc)
                    var_acc = np.where(restart, 0.0, var_acc)
                self.stat_n[ur] = n_acc
                self.mean[ur] = mean_acc
                self.var[ur] = var_acc
            self.last_value[rows] = v
            self.last_time[rows] = steps
            self.has_last[rows] = True

            # Stale serving (OnlineStatistics mean/variance/effective_count).
            n_cur = self.stat_n[rows]
            serving = self.has_stale[rows] & (n_cur < self.min_fresh[rows])
            eff = np.where(serving, self.stale_count[rows], n_cur)
            mean_est = np.where(serving, self.stale_mean[rows],
                                self.mean[rows])
            var_est = np.where(serving, self.stale_var[rows],
                               np.maximum(self.var[rows], 0.0))

            interval = self.interval[rows]
            beta = np.ones(len(rows), dtype=np.float64)
            trusted = eff >= self.min_samples[rows]
            if trusted.any():
                ti = np.flatnonzero(trusted)
                beta[ti] = self._kernel(
                    v[ti], self.threshold[rows[ti]], mean_est[ti],
                    var_est[ti], interval[ti], self.use_cheb[rows[ti]])

            # AIMD interval adaptation.
            err = self.err[rows]
            one_minus_slack = self.one_minus_slack[rows]
            max_interval = self.max_interval[rows]
            flags = np.where(viol, 4, 0).astype(np.int64)
            zero_err = err <= 0.0
            reset_m = ~zero_err & (beta > err)
            grow_zone = (~zero_err & ~reset_m
                         & (beta <= one_minus_slack * err))
            to_one = zero_err | reset_m
            ne1 = interval != 1
            flags = np.where(to_one & ne1, flags | 2, flags)
            counted_reset = reset_m & ne1
            if counted_reset.any():
                self.reset_events[rows[counted_reset]] += 1
            streak = np.where(grow_zone, self.streak[rows] + 1, 0)
            fired = grow_zone & (streak >= self.patience[rows])
            streak = np.where(fired, 0, streak)
            grew = fired & (interval < max_interval)
            iv_new = np.where(to_one, 1, interval)
            iv_new = np.where(grew, interval + 1, iv_new)
            flags = np.where(grew, flags | 1, flags)
            if grew.any():
                self.grow_events[rows[grew]] += 1

            # Coordination statistics accumulation.
            can_grow = iv_new < max_interval
            if can_grow.any():
                gr = iv_new[can_grow]
                self.coord_sum_r[rows[can_grow]] += 1.0 / gr - 1.0 / (gr
                                                                      + 1.0)
            log_arg = np.maximum(beta / one_minus_slack, _MIN_ERROR_NEEDED)
        # math.log element-wise: numpy's log kernel is not guaranteed
        # bit-identical to libm's, and coord_sum_log_e is fingerprinted.
        # map() over a pre-converted list keeps the per-element call in C.
        args_list = log_arg.tolist()
        logs = np.fromiter(map(math.log, args_list),
                           dtype=np.float64, count=len(args_list))
        self.coord_sum_log_e[rows] += logs
        self.coord_n[rows] += 1

        self.interval[rows] = iv_new
        self.streak[rows] = streak
        self.last_beta[rows] = beta
        self.last_flags[rows] = flags

        metrics = _adaptation._SAMPLER_METRICS
        if metrics.enabled:
            metrics.observations += len(rows)
            if flags.any():
                metrics.grow_events += int(((flags & 1) != 0).sum())
                metrics.reset_events += int(((flags & 2) != 0).sum())
                metrics.violations += int(((flags & 4) != 0).sum())
        return rows, steps, values, iv_new, flags, beta, rejected

    @staticmethod
    def _kernel(v: np.ndarray, threshold: np.ndarray, mean_est: np.ndarray,
                var_est: np.ndarray, interval: np.ndarray,
                use_cheb: np.ndarray) -> np.ndarray:
        """Vectorised misdetection kernels (bit-equal to the fused pair).

        Element-wise the same operation sequence as
        ``misdetection_bound_fused`` / ``gaussian_misdetection_estimate_fused``
        — including the deliberate ``1 - (1 - x)`` double rounding through
        the survive product (``survive`` starts at exactly 1.0, and
        ``1.0 * y == y`` in IEEE, so the unrolled interval-1 case needs no
        special branch).
        """
        beta = np.empty(len(v), dtype=np.float64)
        std_est = np.sqrt(var_est)
        gap0 = threshold - v
        zero_std = std_est == 0.0
        if zero_std.any():
            zi = np.flatnonzero(zero_std)
            worst = np.where(mean_est[zi] >= 0.0, interval[zi], 1)
            beta[zi] = np.where(gap0[zi] - worst * mean_est[zi] > 0.0,
                                0.0, 1.0)
        erfc_ = math.erfc
        for cheb in (True, False):
            mask = ~zero_std & (use_cheb == cheb)
            if not mask.any():
                continue
            mi = np.flatnonzero(mask)
            g0 = gap0[mi]
            me = mean_est[mi]
            sd = std_est[mi]
            iv = interval[mi]
            survive = np.ones(len(mi), dtype=np.float64)
            b = np.empty(len(mi), dtype=np.float64)
            done = np.zeros(len(mi), dtype=bool)
            for i in range(1, int(iv.max()) + 1):
                alive = ~done & (iv >= i)
                if not alive.any():
                    break
                gap = g0 - i * me
                if cheb:
                    hit = alive & (gap <= 0.0)
                    if hit.any():
                        b[hit] = 1.0
                        done[hit] = True
                    rem = alive & ~hit
                    if rem.any():
                        k = gap[rem] / (i * sd[rem])
                        survive[rem] = survive[rem] * (
                            1.0 - 1.0 / (1.0 + k * k))
                else:
                    ai = np.flatnonzero(alive)
                    arg = (gap[ai] / (i * sd[ai]) / _SQRT2)
                    # math.erfc element-wise: same libm call as the scalar
                    # kernel, so the survive product stays bit-identical.
                    p = 0.5 * np.fromiter(
                        map(erfc_, arg.tolist()),
                        dtype=np.float64, count=len(ai))
                    hit = p >= 1.0
                    if hit.any():
                        b[ai[hit]] = 1.0
                        done[ai[hit]] = True
                    rem = ai[~hit]
                    if len(rem):
                        survive[rem] = survive[rem] * (1.0 - p[~hit])
            left = ~done
            b[left] = 1.0 - survive[left]
            beta[mi] = b
        return beta
