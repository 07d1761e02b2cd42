"""The Volley benchmark: ``python3 perfbench/run.py --workload NAME``.

Runs one workload (or ``--workload all``) against servers started through
their public CLIs, checks every output against an in-process reference,
and prints one JSON object as the last line of standard output::

    {"correct": true, "attempted": N, "failed": 0,
     "metrics": {"offers_per_s": {"value": ..., "unit": "1/s"}, ...}}

With ``--trace 0`` the metrics are the end-to-end ones (untraced reps);
with ``--trace 1`` they are the per-layer ones from a traced rep, next
to an untraced rep of the same work. A run that fails a correctness
check prints the failures, reports no numbers and exits with code 1.
``--self-test`` plants testkit faults in an in-process server and checks
that the gate catches each of them. Every run appends a record stamped
with the host, the versions and the workload regime to
``.perfbench/history.jsonl``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import pathlib
import platform
import shutil
import signal
import subprocess
import sys
import time
from typing import Any

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"


def _preflight() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"[perfbench] error: no source tree at {SRC}; run from the "
              f"root of a checkout", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SRC), str(BENCH)]


def host_stamp() -> dict[str, Any]:
    """CPU, versions and code identity for the result record."""
    import numpy

    import reference

    model = platform.processor() or "unknown"
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10,
                             check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {"cpu_model": model, "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "git_sha": sha,
            "source_sha256": reference.source_sha256()}


def regime(w: Any, seed: int) -> dict[str, Any]:
    """What the numbers depend on: sizes and the measured value regime."""
    import streams as st

    out: dict[str, Any] = {"kind": w.kind}
    if w.kind == "sweep":
        out.update(streams=w.streams, horizon=w.horizon)
        return out
    above, total = st.violating(w, seed)
    out.update(tasks=w.tasks, batch=w.batch, shards=w.shards,
               protocol=w.protocol, value_std=w.value_std,
               triggers=w.triggers, violating_share=above / total)
    if w.kind == "churn":
        out.update(rounds=w.rounds, churn_per_round=w.tasks // w.churn_frac)
    else:
        out["steps"] = w.steps
    return out


def _reference(w: Any, seed: int, digest: str) -> Any:
    import reference

    if w.kind == "sweep":
        return reference.sweep_reference(w, seed)
    if w.kind == "churn":
        return reference.churn_reference(w, seed, digest)
    return reference.ingest_reference(w, seed, digest)


def _one_rep(w: Any, seed: int, workdir: pathlib.Path, ref: Any,
             trace_dir: pathlib.Path | None = None,
             client_tracer: Any = None) -> Any:
    import drive

    if w.kind == "sweep":
        return drive.sweep_rep(w, seed, workdir, ref,
                               traced=trace_dir is not None)
    if w.kind == "churn":
        return drive.churn_rep(w, seed, workdir, ref, trace_dir,
                               client_tracer)
    return drive.ingest_rep(w, seed, workdir, ref, trace_dir,
                            client_tracer)


def _measure(w: Any, seed: int, seconds: int, trace: bool,
             workdir: pathlib.Path, ref: Any) -> list[Any]:
    """The run's reps: repeated until ``seconds`` pass, or one traced."""
    import layers

    reps: list[Any] = []
    if trace:
        reps.append(_one_rep(w, seed, workdir, ref))
        trace_dir = workdir / "spans"
        trace_dir.mkdir()
        tracer = layers.Tracer()
        layers.install_client(tracer)
        reps.append(_one_rep(w, seed, workdir, ref, trace_dir, tracer))
        return reps
    began = time.monotonic()
    while len(reps) < w.reps or time.monotonic() - began < seconds:
        reps.append(_one_rep(w, seed, workdir, ref))
    return reps


def run_workload(name: str, seed: int, seconds: int,
                 trace: bool) -> dict[str, Any]:
    """Run one workload; returns the result record.

    An exception inside the run (a server that crashed or timed out, a
    missing span dump) is recorded as a failed check and one failed
    attempt, so the run still reports, with no numbers.
    """
    import hostspeed
    import metrics
    import streams as st

    w = st.WORKLOADS[name]
    record: dict[str, Any] = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace),
        "time": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "host": host_stamp(), "regime": regime(w, seed),
        "stream_sha256": None, "reps": 0, "latency_samples": 0,
        "attempted": 1, "failed": 1, "failures": [], "metrics": {},
        "correct": False}
    workdir = STATE / "work" / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        digest = st.stream_digest(w, seed)
        record["stream_sha256"] = digest
        ref = _reference(w, seed, digest)
        # The host-speed sampler runs beside every untraced rep.
        sampler = None if trace else hostspeed.Sampler(
            workdir / "hostspeed.log")
        try:
            reps = _measure(w, seed, seconds, trace, workdir, ref)
        finally:
            if sampler is not None:
                sampler.stop()
        failures = [f for rep in reps for f in rep.failures]
        if st.stream_digest(w, seed) != digest:
            failures.append("regenerated stream differs from the first "
                            "generation (generator is not deterministic)")
        record.update(
            reps=len(reps), latency_samples=sum(len(r.latencies_s)
                                                for r in reps),
            attempted=sum(r.attempted for r in reps),
            failed=sum(r.failed for r in reps),
            failures=failures, correct=not failures)
        if failures:
            return record
        if trace:
            values = metrics.per_layer(w, reps[0], reps[1],
                                       st.violating(w, seed)[0])
            record["metrics"] = metrics.with_units(values, "per_layer")
        else:
            record["metrics"] = metrics.with_units(
                metrics.end_to_end(w, reps, sampler.factor), "end_to_end")
            record["unscaled_metrics"] = metrics.end_to_end(w, reps, None)
            record["host_speed"] = sampler.factor(-math.inf, math.inf)
            record["host_stolen"] = sampler.stolen(-math.inf, math.inf)
    except Exception as exc:  # noqa: BLE001 - reported as a failed check
        record.update(correct=False, metrics={}, failures=[
            f"run aborted: {type(exc).__name__}: {exc}"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return record


def _append_history(record: dict[str, Any]) -> None:
    STATE.mkdir(exist_ok=True)
    with open(STATE / "history.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")


def _print_record(record: dict[str, Any]) -> None:
    print(f"[perfbench] {record['workload']} seed={record['seed']} "
          f"reps={record['reps']} correct={record['correct']} "
          f"attempted={record['attempted']} failed={record['failed']}",
          flush=True)
    for failure in record["failures"]:
        print(f"[perfbench]   FAILED: {failure}", flush=True)
    for key, metric in record["metrics"].items():
        print(f"[perfbench]   {key} = {metric['value']:.6g} "
              f"{metric['unit']}", flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 perfbench/run.py",
        description="Volley benchmark: fixed-work workloads against the "
                    "runtime, the cluster and the offline sweep.")
    parser.add_argument("--workload", default="all",
                        help="workload name, or 'all' (default)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15,
                        help="keep replaying the workload (at least its "
                             "fixed rep count) until this many seconds "
                             "have been measured")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="plant testkit faults and check that the "
                             "correctness gate catches each one")
    args = parser.parse_args(argv)
    _preflight()
    # A run stopped from outside still stops the servers it started:
    # SIGTERM unwinds through each rep's cleanup.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    import streams as st

    if args.self_test:
        import selftest
        return selftest.main()
    names = (list(st.WORKLOADS) if args.workload == "all"
             else [args.workload])
    unknown = [n for n in names if n not in st.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from "
                     f"{', '.join(st.WORKLOADS)} or all")
    records = []
    for name in names:
        record = run_workload(name, args.seed, args.seconds,
                              bool(args.trace))
        _append_history(record)
        print("[perfbench] record " + json.dumps(
            {k: record[k] for k in ("workload", "host", "regime",
                                    "stream_sha256", "latency_samples")}),
            flush=True)
        _print_record(record)
        records.append(record)
    correct = all(r["correct"] for r in records)
    if len(records) == 1:
        out_metrics = records[0]["metrics"]
    else:
        out_metrics = {f"{r['workload']}/{k}": v for r in records
                       for k, v in r["metrics"].items()}
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": sum(r["failed"] for r in records),
                      "metrics": out_metrics if correct else {}}),
          flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
