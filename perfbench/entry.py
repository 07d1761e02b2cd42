"""Benchmark-owned entry point for traced servers and for the sweep.

``python3 perfbench/entry.py runtime ARGS`` installs the layer wrappers
(when ``PERFBENCH_TRACE_DIR`` is set) and then runs the server's own
``main``; ``cluster`` does the same for ``repro.cluster``. ``sweep OUT
ARGS`` runs ``python -m repro.experiments`` with ``ARGS`` and writes the
sweep's own statistics (wall time, per-cell seconds) plus any span
statistics to the JSON file ``OUT``.
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import layers  # noqa: E402


def _sweep(out: str, argv: list[str]) -> int:
    from repro.experiments import __main__ as cli
    from repro.experiments import figures

    tracer = None
    if "--trace" in argv:
        argv.remove("--trace")
        tracer = layers.Tracer()
        layers.install_sweep(tracer)
    captured: list[object] = []
    run_sweep = figures.run_sweep

    def capturing(*args, **kwargs):
        began = time.perf_counter()
        cells, stats = run_sweep(*args, **kwargs)
        captured.append((stats, began))
        return cells, stats
    figures.run_sweep = capturing
    code = cli.main(argv)
    stats, began = captured[-1]
    payload = {"wall_s": stats.wall_seconds,
               "cell_s": list(stats.cell_seconds),
               "sweep_began": began,
               "spans": tracer.take()["spans"] if tracer else None}
    pathlib.Path(out).write_text(json.dumps(payload), encoding="utf-8")
    return code


def main() -> int:
    kind, argv = sys.argv[1], sys.argv[2:]
    if kind == "sweep":
        return _sweep(argv[0], argv[1:])
    layers.activate_from_env()
    if kind == "runtime":
        from repro.runtime.server import main as server_main
    else:
        from repro.cluster.__main__ import main as server_main
    return server_main(argv)


if __name__ == "__main__":
    sys.exit(main())
