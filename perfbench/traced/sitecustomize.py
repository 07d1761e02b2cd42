"""Installs the layer wrappers in every traced Python process.

Traced runs put this directory on ``PYTHONPATH``; cluster workers inherit
it, so ``python -m repro.cluster.worker`` is traced without any change
to the worker. A no-op unless ``PERFBENCH_TRACE_DIR`` is set.
"""

import os
import sys

if os.environ.get("PERFBENCH_TRACE_DIR"):
    sys.path.append(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    import layers

    layers.activate_from_env()
