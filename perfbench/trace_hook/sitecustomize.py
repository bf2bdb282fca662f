"""Start-up hook of the traced benchmark run.

``perfbench/run.py`` puts this directory on ``PYTHONPATH`` only for traced
iterations, so every interpreter it starts (the ``repro`` CLI, ``spawn``
pool children, the fabric coordinator and workers) imports this module at
start-up and installs the span recorder.  Untraced iterations never see it.
"""

import os

if os.environ.get("PERFBENCH_TRACE_DIR"):
    import perfbench_trace

    perfbench_trace.install(os.environ["PERFBENCH_TRACE_DIR"])
