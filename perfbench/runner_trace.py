"""Study-runner plugin that traces the runner process it is imported into.

The served workload's traced half starts its server with
``imports=("runner_trace",)``, so every ``python -m
repro.server.runner`` subprocess imports this module before it builds
the study.  In a runner, and only when ``PERFBENCH_TRACE_DIR`` is set,
it installs a :class:`tracer.Tracer` and, at exit, writes the runner's
per-layer summary to ``<PERFBENCH_TRACE_DIR>/<study id>.json``.  In any
other process (the server imports plugins too) it does nothing.
"""

import atexit
import json
import os
import sys
import time

from tracer import Tracer, covered_time, summarize


def _study_id() -> str:
    argv = sys.argv
    return argv[argv.index("--study-id") + 1] if "--study-id" in argv else str(os.getpid())


def _install(trace_dir: str) -> None:
    tracer = Tracer().install()
    tracer.job = _study_id()
    started = time.perf_counter()

    def dump() -> None:
        layers = summarize(tracer.spans)
        for key, value in tracer.counters.items():
            layers[key] = {"self_s": 0.0, "calls": value}
        data = {"study_id": tracer.job, "wall": time.perf_counter() - started,
                "covered": covered_time(tracer.spans), "layers": layers, "unbound": tracer.unbound}
        path = os.path.join(trace_dir, f"{tracer.job}.json")
        with open(path + ".tmp", "w") as fh:
            json.dump(data, fh)
        os.replace(path + ".tmp", path)

    atexit.register(dump)


_main = getattr(sys.modules.get("__main__"), "__spec__", None)
if os.environ.get("PERFBENCH_TRACE_DIR") and _main is not None and _main.name == "repro.server.runner":
    _install(os.environ["PERFBENCH_TRACE_DIR"])
