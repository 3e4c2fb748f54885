"""One holoseq CLI invocation in a fresh interpreter, timed from its spawn.

Usage (from run.py): python3 perfbench/child.py '<json spec>'

The spec names the CLI argv, the mode ("setup" stops at the first planner
call, "pass" runs the whole invocation), whether to trace, the pass id, the
parent's CLOCK_MONOTONIC reading just before the spawn, and where to write
the result JSON and, when tracing, the spans (one JSON object per line).
BLAS thread variables are set by the parent before this interpreter starts.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import resource
import sys
import time
import traceback


class _SetupDone(Exception):
    """Raised at the first planner call of a setup-only invocation."""


def peak_rss_mb() -> float:
    """Peak resident memory of this interpreter.

    VmHWM belongs to the process image, so it starts afresh at exec; the
    getrusage maximum would also count the forked parent's pages.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_threads() -> int:
    """Thread count of numpy's bundled OpenBLAS, or -1 if it cannot be asked."""
    import numpy

    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "lib*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return -1


def main() -> int:
    spec = json.loads(sys.argv[1])
    import holoseq.cli
    import holoseq.planner

    tracer = None
    if spec["trace"]:
        from tracing import CLI_SPAN, Tracer

        tracer = Tracer(spec["pass_id"])
        tracer.install()

    marks: dict[str, float] = {}
    plan_task = holoseq.planner.plan_task

    def first_plan(*args, **kwargs):
        if "setup_end" not in marks:
            marks["setup_end"] = time.monotonic()
            if spec["mode"] == "setup":
                raise _SetupDone
        return plan_task(*args, **kwargs)

    holoseq.planner.plan_task = first_plan
    cli_main = holoseq.cli.main if tracer is None else tracer.wrap(CLI_SPAN, holoseq.cli.main)

    result: dict = {}
    try:
        result["exit_code"] = cli_main(spec["argv"])
    except _SetupDone:
        result["exit_code"] = 0
    except Exception:
        result["exit_code"] = None
        result["error"] = traceback.format_exc()
    end = time.monotonic()

    if "setup_end" in marks:
        result["setup_s"] = marks["setup_end"] - spec["spawned"]
        result["run_s"] = end - marks["setup_end"]
    result["peak_rss_mb"] = peak_rss_mb()
    result["blas_threads"] = blas_threads()
    if tracer is not None:
        with open(spec["spans"], "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
