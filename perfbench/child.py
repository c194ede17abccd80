"""One pass of a workload in a fresh process: set-up, the workload, its checks.

Run by `run.py` with `CRACKSPEC_CACHE_DIR` pointing at a fresh directory and
`src` on `PYTHONPATH`.  Prints one JSON line: the set-up end (on the
monotonic clock, which the parent shares), wall and CPU time of the work
after set-up, peak resident memory, operation counts, the certified answers,
the environment and, when traced, the per-layer metrics of this pass.

    python3 perfbench/child.py --workload NAME --seed N --trace 0|1 --spans PATH
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

import crackspec
import numpy as np
import scipy

from workloads import WORKLOADS, Context, seed_fraction


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _environment() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spans")
    args = ap.parse_args()

    tracer = None
    if args.trace:
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)
    workload = WORKLOADS[args.workload]
    setup = workload.setup(crackspec)
    ready = time.monotonic()

    ctx = Context()
    answers = None
    t0, c0 = time.perf_counter(), _cpu_s()
    try:
        answers = workload.run(crackspec, setup, seed_fraction(args.seed), ctx)
    except Exception:  # a failed library call ends the pass and counts as failed
        ctx.failed += 1
        ctx.failures.append(traceback.format_exc())
    wall, cpu = time.perf_counter() - t0, _cpu_s() - c0
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    result = {
        "ready": ready, "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_mb,
        "attempted": ctx.attempted, "failed": ctx.failed, "failures": ctx.failures,
        "answers": answers, "env": _environment(),
    }
    if tracer is not None:
        from metrics import layer_metrics
        result["layers"] = layer_metrics(tracer.spans)
        result["eigensolve_call_s"] = [s.duration for s in tracer.spans
                                       if s.name == "eigensolve.lowest_eigenpairs"]
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
