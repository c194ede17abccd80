"""crackspec benchmark: one workload, measured for a fixed time, answers checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from `src`,
nothing is installed).  Each pass is a fresh process (`child.py`) with a
fresh, private Bessel-zero cache directory, so every pass pays the same cold
set-up.  Passes repeat until S seconds have gone (at least MIN_PASSES).

--trace 0 prints the end-to-end metrics, each the median over the passes:
    setup_s      fresh process to ready: imports, choose_r1, Bessel zeros
    wall_s       ready to the last checked answer
    cpu_s        user + system CPU time of that same work, all threads
    peak_rss_mb  peak resident memory of the pass
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics of the traced ones (medians), plus trace.overhead_s, the traced
minus the untraced median wall_s.  Spans of the traced passes are written to
.perfbench/trace/.

Every answer check and library call counts as an attempted operation; a
failed one makes `correct` false and the exit code 1.  The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import LAYER_METRICS, percentile, tail_percentile  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_PASSES = 3          # untraced passes with --trace 0
MIN_TRACED = 2          # passes of each kind with --trace 1
DEADLINE_S = 170.0      # the whole run, children included, ends before this
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def _run_pass(args, index: int, traced: bool, work: Path, deadline: float) -> dict:
    cache = work / f"cache-{index}"
    cache.mkdir()
    env = dict(os.environ)
    env["CRACKSPEC_CACHE_DIR"] = str(cache)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", "1" if traced else "0"]
    if traced:
        trace_dir = ROOT / ".perfbench" / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(trace_dir / f"{args.workload}-{index}.jsonl")]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass {index} did not finish before the deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"pass {index} exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"pass {index} printed no result:\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - spawned
    result["traced"] = traced
    return result


def _measure(args, work: Path) -> list[dict]:
    start = time.monotonic()
    deadline = start + DEADLINE_S
    passes: list[dict] = []

    def enough() -> bool:
        if time.monotonic() - start < args.seconds:
            return False
        if not args.trace:
            return len(passes) >= MIN_PASSES
        traced = sum(p["traced"] for p in passes)
        return min(traced, len(passes) - traced) >= MIN_TRACED

    while not enough():
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(_run_pass(args, len(passes), traced, work, deadline))
    return passes


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _summarize(args, passes: list[dict]) -> dict:
    plain = [p for p in passes if not p["traced"]]
    if not args.trace:
        return {name: _metric(statistics.median(p[name] for p in plain), unit)
                for name, unit in E2E_UNITS.items()}
    traced = [p for p in passes if p["traced"]]
    out = {name: statistics.median(p["layers"][name] for p in traced)
           for name in traced[0]["layers"]}
    calls = [x for p in traced for x in p["eigensolve_call_s"]]
    tail = tail_percentile(calls)
    out["eigensolve.call_s.p50"] = percentile(calls, 50) if calls else 0.0
    out["eigensolve.call_s.tail"] = tail[1] if tail else 0.0
    out["eigensolve.call_s.tail_pct"] = tail[0] if tail else 0
    out["eigensolve.call_s.count"] = len(calls)
    out["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                               - statistics.median(p["wall_s"] for p in plain))
    return {name: _metric(out[name], unit) for name, unit in LAYER_METRICS.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "crackspec" / "__init__.py").is_file():
        print(f"error: no crackspec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.trace:
        for stale in (ROOT / ".perfbench" / "trace").glob(f"{args.workload}-*.jsonl"):
            stale.unlink()
    work = ROOT / ".perfbench" / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        passes = _measure(args, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for failure in p["failures"]:
            print(f"FAILED {failure}", file=sys.stderr)
    metrics = _summarize(args, passes)

    grid = WORKLOADS[args.workload].grid
    print("env " + json.dumps({**passes[0]["env"], "workload": args.workload,
                               "seed": args.seed, "grid": grid, "passes": len(passes)}))
    print("answers " + json.dumps(passes[0]["answers"]))
    print("passes " + json.dumps({name: [round(p[name], 4) for p in passes if not p["traced"]]
                                  for name in E2E_UNITS}))
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':34s} {failed / max(attempted, 1):.6g} ratio "
          f"({failed} of {attempted} operations)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
