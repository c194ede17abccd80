"""Tests of the benchmark's own code: the percentile rule, the span metrics,
the bracket counter and the seeded grids.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from metrics import layer_metrics, tail_percentile  # noqa: E402
from tracer import Span  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("n, pct", [(50, 80), (100, 90), (20, 50), (11, 9), (1000, 99)])
def test_tail_percentile_leaves_ten_samples_beyond(n, pct):
    samples = list(range(n, 0, -1))
    got_pct, value = tail_percentile(samples)
    assert got_pct == pct
    assert sum(x > value for x in samples) >= 10
    # one percentile higher would leave fewer than ten
    if pct < 99:
        assert n - math.ceil((pct + 1) * n / 100) < 10


def test_tail_percentile_needs_more_than_ten_samples():
    assert tail_percentile(range(10)) is None


def _span(i, name, parent, start, end, **attrs):
    return Span(i, name, parent, start, end, attrs)


def test_sweep_concurrency_and_refinement_counts():
    spans = [
        _span(0, "spectra.sweep", None, 0.0, 2.0),
        # two pool workers, each busy for the whole sweep
        _span(1, "spectra.solve_sector", 0, 0.0, 2.0, key="ell=0|60|3", kept=6, computed=6),
        _span(2, "spectra.solve_sector", 0, 0.0, 2.0, key="ell=1|60|3", kept=6, computed=14),
        _span(3, "spectra.detect_crossings", None, 2.0, 3.0, kept=1, brackets=4),
        _span(4, "spectra.solve_sector", 3, 2.0, 2.5, key="ell=0|60|3", kept=6, computed=6),
        _span(5, "eigensolve.lowest_eigenpairs", 4, 2.1, 2.4, computed=6, residual_max=1e-9),
        _span(6, "lu.factor", 5, 2.1, 2.2, n=10, nnz=40, nnz_lu=120, solves=7, solve_s=0.05),
    ]
    m = layer_metrics(spans)
    assert m["spectra.sweep_s"] == pytest.approx(2.0)
    assert m["spectra.sweep_concurrency"] == pytest.approx(2.0)
    assert m["spectra.refine_s"] == pytest.approx(1.0)
    assert m["spectra.refine_solves"] == 1
    assert m["spectra.repeat_solves"] == 1
    assert m["spectra.crossing_useful_ratio"] == pytest.approx(0.25)
    assert m["eigensolve.useful_ratio"] == pytest.approx(18 / 26)
    assert m["eigensolve.lu_fill"] == pytest.approx(3.0)
    assert m["eigensolve.lu_solves"] == 7
    assert m["capacity.lu_factor_s"] == 0.0


def test_nested_calls_of_one_layer_count_once():
    spans = [
        _span(0, "specfun.choose_r1", None, 0.0, 1.0),
        _span(1, "specfun.bessel_zero", 0, 0.1, 0.5),
        _span(2, "asymptotics.model", None, 1.0, 2.0),
        _span(3, "specfun.bessel_j", 2, 1.1, 1.2),
    ]
    m = layer_metrics(spans)
    assert m["specfun.calls"] == 2
    assert m["specfun.busy_s"] == pytest.approx(1.1)
    assert m["asymptotics.busy_s"] == pytest.approx(1.0)


def test_bracket_counter_on_a_synthetic_curve():
    eps = np.linspace(0.0, 1.0, 11)
    falling = (10.0 - 4.0 * eps)[:, None]          # crosses 8 once, at eps = 0.5
    flat = np.column_stack([np.full_like(eps, 8.1), np.full_like(eps, 20.0)])
    assert workloads.count_brackets({"a": falling, "b": flat}) == 1
    flat_nan = flat.copy()
    flat_nan[5, 0] = np.nan                         # the bracket's upper end is missing
    assert workloads.count_brackets({"a": falling, "b": flat_nan}) == 0
    on_point = np.column_stack([np.full_like(eps, 8.0), np.full_like(eps, 20.0)])
    # a crossing exactly on a sweep point is skipped, as detect_crossings does
    assert workloads.count_brackets({"a": falling, "b": on_point}) == 0
    # curves of one sector are never compared
    assert workloads.count_brackets({"a": np.column_stack([falling[:, 0], flat[:, 0]])}) == 0


@pytest.mark.parametrize("frac", [0.0, 0.37, 0.81, 0.999])
def test_seeded_grids_keep_the_work_fixed(frac):
    def snapped(values, dtheta):
        return {round(v / dtheta) for v in values}

    openings = workloads.crossing_openings(frac)
    assert openings == sorted(openings) and 0.02 <= openings[0] and openings[-1] == math.pi / 3
    assert len(snapped(openings, (2 * math.pi / 3) / workloads.M_CROSS)) == workloads.N_OPEN + 1
    dq = (math.pi / 2) / workloads.M_QUARTER
    assert len(snapped(workloads.tail_openings(frac), dq)) == len(workloads.TAIL_DELTAS)
    gaps = workloads.gap_openings(frac)
    assert len(snapped(gaps, dq)) == len(gaps)
    assert max(snapped(gaps, dq)) < workloads.M_QUARTER    # never the open endpoint
    ladder = workloads.ladder_deltas(frac)
    assert len(snapped(ladder, 2 * math.pi / workloads.M_CAP)) == len(ladder)


def test_tracer_wraps_names_where_they_are_looked_up():
    script = (
        "import json\n"
        "import crackspec\n"
        "from tracer import Tracer, install\n"
        "from metrics import layer_metrics\n"
        "t = Tracer(); install(t)\n"
        "spec = crackspec.build_cracked_disk(3, 0.0, 0.4356, 1.0)\n"
        "crackspec.sweep(spec, [0.2, 0.6], 12, 2)\n"
        "print(json.dumps(layer_metrics(t.spans)))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(HERE.parent / "src"), str(HERE)]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    m = json.loads(proc.stdout.strip().splitlines()[-1])
    assert m["spectra.sector_solves"] == 4
    assert m["discretize.calls"] == 4
    assert m["eigensolve.calls"] == 4
    assert m["eigensolve.dense_calls"] == 4
    assert m["spectra.sweep_concurrency"] > 0


def test_benchmark_json_lists_what_run_prints():
    import run
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
