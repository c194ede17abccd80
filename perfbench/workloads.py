"""The three benchmark workloads: inputs made from a seed, the calls into the
public crackspec API, and the checks on every answer.

Each workload is a `Workload` with a `setup` step (the Bessel zeros it needs,
computed cold) and a `run` step (everything after set-up).  Both receive the
imported `crackspec` package and look every entry point up on it at call
time, so the tracer's wrappers are the ones called.

The seed only shifts the opening and delta grids by a fraction of one step.
Certified answers (crossing brackets, ranks, multiplicities, lambda*,
endpoint eigenvalues, the ring capacity) do not depend on it and are compared
with the stored values below, which therefore also compare across seeds.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

R2 = 1.0
TOL = 1e-8                   # residual certificate bound of every eigensolve
REF_RTOL = 1e-6              # agreement with the stored eigenvalues below
MONOTONE_SLACK = 1e-4        # sector curves may not rise by more than this
CLOSED_FORM_RTOL = 0.005     # endpoint eigenvalues against Bessel zeros
RING_RTOL = 0.02             # ring capacity against 2*pi/log(r2/r1)

M_CROSS, K_CROSS, N_OPEN = 60, 6, 14
M_QUARTER, K_END = 120, 3
M_CAP = 180

TAIL_DELTAS = (0.30, 0.21, 0.15, 0.105, 0.075, 0.0525, 0.0375)
TAIL_SHIFT = 0.01            # below the smallest tail spacing (0.015)
GAP_OPENINGS = tuple(0.1 * (i + 1) for i in range(15))
GAP_SHIFT = 0.05             # keeps the last opening a grid step below pi/2
LADDER_DELTAS = (0.4, 0.2, 0.1, 0.05)

# Zeros j_{l,k} behind the quarter endpoints: quarter case -> (l, k) of the
# three lowest modes at the fully open endpoint.
ENDPOINT_MODES = {
    "NND": ((0, 1), (2, 1), (0, 2)),
    "DDD": ((2, 1), (4, 1), (2, 2)),
    "NDD": ((1, 1), (3, 1), (1, 2)),
    "DND": ((1, 1), (3, 1), (1, 2)),
}
QUARTER_CASES = ("NND", "DND", "DDD", "NDD")

# Stored answers on the grids above (seed 0).  Crossing brackets are angular
# grid indices of the n = 3 sector grid, dtheta = (2*pi/3)/M_CROSS.
REFERENCE = {
    "crossings-n3": {
        "events": [
            {"lo": 8, "hi": 9, "rank": 2, "mult": 3,
             "sectors": ["ell=0", "ell=1"], "lambda_star": 30.56802505},
            {"lo": 27, "hi": 28, "rank": 3, "mult": 3,
             "sectors": ["ell=0", "ell=1"], "lambda_star": 30.72029912},
        ],
        "nodal": [2, 2],
        "open_end": {
            "ell=0": [5.782278043, 30.44907552, 40.67464045, 40.67464045, 74.75559649, 95.14801205],
            "ell=1": [14.67857940, 26.36332565, 49.17691183, 57.50782278, 70.77622414, 76.78484631],
        },
    },
    "quarter-tails": {"endpoints": {
        "NND": [5.782958956, 26.37237221, 30.46571348],
        "DDD": [26.37237221, 57.57059239, 70.83257590],
        "NDD": [14.68118020, 40.70084832, 49.20818222],
        "DND": [14.68118020, 40.70084832, 49.20818222],
    }},
    "capacity-ladder": {"ring_cap": 7.513592760},
}


class Context:
    """Counts the operations a pass attempts and the ones that fail.

    An operation is a call into the library or one answer check.  A call that
    raises propagates (the pass cannot go on) and is counted by the caller.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def call(self, fn: Callable, *args, **kwargs):
        self.attempted += 1
        return fn(*args, **kwargs)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}" if detail else name)


def seed_fraction(seed: int) -> float:
    """Fraction in [0, 1) by which the seed shifts every grid."""
    return random.Random(seed).random()


def count_brackets(values: dict[str, np.ndarray]) -> int:
    """Sign-change brackets between curves of different sectors, counted with
    the rule `detect_crossings` refines: both ends finite, the lower end not
    exactly zero, and a strict sign change."""
    labels = list(values)
    total = 0
    for ia, la in enumerate(labels):
        for lb in labels[ia + 1:]:
            va, vb = values[la], values[lb]
            for ca in range(va.shape[1]):
                for cb in range(vb.shape[1]):
                    d = va[:, ca] - vb[:, cb]
                    lo, hi = d[:-1], d[1:]
                    ok = np.isfinite(lo) & np.isfinite(hi) & (lo != 0.0) & (lo * hi < 0.0)
                    total += int(ok.sum())
    return total


def _close(got, want, rtol: float = REF_RTOL) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(np.all(np.abs(got - want) <= rtol * np.abs(want)))


def _certified(residual_max: float, values) -> bool:
    return residual_max <= TOL * max(1.0, float(np.nanmax(np.abs(values))))


# ---------------------------------------------------------------------------
# crossings-n3
# ---------------------------------------------------------------------------

def _setup_r1(cs) -> dict:
    return {"r1": cs.specfun.choose_r1(R2)}


def crossing_openings(frac: float) -> list[float]:
    """N_OPEN openings two angular grid steps apart, shifted by up to one grid
    step, plus the fully open end pi/3.  Every sign-change bracket is then two
    grid steps wide (the last one two or three), so bisection costs the same
    for every seed, and the rank-3 crossing stays inside the sweep."""
    dtheta = (2 * math.pi / 3) / M_CROSS
    return [(1 + 2 * i + frac) * dtheta for i in range(N_OPEN)] + [math.pi / 3]


def run_crossings(cs, setup: dict, frac: float, ctx: Context) -> dict:
    r1 = setup["r1"]
    spec = cs.build_cracked_disk(3, 0.0, r1, R2)
    curve = ctx.call(cs.sweep, spec, crossing_openings(frac), M_CROSS, K_CROSS)
    ctx.check("sweep points", len(curve.epsilons) == N_OPEN + 1,
              f"{len(curve.epsilons)} distinct snapped openings")
    events = ctx.call(cs.detect_crossings, curve, 3)

    ref = REFERENCE["crossings-n3"]
    rank2 = [e for e in events if e.rank == 2]
    rank3 = [e for e in events if e.rank == 3]
    ctx.check("rank-2 event", bool(rank2) and abs(rank2[0].epsilon_star - 0.29) <= 0.05
              and rank2[0].total_multiplicity == 3
              and {rank2[0].sector_a.label, rank2[0].sector_b.label} == {"ell=0", "ell=1"},
              f"{[(e.epsilon_star, e.rank, e.total_multiplicity) for e in rank2]}")
    ctx.check("rank-3 event", bool(rank3) and abs(rank3[0].epsilon_star - 0.96) <= 0.07,
              f"{[e.epsilon_star for e in rank3]}")
    for label, arr in curve.values.items():
        ctx.check(f"{label} non-increasing",
                  bool((np.diff(arr, axis=0) <= MONOTONE_SLACK).all()),
                  f"largest rise {np.nanmax(np.diff(arr, axis=0)):.3g}")
    all_values = np.concatenate([v.ravel() for v in curve.values.values()])
    ctx.check("sweep certificates", _certified(curve.residual_max, all_values),
              f"residual max {curve.residual_max:.3g}")

    dtheta = (2 * math.pi / 3) / M_CROSS
    got_events = [{"lo": round(e.bracket_lo / dtheta), "hi": round(e.bracket_hi / dtheta),
                   "rank": e.rank, "mult": e.total_multiplicity,
                   "sectors": sorted([e.sector_a.label, e.sector_b.label]),
                   "lambda_star": e.lambda_star} for e in events]

    def certified_part(event: dict) -> dict:
        return {k: v for k, v in event.items() if k != "lambda_star"}

    ctx.check("events match reference",
              [certified_part(e) for e in got_events] == [certified_part(e) for e in ref["events"]]
              and _close([e["lambda_star"] for e in got_events],
                         [e["lambda_star"] for e in ref["events"]]),
              f"{got_events}")
    open_end = {label: curve.values[label][-1].tolist() for label in curve.values}
    for label, want in ref["open_end"].items():
        ctx.check(f"{label} at pi/3 matches reference", _close(open_end[label], want),
                  f"{open_end[label]}")

    nodal = []
    for e in events:
        idx = e.index_a if e.sector_a.label == "ell=0" else e.index_b
        geo = cs.build_cracked_disk(3, e.bracket_lo, r1, R2)
        problem = next(p for p, tag in cs.reduce_to_sectors(geo) if tag.label == "ell=0")
        sol = ctx.call(cs.spectra.solve_sector, problem, M_CROSS, idx + 1, TOL)
        count = ctx.call(cs.spectra.count_nodal_domains, sol.operator,
                         sol.spectrum.vectors[:, idx])
        nodal.append(count.mu)
    ctx.check("nodal counts match reference", nodal == ref["nodal"], f"{nodal}")
    return {"events": got_events, "nodal": nodal}


# ---------------------------------------------------------------------------
# quarter-tails
# ---------------------------------------------------------------------------

def _setup_quarter(cs) -> dict:
    zeros = {f"{l},{k}": cs.specfun.bessel_zero(l, k).value
             for modes in ENDPOINT_MODES.values() for l, k in modes}
    return {"r1": cs.specfun.choose_r1(R2), "zeros": zeros}


def tail_openings(frac: float) -> list[float]:
    return sorted(math.pi / 2 - (d - TAIL_SHIFT * frac) for d in TAIL_DELTAS)


def gap_openings(frac: float) -> list[float]:
    return [e + GAP_SHIFT * frac for e in GAP_OPENINGS]


def run_quarter(cs, setup: dict, frac: float, ctx: Context) -> dict:
    r1, zeros = setup["r1"], setup["zeros"]
    spec = cs.build_cracked_disk(2, 0.0, r1, R2)
    grid, by_case = ctx.call(cs.spectra.sweep_quarter, spec, QUARTER_CASES,
                             tail_openings(frac), M_QUARTER, 1, TOL)
    ctx.check("tail points", len(grid) == len(TAIL_DELTAS),
              f"{len(grid)} distinct snapped openings")
    tails = {c: v[:, 0] for c, v in by_case.items()}
    scan = ctx.call(cs.ndd_dnd_gap, spec, gap_openings(frac), M_QUARTER, TOL)
    ctx.check("gap points", len(scan.epsilons) == len(GAP_OPENINGS),
              f"{len(scan.epsilons)} distinct snapped openings")
    ctx.check("every gap negative", scan.all_negative, f"max gap {scan.gaps.max():.4g}")

    open_spec = cs.build_cracked_disk(2, math.pi / 2, r1, R2)
    ends = {p.quarter_case: ctx.call(cs.spectra.solve_sector, p, M_QUARTER, K_END, TOL)
            for p in cs.quarter_problems(open_spec)}
    ctx.check("NDD equals DND at the endpoint",
              abs(ends["NDD"].values[0] - ends["DND"].values[0]) < 1e-6,
              f"{ends['NDD'].values[0]} vs {ends['DND'].values[0]}")
    for case, sol in ends.items():
        exact = [zeros[f"{l},{k}"] ** 2 / R2 ** 2 for l, k in ENDPOINT_MODES[case]]
        ctx.check(f"{case} endpoint closed form", _close(sol.values, exact, CLOSED_FORM_RTOL),
                  f"{sol.values} vs {exact}")
        ctx.check(f"{case} endpoint certificates",
                  _certified(float(np.max(sol.residuals)), sol.values),
                  f"{sol.residuals}")
    ref = REFERENCE["quarter-tails"]["endpoints"]
    for case, want in ref.items():
        ctx.check(f"{case} endpoint matches reference", _close(ends[case].values, want),
                  f"{ends[case].values.tolist()}")

    j21sq = zeros["2,1"] ** 2 / R2 ** 2
    j11sq = zeros["1,1"] ** 2 / R2 ** 2
    ctx.check("DDD tail above its bound", bool((tails["DDD"] >= j21sq * (1 - 0.005)).all()),
              f"min {tails['DDD'].min():.5g}")
    ctx.check("NDD tail above its bound", bool((tails["NDD"] >= j11sq * (1 - 0.005)).all()),
              f"min {tails['NDD'].min():.5g}")
    for case in ("DDD", "NDD"):
        rss = ctx.call(cs.asymptotics.law_competition, grid, tails[case], ends[case].values[0])
        ctx.check(f"{case} quadratic beats log", rss["quadratic"] < rss["inverse_log"], f"{rss}")
    for case in ("NND", "DND"):
        mod = ctx.call(cs.model, case, r1, R2)
        rep = ctx.call(cs.fit_coefficient, grid, tails[case], mod,
                       lambda_limit=ends[case].values[0])
        ratios = [w.ratio for w in rep.windows]
        ctx.check(f"{case} fit trends toward 1",
                  bool(rep.toward_one) and all(0.5 <= r <= 2.0 for r in ratios), f"{ratios}")

    nodal = {}
    for case, sol in ends.items():
        nodal[case] = [ctx.call(cs.spectra.count_nodal_domains, sol.operator,
                                sol.spectrum.vectors[:, i]).mu for i in range(K_END)]
        ctx.check(f"{case} nodal counts", nodal[case] == [1, 2, 2], f"{nodal[case]}")
    return {"endpoints": {c: s.values.tolist() for c, s in ends.items()}, "nodal": nodal}


# ---------------------------------------------------------------------------
# capacity-ladder
# ---------------------------------------------------------------------------

def ladder_deltas(frac: float) -> list[float]:
    """The halving ladder, shifted by half a (geometric) step at most."""
    return [d * 0.5 ** (0.5 * frac) for d in LADDER_DELTAS]


def run_capacity(cs, setup: dict, frac: float, ctx: Context) -> dict:
    r1 = setup["r1"]
    ring = ctx.call(cs.capacitary_potential,
                    cs.CapacityProblem(r1, R2, ((0.0, 2 * math.pi),), M_CAP))[1]
    exact = 2 * math.pi / math.log(R2 / r1)
    ctx.check("ring capacity", abs(ring.cap - exact) <= RING_RTOL * exact,
              f"{ring.cap} vs {exact}")
    ctx.check("ring capacity matches reference",
              _close(ring.cap, REFERENCE["capacity-ladder"]["ring_cap"]), f"{ring.cap}")
    ladder = [ctx.call(cs.additivity_ratio, r1, R2, d, M_CAP) for d in ladder_deltas(frac)]
    for r in ladder:
        ctx.check(f"subadditive at delta={r.delta:.4g}",
                  r.cap_total <= r.cap_plus + r.cap_minus + 1e-12,
                  f"{r.cap_total} > {r.cap_plus} + {r.cap_minus}")
    ratios = [r.ratio for r in ladder]
    ctx.check("ratios increase to at most 1",
              all(b > a for a, b in zip(ratios, ratios[1:])) and ratios[-1] <= 1.0 + 1e-12,
              f"{ratios}")
    return {"ring_cap": ring.cap}


@dataclass(frozen=True)
class Workload:
    setup: Callable
    run: Callable
    grid: dict


WORKLOADS = {
    "crossings-n3": Workload(_setup_r1, run_crossings,
                             {"m": M_CROSS, "k": K_CROSS, "openings": N_OPEN + 1}),
    "quarter-tails": Workload(_setup_quarter, run_quarter,
                              {"m": M_QUARTER, "tails": len(TAIL_DELTAS),
                               "gap_openings": len(GAP_OPENINGS), "k_end": K_END}),
    "capacity-ladder": Workload(_setup_r1, run_capacity,
                                {"m": M_CAP, "ladder": len(LADDER_DELTAS)}),
}
