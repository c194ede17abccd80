"""Statistics and per-layer metrics computed from the tracer's spans.

A layer's `calls` and `busy_s` count only its outermost spans: a call from a
layer into itself (bessel_zero -> bessel_j, count_nodal_domains ->
nodal_domains) is part of the outer call.  Busy time adds up across the
sweep's pool threads, so it can exceed wall time.  A metric of a layer that a
workload does not run reads 0.
"""

from __future__ import annotations

import math

_COUNT, _S, _RATIO = "count", "s", "ratio"
LAYER_METRICS = {
    "specfun.calls": _COUNT, "specfun.busy_s": _S,
    "discretize.calls": _COUNT, "discretize.busy_s": _S,
    "discretize.unknowns": _COUNT, "discretize.nnz": _COUNT,
    "eigensolve.calls": _COUNT, "eigensolve.busy_s": _S,
    "eigensolve.call_s.p50": _S, "eigensolve.call_s.tail": _S,
    "eigensolve.call_s.tail_pct": "%", "eigensolve.call_s.count": _COUNT,
    "eigensolve.eigsh_calls": _COUNT, "eigensolve.eigs_calls": _COUNT,
    "eigensolve.dense_calls": _COUNT,
    "eigensolve.lu_solves": _COUNT, "eigensolve.lu_solve_s": _S,
    "eigensolve.useful_ratio": _RATIO, "eigensolve.residual_max": "norm",
    "eigensolve.lu_factors": _COUNT, "eigensolve.lu_factor_s": _S,
    "eigensolve.lu_fill": _RATIO,
    "spectra.sector_solves": _COUNT, "spectra.sweep_s": _S,
    "spectra.sweep_concurrency": _RATIO,
    "spectra.refine_s": _S, "spectra.refine_solves": _COUNT,
    "spectra.repeat_solves": _COUNT, "spectra.crossing_useful_ratio": _RATIO,
    "spectra.nodal_calls": _COUNT, "spectra.nodal_s": _S,
    "asymptotics.busy_s": _S,
    "capacity.calls": _COUNT, "capacity.busy_s": _S, "capacity.lu_factor_s": _S,
    "capacity.lu_fill": _RATIO, "capacity.unknowns": _COUNT, "capacity.residual_max": "norm",
    "trace.overhead_s": _S,
}

SWEEPS = ("spectra.sweep", "spectra.sweep_quarter")
NODAL = ("spectra.count_nodal_domains", "spectra.nodal_domains",
         "spectra.sector_field", "spectra.recombine_full_domain")


def tail_percentile(samples) -> tuple[int, float] | None:
    """The highest whole percentile (nearest rank) with at least ten samples
    above it, and its value; None with ten samples or fewer."""
    xs = sorted(samples)
    n = len(xs)
    for pct in range(99, 0, -1):
        rank = math.ceil(pct * n / 100)
        if n - rank >= 10:
            return pct, xs[rank - 1]
    return None


def percentile(samples, pct: int) -> float:
    xs = sorted(samples)
    return xs[max(1, math.ceil(pct * len(xs) / 100)) - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its spans (objects with
    id, name, parent, start, end and attrs); `eigensolve.call_s.*` and
    `trace.overhead_s` are filled in across passes by the caller."""
    by_id = {s.id: s for s in spans}

    def ancestors(s):
        while s.parent is not None and s.parent in by_id:
            s = by_id[s.parent]
            yield s

    def layer(s) -> str:
        return s.name.split(".")[0]

    def outermost(name_of_layer: str):
        return [s for s in spans if layer(s) == name_of_layer
                and not (s.parent in by_id and layer(by_id[s.parent]) == name_of_layer)]

    def under(s, names) -> bool:
        return any(a.name in names for a in ancestors(s))

    def named(*names):
        return [s for s in spans if s.name in names]

    def dur(ss) -> float:
        return sum(s.duration for s in ss)

    out: dict[str, float] = {}
    for name in ("specfun", "discretize", "eigensolve", "asymptotics", "capacity"):
        out[f"{name}.calls"] = len(outermost(name))
        out[f"{name}.busy_s"] = dur(outermost(name))

    assembles = named("discretize.assemble")
    out["discretize.unknowns"] = sum(s.attrs.get("unknowns", 0) for s in assembles)
    out["discretize.nnz"] = sum(s.attrs.get("nnz", 0) for s in assembles)

    solves = named("eigensolve.lowest_eigenpairs")
    out["eigensolve.eigsh_calls"] = len(named("scipy.eigsh"))
    out["eigensolve.eigs_calls"] = len(named("scipy.eigs"))
    out["eigensolve.dense_calls"] = len(named("scipy.eig"))
    out["eigensolve.residual_max"] = max((s.attrs.get("residual_max", 0.0) for s in solves),
                                         default=0.0)

    factors = named("lu.factor")
    in_capacity = [any(layer(a) == "capacity" for a in ancestors(s)) for s in factors]
    cap_factors = [s for s, cap in zip(factors, in_capacity) if cap]
    eig_factors = [s for s, cap in zip(factors, in_capacity) if not cap]
    out["eigensolve.lu_factors"] = len(eig_factors)
    out["eigensolve.lu_factor_s"] = dur(eig_factors)
    out["eigensolve.lu_fill"] = _ratio(sum(s.attrs.get("nnz_lu", 0) for s in eig_factors),
                                       sum(s.attrs.get("nnz", 0) for s in eig_factors))
    out["eigensolve.lu_solves"] = sum(s.attrs.get("solves", 0) for s in eig_factors)
    out["eigensolve.lu_solve_s"] = sum(s.attrs.get("solve_s", 0.0) for s in eig_factors)

    sectors = named("spectra.solve_sector")
    out["eigensolve.useful_ratio"] = _ratio(sum(s.attrs.get("kept", 0) for s in sectors),
                                            sum(s.attrs.get("computed", 0) for s in sectors))
    out["spectra.sector_solves"] = len(sectors)
    sweeps = [s for s in named(*SWEEPS) if not under(s, SWEEPS)]
    out["spectra.sweep_s"] = dur(sweeps)
    out["spectra.sweep_concurrency"] = _ratio(
        dur([s for s in sectors if under(s, SWEEPS)]), out["spectra.sweep_s"])
    detects = named("spectra.detect_crossings")
    out["spectra.refine_s"] = dur(detects)
    out["spectra.refine_solves"] = sum(1 for s in sectors if under(s, ("spectra.detect_crossings",)))
    seen: set[str] = set()
    repeats = 0
    for s in sorted(sectors, key=lambda s: s.start):
        key = s.attrs.get("key")
        repeats += key in seen
        seen.add(key)
    out["spectra.repeat_solves"] = repeats
    out["spectra.crossing_useful_ratio"] = _ratio(sum(s.attrs.get("kept", 0) for s in detects),
                                                  sum(s.attrs.get("brackets", 0) for s in detects))
    nodal = [s for s in named(*NODAL) if not under(s, NODAL)]
    out["spectra.nodal_calls"] = len(nodal)
    out["spectra.nodal_s"] = dur(nodal)

    # one capacity call is one potential solve (additivity_ratio makes three)
    out["capacity.calls"] = len(named("capacity.capacitary_potential"))
    out["capacity.lu_factor_s"] = dur(cap_factors)
    out["capacity.lu_fill"] = _ratio(sum(s.attrs.get("nnz_lu", 0) for s in cap_factors),
                                     sum(s.attrs.get("nnz", 0) for s in cap_factors))
    out["capacity.unknowns"] = sum(s.attrs.get("n", 0) for s in cap_factors)
    out["capacity.residual_max"] = max(
        (s.attrs.get("residual", 0.0) for s in named("capacity.capacitary_potential")),
        default=0.0)
    return out
