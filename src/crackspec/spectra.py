"""Sector orchestration: merged spectra, epsilon sweeps, crossing detection,
nodal-domain counting and the NDD/DND gap scan.

A complex Floquet sector (0 < ell < n/2, weight 2) is one complex operator,
so `solve_sector` reports each of its eigenvalues once and the weight
carries the conjugate sector n - ell.  One runner, `_run_sweep`, solves
sector problems in bulk on a pool of up to min(4, cores) threads and returns
an `EigenvalueCurve` with k values per sector (a k above a quarter of a
sector's unknowns raises): sweeps, the full spectrum at one opening and each
bisection step of crossing refinement all go through it.  Crossing locations
are refined by bisection on re-solves over the angular grid of rays (epsilon
only takes snapped values, so the bracket bottoms out at one grid step; the
event stores the final bracket).  Bisection reads one table of sector rows
keyed by (sector, ray) that starts as the sweep's own rows.  A step solves
at k one past the larger curve index it compares, and a (sector, ray) again
only for a bracket that reads past its row; a sweep ray is never solved
again.  A crossing through an exact zero of the gap at a sweep point is
bracketed across that point.

The `rank` of a crossing labels the eigenvalue by counting distinct
eigenvalue levels of the merged spectrum strictly below the crossing, at the
sweep point just below it, plus one.
"""

from __future__ import annotations

import cmath
import dataclasses
import itertools
import math
import numbers
import os
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .domain import CrackedDiskSpec, SectorProblem, SectorTag, quarter_problems, reduce_to_sectors
from .discretize import AssembledOperator, PolarGrid, assemble
from .eigensolve import Spectrum, group_multiplicities, lowest_eigenpairs, one_blas_thread

__all__ = [
    "SectorSolve",
    "MergedLevel",
    "MergedSpectrum",
    "EigenvalueCurve",
    "CrossingEvent",
    "NodalCount",
    "GapScan",
    "solve_sector",
    "solve_full_spectrum",
    "sweep",
    "sweep_quarter",
    "check_rank",
    "detect_crossings",
    "nodal_domains",
    "sector_field",
    "recombine_full_domain",
    "count_nodal_domains",
    "ndd_dnd_gap",
]

@dataclass
class SectorSolve:
    """The k lowest eigenvalues of one sector, each once, with the operator
    kept for nodal analysis."""

    tag: SectorTag
    values: np.ndarray
    residuals: np.ndarray
    spectrum: Spectrum
    operator: AssembledOperator


def solve_sector(problem: SectorProblem, m: int, k: int, tol: float = 1e-8) -> SectorSolve:
    """Solve one sector for its k lowest eigenvalues; a k above a quarter of
    the sector's unknowns raises `ValueError`."""
    op = assemble(problem, m)
    spec = lowest_eigenpairs(op, k, tol=tol)
    return SectorSolve(tag=op.sector, values=spec.eigenvalues, residuals=spec.residuals,
                       spectrum=spec, operator=op)


@dataclass
class MergedLevel:
    value: float
    label: str
    weight: int
    residual: float


@dataclass
class MergedSpectrum:
    """Weighted multiset union of the sector spectra, ascending."""

    values: np.ndarray          # weight-expanded, truncated to k
    labels: list[str]
    residuals: np.ndarray       # the certificate of each entry of `values`
    levels: list[MergedLevel]   # distinct levels, ascending, not truncated
    eps: float
    r1: float
    m: int
    k: int

    def multiplicities(self, cluster_tol: float) -> list[tuple[float, int]]:
        """Cluster the weighted values and report (value, multiplicity)."""
        return group_multiplicities(
            [lv.value for lv in self.levels], cluster_tol,
            weights=[lv.weight for lv in self.levels])


def solve_full_spectrum(spec: CrackedDiskSpec, m: int, k: int,
                        tol: float = 1e-8) -> MergedSpectrum:
    """Solve all Floquet sectors and merge the weighted union, sorted."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k!r}")
    curve = _run_sweep([p for p, _ in reduce_to_sectors(spec)], [spec.epsilon], m, k, tol)
    levels = [MergedLevel(value=float(v), label=tag.label, weight=tag.weight, residual=float(r))
              for tag in curve.sectors
              for v, r in zip(curve.values[tag.label][0], curve.residuals[tag.label][0])]
    levels.sort(key=lambda lv: lv.value)
    expanded = [lv for lv in levels for _ in range(lv.weight)][:k]
    return MergedSpectrum(values=np.array([lv.value for lv in expanded]),
                          labels=[lv.label for lv in expanded],
                          residuals=np.array([lv.residual for lv in expanded]),
                          levels=levels, eps=float(curve.epsilons[0]), r1=curve.r1, m=m, k=k)


@dataclass
class EigenvalueCurve:
    """Per-sector eigenvalue curves over an ascending epsilon grid."""

    geometry: CrackedDiskSpec
    m: int
    k: int
    tol: float                           # the residual certificate bound of every solve
    epsilons: np.ndarray                 # snapped, unique, ascending
    sectors: list[SectorTag]
    values: dict[str, np.ndarray]        # label -> (n_eps, k) distinct values
    residuals: dict[str, np.ndarray]     # label -> (n_eps, k) their certificates
    r1: float                            # snapped interface radius

    @property
    def residual_max(self) -> float:
        """Largest residual certificate over the whole sweep."""
        return max(float(r.max()) for r in self.residuals.values())


def _at(problem: SectorProblem, eps: float) -> SectorProblem:
    """The same sector problem at the opening `eps`."""
    return dataclasses.replace(
        problem, geometry=dataclasses.replace(problem.geometry, epsilon=float(eps)))


def _run_sweep(problems: list[SectorProblem], epsilon_list, m: int, k: int,
               tol: float) -> EigenvalueCurve:
    """Solve every problem of `problems` once per ray that an opening of
    `epsilon_list` is solved on (`PolarGrid.eps_ray`), at the opening
    reported for that ray (`PolarGrid.eps_at`), on a pool of
    min(4, cores, tasks) threads, each solve on one BLAS thread.

    Returns the curve of those rays at their reported openings, with the k
    sector values and their residual certificates."""
    grid = PolarGrid.for_problem(problems[0], m)
    # each request is an opening of the geometry, so one outside [0, pi/n] raises
    requests = [_at(problems[0], eps).geometry.epsilon for eps in epsilon_list]
    epsilons = [grid.eps_at(ray) for ray in sorted({grid.eps_ray(eps) for eps in requests})]
    if not epsilons:
        raise ValueError("epsilon_list must not be empty")
    tasks = [(ie, _at(p, eps)) for ie, eps in enumerate(epsilons) for p in problems]
    workers = min(4, os.cpu_count() or 1, len(tasks))

    def solve(task):    # only the numbers outlive the task, not its eigenvectors
        sol = solve_sector(task[1], m, k, tol)
        return sol.values, sol.residuals

    # held across the pool, so the BLAS count does not flip between tasks
    with one_blas_thread, ThreadPoolExecutor(max_workers=workers) as pool:
        sols = list(pool.map(solve, tasks))
    values = {p.label: np.empty((len(epsilons), k)) for p in problems}
    residuals = {label: np.empty_like(arr) for label, arr in values.items()}
    for (ie, p), (vals, res) in zip(tasks, sols):
        values[p.label][ie], residuals[p.label][ie] = vals, res
    return EigenvalueCurve(geometry=problems[0].geometry, m=m, k=k, tol=tol,
                           epsilons=np.array(epsilons),
                           sectors=[p.tag for p in problems], values=values,
                           residuals=residuals, r1=grid.r1)


def sweep(spec: CrackedDiskSpec, epsilon_list, m: int, k: int,
          tol: float = 1e-8) -> EigenvalueCurve:
    """Per-sector eigenvalue curves of the cracked disk over an epsilon grid.

    Requested epsilons snap to the angular grid of rays; duplicates after
    snapping are solved once.  Sweep points run on up to min(4, cores)
    threads, each solve on one BLAS thread.
    """
    requested = np.asarray(list(epsilon_list), dtype=float)
    if (np.diff(requested) < 0).any():
        raise ValueError("epsilon_list must be ascending")
    return _run_sweep([p for p, _ in reduce_to_sectors(spec)], requested, m, k, tol)


def sweep_quarter(spec: CrackedDiskSpec, cases, epsilon_list, m: int, k: int,
                  tol: float = 1e-8):
    """Quarter-disk eigenvalue curves (n = 2): the snapped epsilon grid plus
    a dict case -> (n_eps, k).  A repeated case is solved once."""
    known = {p.quarter_case: p for p in quarter_problems(spec)}
    cases = list(dict.fromkeys(cases))
    unknown = ", ".join(repr(c) for c in cases if c not in known)
    if unknown or not cases:
        given = f"unknown quarter cases {unknown}" if unknown else "no quarter case given"
        raise ValueError(f"{given}; the cases are {', '.join(known)}")
    curve = _run_sweep([known[c] for c in cases], epsilon_list, m, k, tol)
    return curve.epsilons, curve.values


@dataclass
class CrossingEvent:
    """A sign change between eigenvalue curves of two different sectors."""

    epsilon_star: float
    bracket_lo: float
    bracket_hi: float
    sector_a: SectorTag
    sector_b: SectorTag
    index_a: int
    index_b: int
    lambda_star: float
    total_multiplicity: int
    rank: int


def _sign_changes(d: np.ndarray) -> list[tuple[int, int]]:
    """Index pairs (a, b), a < b, where the finite gap `d` changes sign: d[a]
    and d[b] are nonzero with opposite signs and every point between them is
    an exact zero.  A zero at either end of the sweep, or one the gap leaves
    with the sign it came with, is no sign change."""
    pairs = []
    last = None
    for t, x in enumerate(d):
        if x != 0.0:
            if last is not None and (d[last] > 0) != (x > 0):
                pairs.append((last, t))
            last = t
    return pairs


def check_rank(rank_of_interest) -> None:
    """Raise `ValueError` unless `rank_of_interest` is an integer >= 1, the
    rank that `detect_crossings` takes: a caller checks it before a sweep."""
    if not isinstance(rank_of_interest, numbers.Integral) or rank_of_interest < 1:
        raise ValueError(f"rank_of_interest must be an integer >= 1, got {rank_of_interest!r}")


def detect_crossings(curve: EigenvalueCurve, rank_of_interest: int) -> list[CrossingEvent]:
    """Locate crossings between curves of different sectors, bisect them down
    to one angular grid step, and annotate rank and total multiplicity.

    A sign change through exact zeros at sweep points is bracketed across
    those points.  Events with rank above `rank_of_interest` are dropped.
    Curves of the same sector never cross transversally and are not compared.
    A curve value that is not finite raises `ValueError`.
    """
    check_rank(rank_of_interest)
    if len(curve.epsilons) < 2:
        raise ValueError("need at least two sweep points to detect crossings")
    if not all(np.isfinite(arr).all() for arr in curve.values.values()):
        raise ValueError("a curve value is not finite")
    problems = {p.label: p for p, _ in reduce_to_sectors(curve.geometry)}
    grid = PolarGrid.for_problem(next(iter(problems.values())), curve.m)
    rays = [grid.eps_ray(e) for e in curve.epsilons]
    # (label, ray) -> the curve.k sector values; the sweep's rows come first
    rows = {(label, ray): arr[ie] for label, arr in curve.values.items()
            for ie, ray in enumerate(rays)}

    def solve_missing(labels: tuple[str, str], ray: int, k: int) -> None:
        # the t-th root depends only on the roots below it, so a row solved
        # at k agrees with every longer one on its k values
        missing = [problems[label] for label in labels if len(rows.get((label, ray), ())) < k]
        if missing:
            solved = _run_sweep(missing, [grid.eps_at(ray)], curve.m, k, curve.tol)
            rows.update(((p.label, ray), solved.values[p.label][0]) for p in missing)

    events: list[CrossingEvent] = []
    for sa, sb in itertools.combinations(curve.sectors, 2):
        va, vb = curve.values[sa.label], curve.values[sb.label]
        for ca, cb in itertools.product(range(va.shape[1]), range(vb.shape[1])):
            d = va[:, ca] - vb[:, cb]
            for t0, t1 in _sign_changes(d):
                lo, hi = rays[t0], rays[t1]
                while hi - lo > 1:
                    mid = (lo + hi) // 2
                    solve_missing((sa.label, sb.label), mid, max(ca, cb) + 1)
                    if (rows[sa.label, mid][ca] - rows[sb.label, mid][cb] > 0) == (d[t0] > 0):
                        lo = mid
                    else:
                        hi = mid
                a, b = rows[sa.label, lo][ca], rows[sb.label, lo][cb]
                lam_star = 0.5 * (a + b)
                cluster_tol = max(1e-3, 1e-3 * abs(lam_star))
                ie = bisect_right(rays, lo) - 1
                levels = np.concatenate([arr[ie] for arr in curve.values.values()])
                rank = len(group_multiplicities(levels[levels < min(a, b) - cluster_tol],
                                                cluster_tol)) + 1
                if rank <= rank_of_interest:
                    e_lo, e_hi = grid.eps_at(lo), grid.eps_at(hi)
                    events.append(CrossingEvent(
                        epsilon_star=0.5 * (e_lo + e_hi), bracket_lo=e_lo, bracket_hi=e_hi,
                        sector_a=sa, sector_b=sb, index_a=ca, index_b=cb,
                        lambda_star=float(lam_star),
                        total_multiplicity=sa.weight + sb.weight, rank=rank))
    events.sort(key=lambda e: e.epsilon_star)
    return events


# ---------------------------------------------------------------------------
# nodal domains
# ---------------------------------------------------------------------------

_ZERO_TOL = 1e-6


@dataclass(frozen=True)
class NodalCount:
    mu: int


def nodal_domains(field: np.ndarray, wrap: bool) -> NodalCount:
    """Count sign domains of a grid eigenfunction.

    `field` is a real 2-D array over (ring, column); NaN marks nodes outside
    the domain (Dirichlet / eliminated).  Nodes with |u| <= _ZERO_TOL *
    max|u| act as separators.  Adjacency is 4-neighbor, restricted to equal
    signs; columns wrap when `wrap` is true.  Same-sign runs along each row
    are joined across rows (and the seam) by a union-find (Hoshen-Kopelman).
    """
    field = np.asarray(field)
    if field.ndim != 2 or np.iscomplexobj(field):
        raise ValueError(f"field must be a real 2-D array, got {field.ndim}-D of {field.dtype}")
    field = field.astype(float, copy=False)
    finite = np.isfinite(field)
    if not finite.any():
        raise ValueError("field has no domain nodes")
    peak = np.nanmax(np.abs(field))
    if peak == 0.0:
        raise ValueError("field vanishes everywhere: degenerate vector")
    act = finite & (np.abs(field) > _ZERO_TOL * peak)
    if not act.any():
        raise ValueError("all nodes below the zero threshold: degenerate vector")
    sgn = np.where(act, np.sign(field), 0.0)   # 0 off the active nodes
    # a run starts at every active node whose left neighbour has another sign
    start = act.copy()
    start[:, 1:] &= sgn[:, 1:] != sgn[:, :-1]
    runs = int(start.sum())
    run = np.cumsum(start).reshape(field.shape) - 1      # each active node's run
    neighbours = [(np.s_[:-1, :], np.s_[1:, :])]
    if wrap:
        neighbours.append((np.s_[:, -1], np.s_[:, 0]))
    pairs = np.concatenate([run[a][linked] * runs + run[b][linked] for a, b in neighbours
                            for linked in [(sgn[a] != 0.0) & (sgn[a] == sgn[b])]])
    parent, mu = list(range(runs)), runs
    heads, tails = divmod(np.unique(pairs), runs)
    for a, b in zip(heads.tolist(), tails.tolist()):
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            parent[a] = b
            mu -= 1
    return NodalCount(mu=mu)


def sector_field(op: AssembledOperator, vector: np.ndarray) -> np.ndarray:
    """Map a solution vector onto the (ring, column) grid of the sector;
    eliminated nodes are NaN, the center unknown is dropped.  A complex
    vector gives a complex field."""
    out = np.full(op.keep.size, np.nan, dtype=np.result_type(vector, float))
    out[op.keep] = vector
    return out[:(op.grid.m - 1) * len(op.cols)].reshape(op.grid.m - 1, len(op.cols))


def recombine_full_domain(op: AssembledOperator, vector: np.ndarray) -> np.ndarray:
    """Extend a Floquet sector eigenvector w to the full circle.

    Copy c of the sector carries Re(exp(i*c*alpha) w), alpha = 2*pi*ell/n:
    the continuation w(theta + extent) = exp(i*alpha) w(theta) taken round the
    circle.  The scalar sectors have the real phases +1 (ell = 0) and -1
    (ell = n/2)."""
    if op.wrap is False:
        raise ValueError("recombination is defined for Floquet sectors only")
    n = op.problem.geometry.n
    w = sector_field(op, vector)
    if np.iscomplexobj(w):
        alpha = 2 * math.pi * op.problem.ell / n
        parts = [np.real(cmath.exp(1j * c * alpha) * w) for c in range(n)]
    else:
        sigma = 1.0 if op.problem.ell == 0 else -1.0
        parts = [(sigma ** c) * w for c in range(n)]
    return np.concatenate(parts, axis=1)


def count_nodal_domains(op: AssembledOperator, vector: np.ndarray) -> NodalCount:
    """Nodal domains of one eigenvector on its natural domain (fully
    recombined circle for Floquet sectors, the quarter itself otherwise)."""
    if op.wrap:
        return nodal_domains(recombine_full_domain(op, vector), wrap=True)
    return nodal_domains(sector_field(op, vector), wrap=False)


@dataclass
class GapScan:
    """lambda_1^NDD - lambda_1^DND over an epsilon grid, with the residual
    certificate of each ground energy."""

    epsilons: np.ndarray
    lam_ndd: np.ndarray
    lam_dnd: np.ndarray
    residual_ndd: np.ndarray
    residual_dnd: np.ndarray

    @property
    def gaps(self) -> np.ndarray:
        return self.lam_ndd - self.lam_dnd

    @property
    def all_negative(self) -> bool:
        return bool((self.gaps < 0).all())


def ndd_dnd_gap(spec: CrackedDiskSpec, epsilon_list, m: int,
                tol: float = 1e-8) -> GapScan:
    """Scan the NDD/DND ground-energy gap over epsilon (n = 2 geometry)."""
    if spec.n != 2:
        raise ValueError("the NDD/DND gap is defined for n = 2")
    problems = [p for p in quarter_problems(spec) if p.quarter_case in ("NDD", "DND")]
    curve = _run_sweep(problems, epsilon_list, m, 1, tol)
    lam, res = curve.values, curve.residuals
    return GapScan(epsilons=curve.epsilons, lam_ndd=lam["NDD"][:, 0], lam_dnd=lam["DND"][:, 0],
                   residual_ndd=res["NDD"][:, 0], residual_dnd=res["DND"][:, 0])
