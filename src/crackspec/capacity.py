"""Condenser capacities of arc sets relative to the disk, by discrete
Dirichlet-energy minimization.

The capacitary potential solves the discrete Laplace equation with V = 1 on
the compact K (arcs of the circle r = r1, one grid ring thick) and V = 0 on
the outer circle.  Grid and stencil are those of the open operator of the
one-sector disk (n = 1, ell = 0, `discretize.open_operator`), which no
crack cuts: scaled by its node weights,
L = dr*dtheta*diag(w)*A is the weighted graph Laplacian with conductances
r_{i+1/2} dtheta/dr on radial edges and dr/(r_i dtheta) on angular edges, so

    E(V) = V^T L V = sum over edges of conductance * (dV)^2

is the quadratic form of the same matrix that the solve uses, and the
reported capacity equals the boundary-flux value to round-off.  The center
r = 0 is a single unknown tied to ring 1 through the regularity stencil (it
must not be grounded: for K the full circle the potential is identically 1
inside, with zero energy contribution).

The minimizer is found by the capacitance-matrix method (Buzbee, Dorr,
George & Golub, SIAM J. Numer. Anal. 8 (1971); Proskurowski & Widlund, Math.
Comp. 30 (1976)).  Let F be the unknowns on K and G = L^-1.  L V vanishes
off F, so V = G c for charges c on F, and V_F = 1 gives G_FF c = 1.  Hence

    cap = 1^T (G_FF)^-1 1 = sum(c) = V . L V,

the Schur complement of L onto F being (G_FF)^-1.  The disk operator
(ell = 0, wrapped columns, a center that averages ring 1 with equal cells)
commutes with the rotation by one grid column, and so does G.  Its ring
block is therefore circulant, G_FF[a, b] = g[(F_a - F_b) mod m] on the r1
ring, where g = G e is the Green's column of the unit charge at (r1 ring,
column 0), and G e_f is g rotated by f columns.  One column thus serves
every arc set on a grid: the charges come from a Cholesky of the at most
m x m block G_FF, and V is the circular convolution of g with c along each
ring (the center, which every rotation fixes, is g_center * sum(c)).

The method needs only products with L and solves with it, both from the
disk's factors: L v = c w * A v (c = dr*dtheta, A v by `SectorFactors.apply`)
and L^-1 by `eigensolve.open_solve`, one tridiagonal solve per angular mode.
The factors, c w and g are cached per snapped grid (r1 ring, r2, m), for at
most `_CACHED_GRIDS` grids; g takes two open solves, the second a step of
iterative refinement.  A column that leaves ||L g - e||_inf above
`_GREEN_BOUND`, or a harmonicity residual above `_RESIDUAL_BOUND`, raises
`SolverError`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .discretize import MIN_CELLS, PolarGrid, open_operator
from .domain import CrackedDiskSpec, SectorProblem
from .eigensolve import SolverError, one_blas_thread, open_solve

__all__ = [
    "CapacityProblem",
    "CapacityResult",
    "CapacitaryPotential",
    "AdditivityResult",
    "capacitary_potential",
    "additivity_ratio",
]

_RESIDUAL_BOUND = 1e-10
_GREEN_BOUND = 1e-12
_CACHED_GRIDS = 4


@dataclass(frozen=True)
class CapacityProblem:
    """Arcs {r = r1, theta in [a, b]} inside the disk of radius r2, on an
    m x m polar grid (angular step 2*pi/m).  r1 snaps to a ring and the arc
    ends to rays of `grid`, which reports both."""

    r1: float
    r2: float
    arcs: tuple[tuple[float, float], ...]
    m: int

    def __post_init__(self) -> None:
        if not (0.0 < self.r1 < self.r2):
            raise ValueError(f"need 0 < r1 < r2, got r1={self.r1!r}, r2={self.r2!r}")
        if self.m < MIN_CELLS:
            raise ValueError(f"grid needs at least {MIN_CELLS} cells, got m={self.m}")
        for a, b in self.arcs:
            if b < a:
                raise ValueError(f"arc ({a!r}, {b!r}) has negative width")
            if b - a > 2 * math.pi:
                raise ValueError(f"arc ({a!r}, {b!r}) wraps more than the full circle")

    @property
    def disk(self) -> SectorProblem:
        """The fully open one-sector disk whose operator the potential solves."""
        return SectorProblem(kind="floquet",
                             geometry=CrackedDiskSpec(1, math.pi, self.r1, self.r2))

    @property
    def grid(self) -> PolarGrid:
        return PolarGrid.for_problem(self.disk, self.m)


@dataclass(frozen=True)
class CapacityResult:
    cap: float
    energy_residual: float


@functools.lru_cache(maxsize=_CACHED_GRIDS)
def _disk_green(r1_ring: int, r2: float, m: int):
    """The factors f of the open disk operator A on the m x m grid of radius
    r2, the scale c w of its weighted Laplacian L = diag(c w) A, and the
    Green's column g = L^-1 e at (ring r1_ring, column 0), from two open
    solves of that operator."""
    problem = CapacityProblem(r1_ring * r2 / m, r2, (), m)
    disk, grid = open_operator(problem.disk, m), problem.grid
    f = disk.factors
    # L = c diag(w) A, so L^-1 b = A^-1 (b / (c w))
    scale = grid.dr * grid.dtheta * disk.row_weights
    e = np.zeros(scale.size)
    e[(r1_ring - 1) * m] = 1.0
    g = open_solve(disk, e / scale)
    g += open_solve(disk, (e - scale * f.apply(g)) / scale)  # one step of iterative refinement
    residual = np.abs(scale * f.apply(g) - e).max()
    if not residual <= _GREEN_BOUND:
        raise SolverError(
            f"the Green's column leaves residual {residual:.3e} above "
            f"{_GREEN_BOUND:.0e}, which signals an assembly bug")
    # every caller shares these arrays; the factors' are read-only already
    scale.flags.writeable = g.flags.writeable = False
    return f, scale, g


def _arc_nodes(problem: CapacityProblem) -> np.ndarray:
    """The r1-ring unknowns on the arcs, which carry V = 1; the fully open
    disk numbers its unknowns ring by ring, center last."""
    grid = problem.grid
    cols = np.flatnonzero(grid.ring_mask(problem.arcs))
    return (grid.r1_ring - 1) * problem.m + cols


@dataclass(frozen=True)
class CapacitaryPotential:
    """Potential values over (ring 1..m-1, column), plus the center value."""

    field: np.ndarray
    center: float


def capacitary_potential(problem: CapacityProblem):
    """Potential with V = 1 on the arcs, V = 0 on the outer circle, discretely
    harmonic elsewhere; returns (CapacitaryPotential, CapacityResult) with the
    capacity as the discrete Dirichlet energy of the minimizer."""
    m = problem.m
    ring = problem.grid.r1_ring
    nodes = _arc_nodes(problem)
    if nodes.size == 0:  # empty compact: zero potential, zero capacity
        return (CapacitaryPotential(np.zeros((m - 1, m)), 0.0),
                CapacityResult(0.0, 0.0))
    cols = nodes % m
    with one_blas_thread:
        f, scale, g = _disk_green(ring, problem.r2, m)
        rings = g[:-1].reshape(m - 1, m)
        # the ring block of L^-1 is circulant
        g_ff = rings[ring - 1][(cols[:, np.newaxis] - cols) % m]
        charge = np.zeros(m)
        charge[cols] = sla.cho_solve(sla.cho_factor(g_ff), np.ones(cols.size))
        # V = sum over f of charge_f * (g rotated by f columns), ring by ring
        field = np.fft.irfft(np.fft.rfft(rings, axis=1) * np.fft.rfft(charge), n=m, axis=1)
        field[ring - 1, cols] = 1.0
        v = np.append(field, g[-1] * charge.sum())
        lv = scale * f.apply(v)
        residual = float(np.max(np.abs(np.delete(lv, nodes))))
        if residual > _RESIDUAL_BOUND:
            raise SolverError(
                f"capacitary solve left harmonicity residual {residual:.3e} "
                f"above {_RESIDUAL_BOUND:.0e}")
        # np.sum sums pairwise, with a rounding bound that grows like log n
        # where a BLAS dot's grows like n
        energy = float(np.sum(v * lv))
    return CapacitaryPotential(field, float(v[-1])), CapacityResult(energy, residual)


@dataclass(frozen=True)
class AdditivityResult:
    delta: float
    cap_total: float
    cap_plus: float
    cap_minus: float

    @property
    def ratio(self) -> float:
        return self.cap_total / (self.cap_plus + self.cap_minus)


def additivity_ratio(r1: float, r2: float, delta: float, m: int) -> AdditivityResult:
    """Cap(K_delta) / (Cap(K_delta^+) + Cap(K_delta^-)) for the two antipodal
    arcs of half-width delta centered at theta = +-pi/2 on r = r1."""
    if not (0.0 < delta < math.pi / 2):
        raise ValueError(f"delta={delta!r} outside (0, pi/2)")
    up = (math.pi / 2 - delta, math.pi / 2 + delta)
    dn = (3 * math.pi / 2 - delta, 3 * math.pi / 2 + delta)
    cap_both = capacitary_potential(CapacityProblem(r1, r2, (up, dn), m))[1].cap
    cap_up = capacitary_potential(CapacityProblem(r1, r2, (up,), m))[1].cap
    cap_dn = capacitary_potential(CapacityProblem(r1, r2, (dn,), m))[1].cap
    return AdditivityResult(delta=delta, cap_total=cap_both,
                            cap_plus=cap_up, cap_minus=cap_dn)
