"""Condenser capacities of arc sets relative to the disk, by discrete
Dirichlet-energy minimization.

The capacitary potential solves the discrete Laplace equation with V = 1 on
the compact K (arcs of the circle r = r1, one grid ring thick) and V = 0 on
the outer circle.  Grid and stencil are those of the fully open one-sector
disk (n = 1, ell = 0) of `discretize`: scaled by its node weights,
L = dr*dtheta*diag(w)*A is the weighted graph Laplacian with conductances
r_{i+1/2} dtheta/dr on radial edges and dr/(r_i dtheta) on angular edges, so

    E(V) = V^T L V = sum over edges of conductance * (dV)^2

is the quadratic form of the same matrix that the solve uses, and the
reported capacity equals the boundary-flux value to round-off.  The center
r = 0 is a single unknown tied to ring 1 through the regularity stencil (it
must not be grounded: for K the full circle the potential is identically 1
inside, with zero energy contribution).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .discretize import MIN_CELLS, PolarGrid, assemble
from .domain import CrackedDiskSpec, SectorProblem
from .eigensolve import _factor_hpd

__all__ = [
    "CapacityProblem",
    "CapacityResult",
    "CapacitaryPotential",
    "AdditivityResult",
    "capacitary_potential",
    "additivity_ratio",
]

_RESIDUAL_BOUND = 1e-10


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


def _energy_system(problem: CapacityProblem):
    """The weighted graph Laplacian of the disk operator and the mask of the
    unknowns on the arcs, which carry V = 1."""
    op = assemble(problem.disk, problem.m)
    grid = op.grid
    lap = (grid.dr * grid.dtheta * sp.diags(op.row_weights) @ op.matrix).tocsr()
    fixed = np.zeros(op.n, dtype=bool)
    on_ring = op.node_ring == grid.r1_ring
    fixed[on_ring] = grid.ring_mask(problem.arcs, op.node_col[on_ring], wrap=True)
    return lap, fixed


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
    lap, fixed = _energy_system(problem)
    n = lap.shape[0]
    v = np.zeros(n)
    if fixed.sum() == 0:  # empty compact: zero potential, zero capacity
        return (CapacitaryPotential(np.zeros((m - 1, m)), 0.0),
                CapacityResult(0.0, 0.0))
    v[fixed] = 1.0
    free = ~fixed
    lap_ff = lap[free][:, free].tocsc()
    rhs = -(lap[free][:, fixed] @ v[fixed])
    lu = _factor_hpd(lap_ff)
    v_free = lu.solve(rhs)
    # one step of iterative refinement keeps the harmonicity residual tiny
    resid = rhs - lap_ff @ v_free
    v_free = v_free + lu.solve(resid)
    v[free] = v_free
    residual = float(np.max(np.abs(rhs - lap_ff @ v_free))) if v_free.size else 0.0
    if residual > _RESIDUAL_BOUND:
        raise RuntimeError(
            f"capacitary solve left harmonicity residual {residual:.3e} "
            f"above {_RESIDUAL_BOUND:.0e}")
    # np.sum, not a BLAS dot: a dot this long wakes OpenBLAS worker threads,
    # whose spin-wait then added a third to the CPU time of the next splu
    energy = float(np.sum(v * (lap @ v)))
    # the fully open disk numbers its unknowns ring by ring, center last
    field = v[:(m - 1) * m].reshape(m - 1, m)
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
