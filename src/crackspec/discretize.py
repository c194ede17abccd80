"""Second-order polar finite differences for the sector eigenvalue problems.

The scheme discretizes

    -(u_rr + u_r / r + u_tt / r^2)

on the tensor grid r_i = i*dr (dr = r2/m), theta_j = j*dtheta
(dtheta = extent/m) with the centered stencil

    row(i,j) = -[ (u_{i+1,j} - 2 u_{i,j} + u_{i-1,j}) / dr^2
                + (u_{i+1,j} - u_{i-1,j}) / (2 r_i dr)
                + (u_{i,j+1} - 2 u_{i,j} + u_{i,j-1}) / (r_i dtheta)^2 ].

Conventions (all encoded in the assembled matrix, no constraint rows):

* Dirichlet nodes (outer circle i=m, crack nodes on the snapped r1 ring,
  Dirichlet rays of quarter problems) are eliminated; their stencil
  contribution is zero.
* A Neumann ray is a half cell, the only Neumann rule: each angular link
  out of it is doubled (the mirror ghost u_{i,-1} = u_{i,1}), and its nodes
  carry half a node weight and half a share of the center's ring-1 average.
* Floquet sectors on theta in [0, 2*pi/n) couple the seam columns with the
  phase exp(i*alpha), alpha = 2*pi*ell/n: the continuation past the last
  column is u(theta + 2*pi/n) = exp(i*alpha) u(theta).  The sectors ell = 0
  and ell = n/2 have the real phases +1 and -1.  For 0 < ell < n/2 the
  operator is complex, with c_ang*exp(+i*alpha) on the forward seam (column
  m-1 to column 0) and c_ang*exp(-i*alpha) on the backward seam; each of its
  eigenvalues carries weight 2 downstream (sector n - ell is the conjugate).
* r = 0: problems whose eigenfunctions vanish there (any Dirichlet ray
  reaching the origin, Floquet ell != 0) simply drop the center.  For the
  axisymmetric-capable problems (NND, Floquet ell = 0) a Dirichlet pin at the
  origin is wrong by a capacity-sized amount that no tolerance absorbs, so a
  single center unknown with the polar regularity stencil
  -lap u(0) ~ (4/dr^2) (u(0) - mean of ring 1) is used instead.

The operator is non-Hermitian but similar to a Hermitian matrix (real
symmetric outside the complex sectors) through diag(sqrt(w)) with the node
weights w stored on the operator (r_i times the cell, a matched weight for
the center).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .domain import _ANGLE_TOL, SectorProblem, SectorTag, crack_arcs

__all__ = [
    "PolarGrid",
    "AssembledOperator",
    "assemble",
    "dump_operator",
]

MIN_CELLS = 8


@dataclass(frozen=True)
class PolarGrid:
    """The m x m polar grid of one problem, r_i = i*dr and theta_j = j*dtheta.

    It is the one place where requested values snap to the grid: r1 to the
    nearest ring and angles (epsilon, arc ends) to the nearest ray.  The
    requested values are kept, so every snap is reported.  It also decides
    when the geometry is fully open, and reports that opening as pi/n."""

    m: int
    r2: float
    theta_extent: float
    r1_requested: float
    eps_requested: float
    eps_open: float           # pi/n, the opening of the plain disk

    def __post_init__(self) -> None:
        if self.m < MIN_CELLS:
            raise ValueError(
                f"grid needs at least {MIN_CELLS} cells per direction, got m={self.m}")
        if self.r1_ring < 1 or self.r1_ring > self.m - 1:
            raise ValueError(
                f"r1={self.r1_requested!r} snaps to ring {self.r1_ring} of {self.m}, "
                "degenerating the geometry")

    @classmethod
    def for_problem(cls, problem: SectorProblem, m: int) -> PolarGrid:
        """Grid of a sector problem: theta in [0, pi/2] for the quarter
        problems, [0, 2*pi/n) for the Floquet sectors."""
        spec = problem.geometry
        extent = math.pi / 2 if problem.kind == "quarter" else 2 * math.pi / spec.n
        return cls(m=m, r2=spec.r2, theta_extent=extent, r1_requested=spec.r1,
                   eps_requested=spec.epsilon, eps_open=math.pi / spec.n)

    @property
    def dr(self) -> float:
        return self.r2 / self.m

    @property
    def dtheta(self) -> float:
        return self.theta_extent / self.m

    @property
    def r1_ring(self) -> int:
        return int(round(self.r1_requested / self.dr))

    @property
    def r1(self) -> float:
        return self.r1_ring * self.dr

    @property
    def eps(self) -> float:
        """The opening solved: the snapped request, or pi/n when fully open."""
        return self.eps_at(self.eps_ray(self.eps_requested))

    @property
    def r1_snap_error(self) -> float:
        return abs(self.r1 - self.r1_requested)

    @property
    def open_ray(self) -> int:
        """The first ray at or past pi/n (odd m has no ray at pi/n)."""
        return math.ceil(self.eps_open / self.dtheta - _ANGLE_TOL)

    def eps_ray(self, eps: float) -> int:
        """The ray the opening `eps` is solved on: its nearest ray, or
        `open_ray` when the geometry is fully open, that is when `eps` is at
        pi/n or its nearest ray at or past it."""
        if eps >= self.eps_open - _ANGLE_TOL:
            return self.open_ray
        return min(self.ray(eps), self.open_ray)

    def eps_at(self, ray: int) -> float:
        """The opening reported for a ray: pi/n from `open_ray` on."""
        return self.eps_open if ray >= self.open_ray else ray * self.dtheta

    def ray(self, theta: float) -> int:
        """Index of the grid ray nearest to the angle theta."""
        return int(round(theta / self.dtheta))

    def snap_angle(self, theta: float) -> float:
        return self.ray(theta) * self.dtheta

    def ring_mask(self, arcs, cols: np.ndarray, wrap: bool) -> np.ndarray:
        """Mask over the ray indices `cols` of the r1-ring nodes on the closed
        angular arcs `arcs`.

        Each arc end snaps to its nearest ray, and that ray is covered: a node
        exactly at an arc end is Dirichlet.  When the columns wrap round, ray
        indices count mod m, so an arc may cross theta = 0 and every rotated
        copy of a Floquet crack lands on the sector's own columns."""
        covered = np.zeros(cols.shape, dtype=bool)
        for a, b in arcs:
            lo, hi = self.ray(a), self.ray(b)
            offset = (cols - lo) % self.m if wrap else cols - lo
            covered |= (offset >= 0) & (offset <= hi - lo)
        return covered


@dataclass
class AssembledOperator:
    """Sparse discretized operator with boundary conditions baked in."""

    matrix: sp.csr_matrix
    grid: PolarGrid
    sector: SectorTag
    problem: SectorProblem
    row_weights: np.ndarray
    cols: np.ndarray          # angular indices present on the grid
    node_ring: np.ndarray     # per unknown: ring index i (0 for the center)
    node_col: np.ndarray      # per unknown: angular index j (-1 for center)
    center_row: int | None
    wrap: bool

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def assemble(problem: SectorProblem, m: int) -> AssembledOperator:
    """Assemble the polar FD operator for a sector problem on an m x m grid."""
    spec = problem.geometry
    grid = PolarGrid.for_problem(problem, m)
    dr, dth = grid.dr, grid.dtheta
    wrap = problem.kind == "floquet"
    if wrap:
        cols = np.arange(m)
        cell = np.ones(m)
        # the eigenfunctions vanish at the origin unless the phase is trivial
        has_center = problem.ell == 0
    else:
        bc_lo, bc_hi = problem.quarter_case[:2]
        cols = np.arange(0 if bc_lo == "N" else 1, m + 1 if bc_hi == "N" else m)
        # a Neumann ray is a half cell
        cell = np.where((cols == 0) | (cols == m), 0.5, 1.0)
        # a Dirichlet ray through the origin makes the eigenfunctions vanish there
        has_center = problem.quarter_case == "NND"
    n_rings = m - 1
    ri = dr * np.arange(1, m)

    # The crack arcs of the geometry at the snapped opening, in full-circle
    # angles: the sector sees the first arc (the quarter its part in
    # [eps, pi/2]), and the rotated cracks fold onto it mod m.  A fully open
    # geometry snaps to pi/n, which has no arcs.
    arcs = crack_arcs(replace(spec, epsilon=grid.eps))
    active = np.ones((n_rings, cols.size), dtype=bool)
    active[grid.r1_ring - 1, grid.ring_mask(arcs, cols, wrap)] = False

    n1 = int(active.sum())
    ids = -np.ones(active.shape, dtype=np.int64)
    ids[active] = np.arange(n1)
    ring, col = np.indices(active.shape)     # ring t holds r = (t + 1) * dr
    n = n1 + int(has_center)
    center_row = n1 if has_center else None

    c_diag = 2.0 / dr**2 + 2.0 / (ri**2 * dth**2)      # per ring
    c_out = -(1.0 / dr**2 + 1.0 / (2.0 * ri * dr))
    c_in = -(1.0 / dr**2 - 1.0 / (2.0 * ri * dr))
    c_ang = -1.0 / (ri**2 * dth**2)

    rows: list[np.ndarray] = []
    colix: list[np.ndarray] = []
    vals: list[np.ndarray] = []

    def add(r, c, v):
        rows.append(np.asarray(r, dtype=np.int64))
        colix.append(np.asarray(c, dtype=np.int64))
        vals.append(np.asarray(v, dtype=np.complex128 if np.iscomplexobj(v) else np.float64))

    # diagonal
    add(ids[active], ids[active], c_diag[ring[active]])

    # radial neighbors between rings t and t+1
    both = active[:-1, :] & active[1:, :]
    a = ids[:-1, :][both]
    b = ids[1:, :][both]
    t = ring[:-1, :][both]
    add(a, b, c_out[t])
    add(b, a, c_in[t + 1])

    # angular neighbors inside the column range; a link out of a half cell
    # is doubled, which is its mirror ghost u_{i,-1} = u_{i,1}
    both = active[:, :-1] & active[:, 1:]
    a = ids[:, :-1][both]
    b = ids[:, 1:][both]
    t = ring[:, :-1][both]
    j = col[:, :-1][both]
    add(a, b, c_ang[t] / cell[j])
    add(b, a, c_ang[t] / cell[j + 1])

    if wrap:
        # seam: column m-1 sees exp(i*alpha) times column 0, and column 0
        # sees exp(-i*alpha) times column m-1
        if problem.weight == 2:
            phase = cmath.exp(2j * math.pi * problem.ell / spec.n)
        else:
            phase = 1.0 if problem.ell == 0 else -1.0
        both = active[:, -1] & active[:, 0]
        hi = ids[:, -1][both]
        lo = ids[:, 0][both]
        t = ring[:, 0][both]
        add(hi, lo, phase * c_ang[t])
        add(lo, hi, np.conj(phase) * c_ang[t])

    if has_center:
        # ring-1 rows couple to the center through the inner radial neighbor;
        # the center row is the polar regularity stencil over the ring-1
        # average with cell weights
        sel = active[0, :]
        first = ids[0, :][sel]
        add(first, np.full(first.size, center_row), np.full(first.size, c_in[0]))
        add([center_row], [center_row], [4.0 / dr**2])
        add(np.full(first.size, center_row), first, -(4.0 / dr**2) * cell[sel] / cell.sum())

    matrix = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(colix))),
        shape=(n, n)).tocsr()

    # similarity weights making diag(sqrt(w)) A diag(1/sqrt(w)) Hermitian
    row_weights = ri[ring[active]] * cell[col[active]]
    node_ring = np.zeros(n, dtype=np.int64)
    node_col = np.full(n, -1, dtype=np.int64)
    node_ring[:n1] = ring[active] + 1
    node_col[:n1] = cols[col[active]]
    if has_center:
        row_weights = np.concatenate([row_weights, [dr * cell.sum() / 8.0]])

    return AssembledOperator(
        matrix=matrix, grid=grid, sector=problem.tag,
        problem=problem, row_weights=row_weights, cols=cols,
        node_ring=node_ring, node_col=node_col,
        center_row=center_row, wrap=wrap)


def dump_operator(op: AssembledOperator, path: str) -> None:
    """Write the operator as `i j value` text (1-based, matrix-market style);
    a complex operator writes `i j re im` and says so in the header."""
    coo = op.matrix.tocoo()
    is_complex = np.iscomplexobj(coo.data)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"% crackspec operator n={op.n}{' complex' if is_complex else ''}\n")
        for i, j, v in zip(coo.row, coo.col, coo.data):
            if is_complex:
                fh.write(f"{i + 1} {j + 1} {v.real:.16g} {v.imag:.16g}\n")
            else:
                fh.write(f"{i + 1} {j + 1} {v:.16g}\n")
