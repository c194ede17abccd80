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
* Neumann rays use mirror ghosts u_{i,-1} = u_{i,1}, which doubles the
  interior angular neighbor.
* Floquet sectors on theta in [0, 2*pi/n) couple the seam columns with the
  phase exp(2*pi*i*ell/n); for 0 < ell < n/2 the problem is kept real by
  stacking two copies (Re, Im) coupled through the rotation block, so every
  sector eigenvalue shows up twice and carries weight 2 downstream.
* r = 0: problems whose eigenfunctions vanish there (any Dirichlet ray
  reaching the origin, Floquet ell != 0) simply drop the center.  For the
  axisymmetric-capable problems (NND, Floquet ell = 0) a Dirichlet pin at the
  origin is wrong by a capacity-sized amount that no tolerance absorbs, so a
  single center unknown with the polar regularity stencil
  -lap u(0) ~ (4/dr^2) (u(0) - mean of ring 1) is used instead.

The operator is nonsymmetric but similar to a symmetric matrix through
diag(sqrt(w)) with the node weights w stored on the operator (r_i, halved on
Neumann rays, a matched weight for the center).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .domain import SectorProblem, SectorTag, crack_arcs

__all__ = [
    "PolarGrid",
    "AssembledOperator",
    "assemble",
    "center_policy",
    "dump_operator",
]

MIN_CELLS = 8


@dataclass(frozen=True)
class PolarGrid:
    """The m x m polar grid of one problem, r_i = i*dr and theta_j = j*dtheta.

    It is the one place where requested values snap to the grid: r1 to the
    nearest ring and angles (epsilon, arc ends) to the nearest ray.  The
    requested values are kept, so every snap is reported."""

    m: int
    r2: float
    theta_extent: float
    r1_requested: float
    eps_requested: float

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
        return cls(m=m, r2=spec.r2, theta_extent=extent,
                   r1_requested=spec.r1, eps_requested=spec.epsilon)

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
        return self.snap_angle(self.eps_requested)

    @property
    def r1_snap_error(self) -> float:
        return abs(self.r1 - self.r1_requested)

    @property
    def eps_snap_error(self) -> float:
        return abs(self.eps - self.eps_requested)

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
    copies: int
    cols: np.ndarray          # angular indices present on the grid
    node_ring: np.ndarray     # per unknown: ring index i (0 for the center)
    node_col: np.ndarray      # per unknown: angular index j (-1 for center)
    node_copy: np.ndarray     # per unknown: copy 0 or 1
    center_row: int | None
    wrap: bool

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def center_policy(problem: SectorProblem) -> str:
    """Treatment of r = 0: "regularity_stencil" keeps one center unknown with
    the polar averaging row, "dirichlet_at_center" drops the node (exact
    whenever the eigenfunctions vanish at the origin)."""
    if problem.kind == "quarter":
        return "regularity_stencil" if problem.quarter_case == "NND" else "dirichlet_at_center"
    return "regularity_stencil" if problem.ell == 0 else "dirichlet_at_center"


def assemble(problem: SectorProblem, m: int) -> AssembledOperator:
    """Assemble the polar FD operator for a sector problem on an m x m grid."""
    spec = problem.geometry
    quarter = problem.kind == "quarter"
    if quarter:
        case = problem.quarter_case
        bc_lo, bc_hi = case[0], case[1]
        weight = 1
        label = case
    else:
        bc_lo = bc_hi = ""
        weight = 2 if 0 < problem.ell < spec.n / 2 else 1
        label = f"ell={problem.ell}"
    grid = PolarGrid.for_problem(problem, m)
    dr, dth = grid.dr, grid.dtheta

    if quarter:
        jlo = 0 if bc_lo == "N" else 1
        jhi = m if bc_hi == "N" else m - 1
        cols = np.arange(jlo, jhi + 1)
        wrap = False
    else:
        cols = np.arange(0, m)
        wrap = True
    n_rings = m - 1
    n_cols = cols.size
    ri = dr * np.arange(1, m)

    # The crack arcs of the geometry at the snapped opening, in full-circle
    # angles: the sector sees the first arc (the quarter its part in
    # [eps, pi/2]), and the rotated copies fold onto it mod m.  A requested
    # opening at the fully open end stays open even where the grid has no ray
    # at pi/n (odd m).
    arcs = [] if spec.fully_open else crack_arcs(replace(spec, epsilon=grid.eps))
    active = np.ones((n_rings, n_cols), dtype=bool)
    active[grid.r1_ring - 1, grid.ring_mask(arcs, cols, wrap)] = False

    ids = -np.ones((n_rings, n_cols), dtype=np.int64)
    ids[active] = np.arange(int(active.sum()))
    n1 = int(active.sum())

    policy = center_policy(problem)
    has_center = policy == "regularity_stencil"

    coupled = (not quarter) and (0 < problem.ell < spec.n / 2)
    copies = 2 if coupled else 1
    n = n1 * copies + (1 if has_center else 0)
    center_row = n - 1 if has_center else None

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
        vals.append(np.asarray(v, dtype=np.float64))

    ring_of = np.repeat(np.arange(n_rings), n_cols).reshape(n_rings, n_cols)

    # diagonal
    add(ids[active], ids[active], c_diag[ring_of[active]])

    # radial neighbors between rings t and t+1
    both = active[:-1, :] & active[1:, :]
    a = ids[:-1, :][both]
    b = ids[1:, :][both]
    t = ring_of[:-1, :][both]
    add(a, b, c_out[t])
    add(b, a, c_in[t + 1])

    # angular neighbors inside the column range
    both = active[:, :-1] & active[:, 1:]
    a = ids[:, :-1][both]
    b = ids[:, 1:][both]
    t = ring_of[:, :-1][both]
    add(a, b, c_ang[t])
    add(b, a, c_ang[t])

    seam_entries: list[tuple[np.ndarray, np.ndarray, np.ndarray, str]] = []
    if quarter:
        # Neumann mirror ghosts double the interior angular neighbor
        if bc_lo == "N":
            both = active[:, 0] & active[:, 1]
            add(ids[:, 0][both], ids[:, 1][both], c_ang[np.arange(n_rings)[both]])
        if bc_hi == "N":
            both = active[:, -1] & active[:, -2]
            add(ids[:, -1][both], ids[:, -2][both], c_ang[np.arange(n_rings)[both]])
    else:
        both = active[:, -1] & active[:, 0]
        hi = ids[:, -1][both]
        lo = ids[:, 0][both]
        t = np.arange(n_rings)[both]
        if not coupled:
            sigma = 1.0 if problem.ell == 0 else -1.0
            add(hi, lo, sigma * c_ang[t])
            add(lo, hi, sigma * c_ang[t])
        else:
            seam_entries.append((hi, lo, c_ang[t], "forward"))
            seam_entries.append((lo, hi, c_ang[t], "backward"))

    if coupled:
        # replicate the single-copy pattern for the imaginary copy, then add
        # the rotation-block seam: continuation w(theta + extent) =
        # exp(i*alpha) w(theta) with w = u + i v.
        alpha = 2.0 * math.pi * problem.ell / spec.n
        ca, sa = math.cos(alpha), math.sin(alpha)
        base_r = np.concatenate(rows)
        base_c = np.concatenate(colix)
        base_v = np.concatenate(vals)
        rows = [base_r, base_r + n1]
        colix = [base_c, base_c + n1]
        vals = [base_v, base_v]
        for a, b, cang_t, direction in seam_entries:
            s = -sa if direction == "forward" else sa
            # u-row: ca * u_b + s * v_b ; v-row: -s * u_b + ca * v_b
            add(a, b, ca * cang_t)
            add(a, b + n1, s * cang_t)
            add(a + n1, b, -s * cang_t)
            add(a + n1, b + n1, ca * cang_t)

    mu_total = 0.0
    if has_center:
        # ring-1 rows couple to the center through the inner radial neighbor
        sel = active[0, :]
        add(ids[0, :][sel], np.full(int(sel.sum()), center_row), np.full(int(sel.sum()), c_in[0]))
        # center row: polar regularity stencil, ring-1 average with trapezoid
        # weights (Neumann-axis columns count half: they are shared mirror images)
        mu = np.ones(n_cols)
        if quarter:
            if bc_lo == "N":
                mu[0] = 0.5
            if bc_hi == "N":
                mu[-1] = 0.5
        mu_total = float(mu.sum())
        add([center_row], [center_row], [4.0 / dr**2])
        add(np.full(int(sel.sum()), center_row), ids[0, :][sel],
            -(4.0 / dr**2) * mu[sel] / mu_total)

    matrix = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(colix))),
        shape=(n, n)).tocsr()

    # similarity weights making diag(sqrt(w)) A diag(1/sqrt(w)) symmetric
    w1 = np.empty(n1)
    ring_flat = ring_of[active]
    w1[ids[active]] = ri[ring_flat]
    if quarter:
        if bc_lo == "N":
            sel = active[:, 0]
            w1[ids[:, 0][sel]] *= 0.5
        if bc_hi == "N":
            sel = active[:, -1]
            w1[ids[:, -1][sel]] *= 0.5
    row_weights = np.concatenate([w1] * copies)
    if has_center:
        row_weights = np.concatenate([row_weights, [dr * mu_total / 8.0]])

    node_ring = np.empty(n, dtype=np.int64)
    node_col = np.empty(n, dtype=np.int64)
    node_copy = np.empty(n, dtype=np.int64)
    ring_idx = np.repeat(np.arange(1, m), n_cols).reshape(n_rings, n_cols)
    col_idx = np.tile(cols, (n_rings, 1))
    for copy in range(copies):
        node_ring[ids[active] + copy * n1] = ring_idx[active]
        node_col[ids[active] + copy * n1] = col_idx[active]
        node_copy[ids[active] + copy * n1] = copy
    if has_center:
        node_ring[center_row] = 0
        node_col[center_row] = -1
        node_copy[center_row] = 0

    return AssembledOperator(
        matrix=matrix, grid=grid, sector=SectorTag(label=label, weight=weight),
        problem=problem, row_weights=row_weights, copies=copies, cols=cols,
        node_ring=node_ring, node_col=node_col, node_copy=node_copy,
        center_row=center_row, wrap=wrap)


def dump_operator(op: AssembledOperator, path: str) -> None:
    """Write the operator as `i j value` text (1-based, matrix-market style)."""
    coo = op.matrix.tocoo()
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"% crackspec operator n={op.n}\n")
        for i, j, v in zip(coo.row, coo.col, coo.data):
            fh.write(f"{i + 1} {j + 1} {v:.16g}\n")
