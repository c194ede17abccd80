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
  contribution is zero.  The crack nodes are the r1-ring columns at least
  `PolarGrid.eps_ray` rays from the nearest hole center, none once that ray
  reaches `open_ray`.
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

The stencil is written once, for the fully open sector, as one-dimensional
factors (`SectorFactors`): on the ring nodes A_open = R (x) I + diag(D) (x) T,
plus the center.  The open operator (`open_operator`) does not depend on r1
or epsilon, so `assemble` builds it once per sector grid (kind, ell or
quarter case, n, m, r2), keeps it in a bounded cache (`_OPEN_GRIDS` grids),
and returns every opening as that operator plus the mask `keep` of its
unknowns (`AssembledOperator`, which derives the node arrays on `keep`,
the principal submatrix on `keep` only when it is read, and refuses a mask
that drops a node off the r1 ring).  `eigensolve` checks each open
operator and builds its mode rows once for all of its openings, and keeps
both on the operator (`OpenOperator.derived`), so they go with it.
"""

from __future__ import annotations

import cmath
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .domain import _ANGLE_TOL, SectorProblem, SectorTag

__all__ = [
    "PolarGrid",
    "SectorFactors",
    "OpenOperator",
    "AssembledOperator",
    "assemble",
    "open_operator",
    "dump_operator",
]

MIN_CELLS = 8


class SolverError(RuntimeError):
    """Eigensolver failure."""


class _Slot:
    """One key's place in a `GridCache`: its lock and, once built, its data."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.data = None


class GridCache:
    """A bounded map from keys to data built once, shared by every thread.

    `get(key, build)` returns the data of `key`, calling `build()` for a
    missing key outside the cache's lock, under the key's own: one thread
    builds it while threads that need other keys go on.  Past `size` keys
    the least recently used one is dropped; a `size` of None keeps every
    key."""

    def __init__(self, size: int | None) -> None:
        self.size = size
        self._lock = threading.Lock()
        self._slots: OrderedDict[tuple, _Slot] = OrderedDict()

    def get(self, key: tuple, build):
        with self._lock:
            slot = self._slots.get(key)
            if slot is None:
                slot = self._slots[key] = _Slot()
                if self.size is not None and len(self._slots) > self.size:
                    self._slots.popitem(last=False)
            else:
                self._slots.move_to_end(key)
        with slot.lock:
            if slot.data is None:
                slot.data = build()
            return slot.data

    def clear(self) -> None:
        with self._lock:
            self._slots.clear()

    def __len__(self) -> int:
        return len(self._slots)


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

    def ring_mask(self, arcs) -> np.ndarray:
        """Mask over the m rays of the r1-ring nodes on the closed angular
        arcs `arcs`.

        Each arc end snaps to its nearest ray, and that ray is covered: a node
        exactly at an arc end is Dirichlet.  Ray indices count mod m, so an
        arc may cross theta = 0."""
        cols = np.arange(self.m)
        covered = np.zeros(self.m, dtype=bool)
        for a, b in arcs:
            lo, hi = self.ray(a), self.ray(b)
            covered |= (cols - lo) % self.m <= hi - lo
        return covered


@dataclass(frozen=True)
class SectorFactors:
    """The fully open sector operator in one-dimensional factors, the one
    place the stencil is written.

    On the ring nodes, numbered ring by ring,

        A_open = R (x) I + diag(D) (x) T,

    with R the radial second difference over rings 1..m-1 (Dirichlet at
    r = 0 and r = r2), D = 1/(r_i dtheta)^2 and T the angular matrix: 2 on
    the diagonal, -1/cell[j] off it in row j, and the seam phase for a
    Floquet sector.  The node weights are r_i cell_j.  The center, when
    present, is one more unknown: ring-1 rows see it through `center_in`,
    and its row is `center_diag` on itself and `center_out` on ring 1.

    T's spectrum is known in closed form: its eigenvalues are
    4 sin^2(theta_j / 2), with the frequencies theta_j in [0, pi] listed in
    `frequency`, ascending, each as the reduced fraction theta_j / pi =
    p / q, so that equal frequencies have one fraction in every sector.  A
    Floquet sector has theta = (2 pi k + alpha) / m, k = 0..m-1, folded into
    [0, pi]; a quarter grid has pi k / m (k = 0..m on two Neumann rays,
    1..m-1 on two Dirichlet rays) or pi (2k + 1) / (2m), k = 0..m-1, on
    mixed rays."""

    radial: np.ndarray        # R, (m-1) x (m-1)
    scale: np.ndarray         # D, per ring
    angular: np.ndarray       # T, one row and column per entry of `cols`
    frequency: np.ndarray     # per eigenvalue of T, ascending: (p, q), theta = pi p / q
    r: np.ndarray             # ring radii r_1..r_{m-1}
    cell: np.ndarray          # per column: 1, or 0.5 on a Neumann ray
    has_center: bool
    center_diag: float        # 4/dr^2
    center_in: float          # the ring-1 rows' coefficient on the center
    center_out: np.ndarray    # the center row's coefficients on ring 1
    center_weight: float      # the center's node weight


def _sector_factors(problem: SectorProblem, grid: PolarGrid,
                    cols: np.ndarray) -> SectorFactors:
    m = grid.m
    dr, dth = grid.dr, grid.dtheta
    if problem.kind == "floquet":
        cell = np.ones(m)
        # the eigenfunctions vanish at the origin unless the phase is trivial
        has_center = problem.ell == 0
        n = problem.geometry.n
        p, q = 2 * (n * np.arange(m) + problem.ell), n * m
    else:
        # a Neumann ray is a half cell
        cell = np.where((cols == 0) | (cols == m), 0.5, 1.0)
        # a Dirichlet ray through the origin makes the eigenfunctions vanish there
        has_center = problem.quarter_case == "NND"
        if problem.quarter_case[0] == problem.quarter_case[1]:
            p, q = cols, m
        else:
            p, q = 2 * np.arange(cols.size) + 1, 2 * m
    p = np.minimum(p, 2 * q - p)            # theta and 2 pi - theta
    gcd = np.gcd(p, q)
    frequency = np.stack([p // gcd, q // gcd], axis=1)
    frequency = frequency[np.argsort(p / q, kind="stable")]
    ri = dr * np.arange(1, m)
    c_out = -(1.0 / dr**2 + 1.0 / (2.0 * ri * dr))
    c_in = -(1.0 / dr**2 - 1.0 / (2.0 * ri * dr))
    radial = np.diag(np.full(m - 1, 2.0 / dr**2)) + np.diag(c_out[:-1], 1) + np.diag(c_in[1:], -1)

    # a link out of a half cell is doubled, which is its mirror ghost
    # u_{i,-1} = u_{i,1}
    off = -1.0 / cell
    if problem.weight == 2:
        phase = cmath.exp(2j * math.pi * problem.ell / problem.geometry.n)
    else:
        phase = 1.0 if problem.ell == 0 else -1.0
    angular = np.diag(np.full(cols.size, 2.0, dtype=complex if problem.weight == 2 else float))
    angular += np.diag(off[:-1], 1) + np.diag(off[1:], -1)
    if problem.kind == "floquet":
        # seam: column m-1 sees exp(i*alpha) times column 0, and column 0
        # sees exp(-i*alpha) times column m-1
        angular[-1, 0] = -phase
        angular[0, -1] = -np.conj(phase)

    # the center row is the polar regularity stencil over the ring-1
    # average with cell weights
    return SectorFactors(
        radial=radial, scale=1.0 / (ri**2 * dth**2), angular=angular, frequency=frequency,
        r=ri, cell=cell,
        has_center=has_center, center_diag=4.0 / dr**2, center_in=float(c_in[0]),
        center_out=-(4.0 / dr**2) * cell / cell.sum(), center_weight=dr * cell.sum() / 8.0)


@dataclass(frozen=True, eq=False)
class OpenOperator:
    """The fully open operator of one sector grid: `SectorFactors` on the
    ring nodes, ring by ring, then the center.  Its openings share its
    arrays, so read-only.  `derived` keeps what `eigensolve` derives from it
    for all of its openings, each built once: its checks and its mode rows,
    which live as long as the operator."""

    matrix: sp.csr_matrix
    row_weights: np.ndarray   # node weights w: diag(sqrt(w)) A diag(1/sqrt(w)) is Hermitian
    cols: np.ndarray          # angular indices present on the grid
    node_ring: np.ndarray     # per node: ring index i (0 for the center)
    node_col: np.ndarray      # per node: angular index j (-1 for the center)
    factors: SectorFactors
    derived: GridCache = field(default_factory=lambda: GridCache(None), init=False)


@dataclass(frozen=True, eq=False)
class AssembledOperator:
    """One opening: its grid's open operator without the crack nodes, where
    `keep` is False.  The other fields derive from these four, as copies on
    `keep`, or the open operator's read-only arrays if no node is dropped.
    `matrix`, the principal submatrix on `keep`, is derived on its first
    read (`__getattr__`): the solves apply the open operator, and only the
    dense oracle, `dump_operator` and `capacity` read it."""

    grid: PolarGrid
    problem: SectorProblem
    open: OpenOperator
    keep: np.ndarray
    matrix: sp.csr_matrix = field(init=False, repr=False)
    n: int = field(init=False)
    row_weights: np.ndarray = field(init=False)
    node_ring: np.ndarray = field(init=False)
    node_col: np.ndarray = field(init=False)
    cols: np.ndarray = field(init=False)
    center_row: int | None = field(init=False)
    wrap: bool = field(init=False)
    sector: SectorTag = field(init=False)
    factors: SectorFactors = field(init=False)

    def __post_init__(self) -> None:
        grid_open, keep = self.open, self.keep
        if not (keep.dtype == bool and keep.shape == grid_open.node_ring.shape
                and (grid_open.node_ring[~keep] == self.grid.r1_ring).all()):
            raise SolverError("the operator's unknowns are not its grid's nodes without "
                              "crack nodes on the r1 ring, which signals an assembly bug")
        keep.flags.writeable = False
        n = int(keep.sum())
        sel = keep if n < keep.size else slice(None)
        self.__dict__.update(          # frozen: the fields are set once, here
            n=n, row_weights=grid_open.row_weights[sel], node_ring=grid_open.node_ring[sel],
            node_col=grid_open.node_col[sel], cols=grid_open.cols.copy(),
            wrap=self.problem.kind == "floquet", sector=self.problem.tag,
            center_row=n - 1 if grid_open.factors.has_center else None, factors=grid_open.factors)

    def __getattr__(self, name: str):
        if name != "matrix":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        keep, matrix = self.keep, self.open.matrix
        self.__dict__["matrix"] = matrix = matrix if keep.all() else matrix[keep][:, keep]
        return matrix


def open_operator(problem: SectorProblem, m: int) -> OpenOperator:
    """The fully open operator of a sector problem's m x m grid."""
    grid = PolarGrid.for_problem(problem, m)
    if problem.kind == "floquet":
        cols = np.arange(m)
    else:
        bc_lo, bc_hi = problem.quarter_case[:2]
        cols = np.arange(0 if bc_lo == "N" else 1, m + 1 if bc_hi == "N" else m)
    f = _sector_factors(problem, grid, cols)

    ring, col = np.indices((m - 1, cols.size))     # ring t holds r = (t + 1) * dr
    n1 = ring.size
    ids = np.arange(n1).reshape(ring.shape)
    n = n1 + int(f.has_center)
    rows: list[np.ndarray] = []
    colix: list[np.ndarray] = []
    vals: list[np.ndarray] = []

    def add(a, b, v):
        rows.append(a.ravel())
        colix.append(b.ravel())
        vals.append(np.broadcast_to(v, a.shape).ravel())

    # R (x) I + diag(D) (x) T
    tp, tq = np.nonzero(f.radial)
    add(ids[tp], ids[tq], f.radial[tp, tq][:, np.newaxis])
    jp, jq = np.nonzero(f.angular)
    add(ids[:, jp], ids[:, jq], f.scale[:, np.newaxis] * f.angular[jp, jq])

    if f.has_center:
        first = ids[0, :]
        center = np.full(first.size, n1)
        add(first, center, f.center_in)
        add(np.array([n1]), np.array([n1]), f.center_diag)
        add(center, first, f.center_out)

    matrix = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(colix))),
        shape=(n, n)).tocsr()

    row_weights = f.r[ring.ravel()] * f.cell[col.ravel()]
    node_ring = ring.ravel() + 1
    node_col = cols[col.ravel()]
    if f.has_center:
        row_weights = np.append(row_weights, f.center_weight)
        node_ring = np.append(node_ring, 0)
        node_col = np.append(node_col, -1)
    for array in [matrix.data, matrix.indices, matrix.indptr, row_weights, cols, node_ring,
                  node_col, *(v for v in vars(f).values() if isinstance(v, np.ndarray))]:
        array.flags.writeable = False
    return OpenOperator(matrix=matrix, row_weights=row_weights, cols=cols,
                        node_ring=node_ring, node_col=node_col, factors=f)


# the open operator of each sector grid, which does not depend on r1 or epsilon
_OPEN_GRIDS = 8
_open_grids = GridCache(_OPEN_GRIDS)


def assemble(problem: SectorProblem, m: int) -> AssembledOperator:
    """The opening of a sector problem's m x m grid: its cached open operator and crack mask."""
    spec = problem.geometry
    grid = PolarGrid.for_problem(problem, m)
    key = (problem.kind, problem.quarter_case or problem.ell, spec.n, m, spec.r2)
    grid_open = _open_grids.get(key, lambda: open_operator(problem, m))

    # crack: r1-ring columns >= e rays from a hole center, `period` columns apart
    e = grid.eps_ray(spec.epsilon)
    keep = np.ones_like(grid_open.node_ring, dtype=bool)
    if e < grid.open_ray:
        cols = grid_open.cols
        period = round(2 * grid.eps_open / grid.dtheta)
        crack = np.flatnonzero(np.minimum(cols, period - cols) >= e)
        keep[(grid.r1_ring - 1) * cols.size + crack] = False
    return AssembledOperator(grid=grid, problem=problem, open=grid_open, keep=keep)


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
