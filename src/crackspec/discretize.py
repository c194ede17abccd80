"""Second-order polar finite differences for the sector eigenvalue problems.

The scheme discretizes

    -(u_rr + u_r / r + u_tt / r^2)

on the tensor grid r_i = i*dr (dr = r2/m), theta_j = j*dtheta
(dtheta = extent/m) with the centered stencil

    row(i,j) = -[ (u_{i+1,j} - 2 u_{i,j} + u_{i-1,j}) / dr^2
                + (u_{i+1,j} - u_{i-1,j}) / (2 r_i dr)
                + (u_{i,j+1} - 2 u_{i,j} + u_{i,j-1}) / (r_i dtheta)^2 ].

Conventions (all encoded in the factors, no constraint rows):

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
weights w, r_i times the cell and a matched weight for the center.

The stencil is written once, for the fully open sector, as one-dimensional
factors (`SectorFactors`): on the ring nodes A_open = R (x) I + diag(D) (x) T,
plus the center, with R and T kept as their bands, O(m) numbers each.  The
factors are the operator, and this module owns what is read from them:
their product (`SectorFactors.apply`), which `eigensolve` certifies with and
`capacity` applies its Laplacian with, and the node weights
(`OpenOperator.row_weights`).  The open operator (`open_operator`) does not
depend on r1 or epsilon, so `assemble` builds it once per sector grid (kind,
ell or quarter case, n, m, r2), keeps it in a bounded cache (`_OPEN_GRIDS`
grids), and returns every opening as its sector problem on that operator
(`AssembledOperator`, which works out its grid, its crack, the mask `keep`
of its unknowns and the node arrays on `keep`).  No solve reads a matrix:
the CSR matrix (`OpenOperator.matrix`, and an opening's principal submatrix
on `keep`) is scattered from the bands only when the tests' reference or
the benchmark's tracer reads it, and only then is `scipy.sparse` imported.
"""

from __future__ import annotations

import cmath
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .domain import _ANGLE_TOL, SectorProblem, SectorTag

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "PolarGrid",
    "SectorFactors",
    "OpenOperator",
    "AssembledOperator",
    "assemble",
    "open_operator",
]

MIN_CELLS = 8


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
    r = 0 and r = r2), D = 1/(r_i dtheta)^2 and T the angular second
    difference: 2 on the diagonal, -1/cell[j] off it in row j, and the seam
    phase for a Floquet sector.  Each factor X of size n is kept as the
    data the stencil defines, its three bands, periodic: rows 0, 1 and 2
    hold X[j, j-1], X[j, j] and X[j, j+1], indices mod n.  R's wrapped
    entries R[0, -1] and R[-1, 0] are 0; T's are its seam corners, 0 on a
    quarter grid.  The node weights are r_i cell_j.  The center, when
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

    radial: np.ndarray        # R's bands, 3 x (m-1)
    scale: np.ndarray         # D, per ring
    angular: np.ndarray       # T's bands, 3 x (entries of `cols`)
    frequency: np.ndarray     # per eigenvalue of T, ascending: (p, q), theta = pi p / q
    r: np.ndarray             # ring radii r_1..r_{m-1}
    cell: np.ndarray          # per column: 1, or 0.5 on a Neumann ray
    has_center: bool
    center_diag: float        # 4/dr^2
    center_in: float          # the ring-1 rows' coefficient on the center
    center_out: np.ndarray    # the center row's coefficients on ring 1
    center_weight: float      # the center's node weight

    def apply(self, x: np.ndarray) -> np.ndarray:
        """A_open x for a vector x, or for each column of a block x of shape
        (nodes, k), in the operator's field, on the open operator's nodes
        (ring by ring, then the center): diag(D) (x) T and R (x) I by their
        bands, plus the center's row and column.  T's product is formed
        before D scales it, so the angular links of the inner rings, which
        grow like M^4, act on differences of x instead of cancelling.  Only
        T's seam corners carry the Floquet phase, so the rest of its bands
        multiply as reals.  A block is taken as its k rows x^T, each one
        contiguous, and gets the same band operations broadcast over them
        and one dot product each for the center's row, so each column's
        product is the bits of its own."""
        rings, cols = self.r.size, self.cell.size
        xt = np.ascontiguousarray(x.T)
        lead = xt.shape[:-1]
        u = xt[..., :rings * cols].reshape(*lead, rings, cols)
        t_in, t_diag, t_out = self.angular
        y = u * t_diag.real
        y[..., :-1] += u[..., 1:] * t_out[:-1].real
        y[..., 1:] += u[..., :-1] * t_in[1:].real
        y[..., -1] += t_out[-1] * u[..., 0]
        y[..., 0] += t_in[0] * u[..., -1]
        y *= self.scale[:, np.newaxis]
        r_in, r_diag, r_out = self.radial[:, :, np.newaxis]
        y += u * r_diag
        y[..., :-1, :] += u[..., 1:, :] * r_out[:-1]
        y[..., 1:, :] += u[..., :-1, :] * r_in[1:]
        y = y.reshape(*lead, rings * cols)
        if self.has_center:
            center = xt[..., -1:]
            y[..., :cols] += self.center_in * center
            ring1 = [self.center_out @ v for v in u[..., 0, :].reshape(-1, cols)]
            y = np.concatenate([y, self.center_diag * center
                                + np.reshape(ring1, center.shape)], axis=-1)
        return y.T


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
    radial = np.stack([c_in, np.full(m - 1, 2.0 / dr**2), c_out])
    radial[0, 0] = radial[2, -1] = 0.0          # no ring past r = 0 or r = r2

    # a link out of a half cell is doubled, which is its mirror ghost
    # u_{i,-1} = u_{i,1}
    off = -1.0 / cell
    if problem.weight == 2:
        phase = cmath.exp(2j * math.pi * problem.ell / problem.geometry.n)
    else:
        phase = 1.0 if problem.ell == 0 else -1.0
    angular = np.array([off, np.full(cols.size, 2.0), off], dtype=type(phase))  # complex or real
    # seam: column m-1 sees exp(i*alpha) times column 0, and column 0 sees
    # exp(-i*alpha) times column m-1; a quarter grid has none
    seam = problem.kind == "floquet"
    angular[2, -1], angular[0, 0] = (-phase, -np.conj(phase)) if seam else (0.0, 0.0)

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
    arrays, so read-only.  `row_weights`, the node weights w, are derived
    from the factors: r (x) cell on the rings, then the center's.  `matrix`,
    the factors' operator as a read-only CSR matrix, is scattered from them
    on its first read (`__getattr__`), by the tests or the benchmark's
    tracer.  `derived` keeps what `eigensolve` derives from it for all of
    its openings, built once: its checked mode rows."""

    cols: np.ndarray          # angular indices present on the grid
    node_ring: np.ndarray     # per node: ring index i (0 for the center)
    node_col: np.ndarray      # per node: angular index j (-1 for the center)
    factors: SectorFactors
    row_weights: np.ndarray = field(init=False)  # diag(sqrt(w)) A diag(1/sqrt(w)) is Hermitian
    matrix: sp.csr_matrix = field(init=False, repr=False)
    derived: GridCache = field(default_factory=lambda: GridCache(None), init=False)

    def __post_init__(self) -> None:
        f = self.factors
        weights = np.outer(f.r, f.cell).ravel()
        if f.has_center:
            weights = np.append(weights, f.center_weight)
        weights.flags.writeable = False
        self.__dict__["row_weights"] = weights     # frozen: the field is set once, here

    def __getattr__(self, name: str):
        if name != "matrix":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self.__dict__["matrix"] = matrix = _scatter(self.factors)
        return matrix


@dataclass(frozen=True, eq=False)
class AssembledOperator:
    """One opening: a sector problem on its grid's open operator, without
    the crack nodes.  Everything else derives from these two: the grid, m
    x m with m one more than the open operator's rings; `crack`, per column
    of `cols`, True on the r1-ring columns at least `PolarGrid.eps_ray`
    rays from a hole center, none once that ray reaches `open_ray`; `keep`,
    the open operator's nodes off the crack; and the node arrays, copies on
    `keep`, or the open operator's read-only arrays if the crack is empty.
    `matrix`, the principal submatrix on `keep` of the open operator's, is
    derived on its first read (`__getattr__`), like that one: the solves
    apply the factors."""

    problem: SectorProblem
    open: OpenOperator
    grid: PolarGrid = field(init=False)
    crack: np.ndarray = field(init=False)
    keep: np.ndarray = field(init=False)
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
        grid_open, cols = self.open, self.open.cols
        grid = PolarGrid.for_problem(self.problem, grid_open.factors.r.size + 1)
        # crack: r1-ring columns >= e rays from a hole center, `period` columns apart
        e = grid.eps_ray(self.problem.geometry.epsilon)
        crack = np.zeros(cols.size, dtype=bool)
        if e < grid.open_ray:
            period = round(2 * grid.eps_open / grid.dtheta)
            crack = np.minimum(cols, period - cols) >= e
        keep = np.ones_like(grid_open.node_ring, dtype=bool)
        keep[(grid.r1_ring - 1) * cols.size + np.flatnonzero(crack)] = False
        crack.flags.writeable = keep.flags.writeable = False
        n = int(keep.sum())
        sel = keep if n < keep.size else slice(None)
        self.__dict__.update(          # frozen: the fields are set once, here
            grid=grid, crack=crack, keep=keep, n=n, row_weights=grid_open.row_weights[sel],
            node_ring=grid_open.node_ring[sel], node_col=grid_open.node_col[sel],
            cols=cols.copy(), wrap=self.problem.kind == "floquet", sector=self.problem.tag,
            center_row=n - 1 if grid_open.factors.has_center else None, factors=grid_open.factors)

    def __getattr__(self, name: str):
        if name != "matrix":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        keep, matrix = self.keep, self.open.matrix
        self.__dict__["matrix"] = matrix = matrix if keep.all() else matrix[keep][:, keep]
        return matrix


def band_matrix(bands: np.ndarray) -> np.ndarray:
    """The dense matrix of a factor's bands, in the layout of `SectorFactors`."""
    n = bands.shape[1]
    rows = np.arange(n)
    matrix = np.zeros((n, n), dtype=bands.dtype)
    for offset, band in zip((-1, 0, 1), bands):
        matrix[rows, (rows + offset) % n] += band
    return matrix


def _scatter(f: SectorFactors) -> sp.csr_matrix:
    """The factors' operator as a read-only CSR matrix: R (x) I + diag(D) (x)
    T on the ring nodes, ring by ring, then the center's row and column."""
    import scipy.sparse as sp       # only the tests and the benchmark's tracer read it

    radial, angular = (sp.csr_matrix(band_matrix(bands)) for bands in (f.radial, f.angular))
    matrix = sp.kron(radial, sp.identity(f.cell.size)) + sp.kron(sp.diags(f.scale), angular)
    if f.has_center:            # its column and row: center_in and center_out on ring 1
        into, out = np.zeros((2, matrix.shape[0]))
        into[:f.cell.size], out[:f.cell.size] = f.center_in, f.center_out
        matrix = sp.bmat([[matrix, into[:, np.newaxis]], [out[np.newaxis], [[f.center_diag]]]])
    matrix = matrix.tocsr()
    for array in (matrix.data, matrix.indices, matrix.indptr):
        array.flags.writeable = False
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
    node_ring = ring.ravel() + 1
    node_col = cols[col.ravel()]
    if f.has_center:
        node_ring = np.append(node_ring, 0)
        node_col = np.append(node_col, -1)
    for array in [cols, node_ring, node_col,
                  *(v for v in vars(f).values() if isinstance(v, np.ndarray))]:
        array.flags.writeable = False
    return OpenOperator(cols=cols, node_ring=node_ring, node_col=node_col, factors=f)


# the open operator of each sector grid, which does not depend on r1 or epsilon
_OPEN_GRIDS = 8
_open_grids = GridCache(_OPEN_GRIDS)


def assemble(problem: SectorProblem, m: int) -> AssembledOperator:
    """The opening of a sector problem on its m x m grid's cached open operator."""
    spec = problem.geometry
    key = (problem.kind, problem.quarter_case or problem.ell, spec.n, m, spec.r2)
    return AssembledOperator(problem, _open_grids.get(key, lambda: open_operator(problem, m)))

