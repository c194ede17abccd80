"""Lowest eigenpairs of an assembled operator, with residual certificates.

The discrete operator is non-Hermitian but similar to a Hermitian matrix
through diag(sqrt(w)) with the node weights carried by the operator: real
symmetric for the scalar sectors and quarter problems, complex Hermitian for
the complex Floquet sectors.  There is one solve path, a secular solve on
the symmetrized matrix S, with the eigenvectors mapped back.  It reads the
operator only through its one-dimensional factors and never forms its
matrix.  Eigenvectors of a complex operator stay complex.

Every opening of a sector is the same fully open tensor-product operator
(`discretize.SectorFactors`) without its crack nodes F on the r1 ring; the
rest of the ring is the hole H.  In its mode rows (`_ModeRows`, built once
per open operator and kept on it, in `OpenOperator.derived`, so that they
go with it), each angular mode j of the open operator is a symmetric
tridiagonal T_j = Rs + lam_j diag(D) over the rings.  The angular
eigenvalues lam_j = 4 sin^2(theta_j / 2) come from the closed-form
frequencies theta_j of `SectorFactors.frequency`, so equal frequencies give
equal lam_j to the bit in every sector.  A side of an r1 ring (`_Side`,
built on its first use and kept with the mode rows, which keep the last
`_SIDES`) is the spectrum that one of its capacitance matrices has poles
at, mode by mode: the eigenvalues of the tridiagonal blocks of T_j between
its held rows, each with the square of its eigenvector's dot with the
side's unit row.
- The open side holds no row of T_j: its poles are the eigenvalues nu_ij of
  the T_j, the open operator's spectrum, and the unit row is the r1 ring's,
  which gives the eigenvectors' ring entries q_ij.  The crack's capacitance
  matrix is C(lambda) = V_F diag(g(lambda)) V_F^H, the block of
  (S - lambda)^-1 on F, with g_j(lambda) = sum_i q_ij^2 / (nu_ij - lambda)
  (Buzbee, Dorr, George & Golub, SIAM J. Numer. Anal. 8 (1971); Golub, SIAM
  Rev. 15 (1973)).
- The closed side holds the r1 row: its poles are the eigenvalues mu_ij of
  each T_j without that row (two tridiagonals, inside and outside the ring),
  the fully closed spectrum, and the unit row carries the ring's links.  The
  hole's capacitance matrix is D(lambda) = V_H diag(1/g(lambda)) V_H^H, the
  block on H of the inverse of the ring block of (S - lambda)^-1, with 1/g_j
  the Schur complement of T_j - lambda on its r1 row (Proskurowski &
  Widlund, Math. Comp. 30 (1976)).
T_j depends on the sector only through lam_j, so one table per radial grid
and r1 ring (`_radial_tables`, the module's one cache, for at most
`_RADIAL_GRIDS` of them, keyed by the radial rows' values) holds each
side's poles and weights for each lam met, and every mode but the center's
bordered one takes them from it: the four quarter grids at M share
theta = pi j / M (NND, DDD) and pi (2j + 1) / (2M) (NDD, DND) and run
2M + 1 tridiagonal eigensolves per side, not 4M.  Each opening (`_Secular`)
is solved on the smaller side, the hole when |H| < |F|: lambda is an
eigenvalue exactly when that side's matrix, of size at most m x m, is
singular (Jacobi's complementary minors), and Haynsworth's inertia
additivity counts the opening's eigenvalues below any sigma,
N = #{nu < sigma} - neg(C) = #{mu < sigma} + neg(D).  The counts isolate
each root between two poles, a safeguarded Newton step on the eigenvalue
branch of the matrix that crosses zero converges it, and after the roots
are found the counts certify that none was skipped.  An eigenvector is one
banded solve over the modes' tridiagonals (on the hole, with the ring row
held at the hole's values) and one angular transform.  On a fully open or
fully closed grid the side's matrix is empty, and the same path finds
every root at a pole, with the pole's tridiagonal eigenvectors.

The check of an open operator (`_check_grid`) runs where its mode rows are
built (`_grid_rows`), once for all of its solves, on its factors' bands,
and symmetrizes them for the rows: S is Hermitian when r^1/2 R r^-1/2 is
symmetric, cell^1/2 T cell^-1/2 Hermitian, and the center's links into
ring 1 and out of it match through its weight; an opening is a principal
submatrix of S.  An open operator that fails it raises `SolverError` at
every solve, as do one that is not positive definite, a capacitance block
whose Cholesky fails, or a count that contradicts the roots.

`open_solve` inverts an open operator (`OpenOperator`) from the same
checked rows, without their spectra: the angular transform, one
positive-definite tridiagonal solve over every mode, whose pivots prove the
open operator positive definite, and the transform back.  It gives the Green's column of
the capacitary potential.

Every reported pair carries the certificate  ||A v - lambda v|| / ||v||,
with A v the open operator's product with v on the opening's nodes, applied
from the factors (`SectorFactors.apply`): banded, R (x) I + diag(D) (x) T
plus the center's row and column.

Every solve runs on one BLAS thread: `lowest_eigenpairs`, like
`capacity.capacitary_potential`, holds `one_blas_thread`, which sets every
OpenBLAS in the process to one thread while any solve is inside and restores
each library's count when the last one leaves.  Those are scipy's (the
tridiagonal eigensolves and solves) and numpy's (the capacitance matrices'
eigensolves, which release the GIL, and every `@`).  The sweep's thread pool
is then the only parallelism, OpenBLAS threads do not spin against it, and
the result does not depend on the machine's core count.  A library that is
not OpenBLAS is left as it is.
"""

from __future__ import annotations

import ctypes
import importlib
import itertools
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack

from .discretize import AssembledOperator, GridCache, OpenOperator, SectorFactors, band_matrix

__all__ = ["SolverError", "Spectrum", "open_solve", "lowest_eigenpairs",
           "group_multiplicities"]

_ASYM_TOL = 1e-9            # relative residual of each part of `_check_grid`
_EPS = np.finfo(float).eps
_MAX_STEPS = 200            # root steps per eigenvalue
_CLUSTER_GAP = 1e-9         # relative offset of the completeness counts
_SIDES = 4                  # sides kept per open operator: both sides of two r1 rings


class SolverError(RuntimeError):
    """Eigensolver failure."""


def _openblas_thread_controls():
    """The (get, set) thread-count functions of each OpenBLAS in the process,
    one pair per library: scipy's, found through its Cython BLAS module, and
    numpy's, through its multiarray module.  The wheels export them as
    `scipy_openblas_*` (numpy's 64-bit integer build with the suffix `64_`),
    a system OpenBLAS as `openblas_*`; a library with neither is skipped."""
    controls = []
    for modules in (("scipy.linalg.cython_blas",),
                    ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath")):
        for module in modules:
            try:
                lib = ctypes.CDLL(importlib.import_module(module).__file__)
            except (ImportError, OSError):
                continue                    # numpy 1.x has no numpy._core
            for prefix, suffix in itertools.product(("scipy_openblas", "openblas"), ("", "64_")):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and set_ is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    controls.append((get, set_))
                    break
            break                           # the first module that imports
    return tuple(controls)


class _OneBlasThread:
    """Re-entrant, thread-safe scope that holds each OpenBLAS of `controls`
    at one thread while any holder is inside, and restores each library's
    count found on first entry when the last holder leaves.  The counts are
    process-global (so is `openblas_set_num_threads_local` in the wheels'
    builds: set from one thread, every thread reads it), so the holders
    share one counter.  With no controls it does nothing."""

    def __init__(self, controls):
        self._controls = controls
        self._lock = threading.Lock()
        self._users = 0
        self._saved = ()

    def __enter__(self):
        with self._lock:
            if self._users == 0:
                self._saved = tuple(get() for get, _ in self._controls)
                for _, set_ in self._controls:
                    set_(1)
            self._users += 1
        return self

    def __exit__(self, *exc):
        with self._lock:
            self._users -= 1
            if self._users == 0:
                for (_, set_), count in zip(self._controls, self._saved):
                    set_(count)


one_blas_thread = _OneBlasThread(_openblas_thread_controls())


@dataclass
class Spectrum:
    """Certified lowest eigenvalues of one sector operator, with their unit
    eigenvectors."""

    eigenvalues: np.ndarray
    residuals: np.ndarray
    vectors: np.ndarray


def _certify(op: AssembledOperator, lam: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """||A v - lam v|| / ||v|| per pair, with A v the open operator's product
    with v scattered onto `keep`, on the rows of `keep`: the opening's own
    product, plus products with zeros."""
    node = np.zeros(op.keep.size, dtype=vecs.dtype)
    residuals = np.empty(lam.size)
    for j, (v, lam_j) in enumerate(zip(vecs.T, lam)):
        node[op.keep] = v
        r = op.factors.apply(node)[op.keep] - lam_j * v
        residuals[j] = np.sqrt(np.vdot(r, r).real / np.vdot(v, v).real)
    return residuals


class _Symmetrized(NamedTuple):
    """The symmetrized parts of an open operator's factors, from `_check_grid`."""

    factors: SectorFactors
    radial: np.ndarray          # Rs, the Hermitian part of r^1/2 R r^-1/2, in R's bands
    angular: np.ndarray         # Ts, that of cell^1/2 T cell^-1/2, in T's bands
    link: np.ndarray | None     # S's links between the center and ring 1
    residuals: dict             # the relative asymmetry of each part


def _check_grid(f: SectorFactors) -> _Symmetrized:
    """The check of an open operator, on its factors, which covers all of its
    openings (principal submatrices of its S), and the one place they are
    symmetrized.  Each factor scaled to X = s F s^-1 by the square roots s
    of its weights (r for R, cell for T) splits on its bands into (X + X^H)/2
    and max |X - X^H| / max |X|, and the center's links into ring 1 and out
    of it into their mean and relative mismatch; `_ASYM_TOL` bounds each."""
    def hermitian(bands, weights):
        s = np.sqrt(weights)
        x = bands * s / np.stack([np.roll(s, 1), s, np.roll(s, -1)])
        xh = np.stack([np.roll(x[2], 1), x[1], np.roll(x[0], -1)]).conj()
        return (x + xh) / 2, np.abs(x - xh).max() / np.abs(x).max()

    (rs, rad_res), (ts, ang_res) = hermitian(f.radial, f.r), hermitian(f.angular, f.cell)
    residuals = {"radial factor": rad_res, "angular factor": ang_res}
    link = None
    if f.has_center:
        into = f.center_in * np.sqrt(f.r[0] * f.cell / f.center_weight)
        out = f.center_out * np.sqrt(f.center_weight / (f.r[0] * f.cell))
        link = (into + out) / 2
        residuals["center links"] = np.abs(into - out).max() / np.abs(into).max()
    for part, residual in residuals.items():
        if not residual <= _ASYM_TOL:
            raise SolverError(f"symmetrized operator is not Hermitian (relative residual "
                              f"{residual:.3e} in its {part}); this signals an assembly bug")
    return _Symmetrized(f, rs, ts, link, residuals)


def _angular_modes(sym: _Symmetrized):
    """The unit eigenvectors v (columns) of the symmetrized angular factor
    Ts of `_check_grid`, formed here from its bands as a dense matrix for
    its eigh, and their eigenvalues lam = 4 sin^2(theta/2) from the
    closed-form frequencies of `SectorFactors.frequency`: exact to
    round-off, also where eigh would give a small lam only to eps * ||Ts||,
    and equal to the bit for equal frequencies in every sector.  The center,
    when present, couples to the constant mode sqrt(cell) alone: mode 0 is
    exactly that (lam = 0), and the others are exactly orthogonal to it."""
    f = sym.factors
    _, v = sla.eigh(band_matrix(sym.angular).toarray())
    sc = np.sqrt(f.cell)
    if f.has_center:
        v[:, 0] = sc / np.sqrt(f.cell.sum())
        v[:, 1:] -= v[:, :1] * (v[:, :1] * v[:, 1:]).sum(axis=0)
        v[:, 1:] /= np.sqrt((v[:, 1:] ** 2).sum(axis=0))
    p, q = f.frequency.T
    return v, 4 * np.sin(np.pi * p / (2 * q)) ** 2


class _ModeRows:
    """The open operator of one sector grid, angular mode by angular mode.

    In the angular modes v_j of `_angular_modes` (the columns of `ang`) the
    symmetrized open operator is S = sum_j T_j (x) v_j v_j^H, with the
    symmetric tridiagonal T_j = Rs + lam_j diag(D) over the rings, from the
    bands of `_check_grid`; with a center, T_0 has the center bordered in
    first, linked to ring 1 by S's links projected on v_0.  Each T_j is kept
    as a row of `diag` and `off`, all of one length L: with a center,
    the other modes get a decoupled dummy row in front (`lead`), so that
    each ring is one entry of every row.  `coupling` is `off` with the rows
    laid end to end, a zero between two modes, for the banded solves over
    every mode at once.  Nothing here depends on r1: `side` builds each side
    of an r1 ring on its first use, and `sides` keeps the last `_SIDES`.
    In every mode but the bordered one T_j depends on the sector only
    through lam_j, so `radial`, the bytes of Rs's bands and of D, keys
    the side tables that grids with equal radial rows share."""

    def __init__(self, sym: _Symmetrized) -> None:
        self.sides = GridCache(_SIDES)
        v, self.lam = _angular_modes(sym)
        self.ang = v
        f = sym.factors
        self.has_center = f.has_center
        rad, rad_off = sym.radial[1], sym.radial[2, :-1]
        self.radial = (rad.tobytes(), rad_off.tobytes(), f.scale.tobytes())
        lead = int(f.has_center)
        rows = f.r.size + lead
        self.lead = np.zeros(self.lam.size, dtype=int)
        self.diag = np.ones((self.lam.size, rows))
        self.off = np.zeros((self.lam.size, rows - 1))
        for j, lj in enumerate(self.lam):
            if f.has_center and j == 0:                 # lam[0] = 0
                self.diag[j] = np.append(f.center_diag, rad)
                self.off[j] = np.append((v[:, 0] * sym.link).sum(), rad_off)
            else:
                self.lead[j] = lead
                self.diag[j, lead:] = rad + lj * f.scale
                self.off[j, lead:] = rad_off
        e = np.zeros(self.diag.shape)
        e[:, :-1] = self.off
        self.coupling = e.ravel()[:-1]

    def field(self, z: np.ndarray) -> np.ndarray:
        """The open grid's nodes of mode coefficients z."""
        x = (z[:, int(self.has_center):].T @ self.ang.T).reshape(-1)
        return np.append(x, z[0, 0]) if self.has_center else x

    def coefficients(self, x: np.ndarray) -> np.ndarray:
        """The mode coefficients of the open grid's nodes x: the inverse of `field`."""
        lead = int(self.has_center)
        z = np.zeros(self.diag.shape, dtype=np.result_type(x, self.ang))
        z[:, lead:] = (x[:x.size - lead].reshape(-1, self.ang.shape[0]) @ self.ang.conj()).T
        if self.has_center:
            z[0, 0] = x[-1]
        return z

    def side(self, ring: int, hole: bool) -> _Side:
        """The open (False) or closed (True) side of the r1 ring `ring`,
        built on its first use."""
        return self.sides.get((ring, hole), lambda: _Side(self, ring, hole))

    def solve_open(self, rhs: np.ndarray) -> np.ndarray:
        """T_j^-1 rhs[j] for every mode j: one LDL^T solve over the modes'
        tridiagonals end to end (LAPACK dptsv).  It stops at the first pivot
        that is not positive, so a solve proves the open operator positive
        definite."""
        _, _, x, info = lapack.dptsv(self.diag.ravel(), self.coupling, rhs.reshape(-1, 1))
        if info != 0:
            raise SolverError(
                f"the open operator is not positive definite (pivot {info} of its "
                "modes' tridiagonals), which signals an assembly bug")
        return x.reshape(self.diag.shape)


class _Side:
    """One side of the r1 ring of a sector grid, for the capacitance matrix
    of the crack (the open side, `hole` False) or of the hole (the closed
    side): the poles of its mode functions

        phi_j(sigma) = alpha_j + beta sigma + sum_i w_ij / (p_ij - sigma),

    which rise with sigma between poles.  The r1 ring is row `ring` of
    every T_j.  The side holds some rows of every T_j (`held`): the dummy
    rows, and on the closed side the r1 ring.  The rows between two held
    rows are a block, a tridiagonal of its own.
    `poles[j]` holds the eigenvalues p_ij of mode j's blocks, block by block
    and ascending in each (+inf where it has fewer), and `weights[j]` the
    squares w_ij = (y_ij . unit[j])^2 for their unit eigenvectors y_ij
    (`vector`).
    - On the open side T_j is one block, so p_ij = nu_ij, the open
      operator's spectrum, and `unit[j]` is the ring's unit row, so w_ij =
      q_ij^2, the squared ring entries: phi_j is the Green's value g_j(sigma)
      = sum_i q_ij^2 / (nu_ij - sigma), with no affine part.
    - On the closed side the blocks are T_j inside and outside the ring, so
      p_ij = mu_ij, the fully closed spectrum, and `unit[j]` is 1 on the ring
      and minus the ring's links on the rows next to it: the Schur
      complement of T_j - sigma on its ring row is 1/g_j(sigma) =
      (a_j - sigma) - sum_i w_ij / (mu_ij - sigma), with a_j the ring row's
      diagonal entry, and phi_j = -1/g_j: alpha_j = -a_j and beta = 1.
    `solve` applies (T_j - sigma)^-1 on the blocks, so that
    `solve(sigma, unit)` is the mode rows of a vector that the side's
    capacitance matrix maps to zero.  T_j depends on the sector only through
    lam_j, so every mode but the bordered one takes p_ij and w_ij from the
    table by side and lam of its radial rows and r1 ring (`_ModeRows.radial`
    and the ring), which every sector on that radial grid shares: each lam
    is solved once per side, by whichever thread needs it first, and modes
    of one frequency share the poles and weights to the bit.  `g0` is
    sum_i w_ij / p_ij per mode, on the open side the Green's value g_j(0).
    `sorted` lists the finite poles ascending and `order` their flat
    indices; `values`, `first` and `size` list the distinct poles ascending
    after a pole at 0 with no copies, each with the index in `sorted` of its
    first copy and its number of copies."""

    def __init__(self, rows: _ModeRows, ring: int, hole: bool) -> None:
        self.rows, self.hole = rows, hole
        shape = rows.diag.shape
        self.ring = r = ring - 1 + int(rows.has_center)
        self.held = np.zeros(shape, dtype=bool)
        self.held[rows.lead > 0, 0] = True
        self.held[:, r] = hole
        links = np.zeros(shape)
        links[:, :-1] = np.where(self.held[:, :-1] | self.held[:, 1:], 0.0, rows.off)
        self.coupling = links.ravel()[:-1]
        self.alpha, self.beta = (-rows.diag[:, r], 1.0) if hole else (0.0, 0.0)
        self.unit = np.zeros(shape)
        self.unit[:, r] = 1.0
        if hole and r > 0:
            self.unit[:, r - 1] = -rows.off[:, r - 1]
        if hole and r + 1 < shape[1]:
            self.unit[:, r + 1] = -rows.off[:, r]
        radial = _radial_tables.get((*rows.radial, ring), lambda: GridCache(None))
        self.poles = np.full(shape, np.inf)
        self.weights = np.zeros(shape)
        for j, lj in enumerate(rows.lam):
            if rows.has_center and j == 0:
                p, w = self._spectrum(j)
            else:
                p, w = radial.get((hole, lj), lambda: self._spectrum(j))
            self.poles[j, :p.size], self.weights[j, :p.size] = p, w
        if not self.poles.min() > 0:
            raise SolverError(
                f"the {'closed' if hole else 'open'} operator has eigenvalue "
                f"{self.poles.min():.3e} <= 0; it is not positive definite, which signals "
                "an assembly bug")
        self.g0 = (self.weights / self.poles).sum(axis=1)
        flat = self.poles.ravel()
        self.order = np.argsort(flat, kind="stable")[:np.isfinite(flat).sum()]
        self.sorted = flat[self.order]
        values, first, size = np.unique(self.sorted, return_index=True, return_counts=True)
        self.values, self.first, self.size = (np.append(0, a) for a in (values, first, size))
        self._vectors: dict[tuple, np.ndarray] = {}

    def _blocks(self, j: int):
        """The row ranges of mode j's blocks."""
        lo, r, end = self.rows.lead[j], self.ring, self.rows.diag.shape[1]
        return ((lo, r), (r + 1, end)) if self.hole else ((lo, end),)

    def _spectrum(self, j: int):
        """(p, w) of mode j."""
        p, w = [], []
        for lo, hi in self._blocks(j):
            if hi > lo:
                e, y = sla.eigh_tridiagonal(self.rows.diag[j, lo:hi], self.rows.off[j, lo:hi - 1])
                p.append(e)
                w.append((self.unit[j, lo:hi] @ y) ** 2)
        return np.concatenate(p), np.concatenate(w)

    def vector(self, j: int, i: int) -> np.ndarray:
        """The unit eigenvector of p_ij as a row of length L, 0 off its
        block, read-only and kept: the openings of a grid border the same
        poles."""
        y = self._vectors.get((j, i))
        if y is None:
            k = i
            for lo, hi in self._blocks(j):
                if k < hi - lo:
                    break
                k -= hi - lo
            _, v = sla.eigh_tridiagonal(self.rows.diag[j, lo:hi], self.rows.off[j, lo:hi - 1],
                                        select="i", select_range=(k, k))
            y = np.zeros(self.rows.diag.shape[1])
            y[lo:hi] = v[:, 0]
            y.flags.writeable = False
            self._vectors[j, i] = y
        return y

    def solve(self, sigma: float, rhs: np.ndarray) -> np.ndarray:
        """(T_j - sigma)^-1 rhs[j] on the blocks of every mode j, each held
        row kept at its entry of rhs: one banded solve with partial pivoting
        over the modes' rows end to end, with the identity's row and column
        in place of every held row's."""
        d = np.where(self.held, 1.0, self.rows.diag - sigma)
        _, _, _, x, info = lapack.dgtsv(self.coupling, d.ravel(), self.coupling,
                                        rhs.reshape(-1, 1))
        if info != 0:
            raise SolverError(f"a mode's tridiagonal is singular at {sigma!r}")
        return x.reshape(d.shape)


# the side tables of each radial grid and r1 ring, which its sector grids share
_RADIAL_GRIDS = 8
_radial_tables = GridCache(_RADIAL_GRIDS)


def _grid_rows(grid_open: OpenOperator) -> _ModeRows:
    """The mode rows of an open operator's checked factors, built once and
    kept on it."""
    return grid_open.derived.get(("rows",), lambda: _ModeRows(_check_grid(grid_open.factors)))


def open_solve(grid_open: OpenOperator, b: np.ndarray) -> np.ndarray:
    """A^-1 b for the matrix A of a real open operator, from its mode rows
    (`_ModeRows`): b scaled by sqrt(w) into angular modes, one LDL^T solve
    over every mode's tridiagonal (`_ModeRows.solve_open`), back to the
    nodes, and scaled by 1/sqrt(w).  Raises `SolverError` when a pivot of
    the solve is not positive: the open operator is then not positive
    definite."""
    if np.iscomplexobj(grid_open.factors.angular) or np.iscomplexobj(b):
        raise ValueError("open_solve takes a fully open real operator and a real vector")
    rows = _grid_rows(grid_open)
    d = np.sqrt(grid_open.row_weights)
    return rows.field(rows.solve_open(rows.coefficients(b * d))) / d


class _Secular:
    """The lowest eigenpairs of one opening as the roots of the capacitance
    matrix of one side of the r1 ring (`_Side`).

    The opening's operator is S, the grid's open operator, without the crack
    nodes F on the r1 ring; the hole H is the rest of the ring.  The opening
    is solved on the smaller of the two, the hole when |H| < |F|.  With V_X
    the rows of V = `_ModeRows.ang` on the side's columns X, its capacitance
    matrix is

        Phi(sigma) = V_X diag(phi(sigma)) V_X^H:

    on the crack (the open side) the block C of (S - sigma)^-1 on F
    (Buzbee, Dorr, George & Golub); on the hole (the closed side) -D, with D
    the block on H of the ring's Schur complement of S - sigma, the inverse
    of the ring block of (S - sigma)^-1 (Proskurowski & Widlund).  Away from
    the side's poles, lambda is an eigenvalue exactly when Phi(lambda) is
    singular (Jacobi's complementary minors), and by Haynsworth's inertia
    additivity the opening has

        N(sigma) = #{p_ij < sigma} + offset - neg(Phi(sigma))

    eigenvalues below sigma, with `offset` 0 on the crack and |H| on the
    hole, where N = #{mu_ij < sigma} + neg(D).  Phi is kept congruent to
    |Phi(0)|^-1/2 Phi |Phi(0)|^-1/2, which has the same inertia and roots:
    |Phi(0)| = V_X diag(g(0)^+-1) V_X^H, from the open side's Green's
    values g(0) (+ on the crack, - on the hole), is positive definite as a
    block of the inverse of a positive definite matrix, or of its Schur
    complement, so
    Phi(0) = +-I, and the modes that barely move with lambda hold their
    eigenvalues near +-1, away from the zero that a root's branch crosses.
    Phi' is positive semidefinite, so between two poles the eigenvalues of
    Phi rise with lambda.  A root is isolated between two adjacent poles
    (the lowest of them the pole 0) by counts at the poles themselves, and
    converged by a safeguarded Newton step on the eigenvalue branch that
    crosses zero there.  Shifts are an origin pole plus an offset tau, and
    the terms of both poles of the interval are bordered out of Phi
    (`bordered`), so a root within round-off of a pole (an eigenvector that
    barely sees the side) keeps its relative distance to it, also between
    two close poles: on the paper's ring, the hole side's root near j02^2
    lies between the closed poles of the inner and outer blocks of one
    mode.  A root at a pole, one per null vector of the pole's border, is
    the pole itself."""

    def __init__(self, op: AssembledOperator, hole: bool | None = None) -> None:
        rows, ring, crack = _grid_rows(op.open), op.grid.r1_ring, op.crack
        if hole is None:
            hole = 2 * int(crack.sum()) > crack.size
        self.rows, self.keep = rows, op.keep
        g0 = rows.side(ring, False).g0
        self.spec = rows.side(ring, hole)
        vx = rows.ang[~crack if hole else crack]               # the side's columns
        try:
            chol = np.linalg.cholesky((vx * (1 / g0 if hole else g0)) @ vx.conj().T)
        except np.linalg.LinAlgError as exc:
            raise SolverError(
                f"the capacitance block of the {'hole' if hole else 'crack'} is not "
                "positive definite, which signals an assembly bug") from exc
        self.vx = vx = sla.solve_triangular(chol, vx, lower=True)
        self.vx_h = vx.conj().T
        self.offset = vx.shape[0] if hole else 0
        # N(0) = 0, the opening being positive definite
        self.limits: dict[int, tuple] = {0: (0, np.empty((0, 0)))}
        self.borders: dict[tuple, tuple] = {}

    def count(self, sigma: float) -> int:
        """N(sigma), the number of the opening's eigenvalues below sigma."""
        spec = self.spec
        below = int(np.searchsorted(spec.sorted, sigma)) + self.offset
        phi = (spec.weights / (spec.poles - sigma)).sum(axis=1) + spec.alpha + spec.beta * sigma
        return below - int((np.linalg.eigvalsh((self.vx * phi) @ self.vx_h) < 0).sum())

    def bordered(self, s: int, tau: float, other: int | None = None):
        """Phi at sigma = values[s] + tau with the terms of the pole s, and
        of the pole `other` if given, bordered out: B = [[R, W], [W^H, T]]
        with T = diag(sigma - p) over the bordered copies p.  Its Schur
        complement is R - W T^-1 W^H = Phi, so B is singular with Phi,
        neg(B) = neg(Phi) plus the number of copies above sigma, and B has
        no 1/(p - sigma).  Also returns R's phi'."""
        spec, f = self.spec, self.vx.shape[0]
        j, i, shift, border, border_h = self.copies(s, other)
        origin = float(spec.values[s])
        den = (spec.poles - origin) - tau
        den[j, i] = np.inf
        r = spec.weights / den
        n = f + j.size
        b = np.zeros((n, n), dtype=self.vx.dtype)
        b[:f, :f] = (self.vx * (r.sum(axis=1) + (spec.alpha + spec.beta * (origin + tau)))) @ self.vx_h
        b[:f, f:] = border
        b[f:, :f] = border_h
        b.flat[f * (n + 1)::n + 1] = tau + shift      # T's diagonal
        return b, (r / den).sum(axis=1) + spec.beta

    def copies(self, s: int, other: int | None = None):
        """The (mode, index) pairs of the copies of the distinct pole s, then
        of `other`, values[s] minus each one's pole, and the border W and
        W^H of `bordered`, kept per pair."""
        if (s, other) not in self.borders:
            spec = self.spec
            flat = np.concatenate([spec.order[spec.first[p]:spec.first[p] + spec.size[p]]
                                   for p in ([s] if other is None else [s, other])])
            j, i = np.unravel_index(flat, spec.poles.shape)
            border = self.vx[:, j] * np.sqrt(spec.weights[j, i])
            self.borders[s, other] = (j, i, spec.values[s] - spec.poles[j, i], border,
                                      border.conj().T)
        return self.borders[s, other]

    def pole(self, s: int):
        """N just below the distinct pole `values[s]`, and an orthonormal
        basis (columns) of the null space of its border W (`bordered`).
        Phi there is R plus an unbounded positive part on the span of W, so
        neg(Phi) is R's on W's complement.  Each null vector a of W gives an
        eigenvector at the pole itself, the pole's eigenvectors combined by
        a, which the side's capacitance matrix does not see; N just above
        the pole is larger by their number."""
        if s not in self.limits:
            b, _ = self.bordered(s, 0.0)
            f = self.vx.shape[0]
            u, sv, vh = np.linalg.svd(b[:f, f:])
            rank = int((sv > 1e-12 * sv.max(initial=0.0)).sum())
            rest = u[:, rank:]
            neg = int((np.linalg.eigvalsh(rest.conj().T @ b[:f, :f] @ rest) < 0).sum())
            self.limits[s] = (int(self.spec.first[s]) + self.offset - neg, vh[rank:].conj().T)
        return self.limits[s]

    def branch(self, s: int, tau: float, i: int, other: int):
        """The i-th eigenvalue h of `bordered(s, tau, other)`, its slope,
        its unit eigenvector and the largest |eigenvalue|."""
        b, dg = self.bordered(s, tau, other)
        h, v = np.linalg.eigh(b)
        f, v = self.vx.shape[0], v[:, i]
        dh = (dg * np.abs(self.vx_h @ v[:f]) ** 2).sum() + (np.abs(v[f:]) ** 2).sum()
        return tau, h[i], dh, v, max(-h[0], h[-1])

    def root(self, t: int, lo: int):
        """The t-th lowest eigenvalue, given a distinct pole `values[lo]`
        with fewer than t below it, as (origin pole, the other bordered pole
        or None, offset, null vector of B, the pole interval's upper
        index)."""
        spec, f = self.spec, self.vx.shape[0]
        # the t-th eigenvalue is at most the (t + |F|)-th open pole and the
        # t-th closed one (interlacing)
        top = spec.sorted[min(t - 1 + f - self.offset, spec.sorted.size - 1)]
        hi = min(int(np.searchsorted(spec.values, top)) + 1, spec.values.size - 1)
        step = 1
        while lo + step < hi and self.pole(lo + step)[0] < t:   # gallop, then bisect
            lo, step = lo + step, 2 * step
        hi = min(hi, lo + step)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self.pole(mid)[0] >= t:
                hi = mid
            else:
                lo = mid
        below, null = self.pole(lo)
        if t <= below + null.shape[1]:          # at the pole itself
            v = np.zeros(f + null.shape[0], dtype=np.result_type(self.vx, null))
            v[f:] = null[:, t - below - 1]
            return lo, None, 0.0, v, hi
        # both poles of the interval are bordered, so B is regular on all of
        # it and the branch of Phi that crosses zero has one index
        i = int(spec.first[hi] + spec.size[hi]) + self.offset - t
        half = (spec.values[hi] - spec.values[lo]) / 2
        # the origin is the pole on the root's side of the midpoint; a and b
        # bracket the offset, and `sides` keeps the last point on each side
        point = self.branch(lo, half, i, hi)
        origin, other, a, b, sides = lo, hi, 0.0, half, {False: point}
        if point[1] < 0:
            origin, other, a, b, sides = hi, lo, -half, 0.0, {}
        # first guess: with R held at the origin, B is singular where tau is
        # an eigenvalue of W^H R^-1 W, which is exact for a root at a pole
        b0, _ = self.bordered(origin, 0.0)
        try:
            guess = np.linalg.eigvalsh(b0[:f, f:].conj().T @ np.linalg.solve(b0[:f, :f], b0[:f, f:]))
        except np.linalg.LinAlgError:
            guess = np.empty(0)
        inside = guess[(a < guess) & (guess < b)]
        if inside.size:
            point = self.branch(origin, inside[0], i, other)
        elif origin == hi:
            point = self.branch(hi, -half, i, other)
        sides[point[1] < 0] = point
        if point[1] < 0:
            a = max(a, point[0])
        else:
            b = min(b, point[0])
        for _ in range(_MAX_STEPS):
            # a Newton step from the last point, or else from the other
            # side's, or bisection
            for tau, h, dh, v, scale in (point, sides.get(point[1] >= 0, point)):
                new = tau - h / dh
                if abs(new - tau) <= 4 * _EPS * abs(tau):
                    return (origin, other,
                            *self.polish(origin, other, tau, v, 8 * _EPS * scale / dh), hi)
                if a < new < b:
                    break
            else:
                new = a + (b - a) / 2
                if new in (a, b):
                    break
            point = self.branch(origin, new, i, other)
            sides[point[1] < 0] = point
            if point[1] < 0:
                a = new
            else:
                b = new
            if abs(point[1]) <= 8 * _EPS * point[4] or b - a <= 4 * _EPS * abs(new):
                break                               # round-off bounds the step
        else:
            raise SolverError(f"the root step did not converge for eigenvalue {t}")
        noise = 8 * _EPS * point[4] / point[2]
        return (origin, other, *self.polish(origin, other, point[0], point[3], noise), hi)

    def polish(self, s: int, other: int, tau: float, v: np.ndarray, noise: float):
        """For a root whose null vector [c; y] of B is mostly border (a root
        near a bordered pole, where its terms W T^-1 W^H dominate Phi),
        Newton steps on the eigenvalue kappa nearest 0 of the Schur
        complement T - W^H R^-1 W of `bordered`, each kept while tau stays
        within the round-off `noise` of B's zero.  R is well conditioned
        there, and the steps carry tau to its own relative accuracy and the
        null vector to full accuracy, where B's eigenpairs give both only to
        eps ||B||: a root at a pole that the side barely sees lies within w
        of it.  R c + W y = 0 makes the null vector [R^-1 W z; -z] for
        kappa's eigenvector z.  Returns tau and the null vector."""
        f, start = self.vx.shape[0], tau
        for _ in range(3 if np.linalg.norm(v[f:]) > np.linalg.norm(v[:f]) else 0):
            b0, dg = self.bordered(s, tau, other)
            try:
                x = np.linalg.solve(b0[:f, :f], b0[:f, f:])
            except np.linalg.LinAlgError:
                break
            kappa, z = np.linalg.eigh(b0[f:, f:] - b0[:f, f:].conj().T @ x)
            near = np.argmin(np.abs(kappa))
            x = x @ z[:, near]
            new = tau - kappa[near] / (1 + (dg * np.abs(self.vx_h @ x) ** 2).sum())
            if not abs(new - start) <= 16 * noise + 4 * _EPS * abs(start):
                break
            done = abs(new - tau) <= 4 * _EPS * abs(tau)
            tau, v = new, np.concatenate([x, -z[:, near]])
            if done:
                break
        return tau, v

    def vector(self, s: int, other: int | None, tau: float, v: np.ndarray) -> np.ndarray:
        """The eigenvector at sigma = values[s] + tau for the null vector
        [c; y] of `bordered(s, tau, other)`: with the side's ring values
        xi = V_X^H c of each mode, the mode rows xi_j (T_j - sigma)^-1 unit[j]
        (`_Side`), one banded solve, then the angular transform.  On the
        crack that is (S - sigma)^-1 E_F c; on the hole it holds the ring at
        the hole's values and solves the rows off the ring.  The terms of
        the bordered poles come apart from the solve: by B's second row, the
        term e_p xi_j / (p - sigma) of a copy p, with e_p = y_p . unit[j],
        is sign(e_p) y_p, which keeps its accuracy where xi_j is all
        cancellation.  At a pole itself (c = 0) only those terms are left."""
        spec, f = self.spec, self.vx.shape[0]
        rhs = spec.unit.copy()
        near = []
        for j, i, border in zip(*self.copies(s, other)[:2], v[f:]):
            y = spec.vector(j, i)
            e = y @ spec.unit[j]
            rhs[j] -= e * y
            near.append((j, y, np.sign(e) * border))
        if v[:f].any():
            z = spec.solve(spec.values[s] + tau, rhs)
            for j, y, _ in near:
                z[j] -= (y @ z[j]) * y
            z = z * (self.vx_h @ v[:f])[:, np.newaxis]
        else:
            z = np.zeros(rhs.shape, dtype=v.dtype)
        for j, y, coef in near:
            z[j] += coef * y
        return self.rows.field(z)[self.keep]

    def lowest(self, k: int):
        """The k lowest eigenvalues and their vectors, certified complete."""
        spec = self.spec
        lam, vecs, lo = np.empty(k), [], 0
        for t in range(1, k + 1):
            s, other, tau, v, hi = self.root(t, lo)
            lam[t - 1] = spec.values[s] + tau
            vecs.append(self.vector(s, other, tau, v))
            lo = hi - 1
        self.certify(lam)
        return lam, np.stack(vecs, axis=1)

    def certify(self, lam: np.ndarray) -> None:
        """The completeness certificate: just below each cluster of returned
        values, the count is the number returned below it, and just above
        the top one it is at least their number."""
        for t in range(lam.size):
            if t == 0 or lam[t] - lam[t - 1] > 2 * _CLUSTER_GAP * lam[t]:
                below = self.count(lam[t] * (1 - _CLUSTER_GAP))
                if below != t:
                    raise SolverError(
                        f"completeness certificate failed: {below} eigenvalues below "
                        f"{lam[t]:.12g}, where {t} were found")
        above = self.count(lam[-1] * (1 + _CLUSTER_GAP))
        if above < lam.size:
            raise SolverError(
                f"completeness certificate failed: {above} eigenvalues up to "
                f"{lam[-1]:.12g}, where {lam.size} were found")


def lowest_eigenpairs(op: AssembledOperator, k: int, tol: float = 1e-8) -> Spectrum:
    """k smallest eigenvalues of the assembled operator with eigenvectors and
    certified residuals.

    Parameters
    ----------
    op : AssembledOperator
    k : int
        Number of eigenpairs, 1 <= k <= n/4.
    tol : float
        Residual certificate bound ||A v - lam v|| / ||v|| per pair: a finite
        number >= 1e-12.
    """
    n = op.n
    if k < 1:
        raise ValueError(f"k={k} below 1")
    if k > max(1, n // 4):
        raise ValueError(f"k={k} above n/4 = {max(1, n // 4)} for sector {op.sector.label} "
                         f"({n} unknowns at M={op.grid.m})")
    if not 1e-12 <= tol < np.inf:                       # NaN fails too
        raise ValueError(f"tol={tol} is not a finite number at or above the 1e-12 floor")
    with one_blas_thread:
        lam, x = _Secular(op).lowest(k)
        vecs = x / np.sqrt(op.row_weights)[:, np.newaxis]
        residuals = _certify(op, lam, vecs)
    lamscale = np.maximum(1.0, np.abs(lam))
    if not (residuals <= tol * lamscale).all():         # a NaN residual fails too
        raise SolverError(
            f"residual certificate failed: max {residuals.max():.3e} "
            f"against tol {tol:.1e}")
    vecs = vecs / np.linalg.norm(vecs, axis=0)[np.newaxis, :]
    return Spectrum(eigenvalues=lam, residuals=residuals, vectors=vecs)


def group_multiplicities(values, cluster_tol: float,
                         weights=None) -> list[tuple[float, int]]:
    """Cluster adjacent eigenvalues within `cluster_tol` and report
    (mean value, total multiplicity) per cluster; `weights` supplies
    per-entry multiplicities (default 1)."""
    if cluster_tol <= 0:
        raise ValueError(f"cluster_tol must be positive, got {cluster_tol!r}")
    vals = np.asarray(values, dtype=float)
    if weights is None:
        weights = np.ones(len(vals), dtype=int)
    weights = np.asarray(weights, dtype=int)
    order = np.argsort(vals)
    vals = vals[order]
    weights = weights[order]
    out: list[tuple[float, int]] = []
    start = 0
    for i in range(1, len(vals) + 1):
        if i == len(vals) or vals[i] - vals[i - 1] > cluster_tol:
            chunk = slice(start, i)
            out.append((float(vals[chunk].mean()), int(weights[chunk].sum())))
            start = i
    return out
