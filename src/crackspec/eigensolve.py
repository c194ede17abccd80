"""Lowest eigenpairs of an assembled operator, with residual certificates.

The discrete operator is non-Hermitian but similar to a Hermitian matrix
through diag(sqrt(w)) with the node weights carried by the operator: real
symmetric for the scalar sectors and quarter problems, complex Hermitian for
the complex Floquet sectors.  There is one solve path: shift-invert Lanczos
(ARPACK through `scipy.sparse.linalg.eigsh`, shift 0; scipy hands a complex
Hermitian matrix to complex ARPACK) on the Hermitian part of the symmetrized
matrix, with the eigenvectors mapped back.  The dense QR path (LAPACK
*geev*, `method="dense"`) is the independent oracle of the tests.
Eigenvectors of a complex operator stay complex.

The shift-invert inverse takes no factorization.  Every opening of a sector
is the same fully open tensor-product operator (`discretize.SectorFactors`)
without its crack nodes on the r1 ring, so `SectorInverse` inverts it by the
capacitance-matrix method (Buzbee, Dorr, George & Golub, SIAM J. Numer.
Anal. 8 (1971)): per grid, the eigenvectors of the radial and the angular
factor and each mode's Green's value on the r1 ring (cached, for at most
`_CACHED_GRIDS` grids); per opening, a Cholesky of the at most m x m
capacitance block of the crack; per apply, four matrix-product transforms,
one division by the separated eigenvalues and an O(m^2) crack correction in
mode space.  The center, where there is one, joins the radial problem of the
constant angular mode.  Each returned eigenvector gets one step of
iterative refinement through the same inverse: the round-off of the last
transform is spread evenly over the nodes, and A, whose rows near the
center are largest, would amplify it into the residual certificate.  The
same inverse gives the Green's column of the capacitary potential.  A
symmetrization residual out of tolerance, an open operator that is not
positive definite, a capacitance block whose Cholesky fails, or an inverse
that does not invert the operator on a seeded vector is an assembly bug
and raises `SolverError`.

Every reported pair carries the certificate  ||A v - lambda v|| / ||v||
computed on the original matrix, and eigenvalues are accepted only if their
imaginary part is negligible.

Every solve runs on one BLAS thread: `lowest_eigenpairs`, like
`capacity.capacitary_potential`, holds `one_blas_thread`, which sets every
OpenBLAS in the process to one thread while any solve is inside and restores
each library's count when the last one leaves.  Those are scipy's (ARPACK's
and LAPACK's) and numpy's (the `@` of the inverse's transforms).  The
sweep's thread pool is then the only parallelism, OpenBLAS threads do not
spin against it, and the result does not depend on the machine's core
count.  A library that is not OpenBLAS is left as it is.
"""

from __future__ import annotations

import ctypes
import importlib
import itertools
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .discretize import AssembledOperator, SectorFactors

__all__ = ["SolverError", "Spectrum", "SectorInverse", "lowest_eigenpairs",
           "group_multiplicities"]

_IMAG_TOL = 1e-8            # |Im lambda| <= tol * max(1, |lambda|)
_ASYM_TOL = 1e-9            # relative symmetrization residual
_SEED = 20230921            # deterministic ARPACK start vector
_MAX_RESTARTS = 50
_INVERSE_TOL = 1e-10        # relative error of one inverse apply on a seeded vector


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


class SolverError(RuntimeError):
    """Eigensolver failure."""


@dataclass
class Spectrum:
    """Certified lowest eigenvalues of one sector operator, with their unit
    eigenvectors."""

    eigenvalues: np.ndarray
    residuals: np.ndarray
    vectors: np.ndarray


def _certify(matrix: sp.csr_matrix, lam: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(vecs, axis=0)
    res = np.linalg.norm(matrix @ vecs - vecs * lam[np.newaxis, :], axis=0)
    return res / norms


def _accept_real(lam: np.ndarray, where: str) -> np.ndarray:
    bad = np.abs(lam.imag) > _IMAG_TOL * np.maximum(1.0, np.abs(lam))
    if bad.any():
        worst = np.abs(lam.imag)[bad].max()
        raise SolverError(
            f"{where}: non-real eigenvalue beyond tolerance "
            f"(max |Im| = {worst:.3e}); this signals an assembly bug")
    return lam.real


def _real_if_real(op: AssembledOperator, vecs: np.ndarray) -> np.ndarray:
    """Eigenvectors in the field of the operator: real for a real matrix."""
    return vecs if np.iscomplexobj(op.matrix) else np.real(vecs)


def _dense_path(op: AssembledOperator, k: int):
    lam, vecs = sla.eig(op.matrix.toarray())
    lam = _accept_real(lam, "dense path")
    order = np.argsort(lam)[:k]
    return lam[order], _real_if_real(op, vecs[:, order])


def _real_times(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """a @ z for a real a.  A complex z is multiplied as the real matrix of its
    interleaved real and imaginary columns, at half the cost of a complex
    product and without casting a to complex."""
    if not np.iscomplexobj(z):
        return a @ z
    # a C-ordered complex (p, q) is a real (p, 2q) with the same bytes
    return (a @ z.view(np.float64)).view(np.complex128)


def _link_energies(k: np.ndarray, u: np.ndarray) -> np.ndarray:
    """u_j^H k u_j for each column u_j of u, for a Hermitian k whose diagonal
    dominates its rows: summed as the nonnegative energies of its links,
    |k_ab| |u_a + (k_ab / |k_ab|) u_b|^2, and of the diagonal's excess, so a
    small quotient keeps its relative accuracy (eigh gets it only to
    eps * ||k||)."""
    a, b = np.nonzero(np.triu(k, 1))
    weight = np.abs(k[a, b])
    phase = (k[a, b] / weight)[:, np.newaxis]
    links = (weight[:, np.newaxis] * np.abs(u[a] + phase * u[b]) ** 2).sum(axis=0)
    excess = 2 * k.diagonal().real - np.abs(k).sum(axis=1)
    return links + (excess[:, np.newaxis] * np.abs(u) ** 2).sum(axis=0)


class _GridModes:
    """The separated eigenproblems of one fully open sector grid.

    Symmetrized by the node weights, the open operator is
    S = Rs (x) I + diag(D) (x) Ts, with Rs = r^1/2 R r^-1/2 and
    Ts = cell^1/2 T cell^-1/2.  With Rs U = D U diag(mu), U^T D U = I, and
    Ts V = V diag(lam), V unitary,

        S^-1 = (U (x) V) diag(1 / (mu_i + lam_j)) (U (x) V)^H.

    The lowest mu_i + lam_j are small against the norms of the factors, so
    lam comes from link energies, which keep its relative accuracy; the
    inverse is about as accurate as a sparse LU.  `den` and `kern` are kept
    angular mode by radial mode, Fortran-ordered, so that their transposes
    are C-ordered like the transforms of a field of rings by columns;
    `ang_conj` is the conjugate of `ang`.  The center, when present, couples
    only to the constant angular mode (lam = 0, mode 0, set exactly), whose
    radial problem gains the center as one more node and gets its own
    eigenvectors `center_rad`, center first.  `green`
    holds each angular mode's Green's value on the r1 ring, `u1`
    (`center_u1`) the radial eigenvectors there and `kern` (`center_kern`)
    the same divided by the separated eigenvalues."""

    def __init__(self, f: SectorFactors, ring: int) -> None:
        sr, sd, sc = np.sqrt(f.r), np.sqrt(f.scale), np.sqrt(f.cell)
        rad = f.radial * sr[:, np.newaxis] / sr
        rad = (rad + rad.T) / 2
        mu, y = sla.eigh(rad / sd[:, np.newaxis] / sd)
        self.rad = y / sd[:, np.newaxis]
        ang = f.angular * sc[:, np.newaxis] / sc
        lam, v = sla.eigh((ang + ang.conj().T) / 2)
        if f.has_center:
            # the center couples to the constant mode sqrt(cell) alone: make
            # mode 0 exactly that, and the others exactly orthogonal to it
            v[:, 0] = sc / np.sqrt(f.cell.sum())
            v[:, 1:] -= v[:, :1] * (v[:, :1] * v[:, 1:]).sum(axis=0)
            v[:, 1:] /= np.sqrt((v[:, 1:] ** 2).sum(axis=0))
        # cell T is a weighted graph Laplacian plus Dirichlet links
        lam = _link_energies(f.cell[:, np.newaxis] * f.angular, v / sc[:, np.newaxis])
        self.ang = v
        self.ang_conj = v.conj()
        self.den = np.asfortranarray(lam[:, np.newaxis] + mu)
        if not (self.den > 0).all():
            raise SolverError(
                f"separated eigenvalues mu + lam reach {self.den.min():.3e} <= 0; "
                "the open operator is not positive definite, which signals an "
                "assembly bug")
        self.u1 = self.rad[ring]
        self.kern = np.asfortranarray(self.u1 / self.den)
        self.green = (self.kern * self.u1).sum(axis=1)
        self.has_center = f.has_center
        if f.has_center:
            # S on (ring-1 node j, center), from both of its triangles
            link = (f.center_in * np.sqrt(f.r[0] * f.cell / f.center_weight)
                    + f.center_out * np.sqrt(f.center_weight / (f.r[0] * f.cell))) / 2
            bordered = np.zeros((f.r.size + 1, f.r.size + 1))
            bordered[0, 0] = f.center_diag
            bordered[0, 1] = bordered[1, 0] = (v[:, 0] * link).sum()
            bordered[1:, 1:] = rad                     # lam[0] = 0
            mu0, u0 = sla.eigh(bordered)
            if not (mu0 > 0).all():
                raise SolverError(
                    f"the center's radial problem has eigenvalue {mu0.min():.3e} <= 0, "
                    "which signals an assembly bug")
            self.center_rad = u0
            self.center_den = mu0
            self.center_u1 = u0[ring + 1]
            self.center_kern = self.center_u1 / mu0
            self.green[0] = (self.center_kern * self.center_u1).sum()


_CACHED_GRIDS = 8
_grid_lock = threading.Lock()
_grid_cache: OrderedDict[tuple, _GridModes] = OrderedDict()


def _grid_modes(op: AssembledOperator) -> _GridModes:
    """The modes of the operator's open grid, from a bounded cache shared by
    every thread."""
    p, grid = op.problem, op.grid
    key = (p.kind, p.quarter_case or p.ell, p.geometry.n, grid.m, grid.r1_ring, grid.r2)
    with _grid_lock:
        modes = _grid_cache.get(key)
        if modes is None:
            modes = _grid_cache[key] = _GridModes(op.factors, grid.r1_ring - 1)
            if len(_grid_cache) > _CACHED_GRIDS:
                _grid_cache.popitem(last=False)
        else:
            _grid_cache.move_to_end(key)
    return modes


class SectorInverse:
    """The inverse of one opening's operator, without a factorization.

    The opening's operator is the open one without the crack nodes F on the
    r1 ring.  With G = S_open^-1 and b extended by zero on F, its inverse
    is x = G b - G[:, F] C^-1 (G b)_F, where the capacitance block
    C = G[F, F] = V_F diag(green) V_F^H is at most m x m (Buzbee, Dorr,
    George & Golub, SIAM J. Numer. Anal. 8 (1971)).  The correction acts
    in mode space, so an apply costs four matrix-product transforms and
    O(m^2).

    Raises `SolverError` when the open operator or C is not positive
    definite, or when one apply on a seeded vector does not invert
    `op.matrix` to `_INVERSE_TOL`."""

    def __init__(self, op: AssembledOperator) -> None:
        modes = self.modes = _grid_modes(op)
        ncols = op.cols.size
        n1 = op.n - int(op.center_row is not None)
        self.n1 = n1
        # the unknowns in a field of rings by columns, C order (a boolean
        # index scatters and gathers several times faster than integers)
        self.active = np.zeros(modes.rad.shape[0] * ncols, dtype=bool)
        self.active[(op.node_ring[:n1] - 1) * ncols + op.node_col[:n1] - op.cols[0]] = True
        self.d = np.sqrt(op.row_weights)
        present = op.node_col[op.node_ring == op.grid.r1_ring] - op.cols[0]
        crack = np.setdiff1d(np.arange(ncols), present)
        self.vf = None
        if crack.size:
            self.vf = modes.ang[crack]
            self.vf_h = modes.ang_conj[crack].T
            try:
                self.cho = sla.cho_factor((self.vf * modes.green) @ self.vf_h)
            except np.linalg.LinAlgError as exc:
                raise SolverError(
                    "the capacitance block of the crack is not positive definite, "
                    "which signals an assembly bug") from exc
        x = np.random.default_rng(_SEED).standard_normal(op.n)
        err = np.linalg.norm(self.solve(op.matrix @ x) - x) / np.linalg.norm(x)
        if not err <= _INVERSE_TOL:
            raise SolverError(
                f"the separable inverse does not invert the operator (relative "
                f"error {err:.3e}); the operator is not its grid's open operator "
                "without crack nodes, which signals an assembly bug")

    def solve_hermitian(self, b: np.ndarray) -> np.ndarray:
        """S^-1 b for the symmetrized operator S = diag(d) A diag(1/d)."""
        modes, n1 = self.modes, self.n1
        b = np.asarray(b).reshape(-1)
        buf = np.zeros(self.active.size, dtype=np.result_type(modes.ang.dtype, b.dtype))
        buf[self.active] = b[:n1]
        field = buf.reshape(-1, modes.ang.shape[0])          # rings by columns
        spectral = field @ modes.ang_conj                    # rings by angular modes
        z = _real_times(modes.rad.T, spectral)               # radial by angular modes
        z /= modes.den.T
        if modes.has_center:
            # mode 0 with the center in front of its rings
            v0 = np.append(b[n1:], spectral[:, 0])[:, np.newaxis]
            z0 = _real_times(modes.center_rad.T, v0)[:, 0] / modes.center_den
        if self.vf is not None:
            on_ring = _real_times(modes.u1, z)               # G b on the r1 ring
            if modes.has_center:
                on_ring[0] = (z0 * modes.center_u1).sum()
            charge = sla.cho_solve(self.cho, self.vf @ on_ring, check_finite=False)
            w = self.vf_h @ charge
            z -= modes.kern.T * w
            if modes.has_center:
                z0 -= w[0] * modes.center_kern
        x = _real_times(modes.rad, z)                        # rings by angular modes
        if modes.has_center:
            full = _real_times(modes.center_rad, z0[:, np.newaxis])[:, 0]
            x[:, 0] = full[1:]
        out = (x @ modes.ang.T).reshape(-1)[self.active]
        return np.append(out, full[0]) if modes.has_center else out

    def solve(self, b: np.ndarray) -> np.ndarray:
        """A^-1 b for the operator's own matrix A."""
        return self.solve_hermitian(b * self.d) / self.d


def _sparse_path(op: AssembledOperator, k: int):
    d = np.sqrt(op.row_weights)
    dinv = 1.0 / d
    s = sp.diags(d) @ op.matrix @ sp.diags(dinv)
    s_adj = s.conj().T
    asym = abs(s - s_adj).max() / abs(s).max()
    if asym > _ASYM_TOL:
        raise SolverError(f"symmetrized operator is not Hermitian (relative "
                          f"residual {asym:.3e}); this signals an assembly bug")
    inverse = SectorInverse(op)
    opinv = spla.LinearOperator(s.shape, matvec=inverse.solve_hermitian, dtype=s.dtype)
    rng = np.random.default_rng(_SEED)
    v0 = rng.standard_normal(op.n).astype(s.dtype)
    ncv = min(op.n - 1, max(4 * k + 1, 24))
    try:
        lam, w = spla.eigsh(s, k=k, sigma=0.0, which="LM", OPinv=opinv, v0=v0,
                            ncv=ncv, maxiter=_MAX_RESTARTS * ncv, tol=0)
    except spla.ArpackNoConvergence as exc:
        raise SolverError(f"shift-invert iteration did not converge: {exc}") from exc
    order = np.argsort(lam)
    lam, w = lam[order], w[:, order]
    # one step of iterative refinement of each vector toward S^-1 (lam w):
    # it smooths the round-off of the inverse's last transform, which S
    # would otherwise amplify into the residual certificate near the center
    for j in range(k):
        w[:, j] += inverse.solve_hermitian(lam[j] * w[:, j] - s @ w[:, j])
    return lam, w * dinv[:, np.newaxis]


def lowest_eigenpairs(op: AssembledOperator, k: int, tol: float = 1e-8,
                      method: str = "sparse") -> Spectrum:
    """k smallest eigenvalues of the assembled operator with eigenvectors and
    certified residuals.

    Parameters
    ----------
    op : AssembledOperator
    k : int
        Number of eigenpairs, 1 <= k <= n/4.
    tol : float
        Residual certificate bound ||A v - lam v|| / ||v|| per pair (>= 1e-12).
    method : str
        "sparse" (shift-invert Lanczos), or "dense" (QR on the full matrix,
        the test oracle).
    """
    n = op.n
    if k < 1:
        raise ValueError(f"k={k} below 1")
    if k > max(1, n // 4):
        raise ValueError(f"k={k} above n/4 = {max(1, n // 4)} for sector {op.sector.label} "
                         f"({n} unknowns at M={op.grid.m})")
    if tol < 1e-12:
        raise ValueError(f"tol={tol} below the 1e-12 floor")
    if method not in ("dense", "sparse"):
        raise ValueError(f"unknown method {method!r}")
    with one_blas_thread:
        if method == "dense":
            lam, vecs = _dense_path(op, k)
        else:
            lam, vecs = _sparse_path(op, k)
        residuals = _certify(op.matrix, lam, vecs)
    lamscale = np.maximum(1.0, np.abs(lam))
    if (residuals > tol * lamscale).any():
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
