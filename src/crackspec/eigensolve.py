"""Lowest eigenpairs of an assembled operator, with residual certificates.

The discrete operator is non-Hermitian but similar to a Hermitian matrix
through diag(sqrt(w)) with the node weights carried by the operator: real
symmetric for the scalar sectors and quarter problems, complex Hermitian for
the complex Floquet sectors.  There is one solve path: shift-invert Lanczos
(ARPACK through `scipy.sparse.linalg.eigsh`, shift 0; scipy hands a complex
Hermitian matrix to complex ARPACK) on the Hermitian part of the symmetrized
matrix, with the eigenvectors mapped back.  Its inverse is one sparse LU in
SuperLU's symmetric mode (minimum-degree ordering of A + A^T, no pivoting),
which is stable because every operator is Hermitian positive definite at
shift 0; the same factorization gives the Green's column of the capacitary
potential.  A symmetrization residual out of tolerance, or a factor that
pivoted or has a non-positive pivot, is an assembly bug and raises
`SolverError`.  The dense QR path (LAPACK *geev*, `method="dense"`) is the
independent oracle of the tests.  Eigenvectors of a complex operator stay
complex.

Every reported pair carries the certificate  ||A v - lambda v|| / ||v||
computed on the original matrix, and eigenvalues are accepted only if their
imaginary part is negligible.

Every solve runs on one BLAS thread: `lowest_eigenpairs`, like
`capacity.capacitary_potential`, holds `one_blas_thread`, which sets scipy's
OpenBLAS (the library that ARPACK, SuperLU and LAPACK call) to one thread
while any solve is inside and restores the caller's count when the last one
leaves.  The sweep's thread pool is then the only parallelism, OpenBLAS
threads do not spin against it, and the result does not depend on the
machine's core count.  Against a BLAS other than OpenBLAS the scope does
nothing.
"""

from __future__ import annotations

import ctypes
import threading
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.linalg.cython_blas
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .discretize import AssembledOperator

__all__ = ["SolverError", "Spectrum", "lowest_eigenpairs", "group_multiplicities"]

_IMAG_TOL = 1e-8            # |Im lambda| <= tol * max(1, |lambda|)
_ASYM_TOL = 1e-9            # relative symmetrization residual
_SEED = 20230921            # deterministic ARPACK start vector
_MAX_RESTARTS = 50


def _openblas_thread_controls():
    """The (get, set) thread-count functions of the OpenBLAS that scipy links,
    found through scipy's Cython BLAS module: `scipy_openblas_*` in scipy's
    wheels, `openblas_*` in a system OpenBLAS, None for any other BLAS."""
    lib = ctypes.CDLL(scipy.linalg.cython_blas.__file__)
    for prefix in ("scipy_openblas", "openblas"):
        try:
            get = getattr(lib, f"{prefix}_get_num_threads")
            set_ = getattr(lib, f"{prefix}_set_num_threads")
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


class _OneBlasThread:
    """Re-entrant, thread-safe scope that holds OpenBLAS at one thread while
    any holder is inside and restores the count found on first entry when the
    last holder leaves.  The count is process-global (so is
    `openblas_set_num_threads_local` in scipy's build: set from one thread,
    every thread reads it), so the holders share one counter.  Without
    OpenBLAS controls it does nothing."""

    def __init__(self, controls):
        self._controls = controls
        self._lock = threading.Lock()
        self._users = 0
        self._saved = 1

    def __enter__(self):
        if self._controls is not None:
            get, set_ = self._controls
            with self._lock:
                if self._users == 0:
                    self._saved = get()
                    set_(1)
                self._users += 1
        return self

    def __exit__(self, *exc):
        if self._controls is not None:
            _, set_ = self._controls
            with self._lock:
                self._users -= 1
                if self._users == 0:
                    set_(self._saved)


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


def _factor_hpd(matrix: sp.spmatrix):
    """Sparse LU of a Hermitian positive definite matrix in SuperLU's
    symmetric mode: minimum-degree ordering on the pattern of A + A^T and no
    pivoting, so the factor is L D L^H with D = diag(U).  Raises SolverError
    if SuperLU pivoted anyway or a pivot is not positive real, which no
    Hermitian positive definite matrix gives."""
    lu = spla.splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   options={"SymmetricMode": True})
    pivots = lu.U.diagonal()
    if (not np.array_equal(lu.perm_r, lu.perm_c) or not (pivots.real > 0).all()
            or (np.abs(pivots.imag) > _IMAG_TOL * pivots.real).any()):
        raise SolverError(
            f"symmetric-mode LU pivoted or has a pivot that is not positive real "
            f"(min real part {pivots.real.min():.3e}); the matrix is not Hermitian "
            f"positive definite, which signals an assembly bug")
    return lu


def _sparse_path(op: AssembledOperator, k: int):
    d = np.sqrt(op.row_weights)
    dinv = 1.0 / d
    s = sp.diags(d) @ op.matrix @ sp.diags(dinv)
    s_adj = s.conj().T
    asym = abs(s - s_adj).max() / abs(s).max()
    if asym > _ASYM_TOL:
        raise SolverError(f"symmetrized operator is not Hermitian (relative "
                          f"residual {asym:.3e}); this signals an assembly bug")
    s_herm = ((s + s_adj) * 0.5).tocsc()
    lu = _factor_hpd(s_herm)
    opinv = spla.LinearOperator(s_herm.shape, matvec=lu.solve, dtype=s_herm.dtype)
    rng = np.random.default_rng(_SEED)
    v0 = rng.standard_normal(op.n).astype(s.dtype)
    ncv = min(op.n - 1, max(4 * k + 1, 24))
    try:
        lam, w = spla.eigsh(s_herm, k=k, sigma=0.0, which="LM", OPinv=opinv, v0=v0,
                            ncv=ncv, maxiter=_MAX_RESTARTS * ncv, tol=0)
    except spla.ArpackNoConvergence as exc:
        raise SolverError(f"shift-invert iteration did not converge: {exc}") from exc
    order = np.argsort(lam)
    return lam[order], w[:, order] * dinv[:, np.newaxis]


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
    if not 1 <= k <= max(1, n // 4):
        raise ValueError(f"k={k} outside [1, n/4] for n={n}")
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
