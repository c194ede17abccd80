"""The dense oracle of the tests: LAPACK *geev* (QR) on an operator's own
matrix, independent of the secular solve.

`lowest_eigenpairs(op, k, tol)` runs `scipy.linalg.eig` on `op.matrix`
inside `eigensolve.one_blas_thread`, refuses an eigenvalue whose imaginary
part is not negligible, and certifies the k lowest pairs with
`eigensolve._certify` at the library's tol rule."""

import numpy as np
import scipy.linalg as sla

from crackspec import eigensolve
from crackspec.eigensolve import SolverError, Spectrum, one_blas_thread

_IMAG_TOL = 1e-8            # |Im lambda| <= tol * max(1, |lambda|)


def _accept_real(lam: np.ndarray) -> np.ndarray:
    bad = np.abs(lam.imag) > _IMAG_TOL * np.maximum(1.0, np.abs(lam))
    if bad.any():
        worst = np.abs(lam.imag)[bad].max()
        raise SolverError(
            f"dense path: non-real eigenvalue beyond tolerance "
            f"(max |Im| = {worst:.3e}); this signals an assembly bug")
    return lam.real


def _real_if_real(op, vecs: np.ndarray) -> np.ndarray:
    """Eigenvectors in the field of the operator: real for real factors."""
    return vecs if np.iscomplexobj(op.factors.angular) else np.real(vecs)


def lowest_eigenpairs(op, k: int, tol: float = 1e-8) -> Spectrum:
    """The k lowest eigenpairs of `op.matrix` by dense QR, certified."""
    with one_blas_thread:
        lam, vecs = sla.eig(op.matrix.toarray())
        lam = _accept_real(lam)
        order = np.argsort(lam)[:k]
        lam, vecs = lam[order], _real_if_real(op, vecs[:, order])
        residuals = eigensolve._certify(op, lam, vecs)
    if not (residuals <= tol * np.maximum(1.0, np.abs(lam))).all():
        raise SolverError(
            f"residual certificate failed: max {residuals.max():.3e} against tol {tol:.1e}")
    return Spectrum(eigenvalues=lam, residuals=residuals,
                    vectors=vecs / np.linalg.norm(vecs, axis=0)[np.newaxis, :])
