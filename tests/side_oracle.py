"""The full tables of a side of the r1 ring: the test oracle of the near poles
and moment series of `eigensolve._Side`.

`full_table(side)` takes every pole of every mode's blocks (the runs of rows
between the side's held rows) from one full `eigh_tridiagonal` per block, and
its weight, the square of its eigenvector's dot with the side's unit row: the
table that the side keeps only below its cap.  `phi(side, table, sigma)` sums
the table into phi_j(sigma) and phi_j'(sigma) term by term."""

import numpy as np
import scipy.linalg as sla

from crackspec.eigensolve import one_blas_thread


def _blocks(held):
    """The row ranges between the held rows of one mode."""
    edges = np.flatnonzero(np.diff(np.concatenate([[True], held, [True]]).astype(int)))
    return [(lo, hi) for lo, hi in zip(edges[::2], edges[1::2])]


def full_table(side):
    """(poles, weights) of every mode, block by block and ascending in each,
    +inf and 0 past a mode's last pole."""
    diag, off = side.rows.diag, side.rows.off
    poles, weights = np.full(diag.shape, np.inf), np.zeros(diag.shape)
    with one_blas_thread:
        for j in range(diag.shape[0]):
            p, w = [], []
            for lo, hi in _blocks(side.held[j]):
                e, y = sla.eigh_tridiagonal(diag[j, lo:hi], off[j, lo:hi - 1])
                p.append(e)
                w.append((side.unit[j, lo:hi] @ y) ** 2)
            p, w = np.concatenate(p), np.concatenate(w)
            poles[j, :p.size], weights[j, :p.size] = p, w
    return poles, weights


def phi(side, table, sigma):
    """phi_j(sigma) and phi_j'(sigma) of every mode from the full table."""
    poles, weights = table
    den = poles - sigma
    return (side.alpha + side.beta * sigma + (weights / den).sum(axis=1),
            side.beta + (weights / den ** 2).sum(axis=1))
