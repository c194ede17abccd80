"""One SHA-256 over the assembled operators of a fixed set of geometries.

A refactor of `assemble` or `PolarGrid` that claims to leave the numbers
alone must leave this digest alone: it covers every sector kind, both grid
parities, and openings on rays, on half steps and just below pi/n, where the
snapping rules differ.  A change that moves any operator on purpose must say
so and record the new digest."""

import hashlib
import math

import numpy as np

from crackspec.discretize import assemble
from crackspec.domain import build_cracked_disk, quarter_problems, reduce_to_sectors

R1_VALUES = (0.43565063929340686, 0.3)   # j01/j02, and a radius off it
M_VALUES = (8, 9, 12, 13, 24, 25)
DIGEST = "db0c30975be9b63c4431eaeae3ebe383910eeb1d07bf0ae46920df56ef77ce77"


def _openings(top: float, dtheta: float) -> list[float]:
    """Every ray and half step in [0, top], plus two requests just below top."""
    steps = int(top / dtheta + 1e-9)
    out = [j * dtheta for j in range(steps + 1)]
    out += [(j + 0.5) * dtheta for j in range(steps + 1) if (j + 0.5) * dtheta <= top + 1e-12]
    return sorted(out) + [top - 1e-7, top - 1e-13]


def _problems():
    for r1 in R1_VALUES:
        for n in range(1, 7):
            for m in M_VALUES:
                for eps in _openings(math.pi / n, 2 * math.pi / n / m):
                    spec = build_cracked_disk(n, min(eps, math.pi / n), r1, 1.0)
                    for p, _ in reduce_to_sectors(spec):
                        yield p, m
        for m in M_VALUES:
            for eps in _openings(math.pi / 2, math.pi / 2 / m):
                spec = build_cracked_disk(2, min(eps, math.pi / 2), r1, 1.0)
                for p in quarter_problems(spec):
                    yield p, m


def _update(h, arr) -> None:
    arr = np.ascontiguousarray(arr)
    h.update(str(arr.dtype).encode())
    h.update(str(arr.shape).encode())
    h.update(arr.tobytes())


def test_operator_digest_is_pinned():
    h = hashlib.sha256()
    count = 0
    for problem, m in _problems():
        op = assemble(problem, m)
        mat = op.matrix
        for arr in (mat.indptr, mat.indices, mat.data, op.row_weights,
                    op.node_ring, op.node_col, op.cols):
            _update(h, arr)
        h.update(repr((mat.shape, op.center_row, op.wrap, op.sector)).encode())
        count += 1
    assert count == 4870
    assert h.hexdigest() == DIGEST
