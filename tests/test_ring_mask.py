"""Property tests of the r1-ring nodes that carry the Dirichlet condition:
the crack columns of the Floquet sectors and of the four quarter problems,
which `assemble` marks by their distance in rays from the hole, and the arc
nodes of the capacities, which `PolarGrid.ring_mask` marks.  The expected
columns are computed here from the requested values, independently of
`PolarGrid`."""

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from crackspec.capacity import CapacityProblem, _energy_system
from crackspec.discretize import assemble
from crackspec.domain import (
    QUARTER_CASES, build_cracked_disk, quarter_problems, reduce_to_sectors)

R1, R2 = 0.4356, 1.0
SETTINGS = settings(max_examples=150, deadline=None)


def _opening(draw, top: float, dtheta: float, m_top: int) -> float:
    """An opening in [0, top]: an exact grid ray, a half step, a value within
    one step of `top`, or `top` itself."""
    kind = draw(st.sampled_from(["ray", "half", "near_top", "top"]))
    if kind == "ray":
        return draw(st.integers(0, m_top)) * dtheta
    if kind == "half":
        return (draw(st.integers(0, m_top - 1)) + 0.5) * dtheta
    if kind == "near_top":
        return top - draw(st.floats(0.0, 1.0)) * dtheta
    return top


def _crack_columns(op) -> set[int]:
    """Columns of the r1 ring that the operator eliminated."""
    ring = op.grid.r1_ring
    present = set(op.node_col[op.node_ring == ring].tolist())
    return set(op.cols.tolist()) - present


@st.composite
def floquet_cases(draw):
    n = draw(st.integers(1, 6))
    m = draw(st.integers(8, 61))
    dtheta = (2 * math.pi / n) / m
    eps = min(_opening(draw, math.pi / n, dtheta, m // 2), math.pi / n)
    ell = draw(st.integers(0, n // 2))
    return n, m, eps, ell


@SETTINGS
@given(floquet_cases())
@example((1, 9, 3.141592653589763, 0))  # 3e-14 below pi/n, between two rays
def test_floquet_crack_columns(case):
    n, m, eps, ell = case
    spec = build_cracked_disk(n, eps, R1, R2)
    problem = next(p for p, _ in reduce_to_sectors(spec) if p.ell == ell)
    eps_idx = round(eps / ((2 * math.pi / n) / m))
    # a request within the 1e-12 angle tolerance of pi/n is the open disk
    if eps >= math.pi / n - 1e-12 or 2 * eps_idx >= m:
        expected = set()
    else:
        expected = {j for j in range(m) if eps_idx <= j <= m - eps_idx}
    assert _crack_columns(assemble(problem, m)) == expected


@st.composite
def quarter_cases(draw):
    m = draw(st.integers(8, 61))
    dtheta = (math.pi / 2) / m
    eps = min(_opening(draw, math.pi / 2, dtheta, m), math.pi / 2)
    return m, eps, draw(st.sampled_from(QUARTER_CASES))


@SETTINGS
@given(quarter_cases())
def test_quarter_crack_columns(case):
    m, eps, label = case
    spec = build_cracked_disk(2, eps, R1, R2)
    problem = next(p for p in quarter_problems(spec) if p.quarter_case == label)
    op = assemble(problem, m)
    eps_idx = round(eps / ((math.pi / 2) / m))
    expected = set() if eps_idx >= m else set(range(eps_idx, m + 1))
    assert _crack_columns(op) == expected & set(op.cols.tolist())


@st.composite
def capacity_cases(draw):
    m = draw(st.integers(8, 61))
    dtheta = 2 * math.pi / m
    arcs = []
    for _ in range(draw(st.integers(0, 3))):
        a = _opening(draw, 2 * math.pi, dtheta, m) - draw(st.sampled_from([0.0, 2 * math.pi]))
        b = a + min(_opening(draw, 2 * math.pi, dtheta, m), 2 * math.pi)
        while b - a > 2 * math.pi:   # the sum may round past a full turn
            b = math.nextafter(b, a)
        arcs.append((a, b))
    return m, tuple(arcs)


@SETTINGS
@given(capacity_cases())
def test_capacity_fixed_nodes(case):
    m, arcs = case
    problem = CapacityProblem(R1, R2, arcs, m)
    dtheta = 2 * math.pi / m
    expected = set()
    for a, b in arcs:
        expected |= {j % m for j in range(round(a / dtheta), round(b / dtheta) + 1)}
    ring = problem.grid.r1_ring
    _, fixed = _energy_system(problem)
    # the fully open disk numbers its unknowns ring by ring, center last
    got = {int(i) - (ring - 1) * m for i in np.nonzero(fixed)[0]}
    assert got == expected
