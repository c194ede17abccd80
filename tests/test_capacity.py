import gc
import math
import weakref

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from crackspec import capacity, discretize, eigensolve
from crackspec.eigensolve import SolverError
from crackspec.capacity import (
    AdditivityResult,
    CapacityProblem,
    _disk_green,
    _energy_system,
    additivity_ratio,
    capacitary_potential,
)

FULL = ((0.0, 2 * math.pi),)
R1, R2 = 0.4356, 1.0


def test_full_circle_matches_log_formula():
    # the separable potential log(r2/r)/log(r2/r1) is exact for the ring
    prob = CapacityProblem(0.4356, 1.0, FULL, 60)
    pot, res = capacitary_potential(prob)
    exact_snapped = 2 * math.pi / math.log(1.0 / prob.grid.r1)
    assert res.cap == pytest.approx(exact_snapped, rel=1e-3)
    assert res.cap == pytest.approx(2 * math.pi / 0.8312, rel=0.02)
    assert res.energy_residual <= 1e-10


def test_full_circle_interior_pinned_to_one():
    prob = CapacityProblem(0.4356, 1.0, FULL, 40)
    pot, _ = capacitary_potential(prob)
    inner = pot.field[:prob.grid.r1_ring - 1, :]
    assert np.allclose(inner, 1.0, atol=1e-9)
    assert pot.center == pytest.approx(1.0, abs=1e-9)


def test_empty_compact_has_zero_capacity():
    pot, res = capacitary_potential(CapacityProblem(0.4356, 1.0, (), 24))
    assert res.cap == 0.0
    assert np.all(pot.field == 0.0)


def test_maximum_principle():
    prob = CapacityProblem(0.4356, 1.0, ((1.0, 1.8),), 48)
    pot, _ = capacitary_potential(prob)
    assert pot.field.min() >= -1e-12
    assert pot.field.max() <= 1.0 + 1e-12
    assert 0.0 <= pot.center <= 1.0 + 1e-12


def test_monotone_in_the_compact():
    small = capacitary_potential(CapacityProblem(0.4356, 1.0, ((1.0, 1.2),), 48))[1].cap
    large = capacitary_potential(CapacityProblem(0.4356, 1.0, ((0.9, 1.5),), 48))[1].cap
    assert small <= large


def test_projected_gradient_oracle():
    # steepest descent with exact line search on the same discrete energy,
    # projecting the constraints back each step
    prob = CapacityProblem(0.4356, 1.0,
                           ((math.pi / 2 - 0.2, math.pi / 2 + 0.2),
                            (3 * math.pi / 2 - 0.2, 3 * math.pi / 2 + 0.2)), 40)
    lap, fixed = _energy_system(prob)
    n = lap.shape[0]
    v = np.zeros(n)
    v[fixed] = 1.0
    for _ in range(25000):
        g = lap @ v
        g[fixed] = 0.0
        gg = float(g @ g)
        if gg < 1e-24:
            break
        step = gg / float(g @ (lap @ g))
        v -= step * g
        v[fixed] = 1.0
    cap_pg = float(v @ (lap @ v))
    cap_direct = capacitary_potential(prob)[1].cap
    assert cap_pg == pytest.approx(cap_direct, rel=1e-4)


def test_antipodal_symmetry_and_subadditivity():
    res = additivity_ratio(0.4356, 1.0, 0.2, 60)
    assert res.cap_plus == pytest.approx(res.cap_minus, abs=1e-10)
    assert res.cap_total <= res.cap_plus + res.cap_minus + 1e-12
    assert 0.0 < res.ratio < 1.0 + 1e-12


def test_additivity_ladder_monotone_toward_one():
    ratios = [additivity_ratio(0.4356, 1.0, d, 60).ratio
              for d in (0.4, 0.2, 0.1, 0.05)]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert 0.90 <= ratios[-1] <= 1.0  # measured 0.93 at m=180; 0.95 is not reached


def test_capacity_vanishes_with_the_arcs():
    caps = [additivity_ratio(0.4356, 1.0, d, 48).cap_total
            for d in (0.4, 0.2, 0.1, 0.05)]
    assert all(b < a for a, b in zip(caps, caps[1:]))


def test_validation_errors():
    with pytest.raises(ValueError):
        CapacityProblem(1.0, 0.4, FULL, 24)
    with pytest.raises(ValueError):
        CapacityProblem(0.4, 1.0, ((1.0, 0.5),), 24)
    with pytest.raises(ValueError):
        CapacityProblem(0.4, 1.0, FULL, 4)
    with pytest.raises(ValueError):
        additivity_ratio(0.4356, 1.0, 2.0, 24)
    with pytest.raises(ValueError):
        CapacityProblem(0.001, 1.0, FULL, 24).grid


def test_snapped_arcs_reported():
    prob = CapacityProblem(0.4356, 1.0, ((0.3, 0.7),), 36)
    grid = prob.grid
    (a, b), = prob.arcs
    lo, hi = grid.snap_angle(a), grid.snap_angle(b)
    dth = 2 * math.pi / 36
    assert lo == pytest.approx(round(0.3 / dth) * dth)
    assert hi == pytest.approx(round(0.7 / dth) * dth)
    mask = grid.ring_mask(prob.arcs)
    assert mask.sum() == round(hi / dth) - round(lo / dth) + 1


# ---------------------------------------------------------------------------
# the Green's column against direct elimination
# ---------------------------------------------------------------------------

def _direct_potential(prob):
    """The potential and capacity by elimination of the arc unknowns: one LU
    of the free block, one solve and one step of iterative refinement."""
    lap, fixed = _energy_system(prob)
    v = np.zeros(lap.shape[0])
    v[fixed] = 1.0
    free = ~fixed
    lap_ff = lap[free][:, free].tocsc()
    rhs = -(lap[free][:, fixed] @ v[fixed])
    lu = spla.splu(lap_ff)
    v_free = lu.solve(rhs)
    v_free += lu.solve(rhs - lap_ff @ v_free)
    v[free] = v_free
    return v, float(np.sum(v * (lap @ v)))


@st.composite
def arc_sets(draw):
    """One to three arcs: the full circle, or an arc that may start below
    theta = 0 (so it crosses it) or end past 2*pi, of width up to 1.9*pi."""
    arcs = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.integers(0, 9)) == 0:
            arcs.append((0.0, 2 * math.pi))
        else:
            a = draw(st.floats(-math.pi, 2 * math.pi))
            arcs.append((a, a + draw(st.floats(0.0, 1.9 * math.pi))))
    return tuple(arcs)


@settings(max_examples=60, deadline=None)
@given(m=st.sampled_from([24, 25, 40]), arcs=arc_sets(), extra=arc_sets())
def test_green_column_matches_direct_elimination(m, arcs, extra):
    prob = CapacityProblem(R1, R2, arcs, m)
    pot, res = capacitary_potential(prob)
    v_direct, cap_direct = _direct_potential(prob)
    assert res.cap == pytest.approx(cap_direct, rel=1e-12)
    assert np.max(np.abs(np.append(pot.field, pot.center) - v_direct)) <= 1e-12
    # monotone in the compact, and subadditive
    grown = capacitary_potential(CapacityProblem(R1, R2, arcs + extra, m))[1].cap
    other = capacitary_potential(CapacityProblem(R1, R2, extra, m))[1].cap
    assert res.cap <= grown * (1 + 1e-12)
    assert grown <= (res.cap + other) * (1 + 1e-12)


@pytest.mark.parametrize("m", [24, 25])
def test_green_columns_are_rotations_of_the_cached_one(m):
    # the circulant ring block rests on this: the unit charge at column f
    # gives the cached column rotated by f columns, on every ring
    ring = CapacityProblem(R1, R2, FULL, m).grid.r1_ring
    lap, g = _disk_green(ring, R2, m)
    lu = spla.splu(lap.tocsc())
    cols = np.arange(m)
    on_ring = (ring - 1) * m + cols
    units = np.zeros((lap.shape[0], m))
    units[on_ring, cols] = 1.0
    columns = lu.solve(units)
    block = columns[on_ring]
    assert np.max(np.abs(block - g[on_ring][(cols[:, np.newaxis] - cols) % m])) <= 1e-13
    rings = g[:-1].reshape(m - 1, m)
    for f in cols:
        assert np.max(np.abs(columns[:-1, f].reshape(m - 1, m)
                             - np.roll(rings, f, axis=1))) <= 1e-13
        assert columns[-1, f] == pytest.approx(g[-1], abs=1e-13)


@pytest.mark.parametrize("m", [24, 25])
def test_capacity_invariant_under_whole_grid_rotations(m):
    dth = 2 * math.pi / m
    arcs = ((2.2 * dth, 7.1 * dth), (11.9 * dth, 13.3 * dth))
    caps, direct = [], []
    for s in (0, 1, 5, m - 9, m - 4):
        prob = CapacityProblem(R1, R2, tuple((a + s * dth, b + s * dth) for a, b in arcs), m)
        caps.append(capacitary_potential(prob)[1].cap)
        direct.append(_direct_potential(prob)[1])
    assert caps == pytest.approx([caps[0]] * len(caps), rel=1e-12)
    assert direct == pytest.approx([caps[0]] * len(caps), rel=1e-12)


def test_one_inverse_per_grid(monkeypatch):
    # one Green's-column build per grid, each of them the only caller of the
    # open solve on its grid
    inner, applies = capacity.open_solve, []

    def counting(op, b):
        applies.append(op.grid.m)
        return inner(op, b)

    monkeypatch.setattr(capacity, "open_solve", counting)
    _disk_green.cache_clear()
    # the empty compact needs no Green's column
    assert capacitary_potential(CapacityProblem(R1, R2, (), 24))[1].cap == 0.0
    assert applies == [] and _disk_green.cache_info().misses == 0
    ring = capacitary_potential(CapacityProblem(R1, R2, FULL, 24))[1].cap
    solves = len(applies)
    assert solves > 0 and _disk_green.cache_info().misses == 1
    for d in (0.4, 0.2, 0.1, 0.05):
        additivity_ratio(R1, R2, d, 24)
    assert _disk_green.cache_info().misses == 1 and applies == [24] * solves
    # another r1 on the same ring shares the column, and reports itself
    near = R1 - 0.2 / 24
    here, there = CapacityProblem(R1, R2, FULL, 24), CapacityProblem(near, R2, FULL, 24)
    assert capacitary_potential(there)[1].cap == ring
    assert _disk_green.cache_info().misses == 1 and applies == [24] * solves
    assert there.grid.r1_ring == here.grid.r1_ring and there.grid.r1 == here.grid.r1
    assert (here.grid.r1_requested, there.grid.r1_requested) == (R1, near)
    assert there.grid.r1_snap_error != here.grid.r1_snap_error
    # a new grid builds its own
    capacitary_potential(CapacityProblem(R1, R2, FULL, 25))
    assert _disk_green.cache_info().misses == 2 and applies == [24] * solves + [25] * solves


def test_green_column_refuses_a_residual_above_its_bound(monkeypatch):
    # a solve that is off by a constant 1e-9 leaves it in the refined column
    # too: ||L g - e||_inf is 1e-9 times the outer ring's conductance
    inner = capacity.open_solve
    monkeypatch.setattr(capacity, "open_solve", lambda op, b: inner(op, b) + 1e-9)
    _disk_green.cache_clear()
    with pytest.raises(SolverError, match="Green's column leaves residual"):
        capacitary_potential(CapacityProblem(R1, R2, FULL, 24))
    _disk_green.cache_clear()


def test_disk_green_keeps_no_second_copy_of_the_disk():
    # `_disk_green` keeps its own Laplacian, so the open disk operator it
    # assembles from is not left in the assembly cache
    discretize._open_grids.clear()
    _disk_green.cache_clear()
    capacitary_potential(CapacityProblem(R1, R2, FULL, 26))
    assert len(discretize._open_grids) == 0
    # the disk is fully open: its open operator is its assembled operator
    disk = CapacityProblem(R1, R2, FULL, 26).disk
    kept = discretize.assemble(disk, 26)
    assert len(discretize._open_grids) == 1
    alone = discretize.open_operator(disk, 26)
    assert (alone.matrix != kept.matrix).nnz == 0
    assert np.array_equal(alone.matrix.indices, kept.matrix.indices)
    assert np.array_equal(alone.row_weights, kept.row_weights)
    assert np.array_equal(alone.node_ring, kept.node_ring)
    assert alone.factors.has_center and kept.center_row == alone.node_ring.size - 1


def test_capacity_keeps_no_mode_rows_of_the_disk(monkeypatch):
    # the disk's mode rows live on its open operator, which `_disk_green`
    # does not keep: once the potential is solved, none is reachable
    built = []
    init = eigensolve._ModeRows.__init__

    def spy(self, *args):
        init(self, *args)
        built.append(weakref.ref(self))

    monkeypatch.setattr(eigensolve._ModeRows, "__init__", spy)
    _disk_green.cache_clear()
    capacitary_potential(CapacityProblem(R1, R2, FULL, 28))
    gc.collect()
    assert len(built) == 1
    assert built[0]() is None
