import math
import threading
import time

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from crackspec import specfun
from crackspec.domain import (
    QUARTER_CASES, build_cracked_disk, quarter_problems, reduce_to_sectors)
from crackspec.discretize import GridCache, assemble
from crackspec.eigensolve import lowest_eigenpairs, one_blas_thread

import dense_oracle


def _quarter(case, eps=math.pi / 2, m=10, r1=0.4356):
    spec = build_cracked_disk(2, eps, r1, 1.0)
    return assemble(next(p for p in quarter_problems(spec) if p.quarter_case == case), m)


def _floquet(n, ell, eps, m, r1=0.4356):
    spec = build_cracked_disk(n, eps, r1, 1.0)
    problem = next(p for p, t in reduce_to_sectors(spec) if p.ell == ell)
    return assemble(problem, m)


def test_grid_metadata_and_snapping():
    op = _quarter("DDD", m=10)
    g = op.grid
    assert g.dr == pytest.approx(0.1)
    assert g.dtheta == pytest.approx(math.pi / 20)
    assert g.r1_ring == 4 and g.r1 == pytest.approx(0.4)
    assert g.r1_snap_error == pytest.approx(0.0356)
    assert g.eps == pytest.approx(math.pi / 2)


def test_degenerate_snap_raises():
    spec = build_cracked_disk(2, 0.3, 0.01, 1.0)   # r1 snaps to ring 0
    with pytest.raises(ValueError):
        assemble(quarter_problems(spec)[0], 10)
    with pytest.raises(ValueError):
        assemble(quarter_problems(build_cracked_disk(2, 0.3, 0.999, 1.0))[0], 10)
    with pytest.raises(ValueError):
        assemble(quarter_problems(build_cracked_disk(2, 0.3, 0.4, 1.0))[0], 4)


def test_interior_stencil_coefficients():
    # read the stencil column off a unit vector: center coefficient
    # 2/dr^2 + 2/(r_i dtheta)^2, and at most 5 nonzeros away from seams
    op = _quarter("DDD", m=10)
    i, j = 6, 7  # interior unknown away from crack ring and boundaries
    row = np.nonzero((op.node_ring == i) & (op.node_col == j))[0][0]
    e = np.zeros(op.n)
    e[row] = 1.0
    col = op.matrix @ e
    dr, dth = op.grid.dr, op.grid.dtheta
    ri = i * dr
    assert op.matrix[row, row] == pytest.approx(2 / dr**2 + 2 / (ri * dth) ** 2)
    assert np.count_nonzero(col) <= 7


def test_row_sparsity_bounds():
    per_row = np.diff(_quarter("NND", m=12).matrix.indptr)
    op = _quarter("NND", m=12)
    per_row = np.diff(op.matrix.indptr)
    regular = per_row[np.arange(op.n) != op.center_row]
    assert regular.max() <= 5
    coupled = _floquet(3, 1, 0.4, 12)
    assert np.diff(coupled.matrix.indptr).max() <= 7  # seam rows gain 2


def test_neumann_mirror_doubles_neighbor():
    op = _quarter("NND", m=10, eps=math.pi / 2)
    dr, dth = op.grid.dr, op.grid.dtheta
    i = 5
    axis = np.nonzero((op.node_ring == i) & (op.node_col == 0))[0][0]
    inner = np.nonzero((op.node_ring == i) & (op.node_col == 1))[0][0]
    cang = -1.0 / ((i * dr) ** 2 * dth**2)
    assert op.matrix[axis, inner] == pytest.approx(2 * cang)
    assert op.matrix[inner, axis] == pytest.approx(cang)


def test_apply_linearity_and_dense_reconstruction():
    op = _quarter("NDD", eps=0.9, m=10)
    assert np.all(op.matrix @ np.zeros(op.n) == 0.0)
    dense = np.column_stack([op.matrix @ np.eye(op.n)[:, k] for k in range(op.n)])
    rng = np.random.default_rng(3)
    v = rng.standard_normal(op.n)
    lhs = op.matrix @ v
    assert np.linalg.norm(lhs - dense @ v) <= 1e-13 * np.linalg.norm(lhs)


def test_crack_elimination_counts():
    # eps = 0 eliminates the whole snapped ring: m columns on one ring
    m = 16
    open_op = _floquet(2, 0, math.pi / 2, m)
    closed_op = _floquet(2, 0, 0.0, m)
    assert open_op.n - closed_op.n == m
    # half-open: crack arc [eps, pi - eps] on the sector, endpoints included
    eps = 4 * (math.pi / m)  # snaps exactly to 4 rays
    half = _floquet(2, 0, eps, m)
    assert open_op.n - half.n == m - 8 + 1


def test_crack_tie_goes_to_dirichlet():
    # a node exactly at the arc endpoint is eliminated
    m = 16
    op = _floquet(2, 0, 4 * (math.pi / m), m)
    ring = op.grid.r1_ring
    cols_on_ring = sorted(op.node_col[op.node_ring == ring])
    assert 4 not in cols_on_ring and 3 in cols_on_ring
    assert (m - 4) not in cols_on_ring and (m - 3) in cols_on_ring


@pytest.mark.parametrize("n", range(1, 7))
def test_operator_sector_is_the_problem_tag(n):
    spec = build_cracked_disk(n, 0.1 / n, 0.4356, 1.0)
    tagged = reduce_to_sectors(spec)
    if n == 2:
        tagged += [(p, p.tag) for p in quarter_problems(spec)]
    for problem, tag in tagged:
        assert assemble(problem, 12).sector == tag == problem.tag


def test_center_policy_table():
    spec = build_cracked_disk(2, 0.7, 0.4356, 1.0)
    centers = {p.quarter_case: assemble(p, 12).center_row is not None
               for p in quarter_problems(spec)}
    assert centers == {"NND": True, "DDD": False, "NDD": False, "DND": False}
    spec3 = build_cracked_disk(3, 0.3, 0.4356, 1.0)
    probs = dict((p.ell, p) for p, _ in reduce_to_sectors(spec3))
    assert assemble(probs[0], 12).center_row is not None
    assert assemble(probs[1], 12).center_row is None


def test_center_row_structure():
    op = _quarter("NND", m=10)
    assert op.center_row is not None
    assert op.node_ring[op.center_row] == 0
    op2 = _quarter("DDD", m=10)
    assert op2.center_row is None


def test_disk_ground_state_small_grid():
    # full disk through the trivial n=1 sector; 1% window at m=60
    op = _floquet(1, 0, math.pi, 60)
    lam = lowest_eigenpairs(op, 1).eigenvalues[0]
    exact = specfun.bessel_zero(0, 1).value ** 2
    assert abs(lam - exact) / exact < 0.01


def test_quarter_nnd_endpoint_small_grid():
    op = _quarter("NND", m=45)
    lam = lowest_eigenpairs(op, 3).eigenvalues
    exact = [5.7832, 26.3746, 30.4713]
    for a, b in zip(lam, exact):
        assert abs(a - b) / b < 0.01


def test_grid_convergence_second_order():
    exact = specfun.bessel_zero(0, 1).value ** 2
    errs = []
    for m in (16, 32, 64):
        op = _floquet(1, 0, math.pi, m)
        lam = lowest_eigenpairs(op, 1)
        errs.append(abs(lam.eigenvalues[0] - exact))
    assert 3.0 < errs[0] / errs[1] < 5.0
    assert 3.0 < errs[1] / errs[2] < 5.0


def test_gershgorin_positivity():
    for op in (_quarter("DND", eps=0.8, m=12), _floquet(3, 1, 0.5, 12),
               _floquet(2, 1, 0.3, 12)):
        lam = dense_oracle.lowest_eigenpairs(op, 4).eigenvalues
        assert (lam > 0).all()


def test_floquet_open_sector_matches_disk_harmonics():
    # fully open n=3, ell=1 sector carries the angular orders 1, -2, 4, -5,
    # ... of the disk, each once
    op = _floquet(3, 1, math.pi / 3, 48)
    lam = lowest_eigenpairs(op, 4).eigenvalues
    exact = [specfun.bessel_zero(l, k).value ** 2 for l, k in ((1, 1), (2, 1), (1, 2), (4, 1))]
    assert lam == pytest.approx(exact, rel=5e-3)


def test_coupled_operator_is_complex_with_conjugate_seams():
    op = _floquet(3, 1, 0.4, 12)
    assert np.iscomplexobj(op.matrix.data)
    # one copy of the sector's nodes: the ell=0 sector has them plus a center
    assert op.n == _floquet(3, 0, 0.4, 12).n - 1
    alpha = 2 * math.pi / 3
    dr, dth = op.grid.dr, op.grid.dtheta
    i = 7
    hi = np.nonzero((op.node_ring == i) & (op.node_col == 11))[0][0]
    lo = np.nonzero((op.node_ring == i) & (op.node_col == 0))[0][0]
    cang = -1.0 / ((i * dr) ** 2 * dth**2)
    assert op.matrix[hi, lo] == pytest.approx(cang * np.exp(1j * alpha), rel=1e-15)
    assert op.matrix[lo, hi] == pytest.approx(cang * np.exp(-1j * alpha), rel=1e-15)
    for ell in (0, 1):
        assert not np.iscomplexobj(_floquet(2, ell, 0.4, 12).matrix.data)


def test_symmetrized_complex_operator_is_hermitian():
    for n, ell in ((3, 1), (4, 1), (5, 2), (6, 2)):
        op = _floquet(n, ell, 0.3, 20)
        d = np.sqrt(op.row_weights)
        s = (sp.diags(d) @ op.matrix @ sp.diags(1.0 / d)).toarray()
        assert np.abs(s - s.conj().T).max() <= 1e-14 * np.abs(s).max()


@settings(max_examples=25, deadline=None)
@given(n=st.integers(3, 6), data=st.data())
def test_complex_sector_matches_realified_stack(n, data):
    # the complex sector has a real spectrum which, each value doubled, is
    # the spectrum of its real form [[Re A, -Im A], [Im A, Re A]]
    ell = data.draw(st.integers(1, (n - 1) // 2), label="ell")
    eps = data.draw(st.floats(0.0, math.pi / n), label="eps")
    m = data.draw(st.integers(12, 24), label="m")
    a = _floquet(n, ell, eps, m).matrix.toarray()
    real_form = np.block([[a.real, -a.imag], [a.imag, a.real]])
    with one_blas_thread:
        lam = np.linalg.eigvals(a)
        stacked = np.sort(np.linalg.eigvals(real_form).real)
    assert np.abs(lam.imag).max() <= 1e-9 * stacked.max()
    assert np.abs(np.repeat(np.sort(lam.real), 2) - stacked).max() <= 1e-9 * stacked.max()


def test_antiperiodic_sector_matches_odd_harmonics():
    op = _floquet(2, 1, math.pi / 2, 48)
    lam = lowest_eigenpairs(op, 2).eigenvalues
    j11 = specfun.bessel_zero(1, 1).value ** 2
    assert lam[0] == pytest.approx(j11, rel=5e-3)
    assert lam[1] == pytest.approx(j11, rel=5e-3)  # cos and sin partners


def _symmetrized_spectrum(op):
    d = np.sqrt(op.row_weights)
    s = (sp.diags(d) @ op.matrix @ sp.diags(1.0 / d)).toarray()
    return np.linalg.eigvalsh(0.5 * (s + s.conj().T))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 6), data=st.data())
def test_monotone_in_epsilon(n, data):
    # a crack node closed at eps1 and open at eps2 is a row and column of the
    # eps2 operator that eps1 eliminates, so by Cauchy interlacing the
    # symmetrized spectrum can only fall as the holes open
    sectors = [("floquet", ell) for ell in range(n // 2 + 1)]
    if n == 2:
        sectors += [("quarter", case) for case in QUARTER_CASES]
    kind, which = data.draw(st.sampled_from(sectors), label="sector")
    eps1, eps2 = sorted(data.draw(st.lists(st.floats(0.0, math.pi / n),
                                           min_size=2, max_size=2), label="eps"))
    r1 = data.draw(st.floats(0.3, 0.7), label="r1")
    m = data.draw(st.integers(12, 22), label="m")
    spectra = []
    for eps in (eps1, eps2):
        spec = build_cracked_disk(n, eps, r1, 1.0)
        tagged = reduce_to_sectors(spec)
        assert sum(tag.weight for _, tag in tagged) == n
        if kind == "floquet":
            problem = tagged[which][0]
        else:
            problem = next(p for p in quarter_problems(spec) if p.quarter_case == which)
        spectra.append(_symmetrized_spectrum(assemble(problem, m)))
    lam1, lam2 = spectra
    top = min(lam1.size, lam2.size)
    assert (lam2[:top] <= lam1[:top] * (1 + 1e-12)).all()


def test_assembled_operator_owns_its_arrays():
    # every opening is sliced from one cached open operator; writing into
    # one leaves the next assembly of the same grid as it was
    op = _quarter("NDD", eps=0.7, m=12)
    before = op.matrix.copy()
    op.matrix.data[:] = 0.0
    op.row_weights[:] = 0.0
    op.node_ring[:] = 0
    op.cols[:] = 0
    again = _quarter("NDD", eps=0.7, m=12)
    assert (again.matrix != before).nnz == 0
    assert np.array_equal(again.matrix.indices, before.indices)
    assert again.row_weights.min() > 0 and again.node_ring.max() == 11
    assert again.cols[0] == 0 and again.cols[-1] == 11
    # the factors' bands are shared by every opening of the grid, so read-only
    for bands in (again.factors.radial, again.factors.angular):
        with pytest.raises(ValueError):
            bands[1, 0] = 0.0


class _SlowKey:
    """A key part whose hash sleeps a millisecond, releasing the GIL, so
    that threads interleave between a key's lookup and its insert."""

    def __hash__(self):
        time.sleep(0.001)
        return 0


def test_grid_cache_builds_a_key_once_for_every_thread():
    # eight threads ask for one missing key at once.  Its hash sleeps, so
    # without the cache's lock every thread would look it up missing and
    # make its own slot; its build sleeps, so without the slot's lock every
    # thread would build its own data
    cache, builds, got = GridCache(4), [], [None] * 8
    key, start = ("key", _SlowKey()), threading.Barrier(8)

    def build():
        builds.append(object())
        time.sleep(0.05)
        return builds[-1]

    def get(i):
        start.wait()
        got[i] = cache.get(key, build)

    workers = [threading.Thread(target=get, args=(i,)) for i in range(8)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=30)
    assert not any(w.is_alive() for w in workers)
    assert len(builds) == 1
    assert all(g is builds[0] for g in got)
