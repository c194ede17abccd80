import ctypes
import dataclasses
import importlib
import itertools
import math
import os
import sys
import threading
import types

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import assume, example, given, settings, strategies as st

from crackspec.domain import (
    QUARTER_CASES,
    build_cracked_disk,
    quarter_problems,
    reduce_to_sectors,
)
from crackspec import capacity, discretize, eigensolve
from crackspec.capacity import CapacityProblem, capacitary_potential
from crackspec.discretize import assemble
from crackspec.eigensolve import (
    SolverError,
    group_multiplicities,
    lowest_eigenpairs,
    one_blas_thread,
    open_solve,
)
from crackspec.spectra import solve_sector, sweep

import dense_oracle


def _toy_op(case="DDD", m=10, eps=0.9):
    spec = build_cracked_disk(2, eps, 0.4356, 1.0)
    problem = next(p for p in quarter_problems(spec) if p.quarter_case == case)
    return assemble(problem, m)


def _with_open(op, **changes):
    """The opening `op` of its grid's open operator with `changes`."""
    return dataclasses.replace(op, open=dataclasses.replace(op.open, **changes))


def _dense(bands):
    """The matrix X of a factor's periodic bands: X[j, j-1], X[j, j] and
    X[j, j+1], indices mod n, scattered into zeros."""
    n = bands.shape[1]
    x, j = np.zeros((n, n), dtype=bands.dtype), np.arange(n)
    for band in range(3):
        x[j, (j + band - 1) % n] += bands[band]
    return x


def _skew(x):
    """max |X - X^H| / max |X|."""
    return np.abs(x - x.conj().T).max() / np.abs(x).max()


def test_dense_and_sparse_paths_agree():
    op = _toy_op()  # n < 400
    dense = dense_oracle.lowest_eigenpairs(op, 6)
    sparse = lowest_eigenpairs(op, 6)
    assert np.allclose(dense.eigenvalues, sparse.eigenvalues, rtol=1e-10, atol=1e-10)


def test_matches_dense_brute_force():
    op = _toy_op("NND", m=10, eps=math.pi / 2)
    brute = np.sort(np.linalg.eigvals(op.matrix.toarray()).real)
    mine = lowest_eigenpairs(op, 5).eigenvalues
    assert np.allclose(mine, brute[:5], rtol=1e-10, atol=1e-10)


def test_residual_certificates_hold():
    for solve in (dense_oracle.lowest_eigenpairs, lowest_eigenpairs):
        s = solve(_toy_op("DND"), 4, tol=1e-8)
        scale = np.maximum(1.0, np.abs(s.eigenvalues))
        assert (s.residuals <= 1e-8 * scale).all()
        assert s.vectors.shape == (_toy_op("DND").n, 4)


def test_residual_certificate_refuses_a_zero_vector(monkeypatch):
    # a zero vector's residual is 0/0, a NaN, which no bound holds
    op = _toy_op("DND")
    inner = eigensolve._Secular.lowest

    def zeroed(secular, k):
        lam, vecs = inner(secular, k)
        vecs[:, 0] = 0.0
        return lam, vecs

    monkeypatch.setattr(eigensolve._Secular, "lowest", zeroed)
    with pytest.raises(SolverError, match="residual certificate failed"), \
            np.errstate(invalid="ignore"):
        lowest_eigenpairs(op, 3)


def test_shift_invariance():
    # R's diagonal band and the center's shifted by c shift the operator by c I
    op = _toy_op("NND", m=12)
    rng = np.random.default_rng(11)
    c = float(rng.uniform(0.5, 5.0))
    f = op.factors
    radial = f.radial.copy()
    radial[1] += c
    shifted = _with_open(op, factors=dataclasses.replace(
        f, radial=radial, center_diag=f.center_diag + c))
    for solve in (dense_oracle.lowest_eigenpairs, lowest_eigenpairs):
        base = solve(op, 4).eigenvalues
        moved = solve(shifted, 4).eigenvalues
        assert np.allclose(moved, base + c, rtol=0, atol=1e-10)


def test_eigenvalues_sorted():
    op = _toy_op("DDD", m=14, eps=0.7)
    s = lowest_eigenpairs(op, 5)
    assert (np.diff(s.eigenvalues) >= 0).all()


def test_complex_pair_detection():
    # the dense oracle refuses an eigenvalue off the real axis
    rot = sp.csr_matrix(np.array([[1.0, -2.0], [2.0, 1.0]]))  # eigenvalues 1 +- 2i
    fake = types.SimpleNamespace(matrix=sp.block_diag([rot] * 5).tocsr())
    with pytest.raises(SolverError, match="non-real eigenvalue"):
        dense_oracle.lowest_eigenpairs(fake, 2)


def test_parameter_validation():
    op = _toy_op(m=10)
    with pytest.raises(ValueError):
        lowest_eigenpairs(op, 0)
    with pytest.raises(ValueError):
        lowest_eigenpairs(op, op.n)
    with pytest.raises(ValueError, match=rf"k={op.n // 4 + 1} above n/4 = {op.n // 4} "
                                         rf"for sector DDD \({op.n} unknowns at M=10\)"):
        lowest_eigenpairs(op, op.n // 4 + 1)
    for tol in (1e-13, math.nan, math.inf):
        with pytest.raises(ValueError, match="not a finite number at or above the 1e-12 floor"):
            lowest_eigenpairs(op, 2, tol=tol)


def test_deterministic_repeat():
    op = _toy_op("NND", m=16)
    a = lowest_eigenpairs(op, 4).eigenvalues
    b = lowest_eigenpairs(op, 4).eigenvalues
    assert np.array_equal(a, b)


def test_annulus_sector_value():
    # eps=0 splits off the annulus; the ell=1 sector of n=4 starts at the
    # m=1 annulus eigenvalue 32.53, once, and goes on to the m=3 value 48.78.
    # m=101 keeps the r1 snap at 4e-5.
    spec = build_cracked_disk(4, 0.0, 0.4356, 1.0)
    problem = next(p for p, t in reduce_to_sectors(spec) if p.ell == 1)
    op = assemble(problem, 101)
    s = lowest_eigenpairs(op, 2)
    assert s.eigenvalues[0] == pytest.approx(32.53, rel=5e-3)
    assert s.eigenvalues[1] == pytest.approx(48.78, rel=5e-3)


def _coupled_op(n=3, ell=1, eps=0.4, m=16):
    spec = build_cracked_disk(n, eps, 0.4356, 1.0)
    return assemble(next(p for p, t in reduce_to_sectors(spec) if p.ell == ell), m)


def test_dense_and_sparse_paths_agree_on_complex_operator():
    op = _coupled_op()
    dense = dense_oracle.lowest_eigenpairs(op, 6)
    sparse = lowest_eigenpairs(op, 6)
    assert np.allclose(dense.eigenvalues, sparse.eigenvalues, rtol=1e-10, atol=1e-10)
    for s in (dense, sparse):
        assert np.iscomplexobj(s.vectors)
        assert (s.residuals <= 1e-8 * s.eigenvalues).all()


def _symmetrized(op):
    d = np.sqrt(op.row_weights)
    s = sp.diags(d) @ op.matrix @ sp.diags(1.0 / d)
    return 0.5 * (s + s.conj().T)


@pytest.mark.parametrize("op", [_toy_op("NND", m=12), _coupled_op()],
                         ids=["real", "complex"])
def test_operator_check_refuses_a_shifted_matrix(op):
    # the check reads the factors' bands: radii shifted by half a step leave
    # r^1/2 R r^-1/2 unsymmetric, an entry of T scaled away from its mirror
    # leaves cell^1/2 T cell^-1/2 non-Hermitian, and a shifted center
    # weight unmatches the center's links
    f = op.factors
    angular = f.angular.copy()
    angular[2, 2] *= 1.5                # T[2, 3], on T's upper band
    broken = [(dataclasses.replace(f, r=f.r + f.r[0] / 2), "radial factor"),
              (dataclasses.replace(f, angular=angular), "angular factor")]
    if f.has_center:
        broken.append((dataclasses.replace(f, center_weight=1.5 * f.center_weight),
                       "center links"))
    for factors, part in broken:
        with pytest.raises(SolverError, match=f"symmetrized operator is not Hermitian "
                                              f"\\(relative residual .* in its {part}\\)"):
            lowest_eigenpairs(_with_open(op, factors=factors), 2)


def test_inverse_refuses_factors_that_are_not_positive_definite():
    # the positive-definite banded solve stops at the first pivot that is
    # not positive
    op = _toy_op("DND", m=11, eps=math.pi / 2)
    f = op.open.factors
    broken = _with_open(op, factors=dataclasses.replace(f, radial=-f.radial))
    with pytest.raises(SolverError, match="not positive definite \\(pivot"):
        open_solve(broken.open, np.ones(broken.n))


def test_open_solve_refuses_factors_that_fail_the_check():
    # the check runs where the mode rows are built, so an open solve, which
    # takes T's spectrum in closed form and never reads T, refuses T too
    op = _toy_op("DND", m=11, eps=math.pi / 2)
    f = op.open.factors
    angular = f.angular.copy()
    angular[2, 2] *= 1.5                # T[2, 3], on T's upper band
    broken = _with_open(op, factors=dataclasses.replace(f, angular=angular))
    with pytest.raises(SolverError, match="symmetrized operator is not Hermitian "
                                          "\\(relative residual .* in its angular factor\\)"):
        open_solve(broken.open, np.ones(broken.n))


def test_open_solve_refuses_complex_data():
    real = _toy_op("DND", m=11, eps=math.pi / 2)
    complex_op = _coupled_op(eps=math.pi / 3)
    for op, b in ((complex_op, np.ones(complex_op.n)), (real, np.ones(real.n) + 0j)):
        with pytest.raises(ValueError, match="fully open real operator"):
            open_solve(op.open, b)


def test_secular_solve_refuses_factors_that_are_not_positive_definite():
    op = _toy_op("NDD", m=11)
    f = op.open.factors
    broken = _with_open(op, factors=dataclasses.replace(f, radial=-f.radial))
    with pytest.raises(SolverError, match="open operator has eigenvalue"):
        eigensolve._grid_rows(broken.open).side(broken.grid.r1_ring, False)


def test_secular_solve_refuses_a_capacitance_block_that_is_not_positive_definite(monkeypatch):
    # the congruence reads phi(0) of the side the opening is solved on, and
    # its Cholesky factor refuses a phi(0) of the wrong sign: the hole's at
    # epsilon 0.5, the crack's at 1.2
    for eps, hole in ((0.5, True), (1.2, False)):
        op = _toy_op("NND", m=10, eps=eps)
        assert (eigensolve._Secular(op).offset > 0) == hole
        spec = eigensolve._grid_rows(op.open).side(op.grid.r1_ring, hole)
        monkeypatch.setattr(spec, "phi0", -spec.phi0)
        with pytest.raises(SolverError, match="capacitance block"):
            lowest_eigenpairs(op, 2)


def test_grid_cache_under_concurrent_use():
    # more threads than cores, switching often, each assembling its own
    # openings over more open grids and more radial grids (with their r1
    # rings) than their caches hold: a lost update would hand a thread
    # another grid's modes, raise inside a cache or leave one above its bound
    grids = [(case, m, ring) for case in QUARTER_CASES for m in (9, 10, 11) for ring in (2, 4, 6)]
    assert len({(case, m) for case, m, _ in grids}) > discretize._OPEN_GRIDS
    assert len({(m, ring) for _, m, ring in grids}) > eigensolve._RADIAL_GRIDS
    wrong = []

    def use():
        try:
            for _ in range(5):
                for case, m, ring in grids:
                    op = assemble(_sector("quarter", case, 2, 0.9, ring, m), m)
                    side = eigensolve._grid_rows(op.open).side(ring, False)
                    if (side.poles.shape != (op.cols.size, m - 1 + op.factors.has_center)
                            or side.ring != ring - 1 + op.factors.has_center):
                        wrong.append(op.sector.label)
                    if (len(discretize._open_grids) > discretize._OPEN_GRIDS
                            or len(eigensolve._radial_tables) > eigensolve._RADIAL_GRIDS):
                        wrong.append("over the bound")
        except Exception as exc:  # reported by the assert below
            wrong.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=use) for _ in range(8)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert wrong == []


def _sector(kind, which, n, eps, ring, m):
    spec = build_cracked_disk(n, eps, ring / m, 1.0)
    if kind == "floquet":
        return reduce_to_sectors(spec)[which][0]
    return next(p for p in quarter_problems(spec) if p.quarter_case == which)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_secular_solve_matches_eigh_on_every_sector(data):
    sectors = [("quarter", case, 2) for case in QUARTER_CASES]
    sectors += [("floquet", ell, n) for n in (2, 3, 4) for ell in range(n // 2 + 1)]
    kind, which, n = data.draw(st.sampled_from(sectors), label="sector")
    m = data.draw(st.integers(8, 40), label="m")
    ring = data.draw(st.integers(1, m - 1), label="r1 ring")
    dtheta = (math.pi / 2 if kind == "quarter" else 2 * math.pi / n) / m
    eps = data.draw(st.sampled_from([0.0, dtheta, math.pi / n]), label="eps")
    op = assemble(_sector(kind, which, n, eps, ring, m), m)
    with one_blas_thread:
        oracle = sla.eigh(_symmetrized(op).toarray(), eigvals_only=True, subset_by_index=[0, 2])
    sparse = lowest_eigenpairs(op, 3)
    assert np.allclose(sparse.eigenvalues, oracle, rtol=1e-10, atol=0)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_open_solve_inverts_every_fully_open_real_grid(data):
    # the disk, the quarter cases and the real Floquet sectors, fully open
    sectors = [("floquet", 0, 1)] + [("quarter", case, 2) for case in QUARTER_CASES]
    sectors += [("floquet", 0, n) for n in (2, 3, 4)] + [("floquet", n // 2, n) for n in (2, 4)]
    kind, which, n = data.draw(st.sampled_from(sectors), label="sector")
    m = data.draw(st.integers(8, 40), label="m")
    ring = data.draw(st.integers(1, m - 1), label="r1 ring")
    discretize._open_grids.clear()          # an open operator with no side built yet
    op = assemble(_sector(kind, which, n, math.pi / n, ring, m), m)
    x = np.random.default_rng(7).standard_normal(op.n)
    with one_blas_thread:
        back = open_solve(op.open, op.matrix @ x)
    assert np.linalg.norm(back - x) <= 1e-11 * np.linalg.norm(x)
    assert len(eigensolve._grid_rows(op.open).sides) == 0      # no side of the ring is built


_ALL_SECTORS = ([("quarter", case, 2) for case in QUARTER_CASES]
                + [("floquet", ell, n) for n in range(1, 7) for ell in range(n // 2 + 1)])


@settings(max_examples=40, deadline=None)
@given(sector=st.sampled_from(_ALL_SECTORS), opening=st.floats(0.0, 1.0),
       m=st.integers(12, 22), ring=st.none(), k=st.integers(1, 6))
# hard inputs: a secular solve has returned 30.39 for 9.804 on the first
# (a missed root) and failed the eigenvector certificate on the others
# (4.4e-8 and 1.1e-8)
@example(sector=("floquet", 0, 6), opening=0.0, m=32, ring=2, k=6)
@example(sector=("quarter", "DND", 2), opening=0.3494 / (math.pi / 2), m=27, ring=1, k=5)
@example(sector=("floquet", 2, 6), opening=0.476 / (math.pi / 6), m=32, ring=5, k=6)
def test_sparse_path_matches_dense_oracle(sector, opening, m, ring, k):
    # `opening` is epsilon in units of pi/n; no ring means r1 = 0.4356
    kind, which, n = sector
    op = assemble(_sector(kind, which, n, opening * math.pi / n,
                          0.4356 * m if ring is None else ring, m), m)
    k = min(k, op.n // 4)
    dense = dense_oracle.lowest_eigenpairs(op, k)
    sparse = lowest_eigenpairs(op, k)
    assert np.allclose(sparse.eigenvalues, dense.eigenvalues, rtol=1e-10, atol=0)
    assert (sparse.residuals <= 1e-8 * np.maximum(1.0, sparse.eigenvalues)).all()


_GRIDS = st.integers(8, 40).flatmap(lambda m: st.tuples(st.just(m), st.integers(1, m - 1)))


@settings(max_examples=40, deadline=None)
@given(sector=st.sampled_from(_ALL_SECTORS), grid=_GRIDS)
def test_the_closed_side_holds_the_open_sides_phi0(sector, grid):
    # on the closed side phi_j(0) = -1/g_j(0), from the closed poles alone,
    # so a hole-side opening needs no open side for its congruence
    (kind, which, n), (m, ring) = sector, grid
    rows = eigensolve._grid_rows(assemble(_sector(kind, which, n, 0.3, ring, m), m).open)
    closed, open_ = (rows.side(ring, hole).phi0 for hole in (True, False))
    assert np.all(open_ > 0)
    assert np.allclose(-closed, 1 / open_, rtol=1e-11, atol=0)


@settings(max_examples=60, deadline=None)
@given(sector=st.sampled_from(_ALL_SECTORS), grid=_GRIDS,
       opening=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
# closed with r1 on ring 1, where the opening loses the largest entries of S
@example(sector=("quarter", "NND", 2), grid=(40, 1), opening=0.0)
@example(sector=("floquet", 1, 3), grid=(40, 1), opening=0.0)
def test_an_opening_is_its_open_operator_on_its_mask(sector, grid, opening):
    # `opening` is epsilon in units of pi/n
    (kind, which, n), (m, ring) = sector, grid
    op = assemble(_sector(kind, which, n, opening * math.pi / n, ring, m), m)
    grid_open, keep = op.open, op.keep
    want = grid_open.matrix[keep][:, keep].tocsr()
    want.sort_indices()
    assert np.array_equal(op.matrix.indptr, want.indptr)
    assert np.array_equal(op.matrix.indices, want.indices)
    assert op.matrix.data.tobytes() == want.data.tobytes()
    for name in ("row_weights", "node_ring", "node_col"):
        assert np.array_equal(getattr(op, name), getattr(grid_open, name)[keep])
    assert np.array_equal(op.cols, grid_open.cols)
    assert (grid_open.node_ring[~keep] == op.grid.r1_ring).all()
    assert np.array_equal(grid_open.node_col[~keep], grid_open.cols[op.crack])
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(op, matrix=want)


def test_a_sweep_checks_each_grid_once(monkeypatch):
    # the check of a grid's open operator covers all of its openings: three
    # openings of two sector grids run it twice
    calls = []
    inner = eigensolve._check_grid

    def spy(grid_open):
        calls.append(grid_open)
        return inner(grid_open)

    monkeypatch.setattr(eigensolve, "_check_grid", spy)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    discretize._open_grids.clear()
    sweep(build_cracked_disk(3, 0.0, 0.4356, 1.0), [0.2, 0.5, 0.9], 16, 2)
    assert len(calls) == 2 and calls[0] is not calls[1]


def test_a_solve_scatters_no_matrix():
    # the solves and their certificates apply the factors: after a sweep and
    # a solve, no open operator or opening holds its CSR
    discretize._open_grids.clear()
    sweep(build_cracked_disk(3, 0.0, 0.4356, 1.0), [0.2, 0.5, math.pi / 3], 16, 2)
    opening = solve_sector(_sector("quarter", "NND", 2, 0.5, 7, 16), 16, 3).operator
    grids = [slot.data for slot in discretize._open_grids._slots.values()]
    assert len(grids) == 3
    for op in grids + [opening]:
        assert "matrix" not in vars(op)


@settings(max_examples=40, deadline=None)
@given(sector=st.sampled_from(_ALL_SECTORS), grid=_GRIDS, opening=st.floats(0.0, 1.0))
def test_the_matrix_is_the_apply_of_its_factors(sector, grid, opening):
    # the CSR scattered from the factors, of the open operator and of an
    # opening (its principal submatrix), against the factors' banded apply
    (kind, which, n), (m, ring) = sector, grid
    op = assemble(_sector(kind, which, n, opening * math.pi / n, ring, m), m)
    rng = np.random.default_rng(m * ring)
    x = rng.standard_normal(op.keep.size)
    if np.iscomplexobj(op.factors.angular):
        x = x + 1j * rng.standard_normal(x.shape)
    want = op.factors.apply(x)
    assert np.linalg.norm(op.open.matrix @ x - want) <= 1e-12 * np.linalg.norm(want)
    x[~op.keep] = 0.0
    want = op.factors.apply(x)[op.keep]
    assert np.linalg.norm(op.matrix @ x[op.keep] - want) <= 1e-12 * np.linalg.norm(want)


@settings(max_examples=40, deadline=None)
@given(sector=st.sampled_from(_ALL_SECTORS), grid=_GRIDS, seed=st.integers(0, 2**32 - 1))
def test_the_check_symmetrizes_on_the_bands(sector, grid, seed):
    # the check's residuals and symmetrized bands against the dense
    # reference on the factors scattered into matrices: max |X - X^H| /
    # max |X| and (X + X^H)/2 of X = s F s^-1, to the bit.  Each band entry
    # is moved by 1e-12 relative, so that the residuals are not round-off
    # alone and still pass; the center's links against the symmetrized CSR
    (kind, which, n), (m, ring) = sector, grid
    op = assemble(_sector(kind, which, n, 0.5 * math.pi / n, ring, m), m)
    rng = np.random.default_rng(seed)
    f = dataclasses.replace(op.factors, **{
        name: bands * (1 + 1e-12 * rng.standard_normal(bands.shape))
        for name, bands in (("radial", op.factors.radial), ("angular", op.factors.angular))})
    sym = eigensolve._check_grid(f)
    assert sym.factors is f
    for part, bands, weights, got in (("radial factor", f.radial, f.r, sym.radial),
                                      ("angular factor", f.angular, f.cell, sym.angular)):
        s = np.sqrt(weights)
        x = _dense(bands) * s[:, np.newaxis] / s
        assert sym.residuals[part] == _skew(x) > 0
        assert got.shape == bands.shape and got.dtype == bands.dtype
        assert np.array_equal(_dense(got), (x + x.conj().T) / 2)
    assert (sym.link is None) == (not f.has_center) == ("center links" not in sym.residuals)
    if f.has_center:
        ring1 = _symmetrized(op.open).toarray()[-1, :f.cell.size]
        assert np.allclose(sym.link, ring1, rtol=1e-14, atol=0)
        assert sym.residuals["center links"] <= 1e-15


@pytest.mark.parametrize("m", [24, 25])
@pytest.mark.parametrize("sector", _ALL_SECTORS)
def test_the_factors_hold_their_bands(sector, m):
    # no array of an open operator's factors is a matrix: each holds at
    # most three entries per column of the grid, m + 1 columns on a quarter
    # grid with two Neumann rays
    kind, which, n = sector
    f = discretize.open_operator(_sector(kind, which, n, 0.5, m // 2, m), m).factors
    sizes = {name: a.size for name, a in vars(f).items() if isinstance(a, np.ndarray)}
    assert max(sizes.values()) <= 3 * (m + 1), sizes
    assert f.radial.shape == (3, m - 1) and f.angular.shape == (3, f.cell.size)


@settings(max_examples=60, deadline=None)
@given(sector=st.sampled_from(_ALL_SECTORS), data=st.data())
def test_count_matches_the_dense_count(sector, data):
    kind, which, n = sector
    m = data.draw(st.integers(8, 32), label="m")
    ring = data.draw(st.integers(1, m - 1), label="r1 ring")
    dtheta = (math.pi / 2 if kind == "quarter" else 2 * math.pi / n) / m
    eps = data.draw(st.one_of(
        st.sampled_from([0.0, dtheta, math.pi / n - dtheta, math.pi / n]),
        st.floats(0.0, math.pi / n)), label="eps")
    op = assemble(_sector(kind, which, n, eps, ring, m), m)
    solve = eigensolve._Secular(op)
    sigma = data.draw(st.floats(1.0, 300.0), label="sigma")
    assume(np.abs(solve.spec.sorted - sigma).min() >= 1e-8 * sigma)
    with one_blas_thread:
        dense = np.linalg.eigvalsh(_symmetrized(op).toarray())
    assert solve.count(sigma) == (dense < sigma).sum()


def test_completeness_certificate_catches_a_skipped_root(monkeypatch):
    op = _coupled_op(n=3, ell=0, eps=0.4, m=16)
    root = eigensolve._Secular.root

    def skipping(self, t, lo):
        return root(self, t + 1 if t >= 2 else t, lo)

    monkeypatch.setattr(eigensolve._Secular, "root", skipping)
    with pytest.raises(SolverError, match="completeness certificate failed"):
        lowest_eigenpairs(op, 3)


def test_roots_within_round_off_of_the_open_spectrum():
    # r1 on ring 2 of 32, closed: modes of angular frequency 6 and up
    # barely see the ring, so their eigenvalues lie within round-off of the
    # open operator's; the lowest one, 9.804, is the annulus's
    op = assemble(_sector("floquet", 0, 6, 0.0, 2, 32), 32)
    oracle = sla.eigh(_symmetrized(op).toarray(), eigvals_only=True, subset_by_index=[0, 5])
    sparse = lowest_eigenpairs(op, 6)
    assert np.allclose(sparse.eigenvalues, oracle, rtol=1e-10, atol=0)
    assert sparse.eigenvalues[0] == pytest.approx(9.804, abs=5e-4)


# ---------------------------------------------------------------------------
# the two sides of the r1 ring
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(sector=st.sampled_from(_ALL_SECTORS), grid=_GRIDS,
       opening=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)), data=st.data())
# a hole of one node: a Floquet ell=0 pair of closed poles has a combination
# that the hole does not see, an eigenvalue at the pole itself
@example(sector=("floquet", 0, 3), grid=(24, 10), opening=1 / 12, data=None)
def test_both_sides_agree(sector, grid, opening, data):
    # `opening` is epsilon in units of pi/n; the crack side and the hole
    # side of one opening give the same counts and eigenvalues, and the
    # eigenvalues lie between the open and the closed poles, index by index
    (kind, which, n), (m, ring) = sector, grid
    op = assemble(_sector(kind, which, n, opening * math.pi / n, ring, m), m)
    crack, hole = eigensolve._Secular(op, hole=False), eigensolve._Secular(op, hole=True)
    with one_blas_thread:
        dense = np.linalg.eigvalsh(_symmetrized(op).toarray())
    rng = np.random.default_rng(ring) if data is None else None
    for _ in range(3):
        sigma = (rng.uniform(1.0, 300.0) if data is None
                 else data.draw(st.floats(1.0, 300.0), label="sigma"))
        near = np.concatenate([crack.spec.sorted, hole.spec.sorted, dense])
        if np.abs(near - sigma).min() >= 1e-8 * sigma:
            assert crack.count(sigma) == hole.count(sigma) == (dense < sigma).sum()
    k = min(6, op.n // 4)
    with one_blas_thread:
        lam_crack, _ = crack.lowest(k)
        lam_hole, _ = hole.lowest(k)
    assert np.allclose(lam_hole, lam_crack, rtol=1e-10, atol=0)
    assert np.allclose(lam_hole, dense[:k], rtol=1e-10, atol=0)
    open_poles, closed_poles = crack.spec.sorted[:k], hole.spec.sorted[:k]
    assert (open_poles <= lam_hole * (1 + 1e-10)).all()
    assert (lam_hole <= closed_poles * (1 + 1e-10)).all()


@pytest.mark.parametrize("sector", [("quarter", "NND", 2), ("quarter", "DND", 2),
                                    ("floquet", 0, 3), ("floquet", 1, 3)])
@pytest.mark.parametrize("ring", [1, 5, 11])
def test_closed_poles_are_the_fully_closed_spectrum(sector, ring):
    # the closed side's poles against a dense solve of the open operator
    # without every r1-ring node (the opening at epsilon = 0)
    kind, which, n = sector
    m = 12
    op = assemble(_sector(kind, which, n, 0.3, ring, m), m)
    keep = op.open.node_ring != op.grid.r1_ring
    d = np.sqrt(op.open.row_weights[keep])
    closed = (sp.diags(d) @ op.open.matrix[keep][:, keep] @ sp.diags(1.0 / d)).toarray()
    dense = np.linalg.eigvalsh((closed + closed.conj().T) / 2)
    poles = eigensolve._grid_rows(op.open).side(op.grid.r1_ring, True).sorted
    assert poles.size == dense.size
    assert np.allclose(poles, dense, rtol=1e-10, atol=0)


def test_the_closed_table_is_built_once_per_radial_grid(monkeypatch):
    # the four quarter grids share one radial grid: a crack-side opening
    # builds only the open table (2m+1 tridiagonal eigensolves), and the
    # first hole-side openings the closed one, two blocks per mode, once
    m = 24
    calls = _spy_on_tridiagonal_eigensolves(monkeypatch)
    _clear_grids()
    wide = [assemble(p, m) for p in quarter_problems(build_cracked_disk(2, 1.2, 0.4356, 1.0))]
    assert all(eigensolve._Secular(op).offset == 0 for op in wide)
    assert len(calls) == 2 * m + 1
    assert all(len(eigensolve._grid_rows(op.open).sides) == 1 for op in wide)   # the open side only
    for eps in (0.2, 0.3):
        narrow = [assemble(p, m) for p in quarter_problems(build_cracked_disk(2, eps, 0.4356, 1.0))]
        assert all(eigensolve._Secular(op).offset > 0 for op in narrow)
        assert len(calls) == 3 * (2 * m + 1)


def test_a_hole_side_opening_builds_no_open_side(monkeypatch):
    # openings solved on the hole's side read the closed side alone: its
    # table (two blocks per mode, 2(2m+1) tridiagonal eigensolves) and one
    # side per grid, also through their solves, never the open side
    m = 24
    calls = _spy_on_tridiagonal_eigensolves(monkeypatch)
    _clear_grids()
    narrow = [assemble(p, m) for eps in (0.2, 0.3)
              for p in quarter_problems(build_cracked_disk(2, eps, 0.4356, 1.0))]
    assert all(eigensolve._Secular(op).offset > 0 for op in narrow)
    assert len(calls) == 2 * (2 * m + 1)
    for op in narrow:
        lowest_eigenpairs(op, 2)
        rows = eigensolve._grid_rows(op.open)
        assert len(rows.sides) == 1 and rows.side(op.grid.r1_ring, True).hole


def test_roots_near_the_closed_spectrum_on_the_paper_ring():
    # r1 on ring 44 of 101, 4e-6 from j01/j02, so J0(j02 r) nearly vanishes
    # on the ring, and the paper's opening 0.29: the ell=0 sector is solved
    # on its hole (27 of 101 ring columns).  The root near j02^2 lies
    # between the closed poles of mode 0's inner and outer blocks, 2.4e-6
    # and 1.9e-6 away, so both are bordered out: bordering only the nearer
    # one left the eigenvector's residual at 8.5e-8 relative.  The oracle
    # is shift-invert Lanczos on the symmetrized opening: a dense eigh at
    # 10,101 unknowns would take minutes and gigabytes.
    op = assemble(_sector("floquet", 0, 3, 0.29, 44, 101), 101)
    solve = eigensolve._Secular(op)
    assert solve.offset == 27
    poles = solve.spec.sorted
    spec = lowest_eigenpairs(op, 3)
    lam = spec.eigenvalues[1]
    assert lam == pytest.approx(30.4634, abs=1e-4)
    assert (np.abs(poles - lam) < 3e-6 * lam).sum() == 2
    oracle = spla.eigsh(_symmetrized(op).tocsc(), k=3, sigma=30.0, v0=np.ones(op.n),
                        tol=0, return_eigenvectors=False)
    assert np.allclose(spec.eigenvalues, np.sort(oracle), rtol=1e-10, atol=0)
    assert (spec.residuals <= 1e-8 * spec.eigenvalues).all()
    crack = eigensolve._Secular(op, hole=False)
    with one_blas_thread:
        assert np.allclose(crack.lowest(3)[0], spec.eigenvalues, rtol=1e-10, atol=0)


# ---------------------------------------------------------------------------
# one BLAS thread per solve
# ---------------------------------------------------------------------------

_controls = eigensolve._openblas_thread_controls()
needs_openblas = pytest.mark.skipif(
    not _controls, reason="neither scipy's nor numpy's BLAS exposes an OpenBLAS thread control")
ONE, TWO = [1] * len(_controls), [2] * len(_controls)


@pytest.fixture
def blas_threads():
    """A getter of every OpenBLAS's thread count, with the caller's counts
    set to 2."""
    before = [get() for get, _ in _controls]
    for _, set_ in _controls:
        set_(2)
    yield lambda: [get() for get, _ in _controls]
    for (_, set_), count in zip(_controls, before):
        set_(count)


def _numpy_thread_getter():
    """The thread-count getter of numpy's own OpenBLAS, looked up apart from
    `_openblas_thread_controls`, or None."""
    core = getattr(np, "_core", None)
    if core is None:
        return None
    lib = ctypes.CDLL(core._multiarray_umath.__file__)
    return getattr(lib, "scipy_openblas_get_num_threads64_", None)


_numpy_get = _numpy_thread_getter()


def _spy_on(monkeypatch, module, name, get):
    """Record the BLAS thread counts each time `module.name` runs (a
    module's function or a class's method)."""
    inner = getattr(module, name)
    seen = []

    def spy(*args, **kwargs):
        seen.append(get())
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return seen


def _spy_on_eigensolves(monkeypatch, get):
    """Record the BLAS thread counts at each small Hermitian eigensolve of
    the secular path, which runs on numpy's LAPACK."""
    seen = []
    for name in ("eigh", "eigvalsh"):
        def spy(a, *args, inner=getattr(np.linalg, name), **kwargs):
            seen.append(get())
            return inner(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    return seen


def _spy_on_applies(monkeypatch, get):
    """Record the BLAS thread counts at each open solve of the capacity's
    Green's column."""
    inner = capacity.open_solve
    seen = []

    def spy(op, b):
        seen.append(get())
        return inner(op, b)

    monkeypatch.setattr(capacity, "open_solve", spy)
    return seen


@needs_openblas
@pytest.mark.parametrize("method", ["sparse", "dense"])
def test_solve_runs_on_one_blas_thread_and_restores_the_count(monkeypatch, blas_threads, method):
    # the secular solve, and the tests' dense oracle (LAPACK geev)
    if method == "sparse":
        seen = _spy_on(monkeypatch, eigensolve._Secular, "lowest", blas_threads)
        solve = lowest_eigenpairs
    else:
        seen = _spy_on(monkeypatch, dense_oracle.sla, "eig", blas_threads)
        solve = dense_oracle.lowest_eigenpairs
    eigensolves = _spy_on_eigensolves(monkeypatch, blas_threads)
    solve(_coupled_op(), 3)
    assert seen == [ONE]
    if method == "sparse":  # the capacitance matrices' eigensolves
        assert len(eigensolves) > 5 and all(counts == ONE for counts in eigensolves)
    else:
        assert eigensolves == []
    assert blas_threads() == TWO


@pytest.mark.skipif(_numpy_get is None, reason="numpy's BLAS is not the OpenBLAS of its wheels")
def test_the_scope_holds_numpys_openblas_too(blas_threads):
    controls = eigensolve._openblas_thread_controls()
    assert len(controls) == 2  # scipy's and numpy's
    assert controls[1][0].__name__ == _numpy_get.__name__
    assert _numpy_get() == 2
    with one_blas_thread:
        assert _numpy_get() == 1
        assert blas_threads() == [1, 1]
    assert _numpy_get() == 2
    # each library gets its own count back, also after nested entries
    controls[0][1](1)
    with one_blas_thread:
        with one_blas_thread:
            assert blas_threads() == [1, 1]
        assert blas_threads() == [1, 1]
    assert blas_threads() == [1, 2]


@needs_openblas
def test_a_lookup_that_finds_only_scipys_openblas_still_pins_it(monkeypatch, blas_threads):
    import_module = importlib.import_module

    def without_numpy(name, *args):
        if name.startswith("numpy"):
            raise ImportError(name)
        return import_module(name, *args)

    monkeypatch.setattr(importlib, "import_module", without_numpy)
    controls = eigensolve._openblas_thread_controls()
    monkeypatch.undo()
    if not controls:
        pytest.skip("scipy's BLAS exposes no OpenBLAS thread control")
    assert len(controls) == 1
    (get, _), = controls
    assert get() == 2
    with eigensolve._OneBlasThread(controls):
        assert get() == 1
    assert blas_threads() == TWO


@needs_openblas
def test_blas_count_restored_after_a_solver_error(blas_threads):
    op = _toy_op("NDD", m=12)
    f = op.factors
    angular = f.angular.copy()
    angular[2, 2] *= 1.5                # T[2, 3], on T's upper band
    with pytest.raises(SolverError, match="symmetrized operator is not Hermitian"):
        lowest_eigenpairs(_with_open(op, factors=dataclasses.replace(f, angular=angular)), 2)
    assert blas_threads() == TWO


@needs_openblas
def test_blas_count_restored_after_a_pooled_sweep(monkeypatch, blas_threads):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    seen = _spy_on(monkeypatch, eigensolve._Secular, "lowest", blas_threads)
    sweep(build_cracked_disk(3, 0.0, 0.4356, 1.0), [0.2, 0.5, 0.9], 16, 2)
    assert seen == [ONE] * 6  # 3 openings x 2 sectors
    assert blas_threads() == TWO


@needs_openblas
def test_capacity_runs_on_one_blas_thread_and_restores_the_count(monkeypatch, blas_threads):
    # the open solves for the Green's column, and the dense ring Cholesky
    applies = _spy_on_applies(monkeypatch, blas_threads)
    cho_factor = capacity.sla.cho_factor
    seen = []

    def counted(*args, **kwargs):
        seen.append(blas_threads())
        return cho_factor(*args, **kwargs)

    monkeypatch.setattr(capacity.sla, "cho_factor", counted)
    capacity._disk_green.cache_clear()
    capacitary_potential(CapacityProblem(0.4356, 1.0, ((0.0, 1.0),), 24))
    assert seen == [ONE]
    assert len(applies) == 2 and all(counts == ONE for counts in applies)
    assert blas_threads() == TWO


@needs_openblas
def test_blas_count_restored_after_a_capacity_error(monkeypatch, blas_threads):
    monkeypatch.setattr(capacity, "_RESIDUAL_BOUND", -1.0)
    with pytest.raises(RuntimeError, match="harmonicity residual"):
        capacitary_potential(CapacityProblem(0.4356, 1.0, ((0.0, 1.0),), 24))
    assert blas_threads() == TWO


@needs_openblas
def test_blas_scope_under_concurrent_entry(blas_threads):
    # more threads than cores, switching often: a lost update of the holder
    # count would restore the counts while a holder is still inside
    wrong = []

    def hold():
        for _ in range(200):
            with one_blas_thread:
                with one_blas_thread:
                    counts = blas_threads()
                    if counts != ONE:
                        wrong.append(counts)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=hold) for _ in range(8)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert wrong == []
    assert blas_threads() == TWO


# ---------------------------------------------------------------------------
# clustering
# ---------------------------------------------------------------------------

def test_group_multiplicities_merges_close_pair():
    assert group_multiplicities([14.68, 14.681], 0.01) == [(pytest.approx(14.6805), 2)]


def test_group_multiplicities_keeps_separated_values():
    out = group_multiplicities([5.78, 14.68], 0.01)
    assert [(round(v, 2), m) for v, m in out] == [(5.78, 1), (14.68, 1)]


def test_group_multiplicities_with_weights():
    out = group_multiplicities([5.78, 14.68, 14.68, 30.47], 1e-6,
                               weights=[1, 2, 2, 1])
    assert [m for _, m in out] == [1, 4, 1]


def test_group_multiplicities_disk_pattern():
    from crackspec import specfun
    vals, weights = [], []
    for e in specfun.disk_spectrum(1.0, 6).entries:
        vals.append(e.value)
        weights.append(e.multiplicity)
    out = group_multiplicities(vals, 1e-8, weights=weights)
    assert [m for _, m in out] == [1, 2, 2, 1]


def test_group_multiplicities_validation():
    with pytest.raises(ValueError):
        group_multiplicities([1.0, 2.0], 0.0)
    # a NaN tolerance had merged every value into one cluster
    for tol in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ValueError, match="positive finite number"):
            group_multiplicities([1.0, 2.0, 3.0], tol)


# ---------------------------------------------------------------------------
# per-grid data built once
# ---------------------------------------------------------------------------

def _clear_grids():
    """Drop every cached open operator, with its mode rows and sides, and
    every side table."""
    discretize._open_grids.clear()
    eigensolve._radial_tables.clear()


def _quarter_grids(m):
    """The four quarter grids at m, new: no mode rows, side or side table
    of theirs is built yet."""
    _clear_grids()
    spec = build_cracked_disk(2, 0.5, 0.4356, 1.0)
    return [assemble(p, m) for p in quarter_problems(spec)]


def _spy_on_tridiagonal_eigensolves(monkeypatch):
    inner = sla.eigh_tridiagonal
    calls = []

    def spy(*args, **kwargs):
        calls.append(args[0].size)
        return inner(*args, **kwargs)

    monkeypatch.setattr(sla, "eigh_tridiagonal", spy)
    return calls


def test_one_open_operator_serves_every_r1_ring(monkeypatch):
    # nothing in the mode rows depends on r1: openings of one open operator
    # at two r1 rings share them, each ring with its own open side
    calls = []
    inner = eigensolve._angular_modes
    monkeypatch.setattr(eigensolve, "_angular_modes", lambda f: calls.append(f) or inner(f))
    _clear_grids()
    ops = [assemble(_sector("floquet", 1, 3, 0.9, ring, 16), 16) for ring in (5, 9)]
    assert ops[0].open is ops[1].open
    assert [eigensolve._Secular(op).offset for op in ops] == [0, 0]     # crack side
    assert len(calls) == 1
    rows = eigensolve._grid_rows(ops[0].open)
    assert len(rows.sides) == 2
    assert [rows.side(ring, False).ring for ring in (5, 9)] == [4, 8]


def test_an_r1_scan_keeps_the_sides_of_two_rings():
    # six r1 rings on one open operator, each solved on both sides of its
    # ring: the mode rows keep at most four sides, and every opening gives
    # the eigenvalues of a fresh solve, to the bit
    m, rings, openings = 16, range(3, 9), (0.3, 0.9)
    _clear_grids()
    scanned, ops = [], []
    for ring in rings:
        for eps in openings:
            ops.append(assemble(_sector("floquet", 0, 3, eps, ring, m), m))
            scanned.append(lowest_eigenpairs(ops[-1], 3).eigenvalues)
            assert len(eigensolve._grid_rows(ops[-1].open).sides) <= 4
    assert all(op.open is ops[0].open for op in ops)
    # the narrow opening is solved on the hole's side, the wide one on the crack's
    assert [eigensolve._Secular(op).offset > 0 for op in ops[:2]] == [True, False]
    for (ring, eps), values in zip(itertools.product(rings, openings), scanned):
        _clear_grids()
        fresh = lowest_eigenpairs(assemble(_sector("floquet", 0, 3, eps, ring, m), m), 3)
        assert np.array_equal(fresh.eigenvalues, values)


@pytest.mark.parametrize("m", [24, 25])
def test_quarter_grids_share_their_radial_spectra(monkeypatch, m):
    # NND and DDD have the frequencies pi j/m, NDD and DND pi (2j+1)/(2m):
    # the four grids solve m+1 (NND, the center's mode among them) plus m
    # tridiagonals, where one solve per mode and grid would be 4m
    calls = _spy_on_tridiagonal_eigensolves(monkeypatch)
    ops = _quarter_grids(m)
    ring = ops[0].grid.r1_ring
    spectra = [eigensolve._grid_rows(op.open).side(ring, False) for op in ops]
    assert len(calls) == 2 * m + 1
    # in reverse order, and from several threads at once, the same bits
    ops = _quarter_grids(m)
    backward = [eigensolve._grid_rows(op.open).side(ring, False) for op in reversed(ops)][::-1]
    ops = _quarter_grids(m)
    threaded = [None] * len(ops)

    def build(i):
        threaded[i] = eigensolve._grid_rows(ops[i].open).side(ring, False)

    _in_threads(build, (3, 1, 2, 0))
    assert len(calls) == 3 * (2 * m + 1)
    for other in (backward, threaded):
        for a, b in zip(spectra, other):
            assert np.array_equal(a.poles, b.poles)
            assert np.array_equal(a.weights, b.weights)
    # both sides of the four grids, serially and then from four threads in
    # reverse order, closed side first: each side's tables are solved once,
    # 2m+1 tridiagonals open and 2(2m+1) closed, to the same bits
    ops = _quarter_grids(m)
    serial = [eigensolve._grid_rows(op.open).side(ring, hole)
              for op in ops for hole in (False, True)]
    assert len(calls) == 6 * (2 * m + 1)
    ops = _quarter_grids(m)
    both = [None] * len(ops)

    def build_both(i):
        closed = eigensolve._grid_rows(ops[i].open).side(ring, True)
        both[i] = [eigensolve._grid_rows(ops[i].open).side(ring, False), closed]

    _in_threads(build_both, (3, 2, 1, 0))
    assert all(eigensolve._grid_rows(op.open).side(ring, hole) is side
               for op, sides in zip(ops, both) for hole, side in zip((False, True), sides))
    assert len(calls) == 9 * (2 * m + 1)
    for a, b in zip(serial, [side for sides in both for side in sides]):
        assert a.hole == b.hole
        assert np.array_equal(a.poles, b.poles)
        assert np.array_equal(a.weights, b.weights)


def _in_threads(target, args):
    """target(a) for each a of `args`, one thread each, started in that
    order, with the interpreter switching threads often."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=target, args=(a,)) for a in args]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)


@pytest.mark.parametrize("m", [8, 9, 24, 25])
@pytest.mark.parametrize("sector", _ALL_SECTORS)
def test_closed_form_angular_eigenvalues(sector, m):
    # dense eigvalsh is accurate to eps times the factor's norm, so the two
    # agree to 1e-13 relative to the largest eigenvalue; a frequency of 0
    # gives exactly 0
    kind, which, n = sector
    f = assemble(_sector(kind, which, n, 0.0, m // 2, m), m).factors
    _, lam = eigensolve._angular_modes(eigensolve._check_grid(f))
    sc = np.sqrt(f.cell)
    ang = _dense(f.angular) * sc[:, np.newaxis] / sc
    dense = np.linalg.eigvalsh((ang + ang.conj().T) / 2)
    assert np.abs(lam - dense).max() <= 1e-13 * dense.max()
    zero = f.frequency[:, 0] == 0
    assert (lam[zero] == 0).all()
    assert zero.sum() == (which in (0, "NND"))     # the constant mode
