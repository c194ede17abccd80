import gc
import math
import os
import threading
import time
import weakref

import numpy as np
import pytest

from crackspec import specfun, spectra
from crackspec.domain import build_cracked_disk, quarter_problems, reduce_to_sectors
from crackspec.discretize import assemble
from crackspec.spectra import (
    _sign_changes,
    count_nodal_domains,
    detect_crossings,
    ndd_dnd_gap,
    nodal_domains,
    recombine_full_domain,
    sector_field,
    solve_full_spectrum,
    solve_sector,
    sweep,
    sweep_quarter,
)


def test_merged_disk_spectrum_small_grid():
    spec = build_cracked_disk(1, math.pi, 0.4356, 1.0)
    merged = solve_full_spectrum(spec, 48, 6)
    expected = [5.7832, 14.682, 14.682, 26.3746, 26.3746, 30.4713]
    for got, want in zip(merged.values, expected):
        assert got == pytest.approx(want, rel=0.01)
    mults = [m for _, m in merged.multiplicities(0.05)]
    assert mults[:4] == [1, 2, 2, 1]


def test_single_sector_geometry_is_trivial_merge():
    spec = build_cracked_disk(1, 0.8, 0.4356, 1.0)
    merged = solve_full_spectrum(spec, 24, 4)
    sol = solve_sector(reduce_to_sectors(spec)[0][0], 24, 4)
    assert np.allclose(merged.values, sol.values[:4], rtol=0, atol=1e-12)
    np.testing.assert_array_equal(merged.residuals, sol.residuals[:4])


def test_closed_interface_matches_disjoint_union():
    # eps = 0: merged spectrum = disk(r1) plus annulus, both at the snapped r1
    m = 60
    spec = build_cracked_disk(2, 0.0, 0.4356, 1.0)
    merged = solve_full_spectrum(spec, m, 6)
    r1s = merged.r1
    assert r1s == pytest.approx(round(0.4356 * m) / m)
    disk_vals = [e.value for e in specfun.disk_spectrum(r1s, 4).entries
                 for _ in range(e.multiplicity)]
    ann_vals = []
    for ell in range(0, 4):
        for v in specfun.annulus_spectrum(r1s, 1.0, ell, 2):
            ann_vals.extend([v] * (1 if ell == 0 else 2))
    expected = sorted(disk_vals + ann_vals)[:6]
    for got, want in zip(merged.values, expected):
        assert got == pytest.approx(want, rel=5e-3)


def test_antisymmetric_sector_splits_into_quarter_union():
    # the antiperiodic ell=1 sector of the two-crack disk carries exactly the
    # NDD and DND spectra together; grids share the rays at eps = pi/4
    eps = math.pi / 4
    spec = build_cracked_disk(2, eps, 0.4356, 1.0)
    sector = next(p for p, t in reduce_to_sectors(spec) if p.ell == 1)
    sector_vals = solve_sector(sector, 40, 4).values
    quarter_vals = []
    for case in ("NDD", "DND"):
        problem = next(p for p in quarter_problems(spec) if p.quarter_case == case)
        quarter_vals.extend(solve_sector(problem, 40, 2).values)
    for got, want in zip(sector_vals, sorted(quarter_vals)):
        assert got == pytest.approx(want, rel=5e-3)


def test_open_disk_through_three_sectors():
    # fully open n=3 geometry merges back into the plain disk spectrum
    spec = build_cracked_disk(3, math.pi / 3, 0.4356, 1.0)
    merged = solve_full_spectrum(spec, 36, 6)
    expected = [5.7832, 14.682, 14.682, 26.3746, 26.3746, 30.4713]
    for got, want in zip(merged.values, expected):
        assert got == pytest.approx(want, rel=0.01)


def test_open_disk_multiplicities_via_two_sectors():
    spec = build_cracked_disk(2, math.pi / 2, 0.4356, 1.0)
    merged = solve_full_spectrum(spec, 36, 6)
    mults = [m for _, m in merged.multiplicities(0.1)]
    assert mults[:4] == [1, 2, 2, 1]
    labels = merged.labels
    assert labels[0] == "ell=0" and labels[1] == "ell=1"


def test_coupled_sector_gives_k_distinct_values():
    spec = build_cracked_disk(3, 0.4, 0.4356, 1.0)
    problem = next(p for p, t in reduce_to_sectors(spec) if p.ell == 1)
    sol = solve_sector(problem, 24, 3)
    assert len(sol.values) == len(sol.spectrum.eigenvalues) == 3
    assert (np.diff(sol.values) > 1e-6).all()


# solve_sector values of coupled sectors computed by the two-copy real form
# of these sectors, (n, ell, eps, m, k) -> values; m = 16 runs the dense
# path, the others the sparse one
REALIFIED_VALUES = {
    (3, 1, 0.4, 16, 3): [29.427957536616898, 36.98570478068516, 59.49535359678747],
    (3, 1, 0.29, 36, 4): [31.581199031249632, 38.364167302183965, 61.638361760485566,
                          69.32398954484347],
    (4, 1, 0.3, 20, 4): [31.42298977671969, 47.91145317495278, 65.39533535951617,
                         79.19535680235812],
}


@pytest.mark.parametrize("case", sorted(REALIFIED_VALUES))
def test_coupled_sector_values_match_realified_form(case):
    n, ell, eps, m, k = case
    spec = build_cracked_disk(n, eps, 0.4356, 1.0)
    problem = next(p for p, t in reduce_to_sectors(spec) if p.ell == ell)
    values = solve_sector(problem, m, k).values
    assert values == pytest.approx(REALIFIED_VALUES[case], rel=1e-10)


def test_sweep_single_point_consistency():
    spec = build_cracked_disk(2, 0.0, 0.4356, 1.0)
    curve = sweep(spec, [0.5], 24, 3)
    merged = solve_full_spectrum(
        build_cracked_disk(2, float(curve.epsilons[0]), 0.4356, 1.0), 24, 3)
    stacked = []
    for tag in curve.sectors:
        stacked.extend(curve.values[tag.label][0])
    assert min(stacked) == pytest.approx(merged.values[0], rel=1e-12)


def test_sweep_monotone_and_snapped():
    spec = build_cracked_disk(3, 0.0, 0.4356, 1.0)
    eps = np.linspace(0.15, 0.95, 5)
    curve = sweep(spec, eps, 24, 2)
    dtheta = (2 * math.pi / 3) / 24
    assert np.allclose(np.mod(curve.epsilons / dtheta, 1.0), 0.0, atol=1e-9)
    for label, arr in curve.values.items():
        assert (np.diff(arr, axis=0) <= 1e-7).all(), label


@pytest.mark.parametrize("m", [31, 33, 35])
def test_sweep_ending_fully_open_on_odd_grid_matches_solve(m):
    # an odd grid has no ray at pi/3: the last sweep point must still be the
    # open disk that `solve_full_spectrum` gives for the same request, both
    # report it at pi/3, as for a request just below pi/3 that is fully open
    # too, and the crack on the ray below pi/3 stays a point of its own
    r1 = specfun.choose_r1(1.0)
    below = (m // 2) * ((2 * math.pi / 3) / m)
    curve = sweep(build_cracked_disk(3, 0.0, r1, 1.0), [0.5, below, math.pi / 3], m, 2)
    assert curve.epsilons.tolist() == [curve.epsilons[0], below, math.pi / 3]
    for eps in (math.pi / 3, math.pi / 3 - 1e-13):
        merged = solve_full_spectrum(build_cracked_disk(3, eps, r1, 1.0), m, 2)
        assert merged.eps == math.pi / 3
    for tag in curve.sectors:
        want = [lv.value for lv in merged.levels if lv.label == tag.label]
        np.testing.assert_allclose(curve.values[tag.label][-1], want, rtol=1e-12, atol=0)


def test_pooled_sweep_equals_serial_sweep(monkeypatch):
    # the worker count follows os.cpu_count: 4 cores give four workers, 1
    # core a one-worker pool; sweeps, the full spectrum and the crossing
    # refinement must return the same bits on both
    n3 = build_cracked_disk(3, 0.0, 0.4356, 1.0)
    n2 = build_cracked_disk(2, 0.0, 0.4356, 1.0)
    runs = []
    for cores in (4, 1):
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        curve = sweep(n3, [0.2, 0.5, 0.9], 24, 3)
        _, by_case = sweep_quarter(n2, ("NND", "DND"), [0.7, 1.2], 24, 2)
        merged = solve_full_spectrum(build_cracked_disk(3, 0.5, 0.4356, 1.0), 24, 6)
        coarse = sweep(n3, np.linspace(0.05, math.pi / 3 - 0.02, 6), 24, 3)
        runs.append((curve, by_case, merged, detect_crossings(coarse, 3)))
    (pooled, q_pooled, m_pooled, e_pooled), (serial, q_serial, m_serial, e_serial) = runs
    assert "ell=1" in serial.values  # the complex sector is covered
    for label in serial.values:
        np.testing.assert_array_equal(pooled.values[label], serial.values[label])
        np.testing.assert_array_equal(pooled.residuals[label], serial.residuals[label])
    for case in q_serial:
        np.testing.assert_array_equal(q_pooled[case], q_serial[case])
    np.testing.assert_array_equal(m_pooled.values, m_serial.values)
    np.testing.assert_array_equal(m_pooled.residuals, m_serial.residuals)
    assert m_pooled.levels == m_serial.levels and m_pooled.labels == m_serial.labels
    assert e_serial and e_pooled == e_serial


def test_sector_solves_share_the_pool(monkeypatch):
    # each bisection step solves its two sectors together, and the full
    # spectrum its sectors; a slowed solve shows them in flight at once
    from crackspec import spectra
    spec = build_cracked_disk(3, 0.0, 0.4356, 1.0)
    curve = sweep(spec, np.linspace(0.05, math.pi / 3 - 0.02, 6), 24, 3)
    solve = spectra.solve_sector
    lock = threading.Lock()
    flight = {"now": 0, "max": 0}

    def slowed(*args):
        with lock:
            flight["now"] += 1
            flight["max"] = max(flight["max"], flight["now"])
        try:
            time.sleep(0.05)
            return solve(*args)
        finally:
            with lock:
                flight["now"] -= 1

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(spectra, "solve_sector", slowed)
    assert detect_crossings(curve, 3)
    assert flight["max"] >= 2
    flight["max"] = 0
    solve_full_spectrum(build_cracked_disk(3, 0.5, 0.4356, 1.0), 24, 4)
    assert flight["max"] >= 2


def test_a_sweep_keeps_no_solve_past_its_task(monkeypatch):
    # a sweep reads only each solve's values and residuals: on one worker,
    # the eigenvectors of every earlier solve are gone when the next starts
    from crackspec import spectra
    solve = spectra.solve_sector
    solved, alive = [], []

    def watched(*args):
        gc.collect()
        alive.append(sum(ref() is not None for ref in solved))
        sol = solve(*args)
        solved.append(weakref.ref(sol.spectrum))
        return sol

    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(spectra, "solve_sector", watched)
    sweep(build_cracked_disk(3, 0.0, 0.4356, 1.0), [0.2, 0.5, 0.9], 16, 2)
    assert alive == [0] * 6     # 3 openings x 2 sectors


def test_sweep_validation():
    spec = build_cracked_disk(3, 0.0, 0.4356, 1.0)
    with pytest.raises(ValueError):
        sweep(spec, [], 24, 2)
    with pytest.raises(ValueError):
        sweep(spec, [0.5, 0.3], 24, 2)
    with pytest.raises(ValueError):  # beyond pi/3, even though it snaps to the ray at pi/3
        sweep(spec, [0.5, math.pi / 3 + 0.01], 24, 2)
    with pytest.raises(ValueError):  # also after a request in range on that ray
        sweep(spec, [math.pi / 3 - 0.001, math.pi / 3 + 0.01], 24, 2)


def test_k_above_a_quarter_of_a_sectors_unknowns_raises():
    # ell=0 has 65 unknowns at m = 9, so it certifies at most 16 values; a
    # merge of truncated sector lists would put ell=1's 144.678 as the 32nd
    # value, where the full spectrum has ell=0's 138.389
    spec = build_cracked_disk(2, 0.3 * math.pi / 2, 0.4356, 1.0)
    with pytest.raises(ValueError, match="k=40"):
        solve_full_spectrum(spec, 9, 40)
    with pytest.raises(ValueError, match="k=40"):
        sweep(build_cracked_disk(3, 0.0, 0.4356, 1.0), [0.2, 0.5], 12, 40)


def test_detect_crossings_n3_coarse():
    spec = build_cracked_disk(3, 0.0, 0.4356, 1.0)
    eps = np.linspace(0.05, math.pi / 3 - 0.02, 14)
    curve = sweep(spec, eps, 48, 3)
    events = detect_crossings(curve, 3)
    assert events, "expected at least the rank-2 crossing"
    first = events[0]
    assert first.rank == 2
    assert first.total_multiplicity == 3
    assert {first.sector_a.label, first.sector_b.label} == {"ell=0", "ell=1"}
    assert first.epsilon_star == pytest.approx(0.29, abs=0.07)
    assert first.bracket_hi - first.bracket_lo <= (2 * math.pi / 3) / 48 + 1e-12
    second = [e for e in events if e.rank == 3]
    assert second and second[0].epsilon_star == pytest.approx(0.96, abs=0.1)


# detect_crossings events computed before refinement read the sweep's rows,
# (n, m, openings, k, rank) -> (bracket rays lo, hi, rank, multiplicity,
# sector_a, sector_b, index_a, index_b, lambda_star)
PINNED_EVENTS = {
    (3, 48, 14, 3, 3): [
        (7, 8, 2, 3, "ell=0", "ell=1", 1, 0, 30.554379182136067),
        (22, 23, 3, 3, "ell=0", "ell=1", 1, 1, 30.64785225278965)],
    (4, 60, 20, 6, 6): [
        (10, 11, 2, 3, "ell=0", "ell=1", 1, 0, 30.5297117579926),
        (18, 19, 3, 2, "ell=0", "ell=2", 1, 0, 30.520233968504414),
        (29, 30, 4, 2, "ell=0", "ell=2", 1, 1, 31.42026737474964)],
}


@pytest.mark.parametrize("case", sorted(PINNED_EVENTS))
def test_crossing_events_match_pinned_answers(case):
    n, m, steps, k, rank = case
    lo = 0.05 if n == 3 else 0.02
    hi = math.pi / 3 - 0.02 if n == 3 else math.pi / 4
    curve = sweep(build_cracked_disk(n, 0.0, 0.4356, 1.0), np.linspace(lo, hi, steps), m, k)
    dtheta = (2 * math.pi / n) / m
    events = detect_crossings(curve, rank)
    got = [(round(e.bracket_lo / dtheta), round(e.bracket_hi / dtheta), e.rank,
            e.total_multiplicity, e.sector_a.label, e.sector_b.label, e.index_a, e.index_b)
           for e in events]
    assert got == [want[:-1] for want in PINNED_EVENTS[case]]
    assert [e.lambda_star for e in events] == pytest.approx(
        [want[-1] for want in PINNED_EVENTS[case]], rel=1e-12)


def _hand_set_curve(ell0, ell1):
    """A three-point n = 3 curve on rays 4, 5, 6 of the m = 12 grid, with the
    sector values replaced by the given ones (one value per point)."""
    spec = build_cracked_disk(3, 0.0, 0.4356, 1.0)
    dtheta = (2 * math.pi / 3) / 12
    curve = sweep(spec, [4 * dtheta, 5 * dtheta, 6 * dtheta], 12, 1)
    curve.values = {"ell=0": np.array(ell0, dtype=float)[:, None],
                    "ell=1": np.array(ell1, dtype=float)[:, None]}
    return curve, dtheta


def test_crossing_through_a_sweep_point_is_bracketed_across_it():
    # the gap 0.5, 0, -0.5 changes sign across the middle point
    assert _sign_changes(np.array([0.5, 0.0, -0.5])) == [(0, 2)]
    curve, dtheta = _hand_set_curve([10.0, 9.0, 8.0], [9.5, 9.0, 8.5])
    # bisection over the re-solved gap narrows it to one grid step
    refined = detect_crossings(curve, 10)
    assert len(refined) == 1
    ev = refined[0]
    assert {ev.sector_a.label, ev.sector_b.label} == {"ell=0", "ell=1"}
    assert ev.total_multiplicity == 3
    assert ev.bracket_hi - ev.bracket_lo == pytest.approx(dtheta)
    assert 4 * dtheta <= ev.bracket_lo < ev.bracket_hi <= 6 * dtheta


def test_crossing_next_to_the_open_disk_on_an_odd_grid():
    # on m = 13 the open disk is solved past pi/3 (ray 6.5), so ray 6, a
    # crack, lies between the last two sweep points and is bisected; the
    # bracket's open end is reported at pi/3
    spec = build_cracked_disk(3, 0.0, 0.4356, 1.0)
    dtheta = (2 * math.pi / 3) / 13
    curve = sweep(spec, [4 * dtheta, 5 * dtheta, math.pi / 3], 13, 1)
    assert curve.epsilons[-1] == math.pi / 3
    curve.values = {"ell=0": np.array([[1.0], [1.0], [20.0]]),
                    "ell=1": np.array([[10.0], [10.0], [10.0]])}
    # the solved ray-6 gap, ell=0 lambda_1 - ell=1 lambda_1, is negative
    [ev] = detect_crossings(curve, 10)
    assert (ev.bracket_lo, ev.bracket_hi) == (6 * dtheta, math.pi / 3)


def test_touching_curves_are_no_crossing():
    # the gap reaches zero and returns with its sign: no sign change
    assert _sign_changes(np.array([0.5, 0.0, 0.5])) == []
    curve, _ = _hand_set_curve([10.0, 9.0, 10.0], [9.5, 9.0, 9.5])
    assert detect_crossings(curve, 10) == []


def test_sign_changes_break_at_nan_and_ignore_end_zeros():
    # a NaN in a curve is refused: it would hide a sign change across it
    curve, _ = _hand_set_curve([10.0, np.nan, 8.0], [9.5, 9.0, 8.5])
    with pytest.raises(ValueError, match="a curve value is not finite"):
        detect_crossings(curve, 10)
    assert _sign_changes(np.array([0.0, 1.0, 2.0])) == []
    assert _sign_changes(np.array([1.0, 2.0, 0.0])) == []
    assert _sign_changes(np.array([0.0, 0.0])) == []


def test_refinement_solves_each_opening_once(monkeypatch):
    # bisection reads the sweep's rows and solves only rays between them,
    # each once per sector and at the curve's k and tol
    from crackspec import spectra
    spec = build_cracked_disk(3, 0.0, 0.4356, 1.0)
    curve = sweep(spec, np.linspace(0.05, math.pi / 3 - 0.02, 6), 24, 3, tol=1e-7)
    assert curve.tol == 1e-7
    calls = []
    tols = []
    solve = spectra.solve_sector

    def counting(problem, m, k, *args):
        calls.append((problem.ell, round(problem.geometry.epsilon / curve_dtheta), k))
        tols.append(args)
        return solve(problem, m, k, *args)

    curve_dtheta = (2 * math.pi / 3) / 24
    sweep_rays = {round(e / curve_dtheta) for e in curve.epsilons}
    monkeypatch.setattr(spectra, "solve_sector", counting)
    events = detect_crossings(curve, 3)
    assert events and calls
    assert len(calls) == len(set(calls))
    assert not [c for c in calls if c[1] in sweep_rays]
    assert {k for _, _, k in calls} == {curve.k}
    assert set(tols) == {(1e-7,)}


def test_detect_crossings_requires_two_points():
    spec = build_cracked_disk(3, 0.0, 0.4356, 1.0)
    curve = sweep(spec, [0.4], 24, 2)
    with pytest.raises(ValueError):
        detect_crossings(curve, 2)


# ---------------------------------------------------------------------------
# nodal domains
# ---------------------------------------------------------------------------

def test_nodal_count_ground_and_second_disk():
    spec = build_cracked_disk(1, math.pi, 0.4356, 1.0)
    sol = solve_sector(reduce_to_sectors(spec)[0][0], 48, 3)
    ground = count_nodal_domains(sol.operator, sol.spectrum.vectors[:, 0])
    assert ground.mu == 1
    second = count_nodal_domains(sol.operator, sol.spectrum.vectors[:, 1])
    assert second.mu == 2


def test_nodal_count_quarter_ground():
    spec = build_cracked_disk(2, 0.8, 0.4356, 1.0)
    problem = next(p for p in quarter_problems(spec) if p.quarter_case == "NND")
    sol = solve_sector(problem, 32, 1)
    assert count_nodal_domains(sol.operator, sol.spectrum.vectors[:, 0]).mu == 1


def test_nodal_count_annulus_analytic_mode():
    # analytic ell=2 annulus eigenfunction evaluated on the full polar grid
    r1, r2, m = 0.4356, 1.0, 40
    lam = specfun.annulus_spectrum(r1, r2, 2, 1)[0]
    k = math.sqrt(lam)
    rr = r2 / m * np.arange(1, m)
    radial = np.array([
        specfun.bessel_j(2, k * r) * specfun.bessel_y(2, k * r1)
        - specfun.bessel_y(2, k * r) * specfun.bessel_j(2, k * r1)
        if r > r1 else np.nan for r in rr])
    theta = 2 * math.pi / m * np.arange(m)
    field = radial[:, None] * np.cos(2 * theta)[None, :]
    assert nodal_domains(field, wrap=True).mu == 4


def test_nodal_domain_wrap_matters():
    # two sign sectors split by the theta cut merge once the seam wraps
    field = np.ones((3, 8))
    field[:, :4] = 1.0
    field[:, 4:] = 1.0
    assert nodal_domains(field, wrap=False).mu == 1
    field[:, 2:6] = -1.0
    assert nodal_domains(field, wrap=True).mu == 2
    assert nodal_domains(field, wrap=False).mu == 3


def _nodal_count_by_flood_fill(field, wrap, zero_tol=1e-6):
    """Reference count: breadth-first flood fill over equal-sign neighbours."""
    act = np.isfinite(field) & (np.abs(field) > zero_tol * np.nanmax(np.abs(field)))
    nr, nc = field.shape
    seen = np.zeros_like(act)
    count = 0
    for i0 in range(nr):
        for j0 in range(nc):
            if not act[i0, j0] or seen[i0, j0]:
                continue
            count += 1
            seen[i0, j0] = True
            queue = [(i0, j0)]
            while queue:
                i, j = queue.pop()
                for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    a, b = i + di, j + dj
                    if wrap:
                        b %= nc
                    if (0 <= a < nr and 0 <= b < nc and act[a, b] and not seen[a, b]
                            and np.sign(field[a, b]) == np.sign(field[i, j])):
                        seen[a, b] = True
                        queue.append((a, b))
    return count


@pytest.mark.parametrize("seed", range(6))
def test_nodal_count_matches_flood_fill(seed):
    rng = np.random.default_rng(seed)
    shape = (int(rng.integers(1, 9)), int(rng.integers(1, 12)))
    field = rng.standard_normal(shape)
    field[rng.random(shape) < 0.2] = np.nan
    field[rng.random(shape) < 0.1] = 0.0
    if not (np.isfinite(field) & (field != 0.0)).any():
        field[0, 0] = 1.0
    for wrap in (False, True):
        assert nodal_domains(field, wrap=wrap).mu == _nodal_count_by_flood_fill(field, wrap)


def test_sector_field_places_every_unknown():
    for case in ("NND", "DDD"):
        spec = build_cracked_disk(2, 0.8, 0.4356, 1.0)
        op = assemble(next(p for p in quarter_problems(spec) if p.quarter_case == case), 12)
        vector = np.arange(1.0, op.n + 1.0)
        field = sector_field(op, vector)
        for row in range(op.n):
            if op.node_ring[row] > 0:
                col = list(op.cols).index(op.node_col[row])
                assert field[op.node_ring[row] - 1, col] == vector[row]
        assert np.isfinite(field).sum() == np.count_nonzero(op.node_ring > 0)


def test_nodal_degenerate_inputs():
    with pytest.raises(ValueError):
        nodal_domains(np.full((3, 3), np.nan), wrap=False)
    with pytest.raises(ValueError):
        nodal_domains(np.zeros((3, 3)), wrap=False)


def test_recombined_field_shape():
    spec = build_cracked_disk(3, 0.4, 0.4356, 1.0)
    problem = next(p for p, t in reduce_to_sectors(spec) if p.ell == 1)
    sol = solve_sector(problem, 16, 1)
    op = sol.operator
    full = recombine_full_domain(op, sol.spectrum.vectors[:, 0])
    assert full.shape == (15, 3 * len(op.cols))
    part = sector_field(op, sol.spectrum.vectors[:, 0])
    assert np.allclose(full[:, :len(op.cols)][np.isfinite(part)],
                       part[np.isfinite(part)].real)


def test_recombined_coupled_eigenvector_solves_full_circle_stencil():
    # the circle assembled from the n rotated copies carries the polar
    # five-point stencil across every seam, with zero at the center, on
    # the outer circle and on the crack nodes
    for n, ell in ((3, 1), (5, 2)):
        spec = build_cracked_disk(n, 0.3, 0.4356, 1.0)
        problem = next(p for p, t in reduce_to_sectors(spec) if p.ell == ell)
        sol = solve_sector(problem, 16, 2)
        op = sol.operator
        for idx in range(2):
            lam = sol.values[idx]
            field = recombine_full_domain(op, sol.spectrum.vectors[:, idx])
            inside = np.isfinite(field)
            u = np.pad(np.where(inside, field, 0.0), ((1, 1), (0, 0)))
            dr, dth = op.grid.dr, op.grid.dtheta
            r = dr * np.arange(1, op.grid.m)[:, None]
            lap = ((u[2:] - 2 * u[1:-1] + u[:-2]) / dr**2 + (u[2:] - u[:-2]) / (2 * r * dr)
                   + (np.roll(u[1:-1], -1, 1) - 2 * u[1:-1] + np.roll(u[1:-1], 1, 1))
                   / (r * dth) ** 2)
            resid = (-lap - lam * u[1:-1])[inside]
            assert np.abs(resid).max() <= 1e-8 * lam * np.abs(u).max()


def test_quarter_has_no_recombination():
    spec = build_cracked_disk(2, 0.8, 0.4356, 1.0)
    problem = quarter_problems(spec)[0]
    sol = solve_sector(problem, 16, 1)
    with pytest.raises(ValueError):
        recombine_full_domain(sol.operator, sol.spectrum.vectors[:, 0])


# ---------------------------------------------------------------------------
# NDD / DND gap
# ---------------------------------------------------------------------------

def test_ndd_dnd_gap_sign_and_endpoint():
    spec = build_cracked_disk(2, 0.0, 0.4356, 1.0)
    scan = ndd_dnd_gap(spec, [0.6, 1.0, 1.3, math.pi / 2], 45)
    assert (scan.gaps[:-1] < -1e-3).all()  # NDD strictly below DND inside
    assert abs(scan.gaps[-1]) < 1e-8       # isospectral mirror problems at pi/2
    assert scan.all_negative is bool((scan.gaps < 0).all())
    assert scan.epsilons[-1] == pytest.approx(math.pi / 2)
    for lam, res in ((scan.lam_ndd, scan.residual_ndd), (scan.lam_dnd, scan.residual_dnd)):
        assert res.shape == lam.shape
        assert np.isfinite(res).all()
        assert (res <= 1e-8 * np.maximum(1.0, lam)).all()


def test_ndd_dnd_gap_requires_n2():
    with pytest.raises(ValueError):
        ndd_dnd_gap(build_cracked_disk(3, 0.0, 0.4356, 1.0), [0.5], 24)


def test_sweep_quarter_cases(monkeypatch):
    spec = build_cracked_disk(2, 0.0, 0.4356, 1.0)
    eps, by_case = sweep_quarter(spec, ("NND", "DDD"), [0.7, 1.2], 24, 2)
    assert set(by_case) == {"NND", "DDD"}
    assert by_case["NND"].shape == (2, 2)
    assert (by_case["DDD"][:, 0] > by_case["NND"][:, 0]).all()
    # a repeated case is solved once; each unknown case is named, and a
    # case string iterates as its letters, which are no cases
    solved = []
    inner = spectra.solve_sector
    monkeypatch.setattr(spectra, "solve_sector",
                        lambda problem, *args: solved.append(problem.quarter_case)
                        or inner(problem, *args))
    eps, by_case = sweep_quarter(spec, ["NDD", "NDD"], [0.7, 1.2], 24, 2)
    assert list(by_case) == ["NDD"] and solved == ["NDD", "NDD"]    # two openings
    for cases, unknown in ((["NDD", "ndd", "XYZ"], "'ndd', 'XYZ'"), ("NDD", "'N', 'D'"),
                           (["ABC"], "'ABC'")):
        with pytest.raises(ValueError, match=f"^unknown quarter cases {unknown}; "
                                             "the cases are NND, DDD, NDD, DND$"):
            sweep_quarter(spec, cases, [0.7], 24, 2)
