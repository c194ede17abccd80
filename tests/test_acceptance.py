"""Acceptance suite: every criterion at its stated grid and tolerance.

Heavy artifacts (M=180 sweeps, endpoint solves) are session fixtures shared
across criteria.  Each test prints one `[criterion N] PASS/FAIL` line.

Conventions fixed by the validation studies in this repository:

* Crossing abscissas for the four-crack geometry are quoted as the full hole
  width 2*eps (their reference values 0.54 / 0.95 / 1.565 exceed the
  admissible half-opening range (0, pi/4) otherwise); the three-crack values
  0.29 / 0.96 are half-openings as-is.
* The third DDD endpoint reference is j_{2,2}^2 = 70.85, the (k,l) = (2,2)
  mode it is attributed to.  An earlier reference of 68.89 (= 8.30^2) was
  dropped: no Bessel zero is 8.30, the scheme converges to 70.85 at second
  order, and the dense m = 20 spectrum has only two modes below 68.89.  The
  closed-form and convergence tests below the criterion keep that evidence.
"""

import math
import time

import numpy as np
import pytest

from crackspec import specfun
from crackspec.asymptotics import fit_coefficient, law_competition, model
from crackspec.capacity import additivity_ratio, capacitary_potential, CapacityProblem
from crackspec.discretize import assemble
from crackspec.domain import build_cracked_disk, quarter_problems, reduce_to_sectors
from crackspec.eigensolve import group_multiplicities, lowest_eigenpairs
from crackspec.spectra import (
    count_nodal_domains,
    detect_crossings,
    ndd_dnd_gap,
    solve_sector,
    sweep,
    sweep_quarter,
)

import dense_oracle

M = 180
R1 = 0.4356
R2 = 1.0


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# shared artifacts
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def disk_sector():
    """Unit disk as the trivial one-sector geometry, k=6, M=180."""
    spec = build_cracked_disk(1, math.pi, R1, R2)
    problem = reduce_to_sectors(spec)[0][0]
    t0 = time.time()
    sol = solve_sector(problem, M, 6)
    return sol, time.time() - t0


@pytest.fixture(scope="session")
def quarter_endpoints():
    """All four quarter problems at the fully open endpoint, k=3, M=180."""
    spec = build_cracked_disk(2, math.pi / 2, R1, R2)
    return {p.quarter_case: solve_sector(p, M, 3)
            for p in quarter_problems(spec)}


@pytest.fixture(scope="session")
def n3_events():
    spec = build_cracked_disk(3, 0.0, R1, R2)
    curve = sweep(spec, np.linspace(0.02, math.pi / 3, 30), M, 6)
    return curve, detect_crossings(curve, 3)


@pytest.fixture(scope="session")
def n4_events():
    spec = build_cracked_disk(4, 0.0, R1, R2)
    curve = sweep(spec, np.linspace(0.02, math.pi / 4, 30), M, 6)
    return curve, detect_crossings(curve, 6)


@pytest.fixture(scope="session")
def gap_scan():
    spec = build_cracked_disk(2, 0.0, R1, R2)
    eps = np.arange(0.1, math.pi / 2 - 0.05 + 1e-9, 0.1)
    return ndd_dnd_gap(spec, eps, M)


@pytest.fixture(scope="session")
def quarter_tails():
    """All four quarter cases on the near-closing tail, k=1, M=180."""
    spec = build_cracked_disk(2, 0.0, R1, R2)
    deltas = np.array([0.30, 0.21, 0.15, 0.105, 0.075, 0.0525, 0.0375])
    eps = np.sort(math.pi / 2 - deltas)
    grid, by_case = sweep_quarter(spec, ("NND", "DND", "DDD", "NDD"),
                                  eps, M, 1)
    return grid, {c: v[:, 0] for c, v in by_case.items()}


# ---------------------------------------------------------------------------
# criterion 1: disk oracle
# ---------------------------------------------------------------------------

def test_criterion_1_disk_oracle(disk_sector):
    sol, elapsed = disk_sector
    expected = [5.78, 14.68, 14.68, 26.37, 26.37, 30.47]
    got = sol.values[:6]
    rel = max(abs(g - e) / e for g, e in zip(got, expected))
    mults = [m for _, m in group_multiplicities(list(got), 0.05)]
    ok = rel <= 0.005 and mults == [1, 2, 2, 1] and elapsed <= 120.0
    _report(1, ok, f"disk eigenvalues {np.round(got, 3)} rel err {rel:.2e}, "
                   f"multiplicities {mults}, solve {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: annulus oracle
# ---------------------------------------------------------------------------

def test_criterion_2_annulus_oracle():
    table = [30.46, 32.53, 38.68, 48.78, 62.61, 79.91]
    worst = 0.0
    for ell, ref in enumerate(table):
        got = specfun.annulus_spectrum(R1, R2, ell, 1)[0]
        worst = max(worst, abs(got - ref) / ref)
    second = specfun.annulus_spectrum(R1, R2, 0, 2)[1]
    worst = max(worst, abs(second - 123.38) / 123.38)
    # FD cross-check: the ell=1 sector of the closed interface starts at the
    # first odd annulus eigenvalue (m=202 keeps the r1 snap negligible)
    spec = build_cracked_disk(4, 0.0, R1, R2)
    problem = next(p for p, t in reduce_to_sectors(spec) if p.ell == 1)
    fd = solve_sector(problem, 202, 1).values[0]
    fd_rel = abs(fd - 32.53) / 32.53
    ok = worst <= 0.005 and fd_rel <= 0.005
    _report(2, ok, f"closed-form table worst rel {worst:.2e}, "
                   f"FD ell=1 value {fd:.3f} rel {fd_rel:.2e}")


# ---------------------------------------------------------------------------
# criterion 3: quarter-disk endpoints
# ---------------------------------------------------------------------------

def _endpoint_check(sol, expected):
    got = sol.values[:3]
    rel = max(abs(g - e) / e for g, e in zip(got, expected))
    return got, rel


def test_criterion_3_nnd_endpoint(quarter_endpoints):
    got, rel = _endpoint_check(quarter_endpoints["NND"], [5.76, 26.42, 30.47])
    _report(3, rel <= 0.005, f"NND endpoint {np.round(got, 4)}, worst rel {rel:.2e}")


def test_criterion_3_dnd_endpoint(quarter_endpoints):
    got, rel = _endpoint_check(quarter_endpoints["DND"], [14.67, 40.70, 49.0])
    _report(3, rel <= 0.005, f"DND endpoint {np.round(got, 4)}, worst rel {rel:.2e}")


def test_criterion_3_ddd_endpoint(quarter_endpoints):
    # Dirichlet on both rays and the outer circle: the modes are
    # J_nu(j r) sin(nu theta) with nu in {2, 4, 6, ...}, so the three lowest
    # are (k,l) = (2,1), (4,1), (2,2): j_{2,1}^2, j_{4,1}^2, j_{2,2}^2 =
    # 26.37, 57.58, 70.85.  The third reference was once 68.89 = 8.30^2,
    # which matches no Bessel zero (j_{2,2} = 8.4172); the convergence test
    # below shows the scheme has no mode there.
    got, rel = _endpoint_check(quarter_endpoints["DDD"], [26.41, 57.61, 70.85])
    _report(3, rel <= 0.005, f"DDD endpoint {np.round(got, 4)}, worst rel {rel:.2e}")


def test_criterion_3_ddd_endpoint_closed_form(quarter_endpoints):
    # companion check against the unambiguous closed form of the same modes
    exact = [specfun.bessel_zero(2, 1).value ** 2,
             specfun.bessel_zero(4, 1).value ** 2,
             specfun.bessel_zero(2, 2).value ** 2]
    got, rel = _endpoint_check(quarter_endpoints["DDD"], exact)
    _report(3, rel <= 0.005,
            f"DDD endpoint vs closed form {np.round(exact, 3)}: worst rel {rel:.2e}")


def test_criterion_3_ddd_third_mode_convergence():
    # the third DDD value converges to j_{2,2}^2 at second order, and the
    # dense spectrum holds only two modes below the dropped reference 68.89
    spec = build_cracked_disk(2, math.pi / 2, R1, R2)
    problem = next(p for p in quarter_problems(spec) if p.quarter_case == "DDD")
    exact = specfun.bessel_zero(2, 2).value ** 2
    errs = [abs(solve_sector(problem, m, 3).values[2] - exact)
            for m in (45, 90, 180)]
    r1 = errs[0] / errs[1]
    r2 = errs[1] / errs[2]
    dense = dense_oracle.lowest_eigenpairs(assemble(problem, 20), 4).eigenvalues
    below = int((dense < 68.89 * 1.005).sum())
    ok = 3.0 <= r1 <= 5.0 and 3.0 <= r2 <= 5.0 and below == 2
    _report(3, ok, f"DDD third mode convergence factors {r1:.2f}, {r2:.2f}; "
                   f"dense m=20 modes below 68.89: {below} of {np.round(dense, 2)}")


# ---------------------------------------------------------------------------
# criterion 4: multiplicity-3 certification
# ---------------------------------------------------------------------------

def test_criterion_4_n3_crossings(n3_events):
    _, events = n3_events
    rank2 = [e for e in events if e.rank == 2]
    rank3 = [e for e in events if e.rank == 3]
    ok = (len(rank2) >= 1 and abs(rank2[0].epsilon_star - 0.29) <= 0.05
          and rank2[0].total_multiplicity == 3
          and {rank2[0].sector_a.label, rank2[0].sector_b.label} == {"ell=0", "ell=1"}
          and {rank2[0].sector_a.weight, rank2[0].sector_b.weight} == {1, 2}
          and len(rank3) >= 1 and abs(rank3[0].epsilon_star - 0.96) <= 0.07)
    detail = ", ".join(f"eps*={e.epsilon_star:.4f} rank={e.rank} mult={e.total_multiplicity}"
                       for e in events)
    _report(4, ok, f"three-crack crossings: {detail}")


def test_criterion_4_n4_crossings(n4_events):
    # reference abscissas are full hole widths (2*eps), see module docstring
    _, events = n4_events
    widths = [2 * e.epsilon_star for e in events]
    first = [e for e in events if abs(2 * e.epsilon_star - 0.54) <= 0.05]
    near_095 = [w for w in widths if abs(w - 0.95) <= 0.07]
    near_1565 = [w for w in widths if abs(w - 1.565) <= 0.07]
    ok = (len(first) >= 1 and first[0].total_multiplicity == 3
          and len(near_095) >= 1 and len(near_1565) >= 1)
    _report(4, ok, f"four-crack crossing widths 2*eps*: {np.round(widths, 4)}")


# ---------------------------------------------------------------------------
# criterion 5: the two quarter curves never cross
# ---------------------------------------------------------------------------

def test_criterion_5_ndd_below_dnd(gap_scan, quarter_endpoints):
    scan = gap_scan
    interior_negative = bool((scan.gaps < 0).all())
    nnd_dnd_equal = abs(quarter_endpoints["NDD"].values[0]
                        - quarter_endpoints["DND"].values[0]) < 1e-6
    ok = interior_negative and nnd_dnd_equal
    _report(5, ok, f"gap range [{scan.gaps.min():.3f}, {scan.gaps.max():.3f}] over "
                   f"{len(scan.epsilons)} points, endpoint coincidence "
                   f"{nnd_dnd_equal}")


# ---------------------------------------------------------------------------
# criterion 6: asymptotic bounds and fit trends
# ---------------------------------------------------------------------------

def test_criterion_6_lower_bounds(quarter_tails):
    _, tails = quarter_tails
    j21sq = specfun.bessel_zero(2, 1).value ** 2
    j11sq = specfun.bessel_zero(1, 1).value ** 2
    ddd_ok = (tails["DDD"] >= j21sq * (1 - 0.005)).all()
    ndd_ok = (tails["NDD"] >= j11sq * (1 - 0.005)).all()
    _report(6, bool(ddd_ok and ndd_ok),
            f"DDD min {tails['DDD'].min():.4f} >= {j21sq * 0.995:.4f}, "
            f"NDD min {tails['NDD'].min():.4f} >= {j11sq * 0.995:.4f}")


def test_criterion_6_quadratic_beats_log(quarter_tails, quarter_endpoints):
    grid, tails = quarter_tails
    ok = True
    details = []
    for case in ("DDD", "NDD"):
        lim = quarter_endpoints[case].values[0]
        rss = law_competition(grid, tails[case], lim)
        ok = ok and rss["quadratic"] < rss["inverse_log"]
        details.append(f"{case}: quad {rss['quadratic']:.2e} vs log {rss['inverse_log']:.2e}")
    _report(6, ok, "; ".join(details))


def test_criterion_6_log_fit_trend(quarter_tails, quarter_endpoints):
    grid, tails = quarter_tails
    ok = True
    details = []
    for case in ("NND", "DND"):
        mod = model(case, R1, R2)
        lim = quarter_endpoints[case].values[0]
        report = fit_coefficient(grid, tails[case], mod, lambda_limit=lim)
        ratios = [w.ratio for w in report.windows]
        ok = ok and report.toward_one and all(0.5 <= r <= 2.0 for r in ratios)
        details.append(f"{case} ratios {[round(r, 3) for r in ratios]}")
    _report(6, ok, "inverse-log coefficient trend: " + "; ".join(details))


# ---------------------------------------------------------------------------
# criterion 7: capacity
# ---------------------------------------------------------------------------

def test_criterion_7_capacity():
    prob = CapacityProblem(R1, R2, ((0.0, 2 * math.pi),), M)
    cap = capacitary_potential(prob)[1].cap
    ref = 2 * math.pi / math.log(R2 / R1)
    ring_ok = abs(cap - ref) / ref <= 0.02
    ladder = [additivity_ratio(R1, R2, d, M) for d in (0.4, 0.2, 0.1, 0.05)]
    sub_ok = all(r.cap_total <= r.cap_plus + r.cap_minus + 1e-12 for r in ladder)
    ratios = [r.ratio for r in ladder]
    mono_ok = all(b > a for a, b in zip(ratios, ratios[1:])) and ratios[-1] <= 1.0 + 1e-12
    ok = ring_ok and sub_ok and mono_ok
    _report(7, ok, f"ring cap {cap:.4f} vs {ref:.4f}, additivity ratios "
                   f"{[round(r, 4) for r in ratios]}")


# ---------------------------------------------------------------------------
# criterion 8: invariant suites
# ---------------------------------------------------------------------------

def test_criterion_8_grid_convergence():
    spec = build_cracked_disk(1, math.pi, R1, R2)
    problem = reduce_to_sectors(spec)[0][0]
    exact = specfun.bessel_zero(0, 1).value ** 2
    errs = []
    for m in (45, 90, 180):
        lam = solve_sector(problem, m, 1).values[0]
        errs.append(abs(lam - exact))
    r1 = errs[0] / errs[1]
    r2 = errs[1] / errs[2]
    ok = 3.0 <= r1 <= 5.0 and 3.0 <= r2 <= 5.0
    _report(8, ok, f"convergence factors per doubling: {r1:.2f}, {r2:.2f}")


def test_criterion_8_monotone_in_epsilon(n3_events):
    curve, _ = n3_events
    ok = True
    for label, arr in curve.values.items():
        ok = ok and bool((np.diff(arr, axis=0) <= 1e-4).all())
    _report(8, ok, f"sector curves non-increasing over {len(curve.epsilons)} "
                   f"epsilon points (slack 1e-4)")


def test_criterion_8_residual_certificates(disk_sector, quarter_endpoints, n3_events):
    pools = [disk_sector[0]] + list(quarter_endpoints.values())
    worst = 0.0
    for sol in pools:
        scale = np.maximum(1.0, np.abs(sol.values))
        worst = max(worst, float((sol.residuals / (1e-8 * scale)).max()))
    curve, _ = n3_events
    ok = worst <= 1.0 and curve.residual_max <= 1e-8 * 130
    _report(8, ok, f"certificates within bound (worst fraction {worst:.2e})")


def test_criterion_8_dense_vs_iterative():
    spec = build_cracked_disk(2, 0.9, R1, R2)
    problem = quarter_problems(spec)[0]
    op = None
    for m in (10,):  # n stays under 400
        from crackspec.discretize import assemble
        op = assemble(problem, m)
    dense = dense_oracle.lowest_eigenpairs(op, 6).eigenvalues
    sparse = lowest_eigenpairs(op, 6).eigenvalues
    rel = float(np.max(np.abs(dense - sparse) / np.abs(dense)))
    _report(8, rel <= 1e-8, f"dense vs shift-invert at n={op.n}: rel {rel:.2e}")


def test_criterion_8_nodal_counts(disk_sector):
    sol, _ = disk_sector
    mu1 = count_nodal_domains(sol.operator, sol.spectrum.vectors[:, 0]).mu
    mu2 = count_nodal_domains(sol.operator, sol.spectrum.vectors[:, 1]).mu
    ok = mu1 == 1 and mu2 == 2
    _report(8, ok, f"nodal domains: ground {mu1}, second {mu2}")
