import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import special

from crackspec import specfun as sf


# ---------------------------------------------------------------------------
# Bessel J
# ---------------------------------------------------------------------------

def test_j_at_origin():
    assert sf.bessel_j(0, 0.0) == 1.0
    assert sf.bessel_j(1, 0.0) == 0.0
    assert sf.bessel_j(17, 0.0) == 0.0


@pytest.mark.parametrize("ell,x", [(0, 2.404), (1, 3.831)])
def test_j_vanishes_at_tabulated_zeros(ell, x):
    assert abs(sf.bessel_j(ell, x)) < 5e-4


@pytest.mark.parametrize("ell", [0, 1, 2, 3, 5, 8, 13, 21, 34, 50, 64])
def test_j_against_independent_reference(ell):
    xs = np.linspace(0.01, 50.0, 173)
    err = max(abs(sf.bessel_j(ell, float(x)) - special.jv(ell, x)) for x in xs)
    assert err <= 1e-12


def test_j_rejects_bad_input():
    with pytest.raises(ValueError):
        sf.bessel_j(65, 1.0)
    with pytest.raises(ValueError):
        sf.bessel_j(-1, 1.0)
    with pytest.raises(ValueError):
        sf.bessel_j(0, -0.5)
    with pytest.raises(ValueError):
        sf.bessel_j(0, float("nan"))


def test_j_prime_at_origin():
    assert sf.bessel_j_prime(0, 0.0) == 0.0


@pytest.mark.parametrize("ell,x,frozen", [
    (1, 3.831, -0.402834),   # finite differences of bessel_j, computed ahead
    (2, 5.135, -0.339710),
])
def test_j_prime_matches_finite_difference_oracle(ell, x, frozen):
    h = 1e-6
    fd = (sf.bessel_j(ell, x + h) - sf.bessel_j(ell, x - h)) / (2 * h)
    val = sf.bessel_j_prime(ell, x)
    assert abs(val - fd) < 1e-6
    assert val == pytest.approx(frozen, abs=1e-4)


def test_j_prime_against_independent_reference():
    for ell in (0, 1, 2, 8, 64):
        for x in np.linspace(0.0, 50.0, 101):
            assert abs(sf.bessel_j_prime(ell, float(x)) - special.jvp(ell, x)) <= 1e-10


# ---------------------------------------------------------------------------
# Bessel Y
# ---------------------------------------------------------------------------

def test_y_rejects_nonpositive_argument():
    with pytest.raises(ValueError):
        sf.bessel_y(0, 0.0)
    with pytest.raises(ValueError):
        sf.bessel_y(0, -1.0)


def test_y_log_singularity_sign():
    assert sf.bessel_y(0, 1e-4) < -5.0


def test_y_first_zeros_from_independent_bisection():
    # bracket the zero with an independent evaluation, then bisect it
    for order, lo, hi, frozen in ((0, 0.5, 1.5, 0.893577), (1, 1.5, 3.0, 2.197141)):
        f = special.y0 if order == 0 else special.y1
        a, b = lo, hi
        for _ in range(60):
            mid = 0.5 * (a + b)
            if (f(a) > 0) == (f(mid) > 0):
                a = mid
            else:
                b = mid
        zero = 0.5 * (a + b)
        assert zero == pytest.approx(frozen, abs=1e-5)
        assert abs(sf.bessel_y(order, zero)) < 1e-9


@pytest.mark.parametrize("ell", [0, 1, 2])
def test_y_absolute_accuracy_low_orders(ell):
    xs = np.linspace(0.05, 50.0, 211)
    err = max(abs(sf.bessel_y(ell, float(x)) - special.yv(ell, x)) for x in xs)
    assert err <= 1e-10


@pytest.mark.parametrize("ell", [5, 8, 64])
def test_y_relative_accuracy_high_orders(ell):
    # |Y_l| blows up near the origin, so only a relative bound is meaningful
    xs = np.linspace(0.05, 50.0, 137)
    err = max(abs(sf.bessel_y(ell, float(x)) - special.yv(ell, x))
              / max(1.0, abs(special.yv(ell, x))) for x in xs)
    assert err <= 1e-9


# ---------------------------------------------------------------------------
# zeros
# ---------------------------------------------------------------------------

# handbook table values (three printed decimals, truncated in places)
_ZERO_TABLE = [
    (0, 1, 2.404), (0, 2, 5.520), (0, 3, 8.653), (0, 4, 11.791),
    (1, 1, 3.831), (1, 2, 7.015), (1, 3, 10.173), (1, 4, 13.323),
    (2, 1, 5.135), (2, 2, 8.417), (2, 3, 11.619), (2, 4, 14.796),
    (3, 1, 6.380), (3, 2, 9.761), (3, 3, 13.015), (3, 4, 16.223),
    (4, 1, 7.588), (4, 2, 11.064), (4, 3, 14.372), (4, 4, 17.616),
    (5, 1, 8.771), (5, 2, 12.338), (5, 3, 15.700), (5, 4, 18.980),
    (6, 1, 9.936), (6, 2, 13.589), (6, 3, 17.003), (6, 4, 20.320),
    (7, 1, 11.086), (7, 2, 14.821), (7, 3, 18.287), (7, 4, 21.641),
    # the printed table has 22.942 for (8, 4); the verified root is 22.9452
    (8, 1, 12.225), (8, 2, 16.037), (8, 3, 19.554), (8, 4, 22.945),
]


@pytest.mark.parametrize("ell,k,table", _ZERO_TABLE)
def test_zero_table(ell, k, table):
    z = sf.bessel_zero(ell, k)
    assert z.ell == ell and z.k == k
    assert abs(z.value - table) <= 1.2e-3  # table truncates the 4th decimal
    assert abs(sf.bessel_j(ell, z.value)) <= sf.ROOT_TOL


def test_zero_high_order():
    z = sf.bessel_zero(64, 2)
    assert abs(sf.bessel_j(64, z.value)) <= sf.ROOT_TOL
    assert z.value == pytest.approx(special.jn_zeros(64, 2)[1], abs=1e-9)


def test_zero_interlacing():
    for ell in range(0, 9):
        for k in range(1, 5):
            a = sf.bessel_zero(ell, k).value
            b = sf.bessel_zero(ell + 1, k).value
            c = sf.bessel_zero(ell, k + 1).value
            assert a < b < c


def test_zero_strictly_increasing_in_k():
    vals = [sf.bessel_zero(3, k).value for k in range(1, 8)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_zero_range_errors():
    with pytest.raises(ValueError):
        sf.bessel_zero(65, 1)
    with pytest.raises(ValueError):
        sf.bessel_zero(0, 0)
    with pytest.raises(ValueError):
        sf.bessel_zero(0, 65)


def test_zero_table_matches_scipy_across_orders(monkeypatch):
    monkeypatch.setattr(sf, "_zeros", {})
    for ell in range(31):
        ref = special.jn_zeros(ell, 10)
        assert sf.bessel_zero(ell, 10).value == pytest.approx(ref[9], rel=1e-12)
        # the scan stored every zero it passed; those are read back here
        assert all((ell, k) in sf._zeros for k in range(1, 10))
        for k in (3, 1):
            assert sf.bessel_zero(ell, k).value == pytest.approx(ref[k - 1], rel=1e-12)


def test_zeros_same_in_fresh_processes_and_nothing_written(tmp_path):
    src = str(Path(sf.__file__).resolve().parents[1])
    env = {"HOME": str(tmp_path), "PYTHONPATH": src, "PATH": os.environ.get("PATH", "")}
    script = ("from crackspec.specfun import bessel_zero, choose_r1; "
              "print(repr(choose_r1(1.0)), repr(bessel_zero(3, 4).value))")
    outs = [subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                           capture_output=True, text=True, check=True).stdout
            for _ in range(2)]
    assert outs[0] == outs[1]
    assert outs[0].split() == [repr(sf.choose_r1(1.0)), repr(sf.bessel_zero(3, 4).value)]
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# reference spectra
# ---------------------------------------------------------------------------

def test_disk_spectrum_first_six():
    ref = sf.disk_spectrum(1.0, 6)
    rows = [(e.value, e.multiplicity) for e in ref.entries]
    assert rows[0][0] == pytest.approx(5.78, abs=1e-2)
    assert rows[0][1] == 1
    assert [round(v, 2) for v, _ in rows] == [5.78, 14.68, 26.37, 30.47]
    assert [m for _, m in rows] == [1, 2, 2, 1]
    assert ref.eigenvalues() == sorted(ref.eigenvalues())
    assert len(ref.eigenvalues()) == 6


def test_disk_spectrum_single_and_scaled():
    one = sf.disk_spectrum(1.0, 1)
    assert len(one.entries) == 1
    assert one.entries[0].value == pytest.approx(5.7832, abs=1e-3)
    two = sf.disk_spectrum(2.0, 1)
    assert two.entries[0].value == pytest.approx(5.78 / 4, abs=1e-2)


def test_disk_spectrum_scaling_covariance():
    c = 2.5
    base = sf.disk_spectrum(1.0, 10)
    scaled = sf.disk_spectrum(c, 10)
    for a, b in zip(base.entries, scaled.entries):
        assert (a.ell, a.k, a.multiplicity) == (b.ell, b.k, b.multiplicity)
        assert b.value == pytest.approx(a.value / c**2, rel=1e-13)


def test_disk_spectrum_entries_square_zeros():
    radius = 1.7
    for e in sf.disk_spectrum(radius, 12).entries:
        assert abs(sf.bessel_j(e.ell, math.sqrt(e.value) * radius)) < 1e-9
        assert (e.multiplicity == 1) == (e.ell == 0)


def test_disk_spectrum_validation():
    with pytest.raises(ValueError):
        sf.disk_spectrum(0.0, 3)
    with pytest.raises(ValueError):
        sf.disk_spectrum(1.0, 0)


def test_disk_spectrum_is_the_sorted_zeros():
    # every zero j_{l,k} below 40, sorted by brute force: each count's
    # entries are the prefix that first reaches it
    radius, top = 1.3, 40.0
    zeros = []
    for ell in range(sf.MAX_ORDER + 1):
        for k in range(1, sf.MAX_ZERO_INDEX + 1):
            z = sf.bessel_zero(ell, k).value
            if z > top:
                break
            zeros.append((z, ell, k))
    zeros.sort()
    total = 0
    for i, (z, ell, k) in enumerate(zeros):
        mult = 1 if ell == 0 else 2
        want = [((zz / radius) ** 2, ll, kk) for zz, ll, kk in zeros[:i + 1]]
        for count in range(total + 1, total + mult + 1):
            got = sf.disk_spectrum(radius, count).entries
            assert [(e.value, e.ell, e.k) for e in got] == want
        total += mult
    assert total > 300


def test_disk_spectrum_refuses_a_count_beyond_its_orders():
    # once the first zero of order MAX_ORDER is taken, a later zero may
    # belong to the order above it
    with pytest.raises(ValueError, match="needs angular orders beyond 64"):
        sf.disk_spectrum(1.0, 1500)


_ANNULUS_TABLE = [(0, 30.46), (1, 32.53), (2, 38.68), (3, 48.78),
                  (4, 62.61), (5, 79.91), (6, 100.39), (7, 123.79), (8, 149.90)]


@pytest.mark.parametrize("ell,table", _ANNULUS_TABLE)
def test_annulus_first_eigenvalues(ell, table):
    val = sf.annulus_spectrum(0.4356, 1.0, ell, 1)[0]
    assert val == pytest.approx(table, rel=1e-3)


def test_annulus_second_radial():
    vals = sf.annulus_spectrum(0.4356, 1.0, 0, 2)
    assert vals[1] == pytest.approx(123.38, rel=1e-3)


def test_annulus_roots_satisfy_cross_product():
    for ell in (0, 1, 4):
        for lam in sf.annulus_spectrum(0.4356, 1.0, ell, 3):
            k = math.sqrt(lam)
            cross = (sf.bessel_j(ell, k * 0.4356) * sf.bessel_y(ell, k)
                     - sf.bessel_j(ell, k) * sf.bessel_y(ell, k * 0.4356))
            assert abs(cross) < 1e-8


def test_annulus_ascending_and_validated():
    vals = sf.annulus_spectrum(0.3, 1.0, 2, 4)
    assert vals == sorted(vals)
    with pytest.raises(ValueError):
        sf.annulus_spectrum(1.0, 0.4, 0, 1)
    with pytest.raises(ValueError):
        sf.annulus_spectrum(0.4, 1.0, 0, 0)


def test_choose_r1():
    assert sf.choose_r1(1.0) == pytest.approx(0.4356, abs=5e-4)
    assert sf.choose_r1(2.0) == pytest.approx(0.8712, abs=1e-3)
    with pytest.raises(ValueError):
        sf.choose_r1(-1.0)


def test_choose_r1_consistency():
    # disk(r1) ground energy equals the first annulus eigenvalue by design
    r1 = sf.choose_r1(1.0)
    disk = sf.disk_spectrum(r1, 1).entries[0].value
    annulus = sf.annulus_spectrum(r1, 1.0, 0, 1)[0]
    assert abs(disk - annulus) < 1e-2
    assert disk == pytest.approx(30.47, abs=1e-2)


def test_radii_condition_constructed_pair():
    rc = sf.verify_radii_condition(0.4356, 1.0)
    assert rc.weak is True
    assert rc.strict is False  # equality by construction, not strict
    assert rc.lam2_disk == pytest.approx(77.4, abs=0.2)


def test_radii_condition_far_off_pair():
    rc = sf.verify_radii_condition(0.1, 1.0)
    assert rc.strict is False
    assert rc.lam1_disk > 500


def test_radii_condition_validation():
    with pytest.raises(ValueError):
        sf.verify_radii_condition(1.0, 0.5)
