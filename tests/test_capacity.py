import math

import numpy as np
import pytest

from crackspec.capacity import (
    AdditivityResult,
    CapacityProblem,
    additivity_ratio,
    capacitary_potential,
)

FULL = ((0.0, 2 * math.pi),)


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
    from crackspec.capacity import _energy_system
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
    mask = grid.ring_mask(prob.arcs, np.arange(36), wrap=True)
    assert mask.sum() == round(hi / dth) - round(lo / dth) + 1
