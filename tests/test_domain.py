import math

import pytest

from crackspec.domain import (
    QUARTER_CASES,
    SectorProblem,
    build_cracked_disk,
    quarter_problems,
    reduce_to_sectors,
)


def test_build_valid_specs():
    spec = build_cracked_disk(3, 0.3, 0.4356, 1.0)
    assert (spec.n, spec.epsilon, spec.r1, spec.r2) == (3, 0.3, 0.4356, 1.0)
    assert build_cracked_disk(2, math.pi / 2, 0.4356, 1.0).epsilon == math.pi / 2
    assert build_cracked_disk(2, 0, 0.4356, 1.0).epsilon == 0.0


@pytest.mark.parametrize("n,eps,r1,r2", [
    (2, 1.8, 0.4356, 1.0),    # 1.8 > pi/2
    (3, -0.1, 0.4356, 1.0),
    (0, 0.1, 0.4356, 1.0),
    (2, 0.1, 1.0, 1.0),       # r1 == r2
    (2, 0.1, -0.2, 1.0),
])
def test_build_rejects_out_of_range(n, eps, r1, r2):
    with pytest.raises(ValueError):
        build_cracked_disk(n, eps, r1, r2)


def test_reduce_to_sectors_n3():
    spec = build_cracked_disk(3, 0.3, 0.4356, 1.0)
    tags = [(t.label, t.weight) for _, t in reduce_to_sectors(spec)]
    assert tags == [("ell=0", 1), ("ell=1", 2)]


def test_reduce_to_sectors_n4():
    spec = build_cracked_disk(4, 0.3, 0.4356, 1.0)
    tags = [(t.label, t.weight) for _, t in reduce_to_sectors(spec)]
    assert tags == [("ell=0", 1), ("ell=1", 2), ("ell=2", 1)]


def test_reduce_to_sectors_trivial_group():
    spec = build_cracked_disk(1, 0.5, 0.4356, 1.0)
    tags = [(t.label, t.weight) for _, t in reduce_to_sectors(spec)]
    assert tags == [("ell=0", 1)]


@pytest.mark.parametrize("n", range(1, 9))
def test_sector_weights_sum_to_n(n):
    spec = build_cracked_disk(n, 0.1 / n, 0.4356, 1.0)
    assert sum(t.weight for _, t in reduce_to_sectors(spec)) == n


def test_quarter_problems():
    spec = build_cracked_disk(2, 0.4, 0.4356, 1.0)
    probs = quarter_problems(spec)
    assert [p.quarter_case for p in probs] == list(QUARTER_CASES)
    assert all(p.kind == "quarter" and p.label == p.quarter_case for p in probs)


def test_quarter_requires_n2():
    spec = build_cracked_disk(3, 0.4, 0.4356, 1.0)
    with pytest.raises(ValueError):
        quarter_problems(spec)


def test_sector_problem_validation():
    spec = build_cracked_disk(3, 0.4, 0.4356, 1.0)
    with pytest.raises(ValueError):
        SectorProblem(kind="floquet", geometry=spec, ell=2)  # 2 > 3//2
    with pytest.raises(ValueError):
        SectorProblem(kind="quarter", geometry=spec, quarter_case="NND")
    with pytest.raises(ValueError):
        SectorProblem(kind="mystery", geometry=spec)

