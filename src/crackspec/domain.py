"""Geometry of the cracked disk and its reduction to symmetry sectors.

The domain is the disk of radius ``r2`` in which ``n`` Dirichlet arcs
("cracks") are kept on the interior circle ``r = r1``: around each angle
``2*pi*j/n`` an open hole of half-opening ``epsilon`` is carved out of the
interface, leaving closed crack arcs of width ``2*(pi/n - epsilon)`` centered
between consecutive holes.  ``epsilon = 0`` closes the interface completely
(disjoint disk plus annulus), ``epsilon = pi/n`` removes it (plain disk).

Rotation by ``2*pi/n`` commutes with the Dirichlet Laplacian, so the problem
splits into Floquet sectors ``ell = 0 .. n//2``.  The sectors with
``0 < ell < n/2`` are complex-conjugate pairs and contribute every eigenvalue
twice; they carry weight 2.  For ``n = 2`` the two reflections additionally
split the odd sector into the four quarter-disk problems NND/DDD/NDD/DND
(letters: condition on the ray theta=0, on the ray theta=pi/2, and on the
crack, which is always Dirichlet).

The geometry holds the requested values only.  Which r1-ring nodes form the
crack, and when an opening counts as fully open, is decided on the grid
(`discretize.PolarGrid.eps_ray` and `open_ray`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "QUARTER_CASES",
    "CrackedDiskSpec",
    "SectorProblem",
    "SectorTag",
    "build_cracked_disk",
    "reduce_to_sectors",
    "quarter_problems",
]

QUARTER_CASES = ("NND", "DDD", "NDD", "DND")

_ANGLE_TOL = 1e-12


@dataclass(frozen=True)
class CrackedDiskSpec:
    """Geometry parameters of the cracked disk."""

    n: int
    epsilon: float
    r1: float
    r2: float

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            raise ValueError(f"n must be an integer >= 1, got {self.n!r}")
        if not (0.0 < self.r1 < self.r2):
            raise ValueError(
                f"radii must satisfy 0 < r1 < r2, got r1={self.r1!r}, r2={self.r2!r}")
        hi = math.pi / self.n
        if not (-_ANGLE_TOL <= self.epsilon <= hi + _ANGLE_TOL):
            raise ValueError(
                f"epsilon={self.epsilon!r} outside [0, pi/n] = [0, {hi:.6g}]")


@dataclass(frozen=True)
class SectorTag:
    """Sector label plus its contribution weight when recombining spectra."""

    label: str
    weight: int


@dataclass(frozen=True)
class SectorProblem:
    """One symmetry-reduced eigenvalue problem.

    ``kind`` is "floquet" (rotation sector ``ell`` of an n-fold symmetric
    domain) or "quarter" (one of the four mixed-boundary quarter-disk
    problems, n = 2 only).
    """

    kind: str
    geometry: CrackedDiskSpec
    ell: int = 0
    quarter_case: str = ""

    def __post_init__(self) -> None:
        if self.kind == "floquet":
            if not 0 <= self.ell <= self.geometry.n // 2:
                raise ValueError(
                    f"floquet index {self.ell} outside [0, {self.geometry.n // 2}]")
        elif self.kind == "quarter":
            if self.geometry.n != 2:
                raise ValueError("quarter problems require n = 2")
            if self.quarter_case not in QUARTER_CASES:
                raise ValueError(f"unknown quarter case {self.quarter_case!r}")
        else:
            raise ValueError(f"unknown sector kind {self.kind!r}")

    @property
    def label(self) -> str:
        return f"ell={self.ell}" if self.kind == "floquet" else self.quarter_case

    @property
    def weight(self) -> int:
        """2 for a complex Floquet sector (0 < ell < n/2), which also stands
        for its conjugate n - ell; 1 otherwise."""
        return 2 if self.kind == "floquet" and 0 < self.ell < self.geometry.n / 2 else 1

    @property
    def tag(self) -> SectorTag:
        return SectorTag(label=self.label, weight=self.weight)


def build_cracked_disk(n: int, epsilon: float, r1: float, r2: float) -> CrackedDiskSpec:
    """Validated cracked-disk geometry; epsilon is snapped to the angular
    grid later, at discretization time (the snap is reported, never silent)."""
    return CrackedDiskSpec(n=n, epsilon=float(epsilon), r1=float(r1), r2=float(r2))


def reduce_to_sectors(spec: CrackedDiskSpec) -> list[tuple[SectorProblem, SectorTag]]:
    """Floquet sector problems ell = 0..n//2 with their weights.

    The weighted union of the sector spectra is the full spectrum; sectors
    with 0 < ell < n/2 carry weight 2.
    """
    problems = [SectorProblem(kind="floquet", geometry=spec, ell=ell)
                for ell in range(spec.n // 2 + 1)]
    return [(p, p.tag) for p in problems]


def quarter_problems(spec: CrackedDiskSpec) -> list[SectorProblem]:
    """The four quarter-disk problems NND, DDD, NDD, DND (n = 2 only):
    Dirichlet on r = r2 and on the crack arc {r = r1, theta in [eps, pi/2]},
    Neumann/Dirichlet on the rays theta = 0 and theta = pi/2 as labelled."""
    if spec.n != 2:
        raise ValueError(f"quarter problems require n = 2, got n = {spec.n}")
    return [SectorProblem(kind="quarter", geometry=spec, quarter_case=c)
            for c in QUARTER_CASES]

