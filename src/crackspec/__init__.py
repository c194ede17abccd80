"""crackspec: Dirichlet-Laplacian spectra of disks, annuli and disks with
symmetric interior cracks.

Polar finite differences with symmetry-sector reduction, eigenvalue-crossing
detection over the crack opening, closed-form Bessel reference spectra,
two-term crack asymptotics, and condenser capacities of interface arcs.
"""

from .domain import (
    CrackedDiskSpec,
    SectorProblem,
    SectorTag,
    build_cracked_disk,
    quarter_problems,
    reduce_to_sectors,
)
from .discretize import AssembledOperator, PolarGrid, assemble
from .eigensolve import SolverError, Spectrum, group_multiplicities, lowest_eigenpairs
from .spectra import (
    CrossingEvent,
    EigenvalueCurve,
    MergedSpectrum,
    NodalCount,
    detect_crossings,
    ndd_dnd_gap,
    nodal_domains,
    solve_full_spectrum,
    sweep,
)
from .asymptotics import AsymptoticModel, fit_coefficient, model, predict
from .capacity import CapacityProblem, CapacityResult, additivity_ratio, capacitary_potential
from . import specfun

__version__ = "0.1.0"

__all__ = [
    "CrackedDiskSpec", "SectorProblem", "SectorTag", "build_cracked_disk",
    "quarter_problems", "reduce_to_sectors",
    "AssembledOperator", "PolarGrid", "assemble",
    "SolverError", "Spectrum", "group_multiplicities", "lowest_eigenpairs",
    "CrossingEvent", "EigenvalueCurve", "MergedSpectrum", "NodalCount",
    "detect_crossings", "ndd_dnd_gap", "nodal_domains", "solve_full_spectrum",
    "sweep",
    "AsymptoticModel", "fit_coefficient", "model", "predict",
    "CapacityProblem", "CapacityResult", "additivity_ratio", "capacitary_potential",
    "specfun",
    "__version__",
]
