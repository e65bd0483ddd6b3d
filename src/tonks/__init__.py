"""Strong-coupling spectra of one-dimensional trapped fermions with zero-range repulsion.

At infinite repulsion the gas fermionizes: every spatial ordering of the
particles carries the same free-fermion profile and the spectrum collapses
onto the free Fermi energy.  At large but finite coupling g the degeneracy
is lifted linearly in 1/g.  This package computes the lifted spectrum

    E_j(g) = E_F - K_j / g + O(1/g^2)

by assembling a graph over the N! spatial orderings, weighting each
adjacent-transposition edge with a boundary integral of the free-fermion
wavefunction, and diagonalizing the resulting graph Laplacian.  A
finite-coupling exact-diagonalization oracle is included for validation.
"""

from .traps import Trap, HarmonicBasis, TabulatedBasis, solve_tabulated
from .slater import SlaterState, make_level
from .weights import BoundaryWeight, ToleranceError, gamma, all_gammas
from .sectors import ComponentSpec, SectorGraph, build_graph, laplacian, projected_laplacian
from .spectrum import KSpectrum, EnergyExpansion, SectorWavefunction, solve, classify, expansion
from .oracle import EDConfig, EDResult, SlopeFit, delta_tensor, diagonalize, slope_fit, two_body_reference

__version__ = "0.1.0"

__all__ = [
    "Trap",
    "HarmonicBasis",
    "TabulatedBasis",
    "solve_tabulated",
    "SlaterState",
    "make_level",
    "BoundaryWeight",
    "ToleranceError",
    "gamma",
    "all_gammas",
    "ComponentSpec",
    "SectorGraph",
    "build_graph",
    "laplacian",
    "projected_laplacian",
    "KSpectrum",
    "EnergyExpansion",
    "SectorWavefunction",
    "solve",
    "classify",
    "expansion",
    "EDConfig",
    "EDResult",
    "SlopeFit",
    "delta_tensor",
    "diagonalize",
    "slope_fit",
    "two_body_reference",
]
