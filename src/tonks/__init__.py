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

The public names, and the submodules, resolve on first use (PEP 562):
`import tonks` loads no submodule, and every module imports NumPy alone:
no command loads SciPy.  Each access reads the name from its defining
module, so a patched or wrapped `tonks.spectrum.solve` is what `tonks.solve` gives.
"""

import importlib

__version__ = "0.1.0"

_PUBLIC = {
    "traps": ("Trap", "HarmonicBasis", "TabulatedBasis", "solve_tabulated"),
    "slater": ("SlaterState", "make_level"),
    "weights": ("BoundaryWeight", "ToleranceError", "all_gammas"),
    "sectors": ("ComponentSpec", "SectorGraph", "build_graph", "laplacian", "projected_laplacian"),
    "spectrum": ("KSpectrum", "solve", "classify", "one_body_density"),
    "oracle": ("EDConfig", "EDResult", "diagonalize"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _PUBLIC:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_PUBLIC, *__all__})
