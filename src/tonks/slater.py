"""Free-fermion reference states built from trap orbitals.

The reference wavefunction for occupation (n_1 < ... < n_N) is the
normalized Slater determinant

    Psi(x_1..x_N) = det[ phi_{n_j}(x_i) ] / sqrt(N!)

with total energy the sum of the occupied orbital energies.  The package
never evaluates the determinant itself: the boundary weights and slot
distributions in `weights` integrate it exactly through the ordered
overlaps of the occupied orbitals.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

TIE_TOL = 1e-9  # total energies this close tie, and the level is not unique


@dataclass(frozen=True)
class SlaterState:
    """A filled set of trap orbitals: the occupation of one determinant and its energy."""

    basis: object = field(repr=False)
    occupation: tuple[int, ...]
    energy: float

    @property
    def n(self) -> int:
        return len(self.occupation)


def make_level(basis, n: int, level: int = 0) -> SlaterState:
    """The level-th excited free-fermion state of n particles in the trap.

    Occupations are ranked by total energy over a growing orbital pool;
    the pool is extended until no occupation involving an unexplored
    orbital could still undercut the requested level.  A tie at the
    requested level within TIE_TOL means the state is not unique and is
    rejected.
    """
    if n < 1:
        raise ValueError("need at least one particle")
    if level < 0:
        raise ValueError("level must be non-negative")
    cap = basis.cap
    if n - 1 > cap:
        raise ValueError(f"{n} particles do not fit in a basis capped at index {cap}")
    pool = min(cap, n + level)
    while True:
        energies = [basis.energy(m) for m in range(pool + 1)]
        ranked = sorted(
            (sum(energies[m] for m in occ), occ)
            for occ in itertools.combinations(range(pool + 1), n)
        )
        # Any occupation reaching past the pool costs at least floor_energy.
        floor_energy = sum(energies[: n - 1]) + basis.energy(pool + 1) if pool < cap else math.inf
        if len(ranked) > level + 1 and ranked[level + 1][0] < floor_energy - TIE_TOL:
            break
        if pool == cap:
            if len(ranked) <= level:
                raise ValueError(
                    f"level {level} needs orbitals beyond the basis cap (index {cap})"
                )
            break
        pool = min(cap, 2 * pool + 1)
    e_sel, occ_sel = ranked[level]
    neighbors = []
    if level > 0:
        neighbors.append(ranked[level - 1])
    if len(ranked) > level + 1:
        neighbors.append(ranked[level + 1])
    clashes = [occ for e, occ in neighbors if abs(e - e_sel) <= TIE_TOL]
    if math.isfinite(floor_energy) and floor_energy - e_sel <= TIE_TOL:
        clashes.append(tuple(range(n - 1)) + (pool + 1,))
    if clashes:
        listed = ", ".join(str(c) for c in [occ_sel, *clashes])
        raise ValueError(
            f"level {level} is degenerate: occupations {listed} share total energy "
            f"{e_sel:.12g} within {TIE_TOL:g}; pick a definite occupation by hand"
        )
    return SlaterState(basis=basis, occupation=occ_sel, energy=float(e_sel))
