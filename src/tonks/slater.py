"""Free-fermion reference states built from trap orbitals.

The reference wavefunction for occupation (n_1 < ... < n_N) is the
normalized Slater determinant

    Psi(x_1..x_N) = det[ phi_{n_j}(x_i) ] / sqrt(N!)

with total energy the sum of the occupied orbital energies.  The package
never evaluates the determinant itself: the boundary weights and slot
distributions in `weights` integrate it exactly through the ordered
overlaps of the occupied orbitals.  Levels come from a best-first walk
over occupations, which assumes orbital energies that do not decrease.
"""

from __future__ import annotations

import heapq
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

    A heap keyed by (total energy, occupation) starts at (0, ..., n-1); each
    pop pushes its unseen lifts, one particle up one free orbital within
    basis.cap.  As orbital energies do not decrease, no lift costs less than
    its parent, so the pops come in ascending order and the level-th is the
    level.  The walk stops before the first pop past it by more than TIE_TOL;
    any other occupation within TIE_TOL makes the level degenerate, and the
    error names that whole shell.
    """
    if n < 1:
        raise ValueError("need at least one particle")
    if level < 0:
        raise ValueError("level must be non-negative")
    cap = basis.cap
    if n - 1 > cap:
        raise ValueError(f"{n} particles do not fit in a basis capped at index {cap}")
    ground = tuple(range(n))
    heap, seen, popped = [(sum(basis.energy(m) for m in ground), ground)], {ground}, []
    while heap and (len(popped) <= level or heap[0][0] - popped[level][0] <= TIE_TOL):
        popped.append(heapq.heappop(heap))
        occ = popped[-1][1]
        for i, m in enumerate(occ):
            lift = occ[:i] + (m + 1,) + occ[i + 1:]
            if m < cap and m + 1 not in occ and lift not in seen:
                seen.add(lift)
                heapq.heappush(heap, (sum(basis.energy(k) for k in lift), lift))
    if len(popped) <= level:
        raise ValueError(f"level {level} needs orbitals beyond the basis cap (index {cap})")
    e_sel, occ_sel = popped[level]
    shell = [occ for e, occ in popped if abs(e - e_sel) <= TIE_TOL]
    if len(shell) > 1:
        raise ValueError(
            f"level {level} is degenerate: occupations {', '.join(map(str, shell))} "
            f"share total energy {e_sel:.12g} within {TIE_TOL:g}"
        )
    return SlaterState(basis=basis, occupation=occ_sel, energy=float(e_sel))
