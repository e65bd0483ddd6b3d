"""Single-particle traps and their orbital bases.

Units: hbar = m = 1.  For the harmonic trap with frequency omega the
natural length is 1/sqrt(omega) and energies are (n + 1/2) * omega.
Tabulated traps are solved on their own grid by finite differences with
Richardson extrapolation in the grid spacing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import eigh_tridiagonal

HARMONIC_INDEX_CAP = 200


class ConvergenceError(RuntimeError):
    """A discretized eigenvalue failed to settle under grid refinement."""


@dataclass(frozen=True)
class Trap:
    """A tabulated one-dimensional confining potential on a uniform grid.

    The harmonic trap needs no table: HarmonicBasis evaluates its
    orbitals analytically.
    """

    x: np.ndarray
    v: np.ndarray
    margin: float = 1.0

    @staticmethod
    def from_table(x: Sequence[float], v: Sequence[float], margin: float = 1.0) -> "Trap":
        xa = np.asarray(x, dtype=float)
        va = np.asarray(v, dtype=float)
        if xa.ndim != 1 or xa.shape != va.shape:
            raise ValueError("x and v must be one-dimensional and equally long")
        if xa.size < 16:
            raise ValueError(f"need at least 16 grid points, got {xa.size}")
        dx = np.diff(xa)
        if np.any(dx <= 0):
            raise ValueError("grid positions must be strictly increasing")
        if np.max(dx) - np.min(dx) > 1e-9 * np.max(dx):
            raise ValueError("grid must be uniform")
        vmin = float(np.min(va))
        # Confinement: the sampled window must close the well at both ends,
        # otherwise low states leak and the Dirichlet solve is meaningless.
        if va[0] < vmin + margin or va[-1] < vmin + margin:
            raise ValueError(
                "potential is not confining on the sampled window: endpoint values "
                f"({va[0]:.6g}, {va[-1]:.6g}) must exceed the minimum {vmin:.6g} "
                f"by at least margin={margin:.6g}"
            )
        return Trap(x=xa, v=va, margin=float(margin))

    @staticmethod
    def from_file(path: str, margin: float = 1.0) -> "Trap":
        """Load a two-column text table: position, potential.  '#' starts a comment."""
        data = np.loadtxt(path, comments="#", ndmin=2)
        if data.shape[1] != 2:
            raise ValueError(f"expected two columns in {path}, got {data.shape[1]}")
        return Trap.from_table(data[:, 0], data[:, 1], margin=margin)


def _hermite_ladder(u: np.ndarray, n_top: int) -> np.ndarray:
    """Normalized harmonic orbitals h_0..h_n_top at unit frequency, shape (n_top+1, *u.shape).

    Upward two-term recurrence; stable for n <= HARMONIC_INDEX_CAP at any
    argument where the orbital is not yet deep in its Gaussian tail.
    """
    out = np.empty((n_top + 1,) + u.shape, dtype=float)
    out[0] = np.pi ** -0.25 * np.exp(-0.5 * u * u)
    if n_top >= 1:
        out[1] = np.sqrt(2.0) * u * out[0]
    for n in range(1, n_top):
        out[n + 1] = np.sqrt(2.0 / (n + 1)) * u * out[n] - np.sqrt(n / (n + 1.0)) * out[n - 1]
    return out


class HarmonicBasis:
    """Orbitals of the harmonic trap, evaluated by recurrence."""

    def __init__(self, omega: float = 1.0):
        if omega <= 0:
            raise ValueError(f"omega must be positive, got {omega}")
        self.omega = float(omega)
        self.cap = HARMONIC_INDEX_CAP

    def energy(self, n: int) -> float:
        self._check_index(n)
        return (n + 0.5) * self.omega

    def _check_index(self, n: int) -> None:
        if not 0 <= n <= self.cap:
            raise ValueError(f"orbital index {n} outside supported range 0..{self.cap}")

    def eval_many(self, ns: Sequence[int], x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Values and derivatives of the requested orbitals at all points.

        Returns arrays of shape (len(ns), *x.shape).
        """
        ns = list(ns)
        for n in ns:
            self._check_index(n)
        x = np.asarray(x, dtype=float)
        s = np.sqrt(self.omega)
        u = s * x
        n_top = max(ns)
        h = _hermite_ladder(u, n_top)
        # h'_n(u) = sqrt(2n) h_{n-1}(u) - u h_n(u); chain rule brings one power of s.
        vals = np.empty((len(ns),) + x.shape, dtype=float)
        ders = np.empty_like(vals)
        amp = s ** 0.5
        for row, n in enumerate(ns):
            vals[row] = amp * h[n]
            hp = -u * h[n]
            if n >= 1:
                hp = hp + np.sqrt(2.0 * n) * h[n - 1]
            ders[row] = amp * s * hp
        return vals, ders

    def decay_radius(self, ns: Sequence[int], eps: float = 1e-12) -> float:
        """Radius beyond which every listed orbital is below eps in magnitude."""
        n_top = max(ns)
        turning = np.sqrt(2.0 * n_top + 1.0) / np.sqrt(self.omega)
        r = turning + 1.0
        step = 0.5 / np.sqrt(self.omega)
        while r < turning + 60.0:
            vals, ders = self.eval_many(list(ns), np.array([r]))
            if np.max(np.abs(vals)) < eps and np.max(np.abs(ders)) < eps:
                return r
            r += step
        raise RuntimeError("decay radius search did not terminate")


class TabulatedBasis:
    """Orbitals of a tabulated trap, interpolated from a finite-difference solve.

    Orbitals evaluate to zero outside the sampled window.
    """

    def __init__(self, trap: Trap, energies: np.ndarray, grid: np.ndarray, vectors: np.ndarray):
        self.trap = trap
        self.energies = energies
        self.cap = len(energies) - 1
        self._grid = grid
        self._lo = float(grid[0])
        self._hi = float(grid[-1])
        # scipy.interpolate is slow to load and only tabulated traps need it.
        from scipy.interpolate import CubicSpline

        self._splines = []
        for j in range(vectors.shape[1]):
            psi = vectors[:, j]
            spl = CubicSpline(grid, psi)
            self._splines.append((spl, spl.derivative()))

    def energy(self, n: int) -> float:
        self._check_index(n)
        return float(self.energies[n])

    def _check_index(self, n: int) -> None:
        if not 0 <= n <= self.cap:
            raise ValueError(f"orbital index {n} outside solved range 0..{self.cap}")

    def eval_many(self, ns: Sequence[int], x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ns = list(ns)
        for n in ns:
            self._check_index(n)
        x = np.asarray(x, dtype=float)
        inside = (x >= self._lo) & (x <= self._hi)
        xc = np.where(inside, x, self._lo)
        vals = np.zeros((len(ns),) + x.shape, dtype=float)
        ders = np.zeros_like(vals)
        for row, n in enumerate(ns):
            spl, dspl = self._splines[n]
            vals[row] = np.where(inside, spl(xc), 0.0)
            ders[row] = np.where(inside, dspl(xc), 0.0)
        return vals, ders

    def decay_radius(self, ns: Sequence[int], eps: float = 1e-12) -> float:
        # Orbitals are identically zero outside the sampled window.
        return max(abs(self._lo), abs(self._hi))


def _fd_energies(grid: np.ndarray, pot: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowest finite-difference eigenpairs on a uniform grid with Dirichlet ends."""
    h = grid[1] - grid[0]
    diag = 1.0 / h**2 + pot
    off = np.full(len(grid) - 1, -0.5 / h**2)
    w, v = eigh_tridiagonal(diag, off, select="i", select_range=(0, count - 1))
    return w, v


def _refine(grid: np.ndarray, pot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Halve the grid spacing, interpolating the potential with a cubic spline."""
    from scipy.interpolate import CubicSpline

    fine = np.linspace(grid[0], grid[-1], 2 * len(grid) - 1)
    return fine, CubicSpline(grid, pot)(fine)


def solve_tabulated(trap: Trap, count: int, tol: float = 1e-8) -> TabulatedBasis:
    """Solve a tabulated trap for its lowest `count` orbitals.

    Three-point finite differences on the sampled grid and two dyadic
    refinements; each pair is Richardson-extrapolated and the two
    extrapolants must agree within tol, otherwise the state is not
    resolved on this grid and a ConvergenceError is raised.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    g1, v1 = np.asarray(trap.x), np.asarray(trap.v)
    vmin = float(np.min(v1))
    wall = min(float(v1[0]), float(v1[-1]))
    g2, v2 = _refine(g1, v1)
    g4, v4 = _refine(g2, v2)
    if count >= len(g1) - 1:
        raise ValueError(f"count={count} is too large for a {len(g1)}-point grid")
    w1, _ = _fd_energies(g1, v1, count)
    w2, _ = _fd_energies(g2, v2, count)
    w4, vec4 = _fd_energies(g4, v4, count)
    # States near or above the boundary walls are box states, not trap states.
    margin = trap.margin
    if w4[-1] > wall - 0.5 * margin:
        raise ValueError(
            f"state {count - 1} (energy {w4[-1]:.6g}) lies within half a margin of the "
            f"confining walls (min endpoint potential {wall:.6g}); "
            "enlarge the sampled window or request fewer states"
        )
    r12 = (4.0 * w2 - w1) / 3.0
    r24 = (4.0 * w4 - w2) / 3.0
    shift = np.abs(r24 - r12)
    scale = np.maximum(1.0, np.abs(r24 - vmin))
    if np.any(shift > tol * scale):
        bad = int(np.argmax(shift / scale))
        raise ConvergenceError(
            f"state {bad} not converged: extrapolated eigenvalue moved by "
            f"{shift[bad]:.3e} between grid refinements (tolerance {tol:.1e}); "
            "the sampled grid is too coarse for this state"
        )
    h4 = g4[1] - g4[0]
    vec4 = vec4 / np.sqrt(h4)
    # Sign convention as for the analytic harmonic orbitals: positive on
    # the last significant sample, i.e. in the right-hand tail.
    for j in range(vec4.shape[1]):
        col = vec4[:, j]
        sig = np.nonzero(np.abs(col) > 1e-3 * np.max(np.abs(col)))[0]
        if col[sig[-1]] < 0:
            vec4[:, j] = -col
    return TabulatedBasis(trap, r24, g4, vec4)

