"""Single-particle traps and their orbital bases.

Units: hbar = m = 1.  For the harmonic trap with frequency omega the
natural length is 1/sqrt(omega) and energies are (n + 1/2) * omega.
Tabulated traps are solved by one sinc-DVR (Colbert-Miller) eigensolve on
the coarsest power-of-two subsample of the table that resolves both the
potential and the requested states; the orbitals are the sinc series of
the eigenvectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Sequence

import numpy as np

HARMONIC_INDEX_CAP = 200
# Sinc matrix entries per block of evaluation points.
SINC_BLOCK = 1 << 20
TABLE_TOL = 1e-8  # agreement of a table's interpolation and of its grid halving


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
        if not np.isfinite(margin):
            raise ValueError(f"margin must be finite, got {margin}")
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


def _checked(ns: Sequence[int], cap: int) -> list[int]:
    ns = list(ns)
    for n in ns:
        if not 0 <= n <= cap:
            raise ValueError(f"orbital index {n} outside range 0..{cap}")
    return ns


class HarmonicBasis:
    """Orbitals of the harmonic trap, evaluated by recurrence."""

    def __init__(self, omega: float = 1.0):
        if not 0 < omega < np.inf:
            raise ValueError(f"omega must be positive and finite, got {omega}")
        self.omega = float(omega)
        self.cap = HARMONIC_INDEX_CAP

    def energy(self, n: int) -> float:
        _checked([n], self.cap)
        return (n + 0.5) * self.omega

    def eval_many(self, ns: Sequence[int], x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Values and derivatives of the requested orbitals at all points.

        Returns arrays of shape (len(ns), *x.shape).
        """
        ns = _checked(ns, self.cap)
        x = np.asarray(x, dtype=float)
        s = np.sqrt(self.omega)
        u = s * x
        h = _hermite_ladder(u, max(ns))
        n = np.reshape(ns, (-1,) + (1,) * x.ndim)
        # h'_n(u) = sqrt(2n) h_{n-1}(u) - u h_n(u); chain rule brings one power of s.
        amp = s ** 0.5
        below = h[np.maximum(np.array(ns) - 1, 0)]
        return amp * h[ns], amp * s * (-u * h[ns] + np.sqrt(2.0 * n) * below)

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
    """Orbitals of a tabulated trap: sinc series of a sinc-DVR solve.

    Orbital n is sum_i vectors[i, n] sinc((x - grid[i]) / h), a smooth
    band-limited function with exact derivatives, set to zero outside the
    sampled window.  `companion` is the same solve on every other grid
    point (None on a companion itself); the change between the two bounds
    the discretization error of whatever the orbitals feed.
    """

    def __init__(self, trap: Trap, energies: np.ndarray, grid: np.ndarray, vectors: np.ndarray):
        self.trap = trap
        self.energies = energies
        self.cap = len(energies) - 1
        self.grid = grid
        self.companion: TabulatedBasis | None = None
        self._vectors = vectors

    def energy(self, n: int) -> float:
        return float(self.energies[_checked([n], self.cap)[0]])

    def eval_many(self, ns: Sequence[int], x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        coef = self._vectors[:, _checked(ns, self.cap)]
        x = np.asarray(x, dtype=float)
        flat = x.reshape(-1)
        out = np.zeros((2, flat.size, coef.shape[1]))
        inside = np.nonzero((flat >= self.trap.x[0]) & (flat <= self.trap.x[-1]))[0]
        h = self.grid[1] - self.grid[0]
        for at in np.array_split(inside, 1 + inside.size * len(self.grid) // SINC_BLOCK):
            d = (flat[at, None] - self.grid) / h
            sinc = np.sinc(d)
            # sinc'(d) = (cos(pi d) - sinc(d)) / d cancels near a node: use its series there.
            u2 = (np.pi * d) ** 2
            slope = np.where(np.abs(d) < 1e-2, -np.pi**2 * d / 3 * (1 - u2 / 10 + u2 * u2 / 280),
                             (np.cos(np.pi * d) - sinc) / np.where(d == 0, 1.0, d))
            out[:, at] = sinc @ coef, slope @ coef / h
        out = np.moveaxis(out, 2, 1).reshape((2, coef.shape[1]) + x.shape)
        return out[0], out[1]

    def decay_radius(self, ns: Sequence[int], eps: float = 1e-12) -> float:
        # Orbitals are identically zero outside the sampled window.
        return max(abs(self.trap.x[0]), abs(self.trap.x[-1]))


def _dvr(trap: Trap, stride: int, count: int) -> TabulatedBasis:
    """Lowest `count` Colbert-Miller sinc-DVR states on every stride-th table point.

    Kinetic matrix (hbar = m = 1): pi^2 / (6 h^2) on the diagonal and
    (-1)^(i-j) / (h^2 (i-j)^2) off it.
    """
    pot = trap.v[::stride]
    h = stride * (trap.x[-1] - trap.x[0]) / (len(trap.x) - 1)
    k = np.arange(1, len(pot))
    band = np.concatenate([[np.pi**2 / 6], (-1.0) ** k / k**2]) / h**2
    ham = band[np.abs(np.arange(len(pot))[:, None] - np.arange(len(pot)))]  # Toeplitz in |i - j|
    ham[np.diag_indices_from(ham)] += pot
    w, v = np.linalg.eigh(ham)
    w, v = w[:count], v[:, :count]
    # Sign convention as for the analytic harmonic orbitals: positive on
    # the last significant sample, i.e. in the right-hand tail.
    last = len(v) - 1 - np.argmax(np.abs(v[::-1]) > 1e-3 * np.abs(v).max(axis=0), axis=0)
    v *= np.sign(v[last, np.arange(count)]) / np.sqrt(h)
    return TabulatedBasis(trap, w, trap.x[0] + h * np.arange(len(pot)), v)


def _resolves(v: np.ndarray, stride: int, tol: float) -> bool:
    """Whether 8-point interpolation through every stride-th sample gives the rest within tol."""
    i = np.nonzero(np.arange(len(v)) % stride)[0]
    p = min(8, (len(v) - 1) // stride + 1)  # Lagrange stencil, shifted inward at the table ends
    base = np.clip(i // stride - p // 2 + 1, 0, (len(v) - 1) // stride + 1 - p)
    t = i / stride - base
    lagrange = [np.prod([(t - m) / (j - m) for m in range(p) if m != j], axis=0) for j in range(p)]
    fit = sum(v[(base + j) * stride] * lagrange[j] for j in range(p))
    return bool(np.all(np.abs(fit - v[i]) <= tol * np.maximum(1.0, v[i] - np.min(v))))


def solve_tabulated(trap: Trap, count: int) -> TabulatedBasis:
    """Solve a tabulated trap for its lowest `count` orbitals.

    One sinc-DVR eigensolve on the coarsest power-of-two subsample of the
    table that (a) reproduces every skipped sample by local 8-point
    interpolation and (b) gives the same energies as its every-other-point
    companion, both within TABLE_TOL (relative above an energy of 1).  The
    table's own grid is the last candidate; when it fails (b) too, the
    table does not resolve the states and a ConvergenceError is raised.
    """
    if not 1 <= count < len(trap.x[::2]) - 1:
        raise ValueError(f"count={count} outside 1..{len(trap.x[::2]) - 2} for a "
                         f"{len(trap.x)}-point grid")
    solve = cache(lambda s: _dvr(trap, s, count))
    stride = 1
    while len(trap.v[:: 4 * stride]) > count + 1:
        stride *= 2
    while stride >= 1:
        if _resolves(trap.v, stride, TABLE_TOL):
            fine, coarse = solve(stride), solve(2 * stride)
            shift = np.abs(fine.energies - coarse.energies)
            scale = np.maximum(1.0, fine.energies - np.min(trap.v))
            if np.all(shift <= TABLE_TOL * scale):
                break
        stride //= 2
    wall = min(trap.v[0], trap.v[-1])
    # States near or above the boundary walls are box states, not trap states.
    if fine.energies[-1] > wall - 0.5 * trap.margin:
        raise ValueError(f"state {count - 1} (energy {fine.energies[-1]:.6g}) lies within half a "
                         f"margin of the confining walls (min endpoint potential {wall:.6g}); "
                         "enlarge the sampled window or request fewer states")
    if stride < 1:
        bad = int(np.argmax(shift / scale))
        raise ConvergenceError(f"state {bad} not converged: its energy moved by {shift[bad]:.3e} "
                               f"between the table grid and every other point (tolerance "
                               f"{TABLE_TOL:.1e}); the sampled grid is too coarse for this state")
    fine.companion = coarse
    return fine
