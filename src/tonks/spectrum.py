"""Strong-coupling spectra and the one-body densities of their adiabatic states.

Diagonalizing the weighted ordering Laplacian gives the slope
coefficients K_j of the large-coupling expansion

    E_j(g) = E_free - K_j / g + O(1/g^2),

one per admissible amplitude vector.  Every Laplacian, dense over the n!
orderings or a word Laplacian, takes one path, block by block, with NumPy
alone.  A word Laplacian from `projected_laplacian` splits into the
relabelling blocks of its graph, one eigensolve per irrep of the
relabelling group; any other Laplacian is one block, solved whole.  Each
block is diagonalized by LAPACK's divide-and-conquer eigensolver, which
copes well with the large degenerate groups of these graphs.

An amplitude vector a describes the adiabatic state that scales the
reference determinant sector by sector: Psi(x) = a_sigma(x) Psi_ref(x),
where sigma(x) is the ordering of the coordinates, numbered by the
lexicographic rank of the ordering graph.  The uniform vector leaves
the determinant untouched (slope zero); the alternating-sign vector
builds the node-free profile that tracks the bosonic branch.  One-body
densities are exact: each particle's density mixes the slot densities
of the reference state, which the ordered-overlap engine in `weights`
gives in closed form up to a one-dimensional quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.linalg import eigh

from .sectors import GraphLaplacian, SectorGraph, build_graph
from .slater import SlaterState
from .weights import slot_cdf

DEGENERACY_TOL = 1e-8  # eigenvalue gap, relative to the largest |entry| (>= 1), inside a group


@dataclass(frozen=True)
class KSpectrum:
    """Eigenvalues and eigenvectors of a weighted ordering Laplacian.

    values ascend; vectors holds the matching orthonormal columns;
    groups collects index tuples of states degenerate within tol.
    classify() fills labels (one per group) and retained (dimension of
    each group surviving the graph's component projection).
    """

    values: np.ndarray
    vectors: np.ndarray = field(repr=False)
    groups: tuple[tuple[int, ...], ...]
    tol: float
    labels: tuple[str, ...] | None = None
    retained: tuple[int, ...] | None = None

    @property
    def n_states(self) -> int:
        return len(self.values)


def solve(lap) -> KSpectrum:
    """Full spectrum of a (projected or full) ordering Laplacian.

    A word Laplacian takes one eigensolve per irrep of its relabelling group
    (`GraphLaplacian.blocks`), whose eigenvectors y become T_a y for each row
    a, one product of rho(.)[a, :] with y each, placed through the word table.
    Any other input, an array or anything with toarray(), is checked for
    squareness and symmetry and solved whole as the one block of the trivial
    group; it is left untouched.  The values are merged by a stable sort, and
    each vector's first largest-magnitude component is positive.
    """
    if isinstance(lap, GraphLaplacian):
        table = lap.graph.relabellings[0]
        spectra = [(rho, *eigh(b)) for rho, b in lap.blocks()]
        scale = max(1.0, float(lap.diagonal().max()))
    else:
        a = np.asarray(lap.toarray() if hasattr(lap, "toarray") else lap, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("laplacian must be square")
        i, j = np.nonzero(a)  # the entries that can differ from their mirror, read in order
        asym = float(np.abs(a[i, j] - a[j, i]).max(initial=0.0))
        scale = max(1.0, float(np.abs(a[i, j]).max(initial=0.0)))
        if asym > 1e-12 * scale:
            raise ValueError(f"laplacian is not symmetric (asymmetry {asym:.3e})")
        table, spectra = np.arange(len(a))[None], [(np.ones((1, 1, 1)), *eigh(a))]
    vals = np.concatenate([v for rho, v, _ in spectra for _ in range(rho.shape[1])])
    order = np.argsort(vals, kind="stable")
    rank = np.argsort(order)  # the inverse permutation
    vecs = np.empty((len(vals), len(vals)), order="F")
    at = np.argsort(table, axis=None) if len(table) > 1 else slice(None)  # word -> row (g, i)
    start = 0
    for rho, v, y in spectra:
        (size, d, _), k = rho.shape, len(v)
        y = y.reshape(k // d, d, k).transpose(1, 0, 2).reshape(d, k * k // d)  # [b, (i, c)]
        for row in range(d):
            z = (math.sqrt(d / size) * rho[:, row]) @ y if size > 1 else y  # T_a y
            vecs[:, rank[start:start + k]] = z.reshape(table.size, k)[at]
            start += k
    vecs += 0.0  # every zero +0.0, as the products T y leave it, on both paths
    _lead_positive(vecs)
    vals = vals[order]
    tol = DEGENERACY_TOL * scale
    ends = [*(np.flatnonzero(np.diff(vals) > tol) + 1).tolist(), len(vals)] if len(vals) else []
    groups = tuple(tuple(range(a, b)) for a, b in zip([0, *ends], ends))
    return KSpectrum(values=vals, vectors=vecs, groups=groups, tol=tol)


def _lead_positive(vecs: np.ndarray) -> None:
    """Negate in place each column whose first largest-magnitude entry is negative.

    That entry is the first maximum or the first minimum, whichever is
    larger in magnitude or, at a tie, comes first; no |vecs| is formed.
    """
    if not vecs.size:
        return
    cols = np.arange(vecs.shape[1])
    hi, lo = vecs.argmax(axis=0), vecs.argmin(axis=0)
    top, bottom = vecs[hi, cols], -vecs[lo, cols]
    np.negative(vecs, out=vecs, where=(bottom > top) | ((bottom == top) & (lo < hi)))


def classify(spectrum: KSpectrum, graph: SectorGraph) -> KSpectrum:
    """Label degenerate groups by exchange character.

    spectrum is that of the full Laplacian over all n! orderings.
    "uniform" marks the group holding the constant amplitude vector
    (the reference determinant itself, slope zero); "alternating" the
    sign-of-ordering vector (bosonic branch, maximal slope); all other
    groups are "mixed".  retained is |P V|^2 rounded, the exact rank of the
    projector P onto the graph's words on each group V (whole eigenspaces).
    """
    full = build_graph(graph.n)
    m = full.n_nodes
    if spectrum.vectors.shape[0] != m:
        raise ValueError("spectrum was not computed on this graph's full Laplacian")
    ones = np.full(m, 1.0 / math.sqrt(m))
    alt = full.signs / math.sqrt(m)
    # Each word is the image of the same number of orderings; grouping the
    # orderings by word makes the projection a reshape and a sum.
    sizes = graph.components.sizes
    letters = np.repeat(np.arange(len(sizes)), sizes)
    by_word = np.argsort(graph.index(letters[full.words]), kind="stable")
    orbit = m // graph.n_nodes
    labels = []
    retained = []
    for idx in spectrum.groups:
        v = spectrum.vectors[:, list(idx)]
        w_ones = float(np.linalg.norm(v.T @ ones))
        w_alt = float(np.linalg.norm(v.T @ alt))
        if w_ones > 1.0 - 1e-8:
            labels.append("uniform")
        elif w_alt > 1.0 - 1e-8:
            labels.append("alternating")
        else:
            labels.append("mixed")
        proj = v[by_word].reshape(graph.n_nodes, orbit, -1).sum(axis=1) / math.sqrt(orbit)
        retained.append(int(np.rint(np.sum(proj * proj))))
    return replace(spectrum, labels=tuple(labels), retained=tuple(retained))


def one_body_density(state: SlaterState, graph: SectorGraph, amplitudes,
                     grid) -> tuple[np.ndarray, np.ndarray]:
    """Exact one-body densities of an adiabatic state, averaged over the bins of an edge grid.

    amplitudes are indexed by the nodes of graph, the ordering graph of the
    state's particles, and rescaled so that the assembled state has unit
    norm (each sector carries 1/N! of the reference norm).  Returns
    (per-particle densities, total density), the total normalized to the
    particle number.  In the sector with ordering sigma particle i occupies
    slot sigma^-1(i), and every sector holds the same ordered distribution,
    so rho_i is the a_sigma^2-weighted mix of the exact slot densities from
    the ordered overlaps.
    """
    n = state.n
    if graph.n != n or graph.n_nodes != math.factorial(n):
        raise ValueError(f"need the ordering graph of {n} particles")
    a = np.asarray(amplitudes, dtype=float)
    if a.shape != (graph.n_nodes,):
        raise ValueError(f"need {graph.n_nodes} amplitudes for {n} particles, got shape {a.shape}")
    total = float(np.sum(a * a)) / graph.n_nodes
    if total <= 0:
        raise ValueError("amplitudes must not vanish identically")
    a = a / math.sqrt(total)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be an increasing array of bin edges")
    slots = np.diff(slot_cdf(state, grid), axis=1) / np.diff(grid)
    # mix[i, s]: weight of the sectors that put particle i in slot s.
    mix = np.zeros((n, n))
    np.add.at(mix, (graph.words, np.arange(n)), a[:, None] ** 2)
    per = mix @ slots / np.sum(a**2)
    return per, per.sum(axis=0)
