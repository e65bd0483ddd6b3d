"""The graph of spatial orderings and its weighted Laplacian.

An ordering sigma reads "slot s of the ordered configuration
x_(1) < ... < x_(N) holds particle sigma_s".  Two orderings are
adjacent when they differ by swapping the particles in neighbouring
slots (k, k+1); that edge carries the boundary weight gamma_k.
Strong-coupling amplitudes live on the orderings: an adiabatic state is
a_sigma times the reference determinant in sector sigma, and its energy
slope K is an eigenvalue of the graph Laplacian.

Exchange statistics enter through a component assignment: particles of
the same component are identical fermions, and admissible amplitude
vectors are invariant under relabeling them.  (In this amplitude
convention the reference determinant already carries the full
antisymmetry; the uniform vector reproduces it identically.)  Such a
vector depends only on the component word c(sigma_1)...c(sigma_N), and
every word is reached by the same number prod_c n_c! of orderings, so
the Laplacian restricted to invariant vectors is the weighted Laplacian
on words: -gamma_k between two words that differ by swapping unequal
letters in slots k and k+1.  This is the spin-chain Hamiltonian
sum_k gamma_k (1 - P_{k,k+1}).  The graph is built on words throughout;
with every particle its own component the words are the N! orderings.

Relabelling components of equal size permutes the words and commutes with
every slot swap, so it commutes with the Laplacian for any weights.  The
relabellings form the group G = prod_s S_(m_s), m_s the number of
components of size s, which acts freely on the words: the word space is
C^M (M = words / |G| orbits) times the regular representation of G.  In
Young's orthogonal form rho (Okounkov & Vershik, Selecta Math. 2, 581 (1996))
each row of rho(g) for an irrep of dimension d spans M * d vectors that the
Laplacian maps into themselves, all d rows with the same block.  The N!
orderings are one orbit of G = S_N, and split into the S_N irreps.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.sparse import csr_array

# Largest node count of any graph: the words of a composition, or the n!
# orderings of the full graph.  A graph of more than one orbit has at
# most 120 relabellings under the cap (five singletons and a pair, 2,520
# words).  The relabelling blocks of a 2,520-word graph solve in about
# 0.2 s on one BLAS thread of a 2-vCPU Xeon, against 2.5 s for one dense
# eigensolve; the 720 orderings of six particles are 11 irreps of S_6.
NODE_CAP = 2520


@dataclass(frozen=True)
class ComponentSpec:
    """Partition of the particles into components of identical fermions.

    Particles are numbered 0..N-1; component c owns the consecutive
    block of sizes[c] labels.
    """

    sizes: tuple[int, ...]

    def __post_init__(self):
        if not self.sizes or any(s < 1 for s in self.sizes):
            raise ValueError(f"component sizes must be positive, got {self.sizes}")

    @staticmethod
    def distinguishable(n: int) -> "ComponentSpec":
        return ComponentSpec(sizes=(1,) * n)

    @staticmethod
    def identical(n: int) -> "ComponentSpec":
        return ComponentSpec(sizes=(n,))

    @staticmethod
    def parse(text: str) -> "ComponentSpec":
        try:
            sizes = tuple(int(p) for p in text.replace(" ", "").split(","))
        except ValueError as exc:
            raise ValueError(f"cannot parse component sizes from {text!r}") from exc
        return ComponentSpec(sizes=sizes)

    @property
    def n(self) -> int:
        return sum(self.sizes)

    @property
    def n_words(self) -> int:
        """Number of distinct component words, n! / prod_c n_c!."""
        return math.factorial(self.n) // math.prod(math.factorial(s) for s in self.sizes)


@dataclass(frozen=True)
class SectorGraph:
    """Ordering graph on the component words of n particles.

    words lists the nodes in lexicographic order, one word of component
    letters per row (with all components singletons, the n!
    permutations); edges rows are (node u, node v, 0-based slot), u < v,
    for each swap of unequal letters in neighbouring slots; signs is
    (-1)^(inversions) of each word, which flips across every edge.
    Each word's key is its letters as one raw-byte scalar (_keys).  blocks,
    built on first use, holds one group per irrep of the relabelling group: d sparse
    isometries (words x M * d), one per row of the irrep's Young orthogonal
    form, whose widths sum to the node count over all groups.
    """

    n: int
    components: ComponentSpec
    words: np.ndarray = field(repr=False)
    edges: np.ndarray = field(repr=False)
    signs: np.ndarray = field(repr=False)

    @property
    def n_nodes(self) -> int:
        return len(self.words)

    @cached_property
    def blocks(self) -> tuple[tuple[csr_array, ...], ...]:
        return _relabelling_blocks(self)

    def index(self, words) -> np.ndarray:
        """Node index of each word along the last axis, by lexicographic rank."""
        words = np.asarray(words)
        kappa = len(self.components.sizes)
        # Checked before the int8 keys, in which an out-of-range letter would wrap.
        if words.shape[-1:] != (self.n,) or np.any((words < 0) | (words >= kappa)):
            raise KeyError(f"not a word of this graph: {words}")
        idx = np.minimum(np.searchsorted(_keys(self.words), _keys(words)), self.n_nodes - 1)
        if np.any(self.words[idx] != words):
            raise KeyError(f"not a word of this graph: {words}")
        return idx


def _keys(words) -> np.ndarray:
    """Each word's int8 letters, none negative, as one void scalar, which sorts as the word does."""
    words = np.ascontiguousarray(words, dtype=np.int8)
    return words.view(f"V{words.shape[-1]}")[..., 0]


def _arrangements(sizes: tuple[int, ...]) -> np.ndarray:
    """Every word with sizes[c] copies of letter c, one per row, in lexicographic order."""
    words = np.zeros((1, 0), dtype=np.int8)
    left = np.array([sizes])
    for _ in range(sum(sizes)):
        # Row-major nonzero: prefixes in order, then letters ascending.
        parent, letter = np.nonzero(left)
        words = np.column_stack([words[parent], letter.astype(np.int8)])
        left = left[parent]
        left[np.arange(len(parent)), letter] -= 1
    return words


def build_graph(n: int, components: ComponentSpec | None = None) -> SectorGraph:
    """Generate the word graph for n particles (distinguishable by default).

    Each slot-k neighbour is found by a binary search of the keys for the
    swapped word.  NODE_CAP on the node count is the only size limit.
    """
    if n < 2:
        raise ValueError("the ordering graph needs at least 2 particles")
    comp = components or ComponentSpec.distinguishable(n)
    if comp.n != n:
        raise ValueError(f"component sizes {comp.sizes} sum to {comp.n}, expected {n}")
    if comp.n_words > NODE_CAP:
        raise ValueError(
            f"components {comp.sizes} give {comp.n_words} words, "
            f"above the graph cap of {NODE_CAP} nodes"
        )
    words = _arrangements(comp.sizes)
    keys = _keys(words)
    edges = []
    for k in range(n - 1):
        # Swapping a < b raises the word, so each edge is listed once, from u < v.
        u = np.flatnonzero(words[:, k] < words[:, k + 1])
        swapped = words[u]
        swapped[:, [k, k + 1]] = swapped[:, [k + 1, k]]
        v = np.searchsorted(keys, _keys(swapped))
        edges.append(np.column_stack([u, v, np.full(len(u), k)]))
    inversions = sum(np.sum(words[:, i, None] > words[:, i + 1:], axis=1) for i in range(n - 1))
    return SectorGraph(n=n, components=comp, words=words, edges=np.concatenate(edges),
                       signs=1 - 2 * (inversions % 2))


def _classes(sizes: tuple[int, ...]) -> list[list[int]]:
    """The letters of each component size shared by two or more components."""
    by_size = [[c for c, s in enumerate(sizes) if s == size] for size in sorted(set(sizes))]
    return [letters for letters in by_size if len(letters) > 1]


def _swap(kappa: int, a: int, b: int) -> np.ndarray:
    """Letter map exchanging components a and b."""
    t = np.arange(kappa)
    t[[a, b]] = b, a
    return t


def _partitions(m: int, top: int | None = None) -> list[tuple[int, ...]]:
    """Partitions of m with parts at most top, largest part first."""
    top = m if top is None else top
    if m == 0:
        return [()]
    return [(p, *rest) for p in range(min(m, top), 0, -1) for rest in _partitions(m - p, p)]


def _young_generators(shape: tuple[int, ...]) -> list[np.ndarray]:
    """Young's orthogonal form of the adjacent transpositions s_1..s_(m-1) on a shape of m boxes.

    A standard tableau lists the row of each entry 1..m.  rho(s_k) has 1/a on
    the diagonal, a = c(k+1) - c(k) the axial distance (content c = column -
    row), and sqrt(1 - 1/a^2) between the two tableaux that swap k and k+1.
    """
    tableaux = [()]
    for _ in range(sum(shape)):
        tableaux = [t + (r,) for t in tableaux for r in range(len(shape))
                    if t.count(r) < shape[r] and (r == 0 or t.count(r - 1) > t.count(r))]
    index = {t: i for i, t in enumerate(tableaux)}
    content = np.array([[t[:j].count(r) - r for j, r in enumerate(t)] for t in tableaux])
    gens = []
    for k in range(sum(shape) - 1):
        a = content[:, k + 1] - content[:, k]
        rho = np.diag(1.0 / a)
        for i in np.flatnonzero(abs(a) > 1):
            t = tableaux[i]
            rho[i, index[t[:k] + (t[k + 1], t[k]) + t[k + 2:]]] = math.sqrt(1.0 - 1.0 / a[i] ** 2)
        gens.append(rho)
    return gens


def _relabelling_blocks(graph: SectorGraph) -> tuple[tuple[csr_array, ...], ...]:
    """Sparse isometries onto the relabelling blocks, grouped per irrep of G.

    Word w = g.r_i of orbit i (r_i the orbit's word whose equal-size letters
    first appear in ascending order) is basis vector (i, g) of C^M x C[G], and
    a relabelling h acts as g -> h g.  rho(g) for each word is the product of
    the generators' Young matrices along a breadth-first walk from its root,
    one Kronecker factor per class of equal-size components.  For an irrep
    of dimension d and each row a of rho, the columns (i, b) with entries
    sqrt(d / |G|) rho(g)[a, b] are orthonormal (Schur orthogonality) and span
    a space that the Laplacian, which commutes with h, maps into itself; the
    d isometries give the same T_a^T L T_a.
    """
    words, sizes = graph.words, graph.components.sizes
    kappa, n_words = len(sizes), graph.n_nodes
    classes = _classes(sizes)
    first = np.stack([np.argmax(words == c, axis=1) for c in range(kappa)], axis=1)
    root = np.ones(n_words, dtype=bool)
    for letters in classes:
        root &= np.all(np.diff(first[:, letters], axis=1) > 0, axis=1)
    orbit = np.where(root, np.cumsum(root) - 1, -1)
    swaps = [_swap(kappa, a, b) for letters in classes for a, b in zip(letters, letters[1:])]
    walk = []  # (generator, words reached, their parents) in breadth-first order
    frontier = np.flatnonzero(root)
    while frontier.size:
        unseen = orbit < 0
        for j, t in enumerate(swaps):
            nb = graph.index(t[words[frontier]])
            new = orbit[nb] < 0
            orbit[nb[new]] = orbit[frontier[new]]
            walk.append((j, nb[new], frontier[new]))
        frontier = np.flatnonzero(unseen & (orbit >= 0))
    m = int(root.sum())
    blocks = []
    for shapes in itertools.product(*(_partitions(len(letters)) for letters in classes)):
        young = [_young_generators(shape) for shape in shapes]
        dims = [len(gens[0]) for gens in young]
        mats = [np.kron(np.kron(np.eye(math.prod(dims[:c])), gen), np.eye(math.prod(dims[c + 1:])))
                for c, gens in enumerate(young) for gen in gens]
        d = math.prod(dims)
        rho = np.empty((n_words, d, d))
        rho[root] = np.eye(d)
        for j, reached, parent in walk:
            rho[reached] = mats[j] @ rho[parent]
        rho *= math.sqrt(d * m / n_words)
        cols = (orbit[:, None] * d + np.arange(d)).ravel()
        indptr = np.arange(0, n_words * d + 1, d)
        blocks.append(tuple(csr_array((rho[:, a].ravel(), cols, indptr), shape=(n_words, m * d))
                            for a in range(d)))
    return tuple(blocks)


def _weight_array(graph: SectorGraph, gammas) -> np.ndarray:
    """The N - 1 boundary weights gamma_1..gamma_(N-1), a sequence of floats,
    as a new array indexed by 0-based slot."""
    arr = np.array(gammas, dtype=float)
    if arr.shape != (graph.n - 1,):
        raise ValueError(f"need {graph.n - 1} boundary weights, got shape {arr.shape}")
    if np.any(arr < 0):
        raise ValueError("boundary weights must be non-negative")
    return arr


def _weighted_degrees(graph: SectorGraph, w: np.ndarray) -> np.ndarray:
    """Each word's degree: gamma_k added slot by slot wherever neighbouring letters differ.

    Relabelled words differ at the same slots, so they get bit-identical
    degrees, and each of the n! orderings gets the weights summed in slot order.
    """
    words = graph.words
    deg = np.zeros(graph.n_nodes)
    for k in range(graph.n - 1):
        deg += np.where(words[:, k] != words[:, k + 1], w[k], 0.0)
    return deg


class GraphLaplacian(csr_array):
    """Sparse word Laplacian that keeps its graph, so that solve can use its blocks.

    Arrays that scipy derives from it are built without the graph.
    """

    graph: SectorGraph | None = None

    def blocks(self) -> tuple[tuple[csr_array, ...], ...]:
        """The graph's relabelling blocks per irrep, or () (one block) when the matrix
        does not commute exactly with the relabellings, as after an in-place edit."""
        graph = self.graph
        if graph is None:
            return ()
        kappa = len(graph.components.sizes)
        coo = self.tocoo()
        for letters in _classes(graph.components.sizes):
            for a, b in zip(letters, letters[1:]):
                p = graph.index(_swap(kappa, a, b)[graph.words])
                moved = csr_array((coo.data, (p[coo.row], p[coo.col])), shape=self.shape)
                if (moved != self).nnz:
                    return ()
        return graph.blocks


def projected_laplacian(graph: SectorGraph, gammas) -> GraphLaplacian:
    """Sparse weighted Laplacian on the graph's component words.

    This is the full ordering Laplacian restricted to relabeling-invariant
    amplitudes, in the basis of normalized word indicators.  It carries the
    graph, whose relabelling blocks solve diagonalizes one by one.
    """
    w = _weight_array(graph, gammas)
    u, v, s = graph.edges.T
    diag = np.arange(graph.n_nodes)
    rows = np.concatenate([u, v, diag])
    cols = np.concatenate([v, u, diag])
    vals = np.concatenate([-w[s], -w[s], _weighted_degrees(graph, w)])
    lap = GraphLaplacian((vals, (rows, cols)), shape=(graph.n_nodes,) * 2)
    lap.graph = graph
    return lap


def laplacian(graph: SectorGraph, gammas) -> np.ndarray:
    """Dense weighted Laplacian over all n! orderings of the graph's particles: the
    unsplit reference, one n! x n! solve; projected_laplacian splits by S_n irrep."""
    return projected_laplacian(build_graph(graph.n), gammas).toarray()


def trace_identity_gap(graph: SectorGraph, gammas) -> float:
    """Relative gap between the Laplacian trace and n! * sum of weights.

    Reads the trace from the edge list, twice the sum of the edge weights,
    so the edges of every ordering must cover each boundary exactly once.
    """
    full = build_graph(graph.n)
    w = _weight_array(full, gammas)
    expected = full.n_nodes * float(np.sum(w))
    total = 2.0 * float(w[full.edges[:, 2]].sum())
    return abs(total - expected) / max(abs(expected), 1.0)


def cycle_ordering(graph: SectorGraph) -> np.ndarray:
    """Hexagon tour for n=3: indices among the 6 orderings in cycle order.

    Starts at the ordering (2,1,3) (1-based particle labels) and walks
    the six sectors by alternating the upper (k=2) and lower (k=1)
    boundary swaps.
    """
    if graph.n != 3:
        raise ValueError("the cycle ordering is defined for n=3 only")
    cur = [1, 0, 2]
    tour = [cur]
    slot = 1
    for _ in range(5):
        cur = list(cur)
        cur[slot], cur[slot + 1] = cur[slot + 1], cur[slot]
        tour.append(cur)
        slot = 1 - slot
    return build_graph(3).index(tour)

