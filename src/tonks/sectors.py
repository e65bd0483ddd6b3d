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
Laplacian maps into themselves, all d rows with the same block, read off
the slot swaps of the M orbit roots.  The N! orderings, one orbit of S_N,
split into the S_N irreps.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# Largest node count of any graph: the words of a composition, or the n!
# orderings of the full graph.  A graph of more than one orbit has at
# most 120 relabellings under the cap (five singletons and a pair, 2,520
# words).  A 2,520-word graph is built and its relabelling blocks solved
# in about 0.06 s on one BLAS thread of a 2-vCPU Xeon, against 2.7 s for one
# dense eigensolve; the 720 orderings of six particles are 11 irreps of S_6.
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
    letters per row (with all components singletons, the n! permutations);
    swaps[k] maps each node to its word with the letters of 0-based slots k
    and k+1 swapped (itself where they are equal), an involution and the
    graph's one adjacency: each swap of unequal letters is an edge of weight
    gamma_k; signs is (-1)^(inversions) of each word, which flips across
    every edge.  Each word's key is its letters as one raw-byte scalar
    (_keys).  relabellings, built on first use, holds the relabelling
    group's word table and Young matrices (_relabellings).
    """

    n: int
    components: ComponentSpec
    words: np.ndarray = field(repr=False)
    swaps: np.ndarray = field(repr=False)
    signs: np.ndarray = field(repr=False)

    @property
    def n_nodes(self) -> int:
        return len(self.words)

    @cached_property
    def relabellings(self) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        return _relabellings(self)

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

    Each slot-k swap is found by a binary search of the keys for the
    swapped word.  A ValueError refuses fewer than 2 particles, component
    sizes that do not sum to n, and more words than NODE_CAP, the only
    size limit.
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
    # row k of perm exchanges slots k and k+1; a word whose letters there are equal is its own swap
    perm = np.arange(n) + np.eye(n - 1, n, dtype=int) - np.eye(n - 1, n, 1, dtype=int)
    swaps = np.searchsorted(keys, _keys(words[:, perm]).T)
    inversions = sum(np.sum(words[:, i, None] > words[:, i + 1:], axis=1) for i in range(n - 1))
    return SectorGraph(n=n, components=comp, words=words, swaps=swaps,
                       signs=1 - 2 * (inversions % 2))


def _classes(sizes: tuple[int, ...]) -> list[list[int]]:
    """The letters of each component size shared by two or more components."""
    by_size = [[c for c, s in enumerate(sizes) if s == size] for size in sorted(set(sizes))]
    return [letters for letters in by_size if len(letters) > 1]


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


def _relabellings(graph: SectorGraph) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The word table of the relabelling group G, and rho(g) in each irrep's Young form.

    Word w = g.r_i of orbit i (r_i the orbit's word whose equal-size letters
    first appear in ascending order) is basis vector (i, g) of C^M x C[G].  G
    is enumerated as letter maps by a breadth-first walk from the identity
    (element 0) over the exchanges t of neighbouring equal-size components,
    with rho(t g) = rho(t) rho(g), one Kronecker factor per class of them.
    Returns table[g, i], the node of g.r_i, and per irrep in a fixed order
    the |G| x d x d matrices rho(g).
    """
    words, kappa, classes = graph.words, len(graph.components.sizes), _classes(graph.components.sizes)
    first = np.stack([np.argmax(words == c, axis=1) for c in range(kappa)], axis=1)
    root = np.ones(graph.n_nodes, dtype=bool)
    for letters in classes:
        root &= np.all(np.diff(first[:, letters], axis=1) > 0, axis=1)
    roots, maps = words[root], np.arange(kappa)[None]
    swaps = [np.where(maps[0] == a, b, np.where(maps[0] == b, a, maps[0]))
             for letters in classes for a, b in zip(letters, letters[1:])]
    walk, frontier = [], np.arange(1)  # walk: (exchange, first element it reaches, their parents)
    seen = np.arange(graph.n_nodes) == graph.index(roots[0])  # the words g.r_0 reached
    while frontier.size:
        start = len(maps)
        for j, t in enumerate(swaps):
            reached = t[maps[frontier]]
            nb = graph.index(reached[:, roots[0]])
            new = ~seen[nb]
            seen[nb[new]] = True
            walk.append((j, len(maps), frontier[new]))
            maps = np.concatenate([maps, reached[new]])
        frontier = np.arange(start, len(maps))
    young = []
    for shapes in itertools.product(*(_partitions(len(letters)) for letters in classes)):
        gens = [_young_generators(shape) for shape in shapes]
        dims = [len(g[0]) for g in gens]
        mats = [np.kron(np.kron(np.eye(math.prod(dims[:c])), gen), np.eye(math.prod(dims[c + 1:])))
                for c, g in enumerate(gens) for gen in g]
        d = math.prod(dims)
        rho = np.empty((len(maps), d, d))
        rho[0] = np.eye(d)
        for j, lo, parents in walk:
            rho[lo:lo + len(parents)] = mats[j] @ rho[parents]
        young.append(rho)
    return graph.index(maps[:, roots]), tuple(young)


def _weight_array(graph: SectorGraph, gammas) -> np.ndarray:
    """The N - 1 boundary weights gamma_1..gamma_(N-1), a sequence of floats,
    as a new array indexed by 0-based slot."""
    arr = np.array(gammas, dtype=float)
    if arr.shape != (graph.n - 1,):
        raise ValueError(f"need {graph.n - 1} boundary weights, got shape {arr.shape}")
    if np.any(arr < 0):
        raise ValueError("boundary weights must be non-negative")
    return arr


class GraphLaplacian:
    """The word Laplacian L = sum_k gamma_k (I - P_k), P_k the slot-k swap graph.swaps[k].

    It keeps its graph and weights, not a matrix: `@` (1-D and 2-D), `sum`,
    `diagonal` and `toarray` act through the swaps, and `blocks` assembles
    the relabelling blocks at the orbit roots.
    """

    def __init__(self, graph: SectorGraph, weights: np.ndarray):
        self.graph, self.weights = graph, weights
        self.shape = (graph.n_nodes, graph.n_nodes)

    def __matmul__(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        return sum((w * (y - y[p]) for w, p in zip(self.weights, self.graph.swaps)),
                   np.zeros(y.shape))

    def diagonal(self) -> np.ndarray:
        """Each word's degree, gamma_k added slot by slot where its letters differ."""
        node = np.arange(self.shape[0])
        return sum((np.where(p != node, w, 0.0) for w, p in zip(self.weights, self.graph.swaps)),
                   np.zeros(self.shape[0]))

    def sum(self, axis=None):
        """Entry sums of each row, equal to those of each column, or of all for axis None."""
        rows, node = self.diagonal(), np.arange(self.shape[0])
        for w, p in zip(self.weights, self.graph.swaps):
            rows = rows - np.where(p != node, w, 0.0)
        return rows if axis is not None else float(rows.sum())

    def toarray(self) -> np.ndarray:
        """The dense matrix: -gamma_k at each slot-k swap of unequal letters (+0.0 if zero),
        the degrees on the diagonal, which overwrite the swaps of equal letters."""
        out, node = np.zeros(self.shape), np.arange(self.shape[0])
        for w, p in zip(self.weights, self.graph.swaps):
            out[node, p] = 0.0 - w
        out.flat[::len(out) + 1] = self.diagonal()
        return out

    def blocks(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per irrep of the relabelling group, its matrices rho(g) and the dense T_a^T L T_a.

        Column (i, b) of T_a, for row a of rho, is sqrt(d / |G|) rho(g)[a, b]
        at the words g.r_i.  With the slot-k swap of root r_i equal to
        h_ik.r_j, Schur orthogonality gives every row the block
        sum_k gamma_k (I - sum_i E_(i,j) (x) rho(h_ik)), whose identity part is
        the roots' degrees; for the N! orderings, sum_k gamma_k (1 - rho(s_k)).
        """
        table, young = self.graph.relabellings
        elem, orbit = np.unravel_index(np.argsort(table, axis=None), table.shape)
        roots, m, out = table[0], table.shape[1], []
        for rho in young:
            d = rho.shape[1]
            b = np.zeros((m, d, m, d))
            for w, p in zip(self.weights, self.graph.swaps):
                i = np.flatnonzero(p[roots] != roots)  # the roots whose slot-k letters differ
                b[i, :, orbit[p[roots[i]]], :] -= w * rho[elem[p[roots[i]]]]
            b = b.reshape(m * d, m * d)
            b.flat[::m * d + 1] += np.repeat(self.diagonal()[roots], d)
            out.append((rho, b))
        return out


def projected_laplacian(graph: SectorGraph, gammas) -> GraphLaplacian:
    """Weighted Laplacian on the graph's component words.

    This is the full ordering Laplacian restricted to relabeling-invariant
    amplitudes, in the basis of normalized word indicators.  It carries the
    graph, whose relabelling blocks solve diagonalizes one by one.
    """
    return GraphLaplacian(graph, _weight_array(graph, gammas))


def laplacian(graph: SectorGraph, gammas) -> np.ndarray:
    """Dense weighted Laplacian over all n! orderings of the graph's particles: the
    unsplit reference, one n! x n! solve; projected_laplacian splits by S_n irrep."""
    return projected_laplacian(build_graph(graph.n), gammas).toarray()


def cycle_ordering(graph: SectorGraph) -> np.ndarray:
    """Hexagon tour of the 6 orderings of three particles: their node indices in cycle order.

    Starts at the ordering (2,1,3) (1-based particle labels) and walks
    the six sectors by alternating the upper (k=2) and lower (k=1)
    boundary swaps.
    """
    if graph.components.sizes != (1, 1, 1):
        raise ValueError("the cycle ordering is defined on the 6 orderings of three particles only")
    return graph.index([[1, 0, 2], [1, 2, 0], [2, 1, 0], [2, 0, 1], [0, 2, 1], [0, 1, 2]])

