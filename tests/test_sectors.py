"""Ordering-sector graph: structure, Laplacians, symmetry projection."""

import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_array

from reference import trace_identity_gap, word_laplacian
from tonks.sectors import (
    NODE_CAP,
    ComponentSpec,
    _keys,
    build_graph,
    cycle_ordering,
    laplacian,
    projected_laplacian,
)

GAMMA_3 = 27.0 / (8.0 * math.sqrt(2.0 * math.pi))


def test_component_spec_factories():
    assert ComponentSpec.distinguishable(3).sizes == (1, 1, 1)
    assert ComponentSpec.identical(4).sizes == (4,)
    assert ComponentSpec.parse("2, 1").sizes == (2, 1)
    with pytest.raises(ValueError):
        ComponentSpec(sizes=(2, 0))
    with pytest.raises(ValueError):
        ComponentSpec.parse("2;1")


def _edges_per_slot(g) -> np.ndarray:
    """Check that each slot-k swap is an involution that exchanges the letters of slots k and
    k + 1 and keeps the others; return the number of edges (swaps of unequal letters) per slot."""
    node = np.arange(g.n_nodes)
    assert g.swaps.shape == (g.n - 1, g.n_nodes)
    for k, p in enumerate(g.swaps):
        np.testing.assert_array_equal(p[p], node)
        swapped = g.words.copy()
        swapped[:, [k, k + 1]] = swapped[:, [k + 1, k]]
        np.testing.assert_array_equal(g.words[p], swapped)
        # a word stays put exactly where its two letters are equal
        np.testing.assert_array_equal(p == node, g.words[:, k] == g.words[:, k + 1])
    moved = np.count_nonzero(g.swaps != node, axis=1)
    assert np.all(moved % 2 == 0)
    return moved // 2


def test_hexagon_structure():
    g = build_graph(3)
    assert g.n_nodes == 6
    assert g.words.tolist() == [list(p) for p in itertools.permutations(range(3))]
    assert _edges_per_slot(g).tolist() == [3, 3]
    # every node meets exactly two swaps: the graph is a single hexagon
    assert np.all(np.count_nonzero(g.swaps != np.arange(6), axis=0) == 2)


def test_edge_count_four_particles():
    g = build_graph(4)
    assert g.n_nodes == 24
    per_slot = _edges_per_slot(g)
    assert per_slot.tolist() == [12, 12, 12]
    assert per_slot.sum() == 24 * 3 // 2


def test_particle_cap():
    with pytest.raises(ValueError):
        build_graph(9)
    # the cap counts words, not particles
    assert build_graph(8, ComponentSpec((2, 2, 2, 2))).n_nodes == NODE_CAP
    with pytest.raises(ValueError, match="34650 words"):
        build_graph(12, ComponentSpec((4, 4, 4)))
    # few words of many letters: each word is keyed by its letters, whatever their count
    g = build_graph(70, ComponentSpec((68, 2)))
    assert g.n_nodes == math.comb(70, 2) == 2415
    np.testing.assert_array_equal(g.index(g.words), np.arange(2415))


def test_two_component_twelve_particles():
    g = build_graph(12, ComponentSpec((6, 6)))
    assert g.n_nodes == math.comb(12, 6) == 924
    # each slot joins the words with 0 then 1 there to their swaps
    assert _edges_per_slot(g).tolist() == [math.comb(10, 5)] * 11
    # strictly ascending keys: sorted and distinct
    keys = _keys(g.words)
    assert np.array_equal(np.unique(keys), keys)
    np.testing.assert_array_equal(g.index(g.words), np.arange(924))


def test_index_lookup():
    g = build_graph(4)
    for i, p in enumerate(g.words):
        assert g.index(p) == i
    with pytest.raises(KeyError):
        g.index((0, 1, 2, 2))
    # letters outside 0..3, which wrap in int8 (256 to 0, -1 to 255)
    for word in [(256, 1, 2, 3), (-1, 1, 2, 3), (0, 1, 2, 4)]:
        with pytest.raises(KeyError):
            g.index(word)


def test_signs_alternate_across_edges():
    # every swap of unequal letters flips the sign, for orderings and component words alike
    for sizes in ((1, 1, 1, 1), (2, 2, 1), (3, 2)):
        g = build_graph(sum(sizes), ComponentSpec(sizes))
        node = np.arange(g.n_nodes)
        for p in g.swaps:
            moved = p != node
            assert np.all(g.signs[moved] == -g.signs[p[moved]])


def test_laplacian_invariants():
    g = build_graph(4)
    rng = np.random.default_rng(11)
    w = rng.uniform(0.5, 2.0, size=3)
    lap = laplacian(g, w)
    np.testing.assert_allclose(lap, lap.T, atol=1e-14)
    np.testing.assert_allclose(lap.sum(axis=1), 0.0, atol=1e-12)
    vals = np.linalg.eigvalsh(lap)
    assert vals[0] > -1e-12
    assert trace_identity_gap(g, w) < 1e-12
    # every node meets every boundary once, so the trace is n! * sum(w)
    expected = math.factorial(4) * float(np.sum(w))
    assert np.trace(lap) == pytest.approx(expected, rel=1e-13)


def _compositions(n: int):
    """Every tuple of positive component sizes summing to n."""
    for cuts in itertools.product((False, True), repeat=n - 1):
        sizes, run = [], 1
        for cut in cuts:
            if cut:
                sizes.append(run)
                run = 0
            run += 1
        yield (*sizes, run)


@pytest.mark.parametrize("n", range(2, 7))
def test_toarray_matches_words_reference(n):
    # toarray reads the slot swaps; the reference reads the words.  One weight is zero: its
    # swaps hold +0.0 (0.0 - 0.0), never -0.0
    rng = np.random.default_rng(n)
    for sizes in _compositions(n):
        g = build_graph(n, ComponentSpec(sizes))
        w = rng.uniform(0.5, 2.0, size=n - 1)
        w[rng.integers(n - 1)] = 0.0
        dense, ref = projected_laplacian(g, w).toarray(), word_laplacian(g, w)
        np.testing.assert_array_equal(dense, ref, strict=True)
        assert dense.tobytes() == ref.tobytes()
        assert not np.any(np.signbit(dense[dense == 0.0]))


def test_laplacian_weight_forms():
    # the N - 1 weights as any sequence of floats, gamma_1 first
    g = build_graph(3)
    by_seq = laplacian(g, [1.0, 2.0])
    for same in ((1.0, 2.0), np.array([1.0, 2.0])):
        np.testing.assert_array_equal(laplacian(g, same), by_seq)
    assert by_seq[0, 0] == 3.0
    with pytest.raises(ValueError):
        laplacian(g, [1.0, -2.0])
    with pytest.raises(ValueError):
        laplacian(g, [1.0])


def test_equal_weight_hexagon_spectrum():
    g = build_graph(3)
    lap = laplacian(g, [GAMMA_3, GAMMA_3])
    vals = np.sort(np.linalg.eigvalsh(lap))
    np.testing.assert_allclose(vals / GAMMA_3, [0, 1, 1, 3, 3, 4], atol=1e-12)


def test_cycle_ordering():
    g = build_graph(3)
    order = cycle_ordering(g)
    assert sorted(order) == list(range(6))
    # consecutive nodes differ by one adjacent-slot swap, the upper and lower slots alternating
    assert g.words[order[0]].tolist() == [1, 0, 2]
    for k, a, b in zip([1, 0] * 3, order, np.roll(order, -1)):
        assert g.swaps[k, a] == b
    # signs alternate around the cycle
    assert np.all(g.signs[order] == g.signs[order[0]] * np.resize([1, -1], 6))
    with pytest.raises(ValueError):
        cycle_ordering(build_graph(4))


@pytest.mark.parametrize("sizes", [(2, 1), (1, 2), (2, 2)])
def test_cycle_ordering_refuses_component_words(sizes):
    # three words of (2, 1) and six of (2, 2): neither graph holds the six orderings of three particles
    with pytest.raises(ValueError, match="6 orderings of three particles"):
        cycle_ordering(build_graph(sum(sizes), ComponentSpec(sizes)))


def test_projected_dimension_counts():
    for sizes in ((1, 1, 1), (2, 1), (3,), (2, 2), (3, 1), (2, 1, 1), (4,)):
        spec = ComponentSpec(sizes)
        g = build_graph(spec.n, spec)
        expected = math.factorial(spec.n) // math.prod(math.factorial(s) for s in sizes)
        assert g.n_nodes == expected


def test_projected_spectrum_two_plus_one():
    g = build_graph(3, ComponentSpec((2, 1)))
    lap = projected_laplacian(g, [GAMMA_3, GAMMA_3])
    assert lap.shape == (3, 3)
    vals = np.sort(np.linalg.eigvalsh(lap.toarray()))
    np.testing.assert_allclose(vals / GAMMA_3, [0, 1, 3], atol=1e-12)


def test_projected_subset_of_full():
    rng = np.random.default_rng(13)
    w = rng.uniform(0.5, 2.0, size=3)
    g_full = build_graph(4)
    full = np.sort(np.linalg.eigvalsh(laplacian(g_full, w)))
    for sizes in ((1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)):
        g = build_graph(4, ComponentSpec(sizes))
        sub = np.sort(np.linalg.eigvalsh(projected_laplacian(g, w).toarray()))
        matched = []
        pool = list(full)
        for v in sub:
            j = int(np.argmin(np.abs(np.array(pool) - v)))
            matched.append(abs(pool.pop(j) - v))
        assert max(matched) < 1e-10


def test_component_size_mismatch():
    with pytest.raises(ValueError):
        build_graph(3, ComponentSpec((2, 2)))


def _compositions(n):
    if n == 0:
        return [()]
    return [(s,) + rest for s in range(1, n + 1) for rest in _compositions(n - s)]


@functools.cache
def _word_map(sizes):
    """Sparse P with P[sigma, word of sigma] = 1/sqrt(orbit size), by dictionary lookup."""
    graph = build_graph(sum(sizes), ComponentSpec(sizes))
    node = {tuple(w): i for i, w in enumerate(graph.words.tolist())}
    label = [c for c, s in enumerate(sizes) for _ in range(s)]
    perms = list(itertools.permutations(range(sum(sizes))))
    cols = [node[tuple(label[q] for q in perm)] for perm in perms]
    orbit = len(perms) // graph.n_nodes
    return csr_array((np.full(len(perms), orbit**-0.5), (np.arange(len(perms)), cols)))


_WEIGHTS = st.lists(st.floats(0.5, 2.0), min_size=5, max_size=5)


@settings(max_examples=10, deadline=None)
@given(_WEIGHTS)
def test_word_laplacian_is_projected_full(weights):
    for n in range(2, 7):
        w = np.array(weights[: n - 1])
        lap = laplacian(build_graph(n), w)
        for sizes in _compositions(n):
            g = build_graph(n, ComponentSpec(sizes))
            p = _word_map(sizes)
            np.testing.assert_allclose((p.T @ p).toarray(), np.eye(g.n_nodes), atol=1e-14)
            np.testing.assert_allclose(projected_laplacian(g, w).toarray(), p.T @ (lap @ p),
                                       rtol=0, atol=1e-12)


@settings(max_examples=10, deadline=None)
@given(_WEIGHTS)
def test_word_laplacian_invariants_and_spectra(weights):
    for n in range(2, 7):
        w = np.array(weights[: n - 1])
        full = np.linalg.eigvalsh(laplacian(build_graph(n), w))
        scale = 2.0 * float(np.sum(w))
        for sizes in _compositions(n):
            lap = projected_laplacian(build_graph(n, ComponentSpec(sizes)), w).toarray()
            np.testing.assert_array_equal(lap, lap.T)
            np.testing.assert_allclose(lap.sum(axis=1), 0.0, atol=1e-12 * scale)
            vals = np.linalg.eigvalsh(lap)
            assert vals[0] > -1e-12 * scale
            # every word eigenvalue is a full eigenvalue
            assert np.max(np.min(np.abs(vals[:, None] - full[None, :]), axis=1)) < 1e-10 * scale


@settings(max_examples=10, deadline=None)
@given(_WEIGHTS, _WEIGHTS, st.floats(0.0, 2.0))
def test_laplacian_linear_in_weights(w1, w2, a):
    for n in range(2, 7):
        x, y = np.array(w1[: n - 1]), np.array(w2[: n - 1])
        mix = a * x + y
        full = build_graph(n)
        np.testing.assert_allclose(laplacian(full, mix),
                                   a * laplacian(full, x) + laplacian(full, y),
                                   rtol=0, atol=1e-12)
        for sizes in _compositions(n):
            g = build_graph(n, ComponentSpec(sizes))
            np.testing.assert_allclose(
                projected_laplacian(g, mix).toarray(),
                a * projected_laplacian(g, x).toarray() + projected_laplacian(g, y).toarray(),
                rtol=0, atol=1e-12)
