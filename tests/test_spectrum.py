"""Spectra of ordering Laplacians and the assembled adiabatic states."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh
from scipy.sparse import csr_array

from reference import assembled, isometries, psi
from tonks.sectors import ComponentSpec, build_graph, laplacian, projected_laplacian
from tonks import spectrum as spectrum_module
from tonks.slater import make_level
from tonks.spectrum import _lead_positive, classify, one_body_density, solve
from tonks.traps import HarmonicBasis
from tonks.weights import slot_cdf

GAMMA_3 = 27.0 / (8.0 * math.sqrt(2.0 * math.pi))


@pytest.fixture(scope="module")
def basis():
    return HarmonicBasis()


@pytest.fixture(scope="module")
def hexagon():
    g = build_graph(3)
    lap = laplacian(g, [GAMMA_3, GAMMA_3])
    return g, lap, solve(lap)


def test_solve_hexagon(hexagon):
    g, lap, spec = hexagon
    np.testing.assert_allclose(spec.values / GAMMA_3, [0, 1, 1, 3, 3, 4], atol=1e-12)
    assert spec.groups == ((0,), (1, 2), (3, 4), (5,))
    np.testing.assert_allclose(spec.vectors.T @ spec.vectors, np.eye(6), atol=1e-12)
    resid = lap @ spec.vectors - spec.vectors * spec.values
    assert np.max(np.abs(resid)) < 1e-12


def test_solve_input_checks():
    with pytest.raises(ValueError, match="square"):
        solve(np.zeros((2, 3)))
    bad = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ValueError, match="symmetric"):
        solve(bad)
    with pytest.raises(ValueError, match="symmetric"):
        solve(csr_array(bad))
    assert solve(np.zeros((0, 0))).n_states == 0


@pytest.mark.parametrize("sizes", [(1, 1, 1, 1, 1), (3, 3), (2, 2, 2)])
def test_solve_dense_and_sparse_agree(sizes):
    n = sum(sizes)
    w = np.random.default_rng(16).uniform(0.5, 2.0, n - 1)
    lap = projected_laplacian(build_graph(n, ComponentSpec(sizes)), w)
    dense = np.asfortranarray(lap.toarray())
    kept = (dense.copy(), lap.graph.words.copy(), lap.graph.swaps.copy(), lap.weights.copy())
    a, b = solve(dense), solve(lap)
    scale = 2.0 * float(np.sum(w))
    assert np.max(np.abs(a.values - b.values)) < 1e-12 * scale
    assert a.groups == b.groups
    # the solver works on its own buffers: the caller's matrix, graph and weights are untouched
    np.testing.assert_array_equal(dense, kept[0])
    for got, before in zip((lap.graph.words, lap.graph.swaps, lap.weights), kept[1:]):
        np.testing.assert_array_equal(got, before)
    resid = lap @ b.vectors - b.vectors * b.values
    assert np.max(np.abs(resid)) < 1e-12 * scale


def _partitions(n, top=None):
    """Partitions of n with parts at most top, largest part first."""
    top = n if top is None else top
    if n == 0:
        return [()]
    return [(p,) + rest for p in range(min(n, top), 0, -1) for rest in _partitions(n - p, p)]


def _compositions(n):
    """Ordered tuples of positive parts summing to n."""
    return [(p, *rest) for p in range(1, n + 1) for rest in _compositions(n - p)] if n else [()]


_COMPOSITIONS = [c for n in range(2, 7) for c in _compositions(n)]


def _irrep_dims(m):
    """Dimensions of the irreducible representations of S_m, by the hook length formula."""
    dims = []
    for shape in _partitions(m):
        cols = [sum(1 for row in shape if row > j) for j in range(shape[0])]
        hooks = math.prod(shape[i] - j + cols[j] - i - 1
                          for i in range(len(shape)) for j in range(shape[i]))
        dims.append(math.factorial(m) // hooks)
    return dims


def _check_blocked_solve(sizes, w):
    """The relabelling-block solve against one dense eigensolve of the same matrix."""
    n = sum(sizes)
    graph = build_graph(n, ComponentSpec(sizes))
    lap = projected_laplacian(graph, w)
    spec = solve(lap)
    scale = 2.0 * float(np.sum(w))
    ref = eigh(lap.toarray(), eigvals_only=True, driver="evd")
    assert np.max(np.abs(spec.values - ref)) < 1e-12 * scale
    # the same degenerate groups as a split of the dense values at gaps above tol
    ends = [idx[-1] + 1 for idx in spec.groups]
    assert ends == [*(np.flatnonzero(np.diff(ref) > spec.tol) + 1), len(ref)]
    v = spec.vectors
    assert np.max(np.abs(lap @ v - v * spec.values)) < 1e-12 * scale
    assert np.max(np.abs(v.T @ v - np.eye(len(v)))) < 1e-12 * scale
    # one group per irrep of prod_s S_(m_s) (S_N on the N! orderings), each of
    # d isometries of width M * d, d the irrep's dimension and M the orbit count
    classes = [m for m in Counter(sizes).values() if m > 1]
    order = math.prod(math.factorial(m) for m in classes)
    orbits = graph.n_nodes // order
    dims = [math.prod(d) for d in itertools.product(*(_irrep_dims(m) for m in classes))]
    table, young = graph.relabellings
    assert table.shape == (order, orbits)
    np.testing.assert_array_equal(np.sort(table, axis=None), np.arange(graph.n_nodes))
    assert sorted(rho.shape[1] for rho in young) == sorted(dims)
    assert all(rho.shape == (order, len(rho[0]), len(rho[0])) for rho in young)
    for group in isometries(graph):
        assert [t.shape for t in group] == [(graph.n_nodes, orbits * len(group))] * len(group)


_REPEATED = [p for n in range(2, 7) for p in _partitions(n) if len(set(p)) < len(p)]


@pytest.mark.parametrize("sizes", _REPEATED)
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_blocked_solve_matches_dense(sizes, data):
    n = sum(sizes)
    w = data.draw(st.lists(st.floats(0.5, 2.0), min_size=n - 1, max_size=n - 1))
    _check_blocked_solve(tuple(data.draw(st.permutations(sizes))), np.array(w))


@pytest.mark.parametrize("sizes", _REPEATED)
def test_word_diagonal_is_relabelling_invariant(sizes):
    n = sum(sizes)
    graph = build_graph(n, ComponentSpec(sizes))
    diag = projected_laplacian(graph, np.random.default_rng(5).uniform(0.5, 2.0, n - 1)).diagonal()
    # the parts descend, so equal sizes are adjacent letters
    for a in np.flatnonzero(np.diff(sizes) == 0):
        swap = np.arange(len(sizes))
        swap[[a, a + 1]] = a + 1, a
        np.testing.assert_array_equal(diag[graph.index(swap[graph.words])], diag)


@pytest.mark.parametrize("n", range(2, 7))
def test_ordering_diagonal_is_slot_order_sum(n):
    w = np.random.default_rng(n).uniform(0.5, 2.0, n - 1)
    diag = laplacian(build_graph(n), w).diagonal()
    # every ordering borders all n - 1 slots; sum() adds the weights in slot order
    np.testing.assert_array_equal(diag, np.full(len(diag), sum(w.tolist())))


def test_blocked_solve_five_singletons_and_a_pair():
    # 120 relabellings, the largest group under the node cap: 2,520 words in 21 orbits
    rng = np.random.default_rng(17)
    _check_blocked_solve(tuple(rng.permutation((1, 1, 1, 1, 1, 2))), rng.uniform(0.5, 2.0, 6))


def test_edited_word_laplacian_is_one_block(eigh_sizes):
    w = np.array([0.7, 1.3, 0.9, 1.1, 1.6])
    lap = projected_laplacian(build_graph(6, ComponentSpec((2, 2, 2))), w)
    # three Young shapes of S_3 relabel the three pairs: 15 orbits of dimensions 1, 2, 1
    assert len(lap.blocks()) == 3
    solve(lap)
    assert eigh_sizes == [15, 30, 15]
    # the word Laplacian is its graph and weights: it cannot be edited in place
    with pytest.raises(TypeError):
        lap[0, 0] = lap.toarray()[0, 0] + 1.0
    # an edited copy breaks the relabelling symmetry and is solved whole, as one block
    edited = lap.toarray()
    edited[0, 0] += 1.0
    eigh_sizes.clear()
    spec = solve(edited)
    assert eigh_sizes == [90]
    ref = eigh(edited, eigvals_only=True)
    assert np.max(np.abs(spec.values - ref)) < 1e-12 * 2.0 * float(np.sum(w))
    # an edit of one ulp too
    nudged = lap.toarray()
    nudged[0, 0] = np.nextafter(nudged[0, 0], np.inf)
    eigh_sizes.clear()
    solve(nudged)
    assert eigh_sizes == [90]


@pytest.fixture
def eigh_sizes(monkeypatch):
    """Widths of the eigensolves that solve runs, in call order."""
    sizes = []

    def counting(a, *args, **kwargs):
        sizes.append(len(a))
        return np.linalg.eigh(a, *args, **kwargs)

    monkeypatch.setattr(spectrum_module, "eigh", counting)
    return sizes


def test_one_eigensolve_per_young_shape(eigh_sizes):
    w = np.random.default_rng(19).uniform(0.5, 2.0, 7)
    spec = solve(projected_laplacian(build_graph(8, ComponentSpec((2, 2, 2, 2))), w))
    # 105 orbits times the dimensions 1, 3, 2, 3, 1 of the shapes of S_4
    assert eigh_sizes == [105, 315, 210, 315, 105]
    assert spec.n_states == 2520
    eigh_sizes.clear()
    solve(projected_laplacian(build_graph(6), w[:5]))
    # the 720 orderings split into the 11 irreps of S_6
    assert len(eigh_sizes) == 11
    assert max(eigh_sizes) == 16


def test_hexagon_splits_into_three_shapes(eigh_sizes):
    spec = solve(projected_laplacian(build_graph(3), [1.0, 1.0]))
    assert eigh_sizes == [1, 2, 1]
    np.testing.assert_allclose(spec.values, [0, 1, 1, 3, 3, 4], rtol=0, atol=1e-12)
    # both rows of the two-dimensional shape carry the one solve's values
    assert spec.values[1] == spec.values[2]
    assert spec.values[3] == spec.values[4]


@pytest.mark.parametrize("sizes", _COMPOSITIONS)
@settings(max_examples=2, deadline=None)
@given(w=st.lists(st.floats(0.5, 2.0), min_size=5, max_size=5))
def test_young_rows_are_isometries_with_one_block(sizes, w):
    n = sum(sizes)
    w = np.array(w[: n - 1])
    graph = build_graph(n, ComponentSpec(sizes))
    lap = projected_laplacian(graph, w)
    scale = 2.0 * float(np.sum(w))
    groups = isometries(graph)
    assert sum(t.shape[1] for group in groups for t in group) == graph.n_nodes
    for group in groups:
        block = group[0].T @ (lap @ group[0])
        for t in group:
            gram = t.T @ t
            assert np.max(np.abs(gram - np.eye(len(gram)))) < 1e-12
            assert np.max(np.abs(t.T @ (lap @ t) - block)) < 1e-12 * scale


@pytest.mark.parametrize("sizes", _COMPOSITIONS)
@settings(max_examples=2, deadline=None)
@given(w=st.lists(st.floats(0.0, 2.0), min_size=5, max_size=5))
def test_root_blocks_are_dense_projections(sizes, w):
    # the block assembled at the orbit roots is T_a^T L T_a of the dense L, for every row a
    n = sum(sizes)
    w = np.array(w[: n - 1])
    graph = build_graph(n, ComponentSpec(sizes))
    lap = projected_laplacian(graph, w)
    dense = lap.toarray()
    scale = max(1.0, 2.0 * float(np.sum(w)))
    for (rho, block), group in zip(lap.blocks(), isometries(graph), strict=True):
        assert len(group) == rho.shape[1]
        for t in group:
            assert np.max(np.abs(t.T @ t - np.eye(t.shape[1]))) < 1e-13
            assert np.max(np.abs(t.T @ dense @ t - block)) < 1e-13 * scale


def test_lead_positive_matches_column_loop():
    rng = np.random.default_rng(18)
    vecs = rng.choice([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0], size=(5, 400))
    vecs[:, 0] = 0.0
    vecs[:, 1] = [0.5, -0.5, 0.0, 0.5, -0.5]
    vecs[:, 2] = [-0.5, 0.5, 0.0, 0.5, -0.5]
    expected = vecs.copy()
    for j in range(expected.shape[1]):
        lead = int(np.argmax(np.abs(expected[:, j])))
        if expected[lead, j] < 0:
            expected[:, j] = -expected[:, j]
    _lead_positive(vecs)
    # bit for bit, signed zeros included
    np.testing.assert_array_equal(np.signbit(vecs), np.signbit(expected))
    np.testing.assert_array_equal(vecs, expected)


def test_group_projector(hexagon):
    # the projector onto a degenerate group, from its vectors: symmetric, idempotent,
    # of the group's rank, and an eigenprojector of the Laplacian
    _, lap, spec = hexagon
    v = spec.vectors[:, list(spec.groups[1])]
    p = v @ v.T
    np.testing.assert_allclose(p, p.T, atol=1e-14)
    np.testing.assert_allclose(p @ p, p, atol=1e-12)
    assert np.trace(p) == pytest.approx(2.0, abs=1e-12)
    np.testing.assert_allclose(lap @ p, spec.values[1] * p, atol=1e-12)


def test_classify_labels(hexagon):
    g, _, spec = hexagon
    spec = classify(spec, g)
    assert spec.labels == ("uniform", "mixed", "mixed", "alternating")
    # distinguishable particles: the projection is the identity
    assert spec.retained == (1, 2, 2, 1)


def test_classify_retained_under_projection(hexagon):
    g, lap, _ = hexagon
    for sizes, kept in (((2, 1), (1, 1, 1, 0)), ((3,), (1, 0, 0, 0))):
        gp = build_graph(3, ComponentSpec(sizes))
        spec = classify(solve(lap), gp)
        assert spec.retained == kept
        assert spec.labels == ("uniform", "mixed", "mixed", "alternating")


@pytest.mark.parametrize("sizes", [c for c in _COMPOSITIONS if sum(c) <= 5])
def test_classify_retains_every_word(sizes):
    n = sum(sizes)
    w = np.random.default_rng(n).uniform(0.5, 2.0, n - 1)
    graph = build_graph(n, ComponentSpec(sizes))
    spec = classify(solve(projected_laplacian(build_graph(n), w)), graph)
    assert sum(spec.retained) == graph.n_nodes


def test_classify_shape_mismatch(hexagon):
    g, _, _ = hexagon
    gp = build_graph(3, ComponentSpec((2, 1)))
    small = solve(projected_laplacian(gp, [GAMMA_3, GAMMA_3]))
    with pytest.raises(ValueError):
        classify(small, g)


def test_expansion_law(basis, hexagon):
    # E_j(g) = E_F - K_j / g on the values directly: the uniform branch stays at the
    # free energy, the top branch falls by 4 gamma_3 / g, with contact slope K / g^2.
    _, _, spec = hexagon
    state = make_level(basis, 3)
    assert len(spec.values) == 6
    assert state.energy == pytest.approx(4.5)
    energies = state.energy - spec.values / 50.0
    assert energies[0] == pytest.approx(4.5)
    k_top = 4.0 * GAMMA_3
    assert energies[5] == pytest.approx(4.5 - k_top / 50.0, rel=1e-14)
    assert spec.values[5] / 50.0**2 == pytest.approx(k_top / 2500.0, rel=1e-14)


def test_sector_index(basis):
    state = make_level(basis, 3)

    def sector_index(x):
        return assembled(state, np.ones(6), x)[1]

    assert sector_index(np.array([-1.0, 0.0, 1.0])) == 0
    assert sector_index(np.array([1.0, 0.0, -1.0])) == 5
    batch = sector_index(np.array([[[-1.0, 0.0, 1.0], [1.0, 0.0, -1.0]]]))
    assert batch.shape == (1, 2)
    assert batch.tolist() == [[0, 5]]


def test_uniform_amplitudes_reproduce_determinant(basis):
    state = make_level(basis, 3)
    rng = np.random.default_rng(14)
    x = rng.normal(size=(100, 3))
    np.testing.assert_allclose(assembled(state, np.ones(6), x)[0], psi(state, x),
                               rtol=1e-13, atol=1e-16)


def test_sign_amplitudes_give_modulus(basis):
    state = make_level(basis, 3)
    g = build_graph(3)
    rng = np.random.default_rng(15)
    x = rng.normal(size=(200, 3))
    vals, _ = assembled(state, g.signs.astype(float), x)
    np.testing.assert_allclose(np.abs(vals), np.abs(psi(state, x)), rtol=1e-13, atol=1e-16)
    # one global sign: the assembled state never changes sign
    nz = vals[np.abs(vals) > 1e-12]
    assert np.all(nz > 0) or np.all(nz < 0)


def test_amplitude_validation(basis):
    state = make_level(basis, 3)
    graph = build_graph(3)
    grid = np.linspace(-5.0, 5.0, 11)
    with pytest.raises(ValueError, match="6 amplitudes"):
        one_body_density(state, graph, np.ones(5), grid)
    with pytest.raises(ValueError, match="vanish"):
        one_body_density(state, graph, np.zeros(6), grid)
    with pytest.raises(ValueError, match="ordering graph"):
        one_body_density(state, build_graph(3, ComponentSpec((2, 1))), np.ones(3), grid)
    # amplitudes are normalized first: a scaled vector gives the same densities
    unit = one_body_density(state, graph, np.ones(6), grid)
    scaled = one_body_density(state, graph, 2.0 * np.ones(6), grid)
    for a, b in zip(unit, scaled):
        np.testing.assert_array_equal(a, b)


def _free_density_bins(basis, n, grid):
    """Bin averages of sum_{m<n} phi_m^2 by a 16-point rule per bin."""
    t, w = np.polynomial.legendre.leggauss(16)
    half = 0.5 * np.diff(grid)
    x = (grid[:-1] + half)[:, None] + half[:, None] * t
    vals, _ = basis.eval_many(range(n), x)
    return np.sum(vals**2, axis=0) @ w / 2.0


def test_one_body_density(basis):
    state = make_level(basis, 2)
    graph = build_graph(2)
    grid = np.linspace(-6.0, 6.0, 61)
    per, total = one_body_density(state, graph, np.ones(2), grid)
    assert per.shape == (2, 60)
    widths = np.diff(grid)
    assert float(np.sum(total * widths)) == pytest.approx(2.0, abs=1e-8)
    # the determinant's exact density is the sum of orbital densities
    np.testing.assert_allclose(total, _free_density_bins(basis, 2, grid), rtol=0, atol=1e-12)
    # equal amplitudes: both particles share the same density
    np.testing.assert_allclose(per[0], per[1], rtol=0, atol=1e-15)
    per2, total2 = one_body_density(state, graph, np.ones(2), grid)
    np.testing.assert_array_equal(total2, total)
    with pytest.raises(ValueError):
        one_body_density(state, graph, np.ones(2), np.array([1.0, 0.0]))


def test_total_density_is_free_for_every_state(basis, hexagon):
    g, _, spec = hexagon
    state = make_level(basis, 3)
    grid = np.linspace(-5.0, 5.0, 81)
    free = _free_density_bins(basis, 3, grid)
    for j in range(spec.n_states):
        per, total = one_body_density(state, g, spec.vectors[:, j], grid)
        np.testing.assert_allclose(per.sum(axis=0), total, rtol=0, atol=1e-15)
        np.testing.assert_allclose(total, free, rtol=0, atol=1e-12)


def test_single_sector_density_follows_its_ordering(basis):
    # Node 3 in lexicographic order is the ordering (1, 2, 0): particle 1
    # leftmost, then particle 2, then particle 0.
    state = make_level(basis, 3)
    single = np.zeros(6)
    single[3] = 1.0
    grid = np.linspace(-6.0, 6.0, 121)
    per, _ = one_body_density(state, build_graph(3), single, grid)
    slots = np.diff(slot_cdf(state, grid), axis=1) / np.diff(grid)
    for slot, particle in enumerate((1, 2, 0)):
        np.testing.assert_allclose(per[particle], slots[slot], rtol=0, atol=1e-15)
    centers = 0.5 * (grid[1:] + grid[:-1])
    means = per @ (centers * np.diff(grid))
    assert means[1] < means[2] < means[0]
    # a configuration with particle 1 leftmost and particle 0 rightmost lies in node 3
    x = np.array([[0.4, -1.1, 0.0]])
    assert assembled(state, single, x)[1][0] == 3
