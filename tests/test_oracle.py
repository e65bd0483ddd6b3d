"""Finite-coupling oracle: shell blocks, diagonalization, slope fits, Monte Carlo weights."""

import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse
from scipy.integrate import quad
from scipy.optimize import linear_sum_assignment
from scipy.special import digamma, gammaln, stdtrit

import tonks.oracle as oracle
from tonks.oracle import EDConfig, SlopeFit, diagonalize, slope_fit
from reference import (delta_tensor, intrinsic_reference, mc_gammas, shell_cm, shell_reference,
                       shell_states, two_body_reference, two_body_slope)
from tonks.sectors import ComponentSpec
from tonks.slater import make_level
from tonks.traps import HarmonicBasis
from tonks.weights import all_gammas

GAMMA_2 = math.sqrt(2.0 / math.pi)


def _phi(n, x):
    log_norm = -0.25 * math.log(math.pi) - 0.5 * (n * math.log(2.0) + gammaln(n + 1.0))
    from numpy.polynomial.hermite import hermval

    c = np.zeros(n + 1)
    c[n] = 1.0
    return math.exp(log_norm) * hermval(x, c) * np.exp(-0.5 * x * x)


def test_delta_tensor_anchor():
    t = delta_tensor(4)
    # all four particles in the ground orbital: integral of phi_0^4
    assert t[0, 0, 0, 0] == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-14)


def test_delta_tensor_parity_and_symmetry():
    t = delta_tensor(6)
    idx = np.indices(t.shape).sum(axis=0)
    assert np.all(t[idx % 2 == 1] == 0.0)
    for perm in ((1, 0, 2, 3), (2, 3, 0, 1), (3, 2, 1, 0)):
        np.testing.assert_allclose(t.transpose(perm), t, atol=1e-15)


def test_delta_tensor_matches_quadrature():
    t = delta_tensor(9)
    rng = np.random.default_rng(16)
    for _ in range(4):
        a, b, c, d = rng.integers(0, 9, size=4)
        ref, _ = quad(lambda x: _phi(a, x) * _phi(b, x) * _phi(c, x) * _phi(d, x), -12, 12)
        assert t[a, b, c, d] == pytest.approx(ref, abs=1e-12)


def test_mode_cap():
    # the one size cap: three particles at the cap hold the C(62, 3) = 37,820 states of 59 quanta
    assert EDConfig(3, oracle.MODE_CAP, (1.0,)).n_modes == 60
    with pytest.raises(ValueError, match="cap 60"):
        EDConfig(2, oracle.MODE_CAP + 1, (1.0,))


def test_config_validation():
    with pytest.raises(ValueError):
        EDConfig(n_particles=4, n_modes=10, g_values=(1.0,))
    with pytest.raises(ValueError):
        EDConfig(n_particles=3, n_modes=4, g_values=(1.0,))
    with pytest.raises(ValueError):
        EDConfig(n_particles=2, n_modes=10, g_values=(2.0, 1.0))
    with pytest.raises(ValueError):
        EDConfig(n_particles=2, n_modes=10, g_values=(-1.0,))
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite and positive"):
            EDConfig(n_particles=2, n_modes=10, g_values=(20.0, 50.0, bad))
    with pytest.raises(ValueError):
        EDConfig(n_particles=2, n_modes=10, g_values=(1.0,), n_states=0)
    with pytest.raises(ValueError):
        EDConfig(n_particles=2, n_modes=10, g_values=(1.0,), components=ComponentSpec((3,)))


def test_two_body_reference_limits():
    # weak coupling rises from the free even state; strong coupling
    # approaches the fermionized value from below
    assert two_body_reference(1e-8) == pytest.approx(1.0, abs=1e-6)
    assert two_body_reference(1e8) == pytest.approx(2.0, abs=1e-6)
    assert two_body_reference(1e8, branch=1) == pytest.approx(4.0, abs=1e-6)
    couplings = [0.5, 1.0, 5.0, 40.0]
    energies = [two_body_reference(g) for g in couplings]
    assert all(b > a for a, b in zip(energies, energies[1:]))
    with pytest.raises(ValueError):
        two_body_reference(-2.0)


def test_two_body_slope_limit():
    # the running slope g^2 dE/dg approaches K = 2 gamma_2
    assert two_body_slope(200.0) == pytest.approx(2.0 * GAMMA_2, rel=0.01)
    assert two_body_slope(2000.0) == pytest.approx(2.0 * GAMMA_2, rel=0.001)


@pytest.fixture(scope="module")
def ed_two():
    cfg = EDConfig(n_particles=2, n_modes=40, g_values=(20.0, 50.0, 100.0), n_states=4)
    return diagonalize(cfg)


def test_ed_matches_two_body_reference(ed_two):
    # the shell's effective interaction comes from the exact two-body states,
    # so two particles keep the exact ground energy at every coupling
    for gi, g in enumerate(ed_two.config.g_values):
        assert abs(ed_two.energies[gi, 0] - two_body_reference(g)) < 1e-10


def test_ed_tracking_quality(ed_two):
    assert ed_two.tracked.shape == (3, 4)
    assert ed_two.track_quality.shape == (3, 4)
    assert np.min(ed_two.track_quality) > 0.99
    assert np.all(np.diff(ed_two.tracked[:, 0]) > 0)


def test_ed_fermionic_state_flat(ed_two):
    # one tracked column is the odd (fermionized) state: energy 2 at
    # every coupling and vanishing contact expectation
    flat = np.where(np.max(np.abs(ed_two.tracked - 2.0), axis=0) < 1e-9)[0]
    assert len(flat) == 1
    assert np.max(np.abs(ed_two.interaction[:, flat[0]])) < 1e-12


def test_slope_fit_two_body(ed_two):
    fit = slope_fit(ed_two, 0)
    assert isinstance(fit, SlopeFit)
    k_exact = 2.0 * GAMMA_2
    assert abs(fit.k_value - k_exact) / k_exact < 0.05
    assert abs(fit.k_value - k_exact) < 3.0 * fit.uncertainty + 1e-6
    assert fit.intercept == pytest.approx(2.0, abs=0.08)
    flat = int(np.where(np.max(np.abs(ed_two.tracked - 2.0), axis=0) < 1e-9)[0][0])
    assert abs(slope_fit(ed_two, flat).k_value) < 1e-6


def test_slope_fit_needs_three_couplings():
    cfg = EDConfig(n_particles=2, n_modes=10, g_values=(5.0, 10.0), n_states=1)
    with pytest.raises(ValueError, match="three"):
        slope_fit(diagonalize(cfg), 0)
    with pytest.raises(ValueError, match="state index"):
        slope_fit(diagonalize(EDConfig(2, 10, (5.0, 10.0, 20.0), n_states=1)), 1)


def test_identical_pair_has_no_contact():
    cfg = EDConfig(n_particles=2, n_modes=12, g_values=(5.0, 10.0),
                   n_states=2, components=ComponentSpec((2,)))
    res = diagonalize(cfg)
    # as many intrinsic states as pairs of distinct orbitals with exactly 11 quanta
    assert res.basis_dim == sum(a + b == 11 for a, b in itertools.combinations(range(12), 2)) == 6
    np.testing.assert_allclose(res.energies[0], res.energies[1], atol=1e-10)
    assert np.max(np.abs(res.interaction)) < 1e-10


def test_component_spectrum_nested_in_full():
    g_values = (8.0,)
    full = diagonalize(EDConfig(3, 8, g_values, n_states=12))
    part = diagonalize(EDConfig(3, 8, g_values, n_states=4, components=ComponentSpec((2, 1))))
    assert part.basis_dim == sum(a < b and a + b + c == 7
                                 for a, b, c in itertools.product(range(8), repeat=3)) == 16
    for e in part.energies[0]:
        assert np.min(np.abs(full.energies[0] - e)) < 1e-8


def test_interaction_is_energy_derivative():
    # Hellmann-Feynman check inside the truncated model itself
    cfg = EDConfig(n_particles=2, n_modes=30, g_values=(4.975, 5.0, 5.025), n_states=1)
    res = diagonalize(cfg)
    fd = (res.tracked[2, 0] - res.tracked[0, 0]) / 0.05
    hf = res.interaction[1, 0]
    assert abs(fd - hf) / abs(hf) < 1e-4


@pytest.mark.parametrize("npart, n_modes, sizes", [
    (2, 10, None), (2, 10, (2,)),
    (3, 6, None), (3, 6, (2, 1)), (3, 6, (1, 2)), (3, 6, (3,)),
    (3, 8, None), (3, 8, (2, 1)), (3, 8, (1, 2)), (3, 8, (3,)),
])
def test_blocks_match_dense_reference(npart, n_modes, sizes):
    # The dense shell Hamiltonian restricted to the kernel of the centre-of-mass quanta.
    comp = None if sizes is None else ComponentSpec(sizes)
    # three identical fermions have only the two intrinsic states of at most 5 quanta in six modes
    m = min(6, _intrinsic_count(n_modes, npart, sizes))
    cfg = EDConfig(npart, n_modes, (5.0, 20.0), n_states=m, components=comp)
    res = diagonalize(cfg)
    _, blocks = oracle._symmetry_blocks(n_modes, npart, comp)
    # every row of every block
    assert sum(f.shape[1] * len(hp) for f, _, _, hp, _ in blocks) == res.basis_dim
    for gi, g in enumerate(cfg.g_values):
        h0, v, dv, _ = intrinsic_reference(npart, n_modes, g, sizes)
        assert res.basis_dim == len(h0)
        vals, vecs = np.linalg.eigh(h0 + v)
        np.testing.assert_allclose(res.energies[gi], vals[:m], atol=1e-10)
        # A tracked state may cross above the lowest m, so compare the
        # interaction expectation of each with the reference state at its
        # energy; degenerate states share theirs by symmetry.
        ref = np.argmin(np.abs(vals[:, None] - res.tracked[gi]), axis=0)
        np.testing.assert_allclose(vals[ref], res.tracked[gi], atol=1e-10)
        contact = np.einsum("ij,ij->j", vecs[:, ref], dv @ vecs[:, ref])
        np.testing.assert_allclose(res.interaction[gi], contact, atol=1e-8)


def _row_isometries(occ, blocks):
    """T_f = sum_k f[k, r] T_(e_k) of every retained row r, block by block in the row order
    of _solve_blocks, as dense arrays on the shell occ, written out from each block's
    gather (states, at, coef)."""
    out = []
    for f, (states, at, coef), p, *_ in blocks:
        for r in range(f.shape[1]):
            t = np.zeros((len(occ), len(p) + 1))  # the last column takes the padding of at
            t[states[:, None], at] = np.einsum("skj,k->sj", coef, f[:, r])
            out.append(t[:, :-1])
    return out


def _widths(blocks):
    """The shape of every block's row basis f and the width of its isometries."""
    return [(f.shape, len(p)) for f, _, p, *_ in blocks]


def _block_interactions(occ, iso, n_cols, g):
    """The interaction of a block on all its columns, not only the intrinsic ones (P = 1),
    and its derivative in g, from the pair rows of _pair_rows."""
    e_max = occ.max()
    pair = oracle._pair_rows(occ, iso, np.eye(n_cols), oracle._brackets(e_max))
    v, up, down = oracle._relative_interaction(np.array([g, g * (1 + 1e-4), g * (1 - 1e-4)]),
                                               e_max // 2 + 1)
    return oracle._interaction(pair, v), oracle._interaction(pair, (up - down) / (2e-4 * g))


def _layer_counts(n_modes, npart, sizes):
    """The shell states whose occupations increase inside every component, counted by quanta."""
    cuts = np.cumsum((0,) + (sizes or (1,) * npart))
    counts = [0] * n_modes
    for r in shell_states(npart, n_modes):
        if all(list(r[a:b]) == sorted(set(r[a:b])) for a, b in zip(cuts, cuts[1:])):
            counts[sum(r)] += 1
    return counts


def _shell_count(n_modes, npart, sizes):
    """The shell states whose occupations increase inside every component."""
    return sum(_layer_counts(n_modes, npart, sizes))


def _intrinsic_count(n_modes, npart, sizes):
    """The intrinsic states of the shell: each layer of q quanta holds as many as it has states,
    less the centre-of-mass excitations of the layer below, so they number as the states of
    exactly n_modes - 1 quanta."""
    return _layer_counts(n_modes, npart, sizes)[-1]


def _intrinsic_levels(n_modes, npart, sizes):
    """The trap energies of the intrinsic states, ascending."""
    counts = [0] + _layer_counts(n_modes, npart, sizes)
    return [q + 0.5 * npart for q in range(n_modes) for _ in range(counts[q + 1] - counts[q])]


def test_block_sizes():
    # the shell of 13 quanta: C(16, 3) = 560 states, and every isometry indexed by shell
    # position: the even and odd blocks of a shape gather from the two halves of the shell
    occ, blocks = oracle._symmetry_blocks(14, 3, None)
    assert len(occ) == 560 and occ.tolist() == [list(r) for r in shell_states(3, 14)]
    for (_, even, *_), (_, odd, *_) in zip(blocks[::2], blocks[1::2]):
        np.testing.assert_array_equal(np.sort(np.concatenate([even[0], odd[0]])), np.arange(560))
        assert np.all(occ[even[0]].sum(axis=1) % 2 == 0) and np.all(occ[odd[0]].sum(axis=1) % 2)
    # shapes (3), (2,1), (1,1,1), each even then odd; (2,1) has two rows
    assert _widths(blocks) == [((1, 1), 57), ((1, 1), 66), ((2, 2), 83), ((2, 2), 102),
                               ((1, 1), 29), ((1, 1), 38)]
    # every row of the irrep, and a contact on all but (1,1,1)
    assert [iso[2].shape[1] for _, iso, *_ in blocks] == [1, 1, 2, 2, 1, 1]
    assert [contact for *_, contact in blocks] == [True] * 4 + [False] * 2
    assert [t.shape[1] for t in _row_isometries(occ, blocks)[:6]] == [57, 66, 83, 83, 102, 102]
    # the intrinsic states of each block: 105 = C(15, 2) with the second rows of (2,1)
    assert [p.shape for _, _, p, _, _ in blocks] == [
        (57, 12), (66, 9), (83, 16), (102, 19), (29, 5), (38, 9)]
    assert sum(f.shape[1] * len(hp) for f, _, _, hp, _ in blocks) == 105
    # (2,1) components: no symmetric shape, one row of (2,1) antisymmetric under P_12
    _, pair = oracle._symmetry_blocks(14, 3, ComponentSpec((2, 1)))
    assert _widths(pair) == [((2, 1), 83), ((2, 1), 102), ((1, 1), 29), ((1, 1), 38)]
    assert [len(hp) for *_, hp, _ in pair] == [16, 19, 5, 9]
    assert [iso[2].shape[1] for _, iso, *_ in pair] == [2, 2, 1, 1]


@pytest.mark.parametrize("npart, sizes", [(2, None), (2, (2,)), (3, None), (3, (2, 1))])
def test_intrinsic_dimension(monkeypatch, npart, sizes):
    # basis_dim counts the intrinsic states, as many as the shell states of exactly
    # n_modes - 1 quanta; an empty block takes no eigensolve.
    widths = []

    def recording_eigh(a):
        widths.append(len(a))
        return np.linalg.eigh(a)

    monkeypatch.setattr(oracle, "eigh", recording_eigh)
    comp = None if sizes is None else ComponentSpec(sizes)
    dim = _intrinsic_count(14, npart, sizes)
    assert dim == {(2, None): 14, (2, (2,)): 7, (3, None): 105, (3, (2, 1)): 49}[npart, sizes]
    res = diagonalize(EDConfig(npart, 14, (20.0, 50.0), n_states=dim, components=comp))
    assert res.basis_dim == dim
    _, blocks = oracle._symmetry_blocks(14, npart, comp)
    assert 0 not in widths and sum(widths) == 2 * sum(len(hp) for *_, hp, c in blocks if c)
    if npart == 2:
        # two particles: one intrinsic state per relative level, the even ones symmetric,
        # the odd ones antisymmetric, so the [2]-odd and [1,1]-even blocks are empty
        assert [len(hp) for *_, hp, _ in blocks] == ([7, 0, 0, 7] if sizes is None else [0, 7])
        assert widths == ([7] * 2 if sizes is None else [])
        _, capped = oracle._symmetry_blocks(oracle.MODE_CAP, 2, None)
        assert [len(hp) for *_, hp, _ in capped] == [30, 0, 0, 30]
    with pytest.raises(ValueError, match=f"intrinsic basis dimension {dim}"):
        diagonalize(EDConfig(npart, 14, (20.0,), n_states=dim + 1, components=comp))


@pytest.mark.parametrize("npart, sizes", [(2, None), (2, (2,)), (3, None), (3, (2, 1))])
def test_kept_states_have_no_centre_of_mass_quanta(npart, sizes):
    # Every kept state, mapped to the product basis through its row isometry T_f,
    # has <N_cm> = 0, against N_cm written out by loops.
    comp = None if sizes is None else ComponentSpec(sizes)
    n = 8 if npart == 3 else 10
    cfg = EDConfig(npart, n, (5.0, 20.0), n_states=_intrinsic_count(n, npart, sizes),
                   components=comp)
    occ, blocks = oracle._symmetry_blocks(n, npart, comp)
    isometries = _row_isometries(occ, blocks)
    cm = shell_cm(npart, n)
    for solved in oracle._solve_blocks(cfg, occ, blocks):
        vecs = np.hstack([t @ x for t, (_, x, _) in zip(isometries, solved, strict=True)])
        assert vecs.shape[1] == cfg.n_states
        np.testing.assert_allclose(np.einsum("ij,ij->j", vecs, cm @ vecs), 0.0, rtol=0, atol=1e-12)
    res = diagonalize(cfg)
    for row, y in res.states:
        v = isometries[row] @ y
        assert abs(v @ cm @ v) < 1e-12


def _swap_and_parity(n_modes, n_particles):
    """Shell permutation of each pair swap P_ij, and the parity of each shell state."""
    states = shell_states(n_particles, n_modes)
    at = {r: w for w, r in enumerate(states)}
    swaps = {}
    for i, j in itertools.combinations(range(n_particles), 2):
        order = list(range(n_particles))
        order[i], order[j] = j, i
        swaps[i, j] = np.array([at[tuple(r[k] for k in order)] for r in states])
    parity = (-1.0) ** np.array([sum(r) for r in states])
    return swaps, parity


def _contact_matrix(n_modes, n_particles):
    """The bare contact operator, summed over pairs, on the shell of at most
    n_modes - 1 quanta, assembled from the nonzeros of delta_tensor."""
    n = n_modes
    i4 = delta_tensor(n)
    a, b, c, d = np.nonzero(i4)
    v = i4[a, b, c, d]
    stride = n ** np.arange(n_particles - 1, -1, -1)
    dim = n**n_particles
    w = sparse.csr_array((dim, dim))
    for p, q in itertools.combinations(range(n_particles), 2):
        # Spectators keep their mode: one offset per spectator occupation.
        spect = np.zeros(1, dtype=np.int64)
        for r in set(range(n_particles)) - {p, q}:
            spect = (spect[:, None] + np.arange(n) * stride[r]).ravel()
        rows = ((a * stride[p] + b * stride[q])[:, None] + spect).ravel()
        cols = ((c * stride[p] + d * stride[q])[:, None] + spect).ravel()
        w = w + sparse.csr_array((np.repeat(v, len(spect)), (rows, cols)), shape=(dim, dim))
    shell = np.flatnonzero(np.indices((n,) * n_particles).sum(axis=0).ravel() < n)
    return w[shell][:, shell]


@pytest.mark.parametrize("npart, sizes", [
    (2, None), (2, (2,)), (3, None), (3, (2, 1)), (3, (1, 2)), (3, (3,)),
    (4, None), (4, (2, 2)), (4, (3, 1)), (4, (1, 2, 1)),
])
def test_block_invariants(npart, sizes):
    n, g = (8 if npart == 4 else 7), 5.0
    comp = None if sizes is None else ComponentSpec(sizes)
    swaps, parity = _swap_and_parity(n, npart)
    labels = np.repeat(np.arange(len(sizes)), sizes) if sizes else np.arange(npart)
    trap = np.array([sum(r) for r in shell_states(npart, n)]) + 0.5 * npart
    _, v, dv = shell_reference(npart, n, g)
    cm = shell_cm(npart, n)
    occ, blocks = oracle._symmetry_blocks(n, npart, comp)
    isometries = iter(_row_isometries(occ, blocks))
    q, free = [], []
    for f, iso, p, hp, contact in blocks:
        rows = [next(isometries) for _ in range(f.shape[1])]
        v_b, dv_b = _block_interactions(occ, iso, len(p), g)
        assert f.shape[0] == iso[2].shape[1]
        np.testing.assert_allclose(f.T @ f, np.eye(f.shape[1]), atol=1e-12)
        # one class-sum value, the irrep's, on every row; only the antisymmetric shape
        # [1^N] is contact-free
        c = rows[0][:, 0] @ sum(rows[0][perm, 0] for perm in swaps.values())
        assert c == pytest.approx(round(c), abs=1e-12)
        assert contact == (round(c) != -math.comb(npart, 2))
        # every column an oscillator eigenstate, in layers of ascending trap energy
        h0 = np.round(2.0 * trap @ rows[0] ** 2) / 2.0  # trap energies are half-integers
        assert np.all(np.diff(h0) >= 0)
        # P: orthonormal columns, each inside one layer, spanning the kernel of the block's N_cm
        cm_b = rows[0].T @ cm @ rows[0]
        np.testing.assert_allclose(p.T @ p, np.eye(len(hp)), atol=1e-12)
        np.testing.assert_allclose(h0[:, None] * p, p * hp, atol=1e-12)
        np.testing.assert_allclose(cm_b @ p, 0.0, atol=1e-12)
        assert len(hp) == np.sum(np.linalg.eigvalsh(cm_b) < 0.5)
        v_0 = rows[0].T @ v @ rows[0]
        for t in rows:
            np.testing.assert_allclose(sum(t[perm] for perm in swaps.values()), c * t, atol=1e-12)
            np.testing.assert_allclose(parity[:, None] * t, parity[np.argmax(np.abs(t[:, 0]))] * t,
                                       atol=1e-12)
            np.testing.assert_allclose(trap[:, None] * t, t * h0, atol=1e-12)
            # identical fermions: every swap inside a component flips the sign
            for (i, j), perm in swaps.items():
                if labels[i] == labels[j]:
                    np.testing.assert_allclose(t[perm], -t, atol=1e-12)
            # every row carries the same block Hamiltonian and N_cm, whose interaction and
            # its derivative the pair rows of slots 0 and 1 give
            v_t = t.T @ v @ t
            np.testing.assert_allclose(v_t, v_0, atol=1e-12)
            np.testing.assert_allclose(v_t, v_b, atol=1e-12)
            np.testing.assert_allclose(t.T @ dv @ t, dv_b, atol=1e-12)
            np.testing.assert_allclose(t.T @ cm @ t, cm_b, atol=1e-12)
            if not contact:
                np.testing.assert_allclose(v_t, 0.0, atol=1e-12)
        if not contact:
            free.append(h0)
        q += rows
    # [1^N], even then odd: the trap energies of the occupations without a repeated mode
    assert len(free) == 2
    np.testing.assert_array_equal(np.sort(np.concatenate(free)), sorted(
        sum(r) + 0.5 * npart for r in itertools.combinations(range(n), npart) if sum(r) < n))
    q = np.hstack(q)
    np.testing.assert_allclose(q.T @ q, np.eye(q.shape[1]), atol=1e-12)
    assert q.shape[1] == _shell_count(n, npart, sizes)
    if npart < 4:
        cfg = EDConfig(npart, n, (1.0,), n_states=1, components=comp)
        assert diagonalize(cfg).basis_dim == _intrinsic_count(n, npart, sizes)
    else:
        assert sum(f.shape[1] * len(hp) for f, _, _, hp, _ in blocks) == _intrinsic_count(
            n, npart, sizes)
    if npart == 4 and sizes is None:
        # shapes (4), (3,1), (2,2), (2,1,1), (1,1,1,1), each even then odd
        assert [f.shape[1] for f, *_ in blocks] == [1, 1, 3, 3, 2, 2, 3, 3, 1, 1]


def test_mixed_blocks_isospectral():
    # The mixed irrep (2,1) is one block per parity with two rows: their
    # isometries are orthogonal, each swap maps their span into itself, and
    # both carry the same block Hamiltonian.
    h0, v, _ = shell_reference(3, 8, 5.0)
    h = h0 + v
    swaps, _ = _swap_and_parity(8, 3)
    occ, blocks = oracle._symmetry_blocks(8, 3, None)
    mixed = [_row_isometries(occ, [block]) for block in blocks if block[0].shape[1] > 1]
    assert len(mixed) == 2
    for ta, tb in mixed:
        span = np.hstack([ta, tb])
        for p in swaps.values():
            np.testing.assert_allclose(span @ (span.T @ span[p]), span[p], atol=1e-12)
        np.testing.assert_allclose(ta.T @ tb, 0.0, atol=1e-12)
        np.testing.assert_allclose(tb.T @ h @ tb, ta.T @ h @ ta, atol=1e-12)


def test_eigh_widths_one_solve_per_mixed_pair(monkeypatch):
    widths = []

    def recording_eigh(a):
        widths.append(len(a))
        return np.linalg.eigh(a)

    monkeypatch.setattr(oracle, "eigh", recording_eigh)

    def solved(npart, sizes):
        widths.clear()
        comp = None if sizes is None else ComponentSpec(sizes)
        return diagonalize(EDConfig(npart, 14, (20.0, 50.0), n_states=6, components=comp))

    dist = solved(3, None)
    # coupling by coupling: one dense solve per shape and parity on its intrinsic states,
    # the mixed irrep's second row mapped, and no solve of the contact-free (1,1,1)
    assert widths == [12, 9, 16, 19] * 2
    _, blocks = oracle._symmetry_blocks(14, 3, None)
    shared = sum((f.shape[1] - 1) * len(hp) for f, _, _, hp, _ in blocks)
    free = sum(len(hp) for *_, hp, contact in blocks if not contact)
    assert sum(widths[:4]) + shared + free == 56 + 35 + 14 == dist.basis_dim == math.comb(15, 2)
    ones = solved(3, (1, 1, 1))
    assert widths == [12, 9, 16, 19] * 2
    for name in ("energies", "tracked", "track_quality", "interaction"):
        np.testing.assert_array_equal(getattr(ones, name), getattr(dist, name))
    # two particles: the odd [1,1] block is antisymmetric, the even [2] one has 7 states
    solved(2, None)
    assert widths == [7] * 2
    solved(3, (2, 1))
    assert widths == [16, 19] * 2
    # identical fermions span only the contact-free shape: no solve at all
    for npart in (2, 3):
        assert solved(npart, (npart,)).basis_dim == _intrinsic_count(14, npart, (npart,)) \
            and widths == []


def test_mapped_vectors_are_eigenvectors():
    # All 21 intrinsic states of the shell of five quanta.  Each state is an eigenvector
    # in the columns of its block row; mapped by the row isometry T_f, built here, it is
    # an eigenvector of the shell Hamiltonian in the product basis.
    cfg = EDConfig(3, 6, (5.0, 20.0), n_states=21)
    occ, blocks = oracle._symmetry_blocks(6, 3, None)
    isometries = _row_isometries(occ, blocks)
    swaps, _ = _swap_and_parity(6, 3)
    for g, solved in zip(cfg.g_values, oracle._solve_blocks(cfg, occ, blocks), strict=True):
        h0, v, dv = shell_reference(3, 6, g)
        assert len(solved) == len(isometries) and sum(len(e) for e, _, _ in solved) == 21
        vals = np.concatenate([e for e, _, _ in solved])
        vecs = np.hstack([t @ y for t, (_, y, _) in zip(isometries, solved)])
        contact = np.concatenate([c for _, _, c in solved])
        resid = (h0 + v) @ vecs - vecs * vals
        assert np.max(np.linalg.norm(resid, axis=0)) <= 1e-10
        np.testing.assert_allclose(vecs.T @ vecs, np.eye(vecs.shape[1]), atol=1e-12)
        np.testing.assert_allclose(contact, np.einsum("ij,ij->j", vecs, dv @ vecs), atol=1e-12)
        # the vectors of every row of a multi-row block: class-sum value 0, the mixed irrep
        mixed = np.abs(sum(vecs[p] for p in swaps.values())).max(axis=0) < 1e-12
        assert np.sum(mixed) == sum(f.shape[1] * len(hp) for f, _, _, hp, _ in blocks
                                    if f.shape[1] > 1)
        # each of their energies comes from one solve, so the two rows agree bit for bit
        assert np.all(np.unique(vals[mixed], return_counts=True)[1] % 2 == 0)


def test_contact_free_states_are_trap_states():
    # Every intrinsic state of the antisymmetric shape is a column of its block's
    # isometry P, exactly at its trap energy and with exactly zero interaction.
    cfg = EDConfig(3, 6, (5.0, 20.0), n_states=21)
    occ, blocks = oracle._symmetry_blocks(6, 3, None)
    rows = [block for block in blocks for _ in range(block[0].shape[1])]
    free = [r for r, (*_, contact) in enumerate(rows) if not contact]
    for solved in oracle._solve_blocks(cfg, occ, blocks):
        anti = []
        for r in free:
            e, y, c = solved[r]
            _, _, p, hp, _ = rows[r]
            assert np.all(c == 0.0)
            np.testing.assert_array_equal(e, hp)
            np.testing.assert_array_equal(y, p)
            anti += list(e)
        assert len(anti) == _intrinsic_count(6, 3, (3,)) == 2
        np.testing.assert_array_equal(np.sort(anti), _intrinsic_levels(6, 3, (3,)))
    # Identical fermions: every state is one, tracked with overlap 1 at every coupling.
    for npart, n in ((2, 16), (3, 12)):
        res = diagonalize(EDConfig(npart, n, (5.0, 20.0, 80.0), n_states=8,
                                   components=ComponentSpec((npart,))))
        free = _intrinsic_levels(n, npart, (npart,))
        np.testing.assert_array_equal(res.energies, np.tile(free[:8], (3, 1)))
        np.testing.assert_array_equal(res.tracked, res.energies)
        assert np.all(res.interaction == 0.0)
        np.testing.assert_allclose(res.track_quality, 1.0, atol=1e-12)
    # The K = 0 state of three distinguishable particles is the antisymmetric ground
    # state: its interaction and its fitted K are exactly 0.0.
    res = diagonalize(EDConfig(3, 10, (20.0, 50.0, 100.0), n_states=6))
    (j,) = np.flatnonzero(np.all(res.interaction == 0.0, axis=0))
    fit = slope_fit(res, j)
    assert fit.k_value == 0.0 and fit.uncertainty == 0.0
    assert res.tracked[0, j] == 1.5 + 3.0


@pytest.mark.parametrize("sizes", [None, (2, 1)])
def test_kept_states_match_full_run(sizes):
    # With n_states no narrower than any block, every block is solved whole
    # either way, so each row keeps the states of the full run, bit for bit, and
    # the energies are the lowest n_states of the merged full spectrum.
    comp = None if sizes is None else ComponentSpec(sizes)
    occ, blocks = oracle._symmetry_blocks(6, 3, comp)
    dim = sum(f.shape[1] * len(hp) for f, _, _, hp, _ in blocks)
    cfg = EDConfig(3, 6, (5.0, 20.0), n_states=dim, components=comp)
    full = list(oracle._solve_blocks(cfg, occ, blocks))
    assert len(full) == len(cfg.g_values)
    merged = [np.sort(np.concatenate([e for e, _, _ in whole]), kind="stable") for whole in full]
    for n_states in (max(len(hp) for *_, hp, _ in blocks), dim - 1):
        kept = replace(cfg, n_states=n_states)
        compared = 0
        for part, whole in zip(oracle._solve_blocks(kept, occ, blocks), full, strict=True):
            compared += 1
            assert len(part) == len(whole)
            for ours, theirs in zip(part, whole):
                assert [a.tobytes() for a in ours] == [b.tobytes() for b in theirs]
        assert compared == len(cfg.g_values)
        res = diagonalize(kept)
        for gi, vals in enumerate(merged):
            assert res.energies[gi].tobytes() == vals[:n_states].tobytes()
        if n_states == dim - 1:  # the contact-free [1^3] states are among them
            assert np.any(res.interaction == 0.0)
    # Fewer states than a block holds: its lowest ones, from a partial solve.
    res = diagonalize(replace(cfg, n_states=4))
    np.testing.assert_allclose(res.energies, [vals[:4] for vals in merged], rtol=0, atol=1e-12)


def _tracked_reference(cfg):
    """Tracked energies, overlaps and interaction expectations of the lowest
    n_states eigenvectors of the dense shell Hamiltonian on the states of N_cm = 0
    at the first coupling, matched to all its eigenvectors at each later coupling
    by product-basis overlap, as diagonalize matches them.

    A degenerate level has no preferred eigenbasis, so at every coupling after
    the first its eigenvectors are rotated onto the previous states that
    project on it most, by the polar factor of their overlaps.
    """
    sizes = None if cfg.components is None else cfg.components.sizes
    out, prev = [], None
    for g in cfg.g_values:
        h0, v, dv, _ = intrinsic_reference(cfg.n_particles, cfg.n_modes, g, sizes)
        vals, vecs = np.linalg.eigh(h0 + v)
        if prev is None:
            m = cfg.n_states
            assert vals[m] - vals[m - 1] > 1e-8, "a degenerate level straddles the cutoff"
            perm, quality = np.arange(m), np.ones(m)
        else:
            start = np.flatnonzero(np.diff(vals, prepend=-np.inf, append=np.inf) > 1e-8)
            for a, b in zip(start, start[1:]):
                m = vecs[:, a:b].T @ prev
                near = np.argsort(-np.linalg.norm(m, axis=0), kind="stable")[:b - a]
                # zero columns pad a level wider than the tracked states
                u, _, vt = np.linalg.svd(np.pad(m[:, near], ((0, 0), (0, b - a - len(near)))))
                vecs[:, a:b] = vecs[:, a:b] @ (u @ vt)
            overlap = np.abs(prev.T @ vecs)
            rows, perm = linear_sum_assignment(-overlap)
            quality = overlap[rows, perm]
        prev = vecs[:, perm]
        out.append((vals[perm], quality, np.einsum("ij,ij->j", prev, dv @ prev)))
    return [np.array(part) for part in zip(*out)]


@pytest.mark.parametrize("npart, n_modes, sizes, g_values, n_states, crossed", [
    (2, 8, None, (5.0, 20.0, 80.0), 4, False),
    # two particles never cross: each interacting level rises toward the free level above it
    (2, 8, None, (0.5, 5.0, 200.0), 6, False),
    (3, 6, None, (1.0, 2.0, 3.0), 6, True),
    (3, 7, (2, 1), (5.0, 20.0, 80.0), 6, False),
    (3, 7, (2, 1), (0.5, 3.0, 200.0), 9, True),
    # column 9 rises past the lowest ten
    (3, 6, None, (2.0, 5.0, 20.0), 10, True),
])
def test_tracking_matches_dense_reference(npart, n_modes, sizes, g_values, n_states, crossed):
    # Overlaps in block coordinates track the states as product-basis overlaps do.
    comp = None if sizes is None else ComponentSpec(sizes)
    cfg = EDConfig(npart, n_modes, g_values, n_states=n_states, components=comp)
    res = diagonalize(cfg)
    tracked, quality, interaction = _tracked_reference(cfg)
    np.testing.assert_allclose(res.tracked, tracked, rtol=0, atol=1e-10)
    np.testing.assert_allclose(res.interaction, interaction, rtol=0, atol=1e-10)
    np.testing.assert_allclose(res.track_quality, quality, rtol=0, atol=1e-12)
    # every match is unambiguous
    assert np.min(res.track_quality) > 0.6
    # crossed: a state kept at one coupling leaves the lowest n_states at the
    # next, where tracking follows it up its block row
    assert np.any(res.tracked > res.energies[:, -1:] + 1e-9) == crossed


def test_tracked_states_keep_their_block_row():
    # Column 9 starts in the odd symmetric row, its one state among the lowest ten
    # intrinsic states, and stays there: a state cannot leave its block row.
    cfg = EDConfig(3, 6, (2.0, 5.0, 20.0), n_states=10)
    res = diagonalize(cfg)
    first = diagonalize(replace(cfg, g_values=(2.0,)))
    rows = [s[0] for s in res.states]
    assert rows == [s[0] for s in first.states] and rows.count(1) == 1 and rows[9] == 1
    assert np.min(res.track_quality) > 0.95
    # it rises to 6.81 at g = 20, above the lowest ten
    assert res.tracked[-1, 9] > res.energies[-1, 9] + 0.3
    own = slope_fit(res, 9, reduced=res)
    assert own.truncation_shift == 0.0
    # A rerun that tracks no state of column 9's row: the nearest K among its columns.
    nine = diagonalize(replace(cfg, n_states=9))
    assert 1 not in [s[0] for s in nine.states]
    assert slope_fit(res, 9, reduced=nine).truncation_shift == min(
        abs(slope_fit(nine, j, reduced=nine).k_value - own.k_value) for j in range(9))


@pytest.mark.parametrize("npart, n_modes, sizes, g_values, n_states", [
    (2, 8, None, (5.0, 20.0, 80.0), 4),
    (2, 8, None, (2.0, 5.0, 20.0, 80.0), 5),
    (3, 6, None, (5.0, 20.0, 80.0), 4),
    (3, 7, None, (5.0, 20.0, 80.0), 5),
    (3, 7, (2, 1), (2.0, 5.0, 20.0), 5),
])
def test_matcher_maximizes_total_overlap(monkeypatch, npart, n_modes, sizes, g_values, n_states):
    # One assignment per tracked block row and coupling, against every injection of
    # the row's tracked states into its solved ones: each maximizes the row's summed
    # overlap, and so their sum the total.  Its columns come in row order.
    matcher, calls = oracle._assignment, []

    def recording(overlap):
        cols = matcher(overlap)
        calls.append((overlap, cols))
        return cols

    monkeypatch.setattr(oracle, "_assignment", recording)
    comp = None if sizes is None else ComponentSpec(sizes)
    res = diagonalize(EDConfig(npart, n_modes, g_values, n_states=n_states, components=comp))
    row = np.array([state[0] for state in res.states])
    tracked_rows = np.unique(row)
    assert len(calls) == (len(g_values) - 1) * len(tracked_rows)
    for i, (overlap, cols) in enumerate(calls):
        gi, r = divmod(i, len(tracked_rows))
        at = np.flatnonzero(row == tracked_rows[r])
        m, k = overlap.shape
        assert m == len(at) <= k <= n_states
        rows = np.arange(m)
        assert len(set(cols)) == m
        injections = np.array(list(itertools.permutations(range(k), m)))
        best = overlap[np.arange(m), injections].sum(axis=1).max()
        assert overlap[rows, cols].sum() >= best - 1e-12
        np.testing.assert_allclose(res.track_quality[gi + 1, at], overlap[rows, cols],
                                   rtol=0, atol=1e-15)


def test_special_functions_match_scipy():
    # ln Gamma and psi at the arguments E/2 + 1/4 and E/2 + 3/4 of _relative_interaction, for
    # every even level E up to the cap.  ln Gamma reaches 75 there, where one ulp is 1.4e-14,
    # so it may also differ by 1e-15 relative (SciPy's gammaln is itself 2 ulp from the
    # correctly rounded value at the top).
    e = np.linspace(0.5, 2 * (oracle.MODE_CAP // 2) + 1.5, 20001)
    for x in (0.5 * e + 0.25, 0.5 * e + 0.75):
        np.testing.assert_allclose(oracle._lgamma(x), gammaln(x), rtol=1e-15, atol=1e-14)
        np.testing.assert_allclose(oracle._digamma(x), digamma(x), rtol=0, atol=1e-14)


def test_t_quantile_matches_scipy():
    for dof in range(1, 61):
        assert oracle._t_quantile(dof) == pytest.approx(stdtrit(dof, 0.975), rel=1e-12, abs=0)


def test_assignment_matches_scipy():
    # random m x m overlaps, some with ties and zeros: the same greatest total, each column once
    rng = np.random.default_rng(32)
    for m in range(1, 13):
        for draw in (rng.random((m, m)), np.round(rng.random((m, m)), 1),
                     rng.random((m, m)) * (rng.random((m, m)) < 0.3), np.zeros((m, m)),
                     np.ones((m, m))):
            cols = oracle._assignment(draw)
            assert sorted(cols) == list(range(m))
            rows, best = linear_sum_assignment(draw, maximize=True)
            assert draw[np.arange(m), cols].sum() == pytest.approx(draw[rows, best].sum(),
                                                                    rel=1e-14, abs=1e-14)
    # more columns than rows: each row gets its own column of the best injection
    score = rng.random((4, 7))
    cols = oracle._assignment(score)
    assert len(set(cols)) == 4
    rows, best = linear_sum_assignment(score, maximize=True)
    assert score[np.arange(4), cols].sum() == pytest.approx(score[rows, best].sum(), rel=1e-14)


def test_diagonalize_memory_bound():
    # tracemalloc peak of the shell of 29 quanta, the default of `validate`: 84.8 MB with
    # the isometries and bracket maps indexed over the 27,000 states of the product cube,
    # 80.2 MB indexed by the 4,960 shell positions with the interaction rows of every
    # coupling alive at once, 40.1 MB with those of one coupling at a time, 32.8 MB with
    # the blocks solved on their intrinsic states alone, 9.9 MB with the interaction built
    # from dense pair rows.  The bound leaves 10%.  The run is traced cold: diagonalize
    # imports nothing on its first call.
    cfg = EDConfig(3, 30, (20.0, 50.0, 100.0), n_states=10)
    tracemalloc.start()
    try:
        diagonalize(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10.9e6


def test_buffer_states_keep_tracking():
    # A level crossing at the cutoff of the ten retained states: each column
    # still follows its own state.
    res = diagonalize(EDConfig(3, 14, (20.0, 50.0, 100.0), n_states=10))
    assert res.tracked.shape == res.track_quality.shape == (3, 10)
    assert np.min(res.track_quality) >= 0.99


def test_shell_two_body_matches_reference():
    # Two particles on the shell of at most 11 quanta: the intrinsic states are the
    # centre-of-mass ground orbital with every relative level n <= 11.  The even ones are
    # the exact interacting levels (V_eff from the exact two-body states), the odd ones
    # the free levels n + 1/2, each shifted by 1/2.
    e_max, g_values = 11, (20.0, 50.0, 100.0)
    res = diagonalize(EDConfig(2, e_max + 1, g_values, n_states=e_max + 1))
    assert res.basis_dim == e_max + 1
    for gi, g in enumerate(g_values):
        exact = [two_body_reference(g, n // 2) if n % 2 == 0 else n + 1.0 for n in range(e_max + 1)]
        np.testing.assert_allclose(res.energies[gi], np.sort(exact), rtol=0, atol=1e-10)


@pytest.mark.parametrize("npart, sizes", [(2, None), (2, (2,)), (3, None), (3, (2, 1)), (3, (3,))])
def test_shell_block_invariants(npart, sizes):
    # The shell of at most 6 quanta in 7 modes: its block isometries orthonormal, their
    # span mapped into itself by every swap (for identical fermions, negated by every swap
    # inside a component).  At weak coupling V_eff is the bare contact inside the shell,
    # and so is its derivative.
    n, g = 7, 1e-5
    comp = None if sizes is None else ComponentSpec(sizes)
    swaps, _ = _swap_and_parity(n, npart)
    occ, blocks = oracle._symmetry_blocks(n, npart, comp)
    rows = _row_isometries(occ, blocks)
    q = np.hstack(rows)
    np.testing.assert_allclose(q.T @ q, np.eye(q.shape[1]), atol=1e-12)
    labels = np.repeat(np.arange(len(sizes)), sizes) if sizes else np.arange(npart)
    for (i, j), p in swaps.items():
        if sizes is None:
            np.testing.assert_allclose(q @ (q.T @ q[p]), q[p], atol=1e-12)
        elif labels[i] == labels[j]:
            np.testing.assert_allclose(q[p], -q, atol=1e-12)
    assert q.shape[1] == _shell_count(n, npart, sizes)
    cfg = EDConfig(npart, n, (g,), n_states=1, components=comp)
    assert diagonalize(cfg).basis_dim == _intrinsic_count(n, npart, sizes)
    w = _contact_matrix(n, npart)
    first = np.cumsum([0] + [f.shape[1] for f, *_ in blocks])
    for start, (_, iso, p, _, contact) in zip(first, blocks):
        v, dv = _block_interactions(occ, iso, len(p), g)
        bare = rows[start].T @ w @ rows[start]
        np.testing.assert_allclose(v / g, bare, rtol=0, atol=2e-5)
        np.testing.assert_allclose(dv, bare, rtol=0, atol=2e-5)
        if not contact:  # the bare contact vanishes on [1^N] too
            np.testing.assert_allclose(bare, 0.0, rtol=0, atol=1e-12)


def test_shell_interaction_is_energy_derivative():
    # Hellmann-Feynman on the shell: <dV_eff/dg> is dE/dg of the shell model
    res = diagonalize(EDConfig(3, 10, (4.975, 5.0, 5.025), n_states=6))
    fd = (res.tracked[2] - res.tracked[0]) / 0.05
    np.testing.assert_allclose(res.interaction[1], fd, rtol=1e-4, atol=1e-9)


def test_shell_components_share_k():
    # (2,1) keeps one row of each mixed block and the antisymmetric shape of the
    # distinguishable shell, so its three K are among the distinguishable six.
    def fitted(comp, m):
        cfg = EDConfig(3, 12, (20.0, 50.0, 100.0), n_states=m + 2, components=comp)
        res, reduced = diagonalize(cfg), diagonalize(replace(cfg, n_modes=8))
        return np.sort([slope_fit(res, j, reduced=reduced).k_value for j in range(m)])

    dist, pair = fitted(None, 6), fitted(ComponentSpec((2, 1)), 3)
    gamma_3 = 27.0 / (8.0 * math.sqrt(2.0 * math.pi))
    np.testing.assert_allclose(dist, gamma_3 * np.array([0, 1, 1, 3, 3, 4]), rtol=0.01, atol=1e-9)
    np.testing.assert_allclose(pair, dist[[0, 1, 3]], rtol=1e-9, atol=1e-12)


def test_shell_reduced_state_matched_by_overlap():
    # The rerun's columns are matched by overlap after embedding, whatever their order:
    # against the run itself each column is its own match, and reversing the rerun's
    # columns changes no shift.  The mixed pairs fit alike.
    cfg = EDConfig(3, 12, (20.0, 50.0, 100.0), n_states=8)
    res, reduced = diagonalize(cfg), diagonalize(replace(cfg, n_modes=8))
    assert all(slope_fit(res, j, reduced=res).truncation_shift == 0.0 for j in range(8))
    rev = slice(None, None, -1)
    flipped = replace(reduced, tracked=reduced.tracked[:, rev], interaction=reduced.interaction[:, rev],
                      track_quality=reduced.track_quality[:, rev], states=reduced.states[rev])
    fits = [slope_fit(res, j, reduced=reduced) for j in range(6)]
    assert [f.truncation_shift for f in fits] == [
        slope_fit(res, j, reduced=flipped).truncation_shift for j in range(6)]
    # Each match is the nearest K among the rerun's states of the same block row.  The
    # nearest K overall would match the top state of the even symmetric block to its odd
    # partner, 7e-15 nearer.
    own = [(reduced.states[j][0], slope_fit(reduced, j, reduced=reduced).k_value) for j in range(8)]
    for j, f in enumerate(fits):
        assert f.uncertainty == f.residual_halfwidth + f.truncation_shift + f.hf_gap
        assert f.truncation_shift == min(abs(f.k_value - k) for row, k in own
                                         if row == res.states[j][0])
    k = sorted(f.k_value for f in fits)
    assert k[1] == k[2] and k[3] == k[4]


@pytest.fixture(scope="module")
def state3():
    return make_level(HarmonicBasis(), 3)


@pytest.fixture(scope="module")
def mc3(state3):
    return mc_gammas(state3, samples=400_000, seed=3)


def test_monte_carlo_matches_quadrature(state3, mc3):
    for w, exact in zip(mc3, all_gammas(state3)):
        assert w.method == "monte-carlo"
        assert w.error < 0.02
        assert abs(w.value - exact.value) < 3.0 * (w.error + exact.error)


def test_monte_carlo_deterministic(state3, mc3):
    again = mc_gammas(state3, samples=400_000, seed=3)
    for a, b in zip(mc3, again):
        assert b.value == a.value
        assert b.error == a.error


def test_monte_carlo_matches_exact_four_body():
    state4 = make_level(HarmonicBasis(), 4)
    exact = all_gammas(state4)
    mc = mc_gammas(state4, samples=400_000, seed=2)
    for e, w in zip(exact, mc):
        assert w.error < 0.02 * w.value
        assert abs(w.value - e.value) < 3.0 * w.error


def test_monte_carlo_input_checks(state3):
    with pytest.raises(ValueError, match="sample"):
        mc_gammas(state3, samples=100)
    with pytest.raises(ValueError, match="2 particles"):
        mc_gammas(make_level(HarmonicBasis(), 1), samples=10_000)
