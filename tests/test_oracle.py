"""Finite-coupling oracle: shell blocks, the manifold at infinite coupling, Monte Carlo weights."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy import sparse
from scipy.integrate import quad
from scipy.special import digamma, gammaln

import tonks.oracle as oracle
from tonks.oracle import EDConfig, diagonalize, k_uncertainty
from reference import (delta_tensor, intrinsic_reference, mc_gammas, shell_cm, shell_reference,
                       shell_states, sorting_young, two_body_reference, two_body_slope)
from tonks.sectors import (ComponentSpec, _partitions, _young_generators, build_graph,
                           projected_laplacian)
from tonks.slater import make_level
from tonks.spectrum import solve
from tonks.traps import HarmonicBasis
from tonks.weights import all_gammas

GAMMA_2 = math.sqrt(2.0 / math.pi)
GAMMA_3 = 27.0 / (8.0 * math.sqrt(2.0 * math.pi))
# the Laplacian K of two and of three distinguishable particles
K_EXACT = {2: GAMMA_2 * np.array([0.0, 2.0]), 3: GAMMA_3 * np.array([0.0, 1.0, 1.0, 3.0, 3.0, 4.0])}


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
        EDConfig(n_particles=2, n_modes=10, g_values=(1.0,), components=ComponentSpec((3,)))
    # K needs no coupling
    assert EDConfig(2, 10).g_values == ()


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
    return diagonalize(EDConfig(n_particles=2, n_modes=40, g_values=(20.0, 50.0, 100.0)))


def test_ed_matches_two_body_reference(ed_two):
    # the shell's effective interaction comes from the exact two-body states,
    # so two particles keep the exact ground energy at every coupling
    for gi, g in enumerate(ed_two.config.g_values):
        assert abs(ed_two.energies[gi, 0] - two_body_reference(g)) < 1e-10


def test_ed_fermionic_state_flat(ed_two):
    # the odd (fermionized) state of the manifold: energy 2 at every coupling and no
    # interaction, so its slope and its K are exactly 0
    assert ed_two.energies.shape == ed_two.slopes.shape == (3, 2)
    np.testing.assert_allclose(ed_two.energies[:, 1], 2.0, rtol=0, atol=1e-9)
    assert np.all(ed_two.energies[:, 0] < 2.0 - 1e-3)
    assert np.all(ed_two.slopes[:, 0] == 0.0) and ed_two.k_values[0] == 0.0


def test_slope_fit_two_body(ed_two):
    # The shell is exact for two particles, so their K at 1/g = 0 is 2 gamma_2 up to the
    # rounding of the central difference, inside its uncertainty.  The finite-coupling
    # slopes g^2 dE/dg are those of the transcendental reference, rising toward K.
    k_exact = 2.0 * GAMMA_2
    assert abs(ed_two.k_values[1] - k_exact) < 1e-8 * k_exact
    unc = k_uncertainty(ed_two, diagonalize(EDConfig(2, 36)))
    assert abs(ed_two.k_values[1] - k_exact) <= unc < 1e-6
    for gi, g in enumerate(ed_two.config.g_values):
        assert ed_two.slopes[gi, 1] == pytest.approx(two_body_slope(g), rel=1e-7)
    assert np.all(np.diff(ed_two.slopes[:, 1]) > 0) and ed_two.slopes[-1, 1] < k_exact


def test_one_coupling_or_none():
    # K needs no coupling; each coupling adds its row of energies and slopes and changes no K
    bare = diagonalize(EDConfig(3, 10))
    assert bare.config.g_values == () and bare.energies.shape == bare.slopes.shape == (0, 6)
    one = diagonalize(EDConfig(3, 10, (50.0,)))
    assert one.energies.shape == one.slopes.shape == (1, 6)
    assert one.k_values.tobytes() == bare.k_values.tobytes() and one.step_shift == bare.step_shift


def test_identical_pair_has_no_contact():
    cfg = EDConfig(n_particles=2, n_modes=12, g_values=(5.0, 10.0), components=ComponentSpec((2,)))
    res = diagonalize(cfg)
    # as many intrinsic states as pairs of distinct orbitals with exactly 11 quanta
    assert res.basis_dim == sum(a + b == 11 for a, b in itertools.combinations(range(12), 2)) == 6
    # one word: the free state at E_F = 2 at every coupling, with no interaction
    assert res.energies.tolist() == [[2.0], [2.0]]
    assert res.k_values.tolist() == [0.0] and np.all(res.slopes == 0.0) and res.step_shift == 0.0


def test_component_spectrum_nested_in_full():
    full = diagonalize(EDConfig(3, 8, (8.0,)))
    part = diagonalize(EDConfig(3, 8, (8.0,), components=ComponentSpec((2, 1))))
    assert part.basis_dim == sum(a < b and a + b + c == 7
                                 for a, b, c in itertools.product(range(8), repeat=3)) == 16
    assert part.k_values.shape == (3,) and full.k_values.shape == (6,)
    for sub, whole in ((part.energies[0], full.energies[0]), (part.slopes[0], full.slopes[0]),
                       (part.k_values, full.k_values)):
        for e in sub:
            assert np.min(np.abs(whole - e)) < 1e-8


def test_interaction_is_energy_derivative():
    # Hellmann-Feynman check inside the truncated model itself: g^2 dE/dg of the interacting state
    res = diagonalize(EDConfig(n_particles=2, n_modes=30, g_values=(4.975, 5.0, 5.025)))
    fd = (res.energies[2, 0] - res.energies[0, 0]) / 0.05 * 5.0**2
    hf = res.slopes[1, 1]
    assert abs(fd - hf) / abs(hf) < 1e-4


@pytest.mark.parametrize("npart, n_modes, sizes", [
    (2, 10, None), (2, 10, (2,)),
    (3, 6, None), (3, 6, (2, 1)), (3, 6, (1, 2)), (3, 6, (3,)),
    (3, 8, None), (3, 8, (2, 1)), (3, 8, (1, 2)), (3, 8, (3,)),
])
def test_blocks_match_dense_reference(npart, n_modes, sizes):
    # The dense shell Hamiltonian restricted to the kernel of the centre-of-mass quanta and
    # solved whole: its lowest states, one per word and the only ones below E_F + 1/2, are the
    # manifold at 1/g = 0 and at each coupling, and -dV_eff/dx on them gives K and the slopes.
    comp = None if sizes is None else ComponentSpec(sizes)
    res = diagonalize(EDConfig(npart, n_modes, (5.0, 20.0), components=comp))
    _, blocks = oracle._symmetry_blocks(n_modes, npart, comp)
    # every row of every block
    assert sum(f.shape[1] * len(hp) for f, _, _, hp, _ in blocks) == res.basis_dim
    words = len(res.k_values)
    for gi, g in enumerate((math.inf, *res.config.g_values)):
        h0, v, w, _ = intrinsic_reference(npart, n_modes, g, sizes)
        assert res.basis_dim == len(h0)
        vals, vecs = np.linalg.eigh(h0 + v)
        assert vals[words - 1] < 0.5 * npart**2 + 0.5 < vals[words]
        on = vecs[:, :words].T @ w @ vecs[:, :words]
        if gi == 0:
            np.testing.assert_allclose(res.k_values, np.linalg.eigvalsh(on), rtol=0, atol=1e-8)
        else:
            np.testing.assert_allclose(res.energies[gi - 1], vals[:words], rtol=0, atol=1e-10)
            # the rows of a degenerate pair carry the same expectation, in any basis
            np.testing.assert_allclose(res.slopes[gi - 1], np.sort(np.diagonal(on)), rtol=0,
                                       atol=1e-8)

def _row_isometries(occ, blocks):
    """T_f = sum_k f[k, r] T_(e_k) of every retained row r, block by block in the row order
    of _symmetry_blocks, as dense arrays on the shell occ, written out from each block's
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


def _block_interactions(occ, iso, n_cols, g, step=oracle.STEP):
    """The interaction of a block on all its columns, not only the intrinsic ones (P = 1),
    and -dV_eff/dx at x = 1/g by a central difference of the given step, from the pair rows
    of _pair_rows."""
    e_max, x = occ.max(), 1.0 / g
    pair = oracle._pair_rows(occ, iso, np.eye(n_cols), oracle._brackets(e_max))
    v, down, up = oracle._relative_interaction(np.array([x, x - step, x + step]), e_max // 2 + 1)
    return oracle._interaction(pair, v), oracle._interaction(pair, (down - up) / (2 * step))


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


@pytest.mark.parametrize("npart, n_modes, sizes, atol", [
    (2, 14, None, 0.0), (2, 14, (2,), 0.0),
    (3, 14, None, 0.0), (3, 14, (2, 1), 0.0), (3, 14, (1, 2), 0.0), (3, 14, (3,), 0.0),
    (4, 9, None, 0.0), (4, 9, (2, 2), 0.0), (4, 9, (2, 1, 1), 0.0),
    (5, 7, None, 1e-15), (5, 7, (3, 2), 1e-15),
])
def test_gathers_match_bubble_sort_young(npart, n_modes, sizes, atol):
    # _symmetry_blocks reads rho(sigma_w) from the ordering graph's Young matrices; the reference
    # multiplies Young's generators along the bubble sort of w.  Every block's coef is
    # sqrt(d / |orbit|) rho(sigma_w) e of the fixed vectors e of the tie pattern of w's orbit:
    # equal bit for bit up to N = 4, and within 1e-15 at N = 5.
    occ, blocks = oracle._symmetry_blocks(n_modes, npart, sizes and ComponentSpec(sizes))
    r, orbit, size = np.unique(np.sort(occ, axis=1), axis=0, return_inverse=True,
                               return_counts=True)
    orbit = orbit.reshape(-1)
    ties = (r[:, 1:] == r[:, :-1]) @ (1 << np.arange(npart - 1))
    spec = sizes or (1,) * npart
    label = np.repeat(np.arange(len(spec)), spec)
    kept = []
    for lam in _partitions(npart):
        gens = _young_generators(lam)
        d = len(gens[0])
        f = oracle._kernel(sum((np.eye(d) + g for g, a, b in zip(gens, label, label[1:]) if a == b),
                               np.zeros((d, d))))
        if f.shape[1]:
            e = np.zeros((2 ** (npart - 1), d, d))
            for p in set(ties.tolist()):
                basis = oracle._kernel(sum((np.eye(d) - g for k, g in enumerate(gens) if p >> k & 1),
                                           np.zeros((d, d))))
                e[p, :, :basis.shape[1]] = basis
            coef = sorting_young(occ, lam) @ e[ties[orbit]] * np.sqrt(d / size[orbit])[:, None, None]
            kept += [(f, coef)] * 2  # the even and the odd block of the shape
    assert len(blocks) == len(kept)
    for (f, (states, _, coef), *_), (f_ref, coef_ref) in zip(blocks, kept):
        np.testing.assert_array_equal(f, f_ref)
        np.testing.assert_allclose(coef, coef_ref[states], rtol=0, atol=atol)



@pytest.mark.parametrize("npart, sizes", [(2, None), (2, (2,)), (3, None), (3, (2, 1))])
def test_intrinsic_dimension(monkeypatch, npart, sizes):
    # basis_dim counts the intrinsic states, as many as the shell states of exactly
    # n_modes - 1 quanta; an empty block takes no eigensolve, and a block without a
    # manifold state none at the couplings.
    widths = []

    def recording_eigh(a):
        widths.append(len(a))
        return np.linalg.eigh(a)

    monkeypatch.setattr(oracle, "eigh", recording_eigh)
    comp = None if sizes is None else ComponentSpec(sizes)
    dim = _intrinsic_count(14, npart, sizes)
    assert dim == {(2, None): 14, (2, (2,)): 7, (3, None): 105, (3, (2, 1)): 49}[npart, sizes]
    res = diagonalize(EDConfig(npart, 14, (20.0, 50.0), components=comp))
    assert res.basis_dim == dim
    _, blocks = oracle._symmetry_blocks(14, npart, comp)
    assert 0 not in widths
    solved = [len(hp) for *_, hp, contact in blocks if contact and len(hp)]
    # block by block: at 1/g = 0, then at each coupling if the block holds manifold states
    assert widths == {(2, None): [7] * 3, (2, (2,)): [],
                      (3, None): [12] * 3 + [9] + [16] * 3 + [19] * 3,
                      (3, (2, 1)): [16] * 3 + [19] * 3}[npart, sizes]
    assert [w for w, _ in itertools.groupby(widths)] == solved
    if npart == 2:
        # two particles: one intrinsic state per relative level, the even ones symmetric,
        # the odd ones antisymmetric, so the [2]-odd and [1,1]-even blocks are empty
        assert [len(hp) for *_, hp, _ in blocks] == ([7, 0, 0, 7] if sizes is None else [0, 7])
        _, capped = oracle._symmetry_blocks(oracle.MODE_CAP, 2, None)
        assert [len(hp) for *_, hp, _ in capped] == [30, 0, 0, 30]


@pytest.mark.parametrize("npart, sizes", [(2, None), (2, (2,)), (3, None), (3, (2, 1))])
def test_kept_states_have_no_centre_of_mass_quanta(npart, sizes):
    # Every manifold state, at 1/g = 0 and at each coupling, mapped to the product basis
    # through its row isometry T_f, has <N_cm> = 0, against N_cm written out by loops.
    comp = None if sizes is None else ComponentSpec(sizes)
    n = 8 if npart == 3 else 10
    cfg = EDConfig(npart, n, (5.0, 20.0), components=comp)
    occ, blocks = oracle._symmetry_blocks(n, npart, comp)
    isometries = iter(_row_isometries(occ, blocks))
    cm = shell_cm(npart, n)
    kept = 0
    for (f, *_), (_, _, solved) in zip(blocks, oracle._solve_blocks(cfg, occ, blocks), strict=True):
        for t in [next(isometries) for _ in range(f.shape[1])]:
            assert len(solved) == 3
            for _, _, y in solved:
                vecs = t @ y
                np.testing.assert_allclose(np.einsum("ij,ij->j", vecs, cm @ vecs), 0.0, rtol=0,
                                           atol=1e-12)
            kept += y.shape[1]
    assert kept == len(diagonalize(cfg).k_values)

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
        assert diagonalize(EDConfig(npart, n, components=comp)).basis_dim == _intrinsic_count(n, npart, sizes)
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
        return diagonalize(EDConfig(npart, 14, (20.0, 50.0), components=comp))

    dist = solved(3, None)
    # block by block, one dense solve per shape and parity on its intrinsic states at 1/g = 0,
    # and one at each coupling if it holds manifold states (all but the odd symmetric block);
    # the mixed irrep's second row mapped, and no solve of the contact-free (1,1,1)
    assert widths == [12] * 3 + [9] + [16] * 3 + [19] * 3
    _, blocks = oracle._symmetry_blocks(14, 3, None)
    shared = sum((f.shape[1] - 1) * len(hp) for f, _, _, hp, _ in blocks)
    free = sum(len(hp) for *_, hp, contact in blocks if not contact)
    assert 12 + 9 + 16 + 19 + shared + free == 56 + 35 + 14 == dist.basis_dim == math.comb(15, 2)
    ones = solved(3, (1, 1, 1))
    assert widths == [12] * 3 + [9] + [16] * 3 + [19] * 3
    for name in ("k_values", "energies", "slopes"):
        np.testing.assert_array_equal(getattr(ones, name), getattr(dist, name))
    assert ones.step_shift == dist.step_shift
    # two particles: the odd [1,1] block is antisymmetric, the even [2] one has 7 states
    solved(2, None)
    assert widths == [7] * 3
    solved(3, (2, 1))
    assert widths == [16] * 3 + [19] * 3
    # identical fermions span only the contact-free shape: no solve at all
    for npart in (2, 3):
        assert solved(npart, (npart,)).basis_dim == _intrinsic_count(14, npart, (npart,)) \
            and widths == []


def _block_rows(cfg, occ, blocks):
    """The manifold of _solve_blocks repeated for every row of its block, in the row order of
    _row_isometries."""
    return [solved for (f, *_), (_, _, solved) in zip(blocks, oracle._solve_blocks(cfg, occ, blocks))
            for _ in range(f.shape[1])]


def test_mapped_vectors_are_eigenvectors():
    # The six manifold states of the shell of five quanta, at 1/g = 0 and at two couplings.
    # Each state is an eigenvector in the columns of its block row; mapped by the row
    # isometry T_f, built here, it is an eigenvector of the shell Hamiltonian in the product
    # basis, with the expectation of -dV_eff/dx that the oracle gives it.
    cfg = EDConfig(3, 6, (5.0, 20.0))
    occ, blocks = oracle._symmetry_blocks(6, 3, None)
    isometries = _row_isometries(occ, blocks)
    swaps, _ = _swap_and_parity(6, 3)
    rows = _block_rows(cfg, occ, blocks)
    assert len(rows) == len(isometries)
    for i, g in enumerate((math.inf, *cfg.g_values)):
        h0, v, w = shell_reference(3, 6, g)
        vals = np.concatenate([row[i][0] for row in rows])
        slopes = np.concatenate([row[i][1] for row in rows])
        vecs = np.hstack([t @ row[i][2] for t, row in zip(isometries, rows)])
        assert len(vals) == 6
        resid = (h0 + v) @ vecs - vecs * vals
        assert np.max(np.linalg.norm(resid, axis=0)) <= 1e-10
        np.testing.assert_allclose(vecs.T @ vecs, np.eye(vecs.shape[1]), atol=1e-12)
        np.testing.assert_allclose(slopes, np.einsum("ij,ij->j", vecs, w @ vecs), atol=1e-9)
        # the vectors of the two-row blocks: class-sum value 0, the mixed irrep
        mixed = np.abs(sum(vecs[p] for p in swaps.values())).max(axis=0) < 1e-12
        assert np.sum(mixed) == 4
        # each of their energies comes from one solve, so the two rows agree bit for bit
        assert np.all(np.unique(vals[mixed], return_counts=True)[1] % 2 == 0)


def test_contact_free_states_are_trap_states():
    # The manifold state of the antisymmetric shape is a column of its block's isometry P,
    # exactly at its trap energy E_F with exactly zero interaction, at every coupling.
    cfg = EDConfig(3, 6, (5.0, 20.0))
    occ, blocks = oracle._symmetry_blocks(6, 3, None)
    anti = []
    for (_, _, p, hp, contact), (k, k2, solved) in zip(blocks, oracle._solve_blocks(cfg, occ, blocks)):
        if contact:
            continue
        assert len(solved) == 3 and np.all(k == 0.0) and np.all(k2 == 0.0)
        for e, c, y in solved:
            assert np.all(c == 0.0)
            np.testing.assert_array_equal(e, hp[:len(e)])
            np.testing.assert_array_equal(y, p[:, :len(e)])
        anti += list(e)
    assert anti == [4.5] == _intrinsic_levels(6, 3, (3,))[:1]
    # Identical fermions: one word, the free ground state at E_F, with K = 0.
    for npart, n in ((2, 16), (3, 12)):
        res = diagonalize(EDConfig(npart, n, (5.0, 20.0, 80.0), components=ComponentSpec((npart,))))
        np.testing.assert_array_equal(res.energies, np.full((3, 1), 0.5 * npart**2))
        assert res.k_values.tolist() == [0.0] and np.all(res.slopes == 0.0)
    # The K = 0 state of three distinguishable particles is the antisymmetric ground
    # state: its K and its slopes are exactly 0.0, its energy exactly E_F.
    res = diagonalize(EDConfig(3, 10, (20.0, 50.0, 100.0)))
    assert res.k_values[0] == 0.0 and np.all(res.slopes[:, 0] == 0.0)
    assert all(4.5 in e for e in res.energies.tolist())


@pytest.mark.parametrize("sizes", [None, (2, 1)])
def test_kept_states_match_full_run(sizes):
    # Every block solved whole, at 1/g = 0 and at every coupling, from the oracle's own pair
    # rows and tables: the states diagonalize keeps, one per word, are the lowest of the
    # merged spectra at every coupling, although it solves a block without manifold states
    # at 1/g = 0 alone.
    comp = None if sizes is None else ComponentSpec(sizes)
    cfg = EDConfig(3, 8, (2.0, 5.0, 20.0), components=comp)
    res = diagonalize(cfg)
    occ, blocks = oracle._symmetry_blocks(8, 3, comp)
    br = oracle._brackets(7)
    merged = []
    for table in oracle._relative_interaction(np.array([0.0, *(1.0 / np.array(cfg.g_values))]), 4):
        vals = []
        for f, iso, p, hp, contact in blocks:
            if contact and len(hp):
                hp = np.linalg.eigvalsh(oracle._interaction(oracle._pair_rows(occ, iso, p, br), table)
                                        + np.diag(hp))
            vals += [hp] * f.shape[1]
        merged.append(np.sort(np.concatenate(vals)))
    words = len(res.k_values)
    assert words == (6 if sizes is None else 3)
    assert np.count_nonzero(merged[0] < 5.0) == words
    for gi, vals in enumerate(merged[1:]):
        np.testing.assert_allclose(res.energies[gi], vals[:words], rtol=0, atol=1e-12)


def test_special_functions_match_scipy():
    # ln Gamma and psi at the arguments E/2 + 1/4 and E/2 + 3/4 of _relative_interaction, for
    # every even level E up to the cap.  ln Gamma reaches 75 there, where one ulp is 1.4e-14,
    # so it may also differ by 1e-15 relative (SciPy's gammaln is itself 2 ulp from the
    # correctly rounded value at the top).
    e = np.linspace(0.5, 2 * (oracle.MODE_CAP // 2) + 1.5, 20001)
    for x in (0.5 * e + 0.25, 0.5 * e + 0.75):
        np.testing.assert_allclose(oracle._lgamma(x), gammaln(x), rtol=1e-15, atol=1e-14)
        np.testing.assert_allclose(oracle._digamma(x), digamma(x), rtol=0, atol=1e-14)



def test_diagonalize_memory_bound():
    # tracemalloc peak of the shell of 29 quanta, the default of `validate`: 84.8 MB with
    # the isometries and bracket maps indexed over the 27,000 states of the product cube,
    # 80.2 MB indexed by the 4,960 shell positions with the interaction rows of every
    # coupling alive at once, 40.1 MB with those of one coupling at a time, 32.8 MB with
    # the blocks solved on their intrinsic states alone, 9.9 MB with the interaction built
    # from dense pair rows, 8.6 MB with the pair rows of one block alive at a time.
    # The bound leaves 10%.  The run is traced cold: diagonalize imports nothing on its first call.
    cfg = EDConfig(3, 30, (20.0, 50.0, 100.0))
    tracemalloc.start()
    try:
        diagonalize(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9.5e6


def test_shell_two_body_matches_reference(monkeypatch):
    # Two particles on the shell of at most 11 quanta: the intrinsic states are the
    # centre-of-mass ground orbital with every relative level n <= 11.  The even ones, the
    # one solved block, are the exact interacting levels (V_eff from the exact two-body
    # states), 2b + 2 at 1/g = 0; the odd ones the free levels n + 1/2, each shifted by 1/2.
    spectra = []

    def recording_eigh(a):
        out = np.linalg.eigh(a)
        spectra.append(out[0])
        return out

    monkeypatch.setattr(oracle, "eigh", recording_eigh)
    e_max, g_values = 11, (20.0, 50.0, 100.0)
    res = diagonalize(EDConfig(2, e_max + 1, g_values))
    assert res.basis_dim == e_max + 1 and len(spectra) == 4
    np.testing.assert_allclose(spectra[0], 2.0 * np.arange(6) + 2.0, rtol=0, atol=1e-10)
    for vals, g in zip(spectra[1:], g_values):
        np.testing.assert_allclose(vals, [two_body_reference(g, b) for b in range(6)], rtol=0,
                                   atol=1e-10)
    _, blocks = oracle._symmetry_blocks(e_max + 1, 2, None)
    np.testing.assert_array_equal(blocks[-1][3], np.arange(1, e_max + 1, 2) + 1.0)
    # the manifold: the interacting ground state and the lowest odd level
    for gi, g in enumerate(g_values):
        np.testing.assert_allclose(res.energies[gi], [two_body_reference(g), 2.0], rtol=0, atol=1e-10)


@pytest.mark.parametrize("npart, sizes", [(2, None), (2, (2,)), (3, None), (3, (2, 1)), (3, (3,))])
def test_shell_block_invariants(npart, sizes):
    # The shell of at most 6 quanta in 7 modes: its block isometries orthonormal, their
    # span mapped into itself by every swap (for identical fermions, negated by every swap
    # inside a component).  At weak coupling V_eff is the bare contact inside the shell,
    # and so is its derivative in g, g^-2 times -dV_eff/dx (a step of 1e-4 x).
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
    assert diagonalize(EDConfig(npart, n, components=comp)).basis_dim == _intrinsic_count(n, npart, sizes)
    w = _contact_matrix(n, npart)
    first = np.cumsum([0] + [f.shape[1] for f, *_ in blocks])
    for start, (_, iso, p, _, contact) in zip(first, blocks):
        v, dv = _block_interactions(occ, iso, len(p), g, step=1e-4 / g)
        bare = rows[start].T @ w @ rows[start]
        np.testing.assert_allclose(v / g, bare, rtol=0, atol=2e-5)
        np.testing.assert_allclose(dv / g**2, bare, rtol=0, atol=2e-5)
        if not contact:  # the bare contact vanishes on [1^N] too
            np.testing.assert_allclose(bare, 0.0, rtol=0, atol=1e-12)



def test_shell_interaction_is_energy_derivative():
    # Hellmann-Feynman on the shell: -<dV_eff/dx> is g^2 dE/dg of the shell model
    res = diagonalize(EDConfig(3, 10, (4.975, 5.0, 5.025)))
    fd = (res.energies[2] - res.energies[0]) / 0.05 * 5.0**2
    np.testing.assert_allclose(np.sort(fd), res.slopes[1], rtol=1e-4, atol=1e-9)


def test_shell_components_share_k():
    # (2,1) keeps one row of each mixed block and the antisymmetric shape of the
    # distinguishable shell, so its three K are among the distinguishable six.
    dist = diagonalize(EDConfig(3, 14)).k_values
    pair = diagonalize(EDConfig(3, 14, components=ComponentSpec((2, 1)))).k_values
    np.testing.assert_allclose(dist, K_EXACT[3], rtol=0.01, atol=1e-9)
    np.testing.assert_allclose(pair, dist[[0, 1, 3]], rtol=1e-9, atol=1e-12)


def test_finite_coupling_energies_keep_the_coupling_table():
    # The relative V_eff written in x = 1/g is the table written in g: the manifold energies at
    # g = 20, 50 and 100 are those of u = (2/pi) arctan(g R / (2 sqrt 2)), recorded from the
    # oracle that solved it in g.
    recorded = {
        (3, 14): [[4.244777069791132, 4.305530139391234, 4.305530139391234, 4.433755751462096,
                   4.433755751462096, 4.5],
                  [4.397662089853881, 4.420985769266714, 4.420985769266714, 4.473069220679847,
                   4.473069220679847, 4.5],
                  [4.450113544460656, 4.4606031966796476, 4.4606031966796476, 4.4864049346487755,
                   4.4864049346487755, 4.5]],
        (2, 10): [[1.922513944695433, 2.0], [1.9684211428880625, 2.0], [1.9841235111673958, 2.0]],
    }
    for (npart, n_modes), energies in recorded.items():
        res = diagonalize(EDConfig(npart, n_modes, (20.0, 50.0, 100.0)))
        np.testing.assert_allclose(res.energies, energies, rtol=0, atol=1e-12)


def test_slopes_approach_k():
    # K - g^2 dE/dg falls as 1/g toward 1/g = 0: g (K - slope) of the top state of the default
    # shell is 8.0, 6.9 and 6.5 at g = 20, 50 and 100; at g = 1e5 the slopes are K within 1e-4.
    res = diagonalize(EDConfig(3, 30, (20.0, 50.0, 100.0)))
    gap = res.k_values - res.slopes
    assert np.all(gap[:, 0] == 0.0) and np.all(gap[:, 1:] > 0)
    assert np.all(np.diff(gap[:, 1:], axis=0) < 0)
    np.testing.assert_allclose(np.array(res.config.g_values) * gap[:, -1], [8.0, 6.9, 6.5], atol=0.1)
    far = diagonalize(EDConfig(3, 14, (1e5,)))
    np.testing.assert_allclose(far.slopes[0], far.k_values, rtol=1e-4, atol=1e-12)


def test_manifold_holds_one_state_per_word(monkeypatch):
    # Below E_F + 1/2 at 1/g = 0 lie as many states as words, from the smallest shell on.
    for npart, sizes, words in ((2, None, 2), (2, (2,), 1), (3, None, 6), (3, (2, 1), 3),
                                (3, (1, 2), 3), (3, (3,), 1)):
        comp = None if sizes is None else ComponentSpec(sizes)
        for n_modes in range(npart + 2, 17):
            assert len(diagonalize(EDConfig(npart, n_modes, components=comp)).k_values) == words
    # V_eff raised by 0.6 lifts the interacting ground state of two particles above E_F + 1/2
    table = oracle._relative_interaction
    monkeypatch.setattr(oracle, "_relative_interaction", lambda x, d: table(x, d) + 0.6 * np.eye(d))
    with pytest.raises(ValueError, match="1 states below E_F"):
        diagonalize(EDConfig(2, 8))


@pytest.mark.parametrize("npart", [2, 3])
def test_uncertainty_covers_every_deviation(npart):
    # K at 1/g = 0 against the Laplacian K at every even n_modes from 14 to 60, each within
    # the uncertainty from the shell four quanta down; odd n_modes give the K of the next even.
    runs = {m: diagonalize(EDConfig(npart, m)) for m in range(10, oracle.MODE_CAP + 1, 2)}
    for m in range(14, oracle.MODE_CAP + 1, 2):
        dev = np.abs(runs[m].k_values - K_EXACT[npart])
        assert np.all(dev <= k_uncertainty(runs[m], runs[m - 4])), m


def test_two_body_k_at_every_shell():
    # The shell is exact for two particles: K = 2 gamma_2 within 1e-8 relative at every n_modes.
    for m in range(8, oracle.MODE_CAP + 1):
        k = diagonalize(EDConfig(2, m)).k_values
        assert k[0] == 0.0 and abs(k[1] - K_EXACT[2][1]) < 1e-8 * K_EXACT[2][1], m


@pytest.mark.parametrize("n_modes", [18, 30])
def test_component_k_within_uncertainty(n_modes):
    # Two identical fermions and an impurity: the K of the (2,1) word Laplacian, each within the
    # uncertainty.  At 14 modes the rule falls short (a deviation of 1.2e-2 against 2.7e-3).
    spec = ComponentSpec((2, 1))
    weights = [bw.value for bw in all_gammas(make_level(HarmonicBasis(), 3))]
    pred = solve(projected_laplacian(build_graph(3, spec), weights)).values
    res = diagonalize(EDConfig(3, n_modes, components=spec))
    unc = k_uncertainty(res, diagonalize(EDConfig(3, n_modes - 4, components=spec)))
    assert np.all(np.abs(res.k_values - pred) <= unc)


def test_uncertainty_needs_a_smaller_shell_of_the_same_particles():
    res = diagonalize(EDConfig(3, 10))
    for other in (res, diagonalize(EDConfig(3, 12)), diagonalize(EDConfig(2, 8))):
        with pytest.raises(ValueError, match="smaller shell"):
            k_uncertainty(res, other)


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
