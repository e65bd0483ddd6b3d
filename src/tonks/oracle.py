"""Finite-coupling exact diagonalization for validating the strong-coupling law.

Few fermions with a contact interaction g * sum of delta(x_i - x_j) are
diagonalized on the energy shell of the harmonic product basis, the product
states of at most E_max = n_modes - 1 quanta, with each pair's effective
interaction built from the exact two-body states (Rotureau 2013, Lindgren et
al. 2014) as a smooth function of the inverse coupling x = 1/g through x = 0.
The Hamiltonian commutes with total parity, with every particle permutation
and with the centre-of-mass quanta N_cm.  So the shell is split into exact
blocks, one per irrep of the permutation group and parity, each built from
Young's orthogonal form with one isometry per row of the irrep (for identical
fermions, per row antisymmetric inside every component), and each block keeps
only its intrinsic states, N_cm = 0, as every state of the strong-coupling
manifold does (Elliott & Skyrme 1955).  Each block's interaction is that of
one particle pair, in its centre-of-mass and relative orbitals, times the
number of pairs; its pair rows are built once, and at each x the block is
solved densely, once for all its rows; the antisymmetric irrep carries no
contact and takes no solve.  At x = 0 the manifold is each block's states
below E_F + 1/2, and by Hellmann-Feynman their K in E = E_F - K/g + O(1/g^2)
(Volosniev et al. 2014) are the eigenvalues of -dV_eff/dx on them: one solve,
nothing fitted.  At each finite coupling the same count of the block's lowest
states gives the slopes g^2 dE/dg = -dE/dx.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import eigh

from .sectors import ComponentSpec, _partitions, _young_generators
from .traps import _hermite_ladder

# Largest n_modes: the shell of 59 quanta holds C(62, 3) = 37,820 states of three particles.
MODE_CAP = 60
# Step h of the central differences in x = 1/g: their error goes as h^2 (1.3e-6 in the two-body K
# at h = 1e-4) and their rounding as 1/h.
STEP = 1e-6


def _brackets(e_max: int) -> np.ndarray:
    """One-dimensional Talmi-Moshinsky brackets B[s, a, N] = <a, s - a | N, s - N>.

    They carry the pair of orbitals a and s - a to the orbitals N and s - N
    of X = (x1 + x2) / sqrt 2 and x = (x1 - x2) / sqrt 2; the rotation keeps
    the quanta s.  The integrand has degree at most 2 s in each coordinate,
    so a Gauss-Hermite rule of e_max + 1 nodes per coordinate is exact.
    """
    y, w = np.polynomial.hermite.hermgauss(e_max + 1)
    one = _hermite_ladder(y, e_max) * np.exp(np.log(w) + y * y)  # the Gaussians: exp(-y1^2 - y2^2)
    cm = _hermite_ladder((y[:, None] + y) / math.sqrt(2.0), e_max)
    rel = _hermite_ladder((y[:, None] - y) / math.sqrt(2.0), e_max)
    out = np.zeros((e_max + 1,) * 3)
    for s in range(e_max + 1):
        a = np.arange(s + 1)
        pair = (one[a][:, :, None] * one[s - a][:, None, :]).reshape(s + 1, -1)
        out[s, :s + 1, :s + 1] = pair @ (cm[a] * rel[s - a]).reshape(s + 1, -1).T
    return out


_lgamma = np.vectorize(math.lgamma, otypes=[float])


def _digamma(x: np.ndarray) -> np.ndarray:
    """psi(x) for x > 0: psi(x) = psi(x + 1) - 1/x up to x >= 10, then the asymptotic series
    ln x - 1/(2x) - sum_k B_2k / (2k x^2k), whose first omitted term is below 1e-16 there."""
    x, shift = np.array(x, dtype=float), 0.0
    while np.any(low := x < 10.0):
        shift, x = shift - low / x, x + low
    x2 = 1.0 / (x * x)
    series = x2 * (1 / 12 - x2 * (1 / 120 - x2 * (1 / 252 - x2 * (1 / 240 - x2 * (
        1 / 132 - x2 * (691 / 32760 - x2 / 12))))))
    return shift + np.log(x) - 0.5 / x - series


def _relative_interaction(x: np.ndarray, d_max: int) -> np.ndarray:
    """Okubo-Lee-Suzuki V_eff = Z E Z^T - H_0 of the relative motion on its lowest d
    even orbitals, for each inverse coupling of x = 1/g and d = 1..d_max, zero-padded to
    shape (len(x), d_max + 1, d_max, d_max).

    The relative Hamiltonian p^2/2 + r^2/2 + (g / sqrt 2) delta(r) has the even
    levels E = 2b + 1/2 + u, with tan(pi u / 2) = g R / (2 sqrt 2) and
    R = Gamma(1/4 + E/2) / Gamma(3/4 + E/2) (Busch et al. 1998), that is
    u = 1 - (2/pi) arctan(2 sqrt 2 x / R): smooth through x = 0, where u = 1, and
    continued by x < 0 on the same branch.  The map contracts by at most
    |d ln R / dE| / pi < 0.23, so from u = 1, 28 steps reach 1e-17.  State b is
    sum_m c_m phi_2m with c_m proportional to phi_2m(0) / (E - 2m - 1/2), normalized in
    closed form by -dS/dE of S(E) = sum_m phi_2m(0)^2 / (E - 2m - 1/2) = cot(pi u / 2) R / 2.
    Z = C (C^T C)^(-1/2), the polar factor of the lowest d states' model components C.
    """
    base, u = 2.0 * np.arange(d_max) + 0.5, np.ones((len(x), d_max))
    for _ in range(28):
        e = base + u
        r = np.exp(_lgamma(0.5 * e + 0.25) - _lgamma(0.5 * e + 0.75))
        u = 1.0 - np.arctan(2.0 * math.sqrt(2.0) * x[:, None] / r) * (2.0 / np.pi)
    t = 0.5 * np.pi * (e - base)  # e from the last step, with its r
    norm2 = 0.5 * r * (0.5 * np.pi / np.sin(t) ** 2
                       - 0.5 * (_digamma(0.5 * e + 0.25) - _digamma(0.5 * e + 0.75)) / np.tan(t))
    phi0 = _hermite_ladder(np.zeros(1), 2 * d_max)[:-1:2]  # phi_2m(0), shape (d_max, 1)
    c = phi0 / ((e[:, None, :] - base[:, None]) * np.sqrt(norm2[:, None, :]))  # [x, m, b]
    out = np.zeros((len(x), d_max + 1, d_max, d_max))
    for d in range(1, d_max + 1):
        left, _, right = np.linalg.svd(c[:, :d, :d])
        z = left @ right
        out[:, d, :d, :d] = (z * e[:, None, :d]) @ z.transpose(0, 2, 1) - np.diag(base[:d])
    return out


@dataclass(frozen=True)
class EDConfig:
    """Setup of an exact-diagonalization run.

    The energy shell of at most E_max = n_modes - 1 quanta, with the
    effective interaction V_eff of _relative_interaction, solved at 1/g = 0
    and at the couplings g_values (finite, positive, strictly increasing;
    none needed for K).  components=None keeps the distinguishable product
    basis; a ComponentSpec antisymmetrizes each block of identical fermions.
    """

    n_particles: int
    n_modes: int
    g_values: tuple[float, ...] = ()
    components: ComponentSpec | None = None

    def __post_init__(self):
        if self.n_particles not in (2, 3):
            raise ValueError("exact diagonalization supports 2 or 3 particles")
        if self.n_modes < self.n_particles + 2:
            raise ValueError(
                f"n_modes={self.n_modes} too small: need at least n_particles + 2"
            )
        if self.n_modes > MODE_CAP:
            raise ValueError(f"n_modes exceeds cap {MODE_CAP}")
        gs = tuple(float(g) for g in self.g_values)
        if not all(0 < g < math.inf for g in gs):
            raise ValueError(f"g_values must be finite and positive, got {gs}")
        if any(b <= a for a, b in zip(gs, gs[1:])):
            raise ValueError("g_values must be strictly increasing")
        object.__setattr__(self, "g_values", gs)
        if self.components is not None and self.components.n != self.n_particles:
            raise ValueError("component sizes must sum to n_particles")


@dataclass(frozen=True)
class EDResult:
    """The strong-coupling manifold of one EDConfig.

    The manifold is the intrinsic states below E_F + 1/2 at 1/g = 0, with
    E_F = N^2 / 2 the free Fermi energy: one state per word of the components.
    In each block row they are its lowest m_r states, and at every coupling the
    row's lowest m_r states continue them.  k_values holds their K at 1/g = 0,
    ascending: the eigenvalues of -dV_eff/dx (x = 1/g) on each row's manifold,
    by a central difference of step STEP; step_shift is the largest change of
    the sorted K under step 2 STEP.  energies and slopes hold, for each coupling
    of g_values, the ascending energies of the manifold states and their
    ascending Hellmann-Feynman slopes g^2 dE/dg = -<dV_eff/dx>.
    """

    config: EDConfig
    basis_dim: int
    k_values: np.ndarray = field(repr=False)
    step_shift: float
    energies: np.ndarray = field(repr=False)
    slopes: np.ndarray = field(repr=False)


def _kernel(m: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the null space of the positive semidefinite matrix m,
    whose nonzero eigenvalues lie far above the 1e-6 cut: at least 1 for N_cm, and at least
    2 (1 - cos(pi / k)) (0.38 at k = 5) for a sum of 1 -/+ rho over Young generators of k slots.
    """
    vals, vecs = np.linalg.eigh(m)
    return vecs[:, vals < 1e-6]


_Block = tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray], np.ndarray, np.ndarray, bool]


def _intrinsic(occ: np.ndarray, up: np.ndarray, iso: tuple, edges: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """The isometry P onto the kernel of a block's N_cm, and the trap energy of each of its
    columns.  N_cm = b^+ b, with b = N^(-1/2) sum_i a_i lowering the quanta by one, so each
    layer of q quanta, the block columns edges[q]:edges[q + 1], is one diagonal square of
    N_cm: the Gram matrix of b T_q, with T_q those columns of T_(e_0) on the states of q
    quanta.  up[i] is the shell position of each state with one more quantum in slot i.
    """
    states, at, coef = iso
    n, total = occ.shape[1], occ.sum(axis=1)
    layers = np.flatnonzero(np.diff(edges))
    kernels = [np.zeros((edges[-1], 0))]  # each layer's, padded to all the block columns
    for q in layers:
        c0, w = edges[q], edges[q + 1] - edges[q]
        mine = np.flatnonzero(total[states] == q)
        t = np.zeros((len(mine), w + 1))  # the last column gathers the padding of at
        np.put_along_axis(t, np.minimum(at[mine] - c0, w), coef[mine, 0], axis=1)
        below = np.flatnonzero(total == q - 1)
        bt = sum(np.sqrt(occ[below, i] + 1.0)[:, None]
                 * t[np.searchsorted(states[mine], up[i, below]), :w] for i in range(n))
        kernel = _kernel(bt.T @ bt / n)
        kernels.append(np.zeros((edges[-1], kernel.shape[1])))
        kernels[-1][c0:c0 + w] = kernel
    return np.hstack(kernels), np.repeat(layers + 0.5 * n, [v.shape[1] for v in kernels[1:]])


def _symmetry_blocks(n_modes: int, n_particles: int, components: ComponentSpec | None
                     ) -> tuple[np.ndarray, list[_Block]]:
    """The shell of at most n_modes - 1 quanta, and its exact symmetry blocks.

    The shell is the occupations of its product states in ascending product
    index; it is closed under swaps, and every row index below is a position
    in it.  The blocks come one per irrep of S_N and parity in a fixed order,
    each as (the retained rows f of the irrep as columns, the isometries
    T_(e_k) of all d rows e_k of the irrep, the isometry P onto the block's
    N_cm = 0 states, the trap energy of each column of P, whether the block
    has a contact).  The isometries are one gather (states, at, coef): the
    shell positions of the states of the block's parity, and for each state
    and j < d the column at[., j] where T_(e_k) holds coef[., k, j] (the
    block's column count, a padding column, past the state's own columns).

    Product state w is sigma_w r, with r its sorted occupation and sigma_w the
    adjacent swaps s_k that sort it.  For a shape with Young's orthogonal form
    rho of dimension d, the columns e_j span the vectors that rho(s_k) fixes at
    every tied slot pair of r, and the rows f the vectors with rho(s_k) = -1
    for every slot pair inside one component (all rows for distinguishable
    particles).  Column (orbit of r, j) of T_f holds
    sqrt(d / |orbit|) f^T rho(sigma_w) e_j at w: T_f = sum_k f[k] T_(e_k).  By
    Schur orthogonality the columns of the T_f of orthonormal rows f are
    orthonormal, a swap maps T_f to T_(rho(s_k) f), and so every T_f gives
    the same T_f^T H T_f, and the same T_f^T N_cm T_f with N_cm = (1/N) sum_ij
    a_i^+ a_j.  Every column is an oscillator eigenstate; the columns come in
    layers of ascending quanta, orbits in shell order inside each.  [1^N] is
    antisymmetric under every swap, so the contact vanishes on it.
    """
    shape = (n_modes,) * n_particles
    occ = np.indices(shape).reshape(n_particles, -1).T
    occ = occ[occ.sum(axis=1) < n_modes]
    srt = occ.copy()
    steps = []  # (slot k, states whose slots k and k+1 swap), in sorting order
    for _ in range(n_particles - 1):
        for k in range(n_particles - 1):
            move = np.flatnonzero(srt[:, k] > srt[:, k + 1])
            srt[move, k], srt[move, k + 1] = srt[move, k + 1], srt[move, k]
            steps.append((k, move))
    # the first state of an orbit, of least product index, is its sorted occupation
    _, first, orbit, size = np.unique(np.ravel_multi_index(srt.T, shape), return_index=True,
                                      return_inverse=True, return_counts=True)
    r = occ[first]
    ties = (r[:, 1:] == r[:, :-1]) @ (1 << np.arange(n_particles - 1))  # tied slot pairs as bits
    quanta = r.sum(axis=1)
    order = np.argsort(quanta, kind="stable")
    stride = n_modes ** np.arange(n_particles - 1, -1, -1)
    index = occ @ stride  # the product index of each shell state, ascending
    up = np.searchsorted(index, index + stride[:, None])
    sizes = (1,) * n_particles if components is None else components.sizes
    label = np.repeat(np.arange(len(sizes)), sizes)
    blocks = []
    for lam in _partitions(n_particles):
        gens = _young_generators(lam)
        d = len(gens[0])
        f = _kernel(sum((np.eye(d) + rho for rho, a, b in zip(gens, label, label[1:]) if a == b),
                        np.zeros((d, d))))
        if not f.shape[1]:
            continue
        e = np.zeros((2 ** (n_particles - 1), d, d))  # fixed vectors of each tie pattern, padded
        width = np.zeros(len(e), dtype=int)
        for p in set(ties.tolist()):  # np.unique would load numpy.ma
            basis = _kernel(sum((np.eye(d) - rho for k, rho in enumerate(gens) if p >> k & 1),
                                np.zeros((d, d))))
            e[p, :, :basis.shape[1]] = basis
            width[p] = basis.shape[1]
        rho_w = np.broadcast_to(np.eye(d), (len(occ), d, d)).copy()
        for k, move in steps:
            rho_w[move] = rho_w[move] @ gens[k]
        coef = rho_w @ e[ties[orbit]] * np.sqrt(d / size[orbit])[:, None, None]
        for parity in (0, 1):
            cols = np.where(quanta % 2 == parity, width[ties], 0)
            start = np.empty_like(cols)  # the first column of each orbit
            start[order] = np.cumsum(cols[order]) - cols[order]
            edges = np.concatenate([[0], np.cumsum(np.bincount(quanta, cols, n_modes))]).astype(int)
            states = np.flatnonzero(occ.sum(axis=1) % 2 == parity)
            o = orbit[states, None]
            at = np.where(np.arange(d) < cols[o], start[o] + np.arange(d), edges[-1])
            iso = (states, at, coef[states])
            # every row isometry gives the same block, as N_cm commutes with every permutation
            blocks.append((f, iso, *_intrinsic(occ, up, iso, edges), len(lam) < n_particles))
    return occ, blocks


def _pair_rows(occ: np.ndarray, iso: tuple, p: np.ndarray, br: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """Y_k = sqrt(N (N - 1) / (2 d)) B T_(e_k) P for the d rows k of the irrep, on the even
    relative orbitals of the pair in slots 0 and 1, so that the block interaction is
    sum_k Y_k^T V Y_k (_interaction); and stops, with the rows of V_eff width d_V at
    stops[d_V - 1]:stops[d_V].

    W commutes with every permutation and the sum over all rows of the irrep is invariant
    under them, so each of the N (N - 1) / 2 pairs gives the same (1/d) sum_k T_(e_k)^T V_pq
    T_(e_k) as slots 0 and 1.  The brackets br (_brackets) carry their orbitals a and s - a
    to the centre-of-mass orbital N and relative orbital s - N, keeping the pair quanta s
    and the spectators: they act on the s + 1 states of each (s, spectators), whose rows of
    U_k = T_(e_k) P gather coef against P.  A row of Y is a shell state read as (N, r,
    spectators), r even, where V_eff acts on the lowest d_V = (e_max - N - spectator
    quanta) // 2 + 1 even orbitals: rows in order of d_V, r and (N, spectators).
    """
    states, at, coef = iso
    st, n, e_max = occ[states], occ.shape[1], len(br) - 1
    s = st[:, 0] + st[:, 1]
    spect = st[:, 2:] @ len(br) ** np.arange(n - 2)
    d_v = (e_max - st[:, 0] - st[:, 2:].sum(axis=1)) // 2 + 1
    even = np.flatnonzero(st[:, 1] % 2 == 0)
    row = np.empty(len(st), dtype=int)  # the row of Y of each even state
    row[even[np.lexsort((spect[even], st[even, 0], st[even, 1], d_v[even]))]] = np.arange(len(even))
    br = br * math.sqrt(n * (n - 1) / (2 * coef.shape[1]))
    ppad = np.vstack([p, np.zeros((1, p.shape[1]))])
    y = np.empty((coef.shape[1], len(even), p.shape[1]))
    src = np.lexsort((st[:, 0], spect, s))  # by s, spectators and a: runs of s + 1 states
    for q, (lo, hi) in enumerate(itertools.pairwise(np.searchsorted(s[src], np.arange(e_max + 2)))):
        i = src[lo:hi].reshape(-1, q + 1).T  # [a, group]
        u = (coef[i] @ ppad[at[i]]).reshape(q + 1, -1)  # [a, (group, k, column)]
        nn = np.arange(q % 2, q + 1, 2)  # N with s - N even
        y[:, row[i[nn]]] = (br[q][:q + 1, nn].T @ u).reshape(
            len(nn), i.shape[1], len(y), p.shape[1]).transpose(2, 0, 1, 3)
    return y, np.cumsum(np.bincount(d_v[even]))


def _interaction(pair: tuple, table: np.ndarray) -> np.ndarray:
    """sum_k Y_k^T V Y_k of the rows of _pair_rows, for the relative V_eff table of
    _relative_interaction at one x = 1/g (or its derivative)."""
    y, stops = pair
    vy = np.empty_like(y)
    for d, (a, b) in enumerate(itertools.pairwise(stops), 1):
        vy[:, a:b] = (table[d, :d, :d] @ y[:, a:b].reshape(len(y), d, -1)).reshape(len(y), b - a, -1)
    flat = y.reshape(-1, y.shape[2])
    return flat.T @ vy.reshape(flat.shape)


def _solve_blocks(cfg: EDConfig, occ: np.ndarray, blocks: list[_Block]):
    """The manifold of every block of _symmetry_blocks, in their order.

    Each block is solved densely at x = 1/g = 0 and then at each coupling, once for all its
    rows, as diag(hp) + P^T V_b P from its pair rows Y_k (_pair_rows), built once per block.
    Its manifold is its m states below E_F + 1/2 at x = 0, and at each coupling its lowest m
    states; a block with none takes no solve at the couplings.  -dV_eff/dx is a central
    difference of step h = STEP, taken on the manifold alone as sum_k (Y_k X)^T V (Y_k X).
    [1^N] takes no solve: its states are the columns of P, with no interaction.  Yields per
    block K, the eigenvalues of -dV_eff/dx on the manifold at x = 0, with step h and with
    step 2h, and for x = 0 and each coupling the manifold's (energies, expectations of
    -dV_eff/dx, eigenvectors in the block columns).
    """
    d_max = (cfg.n_modes - 1) // 2 + 1
    x = np.concatenate([[0.0], 1.0 / np.asarray(cfg.g_values)])
    steps = STEP * np.array([0.0, -1.0, 1.0])
    tables = _relative_interaction(np.concatenate([(x[:, None] + steps).ravel(), 2 * steps[1:]]), d_max)
    v, down, up = tables[:-2].reshape(len(x), 3, d_max + 1, d_max, d_max).transpose(1, 0, 2, 3, 4)
    w, w2 = (down - up) / (2 * STEP), (tables[-2] - tables[-1]) / (4 * STEP)  # -dV_eff/dx
    cut, br = 0.5 * cfg.n_particles ** 2 + 0.5, _brackets(cfg.n_modes - 1)
    for _, iso, p, hp, contact in blocks:
        if not (contact and len(hp)):  # [1^N], or no intrinsic state
            m = np.count_nonzero(hp < cut)
            yield np.zeros(m), np.zeros(m), [(hp[:m], np.zeros(m), p[:, :m])] * len(x)
            continue
        pair, m, solved = _pair_rows(occ, iso, p, br), None, []
        for i in range(len(x)):
            ham = _interaction(pair, v[i])
            ham[np.diag_indices(len(hp))] += hp
            e, vec = eigh(ham)
            m = np.count_nonzero(e < cut) if m is None else m
            if not m:
                k = k2 = np.zeros(0)
                solved = [(k, k, p[:, :0])] * len(x)
                break
            on = (pair[0] @ vec[:, :m], pair[1])  # the pair rows of the manifold
            slope = _interaction(on, w[i])
            if i == 0:
                k, k2 = np.linalg.eigvalsh(slope), np.linalg.eigvalsh(_interaction(on, w2))
            solved.append((e[:m], np.diagonal(slope).copy(), p @ vec[:, :m]))
        yield k, k2, solved


def diagonalize(cfg: EDConfig) -> EDResult:
    """Solve the shell model at 1/g = 0 and at every coupling.

    It is solved on the N_cm = 0 states of the blocks of _symmetry_blocks (_solve_blocks);
    basis_dim counts them in every row, as many as the shell states of exactly n_modes - 1
    quanta.  Every row of a block holds the block's manifold.  The manifold must hold one
    state per word of the components, else a ValueError.
    """
    occ, blocks = _symmetry_blocks(cfg.n_modes, cfg.n_particles, cfg.components)
    dim = sum(f.shape[1] * len(hp) for f, _, _, hp, _ in blocks)
    parts = []
    for (f, *_), (k, k2, solved) in zip(blocks, _solve_blocks(cfg, occ, blocks)):
        e, s = (np.reshape([st[j] for st in solved[1:]], (len(cfg.g_values), len(k))) for j in (0, 1))
        parts += [(k, k2, e, s)] * f.shape[1]
    k, k2, e, s = (np.concatenate(a, axis=-1) for a in zip(*parts))
    words = (cfg.components or ComponentSpec.distinguishable(cfg.n_particles)).n_words
    if len(k) != words:
        raise ValueError(f"{len(k)} states below E_F + 1/2 at 1/g = 0, not one per word ({words})")
    k, k2 = np.sort(k), np.sort(k2)
    return EDResult(config=cfg, basis_dim=dim, k_values=k, step_shift=float(np.max(np.abs(k2 - k))),
                    energies=np.sort(e, axis=1), slopes=np.sort(s, axis=1))


def k_uncertainty(result: EDResult, reduced: EDResult) -> float:
    """The uncertainty of every K of result, from the run reduced of the same particles on a
    smaller shell: the largest shift of the sorted K between the two shells, scaled by
    E_max / (E_max - E_max') as for an error that falls as 1/E_max, plus the step term
    result.step_shift.  One state's own shift does not bound its error, since a K may
    converge non-monotonically, so every K takes the largest shift.
    """
    e_max, e_red = result.config.n_modes - 1, reduced.config.n_modes - 1
    if e_red >= e_max or len(reduced.k_values) != len(result.k_values):
        raise ValueError("the reduced run needs the same particles on a smaller shell")
    shift = np.max(np.abs(result.k_values - reduced.k_values))
    return float(e_max / (e_max - e_red) * shift + result.step_shift)
