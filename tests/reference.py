"""Independent references the tests compare the package against.

None of these is needed to compute a spectrum; each checks one from a
different direction:

- `psi`, `grad` and `psi_grad` evaluate the reference determinant
  Psi(x_1..x_N) = det[ phi_{n_j}(x_i) ] / sqrt(N!) and its gradient in
  batches through pivoted LU determinants;
- `assembled` builds the adiabatic wavefunction a_sigma(x) Psi(x) of an
  amplitude vector, sector by sector;
- `mc_gammas` estimates every boundary weight by seeded, stratified
  Monte Carlo from the coordinates up;
- `level_reference` picks a free-fermion level by sorting every
  occupation of a spectrum, where `make_level` walks up from the ground;
- `two_body_reference` and `two_body_slope` solve the transcendental
  two-body relation in the harmonic trap;
- `isometries` writes out the relabelling isometries T_a of a word graph
  as dense matrices, from its word table and Young matrices;
- `trace_identity_gap` reads the ordering Laplacian's trace from its slot
  swaps alone;
- `word_laplacian` assembles the dense word Laplacian entry by entry from
  the words, by dictionary lookups of each swapped word;
- `sorting_young` multiplies Young's generators along the bubble sort of
  each shell state, the construction the oracle once used for rho(sigma_w);
- `delta_tensor` gives the four-orbital contact integrals of the harmonic
  basis, the bare contact that the oracle's effective interaction tends to
  at weak coupling;
- `shell_reference` writes out the oracle's shell Hamiltonian as dense
  matrices in the product basis, by explicit loops over the brackets and
  the relative effective interaction; `shell_cm` writes out the
  centre-of-mass quanta on the same basis, by explicit loops over the
  particle pairs, and `intrinsic_reference` restricts the Hamiltonian to
  their kernel.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.special import digamma, ndtri
from scipy.special import gamma as gamma_fn

from tonks.sectors import _young_generators, build_graph
from tonks.slater import TIE_TOL
from tonks.traps import _hermite_ladder
from tonks.weights import BoundaryWeight

DET_CHUNK = 8192
MC_STRATA = 64
MC_SHARDS = 16


def _matrices(state, x: np.ndarray, with_grad: bool) -> tuple[np.ndarray, np.ndarray | None]:
    vals, ders = state.basis.eval_many(list(state.occupation), x.reshape(-1))
    n = state.n
    b = x.shape[0]
    # [batch, particle, orbital]
    m = vals.reshape(n, b, n).transpose(1, 2, 0)
    d = ders.reshape(n, b, n).transpose(1, 2, 0) if with_grad else None
    return m, d


def psi(state, x) -> np.ndarray:
    """Wavefunction of a SlaterState at configurations of shape (..., N)."""
    x = np.asarray(x, dtype=float)
    lead = x.shape[:-1]
    flat = x.reshape(-1, state.n)
    out = np.empty(flat.shape[0])
    norm = 1.0 / math.sqrt(math.factorial(state.n))
    for lo in range(0, flat.shape[0], DET_CHUNK):
        m, _ = _matrices(state, flat[lo : lo + DET_CHUNK], with_grad=False)
        out[lo : lo + DET_CHUNK] = np.linalg.det(m)
    return (norm * out).reshape(lead)


def grad(state, x) -> np.ndarray:
    """Gradient with respect to every coordinate, shape (..., N)."""
    return psi_grad(state, x)[1]


def psi_grad(state, x) -> tuple[np.ndarray, np.ndarray]:
    """Wavefunction and gradient together, sharing orbital evaluations.

    The derivative against coordinate i is the determinant with row i
    replaced by orbital derivatives, which stays finite and accurate on
    the coincidence planes where the determinant itself vanishes.
    """
    x = np.asarray(x, dtype=float)
    lead = x.shape[:-1]
    n = state.n
    flat = x.reshape(-1, n)
    val = np.empty(flat.shape[0])
    grd = np.empty((flat.shape[0], n))
    norm = 1.0 / math.sqrt(math.factorial(n))
    for lo in range(0, flat.shape[0], DET_CHUNK):
        m, d = _matrices(state, flat[lo : lo + DET_CHUNK], with_grad=True)
        val[lo : lo + DET_CHUNK] = np.linalg.det(m)
        for i in range(n):
            mi = m.copy()
            mi[:, i, :] = d[:, i, :]
            grd[lo : lo + DET_CHUNK, i] = np.linalg.det(mi)
    return (norm * val).reshape(lead), (norm * grd).reshape(lead + (n,))


def assembled(state, amplitudes, x) -> tuple[np.ndarray, np.ndarray]:
    """The wavefunction a_sigma(x) Psi(x) at configurations x, and sigma(x).

    sigma(x) is the node index, in the lexicographic order of the ordering
    graph, of the ordering of the coordinates.  The amplitudes are taken
    as given, without normalization.
    """
    x = np.asarray(x, dtype=float)
    perm = np.argsort(x.reshape(-1, state.n), axis=1, kind="stable")
    sector = build_graph(state.n).index(perm).reshape(x.shape[:-1])
    return np.asarray(amplitudes, dtype=float)[sector] * psi(state, x), sector


def isometries(graph) -> list[tuple[np.ndarray, ...]]:
    """Per irrep of the relabelling group, the d dense isometries T_a, one per row a.

    Column (i, b) of T_a holds sqrt(d / |G|) rho(g)[a, b] at the word g.r_i,
    table[g, i] of the graph's word table.
    """
    table, young = graph.relabellings
    m = table.shape[1]
    out = []
    for rho in young:
        size, d = rho.shape[:2]
        cols = np.arange(m)[:, None] * d + np.arange(d)
        group = []
        for a in range(d):
            t = np.zeros((graph.n_nodes, m * d))
            t[table[:, :, None], cols] = math.sqrt(d / size) * rho[:, None, a, :]
            group.append(t)
        out.append(tuple(group))
    return out


def trace_identity_gap(graph, gammas) -> float:
    """Relative gap between the Laplacian trace and n! * sum of weights.

    Reads the trace from the slot swaps, gamma_k for each ordering that the
    slot-k swap moves, so the swaps of every ordering must cover each
    boundary exactly once.
    """
    full = build_graph(graph.n)
    w = np.array(gammas, dtype=float)
    expected = full.n_nodes * float(np.sum(w))
    node = np.arange(full.n_nodes)
    total = float(sum(wk * np.count_nonzero(p != node) for wk, p in zip(w, full.swaps)))
    return abs(total - expected) / max(abs(expected), 1.0)


def word_laplacian(graph, gammas) -> np.ndarray:
    """The dense word Laplacian from the words alone: -gamma_k (as 0.0 - gamma_k) between a
    word and the word with its unequal letters of slots k and k + 1 swapped, and on the
    diagonal each word's degree, gamma_k added slot by slot where its letters differ."""
    words = [tuple(int(c) for c in word) for word in graph.words]
    node = {word: i for i, word in enumerate(words)}
    out = np.zeros((len(words), len(words)))
    for i, word in enumerate(words):
        degree = 0.0
        for k, wk in enumerate(map(float, gammas)):
            if word[k] != word[k + 1]:
                out[i, node[word[:k] + (word[k + 1], word[k]) + word[k + 2:]]] = 0.0 - wk
                degree += wk
        out[i, i] = degree
    return out


def sorting_young(occ: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """rho(sigma_w) of each row w of occ in Young's orthogonal form of shape: the product
    rho(s_k1) rho(s_k2) ... of the generators along the bubble sort s_k1, s_k2, ... that
    carries w to its sorted occupation, one pass of adjacent slot swaps at a time."""
    gens = _young_generators(shape)
    d, n = len(gens[0]), occ.shape[1]
    srt, rho = occ.copy(), np.broadcast_to(np.eye(d), (len(occ), d, d)).copy()
    for _ in range(n - 1):
        for k in range(n - 1):
            move = np.flatnonzero(srt[:, k] > srt[:, k + 1])
            srt[move, k], srt[move, k + 1] = srt[move, k + 1], srt[move, k]
            rho[move] = rho[move] @ gens[k]
    return rho


def mc_gammas(state, samples: int = 2_000_000, seed: int = 0) -> list[BoundaryWeight]:
    """All boundary weights by seeded importance-sampled Monte Carlo.

    Each sample places the touching pair at z and the spectators
    independently; its ordered configuration selects exactly one boundary,
    so one stream estimates every gamma_k.  z is stratified through the
    normal inverse CDF, and MC_SHARDS seed streams are accumulated in a
    fixed order, so a seed gives bit-identical results.
    """
    n = state.n
    if n < 2:
        raise ValueError("Monte Carlo boundary weights need at least 2 particles")
    if samples < MC_STRATA * MC_SHARDS:
        raise ValueError("need at least one sample per stratum and shard")
    radius = state.basis.decay_radius(state.occupation, eps=1e-10)
    sigma = max(radius / 3.5, 0.5)
    per_stratum = samples // MC_STRATA
    counts = [per_stratum // MC_SHARDS + (1 if r < per_stratum % MC_SHARDS else 0)
              for r in range(MC_SHARDS)]
    fact = 1.0 / math.factorial(n - 2)
    sums = np.zeros((MC_STRATA, n - 1))
    sumsq = np.zeros((MC_STRATA, n - 1))
    for count, seq in zip(counts, np.random.SeedSequence(seed).spawn(MC_SHARDS)):
        rng = np.random.default_rng(seq)
        for s in range(MC_STRATA):
            u = rng.random(count)
            z = sigma * ndtri((s + u) / MC_STRATA)
            w = rng.normal(0.0, sigma, size=(count, n - 2))
            jcount = np.sum(w < z[:, None], axis=1)
            conf = np.concatenate([w, z[:, None], z[:, None]], axis=1)
            conf.sort(axis=1)
            # N! times the squared gradient of the touching particle at slot jcount.
            _, g = psi_grad(state, conf)
            gk = g[np.arange(count), jcount]
            f = math.factorial(n) * gk * gk
            logq = -0.5 * (z / sigma) ** 2 - math.log(sigma * math.sqrt(2 * math.pi))
            logq = logq - 0.5 * np.sum((w / sigma) ** 2, axis=1) \
                - (n - 2) * math.log(sigma * math.sqrt(2 * math.pi))
            v = fact * f * np.exp(-logq)
            for k0 in range(n - 1):
                vk = np.where(jcount == k0, v, 0.0)
                sums[s, k0] += vk.sum()
                sumsq[s, k0] += np.dot(vk, vk)
    mean = sums.sum(axis=0) / (MC_STRATA * per_stratum)
    var_s = (sumsq - sums**2 / per_stratum) / (per_stratum - 1)
    sem = np.sqrt(np.sum(var_s, axis=0) / (MC_STRATA**2 * per_stratum))
    return [BoundaryWeight(k=k0 + 1, value=float(mean[k0]), error=float(sem[k0]),
                           method="monte-carlo")
            for k0 in range(n - 1)]


def level_reference(energies, n: int, level: int) -> tuple[float, tuple[int, ...]]:
    """(energy, occupation) of the level-th free-fermion level of n particles on orbitals
    energies[0..cap], by sorting every occupation by (energy, occupation).

    A level whose neighbour in that order lies within TIE_TOL is degenerate: the ValueError
    names every occupation within TIE_TOL of it, in that order.
    """
    ranked = sorted((sum(energies[m] for m in occ), occ)
                    for occ in itertools.combinations(range(len(energies)), n))
    if len(ranked) <= level:
        raise ValueError("beyond the basis cap")
    e_sel = ranked[level][0]
    if any(abs(ranked[j][0] - e_sel) <= TIE_TOL for j in (level - 1, level + 1) if 0 <= j < len(ranked)):
        shell = [occ for e, occ in ranked if abs(e - e_sel) <= TIE_TOL]
        raise ValueError("degenerate", shell)
    return ranked[level]


def _two_body_g(e_rel: float) -> float:
    """Coupling at which e_rel is a relative-motion eigenvalue."""
    a = 0.75 - 0.5 * e_rel
    b = 0.25 - 0.5 * e_rel
    return -2.0 * math.sqrt(2.0) * gamma_fn(a) / gamma_fn(b)


def two_body_reference(g: float, branch: int = 0) -> float:
    """Exact two-body total energy at coupling g from the transcendental relation.

    branch b counts the interacting even relative states upward; the
    centre of mass stays in its ground mode.  Each branch interpolates
    between its free value 2b + 1 at g = 0 and 2b + 2 at g = infinity.
    """
    from scipy import optimize

    if g <= 0:
        raise ValueError("the reference solves the repulsive branch g > 0")
    if branch < 0:
        raise ValueError("branch must be non-negative")
    lo = 2 * branch + 0.5 + 1e-9
    hi = 2 * branch + 1.5 - 1e-9
    e_rel = optimize.brentq(lambda e: _two_body_g(e) - g, lo, hi, xtol=1e-13, rtol=1e-15)
    return e_rel + 0.5


def two_body_slope(g: float, branch: int = 0) -> float:
    """g^2 dE/dg of the two-body reference: the running slope coefficient.

    Tends to the Laplacian eigenvalue 2 gamma of the interacting branch
    as g grows.
    """
    e_rel = two_body_reference(g, branch=branch) - 0.5
    a = 0.75 - 0.5 * e_rel
    b = 0.25 - 0.5 * e_rel
    dg_de = _two_body_g(e_rel) * (-0.5) * (digamma(a) - digamma(b))
    return g**2 / dg_de


def _contact_rule(n_modes: int) -> tuple[np.ndarray, np.ndarray]:
    """Orbitals 0..n_modes-1 at the nodes of the contact rule, and its weights.

    The Gauss-Hermite rule with 2 * n_modes + 3 nodes integrates a
    product of four orbitals over the line exactly.
    """
    y, w = np.polynomial.hermite.hermgauss(2 * n_modes + 3)
    # The four orbital Gaussians supply exp(-y^2); fold it against the
    # rule weights in log space so large node values cannot overflow.
    wt = np.exp(np.log(w) + y * y) / math.sqrt(2.0)
    return _hermite_ladder(y / math.sqrt(2.0), n_modes - 1), wt


def delta_tensor(n_modes: int) -> np.ndarray:
    """Four-orbital contact integrals of the harmonic basis.

    Entry [a,b,c,d] is the integral of phi_a phi_b phi_c phi_d over the
    line, evaluated by a Gauss-Hermite rule exact at the top polynomial
    degree.  Entries with odd index sum vanish by parity and are zeroed
    exactly.
    """
    t, wt = _contact_rule(n_modes)
    pair = (t[:, None, :] * t[None, :, :]).reshape(n_modes * n_modes, len(wt))
    i4 = (pair * wt) @ pair.T
    i4 = i4.reshape(n_modes, n_modes, n_modes, n_modes)
    par = np.arange(n_modes) % 2
    odd = (par[:, None, None, None] + par[None, :, None, None]
           + par[None, None, :, None] + par[None, None, None, :]) % 2 == 1
    i4[odd] = 0.0
    return i4


def shell_states(n_particles: int, n_modes: int) -> list[tuple[int, ...]]:
    """The product states of at most n_modes - 1 quanta, in ascending product index."""
    return [r for r in itertools.product(range(n_modes), repeat=n_particles) if sum(r) < n_modes]


def _pair_sum(n_particles: int, n_modes: int, tables: np.ndarray) -> np.ndarray:
    """Sum over pairs of each relative operator of tables on the shell, dense.

    tables[..., d, m, m'] acts on the lowest d even relative orbitals 2m.  The
    pair (p, q) of state r has s = r_p + r_q quanta and its spectators t, and
    <r'| V |r> = sum over centre-of-mass orbitals N of
    B[s', r'_p, N] B[s, r_p, N] V_d[(s' - N) / 2, (s - N) / 2] with
    d = (E_max - t - N) // 2 + 1, both relative orbitals even.
    """
    from tonks.oracle import _brackets

    e_max = n_modes - 1
    br = _brackets(e_max)
    states = shell_states(n_particles, n_modes)
    at = {r: i for i, r in enumerate(states)}
    out = np.zeros(tables.shape[:-3] + (len(states), len(states)))
    for i, r in enumerate(states):
        for p, q in itertools.combinations(range(n_particles), 2):
            s = r[p] + r[q]
            for cm in range(s % 2, s + 1, 2):
                d = (e_max - sum(r) + s - cm) // 2 + 1
                for rel in range(0, 2 * d, 2):
                    for a in range(cm + rel + 1):
                        t = list(r)
                        t[p], t[q] = a, cm + rel - a
                        out[..., at[tuple(t)], i] += (br[cm + rel, a, cm] * br[s, r[p], cm]
                                                      * tables[..., d, rel // 2, (s - cm) // 2])
    return out


def _antisymmetric(n_particles: int, n_modes: int, sizes: tuple[int, ...]) -> np.ndarray:
    """Orthonormal columns spanning the shell states antisymmetric inside every component:
    the range of the average of the signed particle permutations that stay inside the
    components."""
    states = shell_states(n_particles, n_modes)
    at = {r: i for i, r in enumerate(states)}
    labels = np.repeat(np.arange(len(sizes)), sizes)
    proj = np.zeros((len(states), len(states)))
    count = 0
    for perm in itertools.permutations(range(n_particles)):
        if np.any(labels[list(perm)] != labels):
            continue
        flips = sum(a > b for a, b in itertools.combinations(perm, 2))
        for i, r in enumerate(states):
            proj[at[tuple(r[k] for k in perm)], i] += (-1) ** flips
        count += 1
    vals, vecs = np.linalg.eigh(proj / count)
    return vecs[:, vals > 0.5]


def shell_reference(n_particles: int, n_modes: int, g: float,
                    sizes: tuple[int, ...] | None = None) -> tuple[np.ndarray, ...]:
    """H0, V_eff and -dV_eff/dx at x = 1/g of the oracle's shell as dense matrices.

    g = math.inf gives x = 0.  In the product basis of shell_states, or with
    component sizes on the states antisymmetric inside every component.
    -dV_eff/dx = g^2 dV_eff/dg is the central difference of step STEP in x in
    the relative V_eff, as the oracle takes it.
    """
    from tonks.oracle import STEP, _relative_interaction

    x = 1.0 / g
    v, down, up = _relative_interaction(np.array([x, x - STEP, x + STEP]), (n_modes - 1) // 2 + 1)
    h0 = np.diag([sum(r) + 0.5 * n_particles for r in shell_states(n_particles, n_modes)])
    mats = (h0, *_pair_sum(n_particles, n_modes, np.stack([v, (down - up) / (2 * STEP)])))
    if sizes is None:
        return mats
    q = _antisymmetric(n_particles, n_modes, sizes)
    return tuple(q.T @ m @ q for m in mats)


def shell_cm(n_particles: int, n_modes: int, sizes: tuple[int, ...] | None = None) -> np.ndarray:
    """The centre-of-mass quanta N_cm = (1/N) sum_ij a_i^+ a_j on the oracle's shell, dense.

    In the product basis of shell_states, or with component sizes on the states
    antisymmetric inside every component, as shell_reference.
    """
    states = shell_states(n_particles, n_modes)
    at = {r: i for i, r in enumerate(states)}
    out = np.zeros((len(states), len(states)))
    for k, r in enumerate(states):
        for i in range(n_particles):
            for j in range(n_particles):
                if i == j:
                    out[k, k] += r[i] / n_particles
                elif r[j] > 0:
                    t = list(r)
                    t[i], t[j] = r[i] + 1, r[j] - 1
                    out[at[tuple(t)], k] += math.sqrt(r[j] * (r[i] + 1)) / n_particles
    if sizes is None:
        return out
    q = _antisymmetric(n_particles, n_modes, sizes)
    return q.T @ out @ q


def intrinsic_reference(n_particles: int, n_modes: int, g: float,
                        sizes: tuple[int, ...] | None = None) -> tuple[np.ndarray, ...]:
    """shell_reference restricted to the kernel of shell_cm: H0, V_eff and -dV_eff/dx on
    orthonormal columns Q spanning the states of N_cm = 0, and Q itself."""
    vals, vecs = np.linalg.eigh(shell_cm(n_particles, n_modes, sizes))
    q = vecs[:, vals < 0.5]  # N_cm has integer eigenvalues
    return (*(q.T @ m @ q for m in shell_reference(n_particles, n_modes, g, sizes)), q)
