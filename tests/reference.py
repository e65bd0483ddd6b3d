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
- `two_body_reference` and `two_body_slope` solve the transcendental
  two-body relation in the harmonic trap;
- `isometries` writes out the relabelling isometries T_a of a word graph
  as dense matrices, from its word table and Young matrices;
- `trace_identity_gap` reads the ordering Laplacian's trace from its edge
  list alone.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import digamma, ndtri
from scipy.special import gamma as gamma_fn

from tonks.sectors import build_graph
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

    Reads the trace from the edge list, twice the sum of the edge weights,
    so the edges of every ordering must cover each boundary exactly once.
    """
    full = build_graph(graph.n)
    w = np.array(gammas, dtype=float)
    expected = full.n_nodes * float(np.sum(w))
    total = 2.0 * float(w[full.edges[:, 2]].sum())
    return abs(total - expected) / max(abs(expected), 1.0)


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
