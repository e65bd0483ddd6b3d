"""Finite-coupling exact diagonalization for validating the strong-coupling law.

Few fermions with a contact interaction g * sum of delta(x_i - x_j) are
diagonalized in a truncated harmonic product basis.  The Hamiltonian
commutes with total parity and with every particle permutation, so the
basis is split into exact blocks, one per irreducible representation of
the permutation group and parity, each built from Young's orthogonal form
with one isometry per row of the irrep (for identical fermions, per row
that is antisymmetric inside every component).  Each block's contact
matrix is assembled from the contact rows of the sorted occupations alone,
one per orbit, and solved once for all its rows: densely up to
DENSE_DIM_CAP, by sparse Lanczos above it, for every basis alike.  The
antisymmetric irrep carries no contact and takes no solve.  Energies
tracked across couplings by eigenvector overlap, taken in block coordinates
as the row isometries are orthonormal, are fitted against 1/g, and the
negated slopes are compared with the Laplacian eigenvalues K; the
interaction expectation of each tracked state doubles as the exact dE/dg
of the truncated model.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import sparse
from scipy.linalg import eigh
from scipy.sparse.csgraph import min_weight_full_bipartite_matching
from scipy.sparse.linalg import LinearOperator, eigsh
from scipy.special import stdtrit

from .sectors import ComponentSpec, _partitions, _young_generators
from .traps import _hermite_ladder

DELTA_MODE_CAP = 60
# Widest block solved densely; a wider one takes sparse Lanczos.  Three
# couplings, 2-vCPU Xeon, one BLAS thread, fresh processes, time and peak RSS:
# the mixed blocks of a (2,1) basis at 22, 24 and 26 modes (1,771, 2,300 and
# 2,925 wide) take 4.0, 7.7 and 14.4 s dense (0.16-0.28 GB) and 3.8, 4.9 and
# 6.8 s sparse (0.14-0.22 GB), but Lanczos converges slowly in the symmetric
# irrep: three distinguishable particles take 19.0 s dense, 23.9 s all sparse
# and 10.4 s split at this cap (0.28, 0.22, 0.22 GB) at 26 modes, 64 s dense
# and 26 s split (0.46, 0.34 GB) at 30 modes.
DENSE_DIM_CAP = 2500
BASIS_DIM_CAP = 200_000


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
    if not 1 <= n_modes <= DELTA_MODE_CAP:
        raise ValueError(f"n_modes must be in 1..{DELTA_MODE_CAP}, got {n_modes}")
    t, wt = _contact_rule(n_modes)
    pair = (t[:, None, :] * t[None, :, :]).reshape(n_modes * n_modes, len(wt))
    i4 = (pair * wt) @ pair.T
    i4 = i4.reshape(n_modes, n_modes, n_modes, n_modes)
    par = np.arange(n_modes) % 2
    odd = (par[:, None, None, None] + par[None, :, None, None]
           + par[None, None, :, None] + par[None, None, None, :]) % 2 == 1
    i4[odd] = 0.0
    return i4


@dataclass(frozen=True)
class EDConfig:
    """Setup of an exact-diagonalization run.

    n_modes single-particle orbitals per particle, couplings g_values
    (finite, positive, strictly increasing), n_states retained eigenpairs.
    components=None keeps the distinguishable product basis; a
    ComponentSpec antisymmetrizes each block of identical fermions.
    """

    n_particles: int
    n_modes: int
    g_values: tuple[float, ...]
    n_states: int = 8
    components: ComponentSpec | None = None

    def __post_init__(self):
        if self.n_particles not in (2, 3):
            raise ValueError("exact diagonalization supports 2 or 3 particles")
        if self.n_modes < self.n_particles + 2:
            raise ValueError(
                f"n_modes={self.n_modes} too small: need at least n_particles + 2"
            )
        if self.n_modes > DELTA_MODE_CAP:
            raise ValueError(f"n_modes exceeds cap {DELTA_MODE_CAP}")
        dim = self.n_modes**self.n_particles
        if dim > BASIS_DIM_CAP:
            raise ValueError(f"basis dimension {dim} exceeds cap {BASIS_DIM_CAP}")
        gs = tuple(float(g) for g in self.g_values)
        if len(gs) < 1 or not all(0 < g < math.inf for g in gs):
            raise ValueError(f"g_values must be finite and positive, got {gs}")
        if any(b <= a for a, b in zip(gs, gs[1:])):
            raise ValueError("g_values must be strictly increasing")
        object.__setattr__(self, "g_values", gs)
        if self.n_states < 1:
            raise ValueError("n_states must be positive")
        if self.components is not None and self.components.n != self.n_particles:
            raise ValueError("component sizes must sum to n_particles")


@dataclass(frozen=True)
class EDResult:
    """Spectra of one EDConfig across its couplings.

    energies are sorted ascending per coupling; column j of tracked
    follows a single adiabatic state from the smallest coupling upward
    (matched by eigenvector overlap), with the matched overlaps in
    track_quality.  Tracking runs through two buffer states, so a tracked
    state may rise above the lowest n_states.  interaction holds the
    expectation of the bare contact operator in each tracked state, which
    equals dE/dg of the truncated model exactly.
    """

    config: EDConfig
    basis_dim: int
    energies: np.ndarray = field(repr=False)
    tracked: np.ndarray = field(repr=False)
    track_quality: np.ndarray = field(repr=False)
    interaction: np.ndarray = field(repr=False)


def _kernel(d: int, gens: list[np.ndarray], sign: int) -> np.ndarray:
    """Orthonormal columns spanning the vectors v with rho v = sign * v for every
    rho in gens, as the null space of the sum of (1 - sign * rho).

    Generators of m adjacent slots leave that sum a gap of at least
    2 (1 - cos(pi / m)) above zero (0.38 at m = 5), far above the 1e-6 cut.
    """
    vals, vecs = np.linalg.eigh(sum((np.eye(d) - sign * rho for rho in gens), np.zeros((d, d))))
    return vecs[:, vals < 1e-6]


_Block = tuple[np.ndarray, np.ndarray, tuple[sparse.csc_array, ...]]


def _symmetry_blocks(n_modes: int, n_particles: int, components: ComponentSpec | None
                     ) -> list[_Block]:
    """The exact symmetry blocks of the product basis, one per irrep of S_N and
    parity in a fixed order, each as (the retained rows f of the irrep as
    columns, trap energy of each block column, the isometries T_(e_k) of all
    d rows e_k of the irrep, left empty for the shape [1^N]).

    Product state w is sigma_w r, with r its sorted occupation and sigma_w the
    adjacent swaps s_k that sort it.  For a shape with Young's orthogonal form
    rho of dimension d, the columns e_j span the vectors that rho(s_k) fixes at
    every tied slot pair of r, and the rows f the vectors with rho(s_k) = -1
    for every slot pair inside one component (all rows for distinguishable
    particles).  Column (orbit of r, j) of T_f holds
    sqrt(d / |orbit|) f^T rho(sigma_w) e_j at w: T_f = sum_k f[k] T_(e_k).  By
    Schur orthogonality the columns of the T_f of orthonormal rows f are
    orthonormal, a swap maps T_f to T_(rho(s_k) f), and so every T_f gives
    the same T_f^T H T_f.  Every column is an oscillator eigenstate.
    [1^N] is antisymmetric under every swap, so the contact vanishes on it.
    """
    shape = (n_modes,) * n_particles
    occ = np.indices(shape).reshape(n_particles, -1).T
    steps = []  # (slot k, states whose slots k and k+1 swap), in sorting order
    for _ in range(n_particles - 1):
        for k in range(n_particles - 1):
            move = np.flatnonzero(occ[:, k] > occ[:, k + 1])
            occ[move, k], occ[move, k + 1] = occ[move, k + 1], occ[move, k]
            steps.append((k, move))
    _, first, orbit, size = np.unique(np.ravel_multi_index(occ.T, shape), return_index=True,
                                      return_inverse=True, return_counts=True)
    r = occ[first]
    ties = (r[:, 1:] == r[:, :-1]) @ (1 << np.arange(n_particles - 1))  # tied slot pairs as bits
    quanta = r.sum(axis=1)
    sizes = (1,) * n_particles if components is None else components.sizes
    label = np.repeat(np.arange(len(sizes)), sizes)
    blocks = []
    for lam in _partitions(n_particles):
        gens = _young_generators(lam)
        d = len(gens[0])
        f = _kernel(d, [rho for rho, a, b in zip(gens, label, label[1:]) if a == b], -1)
        if not f.shape[1]:
            continue
        e = np.zeros((2 ** (n_particles - 1), d, d))  # fixed vectors of each tie pattern, padded
        width = np.zeros(len(e), dtype=int)
        for p in np.unique(ties):
            basis = _kernel(d, [rho for k, rho in enumerate(gens) if p >> k & 1], 1)
            e[p, :, :basis.shape[1]] = basis
            width[p] = basis.shape[1]
        rho_w = np.broadcast_to(np.eye(d), (len(occ), d, d)).copy()
        for k, move in steps:
            rho_w[move] = rho_w[move] @ gens[k]
        coef = rho_w @ e[ties[orbit]] * np.sqrt(d / size[orbit])[:, None, None]
        for parity in (0, 1):
            cols = np.where(quanta % 2 == parity, width[ties], 0)
            w, j = np.nonzero(np.arange(d) < cols[orbit][:, None])
            # int32 indices, which the contact products of _row_average keep (12 bytes an entry, not 16)
            at = np.array([w, (np.cumsum(cols) - cols)[orbit[w]] + j], dtype=np.int32)
            dims = (len(occ), cols.sum())
            ks = () if len(lam) == n_particles else tuple(
                sparse.csc_array((coef[w, k, j], at), shape=dims) for k in range(d))
            blocks.append((f, np.repeat(quanta, cols) + 0.5 * n_particles, ks))
    return blocks


def _block_contacts(n_modes: int, n_particles: int, blocks: list[_Block]):
    """The sparse contact matrix T^T W T of each block in turn, None for [1^N].

    W commutes with every particle permutation, so only its rows W[R, :] at
    the sorted occupations R, one per orbit, are assembled, over every pair:
    T_f^T W T_f = sum over the d rows e_k of the irrep of
    T_(e_k)[R]^T diag(|orbit| / d) W[R, :] T_(e_k).  The rows are built in
    groups that share their leading occupation, each copied as it is built
    into one set of int32-indexed arrays sized by the nonzero integrals of the
    pairs, and the blocks come from a generator that holds only them.  A
    block's d terms are added one at a time and scaled by 1/d in place.
    """
    shape = (n_modes,) * n_particles
    occ = np.indices(shape).reshape(n_particles, -1).T
    size = np.bincount(np.ravel_multi_index(np.sort(occ, axis=1).T, shape), minlength=len(occ))
    rows = np.flatnonzero(size)  # the sorted occupations, ascending
    r, i4, mode = occ[rows], delta_tensor(n_modes), np.arange(n_modes)
    stride = n_modes ** np.arange(n_particles - 1, -1, -1)
    pairs = list(itertools.combinations(range(n_particles), 2))
    nonzero = np.count_nonzero(i4.reshape(n_modes, n_modes, -1), axis=2)  # at most, per pair
    bound = int(sum(nonzero[r[:, p], r[:, q]].sum() for p, q in pairs))
    data, indices = np.empty(bound), np.empty(bound, dtype=np.int32)
    indptr = np.zeros(len(rows) + 1, dtype=np.int32)
    for g in np.split(np.arange(len(rows)), np.flatnonzero(np.diff(r[:, 0])) + 1):
        w_g = sparse.csr_array((len(g), len(occ)))
        for p, q in pairs:
            # Row o holds i4[r_p, r_q, c, d] at r with slots p, q set to c, d, in ascending columns.
            pair = i4[r[g, p], r[g, q]].reshape(len(g), -1) * size[rows[g], None]
            o, cd = np.nonzero(pair)
            at = (rows[g] - r[g, p] * stride[p] - r[g, q] * stride[q])[o] \
                + np.add.outer(mode * stride[p], mode * stride[q]).ravel()[cd]
            ptr = np.searchsorted(o, np.arange(len(g) + 1))
            w_g = w_g + sparse.csr_array((pair[o, cd], at.astype(np.int32), ptr.astype(np.int32)),
                                         shape=w_g.shape)
        lo = indptr[g[0]]
        data[lo:lo + w_g.nnz], indices[lo:lo + w_g.nnz] = w_g.data, w_g.indices
        indptr[g + 1] = lo + w_g.indptr[1:]
    nnz = indptr[-1]  # a few percent below the bound: the pairs share some entries
    w_r = sparse.csr_array((data[:nnz], indices[:nnz], indptr), shape=(len(rows), len(occ)))
    return (_row_average(w_r, rows, ks) if ks else None for _, _, ks in blocks)


def _row_average(w_r: sparse.csr_array, rows: np.ndarray, ks: tuple[sparse.csc_array, ...]
                 ) -> sparse.csr_array:
    """(1/d) sum over the d isometries T of ks of T[rows]^T w_r T."""
    w_b = ks[0][rows].T @ (w_r @ ks[0])
    for t in ks[1:]:
        w_b = w_b + t[rows].T @ (w_r @ t)
    # scipy divides a sparse array by multiplying with the reciprocal: the same bits
    w_b *= 1.0 / len(ks)
    return w_b


def _solve_block(w_b: sparse.csr_array | None, h0: np.ndarray, g_values: tuple[float, ...],
                 k: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Lowest k states of diag(h0) + g w_b in the block, at every coupling g.

    Returns (energies, eigenvectors in the block, contact expectations) per
    coupling.  A dense solve refills one Fortran-ordered buffer per coupling,
    from one CSC copy of w_b, and lets eigh overwrite it.  For [1^N] (w_b
    None) they are the unit vectors of the k lowest trap energies, stably.
    """
    if w_b is None:
        order = np.argsort(h0, kind="stable")[:k]
        x = (np.arange(len(h0))[:, None] == order).astype(float)
        return [(h0[order], x, np.zeros(k))] * len(g_values)
    dense = len(h0) <= DENSE_DIM_CAP or k >= len(h0) - 1
    buf = np.empty((len(h0), len(h0)), order="F") if dense else None
    fill = w_b.tocsc() if dense else None  # buf's layout, converted once, not per coupling
    diag = np.arange(len(h0))
    solved = []
    for g in g_values:
        if dense:
            fill.toarray(out=buf)  # zeroes buf first
            buf *= g
            buf[diag, diag] += h0
            e, x = eigh(buf, subset_by_index=[0, k - 1], overwrite_a=True, check_finite=False)
        else:
            # the Hamiltonian as a product, so no sparse copy of w_b is built
            ham = LinearOperator(w_b.shape, lambda v: g * (w_b @ v) + h0 * v, dtype=float)
            v0 = np.random.default_rng(0).standard_normal(len(h0))
            e, x = eigsh(ham, k, which="SA", v0=v0, tol=0)
        solved.append((e, x, np.einsum("ij,ij->j", x, w_b @ x)))
    return solved


def _solve_blocks(cfg: EDConfig, blocks: list[_Block], n_keep: int
                  ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, tuple]]:
    """Lowest n_keep states of every coupling from solves of the blocks.

    Each block is solved once, as diag(trap energies) + g W_b with W_b from
    _block_contacts: densely, in one buffer per block, while it is no wider
    than DENSE_DIM_CAP (or wants all but at most one of its states), otherwise
    by implicitly restarted Lanczos (ARPACK) on the product
    g (W_b v) + h0 v from a seeded start vector, so that reruns agree bit
    for bit.  A block's contact and buffer are dropped before the next
    block's contact is built.  Every retained row of a block carries its
    states.  [1^N] blocks take no solve: their states are their columns in
    stable order of trap energy, with contact expectation 0.  Per coupling,
    the kept energies (a stable sort in the fixed block and row order), their
    block rows and eigenvector columns, contact expectations, and the block
    eigenvectors of every row; nothing is mapped to the product basis.
    """
    contacts = _block_contacts(cfg.n_modes, cfg.n_particles, blocks)
    solved = [_solve_block(next(contacts), h0, cfg.g_values, min(n_keep, len(h0)))
              for _, h0, _ in blocks]
    spectra = []
    for gi in range(len(cfg.g_values)):
        es, xs, cs = zip(*[states[gi] for (f, _, _), states in zip(blocks, solved)
                           for _ in range(f.shape[1])])
        vals, contact = np.concatenate(es), np.concatenate(cs)
        order = np.argsort(vals, kind="stable")[:n_keep]
        row = np.repeat(np.arange(len(es)), [len(e) for e in es])[order]
        col = np.concatenate([np.arange(len(e)) for e in es])[order]
        spectra.append((vals[order], row, col, contact[order], xs))
    return spectra


def diagonalize(cfg: EDConfig) -> EDResult:
    """Solve the truncated contact-interaction problem at every coupling.

    The Hamiltonian commutes with total parity and with every particle
    permutation of the basis, so it is solved in the irrep and parity
    blocks of _symmetry_blocks, once per block and none for the
    contact-free [1^N]; every row of a block counts in basis_dim.  Every
    basis takes this path: DENSE_DIM_CAP only chooses, block by block,
    between a dense solve in one buffer per block and a sparse Lanczos
    eigensolver (_solve_blocks).  The lowest n_states + 2 states of each
    coupling are matched across couplings by maximal-overlap assignment
    starting from the smallest coupling, and the first n_states tracked
    columns are returned.  The row isometries are orthonormal, so only
    states of one block row overlap, as their block eigenvectors x_prev^T x.
    """
    blocks = _symmetry_blocks(cfg.n_modes, cfg.n_particles, cfg.components)
    dim = sum(f.shape[1] * len(h0) for f, h0, _ in blocks)
    if cfg.n_states > dim:
        raise ValueError(f"n_states={cfg.n_states} exceeds basis dimension {dim}")
    # Two buffer states keep a crossing at the cutoff from derailing the
    # tracking of the last retained column.
    n_keep = min(cfg.n_states + 2, dim)
    spectra = _solve_blocks(cfg, blocks, n_keep)
    n_g = len(cfg.g_values)
    energies = np.empty((n_g, n_keep))
    tracked = np.empty_like(energies)
    quality = np.ones_like(energies)
    inter = np.empty_like(energies)
    prev = None
    for gi, (vals, row, col, contact, xs) in enumerate(spectra):
        energies[gi] = vals
        if prev is None:
            perm = np.arange(n_keep)
        else:
            p_row, p_col, p_xs = prev
            overlap = np.zeros((n_keep, n_keep))
            for r in np.intersect1d(p_row, row):
                a, b = np.flatnonzero(p_row == r), np.flatnonzero(row == r)
                overlap[np.ix_(a, b)] = np.abs(p_xs[r][:, p_col[a]].T @ xs[r][:, col[b]])
            # + 1 keeps every zero overlap an edge, without moving the optimum; rows come back
            # as 0..n_keep-1
            _, perm = min_weight_full_bipartite_matching(sparse.csr_array(overlap + 1.0),
                                                         maximize=True)
            quality[gi] = overlap[np.arange(n_keep), perm]
        tracked[gi] = vals[perm]
        inter[gi] = contact[perm]
        prev = row[perm], col[perm], xs
    return EDResult(
        config=cfg,
        basis_dim=dim,
        energies=energies[:, :cfg.n_states],
        tracked=tracked[:, :cfg.n_states],
        track_quality=quality[:, :cfg.n_states],
        interaction=inter[:, :cfg.n_states],
    )


@dataclass(frozen=True)
class SlopeFit:
    """Weighted fit of one tracked energy against 1/g.

    k_value is the negated slope; uncertainty combines the fit-residual
    half width (Student-t at 95%) with the shift under a basis reduced
    by four modes.
    """

    state_index: int
    k_value: float
    intercept: float
    residual_halfwidth: float
    truncation_shift: float

    @property
    def uncertainty(self) -> float:
        return self.residual_halfwidth + self.truncation_shift


def _weighted_slope(g: np.ndarray, e: np.ndarray) -> tuple[float, float, float]:
    """Slope, intercept and slope half-width of e vs 1/g, weights g^2."""
    x = 1.0 / g
    w = g**2
    xm = np.average(x, weights=w)
    em = np.average(e, weights=w)
    sxx = np.sum(w * (x - xm) ** 2)
    slope = np.sum(w * (x - xm) * (e - em)) / sxx
    resid = e - em - slope * (x - xm)
    dof = len(g) - 2
    if dof > 0:
        s2 = np.sum(w * resid**2) / dof
        half = float(stdtrit(dof, 0.975)) * math.sqrt(s2 / sxx)
    else:
        half = math.inf
    return float(slope), float(em - slope * xm), half


def slope_fit(result: EDResult, state_index: int,
              reduced: EDResult | None = None) -> SlopeFit:
    """Extract K for one tracked state, with an honest uncertainty.

    The energies demand at least three couplings.  When no reduced-basis
    result is supplied, the same configuration is rerun with four fewer
    modes to estimate the truncation contribution.  A column tracked
    through overlap 0 is refused, and skipped among the reduced columns.
    """
    cfg = result.config
    if len(cfg.g_values) < 3:
        raise ValueError("slope fits need at least three couplings")
    if not 0 <= state_index < cfg.n_states:
        raise ValueError(f"state index {state_index} outside 0..{cfg.n_states - 1}")
    g = np.asarray(cfg.g_values)
    lost = np.flatnonzero(result.track_quality[:, state_index] == 0)
    if lost.size:
        raise ValueError(f"column {state_index} is tracked through overlap 0 at g = "
                         f"{g[lost[0]]:g}, onto an arbitrary state; retain more states (--states)")
    slope, intercept, half = _weighted_slope(g, result.tracked[:, state_index])
    if reduced is None:
        reduced = diagonalize(replace(cfg, n_modes=cfg.n_modes - 4))
    # Adiabatic tracking may order columns differently in the reduced
    # basis, so match by nearest fitted slope instead of column index.
    r_slopes = [_weighted_slope(g, reduced.tracked[:, j])[0]
                for j in np.flatnonzero(np.all(reduced.track_quality > 0, axis=0))]
    r_slope = min(r_slopes, key=lambda s: abs(s - slope))
    return SlopeFit(
        state_index=state_index,
        k_value=-slope,
        intercept=intercept,
        residual_halfwidth=half,
        truncation_shift=abs(r_slope - slope),
    )
