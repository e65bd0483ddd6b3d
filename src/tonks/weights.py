"""Boundary weights and slot distributions from ordered overlaps.

When two neighbouring particles in the ordered configuration
x_1 < ... < x_N meet at the k-th boundary (x_k = x_{k+1} = z), the
strong-coupling energy shift is controlled by

    gamma_k = N! * integral over the ordered free coordinates and z of
              (d Psi / d x_k at the coincidence)^2

where Psi is the free-fermion reference state.  The spectators enter
only through products of two Slater minors, so by Andreief /
Cauchy-Binet their ordered integrals collapse onto the ordered overlap
matrix A(z)_ij = integral_{-inf}^z phi_i phi_j of the occupied orbitals.
With G(lambda) = lambda A(z) + (A(inf) - A(z)) and the two rows of U
holding phi'(z) and phi(z), gamma_k = integral dz [lambda^(k-1)] of the
bordered determinant det [[G, U^T], [U, 0]].  Whitened by the Cholesky
factor of A(inf), A(z) = Q diag(a) Q^T with each a_l in [0, 1], and the
determinant is det A(inf) sum_{i<j} M_ij^2 prod_{l != i,j} c_l(lambda),
with c_l = 1 - a_l + lambda a_l and M_ij the 2x2 minors of the whitened
U Q; one real product recurrence yields every boundary.  Its plain
product, det G / det A(inf), is the law of the number of particles below
z, a sum of independent Bernoulli(a_l) (the counting law of a
determinantal process), hence the exact distribution of each ordered
slot.  The z integral uses composite Gauss-Legendre panels doubled until
the change, plus a rounding floor, is below the tolerance; the first pass
takes the fewest doublings on which A(inf) has a Cholesky factor.
Orbitals solved on a grid add the change of gamma on their companion
grid and one machine epsilon per grid point to the error.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial.legendre import leggauss, legvander

from .slater import SlaterState

METHOD = "ordered-overlap"
DEFAULT_TOL = 1e-10
PANEL_ORDER = 16
START_PANELS = 4
MAX_DOUBLINGS = 8
DECAY_EPS = 1e-12
EPS = float(np.finfo(float).eps)


class ToleranceError(RuntimeError):
    """Requested integration tolerance was not reached; carries the best estimate."""

    def __init__(self, message: str, best: "BoundaryWeight | None"):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class BoundaryWeight:
    """One boundary weight with its estimated absolute error."""

    k: int
    value: float
    error: float
    method: str


def _rule() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes t and weights w on [-1, 1] and the integration matrix.

    S[q, r] integrates the r-th Lagrange basis polynomial from -1 to t[q],
    so S @ f is the running integral of the interpolant of f at the nodes.
    """
    t, w = leggauss(PANEL_ORDER)
    p = legvander(t, PANEL_ORDER)
    n = np.arange(1, PANEL_ORDER)
    # integral_{-1}^t P_n = (P_{n+1}(t) - P_{n-1}(t)) / (2n + 1) for n >= 1.
    lint = np.column_stack([t + 1.0, (p[:, 2:] - p[:, :-2]) / (2 * n + 1)])
    coeff = (p[:, :PANEL_ORDER] * w[:, None]).T * (np.arange(PANEL_ORDER) + 0.5)[:, None]
    return t, w, lint @ coeff


_T, _W, _S = _rule()


def _overlaps(state: SlaterState, breaks: np.ndarray):
    """Composite Gauss-Legendre rule over the panels between breaks, with overlaps.

    Returns the rule weights (P, p), the orbital values and derivatives at
    its nodes (N, P, p), and A at the nodes (P, p, N, N) and at the breaks
    (P + 1, N, N).  A at the nodes integrates each panel's interpolant.
    """
    half = 0.5 * np.diff(breaks)
    z = (breaks[:-1] + half)[:, None] + half[:, None] * _T
    vals, ders = state.basis.eval_many(list(state.occupation), z)
    f = np.einsum("ipq,jpq->pqij", vals, vals)
    n = state.n
    panel = np.einsum("p,q,pqij->pij", half, _W, f)
    at_breaks = np.concatenate([np.zeros((1, n, n)), np.cumsum(panel, axis=0)])
    at_nodes = at_breaks[:-1, None] + half[:, None, None, None] * np.einsum("qr,prij->pqij", _S, f)
    return half[:, None] * _W, vals, ders, at_nodes, at_breaks


def _refine(compute, tol: float):
    """Double the panels until |Q(2P) - Q(P)| plus the rounding floor is within tol.

    compute(panels) returns (estimate, floor) arrays.  A first pass on too
    few panels to integrate A(inf) to a positive definite matrix, which its
    Cholesky factor needs, is retried on twice the panels; those doublings
    count against the same budget.  Returns (estimate, error, panels,
    converged).
    """
    panels = START_PANELS
    top = START_PANELS << MAX_DOUBLINGS
    while True:
        try:
            prev, _ = compute(panels)
            break
        except np.linalg.LinAlgError:
            panels *= 2
            if panels == top:
                raise ToleranceError(
                    f"A(inf) is not positive definite on {panels // 2} panels", None) from None
    while panels < top:
        panels *= 2
        cur, floor = compute(panels)
        err = np.abs(cur - prev) + floor
        if np.max(err) <= tol:
            return cur, err, panels, True
        prev = cur
    return cur, err, panels, False


def _whitened(a, total):
    """Eigenvalues in [0, 1] of A whitened by A(inf), the row map to its eigenbasis, det A(inf)."""
    chol = np.linalg.cholesky(total)
    inv = np.linalg.inv(chol)
    ev, q = np.linalg.eigh(inv @ a @ inv.T)
    return np.clip(ev, 0.0, 1.0), inv.T @ q, float(np.prod(np.diag(chol))) ** 2


def _products(a, d, v):
    """Coefficients in lambda of products over c_l(lambda) = 1 - a_l + lambda a_l.

    Returns the counting law prod_l c_l, the pair sum sum_{i<j} M_ij^2
    prod_{l != i,j} c_l with M_ij = d_i v_j - d_j v_i, and that sum without
    the cross terms -2 d_i v_i d_j v_j, which bounds every term (AM-GM).
    """
    # the law, its sums marked once by d^2, v^2 and d v, the pair sum and its bound
    p = np.zeros((6,) + a.shape[:-1] + (a.shape[-1] + 1,))
    p[0, ..., 0] = 1.0
    for al, x, y, w in np.moveaxis(np.stack([a, d * d, v * v, d * v]), -1, 0)[..., None]:
        cross = x * p[2] + y * p[1]
        q = p * (1.0 - al)
        q[..., 1:] += p[..., :-1] * al
        q[1:] += np.stack([x * p[0], y * p[0], w * p[0], cross - 2.0 * w * p[3], cross])
        p = q
    return p[0], p[4], p[5]


def _gamma_pass(state: SlaterState, radius: float, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """All N-1 boundary weights on one rule; each floor is N eps times its bound's integral."""
    w, vals, ders, a, at_breaks = _overlaps(state, np.linspace(-radius, radius, panels + 1))
    ev, frame, scale = _whitened(a, at_breaks[-1])
    _, pairs, bound = _products(ev, *np.einsum("sipq,pqil->spql", np.stack([ders, vals]), frame))
    values, floor = scale * np.einsum("pq,spqk->sk", w, np.stack([pairs, bound])[..., :-2])
    return values, EPS * state.n * floor


def all_gammas(state: SlaterState, tol: float = DEFAULT_TOL) -> list[BoundaryWeight]:
    """All boundary weights gamma_1..gamma_{N-1} from one pass, each within tol.

    No parity shortcut is taken, so gamma_k = gamma_{N-k} in a symmetric
    trap stays an independent check of the reported errors.
    """
    if state.n < 2:
        raise ValueError("boundary weights need at least 2 particles")
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    radius = state.basis.decay_radius(state.occupation, eps=DECAY_EPS)
    values, errors, panels, ok = _refine(lambda p: _gamma_pass(state, radius, p), tol)
    twin = getattr(state.basis, "companion", None)
    if ok and twin is not None:
        # Grid-solved orbitals: add the change on the companion grid and a
        # rounding floor that grows with the number of grid points.
        coarse, _, _, ok = _refine(lambda p: _gamma_pass(replace(state, basis=twin), radius, p),
                                   tol)
        errors = errors + np.abs(values - coarse) + EPS * len(state.basis.grid) * np.abs(values)
        ok = ok and np.max(errors) <= tol
    out = [BoundaryWeight(k=k, value=float(v), error=float(e), method=METHOD)
           for k, (v, e) in enumerate(zip(values, errors), start=1)]
    if not ok:
        worst = max(out, key=lambda b: b.error)
        raise ToleranceError(
            f"boundary {worst.k} reached error {worst.error:.3e} after {panels} panels, "
            f"above tol {tol:.1e}",
            worst,
        )
    return out


def slot_cdf(state: SlaterState, x) -> np.ndarray:
    """Exact distribution functions of the ordered slots in the reference state.

    F[s, j] is the probability that the (s+1)-th particle from the left
    lies at or below x[j]: the probability of at least s+1 particles
    below x[j] under the counting law prod_l c_l(lambda).
    The panels are doubled until every value settles within DEFAULT_TOL.
    """
    x = np.asarray(x, dtype=float)
    radius = state.basis.decay_radius(state.occupation, eps=DECAY_EPS)
    inside = np.clip(x, -radius, radius)

    def compute(panels):
        breaks = np.union1d(np.linspace(-radius, radius, panels + 1), inside)
        *_, at_breaks = _overlaps(state, breaks)
        a = at_breaks[np.searchsorted(breaks, inside)]
        ev, _, _ = _whitened(a, at_breaks[-1])
        cdf = np.cumsum(_products(ev, 0 * ev, 0 * ev)[0][..., ::-1], axis=-1)[..., -2::-1]
        return cdf.T, EPS * state.n

    cdf, err, panels, ok = _refine(compute, DEFAULT_TOL)
    if not ok:
        raise ToleranceError(
            f"slot distribution reached error {float(np.max(err)):.3e} after {panels} panels, "
            f"above tol {DEFAULT_TOL:.1e}",
            None,
        )
    return cdf
