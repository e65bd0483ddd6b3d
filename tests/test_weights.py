"""Boundary weights and slot distributions: closed-form anchors, honest errors, parity."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tonks.slater import SlaterState, make_level
from tonks.traps import HarmonicBasis, Trap, solve_tabulated
from reference import psi
from tonks import weights
from tonks.weights import BoundaryWeight, ToleranceError, _products, all_gammas, slot_cdf

GAMMA_2 = math.sqrt(2.0 / math.pi)
GAMMA_3 = 27.0 / (8.0 * math.sqrt(2.0 * math.pi))
# Agreement of a tabulated harmonic trap (sinc-DVR orbitals, table spacings
# 0.2 to 0.01) with the analytic orbitals: rounding only, about 1e-13.
TABLE_ATOL = 1e-12
# The slot distributions of smooth harmonic orbitals carry rounding only
# (about 1e-14 for N <= 8), far below the engine's tolerance.
ROUNDING = 1e-12


@pytest.fixture(scope="module")
def basis():
    return HarmonicBasis()


@pytest.fixture(scope="module")
def state2(basis):
    return make_level(basis, 2)


@pytest.fixture(scope="module")
def state3(basis):
    return make_level(basis, 3)


def test_two_body_anchor(state2):
    (w,) = all_gammas(state2)
    assert w.method == "ordered-overlap"
    assert w.value == pytest.approx(GAMMA_2, abs=1e-14)
    assert w.error < 1e-10


def test_three_body_anchor(state3):
    for w in all_gammas(state3):
        assert w.value == pytest.approx(GAMMA_3, abs=1e-14)
        assert w.error < 1e-10


def test_excited_state_weights_positive(basis):
    s = make_level(basis, 3, level=1)
    for w in all_gammas(s):
        assert w.value > 0
        assert w.error < 1e-8


def test_config_validation(state3):
    for tol in (0.0, -1e-10, math.nan):
        with pytest.raises(ValueError, match="tolerance"):
            all_gammas(state3, tol=tol)


def test_tolerance_error_carries_best(state3):
    with pytest.raises(ToleranceError) as info:
        all_gammas(state3, tol=1e-16)
    best = info.value.best
    assert isinstance(best, BoundaryWeight)
    # the boundary that missed tol by most: one of the two, each gamma_3
    assert best.k in (1, 2)
    assert best.value == pytest.approx(GAMMA_3, rel=1e-6)
    assert best.error > 1e-16


def test_first_pass_doublings_run_out():
    # A compute that never finds a Cholesky factor of A(inf) exhausts the
    # doublings and names the last panel count tried.
    def singular(panels):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    top = weights.START_PANELS << weights.MAX_DOUBLINGS
    with pytest.raises(ToleranceError, match=rf"A\(inf\) is not positive definite on {top // 2} panels"):
        weights._refine(singular, 1e-10)


def test_four_body_symmetry():
    # Parity maps boundary 1 onto boundary 3; nothing mirrors the result,
    # so the two must agree within the reported errors.
    w1, w2, w3 = all_gammas(make_level(HarmonicBasis(), 4))
    assert abs(w1.value - w3.value) <= min(w1.error, w3.error)
    for w in (w1, w2, w3):
        assert w.value > 0
        assert w.error < 1e-10


def test_reported_error_covers_parity_and_closed_forms(basis):
    # The doubling delta alone can be exactly zero; the rounding floor must
    # still cover the parity gaps, which are pure rounding.
    anchors = {2: GAMMA_2, 3: GAMMA_3}
    for n in [*range(2, 13), 20, 30]:
        ws = all_gammas(make_level(basis, n))
        assert [w.k for w in ws] == list(range(1, n))
        for w in ws:
            assert 0.0 < w.error <= 1e-10
            if n in anchors:
                assert abs(w.value - anchors[n]) <= w.error
        for a, b in zip(ws, reversed(ws)):
            assert abs(a.value - b.value) <= min(a.error, b.error)


class _MixedBasis:
    """The lowest harmonic orbitals mixed by an invertible matrix: not orthonormal."""

    def __init__(self, mix):
        self.mix = np.asarray(mix, dtype=float)
        self.harmonic = HarmonicBasis()

    def eval_many(self, ns, x):
        vals, ders = self.harmonic.eval_many(range(len(self.mix)), x)
        return (np.tensordot(self.mix, vals, axes=1)[list(ns)],
                np.tensordot(self.mix, ders, axes=1)[list(ns)])

    def decay_radius(self, ns, eps=1e-12):
        scale = np.max(np.sum(np.abs(self.mix), axis=1))
        return self.harmonic.decay_radius(range(len(self.mix)), eps=eps / scale)


def test_whitening_is_exact_for_mixed_orbitals(basis):
    # Mixing the occupied orbitals by M maps A(z) to M A(z) M^T and the
    # border rows to U M^T, so every bordered determinant, hence gamma_k,
    # scales by det(M)^2, and the counting law of the slots is unchanged.
    n = 4
    mix = np.eye(n) + 0.4 * np.random.default_rng(7).standard_normal((n, n))
    mixed = SlaterState(basis=_MixedBasis(mix), occupation=tuple(range(n)), energy=0.0)
    plain = make_level(basis, n)
    scale = np.linalg.det(mix) ** 2
    assert abs(scale - 1.0) > 0.1
    for m, p in zip(all_gammas(mixed), all_gammas(plain)):
        assert m.value == pytest.approx(scale * p.value, rel=1e-12)
    x = np.linspace(-4.0, 4.0, 17)
    np.testing.assert_allclose(slot_cdf(mixed, x), slot_cdf(plain, x), rtol=0, atol=1e-13)


def test_products_against_pair_expansion():
    # The recurrence against sum_{i<j} M_ij^2 prod_{l != i,j} c_l(lambda)
    # expanded term by term, M_ij = d_i v_j - d_j v_i, c_l = 1 - a_l + lambda a_l.
    poly = np.polynomial.Polynomial
    rng = np.random.default_rng(3)
    for n in range(2, 8):
        for _ in range(20):
            a, d, v = rng.uniform(size=n), rng.standard_normal(n), rng.standard_normal(n)
            c = [poly([1.0 - al, al]) for al in a]
            law, pairs, bound = _products(a, d, v)
            pair_sum = poly([0.0])
            for i, j in itertools.combinations(range(n), 2):
                rest = math.prod((c[l] for l in range(n) if l not in (i, j)), start=poly([1.0]))
                pair_sum = pair_sum + (d[i] * v[j] - d[j] * v[i]) ** 2 * rest
            expected = np.zeros(n + 1)
            expected[: len(pair_sum.coef)] = pair_sum.coef
            # Rounding scales with the terms summed, not with their sum: M_ij^2
            # can nearly cancel, and by AM-GM each of its terms is at most
            # d_i^2 v_j^2 + d_j^2 v_i^2, which the bound sums.
            assert np.all(np.abs(pairs - expected) <= 1e-13 * bound)
            assert np.all(np.abs(pairs) <= 2.0 * bound)
            assert np.all(law >= 0.0)
            assert abs(law.sum() - 1.0) <= n * np.finfo(float).eps
            np.testing.assert_allclose(law, math.prod(c).coef, rtol=1e-13, atol=0)


def test_tabulated_trap_matches_analytic(basis):
    # The CLI's n + 8 orbitals on unit harmonic tables: each gamma agrees
    # with the analytic one, and the two error bars together cover the gap.
    for points in (81, 161, 801, 1601):
        x = np.linspace(-8.0, 8.0, points)
        trap = Trap.from_table(x, 0.5 * x * x)
        for n in range(2, 7):
            exact = all_gammas(make_level(basis, n))
            tab = all_gammas(make_level(solve_tabulated(trap, count=n + 8), n))
            for e, t in zip(exact, tab):
                assert abs(t.value - e.value) <= min(TABLE_ATOL, t.error + e.error)


def test_tabulated_error_carries_companion_change_and_rounding():
    # The error bar of grid-solved orbitals holds at least the change of
    # gamma on the companion grid (every other point) plus a rounding
    # floor of one machine epsilon per grid point.
    x = np.linspace(-8.0, 8.0, 81)
    for n in range(2, 7):
        table = solve_tabulated(Trap.from_table(x, 0.5 * x * x), count=n + 8)
        state = make_level(table, n)
        twin = SlaterState(basis=table.companion, occupation=state.occupation, energy=state.energy)
        for t, c in zip(all_gammas(state), all_gammas(twin)):
            floor = np.finfo(float).eps * len(table.grid) * t.value
            assert t.error >= abs(t.value - c.value) + floor


def test_slot_cdf_against_direct_quadrature(state2):
    # F_1(x) = 1 - P(both particles above x), integrated on a tensor grid
    # straight from the determinant.
    t, w = np.polynomial.legendre.leggauss(80)
    for x in (-1.3, 0.0, 0.7):
        hi = 9.0
        y = x + 0.5 * (hi - x) * (t + 1.0)
        wy = 0.5 * (hi - x) * w
        yy = np.stack(np.meshgrid(y, y, indexing="ij"), axis=-1)
        above = float(np.einsum("i,j,ij->", wy, wy, psi(state2, yy) ** 2))
        cdf = slot_cdf(state2, [x])
        assert cdf[0, 0] == pytest.approx(1.0 - above, abs=1e-13)
        assert 0.0 <= cdf[1, 0] <= cdf[0, 0]


def test_slot_cdf_limits(state3):
    cdf = slot_cdf(state3, [-30.0, 0.0, 30.0])
    assert cdf.shape == (3, 3)
    np.testing.assert_allclose(cdf[:, 0], 0.0, atol=1e-15)
    np.testing.assert_allclose(cdf[:, 2], 1.0, atol=1e-14)
    # mirror symmetry: slot s below 0 as often as slot N-1-s above it
    np.testing.assert_allclose(cdf[:, 1], 1.0 - cdf[::-1, 1], atol=1e-14)


def _occupations(n, excitation):
    """Harmonic occupations of n fermions lying excitation quanta above the ground level."""
    return [occ for occ in itertools.combinations(range(n + excitation), n)
            if sum(occ) - n * (n - 1) // 2 == excitation]


@st.composite
def _harmonic_states(draw):
    # Levels 0-2 by excitation: make_level rejects level 2 itself, where
    # (0..N-2, N+1) and (0..N-3, N-1, N) tie, so every occupation is drawn.
    n = draw(st.integers(2, 8))
    occ = draw(st.sampled_from(_occupations(n, draw(st.integers(0, 2)))))
    basis = HarmonicBasis()
    return SlaterState(basis=basis, occupation=occ, energy=sum(basis.energy(m) for m in occ))


@settings(max_examples=15, deadline=None)
@given(_harmonic_states())
def test_parity_within_reported_errors(state):
    ws = all_gammas(state)
    for a, b in zip(ws, reversed(ws)):
        assert abs(a.value - b.value) <= a.error + b.error


@settings(max_examples=15, deadline=None)
@given(_harmonic_states(), st.lists(st.floats(-6.0, 6.0), min_size=2, max_size=12))
def test_slot_cdf_monotone_and_ordered(state, xs):
    cdf = slot_cdf(state, np.sort(xs))
    assert np.all(np.diff(cdf, axis=1) >= -ROUNDING)
    # the (s+1)-th particle from the left is below x at least as often as the (s+2)-th
    assert np.all(cdf[:-1] >= cdf[1:] - ROUNDING)


@settings(max_examples=15, deadline=None)
@given(_harmonic_states(), st.floats(-6.0, 0.0),
       st.lists(st.floats(0.05, 1.5), min_size=1, max_size=10))
def test_slot_densities_sum_to_free_density(state, start, widths):
    edges = start + np.concatenate([[0.0], np.cumsum(widths)])
    slots = np.diff(slot_cdf(state, edges), axis=1) / np.diff(edges)
    # Independent bin averages of sum phi^2 by a 64-point Gauss-Legendre rule per bin.
    t, w = np.polynomial.legendre.leggauss(64)
    lo, hi = edges[:-1], edges[1:]
    nodes = 0.5 * (lo + hi)[:, None] + 0.5 * (hi - lo)[:, None] * t
    vals, _ = state.basis.eval_many(list(state.occupation), nodes)
    free = 0.5 * np.einsum("ibq,q->b", vals**2, w)
    np.testing.assert_allclose(slots.sum(axis=0), free, rtol=0, atol=ROUNDING)
