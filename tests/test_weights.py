"""Boundary weights and slot distributions: closed-form anchors, honest errors, parity."""

import math

import numpy as np
import pytest

from tonks.slater import make_level
from tonks.traps import HarmonicBasis, Trap, solve_tabulated
from tonks.weights import BoundaryWeight, ToleranceError, all_gammas, gamma, slot_cdf

GAMMA_2 = math.sqrt(2.0 / math.pi)
GAMMA_3 = 27.0 / (8.0 * math.sqrt(2.0 * math.pi))
# Relative agreement of a tabulated harmonic trap (finite differences on a
# 0.01 grid) with the analytic orbitals.
TABLE_RTOL = 1e-4


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
    w = gamma(state2, 1)
    assert w.method == "ordered-overlap"
    assert w.value == pytest.approx(GAMMA_2, abs=1e-14)
    assert w.error < 1e-10


def test_three_body_anchor(state3):
    for k in (1, 2):
        w = gamma(state3, k)
        assert w.value == pytest.approx(GAMMA_3, abs=1e-14)
        assert w.error < 1e-10


def test_boundary_index_range(state3):
    with pytest.raises(ValueError):
        gamma(state3, 0)
    with pytest.raises(ValueError):
        gamma(state3, 3)


def test_excited_state_weights_positive(basis):
    s = make_level(basis, 3, level=1)
    for w in all_gammas(s):
        assert w.value > 0
        assert w.error < 1e-8


def test_config_validation(state3):
    for tol in (0.0, -1e-10, math.nan):
        with pytest.raises(ValueError, match="tolerance"):
            gamma(state3, 1, tol=tol)
        with pytest.raises(ValueError, match="tolerance"):
            all_gammas(state3, tol=tol)


def test_tolerance_error_carries_best(state3):
    with pytest.raises(ToleranceError) as info:
        gamma(state3, 1, tol=1e-16)
    best = info.value.best
    assert isinstance(best, BoundaryWeight)
    assert best.k == 1
    assert best.value == pytest.approx(GAMMA_3, rel=1e-6)
    assert best.error > 1e-16


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
    for n in range(2, 13):
        ws = all_gammas(make_level(basis, n))
        assert [w.k for w in ws] == list(range(1, n))
        for w in ws:
            assert 0.0 < w.error <= 1e-10
            if n in anchors:
                assert abs(w.value - anchors[n]) <= w.error
        for a, b in zip(ws, reversed(ws)):
            assert abs(a.value - b.value) <= min(a.error, b.error)


def test_tabulated_trap_matches_analytic(basis):
    x = np.linspace(-8.0, 8.0, 1601)
    table = solve_tabulated(Trap.from_table(x, 0.5 * x * x), count=3)
    for n in (2, 3):
        exact = all_gammas(make_level(basis, n))
        tab = all_gammas(make_level(table, n))
        for e, t in zip(exact, tab):
            assert t.value == pytest.approx(e.value, rel=TABLE_RTOL)


def test_slot_cdf_against_direct_quadrature(state2):
    # F_1(x) = 1 - P(both particles above x), integrated on a tensor grid
    # straight from the determinant.
    t, w = np.polynomial.legendre.leggauss(80)
    for x in (-1.3, 0.0, 0.7):
        hi = 9.0
        y = x + 0.5 * (hi - x) * (t + 1.0)
        wy = 0.5 * (hi - x) * w
        yy = np.stack(np.meshgrid(y, y, indexing="ij"), axis=-1)
        above = float(np.einsum("i,j,ij->", wy, wy, state2.psi(yy) ** 2))
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
