"""Reference determinant states: level selection, and the determinant's closed forms,
symmetries and normalization through the test reference evaluator."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import grad, level_reference, psi
from tonks.slater import SlaterState, make_level
from tonks.traps import HarmonicBasis


@pytest.fixture(scope="module")
def basis():
    return HarmonicBasis()


def test_ground_levels(basis):
    s2 = make_level(basis, 2)
    assert s2.occupation == (0, 1)
    assert s2.energy == pytest.approx(2.0, abs=1e-12)
    s3 = make_level(basis, 3)
    assert s3.occupation == (0, 1, 2)
    assert s3.energy == pytest.approx(4.5, abs=1e-12)


def test_excited_level_unique(basis):
    s = make_level(basis, 3, level=1)
    assert s.occupation == (0, 1, 3)
    assert s.energy == pytest.approx(5.5, abs=1e-12)


def test_degenerate_level_rejected(basis):
    # Level 2 of three particles: (0,2,3) and (0,1,4) tie at energy 6.5.
    with pytest.raises(ValueError, match="degenerate"):
        make_level(basis, 3, level=2)


@pytest.mark.parametrize("level, shell", [
    (4, "(0, 1, 5), (0, 2, 4), (1, 2, 3) share total energy 7.5"),
    (7, "(0, 1, 6), (0, 2, 5), (0, 3, 4), (1, 2, 4) share total energy 8.5"),
])
def test_degenerate_level_names_whole_shell(basis, level, shell):
    with pytest.raises(ValueError, match=rf"level {level} is degenerate: occupations {re.escape(shell)} within"):
        make_level(basis, 3, level=level)


def test_high_level_of_many_particles_is_found_at_once(basis):
    # 45 pops to the shell of 7 quanta; sorting every occupation would take C(61, 20) ~ 6.2e15
    with pytest.raises(ValueError, match="degenerate"):
        make_level(basis, 20, level=40)
    assert make_level(basis, 100).occupation == tuple(range(100))
    assert make_level(basis, 40, level=1).occupation == (*range(39), 40)


def test_level_beyond_cap_rejected(basis):
    with pytest.raises(ValueError):
        make_level(basis, 250)


class _Orbitals:
    """Orbital energies alone: all make_level reads of a basis."""

    def __init__(self, energies):
        self.energies, self.cap = energies, len(energies) - 1

    def energy(self, m):
        return self.energies[m]


@st.composite
def _spectra(draw):
    """Non-decreasing orbital energies up to a cap of 3..14: harmonic-spaced, which ties
    many occupations, random, or drawn from a few repeated values."""
    size = draw(st.integers(4, 15))
    kind = draw(st.sampled_from(["harmonic", "random", "repeated"]))
    if kind == "harmonic":
        omega = draw(st.floats(0.1, 3.0))
        return [omega * (m + 0.5) for m in range(size)]
    values = st.floats(-2.0, 5.0) if kind == "random" else st.sampled_from([0.0, 0.5, 1.0, 1.7, 3.3])
    return sorted(draw(st.lists(values, min_size=size, max_size=size)))


@settings(max_examples=300, deadline=None)
@given(_spectra(), st.data())
def test_level_walk_matches_sorted_occupations(energies, data):
    n = data.draw(st.integers(1, min(6, len(energies))))
    level = data.draw(st.integers(0, 12))
    try:
        expected = level_reference(energies, n, level)
    except ValueError as exc:
        with pytest.raises(ValueError, match=exc.args[0]) as got:
            make_level(_Orbitals(energies), n, level)
        if exc.args[0] == "degenerate":
            assert f"occupations {', '.join(map(str, exc.args[1]))} share" in str(got.value)
        return
    s = make_level(_Orbitals(energies), n, level)
    # the same occupation, and the same float sum bit for bit
    assert (s.occupation, s.energy.hex()) == (expected[1], expected[0].hex())


def test_two_body_closed_form(basis):
    s2 = make_level(basis, 2)
    # det[phi_0, phi_1] / sqrt(2) at (0, 1)
    expected = math.pi**-0.5 * math.exp(-0.5)
    assert psi(s2, np.array([0.0, 1.0])) == pytest.approx(expected, rel=1e-14)


def test_two_body_coincidence_gradient(basis):
    s2 = make_level(basis, 2)
    for x in (-1.2, 0.0, 0.7, 2.1):
        g = grad(s2, np.array([x, x]))
        expected = -math.pi**-0.5 * math.exp(-x * x)
        assert g[0] == pytest.approx(expected, rel=1e-12)
        assert g[1] == pytest.approx(-expected, rel=1e-12)


def test_antisymmetry(basis):
    s3 = make_level(basis, 3)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(50, 3))
    swapped = x[:, [1, 0, 2]]
    np.testing.assert_allclose(psi(s3, swapped), -psi(s3, x), rtol=1e-12, atol=1e-15)


def test_coincidence_zeros(basis):
    s3 = make_level(basis, 3)
    rng = np.random.default_rng(6)
    pts = rng.normal(size=40)
    x = np.column_stack([pts, pts, rng.normal(size=40)])
    scale = np.max(np.abs(psi(s3, rng.normal(size=(100, 3)))))
    assert np.max(np.abs(psi(s3, x))) <= 1e-12 * scale


def test_tangential_identity(basis):
    # On the coincidence plane the two touching gradient components are
    # exactly opposite: the determinant is odd across the plane.
    s4 = make_level(basis, 4)
    rng = np.random.default_rng(7)
    z = rng.normal(size=30)
    x = np.column_stack([rng.normal(size=30) - 4.0, z, z, rng.normal(size=30) + 4.0])
    g = grad(s4, x)
    np.testing.assert_allclose(g[:, 1] + g[:, 2], 0.0, atol=1e-10)


def test_gradient_matches_finite_difference(basis):
    s3 = make_level(basis, 3)
    rng = np.random.default_rng(8)
    x = rng.normal(size=(5, 3))
    g = grad(s3, x)
    h = 1e-6
    for i in range(3):
        xp = x.copy()
        xm = x.copy()
        xp[:, i] += h
        xm[:, i] -= h
        fd = (psi(s3, xp) - psi(s3, xm)) / (2 * h)
        np.testing.assert_allclose(g[:, i], fd, atol=1e-8)


def test_batch_shapes(basis):
    s2 = make_level(basis, 2)
    x = np.zeros((4, 5, 2))
    x[..., 1] = 1.0
    vals = psi(s2, x)
    assert vals.shape == (4, 5)
    grads = grad(s2, x)
    assert grads.shape == (4, 5, 2)
    single = psi(s2, np.array([0.0, 1.0]))
    np.testing.assert_allclose(vals, single, rtol=1e-14)


def test_sector_norms_by_symmetry(basis):
    # |Psi|^2 is symmetric under any coordinate exchange, so each of the
    # N! ordering sectors carries exactly 1/N! of the norm.
    s3 = make_level(basis, 3)
    rng = np.random.default_rng(9)
    x = rng.normal(size=(64, 3))
    p = psi(s3, x) ** 2
    for perm in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
        np.testing.assert_allclose(psi(s3, x[:, perm]) ** 2, p, rtol=1e-12)


def test_monte_carlo_normalization(basis):
    # Importance-sampled norm of the N=2 determinant: 4e6 samples keep the
    # standard error a few parts in 1e4, inside the 1e-3 check.
    s2 = make_level(basis, 2)
    rng = np.random.default_rng(10)
    sigma = math.sqrt(1.5)
    n_samples = 4_000_000
    x = rng.normal(0.0, sigma, size=(n_samples, 2))
    logq = -0.5 * np.sum((x / sigma) ** 2, axis=1) - 2 * math.log(sigma * math.sqrt(2 * math.pi))
    f = psi(s2, x) ** 2 * np.exp(-logq)
    est = float(np.mean(f))
    sem = float(np.std(f) / math.sqrt(n_samples))
    assert sem < 6e-4
    assert abs(est - 1.0) < 1e-3
