"""Trap orbitals: harmonic recurrence and the tabulated sinc-DVR solver."""

import math

import numpy as np
import pytest
from scipy.linalg import eigvalsh, toeplitz
from scipy.special import eval_hermite, gammaln

from tonks.traps import ConvergenceError, HarmonicBasis, Trap, solve_tabulated

# High-precision references for the n=25 harmonic orbital at x=3.7,
# frozen from a 50-digit arbitrary-precision evaluation.
PHI25_AT_3P7 = 0.019162904373835163097
DPHI25_AT_3P7 = 1.9697584587048568141


def test_harmonic_energies():
    basis = HarmonicBasis()
    for n in (0, 1, 7, 200):
        assert basis.energy(n) == n + 0.5
    assert HarmonicBasis(omega=3.0).energy(2) == pytest.approx(7.5, rel=1e-15)


def test_harmonic_reference_values():
    basis = HarmonicBasis()
    vals, ders = basis.eval_many([25], np.array([3.7]))
    assert abs(vals[0, 0] - PHI25_AT_3P7) <= 1e-12 * abs(PHI25_AT_3P7)
    assert abs(ders[0, 0] - DPHI25_AT_3P7) <= 1e-12 * abs(DPHI25_AT_3P7)


def test_harmonic_against_hermite_polynomials():
    # Independent closed form: H_n(x) exp(-x^2/2) / sqrt(2^n n! sqrt(pi)).
    basis = HarmonicBasis()
    x = np.array([-2.3, 0.4, 1.9, 3.7])
    ns = [0, 3, 12, 25]
    vals, _ = basis.eval_many(ns, x)
    for row, n in enumerate(ns):
        lognorm = -0.25 * math.log(math.pi) - 0.5 * (n * math.log(2.0) + gammaln(n + 1))
        ref = eval_hermite(n, x) * np.exp(lognorm - 0.5 * x * x)
        np.testing.assert_allclose(vals[row], ref, rtol=1e-12)


def test_harmonic_derivative_matches_finite_difference():
    basis = HarmonicBasis()
    x = np.array([-1.7, 0.2, 2.9])
    h = 1e-5
    for n in (0, 4, 19):
        up, _ = basis.eval_many([n], x + h)
        dn, _ = basis.eval_many([n], x - h)
        _, der = basis.eval_many([n], x)
        np.testing.assert_allclose(der[0], (up[0] - dn[0]) / (2 * h), atol=2e-7)


def test_harmonic_orthonormality():
    # Gauss-Hermite with the orbital Gaussians folded into the weights is
    # exact at these polynomial degrees.
    basis = HarmonicBasis()
    top = 29
    y, w = np.polynomial.hermite.hermgauss(2 * top + 5)
    wt = np.exp(np.log(w) + y * y)
    vals, _ = basis.eval_many(list(range(top + 1)), y)
    gram = (vals * wt) @ vals.T
    np.testing.assert_allclose(gram, np.eye(top + 1), atol=1e-10)


def test_harmonic_parity():
    basis = HarmonicBasis()
    x = np.linspace(0.1, 4.0, 23)
    vals_p, _ = basis.eval_many(list(range(8)), x)
    vals_m, _ = basis.eval_many(list(range(8)), -x)
    for n in range(8):
        np.testing.assert_allclose(vals_m[n], (-1.0) ** n * vals_p[n], atol=1e-13)


def test_harmonic_index_cap():
    basis = HarmonicBasis()
    with pytest.raises(ValueError):
        basis.energy(201)
    with pytest.raises(ValueError):
        basis.eval_many([0, 201], np.zeros(3))


def test_omega_scaling():
    # phi(x; omega) = omega^(1/4) phi(sqrt(omega) x; 1)
    omega = 2.7
    b1 = HarmonicBasis()
    bw = HarmonicBasis(omega)
    x = np.array([-0.8, 0.3, 1.1])
    v1, d1 = b1.eval_many([3], np.sqrt(omega) * x)
    vw, dw = bw.eval_many([3], x)
    np.testing.assert_allclose(vw[0], omega**0.25 * v1[0], rtol=1e-13)
    np.testing.assert_allclose(dw[0], omega**0.75 * d1[0], rtol=1e-13)


def test_decay_radius():
    basis = HarmonicBasis()
    r = basis.decay_radius([0, 1, 2], eps=1e-12)
    vals, ders = basis.eval_many([0, 1, 2], np.array([r]))
    assert np.max(np.abs(vals)) < 1e-12
    assert np.max(np.abs(ders)) < 1e-12


def _harmonic_table(span=8.0, points=1024):
    x = np.linspace(-span, span, points)
    return Trap.from_table(x, 0.5 * x * x)


def test_tabulated_harmonic_energies():
    basis = solve_tabulated(_harmonic_table(), count=3)
    np.testing.assert_allclose(basis.energies, [0.5, 1.5, 2.5], atol=1e-12)
    # Spacings 0.2 to 0.01, the CLI's orbital count for two particles.
    for points in (81, 161, 801, 1601):
        basis = solve_tabulated(_harmonic_table(points=points), count=10)
        np.testing.assert_allclose(basis.energies, np.arange(10) + 0.5, atol=1e-12)
        # the solve runs on a subsample of at most 101 points
        assert len(basis.grid) <= 101


def test_tabulated_orbitals_match_harmonic():
    basis = solve_tabulated(_harmonic_table(), count=3)
    exact = HarmonicBasis()
    x = np.linspace(-3.0, 3.0, 41)
    vals, ders = basis.eval_many([0, 1, 2], x)
    ref_v, ref_d = exact.eval_many([0, 1, 2], x)
    np.testing.assert_allclose(vals, ref_v, atol=1e-12)
    np.testing.assert_allclose(ders, ref_d, atol=1e-11)


def test_tabulated_orthonormality_and_parity():
    basis = solve_tabulated(_harmonic_table(), count=4)
    grid = np.linspace(-8.0, 8.0, 4093)
    vals, _ = basis.eval_many([0, 1, 2, 3], grid)
    h = grid[1] - grid[0]
    gram = vals @ vals.T * h
    np.testing.assert_allclose(gram, np.eye(4), atol=1e-12)
    flip, _ = basis.eval_many([0, 1, 2, 3], -grid)
    for n in range(4):
        np.testing.assert_allclose(flip[n], (-1.0) ** n * vals[n], atol=1e-10)


def test_tabulated_outside_grid_is_zero():
    basis = solve_tabulated(_harmonic_table(), count=2)
    vals, ders = basis.eval_many([0, 1], np.array([-9.0, 8.5, 100.0]))
    assert np.all(vals == 0.0)
    assert np.all(ders == 0.0)


def test_quartic_trap_against_spectral_oracle():
    # Independent oracle: quartic Hamiltonian in a large harmonic mode basis.
    m = 140
    a = np.diag(np.sqrt(np.arange(1, m)), 1)
    x_op = (a + a.T) / math.sqrt(2.0)
    ke = -0.25 * (a.T - a) @ (a.T - a)
    h = ke + np.linalg.matrix_power(x_op, 4)
    ref = np.linalg.eigvalsh(h)[0]
    x = np.linspace(-5.0, 5.0, 1024)
    basis = solve_tabulated(Trap.from_table(x, x**4), count=2)
    # The quartic is smooth, so a subsample resolves it; the table's own grid
    # would cost accuracy to rounding, which grows as eps / h^2.
    assert len(basis.grid) < len(x)
    assert abs(basis.energy(0) - ref) < 1e-12


def _own_grid_energies(x, v, count):
    """Colbert-Miller sinc-DVR energies on every sample of a table, built here by hand."""
    h = x[1] - x[0]
    k = np.arange(1, len(x))
    ham = toeplitz(np.concatenate([[math.pi**2 / 6.0], (-1.0) ** k / k**2]) / h**2) + np.diag(v)
    return eigvalsh(ham, subset_by_index=[0, count - 1])


def test_narrow_spike_is_resolved_or_refused():
    # A spike of height 5 between the samples of the coarse subsamples.
    # Every 16th point misses it; at width 0.01 every 32nd point misses it
    # too, so the two agree on the bare harmonic ground state and only the
    # skipped samples reveal it.  The solver must agree with the table's
    # own grid or refuse.
    x = np.linspace(-8.0, 8.0, 1601)
    for width in (0.01, 0.03):
        v = 0.5 * x * x + 5.0 * np.exp(-0.5 * ((x - 0.245) / width) ** 2)
        own = _own_grid_energies(x, v, 3)
        coarse = _own_grid_energies(x[::16], v[::16], 3)
        assert abs(coarse[0] - own[0]) > 0.01
        if width == 0.01:
            np.testing.assert_allclose(coarse, _own_grid_energies(x[::32], v[::32], 3), atol=1e-8)
        try:
            basis = solve_tabulated(Trap.from_table(x, v), count=3)
        except ConvergenceError:
            continue
        np.testing.assert_allclose(basis.energies, own, atol=1e-8)


def test_coarse_grid_raises_convergence_error():
    x = np.linspace(-8.0, 8.0, 24)
    with pytest.raises(ConvergenceError):
        solve_tabulated(Trap.from_table(x, 0.5 * x * x), count=3)


def test_count_beyond_well_depth_raises():
    with pytest.raises(ValueError, match="wall"):
        solve_tabulated(_harmonic_table(span=4.0, points=512), count=12)


def test_trap_file_parser(tmp_path):
    path = tmp_path / "trap.txt"
    x = np.linspace(-6.0, 6.0, 301)
    lines = ["# position potential"]
    lines += [f"{xi:.12g} {0.5 * xi * xi:.12g}  # sample" for xi in x]
    path.write_text("\n".join(lines) + "\n")
    trap = Trap.from_file(str(path))
    np.testing.assert_allclose(trap.x, x, atol=1e-9)
    basis = solve_tabulated(trap, count=2)
    np.testing.assert_allclose(basis.energies, [0.5, 1.5], atol=1e-12)


def test_non_confining_table_rejected():
    x = np.linspace(0.0, 6.0, 64)
    with pytest.raises(ValueError, match="confining"):
        Trap.from_table(x, 0.5 * x * x)  # left endpoint sits at the minimum


def test_non_uniform_grid_rejected():
    x = np.concatenate([np.linspace(-4, 0, 33), np.linspace(0.2, 4, 20)])
    with pytest.raises(ValueError, match="uniform"):
        Trap.from_table(x, 0.5 * x * x)



def test_non_finite_omega_and_margin_rejected():
    # omega = inf once made decay_radius step by zero forever; margin = nan
    # switched off both confinement checks
    for omega in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="omega must be positive and finite"):
            HarmonicBasis(omega)
    x = np.linspace(-6.0, 6.0, 64)
    for margin in (math.inf, math.nan):
        with pytest.raises(ValueError, match="margin must be finite"):
            Trap.from_table(x, 0.5 * x * x, margin=margin)
