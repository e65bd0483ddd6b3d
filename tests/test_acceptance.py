"""End-to-end acceptance checks.

One test per criterion; each pytest -v line is the pass/fail verdict for
that criterion.  Budgeted runtimes are asserted inside the tests.
"""

import itertools
import math
import time

import numpy as np
import pytest

from reference import assembled, grad, mc_gammas, psi, two_body_slope
from tonks.oracle import EDConfig, diagonalize, k_uncertainty
from tonks.sectors import ComponentSpec, build_graph, cycle_ordering, laplacian, projected_laplacian
from tonks.slater import make_level
from tonks.spectrum import solve
from tonks.traps import HarmonicBasis
from tonks.weights import all_gammas

GAMMA_2 = math.sqrt(2.0 / math.pi)
GAMMA_3 = 27.0 / (8.0 * math.sqrt(2.0 * math.pi))


@pytest.fixture(scope="module")
def basis():
    return HarmonicBasis()


@pytest.fixture(scope="module")
def state2(basis):
    return make_level(basis, 2)


@pytest.fixture(scope="module")
def state3(basis):
    return make_level(basis, 3)


def _compositions(n):
    out = []
    for cuts in range(2 ** (n - 1)):
        sizes = []
        run = 1
        for b in range(n - 1):
            if cuts >> b & 1:
                sizes.append(run)
                run = 1
            else:
                run += 1
        sizes.append(run)
        out.append(tuple(sizes))
    return out


def test_criterion_1_three_body_spectrum_and_projectors(state3):
    gam = all_gammas(state3)[0].value

    start = time.perf_counter()
    graph = build_graph(3)
    spec = solve(laplacian(graph, [gam, gam]))
    elapsed = time.perf_counter() - start

    np.testing.assert_allclose(spec.values / gam, [0, 1, 1, 3, 3, 4], atol=1e-9)
    assert spec.groups == ((0,), (1, 2), (3, 4), (5,))

    def projector(gi):
        v = spec.vectors[:, list(spec.groups[gi])]
        return v @ v.T

    uniform = np.full(6, 1.0 / math.sqrt(6.0))
    np.testing.assert_allclose(projector(0), np.outer(uniform, uniform), atol=1e-9)

    order = cycle_ordering(graph)
    alternating = np.zeros(6)
    alternating[order] = np.resize([1.0, -1.0], 6) / math.sqrt(6.0)
    np.testing.assert_allclose(projector(3), np.outer(alternating, alternating), atol=1e-9)
    assert elapsed < 1.0


def test_criterion_2_sixfold_degeneracy_at_infinite_coupling(state3):
    graph = build_graph(3)
    assert graph.n_nodes == 6
    assert state3.energy == pytest.approx(4.5, abs=1e-12)

    # every amplitude vector keeps the free energy at infinite coupling: E_j = E_F - K_j / g
    spec = solve(laplacian(graph, [GAMMA_3, GAMMA_3]))
    assert len(spec.values) == 6 and np.all(np.isfinite(spec.values))
    np.testing.assert_allclose(state3.energy - spec.values / math.inf, 4.5, atol=1e-12)

    rng = np.random.default_rng(21)
    amps = rng.normal(size=6)
    x = rng.normal(size=(100, 3))
    got, _ = assembled(state3, amps, x)
    ref = psi(state3, x)
    for i in range(100):
        node = graph.index(tuple(np.argsort(x[i])))
        expected = amps[node] * ref[i]
        assert got[i] == pytest.approx(expected, rel=1e-12, abs=1e-300)


def test_criterion_3_gamma_cross_validation(state2, state3):
    start = time.perf_counter()
    w2 = all_gammas(state2)[0]
    q1, q2 = all_gammas(state3)
    quad_elapsed = time.perf_counter() - start
    assert quad_elapsed < 10.0

    assert abs(w2.value - GAMMA_2) < 1e-8
    assert abs(q1.value - q2.value) < 3.0 * (q1.error + q2.error)

    start = time.perf_counter()
    mc = mc_gammas(state3, samples=10_000_000, seed=3)
    mc_elapsed = time.perf_counter() - start
    assert mc_elapsed < 60.0
    for w, q in zip(mc, (q1, q2)):
        assert abs(w.value - q.value) < w.error + q.error


def test_criterion_4_oracle_slope_agreement():
    start = time.perf_counter()

    # two particles: K at 1/g = 0 against the exact pair {0, 2 gamma}
    k2 = diagonalize(EDConfig(2, 40)).k_values
    k_pair = 2.0 * GAMMA_2
    assert abs(k2[0]) < 0.05 * k_pair
    assert abs(k2[1] - k_pair) / k_pair < 0.05

    # the transcendental reference reproduces the same slope at g = 200
    assert abs(two_body_slope(200.0) - k_pair) / k_pair < 0.01

    # three particles: all six K, ordering, and degenerate pairs
    res3 = diagonalize(EDConfig(3, 14, (25.0, 50.0, 100.0)))
    fitted = res3.k_values
    predicted = GAMMA_3 * np.array([0.0, 1.0, 1.0, 3.0, 3.0, 4.0])
    k_max = predicted[-1]
    unc = k_uncertainty(res3, diagonalize(EDConfig(3, 10)))
    for f, p in zip(fitted, predicted):
        assert abs(f - p) < 0.10 * max(p, 0.1 * k_max)
        assert abs(f - p) <= unc
    assert abs(fitted[1] - fitted[2]) < 0.02 * max(fitted[1], fitted[2])
    assert abs(fitted[3] - fitted[4]) < 0.02 * max(fitted[3], fitted[4])
    # the three distinct levels stay clearly separated
    assert fitted[1] - fitted[0] > 0.5 * GAMMA_3
    assert fitted[3] - fitted[2] > 0.5 * GAMMA_3
    assert fitted[5] - fitted[4] > 0.5 * GAMMA_3

    assert time.perf_counter() - start < 300.0


def test_criterion_5_structural_invariants(basis, state3):
    start = time.perf_counter()

    weights = {3: [all_gammas(state3)[0].value] * 2}
    state4 = make_level(basis, 4)
    weights[4] = [w.value for w in all_gammas(state4)]

    for n, w in weights.items():
        graph = build_graph(n)
        lap = laplacian(graph, w)
        scale = float(np.max(np.abs(lap)))
        assert np.max(np.abs(lap - lap.T)) < 1e-14 * scale
        assert np.max(np.abs(lap.sum(axis=1))) < 1e-12 * scale
        vals, vecs = np.linalg.eigh(lap)
        assert vals[0] > -1e-12 * scale
        # trace identity: sum of slopes equals n! times the weight total
        assert np.trace(lap) == pytest.approx(math.factorial(n) * sum(w), rel=1e-12)
        # stationarity: the Rayleigh-quotient gradient vanishes at eigenvectors
        resid = lap @ vecs - vecs * vals
        assert np.max(2.0 * np.linalg.norm(resid, axis=0)) < 1e-8

        full = np.sort(vals)
        for sizes in _compositions(n):
            sub = np.sort(np.linalg.eigvalsh(
                projected_laplacian(build_graph(n, ComponentSpec(sizes)), w).toarray()))
            pool = list(full)
            worst = 0.0
            for v in sub:
                j = int(np.argmin(np.abs(np.array(pool) - v)))
                worst = max(worst, abs(pool.pop(j) - v))
            assert worst < 1e-9 * max(scale, 1.0)

    # determinant identities at strong-coupling boundaries
    rng = np.random.default_rng(22)
    for n in (3, 4):
        state = make_level(basis, n)
        x = rng.normal(size=(40, n))
        ref = np.max(np.abs(psi(state, x)))
        swap = list(range(n))
        swap[0], swap[1] = swap[1], swap[0]
        assert np.max(np.abs(psi(state, x[:, swap]) + psi(state, x))) < 1e-10 * ref
        xc = x.copy()
        xc[:, 1] = xc[:, 0]
        assert np.max(np.abs(psi(state, xc))) < 1e-10 * ref
        g = grad(state, xc)
        assert np.max(np.abs(g[:, 0] + g[:, 1])) < 1e-10 * ref

    assert time.perf_counter() - start < 30.0


def test_criterion_6_hellmann_feynman():
    # finite-difference dE/dg equals the expectation of dV_eff/dg inside the shell model:
    # the slope g^2 dE/dg = -<dV_eff/dx> of the interacting state, over g^2
    res = diagonalize(EDConfig(2, 30, (4.975, 5.0, 5.025)))
    fd = (res.energies[2, 0] - res.energies[0, 0]) / 0.05
    hf = res.slopes[1, 1] / 5.0**2
    assert abs(fd - hf) / abs(hf) < 1e-4

    # the wavefunction at coincidence decays as 1/g, so <dV_eff/dg> falls as
    # 1/g^2 and g^2 <dV_eff/dg> is the stable combination (its large-g limit
    # is the slope K)
    res2 = diagonalize(EDConfig(2, 40, (20.0, 50.0, 100.0)))
    assert res2.slopes[0, 1] / 20.0**2 > 1e-3
    s50 = res2.slopes[1, 1]
    s100 = res2.slopes[2, 1]
    assert abs(s100 - s50) / s50 < 0.10
