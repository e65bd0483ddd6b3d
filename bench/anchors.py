"""Independent references, extractors and the check tally.

Extractors read only CLI JSON fields and API return values, never the
package's internals, so they keep working across engine rewrites.  Each
one records hard checks (a failure makes the run incorrect) and accuracy
figures (reported next to the timings, never a failure on their own)
into a `Tally`.  The references here are computed without the package:
closed-form boundary weights of the harmonic trap and Hermite functions
from their own recurrence.
"""

from __future__ import annotations

import math

import numpy as np

# gamma_k of the unit harmonic trap by occupation; (0, 1, 3) is the
# centre-of-mass excitation of (0, 1, 2) and keeps its relative motion.
CLOSED_FORM_GAMMA = {
    (0, 1): math.sqrt(2.0 / math.pi),
    (0, 1, 2): 27.0 / (8.0 * math.sqrt(2.0 * math.pi)),
    (0, 1, 3): 27.0 / (8.0 * math.sqrt(2.0 * math.pi)),
}
# Laplacian spectrum of the distinguishable ordering graph in units of gamma.
CLOSED_FORM_K = {2: (0.0, 2.0), 3: (0.0, 1.0, 1.0, 3.0, 3.0, 4.0)}

PAIR_SIGMAS = 3.0      # a statistical error covers a discrepancy within 3 standard errors
PAIR_FAIL_SIGMAS = 5.0  # beyond 5 standard errors a parity pair is a failure
DENSITY_TOL = 0.05      # sup-norm error allowed for the Monte Carlo density
GRAPH_RTOL = 1e-9       # invariant gaps allowed relative to the Laplacian scale


def ulp(x: float) -> float:
    return float(np.spacing(abs(x)))


class Tally:
    """Hard checks and accuracy figures gathered over a run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.worst: dict[str, float] = {}
        self.cover: dict[str, list[int]] = {}

    def check(self, job: str, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{job}: {what} {detail}".strip())
        return ok

    def note_max(self, metric: str, value: float) -> None:
        self.worst[metric] = max(self.worst.get(metric, -math.inf), float(value))

    def note_cover(self, metric: str, covered: bool) -> None:
        c = self.cover.setdefault(metric, [0, 0])
        c[0] += bool(covered)
        c[1] += 1

    def figures(self) -> dict[str, float]:
        out = dict(self.worst)
        out.update({m: c / t for m, (c, t) in self.cover.items()})
        return out


def gamma_figures(job: str, doc: dict, tally: Tally, anchor_rtol: float | None) -> list[float]:
    """Check the `gammas` block of a gamma or spectrum document; return the values.

    anchor_rtol, when given, says the trap is the unit harmonic one (exactly
    or as a table) and bounds the relative deviation from the closed form.
    Parity pairs gamma_k = gamma_{N-k} hold for every symmetric trap.
    """
    n = doc["input"]["n_particles"]
    rows = sorted(doc["gammas"], key=lambda r: r["k"])
    vals = [float(r["value"]) for r in rows]
    errs = [float(r["error"]) for r in rows]
    tally.check(job, "one gamma per boundary", [r["k"] for r in rows] == list(range(1, n)))
    if not tally.check(job, "gammas finite and positive",
                       all(math.isfinite(v) and v > 0 for v in vals)
                       and all(math.isfinite(e) and e >= 0 for e in errs)):
        return vals
    for v, e in zip(vals, errs):
        tally.note_max("gamma_rel_err_max", max(e, ulp(v)) / v)
    ref = CLOSED_FORM_GAMMA.get(tuple(doc["slater"]["occupation"]))
    if anchor_rtol is not None and ref is not None:
        for k, (v, e) in enumerate(zip(vals, errs), start=1):
            dev = abs(v - ref)
            tally.note_max("gamma_abs_err_max", dev)
            # One ulp of the reference absorbs its own rounding.
            tally.note_cover("gamma_cover_frac", dev <= max(e, ulp(ref)))
            tally.check(job, f"gamma_{k} against closed form", dev <= anchor_rtol * ref,
                        f"deviation {dev:.3e}")
    for k in range(1, n // 2 + 1):
        if k == n - k:
            continue
        a, b = k - 1, n - k - 1
        dev = abs(vals[a] - vals[b])
        sigma = math.hypot(errs[a], errs[b])
        floor = 2.0 * ulp(max(vals[a], vals[b]))
        tally.note_cover("gamma_cover_frac", dev <= max(PAIR_SIGMAS * sigma, floor))
        tally.check(job, f"parity gamma_{k} = gamma_{n - k}",
                    dev <= PAIR_FAIL_SIGMAS * sigma + floor, f"deviation {dev:.3e}, sigma {sigma:.3e}")
    return vals


def hermite_functions(n_max: int, x: np.ndarray) -> np.ndarray:
    """phi_0..phi_{n_max} of the unit harmonic trap at x, shape (n_max + 1, len(x))."""
    out = np.empty((n_max + 1, len(x)))
    out[0] = math.pi ** -0.25 * np.exp(-0.5 * x * x)
    if n_max >= 1:
        out[1] = math.sqrt(2.0) * x * out[0]
    for k in range(1, n_max):
        out[k + 1] = math.sqrt(2.0 / (k + 1)) * x * out[k] - math.sqrt(k / (k + 1)) * out[k - 1]
    return out


def free_density_bins(n: int, centers: np.ndarray) -> np.ndarray:
    """Bin averages of sum_{m<n} phi_m^2 on bins of equal width centred at centers."""
    width = float(centers[1] - centers[0])
    t, w = np.polynomial.legendre.leggauss(16)
    x = (centers[:, None] + 0.5 * width * t[None, :]).ravel()
    rho = np.sum(hermite_functions(n - 1, x) ** 2, axis=0).reshape(len(centers), len(t))
    return 0.5 * rho @ w


def density_figures(job: str, doc: dict, tally: Tally) -> None:
    """Check a density document of the ground level in the unit harmonic trap.

    For the uniform and alternating states every sector amplitude has the
    same magnitude, so the total density equals the free one, sum phi^2.
    """
    n = doc["input"]["n_particles"]
    state = doc["input"]["state"]
    centers = np.asarray(doc["grid_centers"], dtype=float)
    total = np.asarray(doc["total"], dtype=float)
    per = np.asarray(doc["per_particle"], dtype=float)
    width = float(centers[1] - centers[0])
    tally.check(job, "per-particle densities sum to the total",
                per.shape == (n, len(centers))
                and np.allclose(per.sum(axis=0), total, rtol=1e-12, atol=1e-15))
    tally.check(job, "density mass equals particle number",
                abs(float(total.sum()) * width - n) <= 0.01 * n)
    if doc["input"]["level"] != 0 or state not in (0, math.factorial(n) - 1):
        return
    err = float(np.max(np.abs(total - free_density_bins(n, centers))))
    tally.note_max("density_err_max", err)
    tally.check(job, "total density against free density", err <= DENSITY_TOL, f"sup error {err:.3e}")


def validate_figures(job: str, doc: dict, tally: Tally, gamma_ref: float) -> None:
    """Check a validate document: predicted K against closed forms, fitted K against predicted."""
    n = doc["input"]["n_particles"]
    k_pred = np.asarray(doc["k_predicted"], dtype=float)
    k_fit = np.asarray(doc["k_fitted"], dtype=float)
    unc = np.asarray(doc["fit_uncertainties"], dtype=float)
    expect = gamma_ref * np.asarray(CLOSED_FORM_K[n])
    tally.check(job, "predicted K against closed form",
                k_pred.shape == expect.shape and np.allclose(k_pred, expect, rtol=1e-9, atol=1e-9))
    tally.check(job, "validation passed", doc["passed"] is True)
    denom = np.maximum(k_pred, 0.1 * float(k_pred[-1]))
    dev = np.abs(k_fit - k_pred)
    tally.note_max("k_rel_dev_max", float(np.max(dev / denom)))
    tally.note_max("k_unc_rel_max", float(np.max(unc / denom)))
    for d, u in zip(dev, unc):
        tally.note_cover("k_cover_frac", d <= u)


def spectrum_figures(job: str, doc: dict, tally: Tally, gammas: list[float]) -> None:
    """Check the graph and spectrum blocks of a spectrum document."""
    n = doc["input"]["n_particles"]
    sizes = doc["input"]["components"]
    full = np.asarray(doc["spectrum"]["full"]["k_values"], dtype=float)
    proj = np.asarray(doc["spectrum"]["projected"]["k_values"], dtype=float)
    nodes = math.factorial(n)
    dim = nodes // math.prod(math.factorial(s) for s in sizes)
    tally.check(job, "graph size", doc["graph"] == {"nodes": nodes, "edges": nodes * (n - 1) // 2})
    tally.check(job, "spectrum sizes", len(full) == nodes and len(proj) == dim
                and doc["spectrum"]["projected"]["dimension"] == dim)
    tally.check(job, "amplitude vectors", len(doc["amplitudes"]["vectors"]) == nodes)
    labels = doc["spectrum"]["full"]["labels"]
    tally.check(job, "uniform and alternating labels",
                labels[0] == "uniform" and labels[-1] == "alternating")
    spectrum_bounds(job, full, proj, sum(gammas), tally)


def spectrum_bounds(job: str, full, proj, gamma_sum: float, tally: Tally) -> None:
    """Eigenvalues lie in [0, 2 sum gamma] with both ends attained; projected inside full.

    Every ordering has one edge per boundary, so the weighted degree is
    sum gamma and the alternating vector attains the bound 2 sum gamma.
    full may be None when the full graph is too large to diagonalize.
    """
    scale = 2.0 * gamma_sum
    tol = GRAPH_RTOL * scale
    ref = full if full is not None else proj
    tally.check(job, "spectrum bottom is zero", abs(float(np.min(ref))) <= tol)
    if full is not None:
        tally.check(job, "spectrum top is 2 sum gamma", abs(float(np.max(full)) - scale) <= tol)
    tally.check(job, "spectrum inside [0, 2 sum gamma]",
                float(np.min(proj)) >= -tol and float(np.max(proj)) <= scale + tol)
    if full is not None:
        dist = np.abs(np.asarray(proj)[:, None] - np.asarray(full)[None, :])
        gap = float(np.max(np.min(dist, axis=1)))
        tally.note_max("graph_containment_gap_max", gap / scale)
        tally.check(job, "projected spectrum inside full spectrum", gap <= tol, f"gap {gap:.3e}")


def laplacian_figures(job: str, lap: np.ndarray, values: np.ndarray, vectors: np.ndarray,
                      gammas: np.ndarray, tally: Tally, full: bool, columns=None) -> None:
    """Row sums, trace identity (full graphs) and eigen-residuals of a Laplacian solve."""
    scale = 2.0 * float(np.sum(gammas))
    rows = float(np.max(np.abs(lap.sum(axis=1)))) / scale
    tally.note_max("graph_row_sum_gap_max", rows)
    tally.check(job, "zero row sums", rows <= GRAPH_RTOL, f"gap {rows:.3e}")
    if full:
        expect = math.factorial(len(gammas) + 1) * float(np.sum(gammas))
        trace = abs(float(np.trace(lap)) - expect) / expect
        tally.note_max("graph_trace_gap_max", trace)
        tally.check(job, "trace identity", trace <= GRAPH_RTOL, f"gap {trace:.3e}")
    cols = np.arange(len(values)) if columns is None else np.asarray(columns)
    v = vectors[:, cols]
    resid = float(np.max(np.linalg.norm(lap @ v - v * values[cols], axis=0))) / scale
    tally.note_max("graph_residual_max", resid)
    tally.check(job, "eigen-residual", resid <= GRAPH_RTOL, f"residual {resid:.3e}")
