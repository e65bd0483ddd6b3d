"""The three benchmark workloads.

Each workload turns a seed into one pass: a fixed list of jobs run one
after another by a single client (a closed loop).  A job has a timed
part, the call into the program, and an untimed check of its output.
The seed draws the inputs (Monte Carlo seeds, couplings, boundary
weights, the order of component sizes) but never the shape of the work,
so the cost of a pass does not depend on the seed.

Only CLI flags that survive the planned engine rewrites are passed:
--n --level --components --trap --state --n-modes --g --seed -o
--no-timestamp.  Sample counts and integration methods stay at their
defaults, so the same jobs measure whatever engine the program has.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

import numpy as np

from anchors import (CLOSED_FORM_GAMMA, Tally, density_figures, gamma_figures,
                     laplacian_figures, spectrum_bounds, spectrum_figures, validate_figures)

ANALYTIC_RTOL = 1e-9   # harmonic orbitals: quadrature tolerance is 1e-10
TABLE_RTOL = 1e-4      # tabulated harmonic trap: finite differences on a 0.01 grid
MAX_PROJECTED_DIM = 2520


@dataclass
class Job:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any, Tally], None]
    output: str | None = None  # file the job writes, for the output byte count


def cli_job(name: str, argv: list[str], workdir: str, check_doc) -> Job:
    """A CLI run through the in-process entry point, writing JSON to a file."""
    out = os.path.join(workdir, name + ".json")
    argv = argv + ["-o", out, "--no-timestamp"]

    def run():
        import tonks.cli  # looked up per call so a tracer's wrapper is used
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = tonks.cli.main(argv)
        return rc, err.getvalue()

    def check(result, tally: Tally) -> None:
        rc, err = result
        if not tally.check(name, "exit code 0", rc == 0, f"exit {rc}: {err.strip()[-300:]}"):
            return
        try:
            with open(out) as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:
            tally.check(name, "output parses as JSON", False, str(exc))
            return
        tally.check(name, "output parses as JSON", True)
        check_doc(name, doc, tally)

    return Job(name, run, check, out)


def harmonic_table(path: str) -> None:
    """The unit harmonic trap as a potential table: x in [-8, 8], spacing 0.01."""
    x = np.linspace(-8.0, 8.0, 1601)
    np.savetxt(path, np.column_stack([x, 0.5 * x * x]), header="x V(x) = x^2 / 2")


def _spectrum_check(name, doc, tally):
    gammas = gamma_figures(name, doc, tally, None)
    spectrum_figures(name, doc, tally, gammas)


def gamma_sweep(rng: np.random.Generator, workdir: str) -> list[Job]:
    """What users run: boundary weights, one full spectrum, two densities."""
    table = os.path.join(workdir, "harmonic.dat")
    harmonic_table(table)
    seed = lambda: str(int(rng.integers(1, 2**31 - 1)))  # noqa: E731
    analytic = partial(gamma_figures, anchor_rtol=ANALYTIC_RTOL)
    tabulated = partial(gamma_figures, anchor_rtol=TABLE_RTOL)
    jobs = [
        cli_job("gamma-n2", ["gamma", "--n", "2"], workdir, analytic),
        cli_job("gamma-n3", ["gamma", "--n", "3"], workdir, analytic),
        cli_job("gamma-n3-level1", ["gamma", "--n", "3", "--level", "1"], workdir, analytic),
        cli_job("gamma-n2-table", ["gamma", "--n", "2", "--trap", table], workdir, tabulated),
        cli_job("gamma-n3-table", ["gamma", "--n", "3", "--trap", table], workdir, tabulated),
        cli_job("gamma-n4", ["gamma", "--n", "4", "--seed", seed()], workdir,
                partial(gamma_figures, anchor_rtol=None)),
        cli_job("spectrum-n6-3-3", ["spectrum", "--n", "6", "--components", "3,3", "--seed", seed()],
                workdir, _spectrum_check),
    ]
    for state in (0, 5):
        jobs.append(cli_job(f"density-n3-state{state}",
                            ["density", "--n", "3", "--state", str(state), "--seed", seed()],
                            workdir, density_figures))
    return jobs


def _draw_gammas(rng: np.random.Generator, n: int, symmetric: bool) -> np.ndarray:
    g = rng.uniform(0.5, 2.0, n - 1)
    if symmetric:
        g = np.minimum(g, g[::-1])
    return g


def _projected_dim(sizes) -> int:
    return math.factorial(sum(sizes)) // math.prod(math.factorial(s) for s in sizes)


def _graph_job(name: str, n: int, sizes: tuple[int, ...], gammas: np.ndarray,
               full: bool, rng: np.random.Generator) -> Job:
    """build_graph, projected_laplacian and solve; with full, also laplacian, solve and classify."""
    # A distinguishable projected Laplacian on n >= 7 allocates an
    # (n!)^2 dense matrix (12 GiB at n = 8): never generate one.
    if _projected_dim(sizes) > MAX_PROJECTED_DIM:
        raise ValueError(f"projected dimension of {sizes} exceeds {MAX_PROJECTED_DIM}")
    probe_cols = np.unique(np.concatenate([[0], rng.integers(0, _projected_dim(sizes), 6)]))

    def run():
        import tonks
        out = {}
        if full:
            graph = tonks.build_graph(n)
            lap = tonks.laplacian(graph, gammas)
            out["full"] = (lap, tonks.classify(tonks.solve(lap), graph))
        graph = tonks.build_graph(n, tonks.ComponentSpec(sizes))
        proj = tonks.projected_laplacian(graph, gammas)
        out["proj"] = (proj, tonks.solve(proj))
        return out

    def check(out, tally: Tally) -> None:
        full_values = None
        if full:
            lap, spec = out["full"]
            full_values = spec.values
            laplacian_figures(name, lap, spec.values, spec.vectors, gammas, tally, full=True)
            tally.check(name, "uniform and alternating labels",
                        spec.labels[0] == "uniform" and spec.labels[-1] == "alternating")
        proj, pspec = out["proj"]
        tally.check(name, "projected dimension", proj.shape == (_projected_dim(sizes),) * 2)
        laplacian_figures(name, proj, pspec.values, pspec.vectors, gammas, tally, full=False,
                          columns=probe_cols)
        spectrum_bounds(name, full_values, pspec.values, float(np.sum(gammas)), tally)

    return Job(name, run, check)


# (n, component sizes, with the full n! graph).  The order of the sizes
# is drawn per seed; the multiset, and so the work, is fixed.
GRAPH_JOBS = [
    (4, (2, 1, 1), True),
    (5, (3, 2), True),
    (6, (3, 3), True),
    (6, (2, 2, 2), False),
    (7, (3, 2, 2), False),
    (7, (4, 3), False),
    (8, (2, 2, 2, 2), False),
    (8, (3, 3, 2), False),
    (8, (4, 4), False),
]


def ordering_graph(rng: np.random.Generator, workdir: str) -> list[Job]:
    """Graph build, Laplacian assembly and eigensolves through the Python API."""
    jobs = []
    for i, (n, shape, full) in enumerate(GRAPH_JOBS):
        sizes = tuple(int(s) for s in rng.permutation(shape))
        # The largest solve keeps fixed weights: SciPy's default eigh driver
        # takes 4.8 to 6.4 s on it depending on the values alone, which
        # would make the cost of a pass depend on the seed.
        source = rng if _projected_dim(shape) < MAX_PROJECTED_DIM else np.random.default_rng(i)
        gammas = _draw_gammas(source, n, symmetric=i % 2 == 0)
        name = f"graph-n{n}-{'-'.join(map(str, sizes))}" + ("-full" if full else "")
        jobs.append(_graph_job(name, n, sizes, gammas, full, rng))
    return jobs


def oracle_validate(rng: np.random.Generator, workdir: str) -> list[Job]:
    """Finite-coupling oracle: N=2, N=3 on the dense path, N=3 on the Lanczos path."""
    base = np.array([20.0, 50.0, 100.0])
    jobs = []
    for n, modes in ((2, 14), (3, 14), (3, 18)):
        g = base * np.exp(rng.uniform(-0.03, 0.03, 3))
        couplings = ",".join(f"{v:.4f}" for v in g)
        ref = CLOSED_FORM_GAMMA[tuple(range(n))]
        jobs.append(cli_job(f"validate-n{n}-modes{modes}",
                            ["validate", "--n", str(n), "--n-modes", str(modes), "--g", couplings],
                            workdir, partial(validate_figures, gamma_ref=ref)))
    return jobs


def warm_up(workload: str, workdir: str) -> None:
    """One small job of the workload's kind, paying lazy imports and first-call costs."""
    import tonks
    import tonks.cli
    quiet = contextlib.redirect_stdout(io.StringIO())
    out = os.path.join(workdir, "warm-up.json")
    if workload == "gamma-sweep":
        with quiet:
            rc = tonks.cli.main(["gamma", "--n", "3", "-o", out, "--no-timestamp"])
    elif workload == "ordering-graph":
        graph = tonks.build_graph(5)
        tonks.classify(tonks.solve(tonks.laplacian(graph, [1.0] * 4)), graph)
        rc = 0
    else:
        with quiet:
            rc = tonks.cli.main(["validate", "--n", "2", "--n-modes", "8", "-o", out, "--no-timestamp"])
    if rc != 0:
        raise RuntimeError(f"warm-up job of {workload} exited {rc}")


WORKLOADS = {
    "gamma-sweep": gamma_sweep,
    "ordering-graph": ordering_graph,
    "oracle-validate": oracle_validate,
}
