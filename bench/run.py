"""Benchmark of the tonks package: one workload, one seed, one process.

    python3 bench/run.py --workload gamma-sweep --seed 1 --seconds 30 --trace 0

Workloads (see bench/README.md for why each exists): gamma-sweep,
ordering-graph, oracle-validate.  The run imports the package from
src/ next to this directory, times the set-up (import plus one warm-up
job) in this process and in four fresh ones, then repeats the workload's
pass of jobs, one job at a time, for about --seconds seconds.  Every
job's output is checked; failed jobs and checks are counted.

stdout gets two JSON lines: a report (environment, per-job times,
accuracy figures, failures) and, last, the result:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the passes alternate
between untraced and traced, the metrics are the per-layer ones, and
the spans are written to bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("gamma-sweep", "ordering-graph", "oracle-validate")
SETUP_PROBES = 4  # fresh processes timed for set-up, besides this one

# One client and one BLAS thread.  On a shared two-core machine a second
# thread bought no time (ordering-graph: 7.99 s against 7.95 s median) and
# exposes the run to load on the other core.
BLAS_THREADS = 1

# name -> unit; the end-to-end metrics declared in BENCHMARK.json.
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# Accuracy figures: deterministic for a seed, reported where a workload defines them.
ACCURACY_UNITS = {
    "gamma_abs_err_max": "osc_units",
    "gamma_cover_frac": "frac",
    "gamma_rel_err_max": "1",
    "density_err_max": "1/l_osc",
    "k_rel_dev_max": "1",
    "k_unc_rel_max": "1",
    "k_cover_frac": "frac",
    "graph_row_sum_gap_max": "1",
    "graph_trace_gap_max": "1",
    "graph_residual_max": "1",
    "graph_containment_gap_max": "1",
}


def setup(workload: str, workdir: str) -> float:
    """Import the package and run one warm-up job; return the seconds taken."""
    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    import tonks
    import tonks.cli  # noqa: F401

    if not Path(tonks.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"tonks was imported from {tonks.__file__}, not from {SRC}")
    from workloads import warm_up

    warm_up(workload, workdir)
    return perf_counter() - t0


def setup_probe(workload: str) -> float:
    """Set-up time measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--setup-probe"],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "tonks").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "platform": platform.platform(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def run_pass(jobs, tally, job_times: dict, tracer=None) -> tuple[float, int]:
    """Run every job once; return the time spent in the timed calls and the bytes written."""
    wall = 0.0
    written = 0
    for job in jobs:
        if tracer is not None:
            tracer.job = job.name
        t0 = perf_counter()
        try:
            result = job.run()
        except (Exception, SystemExit) as exc:  # a job's failure is counted, not fatal
            wall += perf_counter() - t0
            tally.check(job.name, "completed", False, f"{type(exc).__name__}: {exc}")
            continue
        dt = perf_counter() - t0
        wall += dt
        job_times.setdefault(job.name, []).append(dt)
        tally.check(job.name, "completed", True)
        if job.output and os.path.exists(job.output):
            written += os.path.getsize(job.output)
        try:
            job.check(result, tally)
        except (LookupError, TypeError, ValueError) as exc:  # malformed output
            tally.check(job.name, "output has the expected fields", False,
                        f"{type(exc).__name__}: {exc}")
    return wall, written


def measure(args, workdir: str) -> tuple[dict, dict]:
    """Run passes until the time is up; return the report and the result line."""
    import numpy as np

    from anchors import Tally
    from layers import CATALOGUE, PROBES, layer_metrics
    from tracer import Tracer
    from workloads import WORKLOADS

    jobs = WORKLOADS[args.workload](np.random.default_rng(args.seed), workdir)
    tally = Tally()
    tracer = Tracer("tonks", PROBES) if args.trace else None
    walls, traced, costs = [], [], []
    job_times: dict[str, list[float]] = {}
    written = 0
    deadline = perf_counter() + args.seconds
    while True:
        traced_turn = tracer is not None and len(traced) < len(walls)
        t0 = perf_counter()
        if traced_turn:
            tracer.install()
            try:
                wall, written = run_pass(jobs, tally, {}, tracer)
            finally:
                tracer.uninstall()
            traced.append(wall)
        else:
            wall, _ = run_pass(jobs, tally, job_times)
            walls.append(wall)
        costs.append(perf_counter() - t0)
        complete = bool(walls) and (tracer is None or bool(traced))
        if complete and perf_counter() + statistics.median(costs) > deadline:
            break

    figures = tally.figures()
    fail_frac = len(tally.failures) / max(tally.attempted, 1)
    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": {"untraced": len(walls), "traced": len(traced)},
        "pass_s": walls,
        "traced_pass_s": traced,
        "job_s": {name: statistics.median(ts) for name, ts in job_times.items()},
        "accuracy": {k: {"value": figures[k], "unit": u}
                     for k, u in ACCURACY_UNITS.items() if k in figures},
        "fail_frac": {"value": fail_frac, "unit": "frac"},
        "failures": tally.failures[:50],
    }
    metrics = None  # the end-to-end metrics, filled in once set-up and memory are known
    if tracer is not None:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(str(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"))
        per_layer = layer_metrics(tracer.spans, len(traced), statistics.median(traced),
                                  statistics.median(walls), written)
        metrics = {k: {"value": v, "unit": CATALOGUE[k][0]} for k, v in per_layer.items()}
    result = {"correct": not tally.failures, "attempted": tally.attempted,
              "failed": len(tally.failures), "metrics": metrics}
    return report, result


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="time import plus warm-up, print the seconds and exit")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # Before NumPy loads: the benchmark's modules import it lazily for this reason.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    (HERE / ".work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=HERE / ".work")
    try:
        try:
            own_setup = setup(args.workload, workdir)
        except ImportError as exc:
            print(f"error: cannot import the tonks package from {SRC}: {exc}", file=sys.stderr)
            return 2
        if args.setup_probe:
            print(repr(own_setup))
            return 0
        setups = [own_setup] + [setup_probe(args.workload) for _ in range(SETUP_PROBES)]
        report, result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report["environment"] = environment(args.seed)
    report["setup_samples_s"] = setups
    e2e = {"setup_s": statistics.median(setups), "wall_s": statistics.median(report["pass_s"]),
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    report["end_to_end"] = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    if result["metrics"] is None:
        result["metrics"] = report["end_to_end"]
    summary = [f"{args.workload} seed {args.seed}: untraced passes {len(report['pass_s'])}, "
               f"failed {result['failed']} of {result['attempted']} jobs and checks"]
    summary += [f"  {k} = {v['value']:.6g} {v['unit']}"
                for k, v in {**report["end_to_end"], **report["accuracy"]}.items()]
    summary += [f"  FAIL {f}" for f in report["failures"]]
    print("\n".join(summary), file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
