"""Per-layer figures from a traced run.

Layers are the package's modules.  Probes read work counts from the
arguments and return values of public calls; `layer_metrics` turns the
spans of the traced passes into the per-layer metrics declared in
BENCHMARK.json, per pass.  A function that no longer exists, or that a
workload never calls, contributes zero.
"""

from __future__ import annotations

import inspect
from collections import defaultdict

import numpy as np

from tracer import Span, self_times

LAYERS = ("traps", "slater", "weights", "sectors", "spectrum", "oracle", "cli")


def _points(args, kwargs, result):
    return {"points": int(np.size(args[2] if len(args) > 2 else kwargs["x"]))}


def _configs(args, kwargs, result):
    state, x = args[0], np.asarray(args[1] if len(args) > 1 else kwargs["x"])
    return {"configs": x.size // max(state.n, 1)}


def _density_samples(args, kwargs, result):
    samples = args[2] if len(args) > 2 else kwargs.get("samples")
    if samples is None:
        samples = inspect.signature(type(args[0]).one_body_density).parameters["samples"].default
    return {"samples": int(samples)}


def _gammas(args, kwargs, result):
    rel = max((max(bw.error, float(np.spacing(bw.value))) / bw.value for bw in result), default=0.0)
    return {"gammas": len(result), "rel_err": rel}


def _diagonalize(args, kwargs, result):
    return {"dim": int(result.basis_dim), "couplings": len(result.config.g_values),
            "quality_min": float(np.min(result.track_quality))}


# Keyed by the qualified name of the traced function.
PROBES = {
    "HarmonicBasis.eval_many": _points,
    "TabulatedBasis.eval_many": _points,
    "SlaterState.psi": _configs,
    "SlaterState.psi_grad": _configs,
    "all_gammas": _gammas,
    "build_graph": lambda a, k, r: {"nodes": int(r.n_nodes)},
    "projected_laplacian": lambda a, k, r: {"dim": int(r.shape[0])},
    "solve": lambda a, k, r: {"dim": int(len(r.values))},
    "SectorWavefunction.one_body_density": _density_samples,
    "diagonalize": _diagonalize,
}

# name -> (unit, better); the order is the order printed and declared.
CATALOGUE = {
    "traps.eval_many.calls": ("count", "lower"),
    "traps.eval_many.points": ("count", "lower"),
    "traps.eval_many.self_s": ("s", "lower"),
    "traps.solve_tabulated.s": ("s", "lower"),
    "slater.psi_grad.configs": ("count", "lower"),
    "slater.psi_grad.self_s": ("s", "lower"),
    "slater.psi.configs": ("count", "lower"),
    "slater.psi.self_s": ("s", "lower"),
    "slater.make_level.s": ("s", "lower"),
    "slater.configs_per_s": ("1/s", "higher"),
    "weights.all_gammas.calls": ("count", "lower"),
    "weights.all_gammas.s": ("s", "lower"),
    "weights.all_gammas.self_s": ("s", "lower"),
    "weights.configs_per_gamma": ("count", "lower"),
    "weights.err2_s": ("s", "lower"),
    "sectors.build_graph.s": ("s", "lower"),
    "sectors.nodes": ("count", "lower"),
    "sectors.laplacian.s": ("s", "lower"),
    "sectors.projected_laplacian.s": ("s", "lower"),
    "sectors.projected_dim": ("count", "lower"),
    "spectrum.solve.s": ("s", "lower"),
    "spectrum.solve.dim": ("count", "lower"),
    "spectrum.classify.s": ("s", "lower"),
    "spectrum.one_body_density.s": ("s", "lower"),
    "spectrum.one_body_density.samples": ("count", "lower"),
    "oracle.delta_tensor.s": ("s", "lower"),
    "oracle.diagonalize.s": ("s", "lower"),
    "oracle.diagonalize.calls": ("count", "lower"),
    "oracle.basis_dim_max": ("count", "lower"),
    "oracle.s_per_coupling": ("s", "lower"),
    "oracle.slope_fit.self_s": ("s", "lower"),
    "oracle.track_quality_min": ("frac", "higher"),
    "cli.main.calls": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.bytes_out": ("count", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    **{f"{layer}.share": ("frac", "lower") for layer in LAYERS},
    **{f"{layer}.errors": ("count", "lower") for layer in LAYERS},
    "trace.unattributed_frac": ("frac", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
    "trace.spans": ("count", "lower"),
}


def layer_metrics(spans: list[Span], passes: int, traced_wall: float, untraced_wall: float,
                  bytes_out: int) -> dict[str, float]:
    """Per-layer metrics per traced pass.

    traced_wall and untraced_wall are the median pass times with and
    without the tracer; bytes_out is the output written per pass.
    Seconds and counts are divided by the number of traced passes;
    maxima, minima and ratios are not.
    """
    st = self_times(spans)
    calls = defaultdict(int)
    total = defaultdict(float)
    own = defaultdict(float)
    info = defaultdict(lambda: defaultdict(list))
    layer_self = defaultdict(float)
    errors = defaultdict(int)
    for s in spans:
        key = f"{s.layer}.{s.func}"
        calls[key] += 1
        total[key] += s.duration
        own[key] += st[s.sid]
        layer_self[s.layer] += st[s.sid]
        errors[s.layer] += s.error
        for k, v in s.info.items():
            info[key][k].append(v)

    p = max(passes, 1)

    def per_pass(x):
        return x / p

    def added(key, field):
        return float(sum(info[key][field]))

    def largest(key, field, default=0.0):
        return float(max(info[key][field], default=default))

    def ratio(a, b):
        return a / b if b else 0.0

    configs = added("slater.psi_grad", "configs") + added("slater.psi", "configs")
    slater_s = total["slater.psi_grad"] + total["slater.psi"]
    # Time-to-accuracy of the worst boundary-weight call: relative error^2 x seconds.
    err2 = max((s.info["rel_err"] ** 2 * s.duration for s in spans if "rel_err" in s.info),
               default=0.0)
    out = {
        "traps.eval_many.calls": per_pass(calls["traps.eval_many"]),
        "traps.eval_many.points": per_pass(added("traps.eval_many", "points")),
        "traps.eval_many.self_s": per_pass(own["traps.eval_many"]),
        "traps.solve_tabulated.s": per_pass(total["traps.solve_tabulated"]),
        "slater.psi_grad.configs": per_pass(added("slater.psi_grad", "configs")),
        "slater.psi_grad.self_s": per_pass(own["slater.psi_grad"]),
        "slater.psi.configs": per_pass(added("slater.psi", "configs")),
        "slater.psi.self_s": per_pass(own["slater.psi"]),
        "slater.make_level.s": per_pass(total["slater.make_level"]),
        "slater.configs_per_s": ratio(configs, slater_s),
        "weights.all_gammas.calls": per_pass(calls["weights.all_gammas"]),
        "weights.all_gammas.s": per_pass(total["weights.all_gammas"]),
        "weights.all_gammas.self_s": per_pass(own["weights.all_gammas"]),
        "weights.configs_per_gamma": ratio(added("slater.psi_grad", "configs"),
                                           added("weights.all_gammas", "gammas")),
        "weights.err2_s": err2,
        "sectors.build_graph.s": per_pass(total["sectors.build_graph"]),
        "sectors.nodes": per_pass(added("sectors.build_graph", "nodes")),
        "sectors.laplacian.s": per_pass(total["sectors.laplacian"]),
        "sectors.projected_laplacian.s": per_pass(total["sectors.projected_laplacian"]),
        "sectors.projected_dim": largest("sectors.projected_laplacian", "dim"),
        "spectrum.solve.s": per_pass(total["spectrum.solve"]),
        "spectrum.solve.dim": largest("spectrum.solve", "dim"),
        "spectrum.classify.s": per_pass(total["spectrum.classify"]),
        "spectrum.one_body_density.s": per_pass(total["spectrum.one_body_density"]),
        "spectrum.one_body_density.samples": per_pass(added("spectrum.one_body_density", "samples")),
        "oracle.delta_tensor.s": per_pass(total["oracle.delta_tensor"]),
        "oracle.diagonalize.s": per_pass(total["oracle.diagonalize"]),
        "oracle.diagonalize.calls": per_pass(calls["oracle.diagonalize"]),
        "oracle.basis_dim_max": largest("oracle.diagonalize", "dim"),
        "oracle.s_per_coupling": ratio(total["oracle.diagonalize"],
                                       added("oracle.diagonalize", "couplings")),
        "oracle.slope_fit.self_s": per_pass(own["oracle.slope_fit"]),
        "oracle.track_quality_min": (min(info["oracle.diagonalize"]["quality_min"])
                                     if info["oracle.diagonalize"]["quality_min"] else 0.0),
        "cli.main.calls": per_pass(calls["cli.main"]),
        "cli.self_s": per_pass(own["cli.main"]),
        "cli.bytes_out": float(bytes_out),
        "trace.unattributed_frac": ratio(traced_wall - per_pass(sum(layer_self.values())), traced_wall),
        "trace.overhead_frac": ratio(traced_wall - untraced_wall, untraced_wall),
        "trace.spans": per_pass(len(spans)),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = per_pass(layer_self[layer])
        out[f"{layer}.share"] = ratio(per_pass(layer_self[layer]), traced_wall)
        out[f"{layer}.errors"] = float(errors[layer])
    return {k: out[k] for k in CATALOGUE}
