"""Command-line interface.

Subcommands: spectrum (boundary weights, Laplacian eigenvalues,
amplitude vectors), gamma (boundary weights only), validate (slope
fits from the finite-coupling oracle against the Laplacian K values),
density (one-body density of one adiabatic state).  Settings come from
an INI config file overridden by command-line flags; results are
written atomically as JSON or CSV.  Exit codes: 0 success, 2 bad
input (including a trap table too coarse to solve), 3 tolerance or
validation failure.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import datetime
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .oracle import EDConfig, diagonalize, slope_fit
from .sectors import (NODE_CAP, ComponentSpec, build_graph, cycle_ordering, laplacian,
                      projected_laplacian)
from .slater import make_level
from .spectrum import SectorWavefunction, classify, solve
from .traps import ConvergenceError, HarmonicBasis, Trap, solve_tabulated
from .weights import ToleranceError, all_gammas

_INT_KEYS = {"n", "level", "seed", "orbitals", "n_modes", "states", "state", "bins"}
_FLOAT_KEYS = {"omega", "tol", "margin", "rtol", "grid_lo", "grid_hi"}
_BOOL_KEYS = {"timestamp"}
SCHEMA_VERSION = 3

_DEFAULTS = {
    "trap": "harmonic",
    "omega": 1.0,
    "margin": 1.0,
    "orbitals": 0,  # 0 means: derived from n and level
    "n": 2,
    "level": 0,
    "components": "",
    "tol": 1e-10,
    "seed": 0,  # recorded in provenance; every result is deterministic
    "format": "",
    "timestamp": True,
    "n_modes": 30,
    "g": "20,50,100",
    "states": 0,
    "rtol": 0.10,
    "state": 0,
    "grid_lo": -5.0,
    "grid_hi": 5.0,
    "bins": 80,
}

_CONFIG_SECTIONS = {
    "trap": ("trap", "omega", "margin", "orbitals"),
    "particles": ("n", "level", "components"),
    "integration": ("tol", "seed"),
    "output": ("format", "timestamp"),
    "validate": ("n_modes", "g", "states", "rtol"),
    "density": ("state", "grid_lo", "grid_hi", "bins", "seed"),
}


class InputError(ValueError):
    """Bad configuration or arguments; maps to exit code 2."""


def _coerce(key: str, raw: str):
    if key in _INT_KEYS:
        return int(raw)
    if key in _FLOAT_KEYS:
        return float(raw)
    if key in _BOOL_KEYS:
        low = raw.strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise InputError(f"cannot read boolean value {raw!r} for {key}")
    return raw


def _load_config(path: str) -> dict:
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise InputError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise InputError(f"malformed config file {path}: {exc}") from exc
    out = {}
    for section, keys in _CONFIG_SECTIONS.items():
        if not parser.has_section(section):
            continue
        for key, raw in parser.items(section):
            if key not in keys:
                raise InputError(f"unknown key {key!r} in config section [{section}]")
            try:
                out[key] = _coerce(key, raw)
            except ValueError as exc:
                raise InputError(f"bad value for {key!r} in [{section}]: {raw!r}") from exc
    return out


def _settings(args: argparse.Namespace) -> dict:
    s = dict(_DEFAULTS)
    if getattr(args, "config", None):
        s.update(_load_config(args.config))
    for key in s:
        val = getattr(args, key, None)
        if val is not None:
            s[key] = val
    if getattr(args, "no_timestamp", False):
        s["timestamp"] = False
    return s


def _build_problem(s: dict):
    n = s["n"]
    if n < 2:
        raise InputError("need at least 2 particles")
    count = s["orbitals"] or (n + s["level"] + 8)
    if s["trap"] == "harmonic":
        basis = HarmonicBasis(s["omega"])
        trap_desc = "harmonic"
    else:
        trap = Trap.from_file(s["trap"], margin=s["margin"])
        basis = solve_tabulated(trap, count)
        trap_desc = s["trap"]
    state = make_level(basis, n, level=s["level"])
    return state, trap_desc


def _components(s: dict, n: int) -> ComponentSpec:
    if not s["components"]:
        return ComponentSpec.distinguishable(n)
    spec = ComponentSpec.parse(s["components"])
    if spec.n != n:
        raise InputError(
            f"component sizes {spec.sizes} sum to {spec.n}, but n={n}"
        )
    return spec


def _provenance(s: dict) -> dict:
    prov = {"generator": f"tonks {__version__}", "seed": s["seed"]}
    if s["timestamp"]:
        prov["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return prov


def _units(s: dict) -> dict:
    return {
        "hbar": 1.0,
        "mass": 1.0,
        "omega": s["omega"] if s["trap"] == "harmonic" else None,
        "energy_unit": "hbar*omega" if s["trap"] == "harmonic" else "hbar^2/(m*L^2) with table units",
        "length_unit": "sqrt(hbar/(m*omega))" if s["trap"] == "harmonic" else "table units",
        "coupling_unit": "energy_unit*length_unit",
    }


def _write_text(path: str | None, text: str) -> None:
    if not path:
        sys.stdout.write(text)
        return
    target = os.path.abspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".tonks-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _pick_format(s: dict, output: str | None) -> str:
    if s["format"]:
        return s["format"]
    if output and output.endswith(".csv"):
        return "csv"
    return "json"


def _gamma_rows(gammas) -> list[dict]:
    return [
        {"k": bw.k, "value": bw.value, "error": bw.error, "method": bw.method}
        for bw in gammas
    ]


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _cmd_gamma(args) -> int:
    s = _settings(args)
    state, trap_desc = _build_problem(s)
    gammas = all_gammas(state, tol=s["tol"])
    fmt = _pick_format(s, args.output)
    if fmt == "csv":
        text = _csv_text(
            ["k", "value", "error", "method"],
            [[bw.k, repr(bw.value), repr(bw.error), bw.method] for bw in gammas],
        )
    else:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": "gamma",
            "units": _units(s),
            "input": {
                "trap": trap_desc,
                "n_particles": s["n"],
                "level": s["level"],
                "tol": s["tol"],
            },
            "slater": {
                "occupation": list(state.occupation),
                "free_energy": state.energy,
            },
            "gammas": _gamma_rows(gammas),
            "provenance": _provenance(s),
        }
        text = _json_text(payload)
    _write_text(args.output, text)
    return 0


def _cmd_spectrum(args) -> int:
    s = _settings(args)
    state, trap_desc = _build_problem(s)
    n = s["n"]
    comp = _components(s, n)
    gammas = all_gammas(state, tol=s["tol"])
    graph = build_graph(n, comp)
    proj = solve(projected_laplacian(graph, gammas))
    # Above the node cap only the projected block is computed and written.
    full = None
    if math.factorial(n) <= NODE_CAP:
        orderings = build_graph(n)
        full = classify(solve(laplacian(orderings, gammas)), graph)
    fmt = _pick_format(s, args.output)
    if fmt == "csv":
        # Without the full spectrum the projected rows carry no label.
        spec = proj if full is None else full
        rows = [[j, repr(float(spec.values[j])), gi, spec.labels[gi] if spec.labels else ""]
                for gi, idx in enumerate(spec.groups) for j in idx]
        text = _csv_text(["index", "k_value", "group", "label"], rows)
    else:
        spectrum = {}
        if full is not None:
            spectrum["full"] = {
                "k_values": [float(v) for v in full.values],
                "groups": [list(gr) for gr in full.groups],
                "labels": list(full.labels),
                "retained_dims": list(full.retained),
            }
        spectrum["projected"] = {
            "dimension": graph.n_nodes,
            "k_values": [float(v) for v in proj.values],
        }
        spectrum["energy_law"] = "E_j(g) = free_energy - k_values[j] / g"
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": "spectrum",
            "units": _units(s),
            "input": {
                "trap": trap_desc,
                "n_particles": n,
                "level": s["level"],
                "components": list(comp.sizes),
                "tol": s["tol"],
            },
            "slater": {
                "occupation": list(state.occupation),
                "free_energy": state.energy,
            },
            "gammas": _gamma_rows(gammas),
        }
        if full is not None:
            payload["graph"] = {"nodes": orderings.n_nodes, "edges": len(orderings.edges)}
        payload["spectrum"] = spectrum
        if full is not None:
            payload["amplitudes"] = {
                "node_order": [",".join(str(e + 1) for e in p) for p in orderings.words],
                "vectors": [[float(v) for v in full.vectors[:, j]] for j in range(full.n_states)],
            }
            if n == 3:
                payload["amplitudes"]["cycle_order"] = [int(i) for i in cycle_ordering(orderings)]
        payload["provenance"] = _provenance(s)
        text = _json_text(payload)
    _write_text(args.output, text)
    return 0


def _cmd_validate(args) -> int:
    s = _settings(args)
    if s["trap"] != "harmonic" or s["omega"] != 1.0:
        raise InputError("validation against the oracle runs in the unit harmonic trap")
    n = s["n"]
    if n not in (2, 3):
        raise InputError("the oracle supports n in {2, 3}")
    state, _ = _build_problem(s)
    gammas = all_gammas(state, tol=s["tol"])
    graph = build_graph(n)
    k_pred = np.sort(solve(laplacian(graph, gammas)).values)
    m = len(k_pred)
    try:
        g_values = tuple(float(p) for p in s["g"].split(","))
    except ValueError as exc:
        raise InputError(f"cannot parse couplings {s['g']!r}") from exc
    n_states = s["states"] or m + 4
    cfg = EDConfig(n_particles=n, n_modes=s["n_modes"], g_values=g_values,
                   n_states=n_states)
    result = diagonalize(cfg)
    reduced = diagonalize(EDConfig(n_particles=n, n_modes=s["n_modes"] - 4,
                                   g_values=g_values, n_states=n_states))
    fits = [slope_fit(result, j, reduced=reduced) for j in range(m)]
    k_fit = np.sort([f.k_value for f in fits])
    k_max = float(k_pred[-1])
    denom = np.maximum(k_pred, 0.1 * k_max)
    rel = np.abs(k_fit - k_pred) / denom
    ok = bool(np.all(rel <= s["rtol"]))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "validate",
        "input": {
            "n_particles": n,
            "n_modes": s["n_modes"],
            "g_values": list(g_values),
            "rtol": s["rtol"],
        },
        "k_predicted": [float(v) for v in k_pred],
        "k_fitted": [float(v) for v in k_fit],
        "rel_deviation": [float(v) for v in rel],
        "fit_uncertainties": [f.uncertainty for f in sorted(fits, key=lambda f: f.k_value)],
        "passed": ok,
        "provenance": _provenance(s),
    }
    _write_text(args.output, _json_text(payload))
    if args.output:
        for kp, kf, r in zip(k_pred, k_fit, rel):
            print(f"K_pred={kp:.6f}  K_fit={kf:.6f}  rel={r:.4f}")
        print("PASS" if ok else "FAIL")
    return 0 if ok else 3


def _cmd_density(args) -> int:
    s = _settings(args)
    state, trap_desc = _build_problem(s)
    n = s["n"]
    gammas = all_gammas(state, tol=s["tol"])
    graph = build_graph(n)
    full = solve(laplacian(graph, gammas))
    j = s["state"]
    if not 0 <= j < full.n_states:
        raise InputError(f"state index {j} outside 0..{full.n_states - 1}")
    wave = SectorWavefunction(state, full.vectors[:, j])
    if s["grid_hi"] <= s["grid_lo"] or s["bins"] < 1:
        raise InputError("density grid must satisfy grid_lo < grid_hi and bins >= 1")
    edges = np.linspace(s["grid_lo"], s["grid_hi"], s["bins"] + 1)
    per, total = wave.one_body_density(edges)
    centers = 0.5 * (edges[1:] + edges[:-1])
    fmt = _pick_format(s, args.output)
    if fmt == "csv":
        header = ["x", "total"] + [f"particle_{i + 1}" for i in range(n)]
        rows = [
            [repr(float(centers[b])), repr(float(total[b]))]
            + [repr(float(per[i, b])) for i in range(n)]
            for b in range(len(centers))
        ]
        text = _csv_text(header, rows)
    else:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": "density",
            "units": _units(s),
            "input": {
                "trap": trap_desc,
                "n_particles": n,
                "level": s["level"],
                "state": j,
                "k_value": float(full.values[j]),
            },
            "grid_centers": [float(c) for c in centers],
            "total": [float(v) for v in total],
            "per_particle": [[float(v) for v in per[i]] for i in range(n)],
            "provenance": _provenance(s),
        }
        text = _json_text(payload)
    _write_text(args.output, text)
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="INI settings file; flags override it")
    p.add_argument("--trap", help="'harmonic' or path to a two-column potential table")
    p.add_argument("--omega", type=float, help="harmonic trap frequency")
    p.add_argument("--margin", type=float, help="confinement margin for tabulated traps")
    p.add_argument("--orbitals", type=int, help="orbital count solved for tabulated traps")
    p.add_argument("--n", type=int, help="particle number")
    p.add_argument("--level", type=int, help="free-fermion excitation level")
    p.add_argument("--tol", type=float, help="absolute error bound on the boundary weights")
    p.add_argument("--seed", type=int, help="seed recorded in the provenance block")
    p.add_argument("--format", choices=["json", "csv"], help="output format")
    p.add_argument("--output", "-o", help="output path (stdout when omitted)")
    p.add_argument("--no-timestamp", action="store_true",
                   help="omit the timestamp for byte-reproducible output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tonks",
        description="Strong-coupling spectra of trapped 1D fermions with contact repulsion.",
    )
    parser.add_argument("--version", action="version", version=f"tonks {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="boundary weights, K spectrum, and amplitudes")
    _add_common(p)
    p.add_argument("--components", help="component sizes, e.g. '2,1' (default distinguishable)")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("gamma", help="boundary weights only")
    _add_common(p)
    p.set_defaults(func=_cmd_gamma)

    p = sub.add_parser("validate", help="finite-coupling oracle versus Laplacian slopes")
    _add_common(p)
    p.add_argument("--n-modes", type=int, dest="n_modes",
                   help="oracle single-particle modes")
    p.add_argument("--g", help="comma-separated couplings for the slope fit")
    p.add_argument("--states", type=int, help="oracle eigenstates retained")
    p.add_argument("--rtol", type=float, help="allowed relative slope deviation")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("density", help="one-body density of one adiabatic state")
    _add_common(p)
    p.add_argument("--state", type=int, help="state index in ascending K order")
    p.add_argument("--grid-lo", type=float, dest="grid_lo", help="density grid start")
    p.add_argument("--grid-hi", type=float, dest="grid_hi", help="density grid end")
    p.add_argument("--bins", type=int, help="density bins")
    p.set_defaults(func=_cmd_density)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ToleranceError as exc:
        print(f"tolerance not met: {exc}", file=sys.stderr)
        return 3
    except (InputError, ValueError, OSError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
