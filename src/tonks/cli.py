"""Command-line interface.

Subcommands: spectrum (boundary weights, Laplacian eigenvalues,
amplitude vectors), gamma (boundary weights only), validate (the
finite-coupling oracle's K at infinite coupling against the Laplacian K
values), density (one-body density of one adiabatic state).  Every setting is
declared once, in _SETTINGS: its INI section, type, default, the
subcommands that take it as a flag, and its help text.  Settings come
from an INI config file overridden by command-line flags; an unknown
section or key, a value of the wrong type, or a float that is not finite
is bad input.  Results are written atomically as a CSV table
(validate: one row per K, columns
index,k_predicted,k_fitted,rel_deviation,uncertainty) or as JSON,
indented by two spaces with each number array on one line and exact
float reprs, each distinct magnitude of an array formatted once, as
json.dumps would.
Exit codes: 0 success, 2 bad input (including a trap table too coarse
to solve), 3 tolerance or validation failure.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import datetime
import io
import itertools
import json
import math
import os
import stat
import sys
import tempfile
from typing import NamedTuple

import numpy as np

from . import __version__
from .slater import make_level
from .traps import ConvergenceError, HarmonicBasis, Trap, solve_tabulated
from .weights import ToleranceError, all_gammas

SCHEMA_VERSION = 4


class _Setting(NamedTuple):
    section: str
    type: type  # a bool setting is on by default and its flag --no-<name> turns it off
    default: object
    commands: tuple[str, ...]  # the subcommands that take it as a flag
    help: str
    choices: tuple[str, ...] | None = None


_ALL = ("spectrum", "gamma", "validate", "density")
# Rows are in the order of the flags in each subcommand's usage line.
_SETTINGS = {
    "trap": _Setting("trap", str, "harmonic", _ALL,
                     "'harmonic' or path to a two-column potential table"),
    "omega": _Setting("trap", float, 1.0, _ALL, "harmonic trap frequency"),
    "margin": _Setting("trap", float, 1.0, _ALL, "confinement margin for tabulated traps"),
    # 0 means: derived from n and level
    "orbitals": _Setting("trap", int, 0, _ALL, "orbital count solved for tabulated traps"),
    "n": _Setting("particles", int, 2, _ALL, "particle number"),
    "level": _Setting("particles", int, 0, _ALL, "free-fermion excitation level"),
    "tol": _Setting("integration", float, 1e-10, _ALL,
                    "absolute error bound on the boundary weights"),
    # Recorded in provenance; every result is deterministic.
    "seed": _Setting("integration", int, 0, _ALL, "seed recorded in the provenance block"),
    # Empty: CSV for an output path ending in .csv, JSON otherwise.
    "format": _Setting("output", str, "", _ALL, "output format", ("json", "csv")),
    "timestamp": _Setting("output", bool, True, _ALL,
                          "omit the timestamp for byte-reproducible output"),
    "components": _Setting("particles", str, "", ("spectrum",),
                           "component sizes, e.g. '2,1' (default distinguishable)"),
    "n_modes": _Setting("validate", int, 30, ("validate",),
                        "oracle single-particle modes; the shell holds n_modes - 1 quanta"),
    "g": _Setting("validate", str, "20,50,100", ("validate",),
                  "comma-separated couplings of the finite-coupling slopes"),
    "rtol": _Setting("validate", float, 0.10, ("validate",), "allowed relative K deviation"),
    "state": _Setting("density", int, 0, ("density",), "state index in ascending K order"),
    "grid_lo": _Setting("density", float, -5.0, ("density",), "density grid start"),
    "grid_hi": _Setting("density", float, 5.0, ("density",), "density grid end"),
    "bins": _Setting("density", int, 80, ("density",), "density bins"),
}


class InputError(ValueError):
    """Bad configuration or arguments; maps to exit code 2."""


def _load_config(path: str) -> dict:
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise InputError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise InputError(f"malformed config file {path}: {exc}") from exc
    getters = {int: parser.getint, float: parser.getfloat, bool: parser.getboolean,
               str: parser.get}
    sections = {row.section for row in _SETTINGS.values()}
    out = {}
    for section in parser.sections():
        if section not in sections:
            raise InputError(f"unknown config section [{section}] in {path}")
        for key in parser[section]:
            row = _SETTINGS.get(key)
            if row is None or row.section != section:
                raise InputError(f"unknown key {key!r} in config section [{section}]")
            raw = parser.get(section, key, raw=True)
            try:
                value = getters[row.type](section, key)
            except (ValueError, configparser.Error) as exc:
                raise InputError(f"bad value for {key!r} in [{section}]: {raw!r}") from exc
            if row.choices and value not in row.choices:
                raise InputError(f"bad value for {key!r} in [{section}]: {raw!r}")
            out[key] = value
    return out


def _settings(args: argparse.Namespace) -> dict:
    s = {key: row.default for key, row in _SETTINGS.items()}
    if args.config:
        s.update(_load_config(args.config))
    s.update((key, val) for key, val in vars(args).items() if key in s and val is not None)
    for key, row in _SETTINGS.items():
        if row.type is float and not math.isfinite(s[key]):
            raise InputError(f"{key} must be finite, got {s[key]}")
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


def _components(s: dict, n: int):
    from .sectors import ComponentSpec

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


def _reference(state, gammas) -> dict:
    """The free reference state and its boundary weights, as gamma and spectrum report them."""
    return {
        "slater": {"occupation": list(state.occupation), "free_energy": state.energy},
        "gammas": [{"k": bw.k, "value": bw.value, "error": bw.error, "method": bw.method}
                   for bw in gammas],
    }


def _json_chunks(obj, pad: str = "\n"):
    """JSON text of obj in pieces: dicts and lists of containers indented by two spaces, a
    list of scalars or a 1-D array on one line (its first element decides a list's layout).

    A finite 1-D float array formats each distinct magnitude once, by float.__repr__ as
    json.dumps does, and puts the signs back: the same bytes as json.dumps(row.tolist())."""
    if isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype.kind == "f" \
            and np.isfinite(obj).all():
        mags, inverse = np.unique(np.abs(obj), return_inverse=True)
        text = list(map(float.__repr__, mags.tolist()))
        table = np.array(text + ["-" + t for t in text], dtype=object)
        yield "[" + ", ".join(table[inverse + len(text) * np.signbit(obj)].tolist()) + "]"
        return
    if isinstance(obj, np.ndarray):
        obj = list(obj) if obj.ndim > 1 else obj.tolist()
    if isinstance(obj, dict) and obj:
        yield "{"
        for i, (key, value) in enumerate(obj.items()):
            yield ("," if i else "") + pad + "  " + json.dumps(key) + ": "
            yield from _json_chunks(value, pad + "  ")
        yield pad + "}"
    elif isinstance(obj, list) and obj and isinstance(obj[0], (dict, list, np.ndarray)):
        yield "["
        for i, value in enumerate(obj):
            yield ("," if i else "") + pad + "  "
            yield from _json_chunks(value, pad + "  ")
        yield pad + "]"
    else:
        yield json.dumps(obj)


def _output_mode(target: str) -> int:
    """Permission bits of the output file: those of the file it replaces, else
    0o666 less the umask, as open() would give (mkstemp creates 0o600)."""
    try:
        return stat.S_IMODE(os.stat(target).st_mode)
    except FileNotFoundError:
        mask = os.umask(0)
        os.umask(mask)
        return 0o666 & ~mask


def _write(args, s: dict, body: dict, header: list[str], rows: list[list]) -> None:
    """Write one command's result atomically: the JSON document around body, or the table.

    The format is the format setting, else CSV for an output path ending in
    .csv, else JSON.  The text is streamed to stdout or to a temporary file
    that then replaces the output path, with the mode of _output_mode.
    """
    fmt = s["format"] or ("csv" if args.output and args.output.endswith(".csv") else "json")
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([header, *rows])
        chunks = [buf.getvalue()]
    else:
        doc = {"schema_version": SCHEMA_VERSION, "command": args.command, **body,
               "provenance": _provenance(s)}
        chunks = itertools.chain(_json_chunks(doc), ["\n"])
    if not args.output:
        sys.stdout.writelines(chunks)
        return
    target = os.path.abspath(args.output)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".tonks-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(chunks)
        os.chmod(tmp, _output_mode(target))
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _cmd_gamma(args, s: dict) -> int:
    state, trap_desc = _build_problem(s)
    gammas = all_gammas(state, tol=s["tol"])
    body = {
        "units": _units(s),
        "input": {"trap": trap_desc, "n_particles": s["n"], "level": s["level"], "tol": s["tol"]},
        **_reference(state, gammas),
    }
    rows = [[bw.k, repr(bw.value), repr(bw.error), bw.method] for bw in gammas]
    _write(args, s, body, ["k", "value", "error", "method"], rows)
    return 0


def _cmd_spectrum(args, s: dict) -> int:
    from .sectors import NODE_CAP, build_graph, cycle_ordering, projected_laplacian
    from .spectrum import classify, solve

    state, trap_desc = _build_problem(s)
    n = s["n"]
    comp = _components(s, n)
    graph = build_graph(n, comp)  # refuses an over-cap input before the weights are computed
    gammas = all_gammas(state, tol=s["tol"])
    weights = [bw.value for bw in gammas]
    proj = solve(projected_laplacian(graph, weights))
    # Above the node cap only the projected block is computed and written.
    # Distinguishable words are the orderings themselves, solved once.
    full = None
    if math.factorial(n) <= NODE_CAP:
        if graph.n_nodes == math.factorial(n):
            orderings, ordered = graph, proj
        else:
            orderings = build_graph(n)
            ordered = solve(projected_laplacian(orderings, weights))
        full = classify(ordered, graph)
    body = {
        "units": _units(s),
        "input": {
            "trap": trap_desc,
            "n_particles": n,
            "level": s["level"],
            "components": list(comp.sizes),
            "tol": s["tol"],
        },
        **_reference(state, gammas),
    }
    spectrum = {}
    if full is not None:
        body["graph"] = {"nodes": orderings.n_nodes, "edges": len(orderings.edges)}
        spectrum["full"] = {
            "k_values": full.values,
            "groups": [list(gr) for gr in full.groups],
            "labels": list(full.labels),
            "retained_dims": list(full.retained),
        }
    spectrum["projected"] = {
        "dimension": graph.n_nodes,
        "k_values": proj.values,
    }
    spectrum["energy_law"] = "E_j(g) = free_energy - k_values[j] / g"
    body["spectrum"] = spectrum
    if full is not None:
        body["amplitudes"] = {
            "node_order": [",".join(str(e + 1) for e in p) for p in orderings.words],
            "vectors": full.vectors.T,
        }
        if n == 3:
            body["amplitudes"]["cycle_order"] = [int(i) for i in cycle_ordering(orderings)]
    # Without the full spectrum the projected rows carry no label.
    spec = proj if full is None else full
    rows = [[j, repr(float(spec.values[j])), gi, spec.labels[gi] if spec.labels else ""]
            for gi, idx in enumerate(spec.groups) for j in idx]
    _write(args, s, body, ["index", "k_value", "group", "label"], rows)
    return 0


def _cmd_validate(args, s: dict) -> int:
    from .oracle import EDConfig, diagonalize, k_uncertainty
    from .sectors import build_graph, projected_laplacian
    from .spectrum import solve

    if s["trap"] != "harmonic" or s["omega"] != 1.0:
        raise InputError("validation against the oracle runs in the unit harmonic trap")
    if s["rtol"] < 0:
        raise InputError(f"rtol must be non-negative, got {s['rtol']}")
    try:
        g_values = tuple(float(p) for p in s["g"].split(","))
    except ValueError as exc:
        raise InputError(f"cannot parse couplings {s['g']!r}") from exc
    n = s["n"]
    cfg = EDConfig(n_particles=n, n_modes=s["n_modes"], g_values=g_values)
    # The uncertainty reruns with four fewer modes, which the oracle needs to be at least n + 2.
    if s["n_modes"] < n + 6:
        raise InputError(f"--n-modes must be at least {n + 6} for n={n}, got {s['n_modes']}")
    state, _ = _build_problem(s)
    weights = [bw.value for bw in all_gammas(state, tol=s["tol"])]
    k_pred = solve(projected_laplacian(build_graph(n), weights)).values
    result = diagonalize(cfg)
    k_inf = result.k_values
    unc = [k_uncertainty(result, diagonalize(EDConfig(n, s["n_modes"] - 4)))] * len(k_inf)
    denom = np.maximum(k_pred, 0.1 * float(k_pred[-1]))
    rel = np.abs(k_inf - k_pred) / denom
    ok = bool(np.all(rel <= s["rtol"]))
    body = {
        "input": {
            "n_particles": n,
            "n_modes": s["n_modes"],
            "g_values": list(g_values),
            "rtol": s["rtol"],
        },
        "k_predicted": k_pred,
        # K at 1/g = 0 and its uncertainty, under the key names of schema 3
        "k_fitted": k_inf,
        "rel_deviation": rel,
        "fit_uncertainties": unc,
        "k_at_couplings": result.slopes,
        "passed": ok,
    }
    rows = [[j, *(repr(float(v)) for v in cols)]
            for j, cols in enumerate(zip(k_pred, k_inf, rel, unc))]
    _write(args, s, body, ["index", "k_predicted", "k_fitted", "rel_deviation", "uncertainty"],
           rows)
    if args.output:
        for kp, ki, r in zip(k_pred, k_inf, rel):
            print(f"K_pred={kp:.6f}  K_inf={ki:.6f}  rel={r:.4f}")
        print("PASS" if ok else "FAIL")
    return 0 if ok else 3


def _cmd_density(args, s: dict) -> int:
    from .sectors import build_graph, projected_laplacian
    from .spectrum import one_body_density, solve

    state, trap_desc = _build_problem(s)
    n = s["n"]
    graph = build_graph(n)
    j = s["state"]
    if not 0 <= j < graph.n_nodes:
        raise InputError(f"state index {j} outside 0..{graph.n_nodes - 1}")
    if s["grid_hi"] <= s["grid_lo"] or s["bins"] < 1:
        raise InputError("density grid must satisfy grid_lo < grid_hi and bins >= 1")
    weights = [bw.value for bw in all_gammas(state, tol=s["tol"])]
    full = solve(projected_laplacian(graph, weights))
    edges = np.linspace(s["grid_lo"], s["grid_hi"], s["bins"] + 1)
    per, total = one_body_density(state, graph, full.vectors[:, j], edges)
    centers = 0.5 * (edges[1:] + edges[:-1])
    body = {
        "units": _units(s),
        "input": {
            "trap": trap_desc,
            "n_particles": n,
            "level": s["level"],
            "state": j,
            "k_value": float(full.values[j]),
        },
        "grid_centers": centers,
        "total": total,
        "per_particle": per,
    }
    header = ["x", "total"] + [f"particle_{i + 1}" for i in range(n)]
    rows = [[repr(float(v)) for v in (centers[b], total[b], *per[:, b])]
            for b in range(len(centers))]
    _write(args, s, body, header, rows)
    return 0


_COMMANDS = (
    ("spectrum", _cmd_spectrum, "boundary weights, K spectrum, and amplitudes"),
    ("gamma", _cmd_gamma, "boundary weights only"),
    ("validate", _cmd_validate, "finite-coupling oracle versus Laplacian slopes"),
    ("density", _cmd_density, "one-body density of one adiabatic state"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tonks",
        description="Strong-coupling spectra of trapped 1D fermions with contact repulsion.",
    )
    parser.add_argument("--version", action="version", version=f"tonks {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="INI settings file; flags override it")
        for key, row in _SETTINGS.items():
            if name not in row.commands:
                continue
            if row.type is bool:
                p.add_argument(f"--no-{key}", dest=key, action="store_false", default=None,
                               help=row.help)
            else:
                p.add_argument("--" + key.replace("_", "-"), dest=key, help=row.help,
                               type=None if row.type is str else row.type, choices=row.choices)
            if key == "format":  # the output path sits beside the format
                p.add_argument("--output", "-o", help="output path (stdout when omitted)")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, _settings(args))
    except ToleranceError as exc:
        print(f"tolerance not met: {exc}", file=sys.stderr)
        return 3
    except (InputError, ValueError, OSError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
