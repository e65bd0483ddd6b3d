"""Start-up: each command loads only the modules it uses, and the lazy package API."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import tonks

SRC = str(Path(tonks.__file__).resolve().parents[1])


def fresh(code: str):
    """Run code in a new interpreter that imports tonks from this tree; return its
    last stdout line, parsed as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def modules_after(argv: list[str]) -> list[str]:
    """The modules loaded by importing tonks and tonks.cli and running one command."""
    return fresh(f"""
import contextlib, io, json, sys
import tonks, tonks.cli
with contextlib.redirect_stdout(io.StringIO()):
    assert tonks.cli.main({argv!r}) == 0
print(json.dumps(sorted(sys.modules)))
""")


def test_gamma_loads_no_scipy():
    loaded = modules_after(["gamma", "--n", "3", "--no-timestamp"])
    assert "tonks.weights" in loaded
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []


def test_spectrum_and_density_skip_unused_scipy():
    # the word Laplacian and its relabelling blocks need NumPy alone
    for argv in (["spectrum", "--n", "4"], ["spectrum", "--n", "6", "--components", "3,3"],
                 ["density", "--n", "3"]):
        loaded = modules_after([*argv, "--no-timestamp"])
        assert "tonks.spectrum" in loaded and "tonks.sectors" in loaded
        assert [m for m in loaded if m.split(".")[0] == "scipy"] == [], argv


def test_validate_and_tabulated_trap_load_no_scipy(tmp_path):
    # the oracle's interaction, eigensolves and special functions, and the sinc-DVR
    # solve of a tabulated trap, need NumPy alone
    x = np.linspace(-8.0, 8.0, 161)
    np.savetxt(tmp_path / "harmonic.dat", np.column_stack([x, 0.5 * x * x]))
    for argv, module in ((["validate", "--n", "2", "--n-modes", "8"], "tonks.oracle"),
                         (["gamma", "--n", "3", "--trap", str(tmp_path / "harmonic.dat")],
                          "tonks.traps")):
        loaded = modules_after([*argv, "--no-timestamp"])
        assert module in loaded
        assert [m for m in loaded if m.split(".")[0] == "scipy"] == [], argv


def test_public_names_resolve_lazily():
    report = fresh("""
import importlib, json, sys
import tonks
listed = dir(tonks)
bare = sorted(m for m in vars(tonks) if m in ("traps", "slater", "weights", "sectors",
                                                "spectrum", "oracle"))
oracle_ok = tonks.oracle is importlib.import_module("tonks.oracle")
same = all(getattr(tonks, name) is getattr(sys.modules[getattr(tonks, name).__module__], name)
           for name in tonks.__all__)
star = {}
exec("from tonks import *", star)
print(json.dumps({"bare": bare, "oracle": oracle_ok, "same": same, "all": tonks.__all__,
                  "dir": listed, "star": sorted(k for k in star if k != "__builtins__")}))
""")
    assert report["bare"] == [] and report["oracle"] and report["same"]
    assert len(report["all"]) == 21
    # test references live in tests/reference.py, not in the package
    assert {"gamma", "two_body_reference", "SectorWavefunction", "delta_tensor"}.isdisjoint(
        report["all"])
    assert "one_body_density" in report["all"]
    assert set(report["all"]) <= set(report["dir"])
    assert {"oracle", "spectrum", "__version__"} <= set(report["dir"])
    assert report["star"] == sorted(report["all"])


def test_patched_function_shows_through_package(monkeypatch):
    import tonks.spectrum

    original = tonks.spectrum.solve

    def fake(lap):
        raise AssertionError("not called")

    monkeypatch.setattr(tonks.spectrum, "solve", fake)
    assert tonks.solve is fake
    monkeypatch.undo()
    assert tonks.solve is tonks.spectrum.solve is original
