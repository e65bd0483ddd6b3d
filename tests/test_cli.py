"""Command-line interface: schemas, determinism, config files, exit codes."""

import json
import os
import re
import shlex
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tonks.oracle
import tonks.spectrum
from tonks import cli
from tonks.cli import _SETTINGS, _load_config, build_parser

README = Path(__file__).resolve().parents[1] / "README.md"
BASE = [sys.executable, "-m", "tonks.cli"]


def run_cli(*args, expect=0):
    proc = subprocess.run([*BASE, *args], capture_output=True, text=True)
    assert proc.returncode == expect, proc.stderr
    return proc


def test_version():
    proc = run_cli("--version")
    assert proc.stdout.startswith("tonks ")


def test_spectrum_json_schema():
    proc = run_cli("spectrum", "--n", "3", "--no-timestamp")
    doc = json.loads(proc.stdout)
    assert doc["schema_version"] == 4
    assert doc["command"] == "spectrum"
    assert doc["slater"]["occupation"] == [0, 1, 2]
    assert doc["slater"]["free_energy"] == pytest.approx(4.5)
    gam = {row["k"]: row["value"] for row in doc["gammas"]}
    assert gam[1] == pytest.approx(gam[2], abs=1e-10)
    assert doc["graph"]["nodes"] == 6
    assert doc["graph"]["edges"] == 6
    full = doc["spectrum"]["full"]
    ratios = np.array(full["k_values"]) / gam[1]
    np.testing.assert_allclose(ratios, [0, 1, 1, 3, 3, 4], atol=1e-9)
    assert full["labels"][0] == "uniform"
    assert full["labels"][-1] == "alternating"
    # distinguishable particles: the projection keeps every sector
    assert doc["spectrum"]["projected"]["dimension"] == 6
    amps = doc["amplitudes"]
    assert len(amps["node_order"]) == 6
    assert len(amps["cycle_order"]) == 6
    assert len(amps["vectors"]) == 6
    assert "timestamp" not in doc["provenance"]


def test_spectrum_projected_components():
    proc = run_cli("spectrum", "--n", "3", "--components", "2,1", "--no-timestamp")
    doc = json.loads(proc.stdout)
    proj = doc["spectrum"]["projected"]
    assert proj["dimension"] == 3
    gam = doc["gammas"][0]["value"]
    np.testing.assert_allclose(np.array(proj["k_values"]) / gam, [0, 1, 3], atol=1e-9)


def test_spectrum_above_node_cap_writes_projected_block():
    proc = run_cli("spectrum", "--n", "7", "--components", "4,3", "--no-timestamp")
    doc = json.loads(proc.stdout)
    assert "graph" not in doc and "amplitudes" not in doc
    assert list(doc["spectrum"]) == ["projected", "energy_law"]
    proj = doc["spectrum"]["projected"]
    assert proj["dimension"] == len(proj["k_values"]) == 35
    assert abs(proj["k_values"][0]) < 1e-12
    csv_rows = run_cli("spectrum", "--n", "7", "--components", "4,3", "--format", "csv",
                       "--no-timestamp").stdout.strip().splitlines()
    assert csv_rows[0] == "index,k_value,group,label" and len(csv_rows) == 36
    assert csv_rows[1].endswith(",0,")
    proc = run_cli("spectrum", "--n", "12", "--components", "4,4,4", expect=2)
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "34650 words" in lines[0]


def test_spectrum_deterministic():
    a = run_cli("spectrum", "--n", "3", "--no-timestamp").stdout
    b = run_cli("spectrum", "--n", "3", "--no-timestamp").stdout
    assert a == b


def _assert_same_json(a, b, path="$"):
    """Equal parsed JSON: same types, keys in the same order, floats bit for bit."""
    assert type(a) is type(b), path
    if isinstance(a, dict):
        assert list(a) == list(b), path
        for key in a:
            _assert_same_json(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, list):
        assert len(a) == len(b), path
        for i, (u, v) in enumerate(zip(a, b)):
            _assert_same_json(u, v, f"{path}[{i}]")
    elif isinstance(a, float):
        assert a.hex() == b.hex(), (path, a, b)
    else:
        assert a == b, path


def test_json_chunks_round_trip_awkward_content():
    nan = float("nan")
    doc = {
        "empty_dict": {},
        "empty_list": [],
        "records": [{"a": 1, "b": [1.5, None]}, {}, {"c": {"d": []}}],
        "nested": [[1, [2, 3]], [], [[]], [{"e": True}]],
        "row": np.array([0.1, -0.0, 5e-324, 1e308, nan]),
        "matrix": np.array([[1e308, -0.0], [nan, 1 / 3]]),
        "no_rows": np.zeros((0, 3)),
        "text": 'say "hi" \\ \t naïve ✓ \u2028',
        "scalars": [5e-324, 1e308, -0.0, nan, -1e-308, True, False, None, "x"],
        "number": -0.0,
    }
    plain = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in doc.items()}
    text = "".join(cli._json_chunks(doc))
    _assert_same_json(json.loads(text), json.loads(json.dumps(plain)))
    lines = text.splitlines()
    # Two-space indentation for containers, each number array on one line.
    assert lines[0] == "{" and lines[1] == '  "empty_dict": {},'
    assert '  "row": [0.1, -0.0, 5e-324, 1e+308, NaN],' in lines
    assert '    [1e+308, -0.0],' in lines
    assert '  "scalars": [5e-324, 1e+308, -0.0, NaN, -1e-308, true, false, null, "x"],' in lines


def _reference_chunks(obj, pad="\n"):
    """The writer before magnitudes were formatted once: json.dumps(row.tolist()) per row."""
    if isinstance(obj, np.ndarray):
        obj = list(obj) if obj.ndim > 1 else obj.tolist()
    if isinstance(obj, dict) and obj:
        yield "{"
        for i, (key, value) in enumerate(obj.items()):
            yield ("," if i else "") + pad + "  " + json.dumps(key) + ": "
            yield from _reference_chunks(value, pad + "  ")
        yield pad + "}"
    elif isinstance(obj, list) and obj and isinstance(obj[0], (dict, list, np.ndarray)):
        yield "["
        for i, value in enumerate(obj):
            yield ("," if i else "") + pad + "  "
            yield from _reference_chunks(value, pad + "  ")
        yield pad + "]"
    else:
        yield json.dumps(obj)


# Magnitudes where float repr is awkward: signed zero, the smallest subnormal, the
# switches between positional and exponent notation (1e-4 / 1e-5 below, 1e16 above),
# the normal range's ends and large exponents.
_AWKWARD = [0.0, 5e-324, 2.2250738585072014e-308, 1e-4, 9.999999999999999e-05, 1e-5,
            1.0000000000000001e-05, 1e16, 9999999999999998.0, 1.0000000000000002e16,
            1e22, 1e-300, 1.2345678901234567e+300, 1.7976931348623157e308, 0.1, 1 / 3]
_MAGNITUDES = st.lists(st.sampled_from(_AWKWARD)
                       | st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
                       min_size=1, max_size=6)


@st.composite
def _float_rows(draw):
    """A row of a few magnitudes, each repeated with both signs, in shuffled order."""
    mags = draw(_MAGNITUDES)
    picks = draw(st.lists(st.tuples(st.integers(0, len(mags) - 1), st.booleans()),
                          min_size=0, max_size=40))
    return np.array([-mags[i] if neg else mags[i] for i, neg in picks], dtype=float)


@settings(max_examples=200, deadline=None)
@given(_float_rows(), st.sampled_from([None, float("nan"), float("inf"), -float("inf")]),
       st.integers(0, 40))
def test_row_writer_matches_json_dumps(row, special, at):
    if special is not None:  # NaN and infinities take the json.dumps path
        row = np.insert(row, min(at, len(row)), special)
    with np.errstate(over="ignore"):
        single = row.astype(np.float32)
    for arr in (row, single, row[::-1], row[None, :], np.stack([row, -row])):
        assert "".join(cli._json_chunks(arr)) == "".join(_reference_chunks(arr))


def test_row_writer_on_empty_and_non_finite_arrays():
    nan, inf = float("nan"), float("inf")
    for arr in (np.zeros(0), np.zeros(0, np.float32), np.zeros((0, 3)), np.zeros((2, 0)),
                np.array([nan, -nan, inf, -inf, -0.0, 0.0]), np.array([[1.5, -inf], [nan, -1.5]])):
        assert "".join(cli._json_chunks(arr)) == "".join(_reference_chunks(arr))
    assert "".join(cli._json_chunks(np.array([-0.0, 0.0, nan, -inf]))) == \
        "[-0.0, 0.0, NaN, -Infinity]"


@pytest.mark.parametrize("argv", [
    ["spectrum", "--n", "6", "--components", "3,3"],
    ["density", "--n", "3", "--state", "5"],
    ["gamma", "--n", "3"],
    ["validate", "--n", "2", "--n-modes", "8"],
])
def test_documents_match_the_reference_writer(argv, tmp_path, monkeypatch):
    new, ref = tmp_path / "new.json", tmp_path / "ref.json"
    assert cli.main([*argv, "--no-timestamp", "-o", str(new)]) == 0
    monkeypatch.setattr(cli, "_json_chunks", _reference_chunks)
    assert cli.main([*argv, "--no-timestamp", "-o", str(ref)]) == 0
    assert new.read_bytes() == ref.read_bytes()


def test_interrupted_write_keeps_the_old_file(tmp_path, monkeypatch):
    out = tmp_path / "gam.json"
    out.write_text("old\n")
    real = cli._json_chunks

    def interrupted(*args):
        for i, chunk in enumerate(real(*args)):
            if i == 10:
                raise RuntimeError("interrupted")
            yield chunk

    monkeypatch.setattr(cli, "_json_chunks", interrupted)
    with pytest.raises(RuntimeError, match="interrupted"):
        cli.main(["gamma", "--n", "2", "-o", str(out), "--no-timestamp"])
    assert out.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["gam.json"]
    monkeypatch.undo()
    cli.main(["gamma", "--n", "2", "-o", str(out), "--no-timestamp"])
    assert json.loads(out.read_text())["command"] == "gamma"
    assert [p.name for p in tmp_path.iterdir()] == ["gam.json"]


def test_output_mode_follows_umask_or_replaced_file(tmp_path):
    out = tmp_path / "p.json"
    args = ["gamma", "--n", "2", "-o", str(out), "--no-timestamp"]
    old = os.umask(0o022)
    try:
        assert cli.main(args) == 0
        assert stat.filemode(out.stat().st_mode) == "-rw-r--r--"
        # a replaced file keeps its own mode whatever the umask
        out.chmod(0o640)
        os.umask(0o077)
        assert cli.main(args) == 0
        assert stat.filemode(out.stat().st_mode) == "-rw-r-----"
        out.unlink()
        assert cli.main(args) == 0
        assert stat.filemode(out.stat().st_mode) == "-rw-------"
    finally:
        os.umask(old)


def test_spectrum_n6_layout_one_vector_per_line():
    text = run_cli("spectrum", "--n", "6", "--components", "3,3", "--no-timestamp").stdout
    lines = text.splitlines()
    assert len(lines) < 1000
    vectors = np.array(json.loads(text)["amplitudes"]["vectors"])
    assert vectors.shape == (720, 720)
    np.testing.assert_allclose(vectors @ vectors.T, np.eye(720), rtol=0, atol=1e-12)
    rows = [json.loads(line.strip().rstrip(",")) for line in lines
            if line.strip().startswith("[") and line.count(",") >= 719]
    assert len(rows) == 720
    np.testing.assert_array_equal(np.array(rows), vectors)


def test_gamma_csv(tmp_path):
    out = tmp_path / "gam.csv"
    run_cli("gamma", "--n", "2", "--format", "csv", "-o", str(out), "--no-timestamp")
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("k,")
    k, value, error, method = lines[1].split(",")
    assert int(k) == 1
    assert float(value) == pytest.approx(np.sqrt(2.0 / np.pi), abs=1e-10)
    assert method == "ordered-overlap"


def test_config_file_and_override(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[particles]\nn = 3\n\n[output]\ntimestamp = false\n")
    from_config = run_cli("spectrum", "--config", str(ini)).stdout
    assert json.loads(from_config)["input"]["n_particles"] == 3
    overridden = run_cli("spectrum", "--config", str(ini), "--n", "2").stdout
    assert json.loads(overridden)["input"]["n_particles"] == 2


def test_bad_inputs_exit_two(tmp_path):
    run_cli("spectrum", "--n", "1", expect=2)
    run_cli("spectrum", "--n", "3", "--components", "2,2", expect=2)
    run_cli("spectrum", "--config", str(tmp_path / "missing.ini"), expect=2)
    run_cli("gamma", "--n", "2", "--trap", str(tmp_path / "missing.dat"), expect=2)


def test_degenerate_high_level_exits_two():
    # the level walk names the shell of 7 quanta after 45 pops, not after sorting C(61, 20) occupations
    proc = run_cli("gamma", "--n", "20", "--level", "40", "--no-timestamp", expect=2)
    assert "level 40 is degenerate" in proc.stderr


def test_unreached_tolerance_exits_three():
    proc = run_cli("gamma", "--n", "4", "--tol", "1e-20", expect=3)
    assert proc.stderr.startswith("tolerance not met:")


def test_gamma_past_48_particles():
    # A(inf) of 49 orbitals has no Cholesky factor on the 4-panel first pass,
    # which doubles to 8 panels; parity still holds within the reported errors.
    doc = json.loads(run_cli("gamma", "--n", "49", "--no-timestamp").stdout)
    ws = doc["gammas"]
    assert len(ws) == 48
    for a, b in zip(ws, reversed(ws)):
        assert abs(a["value"] - b["value"]) <= a["error"] + b["error"]


def test_spectrum_three_components_of_forty():
    # 1,560 words of 40 letters over three components
    doc = json.loads(run_cli("spectrum", "--n", "40", "--components", "38,1,1",
                             "--no-timestamp").stdout)
    ks = np.array(doc["spectrum"]["projected"]["k_values"])
    total = sum(row["value"] for row in doc["gammas"])
    # the uniform vector has K = 0 to rounding; every K lies in [0, 2 * sum of weights]
    assert len(ks) == 1560
    assert abs(ks[0]) < 1e-12 * ks[-1]
    assert np.all(ks[1:] > 0) and ks[-1] <= 2 * total


def test_validate_two_body():
    proc = run_cli("validate", "--n", "2", "--n-modes", "24", "--g", "20,50,100",
                   "--rtol", "0.2", "--no-timestamp")
    doc = json.loads(proc.stdout)
    assert doc["passed"] is True
    dev = np.array(doc["rel_deviation"])
    assert dev.shape == (2,)
    assert np.max(dev) <= 0.2
    assert doc["k_predicted"][1] == pytest.approx(2.0 * np.sqrt(2.0 / np.pi), abs=1e-9)


def test_validate_csv(tmp_path):
    args = ("validate", "--n", "2", "--n-modes", "10", "--no-timestamp")
    doc = json.loads(run_cli(*args).stdout)
    out = tmp_path / "validate.csv"
    run_cli(*args, "-o", str(out))
    for text in (run_cli(*args, "--format", "csv").stdout, out.read_text()):
        header, *rows = text.strip().splitlines()
        assert header == "index,k_predicted,k_fitted,rel_deviation,uncertainty"
        table = np.array([[float(v) for v in row.split(",")] for row in rows])
        np.testing.assert_array_equal(table[:, 0], [0, 1])
        for col, key in enumerate(("k_predicted", "k_fitted", "rel_deviation",
                                   "fit_uncertainties"), start=1):
            np.testing.assert_array_equal(table[:, col], doc[key])


def test_validate_failure_exits_three():
    # two particles on the shell are exact up to rounding (K within 1e-9 relative), so only a
    # tolerance below that fails
    run_cli("validate", "--n", "2", "--n-modes", "24", "--g", "20,50,100",
            "--rtol", "1e-12", expect=3)


def test_validate_too_few_modes_exits_two():
    for n in (2, 3):
        proc = run_cli("validate", "--n", str(n), "--n-modes", str(n + 5), expect=2)
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
        assert f"--n-modes must be at least {n + 6}" in lines[0]
        assert proc.stdout == ""


def test_validate_three_body():
    proc = run_cli("validate", "--n", "3", "--n-modes", "14", "--g", "20,50,100",
                   "--no-timestamp")
    doc = json.loads(proc.stdout)
    assert len(doc["k_predicted"]) == len(doc["k_fitted"]) == 6
    assert doc["passed"] is True
    # one uncertainty for every K, covering every deviation
    unc = doc["fit_uncertainties"]
    assert len(set(unc)) == 1
    assert np.all(np.abs(np.subtract(doc["k_fitted"], doc["k_predicted"])) <= unc)
    # the slopes of each coupling, sorted: K - slope shrinks as g grows
    gap = np.array(doc["k_fitted"]) - np.array(doc["k_at_couplings"])
    assert gap.shape == (3, 6) and np.all(gap[:, 0] == 0.0)
    assert np.all(gap[:, 1:] > 0) and np.all(np.diff(gap[:, 1:], axis=0) < 0)


def test_validate_mixed_pairs_fit_identically():
    # Both rows of each mixed-irrep pair share one solve, so their fits agree exactly.
    proc = run_cli("validate", "--n", "3", "--n-modes", "10", "--g", "20,50,100",
                   "--no-timestamp")
    doc = json.loads(proc.stdout)
    k = doc["k_fitted"]
    assert k[1] == k[2] and k[3] == k[4]
    assert doc["passed"] is True


def test_validate_bad_couplings_exit_two(monkeypatch, capsys):
    for g in ("20,50,inf", "20,nan,100"):
        proc = run_cli("validate", "--n", "2", "--n-modes", "10", "--g", g, expect=2)
        assert proc.stderr.startswith("error: g_values must be finite and positive")
        assert "Warning" not in proc.stderr

    def refused(cfg):
        raise AssertionError("oracle ran before its input was checked")

    # a list that does not parse is refused before any diagonalization
    monkeypatch.setattr(tonks.oracle, "diagonalize", refused)
    assert cli.main(["validate", "--n", "3", "--n-modes", "18", "--g", "20,,50"]) == 2
    assert capsys.readouterr().err == "error: cannot parse couplings '20,,50'\n"


def test_validate_one_coupling():
    # K is taken at 1/g = 0, so one coupling runs; k_at_couplings holds its sorted slopes
    proc = run_cli("validate", "--n", "2", "--n-modes", "8", "--g", "50", "--no-timestamp")
    doc = json.loads(proc.stdout)
    assert doc["schema_version"] == 4 and doc["passed"] is True
    assert len(doc["k_at_couplings"]) == 1 and doc["k_at_couplings"][0][0] == 0.0
    assert 0.0 < doc["k_at_couplings"][0][1] < doc["k_fitted"][1]


def _refused(state, tol):
    raise AssertionError("weights computed for a refused input")


def test_oracle_input_refused_before_weights(monkeypatch, capsys):
    # EDConfig checks every oracle input before a boundary weight is computed
    monkeypatch.setattr(cli, "all_gammas", _refused)
    for extra, message in ((["--g", "20,50,inf"], "g_values must be finite and positive"),
                           (["--g", "50,20,100"], "g_values must be strictly increasing"),
                           (["--n-modes", "61"], "n_modes exceeds cap 60"),
                           (["--n", "4"], "exact diagonalization supports 2 or 3 particles"),
                           (["--n", "-1"], "exact diagonalization supports 2 or 3 particles")):
        assert cli.main(["validate", *extra]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")


def test_validate_level_refused_before_weights(tmp_path, monkeypatch, capsys):
    # the oracle's manifold is the ground level's: a nonzero level, as a flag or from a
    # config file, is bad input beside the trap refusal
    monkeypatch.setattr(cli, "all_gammas", _refused)
    ini = tmp_path / "level.ini"
    ini.write_text("[particles]\nlevel = 1\n")
    for extra in (["--level", "1"], ["--config", str(ini)]):
        assert cli.main(["validate", "--n", "2", "--n-modes", "14", *extra]) == 2
        assert capsys.readouterr().err == (
            "error: validation against the oracle runs on level 0, got level 1\n")


def test_component_sizes_refused_before_weights(monkeypatch, capsys):
    # build_graph checks the component sizes before a boundary weight is computed
    monkeypatch.setattr(cli, "all_gammas", _refused)
    assert cli.main(["spectrum", "--n", "3", "--components", "2,2"]) == 2
    assert capsys.readouterr().err == "error: component sizes (2, 2) sum to 4, expected 3\n"


def test_over_cap_input_refused_before_weights(monkeypatch, capsys):
    monkeypatch.setattr(cli, "all_gammas", _refused)
    for command in ("spectrum", "density"):
        assert cli.main([command, "--n", "8"]) == 2
        assert "above the graph cap of 2520 nodes" in capsys.readouterr().err


def test_density_grid_and_state_refused_before_weights(monkeypatch, capsys):
    monkeypatch.setattr(cli, "all_gammas", _refused)
    for extra, message in ((["--bins", "0"], "density grid must satisfy grid_lo < grid_hi"),
                           (["--grid-lo", "1", "--grid-hi", "1"], "density grid must satisfy"),
                           (["--state", "720"], "state index 720 outside 0..719"),
                           (["--state", "-1"], "state index -1 outside 0..719")):
        assert cli.main(["density", "--n", "6", *extra]) == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv, setting", [
    (["gamma", "--n", "3", "--omega", "inf"], "omega"),
    (["gamma", "--n", "3", "--omega", "nan"], "omega"),
    (["gamma", "--n", "3", "--tol", "inf"], "tol"),
    (["gamma", "--n", "3", "--trap", "TABLE", "--margin", "nan"], "margin"),
    (["density", "--n", "3", "--grid-lo", "nan"], "grid_lo"),
    (["density", "--n", "3", "--grid-hi", "inf"], "grid_hi"),
    (["validate", "--n", "2", "--rtol", "nan"], "rtol"),
    (["validate", "--n", "2", "--rtol", "-1"], "rtol"),
    (["gamma", "--n", "3", "--config", "INI"], "omega"),
])
def test_bad_float_settings_refused_before_any_work(argv, setting, tmp_path, monkeypatch, capsys):
    # A non-finite float setting, or a negative rtol, is bad input (exit 2) named
    # in the message; none reaches the weights, where omega = inf never returns.
    monkeypatch.setattr(cli, "all_gammas", _refused)
    ini = tmp_path / "inf.ini"
    ini.write_text("[trap]\nomega = inf\n")
    files = {"TABLE": _harmonic_table(tmp_path / "harmonic.dat", 161), "INI": str(ini)}
    assert cli.main([files.get(arg, arg) for arg in argv]) == 2
    assert capsys.readouterr().err.startswith(f"error: {setting} must be ")


def test_spectrum_solves_distinguishable_input_once(monkeypatch, tmp_path):
    calls, real = [], tonks.spectrum.solve

    def counting_solve(lap):
        calls.append(lap.shape[0])
        return real(lap)

    monkeypatch.setattr(tonks.spectrum, "solve", counting_solve)
    out = str(tmp_path / "spectrum.json")
    for components, solves in ((None, [24]), ("2,2", [6, 24])):
        calls.clear()
        extra = ["--components", components] if components else []
        assert cli.main(["spectrum", "--n", "4", *extra, "-o", out, "--no-timestamp"]) == 0
        assert calls == solves


def test_density_output():
    proc = run_cli("density", "--n", "2", "--state", "1", "--bins", "40",
                   "--grid-lo", "-5", "--grid-hi", "5", "--no-timestamp")
    doc = json.loads(proc.stdout)
    centers = np.array(doc["grid_centers"])
    total = np.array(doc["total"])
    per = np.array(doc["per_particle"])
    assert centers.shape == (40,)
    assert total.shape == (40,)
    assert per.shape == (2, 40)
    width = centers[1] - centers[0]
    assert float(np.sum(total)) * width == pytest.approx(2.0, abs=1e-6)
    np.testing.assert_allclose(per.sum(axis=0), total, rtol=1e-14)
    assert set(doc["input"]) == {"trap", "n_particles", "level", "state", "k_value"}


def test_density_of_degenerate_pair_is_deterministic():
    # States 1 and 2 of n = 3 share one K value; each is a row of the 2-dim
    # S_3 irrep, so its own density is the same in every fresh process.
    args = ("density", "--n", "3", "--bins", "40", "--no-timestamp")
    docs = [[run_cli(*args, "--state", str(j)).stdout for _ in range(2)] for j in (1, 2)]
    for first, second in docs:
        assert first == second
    a, b = (json.loads(first) for first, _ in docs)
    assert a["input"]["k_value"] == b["input"]["k_value"]
    assert not np.array_equal(a["per_particle"], b["per_particle"])


def _harmonic_table(path, points):
    x = np.linspace(-8.0, 8.0, points)
    np.savetxt(path, np.column_stack([x, 0.5 * x * x]))
    return str(path)


def test_coarse_table_exits_two(tmp_path):
    # 41 points on [-8, 8] (spacing 0.4) cannot resolve the 10 orbitals the CLI solves.
    table = _harmonic_table(tmp_path / "coarse.dat", 41)
    proc = run_cli("gamma", "--n", "2", "--trap", table, expect=2)
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
    assert "not converged" in lines[0]


def test_gamma_on_table(tmp_path):
    table = _harmonic_table(tmp_path / "harmonic.dat", 161)
    doc = json.loads(run_cli("gamma", "--n", "3", "--trap", table, "--no-timestamp").stdout)
    assert doc["input"]["trap"] == table
    assert [row["k"] for row in doc["gammas"]] == [1, 2]
    for row in doc["gammas"]:
        assert abs(row["value"] - 27.0 / (8.0 * np.sqrt(2.0 * np.pi))) <= row["error"]


def test_removed_options_exit_two(tmp_path):
    for flag, value in (("--method", "monte-carlo"), ("--samples", "1000"),
                        ("--strata", "8"), ("--threads", "2"), ("--mc-target", "0.1")):
        run_cli("gamma", "--n", "2", flag, value, expect=2)
    # the oracle tracks n! states, one per K value
    run_cli("validate", "--n", "2", "--states", "10", expect=2)
    ini = tmp_path / "old.ini"
    ini.write_text("[integration]\nmethod = auto\n")
    proc = run_cli("gamma", "--config", str(ini), expect=2)
    assert "unknown key 'method'" in proc.stderr
    # seed lives in [integration]; the [density] copy went with the Monte Carlo density
    ini.write_text("[density]\nseed = 3\n")
    proc = run_cli("density", "--config", str(ini), expect=2)
    assert "unknown key 'seed' in config section [density]" in proc.stderr
    ini.write_text("[validate]\nstates = 10\n")
    proc = run_cli("validate", "--config", str(ini), expect=2)
    assert "unknown key 'states' in config section [validate]" in proc.stderr


def test_unknown_config_section_exits_two(tmp_path):
    ini = tmp_path / "typo.ini"
    ini.write_text("[partciles]\nn = 3\n")
    proc = run_cli("gamma", "--config", str(ini), expect=2)
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "[partciles]" in lines[0]
    assert proc.stdout == ""


def test_readme_usage_and_settings_match_the_cli(tmp_path):
    text = README.read_text()
    usage = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in usage.splitlines()
                if line.startswith("tonks ")]
    assert len(commands) >= 4
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])
    listed = {(section, key.strip())
              for section, keys in re.findall(r"`\[(\w+)\]` \(([^)]*)\)", text)
              for key in keys.split(",")}
    assert listed == {(row.section, key) for key, row in _SETTINGS.items()}
    ini = tmp_path / "readme.ini"
    ini.write_text(text.split("```ini", 1)[1].split("```", 1)[0])
    assert _load_config(str(ini))


def test_seed_only_reaches_provenance():
    a = json.loads(run_cli("gamma", "--n", "3", "--seed", "1", "--no-timestamp").stdout)
    b = json.loads(run_cli("gamma", "--n", "3", "--seed", "2", "--no-timestamp").stdout)
    assert a["provenance"]["seed"] == 1 and b["provenance"]["seed"] == 2
    assert a["gammas"] == b["gammas"]
    assert a["schema_version"] == 4
    assert set(a["input"]) == {"trap", "n_particles", "level", "tol"}
