"""Tests of the benchmark's own arithmetic and extractors.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tonks  # noqa: E402
import tonks.cli  # noqa: E402,F401
from anchors import (Tally, density_figures, gamma_figures, laplacian_figures,  # noqa: E402
                     spectrum_figures, validate_figures)
from layers import CATALOGUE, PROBES, layer_metrics  # noqa: E402
from run import END_TO_END  # noqa: E402
from tracer import Span, Tracer, self_times  # noqa: E402
from workloads import MAX_PROJECTED_DIM, WORKLOADS, _graph_job  # noqa: E402

GAMMA3 = 27.0 / (8.0 * np.sqrt(2.0 * np.pi))


def sample(name: str) -> dict:
    with open(HERE / "samples" / name) as fh:
        return json.load(fh)


def tree() -> list[Span]:
    # cli.main [0, 10] -> weights.all_gammas [1, 7] -> slater.psi_grad [2, 5] -> traps.eval_many [3, 4]
    #                  -> spectrum.solve [8, 9.5]
    return [
        Span(0, "cli.main", None, "j", 0.0, 10.0),
        Span(1, "weights.all_gammas", 0, "j", 1.0, 7.0, info={"gammas": 2, "rel_err": 0.1}),
        Span(2, "slater.SlaterState.psi_grad", 1, "j", 2.0, 5.0, info={"configs": 100}),
        Span(3, "traps.HarmonicBasis.eval_many", 2, "j", 3.0, 4.0, info={"points": 300}),
        Span(4, "spectrum.solve", 0, "j", 8.0, 9.5, info={"dim": 6}),
    ]


def test_self_times_subtract_direct_children_only():
    st = self_times(tree())
    assert st == pytest.approx({0: 10.0 - 6.0 - 1.5, 1: 6.0 - 3.0, 2: 3.0 - 1.0, 3: 1.0, 4: 1.5})
    assert sum(st.values()) == pytest.approx(10.0)


def test_layer_metrics_on_synthetic_tree():
    spans = tree()
    m = layer_metrics(spans + [Span(5, "cli.main", None, "k", 20.0, 30.0)], passes=2,
                      traced_wall=10.0, untraced_wall=8.0, bytes_out=123)
    assert list(m) == list(CATALOGUE)
    assert m["cli.main.calls"] == 1.0  # two calls over two passes
    assert m["cli.self_s"] == pytest.approx((2.5 + 10.0) / 2)
    assert m["weights.all_gammas.s"] == pytest.approx(3.0)
    assert m["weights.all_gammas.self_s"] == pytest.approx(1.5)
    assert m["weights.configs_per_gamma"] == pytest.approx(50.0)
    assert m["weights.err2_s"] == pytest.approx(0.01 * 6.0)
    assert m["slater.configs_per_s"] == pytest.approx(100 / 3.0)
    assert m["traps.eval_many.points"] == pytest.approx(150.0)
    assert m["spectrum.solve.dim"] == 6.0
    assert m["slater.share"] == pytest.approx(1.0 / 10.0)
    assert m["trace.overhead_frac"] == pytest.approx(0.25)
    assert m["trace.unattributed_frac"] == pytest.approx(1.0 - 20.0 / 2 / 10.0)
    # Names nobody called read as zero.
    assert m["oracle.diagonalize.s"] == 0.0 and m["oracle.track_quality_min"] == 0.0
    assert m["cli.bytes_out"] == 123.0


def test_declared_metrics_match_the_code():
    with open(HERE.parent / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == CATALOGUE
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_tracer_wraps_every_binding_and_restores_it(tmp_path):
    originals = (tonks.build_graph, tonks.sectors.build_graph, tonks.cli.build_graph,
                 tonks.SlaterState.psi_grad, tonks.Trap.__dict__["from_table"])
    tracer = Tracer("tonks", PROBES)
    tracer.install()
    try:
        tracer.job = "t"
        state = tonks.make_level(tonks.HarmonicBasis(), 3)
        tonks.all_gammas(state)
        tonks.cli.build_graph(3)
        short = tmp_path / "short.dat"
        short.write_text("0 0\n1 1\n")
        with pytest.raises(ValueError):
            tonks.Trap.from_file(str(short))
    finally:
        tracer.uninstall()
    assert (tonks.build_graph, tonks.sectors.build_graph, tonks.cli.build_graph,
            tonks.SlaterState.psi_grad, tonks.Trap.__dict__["from_table"]) == originals
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    assert "sectors.build_graph" in by_name
    grad = by_name["slater.SlaterState.psi_grad"][0]
    assert tracer.spans[grad.parent].name == "weights.all_gammas"
    assert grad.info["configs"] > 0 and grad.job == "t"
    gammas = by_name["weights.all_gammas"][0].info
    assert gammas["gammas"] == 2 and 0 < gammas["rel_err"] < 1e-9
    # The error starts in from_table and passes through from_file; it counts once.
    assert [s.name for s in tracer.spans if s.error] == ["traps.Trap.from_table"]


def test_gamma_extractor_on_closed_form_and_parity_samples():
    tally = Tally()
    gamma_figures("n3", sample("gamma-n3.json"), tally, anchor_rtol=1e-9)
    gamma_figures("n4", sample("gamma-n4.json"), tally, anchor_rtol=None)
    assert tally.failures == []
    fig = tally.figures()
    assert fig["gamma_abs_err_max"] < 1e-15
    assert fig["gamma_cover_frac"] == 1.0  # two anchors and two parity pairs
    assert tally.cover["gamma_cover_frac"] == [4, 4]
    assert fig["gamma_rel_err_max"] == pytest.approx(0.0074295 / 1.7907, rel=1e-3)


def test_gamma_extractor_flags_wrong_values_and_dishonest_errors():
    doc = sample("gamma-n3.json")
    doc["gammas"][0]["value"] = GAMMA3 + 1e-6
    tally = Tally()
    gamma_figures("n3", doc, tally, anchor_rtol=1e-9)
    assert any("gamma_1 against closed form" in f for f in tally.failures)
    assert tally.cover["gamma_cover_frac"] == [1, 3]  # only gamma_2 is still within its floor
    doc = sample("gamma-n4.json")
    doc["gammas"][2]["value"] += 0.1
    tally = Tally()
    gamma_figures("n4", doc, tally, anchor_rtol=None)
    assert any("parity gamma_1 = gamma_3" in f for f in tally.failures)


def test_density_extractor_against_free_density():
    doc = sample("density-n3-state5.json")
    tally = Tally()
    density_figures("d", doc, tally)
    assert tally.failures == []
    assert 0 < tally.figures()["density_err_max"] < 0.05
    bad = copy.deepcopy(doc)
    bad["total"] = [v * 1.2 for v in bad["total"]]
    bad["per_particle"] = [[v * 1.2 for v in row] for row in bad["per_particle"]]
    tally = Tally()
    density_figures("d", bad, tally)
    assert len(tally.failures) == 2  # mass and free-density anchor


def test_validate_extractor_reads_k_and_uncertainties():
    tally = Tally()
    validate_figures("v", sample("validate-n2.json"), tally, gamma_ref=np.sqrt(2.0 / np.pi))
    assert tally.failures == []
    fig = tally.figures()
    assert fig["k_rel_dev_max"] == pytest.approx(0.03302, rel=1e-3)
    assert fig["k_unc_rel_max"] == pytest.approx(0.10932 / 1.59577, rel=1e-3)
    assert fig["k_cover_frac"] == 1.0
    tally = Tally()
    validate_figures("v", sample("validate-n2.json"), tally, gamma_ref=1.0)
    assert tally.failures == ["v: predicted K against closed form"]


def test_spectrum_extractor_and_graph_invariants():
    doc = sample("spectrum-n3-2-1.json")
    tally = Tally()
    gammas = gamma_figures("s", doc, tally, anchor_rtol=1e-9)
    spectrum_figures("s", doc, tally, gammas)
    assert tally.failures == []
    assert tally.figures()["graph_containment_gap_max"] < 1e-12

    g = np.array([1.0, 2.0, 0.5])
    graph = tonks.build_graph(4)
    lap = tonks.laplacian(graph, g)
    spec = tonks.solve(lap)
    laplacian_figures("l", lap, spec.values, spec.vectors, g, tally, full=True)
    assert tally.failures == []
    lap[0, 1] += 1e-3
    laplacian_figures("l", lap, spec.values, spec.vectors, g, tally, full=True)
    assert len(tally.failures) == 2
    assert "zero row sums" in tally.failures[0] and "eigen-residual" in tally.failures[1]


def test_workloads_are_seeded_and_never_build_huge_projections(tmp_path):
    def names(workload, seed):
        return [j.name for j in WORKLOADS[workload](np.random.default_rng(seed), str(tmp_path))]

    assert names("ordering-graph", 3) == names("ordering-graph", 3)
    assert len(names("gamma-sweep", 1)) == 9
    with pytest.raises(ValueError):
        _graph_job("x", 8, (1,) * 8, np.ones(7), False, np.random.default_rng(0))
    assert MAX_PROJECTED_DIM == 2520
