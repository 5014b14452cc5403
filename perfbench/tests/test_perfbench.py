"""Self-tests of the repository benchmark.

Run from the repository root with ``python -m pytest perfbench/tests -q``
(about a minute: the smoke runs start real serve daemons).
"""

import json
import re
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest

from perfbench import workloads
from perfbench.check import output_ok, reference
from perfbench.metrics import (DROPPED, END_TO_END, EXACT, PER_LAYER,
                               WORKLOADS)
from repro.apps.harness import ProblemSpec, RunRequest, run_request
from repro.apps.piv import PIVConfig, PIVProblem
from repro.tuning import harness_sweep
from repro.tuning.sweep import best_record

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: A 2x2 PIV grid: one tuning pass in about a second.
TINY_GRID = {"piv": (PIVProblem("tiny", 24, 24, mask=8, offs=3),
                     {"rb": [1, 2], "threads": [32, 64]})}


def _tiny_optima():
    problem, axes = TINY_GRID["piv"]
    best = best_record(harness_sweep("piv", problem, axes, seed=5,
                                     memory_bytes=8 << 20).records)
    return {"piv": best.seconds}


# -- schema ------------------------------------------------------------

def test_benchmark_json_matches_metric_definitions():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCH["workloads"]] == [
        w for w in WORKLOADS if w not in DROPPED]
    assert all(w["why"] and "\n" not in w["why"]
               for w in BENCH["workloads"])
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in BENCH["per_layer"]} == {
        name: spec[:2] for name, spec in PER_LAYER.items()}


def test_every_metric_name_is_well_formed_and_has_a_unit():
    for metric in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert NAME.fullmatch(metric["name"]), metric
        assert metric["unit"], metric
        assert metric["better"] in ("lower", "higher"), metric
    for metric in BENCH["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25, metric
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_every_layer_metric_names_what_it_should_move_and_where():
    for name, (_unit, _better, moves, on) in PER_LAYER.items():
        assert on and set(on) <= set(WORKLOADS), name
        assert set(moves) <= set(END_TO_END), name
        # Only the benchmark's own wrapper cost is expected to move nothing.
        assert moves or name.startswith("obs."), name
    assert set(EXACT) <= set(PER_LAYER)


# -- smoke runs --------------------------------------------------------

def _assert_end_to_end(outcome):
    assert not outcome.failures, outcome.failures
    assert set(outcome.metrics) == set(END_TO_END)
    assert all(v > 0 for v in outcome.metrics.values()), outcome.metrics
    assert outcome.metrics["ok_frac"] == 1.0


def _assert_layers(outcome):
    assert not outcome.failures, outcome.failures
    assert set(outcome.metrics) == set(PER_LAYER)


def test_tune_smoke():
    optima = _tiny_optima()
    _assert_end_to_end(workloads.run_tune(ROOT, 5, 0.1, grids=TINY_GRID,
                                          optima=optima))
    traced = workloads.trace_tune(ROOT, 5, grids=TINY_GRID, optima=optima)
    _assert_layers(traced)
    assert traced.metrics["tuning.evals"] > 0
    assert traced.metrics["kernelc.compile_calls"] > 0


def test_tune_wrong_pick_fails_every_evaluation():
    outcome = workloads.trace_tune(ROOT, 5, grids=TINY_GRID,
                                   optima={"piv": 1.0})
    assert len(outcome.failures) == outcome.attempted


@pytest.mark.parametrize("kind", ["serve-warm", "serve-cold"])
def test_serve_smoke(kind):
    _assert_end_to_end(workloads.run_serve(ROOT, kind, 5, 1.0))
    traced = workloads.trace_serve(ROOT, kind, 5, count=4)
    _assert_layers(traced)
    assert traced.metrics["gpusim.launch_calls"] > 0
    assert traced.metrics["serve.overhead_s"] > 0


# -- correctness gate --------------------------------------------------

def test_wrong_output_is_caught():
    spec = ProblemSpec("piv", PIVProblem("tiny", 24, 24, mask=8, offs=3),
                       seed=5, memory_bytes=8 << 20)
    output = run_request(RunRequest(spec, PIVConfig(rb=2, threads=64))).output
    assert output_ok(spec, output)
    bad = output.copy()
    bad.flat[0] += 1.0
    assert not output_ok(spec, bad)
    assert not output_ok(spec, None)


@pytest.mark.xfail(strict=True, reason="known defect: the PIV tree "
                   "reduction assumes a power-of-two thread count")
def test_piv_tree_reduction_with_96_threads():
    spec = ProblemSpec("piv", PIVProblem("tiny", 24, 24, mask=8, offs=3),
                       seed=5, memory_bytes=8 << 20)
    output = run_request(RunRequest(
        spec, PIVConfig(variant="tree", rb=2, threads=96))).output
    np.testing.assert_allclose(output, reference(spec), rtol=1e-4)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(BENCH["command"] + ["--workload", "tune",
                                             "--seconds", "1"],
                         cwd=tmp_path, capture_output=True, text=True,
                         timeout=180)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
