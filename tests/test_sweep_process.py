"""Served sweeps (``jobs>1``): ordering, bit-identity, chaos, ergonomics.

The contract under test: a sweep's result is a pure function of
(runner, grid) — worker count and completion order must leave no
trace in the records.
"""

import gc
import time
import weakref

import numpy as np
import pytest

from repro.apps.backprojection import BPProblem
from repro.apps.harness import ProblemSpec
from repro.apps.piv import PIVProblem
from repro.apps.template_matching import MatchProblem
from repro.faults import FaultPlan
from repro.gpupf import cache as cache_mod
from repro.tuning.app_sweeps import HarnessRunner, harness_sweep
from repro.tuning.sweep import (SweepRecord, Sweeper, best_record,
                                grid_configs)
from tests.helpers import call_from

# Small grids: every served test pays real subprocess overhead.
APP_GRIDS = {
    "piv": (
        PIVProblem("sp", 40, 40, mask=8, offs=3),
        {"rb": [1, 2], "threads": [32, 64]},
    ),
    "template_matching": (
        MatchProblem("sp", frame_h=60, frame_w=80, tmpl_h=16,
                     tmpl_w=12, shift_h=5, shift_w=5, n_frames=1),
        {"tile": [(8, 8), (16, 8)], "threads": [32]},
    ),
    "backprojection": (
        BPProblem("sp", nx=8, ny=8, nz=6, n_proj=4, det_u=12,
                  det_v=10),
        {"block": [(8, 4), (4, 4)], "zb": [1, 2]},
    ),
}


def _sweep(app, jobs=1, fault_plan=None):
    problem, axes = APP_GRIDS[app]
    return harness_sweep(app, problem, axes, seed=11,
                         memory_bytes=8 << 20, fault_plan=fault_plan,
                         jobs=jobs)


def _uneven_run(config):
    # Uneven per-config cost makes completion order differ from
    # submission order.
    time.sleep(0.02 * (3 - config["n"] % 4))
    return SweepRecord(config=config, seconds=float(config["n"]))


def _comparable(records):
    """The fields that must not depend on how the sweep was executed."""
    return [(r.index, r.config, r.seconds, r.reg_count, r.occupancy,
             r.valid, r.error, r.counters) for r in records]


class TestOrderingAndIdentity:
    # ``caller`` is where the served sweep is driven from: a helper
    # thread, or a forked child process that starts its own service.
    @pytest.mark.parametrize("caller", ["thread", "process"])
    @pytest.mark.parametrize("app", sorted(APP_GRIDS))
    def test_parallel_matches_sequential(self, app, caller):
        # Satellite contract: records come back in grid order with
        # identical contents regardless of jobs or of the caller.
        def served():
            par = _sweep(app, jobs=4)
            return (_comparable(par.records), par.cache_report,
                    best_record(par.records).config)

        seq = _sweep(app, jobs=1)
        records, cache_report, best = call_from(caller, served)
        assert records == _comparable(seq.records)
        assert cache_report == seq.cache_report
        assert best == best_record(seq.records).config

    def test_records_sorted_by_grid_index(self):
        # Completion order differs from submission order; the result
        # must not show it.
        configs = grid_configs(n=list(range(8)))
        records = Sweeper(_uneven_run, jobs=4).sweep(configs)
        assert [r.config["n"] for r in records] == list(range(8))
        assert [r.index for r in records] == list(range(8))


class TestCompileOncePerRun:
    def test_inline_cells_share_compiles(self, monkeypatch):
        # Backprojection's defines do not name the block shape, so two
        # block shapes x two zb values are two programs: the inline
        # cells compile each once, and still match the served sweep.
        real_nvcc = cache_mod.nvcc
        modules = []

        def counting_nvcc(*args, **kwargs):
            module = real_nvcc(*args, **kwargs)
            modules.append(weakref.ref(module))
            return module

        monkeypatch.setattr(cache_mod, "nvcc", counting_nvcc)
        inline = _sweep("backprojection", jobs=1)
        monkeypatch.undo()
        assert len(modules) == 2
        served = _sweep("backprojection", jobs=2)
        assert _comparable(inline.records) == _comparable(served.records)
        assert inline.cache_report == served.cache_report
        # The run's cache died with the run: nothing the returned
        # sweeper holds keeps a compiled module alive.
        gc.collect()
        assert all(ref() is None for ref in modules)

    def test_traced_cells_report_their_own_kernel_lookups(self):
        # The shared cache's running totals would read (0,1), (0,2),
        # (1,2), (2,2); each cell's snapshot counts its own lookup.
        problem, axes = APP_GRIDS["backprojection"]
        sweeper = harness_sweep("backprojection", problem, axes, seed=11,
                                memory_bytes=8 << 20, trace=True)
        counts = [(r.metrics["counters"]["cache.kernel_hits"],
                   r.metrics["counters"]["cache.kernel_misses"])
                  for r in sweeper.records]
        assert counts == [(0, 1), (0, 1), (1, 0), (1, 0)]


class TestProcessPoolErgonomics:
    def test_closure_gets_actionable_error(self):
        img = np.zeros((4, 4), np.float32)

        def run(config):
            return SweepRecord(config=config, seconds=float(img.sum()))

        sweeper = Sweeper(run, jobs=2)
        with pytest.raises(ValueError, match="HarnessRunner"):
            sweeper.sweep(grid_configs(n=[1, 2]))

    def test_bad_jobs_rejected(self):
        run = HarnessRunner("piv", ProblemSpec(
            "piv", APP_GRIDS["piv"][0]))
        with pytest.raises(ValueError):
            Sweeper(run, jobs=0)

    def test_spawn_start_method_supported(self):
        # Cold interpreters re-import repro from PYTHONPATH; one tiny
        # config keeps it cheap.
        problem, _ = APP_GRIDS["piv"]
        sweeper = harness_sweep("piv", problem,
                                {"rb": [2], "threads": [32, 64]},
                                seed=11, memory_bytes=8 << 20,
                                jobs=2, start_method="spawn")
        assert all(r.valid for r in sweeper.records)
        baseline = _sweep("piv", jobs=1)
        assert [r.seconds for r in sweeper.records] == \
            [r.seconds for r in baseline.records
             if r.config["rb"] == 2]


class TestChaosUnderProcessPool:
    def test_fault_plan_reinstalled_in_workers(self):
        # Satellite 6: the seeded FaultPlan ships inside each
        # RunRequest and the worker rebuilds its injector, so a chaos
        # sweep behaves identically inline and across processes.
        plan = FaultPlan(seed=4, counts={"nvcc.compile": 1})
        inline = _sweep("template_matching", jobs=1, fault_plan=plan)
        procs = _sweep("template_matching", jobs=2, fault_plan=plan)
        assert _comparable(procs.records) == _comparable(inline.records)
        # The fault actually fired (absorbed by the compile retry
        # budget) — this was not a fault-free run.
        assert all(r.valid for r in procs.records)
        assert any(r.faults.get("nvcc.compile") for r in procs.records)
        assert [r.faults for r in procs.records] == \
            [r.faults for r in inline.records]

    def test_typed_failures_survive_process_boundary(self):
        # PIV compiles outside any retry wrapper: the same plan is a
        # typed CompileFault in every worker, recorded per-record.
        plan = FaultPlan(seed=4, counts={"nvcc.compile": 1})
        inline = _sweep("piv", jobs=1, fault_plan=plan)
        procs = _sweep("piv", jobs=2, fault_plan=plan)
        assert _comparable(procs.records) == _comparable(inline.records)
        assert not any(r.valid for r in procs.records)
        assert all("CompileFault" in r.error for r in procs.records)
        assert procs.error_taxonomy() == inline.error_taxonomy()
