"""Pickle round-trips for the harness run protocol (process contract).

Everything a process worker receives — :class:`ProblemSpec`,
:class:`RunRequest`, sweep-grid config dicts — must survive
``pickle.dumps``/``loads`` unchanged, and an unpickled request must
produce a bit-identical :class:`RunResult` even in a cold spawned
interpreter.
"""

import gc
import pickle
from concurrent.futures import ProcessPoolExecutor

import multiprocessing as mp
import pytest

from repro.apps.backprojection import BPProblem
from repro.apps.harness import (APP_IDS, ProblemSpec, RunRequest,
                                get_harness, run_request)
from repro.apps.piv import PIVProblem
from repro.apps.template_matching import MatchProblem
from repro.faults import FaultPlan
from repro.gpusim import GPU
from repro.tuning.sweep import grid_configs

# (problem, one grid point, sweep axes) per app — tiny shapes, since
# the spawn tests pay a cold interpreter import per run.
APP_CASES = {
    "piv": (
        PIVProblem("pk", 40, 40, mask=8, offs=3),
        {"rb": 2, "threads": 32},
        {"rb": [1, 2], "threads": [32, 64]},
    ),
    "template_matching": (
        MatchProblem("pk", frame_h=60, frame_w=80, tmpl_h=16,
                     tmpl_w=12, shift_h=5, shift_w=5, n_frames=1),
        {"tile": (8, 8), "threads": 32},
        {"tile": [(8, 8), (16, 8)], "threads": [32]},
    ),
    "backprojection": (
        BPProblem("pk", nx=8, ny=8, nz=6, n_proj=4, det_u=12,
                  det_v=10),
        {"block": (8, 4), "zb": 2},
        {"block": [(8, 4), (4, 4)], "zb": [1, 2]},
    ),
}

assert sorted(APP_CASES) == sorted(APP_IDS)


def _request(app: str, functional: bool = True,
             fault_plan=None) -> RunRequest:
    problem, point, _ = APP_CASES[app]
    spec = ProblemSpec(app, problem, seed=7, device="c2070",
                       memory_bytes=8 << 20)
    config = get_harness(app).sweep_config(point,
                                           functional=functional)
    return RunRequest(spec, config, fault_plan=fault_plan)


class TestRoundTrips:
    @pytest.mark.parametrize("app", sorted(APP_IDS))
    def test_problem_spec_roundtrip(self, app):
        problem, _, _ = APP_CASES[app]
        spec = ProblemSpec(app, problem, seed=3)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.device_spec() is spec.device_spec()

    @pytest.mark.parametrize("app", sorted(APP_IDS))
    def test_run_request_roundtrip(self, app):
        request = _request(app, fault_plan=FaultPlan(
            seed=2, rates={"memory.bitflip": 0.05}))
        clone = pickle.loads(pickle.dumps(request))
        assert clone.spec == request.spec
        assert clone.config == request.config
        assert clone.fault_plan == request.fault_plan

    @pytest.mark.parametrize("app", sorted(APP_IDS))
    def test_grid_configs_roundtrip(self, app):
        _, _, axes = APP_CASES[app]
        configs = grid_configs(**axes)
        assert pickle.loads(pickle.dumps(configs)) == configs

    @pytest.mark.parametrize("app", sorted(APP_IDS))
    def test_sweep_configs_roundtrip(self, app):
        _, _, axes = APP_CASES[app]
        harness = get_harness(app)
        for point in grid_configs(**axes):
            config = harness.sweep_config(point)
            assert pickle.loads(pickle.dumps(config)) == config

    def test_spec_validates_app_and_device(self):
        problem, _, _ = APP_CASES["piv"]
        with pytest.raises(ValueError):
            ProblemSpec("warp-drive", problem)
        with pytest.raises(ValueError):
            ProblemSpec("piv", problem, device="k80")


class TestSpawnedBitIdentical:
    """An unpickled request run in a cold interpreter matches inline."""

    @pytest.mark.parametrize("app", sorted(APP_IDS))
    def test_spawned_result_matches_inline(self, app):
        request = _request(app, functional=True)
        inline = run_request(request)
        with ProcessPoolExecutor(
                max_workers=1,
                mp_context=mp.get_context("spawn")) as pool:
            remote = pool.submit(run_request, request).result()
        assert remote.same_output(inline)
        assert remote.seconds == inline.seconds
        assert remote.transfer_seconds == inline.transfer_seconds
        assert remote.reg_count == inline.reg_count
        assert remote.occupancy == inline.occupancy
        assert remote.counters == inline.counters

    def test_spawned_fault_summary_matches_inline(self):
        # The plan ships; the worker rebuilds its injector and fires
        # the same seeded faults the inline run fires.  Template
        # matching compiles through the pipeline's retry budget, so
        # one compile fault is absorbed and shows up in the summary.
        plan = FaultPlan(seed=4, counts={"nvcc.compile": 1})
        request = _request("template_matching", functional=True,
                           fault_plan=plan)
        inline = run_request(request)
        with ProcessPoolExecutor(
                max_workers=1,
                mp_context=mp.get_context("spawn")) as pool:
            remote = pool.submit(run_request, request).result()
        assert inline.faults and remote.faults == inline.faults
        assert remote.same_output(inline)

    def test_spawned_fault_failure_matches_inline(self):
        # PIV compiles its kernel outside any retry wrapper, so the
        # same plan is a typed failure — identically, in both places.
        from repro.faults import FaultError

        plan = FaultPlan(seed=4, counts={"nvcc.compile": 1})
        request = _request("piv", functional=True, fault_plan=plan)
        with pytest.raises(FaultError) as inline_err:
            run_request(request)
        with ProcessPoolExecutor(
                max_workers=1,
                mp_context=mp.get_context("spawn")) as pool:
            with pytest.raises(FaultError) as remote_err:
                pool.submit(run_request, request).result()
        assert type(remote_err.value) is type(inline_err.value)
        assert str(remote_err.value) == str(inline_err.value)
        assert remote_err.value.site == inline_err.value.site


class TestRequestLifetime:
    @staticmethod
    def _live_gpus() -> int:
        return sum(isinstance(o, GPU) for o in gc.get_objects())

    @pytest.mark.parametrize("app", sorted(APP_IDS))
    def test_finished_request_frees_its_gpu(self, app):
        # Reference counting alone must free a finished request's
        # simulated device and memory; nothing may wait for the
        # cyclic GC.
        request = _request(app)
        run_request(request)  # warm imports and module-level caches
        gc.collect()
        gc.disable()
        try:
            before = self._live_gpus()
            run_request(request)
            assert self._live_gpus() == before
        finally:
            gc.enable()
