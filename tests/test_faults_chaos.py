"""Seeded chaos suite: fault plans swept over the GPU-PF stack.

The robustness contract (the SK→RE story under failure):

* any run that *completes* under a seeded :class:`FaultPlan` produces
  results bit-identical to the fault-free run;
* any run that *fails* raises a typed error — a :class:`FaultError`
  subclass or a :class:`PipelineError` naming the fault site — never a
  bare ``Exception``;
* compile faults below the retry budget are absorbed; a hard SK
  compile failure completes via the RE degradation ladder with the
  event recorded in ``Pipeline.health_report()``; faults above budget
  raise :class:`PipelineFaultError`.
"""

import os
import signal
import threading
from dataclasses import dataclass

import numpy as np
import pytest

from repro.apps.backprojection import Backprojector, BPConfig, BPProblem
from repro.apps.piv import PIVConfig, PIVProblem, PIVProcessor
from repro.apps.template_matching import (MatchConfig, MatchProblem,
                                          TemplateMatcher)
from repro.data.frames import template_sequence
from repro.data.piv import particle_image_pair
from repro.faults import (FAULT_SITES, CompileFault, DeviceOOM, ECCError,
                          FaultError, FaultInjector, FaultPlan,
                          LaunchFault, RetryPolicy, WatchdogTimeout,
                          injecting, retry_call)
from repro.faults import hooks as fault_hooks
from repro.gpupf import (KernelCache, Pipeline, PipelineError,
                         PipelineFaultError)
from repro.gpusim import GPU, TESLA_C2070
from repro.kernelc.compiler import CompileError, nvcc
from repro.kernelc.templates import ctrt_block
from repro.runtime import current_context

# ---------------------------------------------------------------------
# Small app workloads (chaos runs pay a fresh compile per run, so the
# problems are deliberately tiny).
# ---------------------------------------------------------------------

PIV_PROBLEM = PIVProblem("chaos", 40, 40, mask=8, offs=3)
BP_PROBLEM = BPProblem("chaos", nx=8, ny=8, nz=6, n_proj=4, det_u=12,
                       det_v=10)
TM_PROBLEM = MatchProblem("chaos", frame_h=60, frame_w=80, tmpl_h=16,
                          tmpl_w=12, shift_h=5, shift_w=5, n_frames=1)


def run_piv_app():
    img_a, img_b = particle_image_pair(PIV_PROBLEM.img_h,
                                       PIV_PROBLEM.img_w, seed=3)
    proc = PIVProcessor(PIV_PROBLEM, PIVConfig(rb=2, threads=32),
                        gpu=GPU(TESLA_C2070, memory_bytes=4 << 20),
                        cache=KernelCache())
    return proc.run(img_a, img_b).scores


def run_bp_app():
    rng = np.random.default_rng(5)
    projections = rng.random((BP_PROBLEM.n_proj, BP_PROBLEM.det_v,
                              BP_PROBLEM.det_u)).astype(np.float32)
    bp = Backprojector(BP_PROBLEM, BPConfig(block_x=8, block_y=4, zb=2),
                       gpu=GPU(TESLA_C2070, memory_bytes=4 << 20),
                       cache=KernelCache())
    return bp.run(projections).volume


def run_tm_app():
    frames, tmpl, _ = template_sequence(
        TM_PROBLEM.frame_h, TM_PROBLEM.frame_w, TM_PROBLEM.tmpl_h,
        TM_PROBLEM.tmpl_w, TM_PROBLEM.shift_h, TM_PROBLEM.shift_w,
        n_frames=1, seed=2)
    matcher = TemplateMatcher(TM_PROBLEM, tmpl,
                              MatchConfig(tile_w=8, tile_h=8,
                                          threads=32),
                              gpu=GPU(TESLA_C2070,
                                      memory_bytes=4 << 20),
                              cache=KernelCache())
    return matcher.match(frames[0]).ncc


APPS = {"piv": run_piv_app, "backprojection": run_bp_app,
        "template_matching": run_tm_app}


@pytest.fixture(scope="module")
def baselines():
    assert current_context().injector is None
    return {name: run() for name, run in APPS.items()}


# ---------------------------------------------------------------------
# The scale pipeline used by the targeted resilience tests.
# ---------------------------------------------------------------------

SCALE_SRC = ctrt_block({"FACTOR": "factor"}) + """
__global__ void scale(const float* in, float* out, int n, int factor) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) out[i] = in[i] * (float)FACTOR_VAL;
}
"""


def build_scale_pipeline(specialize=True, retry=None, engine=None,
                         cache=None):
    gpu = GPU(TESLA_C2070, memory_bytes=1 << 20)
    pipe = Pipeline(gpu, "scale", cache=cache or KernelCache(),
                    retry=retry, engine=engine)
    n = pipe.int_param("n", 256)
    factor = pipe.int_param("factor", 3)
    extent = pipe.extent_param("buf", (256,), 4)
    defines = {"CT_FACTOR": 1, "FACTOR": factor} if specialize else {}
    mod = pipe.module("mod", SCALE_SRC, defines=defines)
    k = pipe.kernel("scale", mod)
    h_in = pipe.host_memory("h_in", extent)
    h_out = pipe.host_memory("h_out", extent)
    d_in = pipe.global_memory("d_in", extent)
    d_out = pipe.global_memory("d_out", extent)
    pipe.copy("upload", h_in, d_in)
    pipe.kernel_exec("run", k, (2, 1, 1), (128, 1, 1),
                     [d_in, d_out, n, factor])
    pipe.copy("download", d_out, h_out)
    return pipe


SCALE_DATA = np.arange(256, dtype=np.float32) / 7.0


def run_scale(pipe):
    pipe.refresh()
    pipe.resources["h_in"].array[:] = SCALE_DATA
    pipe.run(1)
    return pipe.resources["h_out"].array.copy()


@pytest.fixture(scope="module")
def scale_baseline():
    assert current_context().injector is None
    return run_scale(build_scale_pipeline())


# ---------------------------------------------------------------------
# Chaos sweep: seeded plans over all three applications.
# ---------------------------------------------------------------------

CHAOS_RATES = {"nvcc.compile": 0.25, "nvcc.timeout": 0.1,
               "launch.fail": 0.15, "launch.watchdog": 0.15,
               "memory.bitflip": 0.1}


class TestChaosSweep:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("app", sorted(APPS))
    def test_complete_runs_are_bit_identical(self, app, seed,
                                             baselines):
        plan = FaultPlan(seed=seed, rates=CHAOS_RATES)
        with injecting(plan) as injector:
            try:
                result = APPS[app]()
            except (FaultError, PipelineError) as exc:
                # Typed failure: a named fault site must be attached.
                site = getattr(exc, "site", None)
                assert site in FAULT_SITES
                return
        np.testing.assert_array_equal(result, baselines[app])
        # Whatever fired was absorbed (or nothing fired): both are
        # legitimate completions; the injector kept the evidence.
        assert all(e.site in FAULT_SITES for e in injector.events)

    def test_same_plan_same_outcome(self):
        def once():
            plan = FaultPlan(seed=11, rates=CHAOS_RATES)
            with injecting(plan) as injector:
                try:
                    out = run_piv_app()
                    failure = None
                except (FaultError, PipelineError) as exc:
                    out, failure = None, type(exc).__name__
                events = [(e.site, e.action, e.visit)
                          for e in injector.events]
            return out, failure, events

        out1, fail1, events1 = once()
        out2, fail2, events2 = once()
        assert fail1 == fail2
        assert events1 == events2
        if out1 is not None:
            np.testing.assert_array_equal(out1, out2)

    def test_injection_disabled_by_default(self):
        assert current_context().injector is None

    def test_nested_install_rejected(self):
        with injecting(FaultPlan(seed=0)):
            with pytest.raises(RuntimeError):
                fault_hooks.install(FaultPlan(seed=1))
        assert current_context().injector is None


# ---------------------------------------------------------------------
# Chaos under the profile-guided tuner: the same contract, one level
# up — a tuner that completes under a seeded plan must match the
# fault-free tuner bit-for-bit; one that cannot raises typed.
# ---------------------------------------------------------------------

class TestAutotuneChaos:
    TM_AXES = {"tile": [(8, 8), (16, 8)], "threads": [32, 64]}

    @staticmethod
    def _tune(app, problem, axes, fault_plan=None, jobs=1):
        from repro.tuning import harness_autotune
        return harness_autotune(app, problem, axes, seed=11,
                                memory_bytes=8 << 20,
                                fault_plan=fault_plan, jobs=jobs)

    def test_absorbed_faults_leave_tuner_bit_identical(self):
        # One compile fault per evaluation, absorbed by the TM compile
        # retry budget: every record still carries identical modeled
        # results, so the tuner takes the identical search path.
        plan = FaultPlan(seed=4, counts={"nvcc.compile": 1})
        clean = self._tune("template_matching", TM_PROBLEM,
                           self.TM_AXES)
        chaotic = self._tune("template_matching", TM_PROBLEM,
                             self.TM_AXES, fault_plan=plan)
        assert [(r.index, r.config, r.seconds, r.valid, r.error)
                for r in chaotic.records] == \
            [(r.index, r.config, r.seconds, r.valid, r.error)
             for r in clean.records]
        assert chaotic.decisions == clean.decisions
        assert chaotic.result.sequence == clean.result.sequence
        assert chaotic.result.best.key() == clean.result.best.key()
        # This was not a fault-free run: the injector fired per cell.
        assert all(r.faults.get("nvcc.compile")
                   for r in chaotic.records)

    def test_chaos_tuning_identical_inline_and_served(self):
        # A chaos run compiles every cell itself, inline as on worker
        # processes, so each cell's nvcc.* fault sites fire alike.  The
        # plan fires on a cell's second compile: a cell that reused an
        # earlier cell's modules would not reach it.
        plan = FaultPlan(seed=4, skips={"nvcc.compile": 1},
                         counts={"nvcc.compile": 1})
        inline = self._tune("template_matching", TM_PROBLEM,
                            self.TM_AXES, fault_plan=plan)
        served = self._tune("template_matching", TM_PROBLEM,
                            self.TM_AXES, fault_plan=plan, jobs=2)

        def rows(tuner):
            return [(r.index, r.config, r.seconds, r.reg_count,
                     r.occupancy, r.valid, r.error, r.counters, r.faults)
                    for r in tuner.records]

        assert rows(inline) == rows(served)
        assert all(r.faults.get("nvcc.compile") for r in inline.records)

    def test_hard_faults_raise_typed_from_tuner(self):
        # PIV compiles outside any retry wrapper: every evaluation
        # fails the same way, and the tuner re-raises it typed rather
        # than returning a best_record of nothing.
        plan = FaultPlan(seed=4, counts={"nvcc.compile": 1})
        with pytest.raises(CompileFault):
            self._tune("piv", PIV_PROBLEM,
                       {"rb": [1, 2], "threads": [32, 64]},
                       fault_plan=plan)


# ---------------------------------------------------------------------
# The degradation ladder, site by site.
# ---------------------------------------------------------------------

class TestDegradationLadder:
    def test_compile_faults_below_budget_bit_identical(
            self, scale_baseline):
        plan = FaultPlan(seed=1, counts={"nvcc.compile": 2})
        with injecting(plan):
            pipe = build_scale_pipeline(
                retry=RetryPolicy(max_attempts=3))
            out = run_scale(pipe)
        np.testing.assert_array_equal(out, scale_baseline)
        report = pipe.health_report()
        assert report["retries"]["nvcc.compile"] == 2
        assert report["degraded"] == {}

    def test_sk_hard_failure_degrades_to_re(self, scale_baseline):
        # Only specialized (CT_*) compiles fail; the RE fallback
        # compiles cleanly and produces the same results.
        plan = FaultPlan(seed=1, counts={"nvcc.compile": 99},
                         match={"nvcc.compile": "CT_"})
        with injecting(plan):
            pipe = build_scale_pipeline()
            out = run_scale(pipe)
        np.testing.assert_array_equal(out, scale_baseline)
        report = pipe.health_report()
        assert "mod" in report["degraded"]
        assert report["fallbacks"] == 1
        assert pipe.resources["mod"].degraded
        assert any("DEGRADED to RE" in line for line in pipe.log)

    def test_faults_above_budget_raise_typed_error(self):
        plan = FaultPlan(seed=1, counts={"nvcc.compile": 99})
        with injecting(plan):
            pipe = build_scale_pipeline()
            with pytest.raises(PipelineFaultError) as err:
                pipe.refresh()
        assert err.value.site == "nvcc.compile"
        assert "nvcc.compile" in str(err.value)
        assert isinstance(err.value, PipelineError)

    def test_unspecialized_module_has_no_ladder_step(self):
        plan = FaultPlan(seed=1, counts={"nvcc.compile": 99})
        with injecting(plan):
            pipe = build_scale_pipeline(specialize=False)
            with pytest.raises(PipelineFaultError) as err:
                pipe.refresh()
        assert err.value.site == "nvcc.compile"

    def test_genuine_compile_error_still_degrades(self, scale_baseline):
        # No injector at all: a bad specialization value breaks the SK
        # compile, and the ladder still lands on the RE variant.
        pipe = build_scale_pipeline()
        pipe.resources["mod"].defines["FACTOR"] = "][junk"
        out = run_scale(pipe)
        np.testing.assert_array_equal(out, scale_baseline)
        assert "mod" in pipe.health_report()["degraded"]


class TestLaunchResilience:
    @pytest.mark.parametrize("site,engine", [
        ("launch.fail", None),
        ("launch.watchdog", "batched"),
        ("launch.watchdog", "serial"),
        ("memory.bitflip", None),
    ])
    def test_transient_launch_faults_retried(self, site, engine,
                                             scale_baseline):
        plan = FaultPlan(seed=2, counts={site: 1})
        with injecting(plan) as injector:
            pipe = build_scale_pipeline(engine=engine)
            out = run_scale(pipe)
        np.testing.assert_array_equal(out, scale_baseline)
        report = pipe.health_report()
        assert report["retries"][site] == 1
        assert report["faults"][site] == 1
        assert [e.site for e in injector.events] == [site]

    def test_partial_execution_rolled_back(self, scale_baseline,
                                           monkeypatch):
        # Force 1-block batches, then kill the watchdog on the *second*
        # batch: batch one has already written device memory, so a
        # completed retry proves the snapshot/restore path works.
        monkeypatch.setenv("REPRO_SIM_BATCH", "1")
        plan = FaultPlan(seed=2, counts={"launch.watchdog": 1},
                         skips={"launch.watchdog": 1})
        with injecting(plan) as injector:
            pipe = build_scale_pipeline(engine="batched")
            out = run_scale(pipe)
        np.testing.assert_array_equal(out, scale_baseline)
        assert [e.site for e in injector.events] == ["launch.watchdog"]
        assert injector.events[0].visit == 2

    def test_faults_above_budget_raise_typed_error(self):
        plan = FaultPlan(seed=2, counts={"launch.fail": 99})
        with injecting(plan):
            pipe = build_scale_pipeline(
                retry=RetryPolicy(max_attempts=2))
            with pytest.raises(PipelineFaultError) as err:
                run_scale(pipe)
        assert err.value.site == "launch.fail"
        assert "launch.fail" in str(err.value)

    def test_oom_is_typed_and_named(self):
        plan = FaultPlan(seed=3, counts={"memory.oom": 1})
        with injecting(plan):
            pipe = build_scale_pipeline()
            with pytest.raises(PipelineFaultError) as err:
                pipe.refresh()
        assert err.value.site == "memory.oom"
        # Not transient: no retries were burned on it.
        assert pipe.health_report()["retries"] == {}


# ---------------------------------------------------------------------
# Disk-cache corruption and quarantine.
# ---------------------------------------------------------------------

class TestCacheCorruptionChaos:
    def test_injected_corruption_quarantined_then_rebuilt(
            self, tmp_path, scale_baseline):
        disk = str(tmp_path / "kcache")
        warm = KernelCache(disk_dir=disk)
        pipe = build_scale_pipeline(cache=warm)
        out = run_scale(pipe)
        np.testing.assert_array_equal(out, scale_baseline)
        mods = list(tmp_path.glob("kcache/*.mod"))
        assert mods, "warmup should have persisted a module"

        plan = FaultPlan(seed=4, counts={"cache.corrupt": 1})
        with injecting(plan):
            cold = KernelCache(disk_dir=disk)
            out = run_scale(build_scale_pipeline(cache=cold))
        np.testing.assert_array_equal(out, scale_baseline)
        stats = cold.stats()
        assert stats["corrupt"] == 1
        assert stats["misses"] == 1  # recompiled after quarantine
        quarantined = list(tmp_path.glob("kcache/*.mod.corrupt"))
        assert len(quarantined) == 1

        # The rebuilt entry is clean: a third process-start reads it
        # without recompiling and without touching the quarantine.
        fresh = KernelCache(disk_dir=disk)
        out = run_scale(build_scale_pipeline(cache=fresh))
        np.testing.assert_array_equal(out, scale_baseline)
        stats = fresh.stats()
        assert stats["corrupt"] == 0 and stats["misses"] == 0
        assert stats["hits"] >= 1


# ---------------------------------------------------------------------
# Injector and retry primitives.
# ---------------------------------------------------------------------

class TestFaultPrimitives:
    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(rates={"nvcc.compiel": 0.5})
        with pytest.raises(ValueError):
            FaultPlan(counts={"bogus": 1})

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(rates={"nvcc.compile": 1.5})

    def test_counts_then_rates_deterministic(self):
        plan = FaultPlan(seed=9, counts={"launch.fail": 1},
                         rates={"launch.fail": 0.5})
        a = FaultInjector(plan)
        b = FaultInjector(plan)
        seq_a = [self._fires(a, "launch.fail") for _ in range(30)]
        seq_b = [self._fires(b, "launch.fail") for _ in range(30)]
        assert seq_a == seq_b
        assert seq_a[0] is True  # the deterministic burst
        assert any(seq_a[1:]) and not all(seq_a[1:])  # the rate tail

    @staticmethod
    def _fires(injector, site):
        try:
            injector.check(site)
            return False
        except FaultError:
            return True

    def test_max_total_budget(self):
        plan = FaultPlan(seed=0, counts={"launch.fail": 99},
                         max_total=2)
        injector = FaultInjector(plan)
        fired = sum(self._fires(injector, "launch.fail")
                    for _ in range(10))
        assert fired == 2
        assert injector.total_fired == 2

    def test_match_filters_visits(self):
        plan = FaultPlan(seed=0, counts={"nvcc.compile": 99},
                         match={"nvcc.compile": "CT_"})
        injector = FaultInjector(plan)
        injector.check("nvcc.compile", detail="FOO,BAR")  # no CT_
        with pytest.raises(CompileFault):
            injector.check("nvcc.compile", detail="CT_FOO,FOO")

    def test_corrupt_bytes_breaks_pickle(self):
        import pickle
        plan = FaultPlan(seed=0, counts={"cache.corrupt": 1})
        injector = FaultInjector(plan)
        payload = pickle.dumps((2, {"some": "module"}))
        mangled = injector.corrupt_bytes("cache.corrupt", payload)
        assert mangled != payload
        with pytest.raises(Exception):
            pickle.loads(mangled)

    def test_retry_call_backoff_is_deterministic(self):
        sleeps_a, sleeps_b = [], []
        for sleeps in (sleeps_a, sleeps_b):
            calls = {"n": 0}

            def flaky():
                calls["n"] += 1
                if calls["n"] < 3:
                    raise LaunchFault("injected")
                return "ok"

            result, attempts = retry_call(
                flaky, policy=RetryPolicy(max_attempts=3, seed=5),
                sleep=sleeps.append)
            assert result == "ok" and attempts == 3
        assert sleeps_a == sleeps_b
        assert len(sleeps_a) == 2
        assert sleeps_a[1] > sleeps_a[0]  # exponential backoff

    def test_retry_call_does_not_retry_permanent_errors(self):
        calls = {"n": 0}

        def broken():
            calls["n"] += 1
            raise DeviceOOM("injected")

        with pytest.raises(DeviceOOM):
            retry_call(broken, policy=RetryPolicy(max_attempts=5),
                       sleep=lambda s: None)
        assert calls["n"] == 1

        def miscompiled():
            calls["n"] += 1
            raise CompileError("parse error")

        with pytest.raises(CompileError):
            retry_call(miscompiled,
                       policy=RetryPolicy(max_attempts=5),
                       sleep=lambda s: None)
        assert calls["n"] == 2

    def test_injector_thread_safety(self):
        plan = FaultPlan(seed=0, rates={"launch.fail": 0.5})
        injector = FaultInjector(plan)
        fired = []

        def worker():
            hits = 0
            for _ in range(200):
                try:
                    injector.check("launch.fail")
                except FaultError:
                    hits += 1
            fired.append(hits)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert injector.visits["launch.fail"] == 800
        assert sum(fired) == injector.total_fired
        assert len(injector.events) == injector.total_fired

    def test_nvcc_detail_targets_specialized_compiles(self):
        src = "__global__ void k(int* p) { p[0] = 1; }"
        plan = FaultPlan(seed=0, counts={"nvcc.compile": 99},
                         match={"nvcc.compile": "CT_"})
        with injecting(plan):
            nvcc(src)  # RE compile: no CT_ define, passes
            with pytest.raises(CompileFault):
                nvcc(src, defines={"CT_N": 1, "N": 4})


class TestHealthReport:
    def test_report_shape_and_cache_stats(self, scale_baseline):
        pipe = build_scale_pipeline()
        run_scale(pipe)
        report = pipe.health_report()
        assert report["pipeline"] == "scale"
        assert report["faults"] == {} and report["retries"] == {}
        assert report["degraded"] == {} and report["fallbacks"] == 0
        assert set(report["cache"]) == {"hits", "misses", "corrupt",
                                        "latch_timeouts"}
        assert report["cache"]["misses"] >= 1
        assert report["iterations"] == 1


# ---------------------------------------------------------------------
# Fleet chaos: a member's worker dies mid-shard.
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class CrashOnceRunner:
    """Picklable grid evaluator whose chosen cell SIGKILLs its worker
    exactly once: the sentinel file is created *before* the kill, so
    the redispatched attempt sees it and completes normally."""

    sentinel: str
    crash_cell: int
    axis: str = "cell"

    def __call__(self, config):
        from repro.tuning.sweep import SweepRecord
        cell = config[self.axis]
        if cell == self.crash_cell and not os.path.exists(self.sentinel):
            open(self.sentinel, "w").close()
            os.kill(os.getpid(), signal.SIGKILL)
        return SweepRecord(config=dict(config),
                           seconds=0.001 * (cell + 1))


class TestFleetChaos:
    """Kill one fleet worker mid-shard: the merged result is still
    bit-identical (redispatch absorbed the death) or a typed
    ``ServiceWorkerError`` (budget exhausted) — never a hang or a bare
    exception."""

    CONFIGS = [{"cell": i} for i in range(4)]

    def baseline(self, run):
        from repro.tuning.sweep import Sweeper
        sweeper = Sweeper(run)
        return [(r.index, r.key(), r.seconds, r.valid)
                for r in sweeper.sweep(list(self.CONFIGS))]

    def test_transient_death_merges_bit_identical(self, tmp_path):
        from repro.runtime import DeviceFleet
        sentinel = str(tmp_path / "crashed-once")
        run = CrashOnceRunner(sentinel=sentinel, crash_cell=2)
        expected = self.baseline(
            CrashOnceRunner(sentinel=sentinel, crash_cell=-1))
        with DeviceFleet(["c2070"] * 2, max_redispatch=1) as fleet:
            records = fleet.map_grid(run, list(self.CONFIGS))
            got = [(r.index, r.key(), r.seconds, r.valid)
                   for r in records]
            assert got == expected
            counters = fleet.metrics.snapshot()["counters"]
            assert counters["serve.worker.crash"] >= 1
            assert counters["serve.redispatch"] >= 1
        assert os.path.exists(sentinel)  # the crash really happened

    def test_persistent_death_is_a_typed_record(self):
        from repro.serve import KamikazeRunner
        from repro.runtime import DeviceFleet
        run = KamikazeRunner(crash_cells=(1,))
        with DeviceFleet(["c2070"] * 2, max_redispatch=1) as fleet:
            records = fleet.map_grid(run, list(self.CONFIGS))
            by_cell = {r.config["cell"]: r for r in records}
            assert not by_cell[1].valid
            assert by_cell[1].error.startswith("ServiceWorkerError")
            # survivors keep their results, in grid order
            for cell in (0, 2, 3):
                assert by_cell[cell].valid
                assert by_cell[cell].seconds == 0.001 * (cell + 1)
            assert [r.index for r in records] == [0, 1, 2, 3]
            assert fleet.metrics.snapshot()["counters"][
                "fleet.errors"] == 1

    def test_fleet_survives_for_further_work(self):
        """A revived member keeps serving after its worker died."""
        from repro.runtime import DeviceFleet
        from repro.serve import KamikazeRunner
        with DeviceFleet(["c2070"], max_redispatch=0) as fleet:
            first = fleet.map_grid(KamikazeRunner(crash_cells=(0,)),
                                   [{"cell": 0}])
            assert not first[0].valid
            second = fleet.map_grid(KamikazeRunner(crash_cells=()),
                                    [{"cell": 5}])
            assert second[0].valid
            assert second[0].seconds == 0.001 * 6
            assert fleet.members[0].generation >= 2
