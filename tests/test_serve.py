"""The serve daemon's chaos contract, end to end.

Every client request resolves to a bit-identical
:class:`RunResult` (vs the same request run fault-free inline) or a
typed :class:`ServiceError` — never a hang, a wrong answer, or an
unhandled exception — under worker crashes, wedged workers, poisoned
SK compiles, deadline pressure, and overload.

The suites build up to that: seeded retry schedules, breaker
transitions (fake clock), admission control, wire framing, harness
deadline propagation, and warm-context reuse are verified in
isolation first, then composed in the in-process service tests, the
chaos sweep, and the TCP end-to-end tests.
"""

import os
import signal
import socket
import threading
import time

import numpy as np
import pytest

from repro.apps.harness import (ProblemSpec, RunRequest, degrade_config,
                                run_request)
from repro.apps.piv import PIVConfig, PIVProblem
from repro.apps.template_matching import MatchConfig, MatchProblem
from repro.faults import (DeadlineExceeded, FaultPlan, RetryPolicy,
                          injecting, retry_call)
from repro.faults.errors import LaunchFault
from repro.gpupf import KernelCache, Pipeline
from repro.gpupf.cache import cache_key
from repro.gpusim import DEVICES, GPU, TESLA_C2070
from repro.kernelc.templates import ctrt_block
from repro.runtime.context import ExecutionContext, using_context
from repro.serve import (AdmissionController, CircuitBreaker,
                         CrashRequest, Entry, InProcClient,
                         KamikazeRunner, ServiceClient, ServiceConfig,
                         ServiceDeadlineError, ServiceError,
                         ServiceOverloadError, ServiceProtocolError,
                         ServiceRequestError, ServiceServer,
                         ServiceShutdownError, ServiceWorkerError,
                         SleepRequest, SpecializationService, recv_frame,
                         send_frame)
from repro.tuning.sweep import Sweeper, grid_configs

# ---------------------------------------------------------------------
# Workloads: tiny problems, because every service test pays process
# startup and at least one real (simulated) compile.
# ---------------------------------------------------------------------

PIV_SPEC = ProblemSpec(
    app="piv", problem=PIVProblem("serve", 40, 40, mask=8, offs=3),
    seed=3, device="c2070", memory_bytes=8 << 20)
TM_SPEC = ProblemSpec(
    app="template_matching",
    problem=MatchProblem("serve", frame_h=60, frame_w=80, tmpl_h=16,
                         tmpl_w=12, shift_h=5, shift_w=5, n_frames=1),
    seed=7, device="c2070", memory_bytes=8 << 20)


def piv_request(threads=32, **kw):
    return RunRequest(spec=PIV_SPEC,
                      config=PIVConfig(rb=2, threads=threads,
                                       functional=True), **kw)


def tm_request(threads=32, tile=(8, 8), **kw):
    return RunRequest(spec=TM_SPEC,
                      config=MatchConfig(tile_w=tile[0], tile_h=tile[1],
                                         threads=threads,
                                         functional=True), **kw)


def fast_config(workers=2, **kw):
    kw.setdefault("queue_capacity", 8)
    kw.setdefault("tick", 0.02)
    kw.setdefault("heartbeat_interval", 0.05)
    kw.setdefault("hang_timeout", 2.0)
    kw.setdefault("kill_grace", 0.2)
    return ServiceConfig(workers=workers, **kw)


@pytest.fixture(scope="module")
def baselines():
    return {"piv": run_request(piv_request()),
            "tm": run_request(tm_request())}


# ---------------------------------------------------------------------
# Satellite 1: seeded, jittered exponential backoff.
# ---------------------------------------------------------------------

class TestRetryPolicy:
    def test_identical_seeds_identical_schedules(self):
        a = RetryPolicy(max_attempts=6, base_delay=0.01, seed=42)
        b = RetryPolicy(max_attempts=6, base_delay=0.01, seed=42)
        assert a.schedule() == b.schedule()
        assert len(a.schedule()) == 5

    def test_different_seeds_differ(self):
        a = RetryPolicy(max_attempts=6, base_delay=0.01, seed=1)
        b = RetryPolicy(max_attempts=6, base_delay=0.01, seed=2)
        assert a.schedule() != b.schedule()

    def test_schedule_is_exponential_with_cap(self):
        p = RetryPolicy(max_attempts=10, base_delay=0.01, backoff=2.0,
                        jitter=0.0, max_delay=0.05, seed=0)
        sched = p.schedule()
        assert sched[0] == pytest.approx(0.01)
        assert sched[1] == pytest.approx(0.02)
        assert max(sched) == pytest.approx(0.05)  # capped

    def test_retry_call_uses_the_published_schedule(self):
        p = RetryPolicy(max_attempts=4, base_delay=0.01, seed=9)
        slept, calls = [], []

        def fn():
            calls.append(1)
            raise LaunchFault("boom", site="launch.fail")

        with pytest.raises(LaunchFault):
            retry_call(fn, policy=p, sleep=slept.append)
        assert len(calls) == 4
        assert slept == p.schedule()

    def test_deadline_aborts_backoff_after_on_retry(self):
        p = RetryPolicy(max_attempts=5, base_delay=10.0, jitter=0.0,
                        max_delay=10.0, seed=0)
        hooks = []

        def fn():
            raise LaunchFault("boom", site="launch.fail")

        started = time.monotonic()
        with pytest.raises(DeadlineExceeded) as excinfo:
            retry_call(fn, policy=p, deadline=started + 0.05,
                       on_retry=lambda e, a, d: hooks.append(a))
        assert excinfo.value.site == "retry-backoff"
        # The rollback hook observed the abandoned attempt, and the
        # 10 s backoff was refused, not slept through.
        assert hooks == [1]
        assert time.monotonic() - started < 2.0


# ---------------------------------------------------------------------
# Circuit breaker state machine (fake clock: fully deterministic).
# ---------------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class TestCircuitBreaker:
    def make(self, threshold=3, reset=1.0):
        clock = FakeClock()
        return CircuitBreaker(failure_threshold=threshold,
                              reset_timeout=reset, clock=clock), clock

    def test_trips_after_consecutive_failures(self):
        br, _ = self.make(threshold=3)
        for _ in range(2):
            assert br.acquire() == "sk"
            br.record(1, "sk")
        assert br.state == "closed"
        br.record(1, "sk")
        assert br.state == "open"
        assert br.trips == 1

    def test_success_resets_the_streak(self):
        br, _ = self.make(threshold=2)
        br.record(1, "sk")
        br.record(0, "sk")
        br.record(1, "sk")
        assert br.state == "closed"

    def test_open_degrades_dispatches(self):
        br, _ = self.make(threshold=1)
        br.record(1, "sk")
        assert br.state == "open"
        assert br.acquire() == "degrade"

    def test_half_open_probe_after_reset_timeout(self):
        br, clock = self.make(threshold=1, reset=5.0)
        br.record(1, "sk")
        assert br.acquire() == "degrade"
        clock.now += 5.0
        assert br.acquire() == "probe"
        # Only one probe at a time; everyone else keeps degrading.
        assert br.acquire() == "degrade"

    def test_probe_success_closes(self):
        br, clock = self.make(threshold=1, reset=1.0)
        br.record(1, "sk")
        clock.now += 1.0
        assert br.acquire() == "probe"
        br.record(0, "probe")
        assert br.state == "closed"
        assert br.acquire() == "sk"

    def test_probe_failure_reopens(self):
        br, clock = self.make(threshold=1, reset=1.0)
        br.record(1, "sk")
        clock.now += 1.0
        assert br.acquire() == "probe"
        br.record(1, "probe")
        assert br.state == "open"
        assert br.acquire() == "degrade"

    def test_aborted_probe_allows_another(self):
        br, clock = self.make(threshold=1, reset=1.0)
        br.record(1, "sk")
        clock.now += 1.0
        assert br.acquire() == "probe"
        br.abort_probe()  # probe's worker died unresolved
        assert br.acquire() == "probe"

    def test_degraded_results_are_neutral(self):
        br, _ = self.make(threshold=1)
        br.record(1, "sk")
        # Degraded traffic neither closes nor re-trips the breaker.
        for _ in range(5):
            br.record(0, "degrade")
        assert br.state == "open"
        assert br.stats()["state"] == "open"


# ---------------------------------------------------------------------
# Admission control.
# ---------------------------------------------------------------------

def make_entry(eid, deadline=None):
    from concurrent.futures import Future
    return Entry(id=eid, request=None, future=Future(),
                 deadline=deadline)


class TestAdmission:
    def test_fifo_order(self):
        adm = AdmissionController(capacity=4)
        for i in range(3):
            adm.admit(make_entry(i))
        assert [adm.next_ready().id for _ in range(3)] == [0, 1, 2]
        assert adm.next_ready() is None

    def test_overload_is_shed_typed(self):
        shed = []
        adm = AdmissionController(capacity=2, on_shed=shed.append)
        adm.admit(make_entry(1))
        adm.admit(make_entry(2))
        with pytest.raises(ServiceOverloadError) as excinfo:
            adm.admit(make_entry(3))
        assert excinfo.value.depth == 2
        assert excinfo.value.capacity == 2
        assert excinfo.value.code == "overload"
        assert len(shed) == 1
        assert adm.stats()["shed"] == 1

    def test_expired_deadline_rejected_at_the_door(self):
        adm = AdmissionController(capacity=2)
        with pytest.raises(ServiceDeadlineError) as excinfo:
            adm.admit(make_entry(1, deadline=time.monotonic() - 1.0))
        assert excinfo.value.phase == "queued"
        assert adm.depth == 0

    def test_expired_in_queue_resolved_on_pop(self):
        adm = AdmissionController(capacity=4)
        dead = make_entry(1, deadline=time.monotonic() + 0.01)
        live = make_entry(2)
        adm.admit(dead)
        adm.admit(live)
        time.sleep(0.03)
        assert adm.next_ready() is live
        with pytest.raises(ServiceDeadlineError):
            dead.future.result(timeout=0)

    def test_sweep_expired_resolves_without_a_pop(self):
        adm = AdmissionController(capacity=4)
        dead = make_entry(1, deadline=time.monotonic() + 0.01)
        adm.admit(dead)
        adm.admit(make_entry(2))
        time.sleep(0.03)
        assert adm.sweep_expired() == 1
        assert adm.depth == 1
        with pytest.raises(ServiceDeadlineError):
            dead.future.result(timeout=0)

    def test_requeue_front_preserves_priority(self):
        adm = AdmissionController(capacity=4)
        adm.admit(make_entry(1))
        adm.admit(make_entry(2))
        first = adm.next_ready()
        adm.requeue_front(first)  # crashed dispatch goes back first
        assert adm.next_ready() is first

    def test_closed_queue_rejects_typed(self):
        adm = AdmissionController(capacity=4)
        adm.close()
        with pytest.raises(ServiceShutdownError):
            adm.admit(make_entry(1))

    def test_entry_completes_exactly_once(self):
        entry = make_entry(1)
        assert entry.complete(result="first")
        assert not entry.complete(error=RuntimeError("late"))
        assert entry.future.result(timeout=0) == "first"
        assert entry.done


# ---------------------------------------------------------------------
# Wire framing.
# ---------------------------------------------------------------------

def sock_pair():
    a, b = socket.socketpair()
    return a, b


class TestWire:
    def test_roundtrip(self):
        a, b = sock_pair()
        try:
            payload = {"x": np.arange(4), "req": piv_request()}
            send_frame(a, payload)
            got = recv_frame(b)
            np.testing.assert_array_equal(got["x"], payload["x"])
            assert got["req"].spec.app == "piv"
        finally:
            a.close(), b.close()

    def test_clean_close_is_eof(self):
        a, b = sock_pair()
        a.close()
        try:
            with pytest.raises(EOFError):
                recv_frame(b)
        finally:
            b.close()

    def test_torn_frame_is_protocol_error(self):
        a, b = sock_pair()
        try:
            a.sendall(b"\x00\x00\x00\x00\x00\x00\x00\x10half")
            a.close()
            with pytest.raises(ServiceProtocolError):
                recv_frame(b)
        finally:
            b.close()

    def test_oversized_frame_rejected_before_read(self):
        a, b = sock_pair()
        try:
            send_frame(a, "ok")
            a.sendall(b"\xff" * 8)  # ludicrous length prefix
            assert recv_frame(b) == "ok"
            with pytest.raises(ServiceProtocolError):
                recv_frame(b)
        finally:
            a.close(), b.close()

    def test_garbage_payload_is_protocol_error(self):
        a, b = sock_pair()
        try:
            a.sendall(b"\x00\x00\x00\x00\x00\x00\x00\x04ABCD")
            with pytest.raises(ServiceProtocolError):
                recv_frame(b)
        finally:
            a.close(), b.close()


# ---------------------------------------------------------------------
# Satellite 4: deadline propagation through the harness and the
# compile/launch retry paths.
# ---------------------------------------------------------------------

SCALE_SRC = ctrt_block({"FACTOR": "factor"}) + """
__global__ void scale(const float* in, float* out, int n, int factor) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) out[i] = in[i] * (float)FACTOR_VAL;
}
"""


def build_scale_pipeline(retry=None):
    gpu = GPU(TESLA_C2070, memory_bytes=1 << 20)
    pipe = Pipeline(gpu, "scale", cache=KernelCache(), retry=retry)
    n = pipe.int_param("n", 256)
    factor = pipe.int_param("factor", 3)
    extent = pipe.extent_param("buf", (256,), 4)
    mod = pipe.module("mod", SCALE_SRC,
                      defines={"CT_FACTOR": 1, "FACTOR": factor})
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


def run_scale(pipe):
    pipe.refresh()
    pipe.resources["h_in"].array[:] = \
        np.arange(256, dtype=np.float32) / 7.0
    pipe.run(1)
    return pipe.resources["h_out"].array.copy()


class TestDeadlines:
    def test_expired_deadline_refused_before_launch(self):
        request = piv_request(deadline=time.monotonic() - 1.0)
        with pytest.raises(DeadlineExceeded) as excinfo:
            run_request(request)
        assert excinfo.value.site == "before-launch"

    def test_no_deadline_is_unbounded(self, baselines):
        result = run_request(piv_request(deadline=None))
        assert baselines["piv"].same_output(result)

    def test_live_deadline_does_not_perturb_results(self, baselines):
        result = run_request(
            piv_request(deadline=time.monotonic() + 60.0))
        assert baselines["piv"].same_output(result)

    def test_mid_retry_expiry_aborts_cleanly(self):
        # A launch fault under a 10 s backoff policy: the deadline
        # refuses the backoff (DeadlineExceeded, fast), and because
        # on_retry ran first, the gmem rollback left device state
        # intact — proven by the clean re-run matching baseline.
        baseline = run_scale(build_scale_pipeline())
        retry = RetryPolicy(max_attempts=5, base_delay=10.0,
                            jitter=0.0, max_delay=10.0, seed=0)
        pipe = build_scale_pipeline(retry=retry)
        ctx = pipe.ctx
        plan = FaultPlan(seed=1, counts={"launch.fail": 3})
        started = time.monotonic()
        ctx.deadline = started + 0.25
        try:
            with injecting(plan):
                with pytest.raises(DeadlineExceeded) as excinfo:
                    run_scale(pipe)
        finally:
            ctx.deadline = None
        assert excinfo.value.site == "retry-backoff"
        assert time.monotonic() - started < 5.0
        out = run_scale(pipe)
        np.testing.assert_array_equal(out, baseline)

    def test_deadline_scope_restores_previous(self):
        ctx = ExecutionContext(device=DEVICES["c2070"], name="dl")
        assert ctx.deadline is None
        with ctx.deadline_scope(123.0):
            assert ctx.deadline == 123.0
            with ctx.deadline_scope(None):
                assert ctx.deadline is None
            assert ctx.deadline == 123.0
        assert ctx.deadline is None


# ---------------------------------------------------------------------
# Warm-context reuse (§4.3 amortization) and forced degradation.
# ---------------------------------------------------------------------

class TestWarmContext:
    def test_warm_rerun_bit_identical_with_cache_hits(self, baselines):
        ctx = ExecutionContext(device=DEVICES["c2070"], name="warm")
        cold = run_request(piv_request(), context=ctx)
        hits_before = ctx.kernel_cache.stats()["hits"]
        warm = run_request(piv_request(), context=ctx)
        assert baselines["piv"].same_output(cold)
        assert baselines["piv"].same_output(warm)
        # The second run hit the kernel cache and rebuilt no plans.
        assert ctx.kernel_cache.stats()["hits"] > hits_before
        assert warm.counters["plan_misses"] == 0
        assert warm.counters["plan_hits"] > 0
        # Delta accounting: the cold run reports its own misses only.
        assert cold.counters["plan_misses"] > 0

    def test_degrade_flag_forces_re_bit_identically(self, baselines):
        result = run_request(piv_request(degrade=True))
        assert result.degraded
        assert baselines["piv"].same_output(result)

    def test_degrade_config_strips_specialization_only(self):
        config = PIVConfig(rb=2, threads=32, functional=True)
        stripped = degrade_config(config)
        assert stripped.specialize is False
        assert stripped.rb == config.rb
        assert degrade_config(stripped) is stripped


# ---------------------------------------------------------------------
# Satellite 3: the kernel-cache single-flight latch cannot wedge.
# ---------------------------------------------------------------------

class TestLatchTimeout:
    SRC = "__global__ void noop(float* p) { p[0] = 1.0f; }"

    def _stale_latch(self, cache):
        key_src = self.SRC
        key = cache_key(key_src, None, "sm_20", 3)
        latch = threading.Event()  # a "leader" that will never finish
        cache._in_flight[key] = latch
        return latch

    def test_waiter_takes_over_after_timeout(self):
        cache = KernelCache(latch_timeout=0.05)
        self._stale_latch(cache)
        started = time.monotonic()
        module = cache.compile(self.SRC)
        assert module is not None
        assert 0.04 < time.monotonic() - started < 5.0
        assert cache.stats()["latch_timeouts"] == 1
        # The takeover compiled for real and cached the result.
        assert cache.stats()["misses"] == 1
        assert cache.compile(self.SRC) is module
        assert cache.stats()["hits"] == 1

    def test_timeout_bumps_context_metric(self):
        cache = KernelCache(latch_timeout=0.05)
        self._stale_latch(cache)
        ctx = ExecutionContext(device=DEVICES["c2070"], name="latch")
        with using_context(ctx):
            cache.compile(self.SRC)
        counters = ctx.metrics.snapshot()["counters"]
        assert counters.get("cache.latch_timeout") == 1

    def test_stale_waiters_all_wake(self):
        cache = KernelCache(latch_timeout=0.05)
        stale = self._stale_latch(cache)
        results = []
        threads = [threading.Thread(
            target=lambda: results.append(cache.compile(self.SRC)))
            for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10.0)
        assert len(results) == 3
        assert all(r is results[0] for r in results)
        assert stale.is_set()  # takeover woke everyone stuck on it
        assert cache.stats()["latch_timeouts"] >= 1

    def test_clear_resets_latch_counter(self):
        cache = KernelCache(latch_timeout=0.05)
        self._stale_latch(cache)
        cache.compile(self.SRC)
        cache.clear()
        assert cache.stats()["latch_timeouts"] == 0


# ---------------------------------------------------------------------
# Satellite 2: served sweeps survive worker death.
# ---------------------------------------------------------------------

class TestSweepWorkerCrash:
    def test_killed_worker_surfaces_as_typed_record(self):
        runner = KamikazeRunner(crash_cells=(3,))
        sweeper = Sweeper(runner, jobs=2)
        records = sweeper.sweep(grid_configs(cell=[0, 1, 2, 3]))
        # Grid order survives the carnage.
        assert [r.index for r in records] == [0, 1, 2, 3]
        # The victim is a typed ServiceWorkerError record; every record
        # either finished normally or is that typed error — never a
        # hang or a bare exception.
        assert not records[3].valid
        assert "ServiceWorkerError" in records[3].error
        for r in records:
            assert r.valid or "ServiceWorkerError" in r.error
        taxonomy = sweeper.error_taxonomy()
        assert taxonomy.get("ServiceWorkerError", 0) >= 1

    def test_survivors_keep_their_results(self):
        # jobs=2 on four cells with the *last* cell lethal.
        runner = KamikazeRunner(crash_cells=(3,))
        sweeper = Sweeper(runner, jobs=2)
        records = sweeper.sweep(grid_configs(cell=[0, 1, 2, 3]))
        survivors = [r for r in records if r.valid]
        assert survivors, "no cell survived a single worker death"
        for r in survivors:
            assert r.seconds == pytest.approx(
                0.001 * (r.config["cell"] + 1))

    @pytest.mark.parametrize("via", ["sweeper", "fleet"])
    def test_worker_death_costs_only_its_cell(self, via):
        # One lethal cell in eight: it is retried to the redispatch
        # budget and recorded typed; no other cell is collateral.
        runner = KamikazeRunner(crash_cells=(1,))
        configs = grid_configs(cell=list(range(8)))
        if via == "sweeper":
            records = Sweeper(runner, jobs=2).sweep(configs)
            budget = ServiceConfig().max_redispatch
        else:
            from repro.runtime import DeviceFleet
            with DeviceFleet(["c2070"] * 2) as fleet:
                records = fleet.map_grid(runner, configs)
            budget = fleet.service.config.max_redispatch
        assert [r.index for r in records] == list(range(8))
        victim = records[1]
        assert not victim.valid
        assert victim.error.startswith("ServiceWorkerError")
        assert f"lost {1 + budget} workers" in victim.error
        for r in records[:1] + records[2:]:
            assert r.valid, r.error
            assert r.seconds == 0.001 * (r.config["cell"] + 1)


# ---------------------------------------------------------------------
# The in-process service: supervision, redispatch, deadlines,
# shedding, drain, health.
# ---------------------------------------------------------------------

class TestServiceInProc:
    def test_served_result_bit_identical_to_inline(self, baselines):
        with SpecializationService(fast_config()) as svc:
            client = InProcClient(svc)
            result = client.run(piv_request())
            assert baselines["piv"].same_output(result)
            assert result.worker.startswith("w")
            assert result.attempts == 1

    def test_warm_pool_reuses_contexts(self):
        with SpecializationService(fast_config(workers=1)) as svc:
            client = InProcClient(svc)
            cold = client.run(tm_request())
            warm = client.run(tm_request())
            assert cold.same_output(warm)
            assert warm.counters["plan_misses"] == 0
            assert warm.counters["plan_hits"] > 0

    def test_crash_redispatch_within_budget_succeeds(self):
        with SpecializationService(
                fast_config(max_redispatch=2)) as svc:
            client = InProcClient(svc)
            result = client.run(CrashRequest(crashes=1))
            assert result.app == "chaos.crash"
            assert result is not None

    def test_crash_budget_exhausted_is_typed(self):
        with SpecializationService(
                fast_config(max_redispatch=2)) as svc:
            client = InProcClient(svc)
            with pytest.raises(ServiceWorkerError) as excinfo:
                client.run(CrashRequest(crashes=0))
            assert excinfo.value.attempts == 3
            assert excinfo.value.code == "worker"

    def test_service_survives_crashes_and_keeps_serving(self, baselines):
        with SpecializationService(fast_config()) as svc:
            client = InProcClient(svc)
            with pytest.raises(ServiceWorkerError):
                client.run(CrashRequest(crashes=0))
            # Fresh workers respawn and real work still completes.
            result = client.run(piv_request(),
                                deadline=time.monotonic() + 60.0)
            assert baselines["piv"].same_output(result)
            health = svc.health()
            assert health["metrics"]["counters"]["serve.worker.crash"] \
                >= 3

    def test_expired_deadline_rejected_at_submit(self):
        with SpecializationService(fast_config(workers=1)) as svc:
            with pytest.raises(ServiceDeadlineError) as excinfo:
                svc.submit(piv_request(),
                           deadline=time.monotonic() - 1.0)
            assert excinfo.value.phase == "queued"

    def test_queued_deadline_expiry_resolves_typed(self):
        with SpecializationService(fast_config(workers=1)) as svc:
            blocker = svc.submit(SleepRequest(0.6))
            time.sleep(0.1)  # let it occupy the only worker
            fut = svc.submit(piv_request(),
                             deadline=time.monotonic() + 0.15)
            with pytest.raises(ServiceDeadlineError) as excinfo:
                fut.result(timeout=5.0)
            assert excinfo.value.phase == "queued"
            assert blocker.result(timeout=5.0).app == "chaos.sleep"

    def test_deadline_backstop_kills_wedged_worker(self):
        cfg = fast_config(workers=1, kill_grace=0.2, max_redispatch=0)
        with SpecializationService(cfg) as svc:
            started = time.monotonic()
            fut = svc.submit(SleepRequest(30.0),
                             deadline=started + 0.3)
            with pytest.raises(ServiceDeadlineError) as excinfo:
                fut.result(timeout=10.0)
            assert excinfo.value.phase == "running"
            assert time.monotonic() - started < 8.0
            # The killed slot respawns and the service keeps serving.
            result = svc.run(SleepRequest(0.01), timeout=10.0)
            assert result.app == "chaos.sleep"

    def test_overload_sheds_typed(self):
        cfg = fast_config(workers=1, queue_capacity=2)
        with SpecializationService(cfg) as svc:
            running = svc.submit(SleepRequest(0.8))
            time.sleep(0.15)  # ensure it is on the worker, not queued
            queued = [svc.submit(SleepRequest(0.01)) for _ in range(2)]
            with pytest.raises(ServiceOverloadError) as excinfo:
                svc.submit(SleepRequest(0.01))
            assert excinfo.value.capacity == 2
            assert svc.metrics.counter("serve.shed") == 1
            for fut in [running] + queued:
                assert fut.result(timeout=10.0).app == "chaos.sleep"

    def test_drain_shutdown_finishes_queued_work(self):
        svc = SpecializationService(fast_config(workers=1)).start()
        futures = [svc.submit(SleepRequest(0.05)) for _ in range(4)]
        svc.shutdown(drain=True)
        for fut in futures:
            assert fut.result(timeout=0).app == "chaos.sleep"
        assert svc.health()["status"] == "stopped"

    def test_abort_shutdown_resolves_pending_typed(self):
        svc = SpecializationService(fast_config(workers=1)).start()
        futures = [svc.submit(SleepRequest(0.5)) for _ in range(3)]
        time.sleep(0.1)
        svc.shutdown(drain=False)
        outcomes = []
        for fut in futures:
            try:
                outcomes.append(fut.result(timeout=5.0))
            except ServiceShutdownError:
                outcomes.append("shutdown")
        # Nothing hangs: every future resolved one way or the other,
        # and the aborted tail got the typed shutdown answer.
        assert len(outcomes) == 3
        assert "shutdown" in outcomes

    def test_submit_after_shutdown_is_typed(self):
        svc = SpecializationService(fast_config(workers=1)).start()
        svc.shutdown(drain=True)
        with pytest.raises(ServiceShutdownError):
            svc.submit(SleepRequest(0.01))

    def test_hung_worker_detected_by_heartbeat(self):
        cfg = fast_config(workers=1, hang_timeout=0.4)
        with SpecializationService(cfg) as svc:
            client = InProcClient(svc)
            client.run(SleepRequest(0.01))  # wait for a live worker
            row = svc.health()["workers"][0]
            assert row["alive"]
            os.kill(row["pid"], signal.SIGSTOP)  # wedge it silently
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                rows = svc.health()["workers"]
                if rows[0]["id"] not in (None, row["id"]) \
                        and rows[0]["alive"]:
                    break
                time.sleep(0.05)
            rows = svc.health()["workers"]
            assert rows[0]["id"] != row["id"], \
                "stale-heartbeat worker was never replaced"
            assert svc.metrics.counter("serve.hang_kill") >= 1
            # And the replacement actually serves.
            assert client.run(SleepRequest(0.01)).app == "chaos.sleep"

    def test_health_report_shape(self):
        with SpecializationService(fast_config()) as svc:
            svc.run(SleepRequest(0.01), timeout=10.0)
            health = svc.health()
            assert health["status"] == "ok"
            assert {"status", "uptime_s", "workers", "queue",
                    "breaker", "metrics", "events"} <= set(health)
            assert len(health["workers"]) == 2
            for row in health["workers"]:
                assert {"slot", "id", "pid", "alive", "busy",
                        "beat_age_s", "restarts",
                        "crash_streak"} <= set(row)
            assert health["queue"]["capacity"] == 8
            assert health["breaker"]["state"] == "closed"
            counters = health["metrics"]["counters"]
            assert counters["serve.ok"] >= 1

    def test_restart_backoff_schedule_is_deterministic(self):
        cfg = fast_config()
        assert cfg.restart_backoff.schedule() == \
            fast_config().restart_backoff.schedule()


# ---------------------------------------------------------------------
# Breaker end to end: poisoned SK compiles trip it; the service
# pre-degrades (bit-identically) and recovers via a half-open probe.
# ---------------------------------------------------------------------

SK_POISON = FaultPlan(seed=5, counts={"nvcc.compile": 1},
                      match={"nvcc.compile": "CT_"})


class TestBreakerEndToEnd:
    def test_trip_degrade_and_recover(self, baselines):
        cfg = fast_config(workers=1, breaker_threshold=2,
                          breaker_reset=0.4)
        tiles = [(8, 8), (16, 8), (8, 16), (16, 16)]
        with SpecializationService(cfg) as svc:
            client = InProcClient(svc)
            # Two distinct configs, each with an absorbed SK compile
            # fault: consecutive compile-path failures trip the
            # breaker even though both requests completed.
            for tile in tiles[:2]:
                result = client.run(
                    tm_request(tile=tile, fault_plan=SK_POISON))
                assert result.faults.get("nvcc.compile") == 1
                assert not result.degraded
            assert svc.breaker.stats()["trips"] == 1
            # Open: a fresh config is dispatched pre-degraded — no SK
            # compile, no fault fires, and the answer is still exact.
            degraded = client.run(
                tm_request(tile=tiles[2], fault_plan=SK_POISON))
            assert degraded.degraded
            assert not degraded.faults
            # Half-open after the reset window: the next request is
            # the probe; clean, so the breaker closes again.
            time.sleep(0.5)
            probe = client.run(tm_request(tile=tiles[3]))
            assert not probe.degraded
            after = client.run(tm_request(tile=(8, 8), threads=64))
            assert not after.degraded
            assert svc.breaker.state == "closed"
            assert svc.breaker.probes >= 1

    def test_degraded_dispatch_is_bit_identical(self, baselines):
        cfg = fast_config(workers=1, breaker_threshold=1,
                          breaker_reset=30.0)
        with SpecializationService(cfg) as svc:
            client = InProcClient(svc)
            client.run(tm_request(fault_plan=SK_POISON))
            assert svc.breaker.state == "open"
            result = client.run(tm_request(tile=(16, 16)))
            assert result.degraded
            inline = run_request(tm_request(tile=(16, 16)))
            assert inline.same_output(result)

    def test_hard_compile_failure_counts_via_error_path(self):
        # PIV compiles outside the pipeline retry wrapper: the same
        # poison is a typed hard failure, and the breaker still sees
        # the compile site from the error.
        cfg = fast_config(workers=1, breaker_threshold=1,
                          breaker_reset=30.0)
        with SpecializationService(cfg) as svc:
            client = InProcClient(svc)
            with pytest.raises(ServiceRequestError) as excinfo:
                client.run(piv_request(
                    fault_plan=FaultPlan(seed=5,
                                         counts={"nvcc.compile": 1})))
            assert excinfo.value.site == "nvcc.compile"
            assert excinfo.value.cause is not None
            assert svc.breaker.state == "open"


# ---------------------------------------------------------------------
# The chaos contract, served: seeded fault plans + worker kills.
# ---------------------------------------------------------------------

CHAOS_RATES = {"nvcc.compile": 0.25, "nvcc.timeout": 0.1,
               "launch.fail": 0.15, "launch.watchdog": 0.15,
               "memory.bitflip": 0.1}


class TestServedChaosContract:
    def test_every_request_resolves_exact_or_typed(self, baselines):
        requests = [tm_request(fault_plan=FaultPlan(
            seed=seed, rates=CHAOS_RATES)) for seed in range(6)]
        with SpecializationService(fast_config(workers=2)) as svc:
            futures = [svc.submit(r) for r in requests]
            for fut in futures:
                try:
                    result = fut.result(timeout=60.0)
                except ServiceError:
                    continue  # typed refusal: legitimate outcome
                assert baselines["tm"].same_output(result)

    def test_served_chaos_matches_inline_chaos(self, baselines):
        # Same seeded plan, inline vs served: identical outcome class
        # and identical fault summaries (the injector rebuilt in the
        # worker from the shipped plan, not inherited).
        plan = FaultPlan(seed=4, counts={"nvcc.compile": 1})
        inline = run_request(tm_request(fault_plan=plan))
        with SpecializationService(fast_config(workers=1)) as svc:
            served = InProcClient(svc).run(tm_request(fault_plan=plan))
        assert inline.same_output(served)
        assert inline.faults == served.faults

    def test_interleaved_crashes_do_not_corrupt_results(self, baselines):
        with SpecializationService(
                fast_config(workers=2, max_redispatch=2)) as svc:
            futures = []
            for i in range(4):
                futures.append(svc.submit(piv_request()))
                futures.append(svc.submit(CrashRequest(crashes=1)))
            for i, fut in enumerate(futures):
                result = fut.result(timeout=120.0)
                if i % 2 == 0:
                    assert baselines["piv"].same_output(result)
                else:
                    assert result.app == "chaos.crash"


# ---------------------------------------------------------------------
# TCP end to end.
# ---------------------------------------------------------------------

@pytest.fixture()
def tcp_service():
    svc = SpecializationService(fast_config(workers=1)).start()
    server = ServiceServer(svc).start()
    try:
        yield server
    finally:
        server.stop()
        svc.shutdown(drain=False)


class TestServiceTCP:
    def test_ping_and_run(self, tcp_service, baselines):
        host, port = tcp_service.address
        with ServiceClient(host=host, port=port) as client:
            assert client.ping() == "pong"
            result = client.run(piv_request())
            assert baselines["piv"].same_output(result)
            assert result.worker.startswith("w")

    def test_health_over_the_wire(self, tcp_service):
        host, port = tcp_service.address
        with ServiceClient(host=host, port=port) as client:
            health = client.health()
            assert health["status"] == "ok"
            assert len(health["workers"]) == 1

    def test_typed_errors_reraise_client_side(self, tcp_service):
        host, port = tcp_service.address
        with ServiceClient(host=host, port=port) as client:
            with pytest.raises(ServiceDeadlineError) as excinfo:
                client.run(piv_request(),
                           deadline=time.monotonic() - 1.0)
            assert excinfo.value.phase == "queued"
            # The connection stays usable after a typed error.
            assert client.ping() == "pong"

    def test_unknown_op_is_protocol_error(self, tcp_service):
        host, port = tcp_service.address
        with ServiceClient(host=host, port=port) as client:
            with pytest.raises(ServiceProtocolError):
                client._call(("frobnicate",))

    def test_run_many_in_order(self, tcp_service):
        host, port = tcp_service.address
        with ServiceClient(host=host, port=port) as client:
            results = client.run_many([SleepRequest(0.01),
                                       SleepRequest(0.02)])
            assert [r.seconds for r in results] == [0.01, 0.02]

    def test_metrics_op_speaks_prometheus(self, tcp_service):
        from repro.obs.prom import validate_prom
        host, port = tcp_service.address
        with ServiceClient(host=host, port=port) as client:
            client.run(piv_request(), client="gus")
            text = client.metrics_text()
        assert validate_prom(text) == []
        assert "# TYPE repro_serve_ok counter" in text
        assert "# TYPE repro_client_gus_latency_s histogram" in text

    def test_worker_spans_graft_across_the_wire(self, tcp_service):
        # Cross-process span propagation over TCP: the request carries
        # a TraceContext to the worker process, the worker ships its
        # span tree back, and the daemon-side tracer shows it grafted
        # under the request span.
        service = tcp_service.service
        tracer = service.enable_tracing("serve-tcp")
        host, port = tcp_service.address
        with ServiceClient(host=host, port=port,
                           client="heidi") as client:
            client.run(piv_request())
        request_spans = [s for s in tracer.spans
                         if s.parent is None
                         and s.name.startswith("request:")]
        assert len(request_spans) == 1
        wrapper = request_spans[0]
        assert wrapper.attrs["client"] == "heidi"
        assert wrapper.attrs["worker"].startswith("w")
        phases = {s.name for s in tracer.spans
                  if s.parent == wrapper.sid}
        assert "queue" in phases
        worker_span = next(s for s in tracer.spans
                           if s.parent == wrapper.sid
                           and s.name.startswith("worker:"))
        shipped = [s for s in tracer.spans
                   if s.parent == worker_span.sid]
        assert shipped  # the worker process's span tree arrived
        from repro.obs.export import chrome_trace, validate_chrome
        assert validate_chrome(chrome_trace(tracer.to_dict())) == []


# ---------------------------------------------------------------------
# Per-client attribution and device-affinity dispatch.
# ---------------------------------------------------------------------

def _counts(row):
    """Outcome counters only — client rows also carry p50_s/p95_s/p99_s
    latency quantiles (and slo_breach when an SLO is set)."""
    return {k: v for k, v in row.items()
            if not k.endswith("_s") and k != "slo_breach"}


class TestClientAttribution:
    def test_health_reports_per_client_counts(self):
        with SpecializationService(fast_config(workers=1)) as svc:
            svc.run(piv_request(), client="alice")
            svc.run(piv_request(), client="alice")
            svc.run(tm_request(), client="bob")
            svc.run(piv_request())  # untagged -> "anon"
            health = svc.health()
        alice = health["clients"]["alice"]
        assert _counts(alice) == {"submitted": 2, "ok": 2}
        # completed requests come with latency quantile estimates
        assert alice["p50_s"] > 0.0
        assert alice["p50_s"] <= alice["p95_s"] <= alice["p99_s"]
        assert _counts(health["clients"]["bob"]) \
            == {"submitted": 1, "ok": 1}
        assert _counts(health["clients"]["anon"]) \
            == {"submitted": 1, "ok": 1}

    def test_rejected_submission_attributed(self):
        with SpecializationService(fast_config(workers=1)) as svc:
            with pytest.raises(ServiceDeadlineError):
                svc.submit(piv_request(),
                           deadline=time.monotonic() - 1.0,
                           client="carol")
            health = svc.health()
        assert health["clients"]["carol"] == {"rejected": 1}

    def test_error_outcome_attributed(self):
        cfg = fast_config(workers=1, max_redispatch=0)
        with SpecializationService(cfg) as svc:
            with pytest.raises(ServiceWorkerError):
                svc.run(CrashRequest(crashes=0), client="dave")
            health = svc.health()
        row = health["clients"]["dave"]
        assert row["submitted"] == 1 and row["err"] == 1

    def test_tcp_client_name_rides_the_wire(self, tcp_service):
        host, port = tcp_service.address
        with ServiceClient(host=host, port=port,
                           client="erin") as named:
            named.run(piv_request())
            named.run(piv_request(), client="frank")  # per-call override
        with ServiceClient(host=host, port=port) as anon:
            anon.run(piv_request())
            health = anon.health()
        assert _counts(health["clients"]["erin"]) \
            == {"submitted": 1, "ok": 1}
        assert _counts(health["clients"]["frank"]) \
            == {"submitted": 1, "ok": 1}
        # unnamed TCP callers attribute to their peer address
        addr_rows = [name for name in health["clients"]
                     if name.startswith("127.0.0.1:")]
        assert len(addr_rows) == 1
        assert _counts(health["clients"][addr_rows[0]]) \
            == {"submitted": 1, "ok": 1}


class TestDeviceAffinity:
    def test_repeat_device_lands_on_warm_worker(self):
        spec = ProblemSpec(app="piv",
                           problem=PIVProblem("aff", 40, 40, mask=8,
                                              offs=3),
                           seed=3, device="k20", memory_bytes=8 << 20)
        req = RunRequest(spec=spec,
                         config=PIVConfig(rb=2, threads=32,
                                          functional=True))
        with SpecializationService(fast_config(workers=2)) as svc:
            first = svc.run(req)
            second = svc.run(req)
            health = svc.health()
        # the second dispatch preferred the worker already warm for
        # k20 over plain first-idle selection
        assert second.worker == first.worker
        assert health["metrics"]["counters"]["serve.affinity_hit"] >= 1
