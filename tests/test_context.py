"""ExecutionContext scoping, shims, and engine/fault ownership."""

import threading

import numpy as np
import pytest

from repro.faults import FaultInjector, FaultPlan
from repro.faults import hooks as fault_hooks
from repro.gpusim import GPU, TESLA_C1060, TESLA_C2070, resolve_engine
from repro.gpusim.executor import SimError
from repro.runtime import (ENGINES, ExecutionContext, current_context,
                           default_context, using_context)


class TestContextBasics:
    def test_defaults(self):
        ctx = ExecutionContext()
        assert ctx.device is TESLA_C2070
        assert ctx.engine in ENGINES
        assert ctx.injector is None
        assert ctx.cache_counters() == {"plan_hits": 0,
                                        "plan_misses": 0,
                                        "gang_hits": 0,
                                        "gang_misses": 0}

    def test_invalid_engine_rejected(self):
        with pytest.raises(ValueError):
            ExecutionContext(engine="warp-speed")
        ctx = ExecutionContext()
        with pytest.raises(ValueError):
            ctx.set_engine("nope")

    def test_current_falls_back_to_process_default(self):
        assert current_context() is default_context()

    def test_using_context_stacks_and_restores(self):
        outer = ExecutionContext(name="outer")
        inner = ExecutionContext(name="inner")
        with using_context(outer):
            assert current_context() is outer
            with using_context(inner):
                assert current_context() is inner
            assert current_context() is outer
        assert current_context() is default_context()

    def test_context_stack_is_thread_local(self):
        ctx = ExecutionContext(name="mine")
        seen = {}

        def probe():
            seen["ctx"] = current_context()

        with using_context(ctx):
            t = threading.Thread(target=probe)
            t.start()
            t.join()
        # The other thread never saw this thread's context.
        assert seen["ctx"] is default_context()


class TestEngineSelection:
    def test_engines_tuple(self):
        assert ENGINES == ("serial", "batched")

    def test_resolve_rejects_unknown(self):
        with pytest.raises(SimError, match="valid engines"):
            resolve_engine("vectorized")

    def test_context_rejects_unknown(self):
        with pytest.raises(ValueError, match="valid engines"):
            ExecutionContext(engine="turbo")

    def test_env_sets_context_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "serial")
        ctx = ExecutionContext()
        assert ctx.engine == "serial"
        with using_context(ctx):
            assert resolve_engine(None) == "serial"
            # An explicit engine is never overridden.
            assert resolve_engine("batched") == "batched"

    def test_env_invalid_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "warp9")
        with pytest.raises(SimError, match="REPRO_ENGINE"):
            resolve_engine("batched")

    def test_env_traced_raises(self, monkeypatch):
        # The trace-JIT engine is gone; a stale setting fails loudly
        # rather than silently running the interpreter.
        monkeypatch.setenv("REPRO_ENGINE", "traced")
        for call in (lambda: resolve_engine("batched"), ExecutionContext):
            with pytest.raises(SimError,
                               match="'serial', 'batched'") as info:
                call()
            assert "REPRO_ENGINE='traced'" in str(info.value)

    def test_set_engine_stores_verbatim(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "batched")
        ctx = ExecutionContext(engine="serial")
        with using_context(ctx):
            previous = ctx.set_engine("batched")
            assert previous == "serial"
            assert ctx.engine == "batched"
            assert resolve_engine(None) == "batched"
            ctx.set_engine("serial")
            assert resolve_engine(None) == "serial"


class TestContextState:
    def test_counters_are_per_context(self):
        a = ExecutionContext(name="a")
        b = ExecutionContext(name="b")
        a.metrics.inc("cache.plan_misses", 3)
        assert b.cache_counters()["plan_misses"] == 0
        assert a.cache_counters()["plan_misses"] == 3

    def test_launch_charges_ambient_context_only(self):
        from tests.helpers import KernelHarness

        src = """
        __global__ void copy(float *out, const float *in, int n) {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i < n) out[i] = in[i];
        }
        """
        ctx = ExecutionContext(name="launches")
        other = ExecutionContext(name="idle")
        with using_context(ctx):
            h = KernelHarness(src)
            n = 64 * 4
            inp = np.arange(n, dtype=np.float32)
            for _ in range(2):
                h((4,), (64,), np.zeros(n, np.float32), inp, n,
                  engine="batched")
        counters = ctx.cache_counters()
        assert counters["plan_misses"] == 1
        assert counters["plan_hits"] == 1
        assert counters["gang_misses"] == 1
        assert counters["gang_hits"] == 1
        assert other.cache_counters()["plan_misses"] == 0

    def test_engine_selection_is_context_scoped(self):
        ctx = ExecutionContext(engine="serial")
        baseline = current_context().engine
        with using_context(ctx):
            assert current_context().engine == "serial"
            current_context().set_engine("batched")
            assert ctx.engine == "batched"
        assert current_context().engine == baseline

    def test_cache_counters_read_the_registry_by_name(self):
        ctx = ExecutionContext()
        ctx.metrics.inc("cache.plan_hits", 7)
        ctx.metrics.inc("cache.gang_misses", 2)
        # Other cache.* counters are not cache_counters() keys.
        ctx.metrics.inc("cache.latch_timeout")
        with using_context(ctx):
            counters = current_context().cache_counters()
        assert counters["plan_hits"] == 7
        assert counters["gang_misses"] == 2
        assert "latch_timeout" not in counters
        assert len(counters) == 4

    def test_kernel_cache_shim_follows_context(self):
        ctx = ExecutionContext()
        with using_context(ctx):
            assert current_context().kernel_cache is ctx.kernel_cache
        assert (current_context().kernel_cache
                is default_context().kernel_cache)

    def test_gpu_captures_construction_context(self):
        ctx = ExecutionContext(device=TESLA_C1060)
        with using_context(ctx):
            gpu = GPU()
        assert gpu.ctx is ctx
        assert gpu.spec is TESLA_C1060


class TestContextFaults:
    def test_install_from_plan_and_clear(self):
        ctx = ExecutionContext()
        plan = FaultPlan(seed=3, counts={"nvcc.compile": 1})
        injector = ctx.install_faults(plan)
        assert isinstance(injector, FaultInjector)
        assert ctx.injector is injector
        with pytest.raises(RuntimeError):
            ctx.install_faults(plan)
        ctx.clear_faults()
        assert ctx.injector is None

    def test_injecting_scoped_to_context(self):
        ctx = ExecutionContext()
        with ctx.injecting(FaultPlan(seed=0)) as injector:
            assert ctx.injector is injector
        assert ctx.injector is None

    def test_hooks_shim_sees_context_injector(self):
        ctx = ExecutionContext()
        with using_context(ctx):
            assert current_context().injector is None
            with fault_hooks.injecting(FaultPlan(seed=5)) as injector:
                assert current_context().injector is injector
                assert ctx.injector is injector
            assert current_context().injector is None
        # Installing on a scoped context never touches the default one.
        assert default_context().injector is None
