"""Bounded warm state.

A warm context keeps a working set, not its history: the kernel cache
holds at most ``KernelCache.MAX_MODULES`` modules in LRU order, compiled
modules are acyclic so an evicted one is freed by refcount (no cyclic
collection needed), and its launch plans go with it.  Evictions count
as ``cache.kernel_evictions`` / ``cache.plan_evictions`` in the
context's metrics and in the serve daemon's `/health`.
"""

from __future__ import annotations

import gc
import pickle
import threading
import weakref

import numpy as np
import pytest

from repro.apps.harness import run_request
from repro.gpupf.cache import KernelCache
from repro.gpusim import GPU, TESLA_C2070
from repro.kernelc import nvcc
from repro.kernelc import typesys as T
from repro.runtime import ExecutionContext, using_context

SRC = """
__global__ void k(float *x) { x[threadIdx.x] = x[threadIdx.x] * SCALE; }
"""


def _compile(cache, scale):
    return cache.compile(SRC, defines={"SCALE": f"{scale}.0f"})


def _launch(ctx, module):
    """One launch of *module* under *ctx*: plans it and builds its gang
    prototype."""
    with using_context(ctx):
        gpu = GPU(TESLA_C2070)
        addr = gpu.alloc_array(np.ones(32, np.float32))
        gpu.launch(module.kernel("k"), (1,), (32,), [addr])


def test_lru_keeps_the_recently_used(monkeypatch):
    monkeypatch.setattr(KernelCache, "MAX_MODULES", 2)
    cache = KernelCache()
    one, two = _compile(cache, 1), _compile(cache, 2)
    assert _compile(cache, 1) is one  # a hit makes 1 the most recent
    _compile(cache, 3)                # so 2 is the one evicted
    assert cache.stats()["evictions"] == 1
    assert _compile(cache, 1) is one
    assert _compile(cache, 2) is not two
    assert (cache.hits, cache.misses, cache.evictions) == (2, 4, 2)
    assert len(cache._memory) == 2


def test_eviction_skips_a_key_with_a_compile_in_flight(monkeypatch):
    monkeypatch.setattr(KernelCache, "MAX_MODULES", 1)
    cache = KernelCache()
    one = _compile(cache, 1)
    (key,) = cache._memory
    # As when a waiter stole a stale latch: the old leader may still
    # store this key, so it stays put and the cache runs over bound.
    cache._in_flight[key] = threading.Event()
    two = _compile(cache, 2)
    assert list(cache._memory.values()) == [one, two]
    assert cache.evictions == 0
    del cache._in_flight[key]
    _compile(cache, 3)
    assert len(cache._memory) == 1 and cache.evictions == 2


@pytest.mark.parametrize("via", ["nvcc", "disk"])
def test_dropped_module_frees_its_ir_and_plan(tmp_path, via):
    ctx = ExecutionContext(name=f"acyclic-{via}")
    if via == "nvcc":
        module = nvcc(SRC, defines={"SCALE": "2.0f"})
    else:
        _compile(KernelCache(disk_dir=str(tmp_path)), 2)
        reader = KernelCache(disk_dir=str(tmp_path))
        module = _compile(reader, 2)
        assert (reader.hits, reader.misses) == (1, 0)
        reader.clear()
    _launch(ctx, module)
    (plan,) = ctx.plan_cache.values()
    assert plan.gang_protos
    ir = weakref.ref(module.kernel("k").ir)
    del plan
    gc.disable()  # whatever frees the module, it is not the collector
    try:
        del module
        assert ir() is None
        assert ctx.plan_cache == {}
        assert ctx.metrics.counter("cache.plan_evictions") == 1
    finally:
        gc.enable()


def test_evictions_show_in_the_metrics_snapshot(monkeypatch):
    monkeypatch.setattr(KernelCache, "MAX_MODULES", 1)
    ctx = ExecutionContext(name="evictions")
    counters = ctx.metrics_snapshot()["counters"]
    assert counters["cache.kernel_evictions"] == 0
    assert counters["cache.plan_evictions"] == 0
    for scale in (1, 2, 3):
        _launch(ctx, _compile(ctx.kernel_cache, scale))
    counters = ctx.metrics_snapshot()["counters"]
    assert counters["cache.kernel_evictions"] == 2
    assert counters["cache.plan_evictions"] == 2
    assert len(ctx.plan_cache) == 1


def test_pointer_types_are_canonical():
    shared = T.pointer_type(T.F32, "shared")
    assert T.pointer_type(T.F32, "shared") is shared
    assert T.pointer_type(T.F32) is not shared
    assert pickle.loads(pickle.dumps(shared)) is shared
    module = pickle.loads(pickle.dumps(nvcc(SRC, defines={"SCALE": "3"})))
    (_, ptr), = module.kernel("k").ir.params
    assert ptr is T.pointer_type(T.F32, "global")


def _fingerprint(result):
    """Everything a request returns, bit for bit."""
    output = None if result.output is None else (
        result.output.dtype.str, result.output.shape,
        result.output.tobytes())
    return (output, result.seconds.hex(), result.transfer_seconds.hex(),
            result.reg_count, result.occupancy)


def test_warm_context_holds_its_bound(monkeypatch):
    """200 cold-stream requests on one warm context with a bound of 8:
    the cache never holds more than 8 modules nor the plan cache plans
    of any other, every result matches a fresh context's bit for bit,
    and an evicted program recompiles to identical PTX."""
    from perfbench.inputs import cold_stream

    bound = 8
    monkeypatch.setattr(KernelCache, "MAX_MODULES", bound)
    ctx = ExecutionContext(name="warm-bound")
    cache = ctx.kernel_cache
    seen = {}  # key -> (weakref to its module, first PTX)
    recompiled = 0
    for request in cold_stream(5)[:200]:
        warm = run_request(request, context=ctx)
        assert _fingerprint(warm) == _fingerprint(run_request(request))
        assert len(cache._memory) <= bound
        kernels = {id(k.ir) for m in cache._memory.values()
                   for k in m.kernels.values()}
        assert {key[0] for key in ctx.plan_cache} <= kernels
        for key, module in cache._memory.items():
            ref, ptx = seen.get(key, (None, None))
            if ref is not None and ref() is module:
                continue
            if ptx is None:
                ptx = module.to_ptx()
            else:
                recompiled += 1
                assert module.to_ptx() == ptx
            seen[key] = (weakref.ref(module), ptx)
    assert cache.evictions > 0 and recompiled > 0


def test_health_reports_worker_evictions(monkeypatch):
    from repro.serve import InProcClient, SpecializationService
    from tests.test_serve import fast_config, piv_request

    # Forked workers inherit the patched bound.
    monkeypatch.setattr(KernelCache, "MAX_MODULES", 1)
    with SpecializationService(fast_config(
            workers=1, start_method="fork")) as svc:
        counters = svc.health()["metrics"]["counters"]
        assert counters["cache.kernel_evictions"] == 0
        assert counters["cache.plan_evictions"] == 0
        client = InProcClient(svc)
        results = [client.run(piv_request(threads=t)) for t in (32, 64)]
        counters = svc.health()["metrics"]["counters"]
    assert counters["cache.kernel_evictions"] == sum(
        r.evictions["kernel_evictions"] for r in results) > 0
    assert counters["cache.plan_evictions"] == sum(
        r.evictions["plan_evictions"] for r in results) > 0
    for result, threads in zip(results, (32, 64)):
        inline = run_request(piv_request(threads=threads))
        assert _fingerprint(result) == _fingerprint(inline)
