"""Trace-JIT engine ≡ interpreter: identity, caching, and fallbacks.

The traced engine's contract extends the batched one: for any launch,
device memory, per-warp stats, and Timing must equal the serial
oracle's — recording, replay, guard deopts, replay splits, and
continuation chains included.  These tests also pin the plumbing the
tentpole added around the JIT: engine-name validation, the
``REPRO_ENGINE`` upgrade, per-launch trace counters, trace-cache reuse
across sweep pools, the fault-injection opt-out, and the
per-allocation dirty-tracking epochs that replaced whole-heap
snapshots in launch retries.
"""

import numpy as np
import pytest

from tests.helpers import KernelHarness
from repro.apps.template_matching import MatchProblem
from repro.faults import FaultPlan
from repro.gpusim import ENGINES, TESLA_C2070, resolve_engine
from repro.gpusim.executor import SimError
from repro.gpusim.memory import GlobalMemory, MemoryError_
from repro.runtime.context import ExecutionContext, using_context
from repro.tuning.app_sweeps import harness_sweep


DIVERGENT_SRC = """
__global__ void k(float* out, const float* in, int n) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    if (gid >= n) return;
    float v = in[gid];
    float acc = 0.0f;
    for (int i = 0; i < gid % 7; ++i)    // data-dependent trip count
        acc += v * i;
    if (gid % 3 == 0) acc = -acc;        // divergent branch
    out[gid] = acc;
}
"""

BARRIER_SRC = """
__global__ void k(float* out, const float* in, int n) {
    __shared__ float buf[64];
    int tid = threadIdx.x;
    int gid = blockIdx.x * blockDim.x + tid;
    buf[tid] = (gid < n) ? in[gid] : 0.0f;
    __syncthreads();
    float acc = 0.0f;
    for (int i = 0; i <= tid % 5; ++i)
        acc += buf[(tid + i) % blockDim.x];
    __syncthreads();
    if (gid < n) out[gid] = acc;
}
"""

ATOMIC_SRC = """
__global__ void k(int* hist, const int* in, int n) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    if (gid >= n) return;
    atomicAdd(&hist[in[gid] & 15], 1);
}
"""

SIGN_SRC = """
__global__ void k(float* out, const float* in, int n) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    if (gid >= n) return;
    float v = in[gid];
    if (v > 0.0f)                        // data-dependent guard
        out[gid] = v * 2.0f;
    else
        out[gid] = v - 1.0f;
}
"""


def _run(src, grid, block, arrays, scalars, engine, launches=1):
    """Launch *launches* times inside a private context."""
    with using_context(ExecutionContext(device=TESLA_C2070)):
        h = KernelHarness(src)
        outs = results = None
        for _ in range(launches):
            args = [a.copy() for a in arrays] + list(scalars)
            outs, results = h(grid, block, *args, engine=engine)
        return outs, results


def assert_traced_identical(src, grid, block, *arrays, scalars=(),
                            launches=1):
    """Serial vs traced with identical inputs; demand bit-equality."""
    out_s, res_s = _run(src, grid, block, arrays, scalars, "serial",
                        launches)
    out_t, res_t = _run(src, grid, block, arrays, scalars, "traced",
                        launches)
    for a, b in zip(out_s, out_t):
        assert a.tobytes() == b.tobytes()
    assert res_s.blocks_executed == res_t.blocks_executed
    for bs, bt in zip(res_s.stats, res_t.stats):
        assert bs.warps == bt.warps
    assert res_s.timing == res_t.timing


class TestBitIdentity:
    def test_divergent_loop(self):
        rng = np.random.default_rng(7)
        n = 500
        assert_traced_identical(
            DIVERGENT_SRC, 8, 64,
            np.zeros(n, np.float32),
            rng.standard_normal(n).astype(np.float32),
            scalars=(n,))

    def test_barrier_shared(self):
        rng = np.random.default_rng(8)
        n = 300
        assert_traced_identical(
            BARRIER_SRC, 5, 64,
            np.zeros(n, np.float32),
            rng.standard_normal(n).astype(np.float32),
            scalars=(n,))

    def test_atomics(self):
        rng = np.random.default_rng(9)
        n = 400
        assert_traced_identical(
            ATOMIC_SRC, 4, 128,
            np.zeros(16, np.int32),
            rng.integers(0, 1 << 20, n).astype(np.int32),
            scalars=(n,))

    def test_repeat_launches_identical(self):
        # Later launches replay cached traces; replay must not drift
        # from the oracle (issue-order float accumulation included).
        rng = np.random.default_rng(10)
        n = 500
        assert_traced_identical(
            DIVERGENT_SRC, 8, 64,
            np.zeros(n, np.float32),
            rng.standard_normal(n).astype(np.float32),
            scalars=(n,), launches=3)


class TestCachingAndCounters:
    def test_records_then_hits(self):
        rng = np.random.default_rng(11)
        n = 500
        arrays = (np.zeros(n, np.float32),
                  rng.standard_normal(n).astype(np.float32))
        ctx = ExecutionContext(device=TESLA_C2070)
        with using_context(ctx):
            h = KernelHarness(DIVERGENT_SRC)
            _, first = h(8, 64, *[a.copy() for a in arrays], n,
                         engine="traced")
            _, second = h(8, 64, *[a.copy() for a in arrays], n,
                          engine="traced")
        assert first.trace_records > 0
        assert second.trace_hits > 0
        assert second.trace_records == 0
        stats = ctx.cache_counters()
        assert stats["trace_records"] == first.trace_records
        assert stats["trace_hits"] == first.trace_hits + second.trace_hits
        assert stats["trace_aborts"] == 0

    def test_guard_failure_deopts(self):
        # Record against all-positive data, then replay against
        # all-negative: every guard on the sign branch fails, the
        # fragments deoptimize (and chain), and the answer still
        # matches the oracle bit for bit.
        n = 500
        pos = np.arange(1, n + 1, dtype=np.float32)
        neg = -pos
        ctx = ExecutionContext(device=TESLA_C2070)
        with using_context(ctx):
            h = KernelHarness(SIGN_SRC)
            h(8, 64, np.zeros(n, np.float32), pos.copy(), n,
              engine="traced")
            out_t, second = h(8, 64, np.zeros(n, np.float32),
                              neg.copy(), n, engine="traced")
        assert second.trace_deopts > 0
        with using_context(ExecutionContext(device=TESLA_C2070)):
            out_s, _ = KernelHarness(SIGN_SRC)(
                8, 64, np.zeros(n, np.float32), neg.copy(), n,
                engine="serial")
        assert out_t[0].tobytes() == out_s[0].tobytes()

    def test_launch_profile_counters(self):
        rng = np.random.default_rng(12)
        n = 500
        arrays = (np.zeros(n, np.float32),
                  rng.standard_normal(n).astype(np.float32))
        ctx = ExecutionContext(device=TESLA_C2070)
        with using_context(ctx):
            ctx.enable_tracing("trace-test")
            h = KernelHarness(DIVERGENT_SRC)
            h(8, 64, *[a.copy() for a in arrays], n, engine="traced")
            h(8, 64, *[a.copy() for a in arrays], n, engine="traced")
            profiles = ctx.tracer.profiles
        assert len(profiles) == 2
        assert profiles[0].trace_records > 0
        assert profiles[1].trace_hits > 0


class TestEngineSelection:
    def test_resolve_rejects_unknown(self):
        with pytest.raises(SimError, match="valid engines"):
            resolve_engine("vectorized")

    def test_context_rejects_unknown(self):
        with pytest.raises(ValueError, match="valid engines"):
            ExecutionContext(engine="turbo")

    def test_env_upgrades_batched(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "traced")
        with using_context(ExecutionContext(engine="batched")):
            assert resolve_engine("batched") == "traced"
            assert resolve_engine(None) == "traced"
            # The oracle must stay reachable for differential runs.
            assert resolve_engine("serial") == "serial"

    def test_env_invalid_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "warp9")
        with pytest.raises(SimError, match="REPRO_ENGINE"):
            resolve_engine("batched")

    def test_env_sets_context_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "traced")
        assert ExecutionContext().engine == "traced"

    def test_set_engine_stores_verbatim(self, monkeypatch):
        # set_engine records exactly what it was told (no env upgrade);
        # the upgrade applies when launches resolve.
        monkeypatch.setenv("REPRO_ENGINE", "traced")
        ctx = ExecutionContext(engine="serial")
        with using_context(ctx):
            previous = ctx.set_engine("batched")
            assert previous == "serial"
            assert ctx.engine == "batched"
            assert resolve_engine(None) == "traced"

    def test_engines_tuple(self):
        assert ENGINES == ("serial", "batched", "traced")


class TestFaultsDisableTracing:
    def test_armed_injector_suppresses_tracing(self):
        # With any injector armed the traced engine must fall back to
        # the plain interpreter: FaultPlan sites need the documented
        # chaos semantics, not replayed straight-line code.
        rng = np.random.default_rng(13)
        n = 500
        arrays = (np.zeros(n, np.float32),
                  rng.standard_normal(n).astype(np.float32))
        ctx = ExecutionContext(device=TESLA_C2070)
        with using_context(ctx):
            ctx.install_faults(FaultPlan(seed=3))
            h = KernelHarness(DIVERGENT_SRC)
            out_f, res = h(8, 64, *[a.copy() for a in arrays], n,
                           engine="traced")
            ctx.clear_faults()
        assert res.trace_records == 0
        assert res.trace_hits == 0
        assert all(v == 0 for k, v in ctx.cache_counters().items()
                   if k.startswith("trace_"))
        out_s, _ = _run(DIVERGENT_SRC, 8, 64, arrays, (n,), "serial")
        assert out_f[0].tobytes() == out_s[0].tobytes()


TM_PROBLEM = MatchProblem("sp", frame_h=60, frame_w=80, tmpl_h=16,
                          tmpl_w=12, shift_h=5, shift_w=5, n_frames=1)
TM_AXES = {"tile": [(8, 8)], "threads": [32, 64]}


def _tm_sweep(engine, jobs=1):
    # functional=True executes every block, and the matcher's barriers
    # split gangs into multiple quanta: each cell's launches replay
    # recorded traces inside the cell's own (hermetic) context.
    return harness_sweep("template_matching", TM_PROBLEM, TM_AXES,
                         seed=11, memory_bytes=8 << 20, engine=engine,
                         functional=True, jobs=jobs)


def _modeled(records):
    return [(r.index, r.config, r.seconds, r.occupancy, r.valid)
            for r in records]


class TestSweeperTraceCache:
    def test_thread_pool_reuses_traces(self):
        traced = _tm_sweep("traced", jobs=2)
        stats = traced.cache_report
        assert stats["trace_records"] > 0
        assert stats["trace_hits"] > 0
        # Modeled results match the interpreter's exactly.
        batched = _tm_sweep("batched", jobs=2)
        assert _modeled(traced.records) == _modeled(batched.records)

    def test_process_pool_counters_ship_back(self):
        traced = _tm_sweep("traced", jobs=2)
        stats = traced.cache_report
        assert stats["trace_records"] > 0
        assert stats["trace_hits"] > 0
        sequential = _tm_sweep("traced", jobs=1)
        assert _modeled(traced.records) == _modeled(sequential.records)


class TestDirtyEpochs:
    def _mem(self):
        gmem = GlobalMemory(1 << 16)
        a = gmem.alloc(256)
        b = gmem.alloc(256)
        gmem.write(a, np.full(64, 1, np.int32))
        gmem.write(b, np.full(64, 2, np.int32))
        return gmem, a, b

    def test_rollback_restores_only_what_was_noted(self):
        gmem, a, b = self._mem()
        gmem.begin_epoch()
        gmem.note_range(a - gmem._BASE, a - gmem._BASE + 256)
        gmem.write(a, np.full(64, 9, np.int32))
        gmem.write(b, np.full(64, 8, np.int32))  # unnoted: survives
        gmem.rollback_epoch()
        assert (gmem.read(a, np.int32, 64) == 1).all()
        assert (gmem.read(b, np.int32, 64) == 8).all()
        assert gmem.end_epoch() == {"allocs": 0, "wild": 0}

    def test_note_lanes_saves_per_allocation(self):
        gmem, a, b = self._mem()
        gmem.begin_epoch()
        addrs = np.array([[a, a + 64, b + 8, b + 16]], np.uint64)
        mask = np.ones_like(addrs, bool)
        gmem.note_lanes(addrs, mask, 4)
        gmem.write(a, np.full(64, 9, np.int32))
        gmem.write(b, np.full(64, 8, np.int32))
        report = gmem.end_epoch()
        assert report["allocs"] == 2
        assert report["wild"] == 0

    def test_note_lanes_masked_out_lanes_ignored(self):
        gmem, a, b = self._mem()
        gmem.begin_epoch()
        addrs = np.array([[a, b]], np.uint64)
        mask = np.array([[True, False]])
        gmem.note_lanes(addrs, mask, 4)
        assert gmem.end_epoch() == {"allocs": 1, "wild": 0}

    def test_epoch_rolls_back_new_allocations(self):
        gmem, a, b = self._mem()
        gmem.begin_epoch()
        c = gmem.alloc(128)
        gmem.write(c, np.full(32, 7, np.int32))
        gmem.rollback_epoch()
        assert c not in gmem.allocations
        # The cursor rewound and the region zeroed: a retry's fresh
        # allocation lands on the same address with clean bytes.
        assert gmem.alloc(128) == c
        assert (gmem.read(c, np.int32, 32) == 0).all()

    def test_epoch_survives_rollback_for_retry(self):
        # A retry loop rolls back and runs again under the same epoch.
        gmem, a, b = self._mem()
        gmem.begin_epoch()
        for attempt in (3, 4):
            gmem.note_range(a - gmem._BASE, a - gmem._BASE + 256)
            gmem.write(a, np.full(64, attempt, np.int32))
            if attempt == 3:
                gmem.rollback_epoch()
        assert (gmem.read(a, np.int32, 64) == 4).all()
        assert gmem.end_epoch()["allocs"] == 1

    def test_rollback_without_epoch_raises(self):
        gmem, _, _ = self._mem()
        with pytest.raises(MemoryError_):
            gmem.rollback_epoch()

    def test_end_without_epoch_is_noop(self):
        gmem, _, _ = self._mem()
        assert gmem.end_epoch() == {"allocs": 0, "wild": 0}
