"""Batched engine ≡ serial oracle, plan cache, and parallel sweeps.

The batched engine's contract is bit-exactness: for any launch, device
memory, every per-warp counter, and the derived Timing must equal the
serial path's.  These tests drive both engines over kernels chosen to
hit each mechanism that could break lockstep execution: intra-warp
divergence, block-dependent control flow (gang splits), barriers,
shared/constant/texture/local memory, atomics, and sampled launches.
"""

import gc
import pickle
import weakref

import numpy as np
import pytest

from tests.helpers import KernelHarness, assert_same_launch
from repro.gpupf.cache import KernelCache
from repro.gpusim import (GPU, TESLA_C1060, TESLA_C2070,
                          clear_plan_cache, plan_for)
from repro.gpusim.engine import batch_width
from repro.kernelc import nvcc
from repro.runtime import ExecutionContext, current_context
from repro.tuning.sweep import SweepRecord, Sweeper, best_record


DIVERGENT_SRC = """
__global__ void k(float* out, const float* in, int n) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    if (gid >= n) return;
    float v = in[gid];
    float acc = 0.0f;
    for (int i = 0; i < gid % 11; ++i)   // data-dependent trip count
        acc += v * i;
    if (gid % 3 == 0) acc = -acc;        // divergent branch
    else if (gid % 3 == 1) acc += 1.0f;
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
    buf[tid] = acc;
    __syncthreads();
    if (gid < n) out[gid] = buf[blockDim.x - 1 - tid];
}
"""

BLOCK_DIVERGENT_SRC = """
__global__ void k(float* out, const float* in, int n) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    if (gid >= n) return;
    float v = in[gid];
    // Uniform within a block, different across blocks: forces the
    // gang to split into per-branch fragments.
    if (blockIdx.x % 3 == 0) {
        for (int i = 0; i < (int)blockIdx.x % 7; ++i)
            v += 0.5f;                   // per-block trip counts
    } else if (blockIdx.x % 3 == 1) {
        v *= 2.0f;
    } else {
        v = -v;
    }
    out[gid] = v;
}
"""

EXIT_SRC = """
__global__ void k(int* out, const int* in, int n) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    if (gid >= n) return;
    int v = in[gid];
    if (v < 0) { out[gid] = -1; return; }  // exit under divergence
    int acc = 0;
    for (int i = 0; i < v % 6; ++i) acc += i * v;
    out[gid] = acc;
}
"""

ATOMIC_SRC = """
__global__ void k(int* hist, const int* in, int n, int bins) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    if (gid < n) atomicAdd(&hist[in[gid] % bins], 1);
}
"""

CONST_SRC = """
__constant__ float coeff[16];
__global__ void k(float* out, const float* in, int n) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    if (gid < n) out[gid] = in[gid] * coeff[gid % 16] + coeff[0];
}
"""

TEX_SRC = """
texture<float, 2> imgTex;
__global__ void k(float* out, const float* xs, const float* ys, int n) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    if (gid < n) out[gid] = tex2D(imgTex, xs[gid], ys[gid]);
}
"""


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_divergent_branches_match(seed):
    rng = np.random.default_rng(seed)
    n = 500
    inp = rng.standard_normal(n).astype(np.float32)
    out = np.zeros(n, np.float32)
    assert_same_launch(DIVERGENT_SRC, (7,), (96,), out, inp,
                       scalars=(n,))


@pytest.mark.parametrize("block", [(64,), (48,)])
def test_barrier_and_shared_match(block):
    # 48 threads: multi-warp block with a partial second warp.
    rng = np.random.default_rng(3)
    n = 6 * block[0]
    inp = rng.standard_normal(n).astype(np.float32)
    out = np.zeros(n, np.float32)
    assert_same_launch(BARRIER_SRC, (6,), block, out, inp, scalars=(n,))


def test_block_divergent_control_flow_match():
    # Every block takes its own path: the gang must split and still
    # reproduce serial stats per block.
    rng = np.random.default_rng(4)
    n = 9 * 64
    inp = rng.standard_normal(n).astype(np.float32)
    out = np.zeros(n, np.float32)
    assert_same_launch(BLOCK_DIVERGENT_SRC, (9,), (64,), out, inp,
                       scalars=(n,))


def test_exit_under_divergence_match():
    rng = np.random.default_rng(5)
    n = 300
    inp = rng.integers(-10, 10, n).astype(np.int32)
    out = np.zeros(n, np.int32)
    assert_same_launch(EXIT_SRC, (5,), (64,), out, inp, scalars=(n,))


def test_global_atomics_match():
    rng = np.random.default_rng(6)
    n = 400
    inp = rng.integers(0, 1000, n).astype(np.int32)
    hist = np.zeros(16, np.int32)
    assert_same_launch(ATOMIC_SRC, (4,), (128,), hist, inp,
                       scalars=(n, 16))


def test_constant_memory_match():
    rng = np.random.default_rng(7)
    n = 320
    inp = rng.standard_normal(n).astype(np.float32)
    out = np.zeros(n, np.float32)
    coeff = rng.standard_normal(16).astype(np.float32)
    assert_same_launch(CONST_SRC, (5,), (64,), out, inp, scalars=(n,),
                       const={"coeff": coeff})


@pytest.mark.parametrize("filter", ["point", "linear"])
def test_texture_match(filter):
    rng = np.random.default_rng(8)
    img = rng.standard_normal((16, 16)).astype(np.float32)
    n = 256
    xs = rng.uniform(-2, 18, n).astype(np.float32)
    ys = rng.uniform(-2, 18, n).astype(np.float32)
    results = {}
    for engine in ("serial", "batched"):
        mod = nvcc(TEX_SRC, arch="sm_20")
        gpu = GPU(TESLA_C2070)
        d_img = gpu.alloc_array(img)
        gpu.bind_texture(mod, "imgTex", d_img, width=16, height=16,
                         filter=filter)
        d_xs = gpu.alloc_array(xs)
        d_ys = gpu.alloc_array(ys)
        d_out = gpu.zeros(n, np.float32)
        res = gpu.launch(mod.kernel("k"), (4,), (64,),
                         [d_out, d_xs, d_ys, n], engine=engine)
        results[engine] = (gpu.memcpy_dtoh(d_out, np.float32, n), res)
    out_s, res_s = results["serial"]
    out_b, res_b = results["batched"]
    assert out_s.tobytes() == out_b.tobytes()
    for bs, bb in zip(res_s.stats, res_b.stats):
        assert bs.warps == bb.warps
    assert res_s.timing == res_b.timing


def test_sampled_launch_match():
    # functional=False: only sampled blocks run; both engines must pick
    # and execute the same blocks with the same stats.
    rng = np.random.default_rng(9)
    n = 64 * 64
    inp = rng.standard_normal(n).astype(np.float32)
    out = np.zeros(n, np.float32)
    results = assert_same_launch(DIVERGENT_SRC, (64,), (64,), out, inp,
                                 scalars=(n,), functional=False,
                                 sample_blocks=6)
    assert results["batched"][1].blocks_executed == 6


def test_cc13_half_warp_rules_match():
    # CC 1.3 coalescing/bank rules take per-half-warp paths.
    rng = np.random.default_rng(10)
    n = 6 * 64
    inp = rng.standard_normal(n).astype(np.float32)
    out = np.zeros(n, np.float32)
    assert_same_launch(BARRIER_SRC, (6,), (64,), out, inp, scalars=(n,),
                       arch="sm_13")


def test_2d_grid_and_block_match():
    rng = np.random.default_rng(11)
    src = """
    __global__ void k(float* out, const float* in, int w, int h) {
        int x = blockIdx.x * blockDim.x + threadIdx.x;
        int y = blockIdx.y * blockDim.y + threadIdx.y;
        if (x < w && y < h) {
            float v = in[y * w + x];
            if ((x + y) % 2 == 0) v *= 3.0f;
            out[y * w + x] = v + blockIdx.y;
        }
    }
    """
    w, h = 40, 24
    inp = rng.standard_normal(w * h).astype(np.float32)
    out = np.zeros(w * h, np.float32)
    assert_same_launch(src, (3, 3), (16, 8), out, inp, scalars=(w, h))


# -- CC 1.x coalescing stat parity -------------------------------------
#
# The batched engine computes CC 1.3 half-warp transactions with the
# vectorized rule in coalescing.global_transactions_batch; these launches
# pin its counts to the scalar oracle for every addressing regime the
# rule distinguishes, end to end through device stats.


GATHER_SRC = """
__global__ void k(float* out, const float* in, const int* map) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    out[gid] = in[map[gid]];
}
"""


def _regime_map(regime, blocks, rng):
    """Per-lane gather indices for each addressing regime, per block."""
    lanes = np.arange(32)
    rows = []
    for b in range(blocks):
        base = 32 * b
        if regime == "aligned":
            rows.append(base + lanes)
        elif regime == "permuted":
            rows.append(base + rng.permutation(32))
        elif regime == "misaligned":
            rows.append(base + lanes + 1)
        elif regime == "strided2":
            rows.append(base + lanes * 2)
        elif regime == "strided4":
            rows.append(base + lanes * 4)
        elif regime == "strided32":
            rows.append(lanes * 32 + b)
        elif regime == "scattered":
            rows.append(rng.integers(0, 1024, 32))
        else:
            raise AssertionError(regime)
    return np.concatenate(rows).astype(np.int32)


@pytest.mark.parametrize("regime", ["aligned", "permuted", "misaligned",
                                    "strided2", "strided4", "strided32",
                                    "scattered"])
@pytest.mark.parametrize("arch,spec", [("sm_13", TESLA_C1060),
                                       ("sm_20", TESLA_C2070)])
def test_coalescing_regime_stat_parity(regime, arch, spec):
    from repro.gpusim.coalescing import global_transactions

    blocks = 6
    rng = np.random.default_rng(hash((regime, arch)) % 2**32)
    gather = _regime_map(regime, blocks, rng)
    inp = rng.standard_normal(1024 + 32 * 32).astype(np.float32)
    out = np.zeros(blocks * 32, np.float32)
    mod = nvcc(GATHER_SRC, arch=arch)
    per_engine = {}
    for engine in ("serial", "batched"):
        gpu = GPU(spec)
        d_out = gpu.alloc_array(out)
        d_in = gpu.alloc_array(inp)
        d_map = gpu.alloc_array(gather)
        res = gpu.launch(mod.kernel("k"), (blocks,), (32,),
                         [d_out, d_in, d_map], engine=engine)
        per_engine[engine] = (gpu.memcpy_dtoh(d_out, np.float32,
                                              out.size), res, d_in,
                              d_out, d_map)
    out_s, res_s = per_engine["serial"][:2]
    out_b, res_b, d_in, d_out, d_map = per_engine["batched"]
    assert out_s.tobytes() == out_b.tobytes()
    mask = np.ones(32, bool)
    for b, (bs, bb) in enumerate(zip(res_s.stats, res_b.stats)):
        assert bs.warps == bb.warps
        # Expected: one warp per block; its transactions are the
        # oracle's counts for the map load, the gather, and the store.
        lane_gids = b * 32 + np.arange(32)
        expect = (global_transactions(d_map + 4 * lane_gids, mask, 4,
                                      spec)
                  + global_transactions(
                      d_in + 4 * gather[lane_gids].astype(np.int64),
                      mask, 4, spec)
                  + global_transactions(d_out + 4 * lane_gids, mask, 4,
                                        spec))
        assert bb.warps[0].mem_transactions == expect
    assert res_s.timing == res_b.timing


@pytest.mark.parametrize("ctype,npdtype", [("unsigned char", np.uint8),
                                           ("unsigned short", np.uint16)])
def test_cc13_small_itemsize_segments_match(ctype, npdtype):
    # 1- and 2-byte accesses shrink the CC 1.3 segment to 32/64 bytes.
    src = f"""
    __global__ void k({ctype}* out, const {ctype}* in, const int* map) {{
        int gid = blockIdx.x * blockDim.x + threadIdx.x;
        out[gid] = in[map[gid]];
    }}
    """
    rng = np.random.default_rng(21)
    blocks = 5
    gather = _regime_map("scattered", blocks, rng)
    inp = rng.integers(0, 200, 1024 + 32 * 32).astype(npdtype)
    out = np.zeros(blocks * 32, npdtype)
    assert_same_launch(src, (blocks,), (32,), out, inp, gather,
                       arch="sm_13")


@pytest.mark.parametrize("arch", ["sm_13", "sm_20"])
def test_partial_warp_coalescing_match(arch):
    # 48-thread blocks: the second warp's upper half-warp is inactive.
    rng = np.random.default_rng(22)
    blocks = 4
    n = blocks * 48
    gather = rng.integers(0, 512, n).astype(np.int32)
    src = """
    __global__ void k(float* out, const float* in, const int* map,
                      int n) {
        int gid = blockIdx.x * blockDim.x + threadIdx.x;
        if (gid < n) out[gid] = in[map[gid]];
    }
    """
    inp = rng.standard_normal(512).astype(np.float32)
    out = np.zeros(n, np.float32)
    assert_same_launch(src, (blocks,), (48,), out, inp, gather,
                       scalars=(n,), arch=arch)


# -- ordered float atomics ---------------------------------------------
#
# Float atomicAdd is order-sensitive; the contract is that within one
# warp-instruction, member effects land in ascending block order (the
# serial order).  Single-warp blocks keep the per-block schedule
# identical in both engines, so results must be bit-exact.


SAME_ADDR_ATOMIC_SRC = """
__global__ void k(float* acc, const float* in) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    atomicAdd(&acc[0], in[gid]);
}
"""

PARTITIONED_ATOMIC_SRC = """
__global__ void k(float* acc, const float* in, int bins) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    atomicAdd(&acc[blockIdx.x % bins], in[gid]);
}
"""

CROSS_BLOCK_ATOMIC_SRC = """
__global__ void k(float* acc, const float* in, const int* bin) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    atomicAdd(&acc[bin[gid]], in[gid]);
}
"""

OLD_VALUE_ATOMIC_SRC = """
__global__ void k(float* out, float* acc, const float* in,
                  const int* bin) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    out[gid] = atomicAdd(&acc[bin[gid]], in[gid]);
}
"""


@pytest.mark.parametrize("arch", ["sm_13", "sm_20"])
def test_atomic_all_same_address_bit_exact(arch):
    rng = np.random.default_rng(30)
    blocks = 17
    vals = rng.standard_normal(blocks * 32).astype(np.float32)
    acc = np.zeros(1, np.float32)
    results = assert_same_launch(SAME_ADDR_ATOMIC_SRC, (blocks,), (32,),
                                 acc, vals, arch=arch)
    # Serial semantics: lanes retire in gid order, so the final value
    # is the exact sequential float32 fold — not a reassociated sum.
    expect = np.float32(0.0)
    for v in vals:
        expect = np.float32(expect + v)
    got = results["batched"][0][0][0]
    assert got.tobytes() == expect.tobytes()


@pytest.mark.parametrize("bins", [1, 3, 8])
def test_atomic_partitioned_bit_exact(bins):
    rng = np.random.default_rng(31)
    blocks = 13
    vals = rng.standard_normal(blocks * 32).astype(np.float32)
    acc = np.zeros(bins, np.float32)
    assert_same_launch(PARTITIONED_ATOMIC_SRC, (blocks,), (32,), acc,
                       vals, scalars=(bins,), arch="sm_13")


@pytest.mark.parametrize("arch", ["sm_13", "sm_20"])
@pytest.mark.parametrize("bins", [1, 4, 64])
def test_atomic_cross_block_bit_exact(arch, bins):
    rng = np.random.default_rng(32)
    blocks = 11
    n = blocks * 32
    vals = rng.standard_normal(n).astype(np.float32)
    bin_of = rng.integers(0, bins, n).astype(np.int32)
    acc = np.zeros(bins, np.float32)
    assert_same_launch(CROSS_BLOCK_ATOMIC_SRC, (blocks,), (32,), acc,
                       vals, bin_of, arch=arch)


@pytest.mark.parametrize("bins", [1, 4, 16])
def test_atomic_old_values_bit_exact(bins):
    # The returned pre-add snapshot encodes exactly where in the chain
    # each member's read happened; any ordering slip shows up here.
    rng = np.random.default_rng(33)
    blocks = 9
    n = blocks * 32
    vals = rng.standard_normal(n).astype(np.float32)
    bin_of = rng.integers(0, bins, n).astype(np.int32)
    acc = rng.standard_normal(bins).astype(np.float32)
    out = np.zeros(n, np.float32)
    results = {}
    for engine in ("serial", "batched"):
        h = KernelHarness(OLD_VALUE_ATOMIC_SRC)
        outs, res = h((blocks,), (32,), out.copy(), acc.copy(), vals,
                      bin_of, engine=engine)
        results[engine] = (outs, res)
    o_s, a_s = results["serial"][0][:2]
    o_b, a_b = results["batched"][0][:2]
    assert o_s.tobytes() == o_b.tobytes()
    assert a_s.tobytes() == a_b.tobytes()
    for bs, bb in zip(results["serial"][1].stats,
                      results["batched"][1].stats):
        assert bs.warps == bb.warps


def test_atomic_global_stalls_counted_equally():
    rng = np.random.default_rng(34)
    blocks = 8
    n = blocks * 32
    vals = rng.standard_normal(n).astype(np.float32)
    bin_of = rng.integers(0, 2, n).astype(np.int32)
    acc = np.zeros(2, np.float32)
    results = assert_same_launch(CROSS_BLOCK_ATOMIC_SRC, (blocks,),
                                 (32,), acc, vals, bin_of, arch="sm_13")
    stalls = [w.global_stalls
              for s in results["batched"][1].stats for w in s.warps]
    assert sum(stalls) > 0  # contended adds must register stalls


# -- gang-prototype cache ----------------------------------------------


def _counter_delta(before, *keys):
    """Growth of the current context's cache counters since *before*."""
    after = current_context().cache_counters()
    return {key: after[key] - before[key] for key in keys}


def _gang_lookups(blocks):
    """Prototype lookups of one launch of *blocks* blocks: one per gang
    batch (``REPRO_SIM_BATCH`` blocks each)."""
    return -(-blocks // batch_width())


def test_gang_proto_cached_across_launches():
    clear_plan_cache()
    h = KernelHarness(DIVERGENT_SRC)
    n = 256
    inp = np.ones(n, np.float32)
    out = np.zeros(n, np.float32)
    before = current_context().cache_counters()
    for _ in range(3):
        h((4,), (64,), out, inp, n, engine="batched")
    # The first batch builds the shape's prototype; every later batch
    # of every launch reuses it.
    hits = 3 * _gang_lookups(4) - 1
    assert _counter_delta(before, "gang_misses", "gang_hits") == \
        {"gang_misses": 1, "gang_hits": hits}
    # A different launch shape builds (and caches) its own prototype.
    h((2,), (128,), np.zeros(n, np.float32), inp, n, engine="batched")
    assert _counter_delta(before, "gang_misses", "gang_hits") == \
        {"gang_misses": 2, "gang_hits": hits + _gang_lookups(2) - 1}
    clear_plan_cache()


# -- plan cache --------------------------------------------------------


def test_plan_cache_hits_and_eviction():
    clear_plan_cache()
    ctx = current_context()
    before = ctx.cache_counters()
    mod = nvcc(DIVERGENT_SRC, arch="sm_20")
    ir = mod.kernel("k").ir
    p1 = plan_for(ir, TESLA_C2070)
    p2 = plan_for(ir, TESLA_C2070)
    assert p1 is p2
    assert plan_for(ir, TESLA_C1060) is not p1  # per-device plans
    assert _counter_delta(before, "plan_hits", "plan_misses") == \
        {"plan_hits": 1, "plan_misses": 2}
    assert len(ctx.plan_cache) == 2
    del p1, p2, ir, mod
    gc.collect()
    assert len(ctx.plan_cache) == 0  # weakly held
    clear_plan_cache()


def test_plan_cache_does_not_pin_its_context():
    # IR shared through a kernel cache outlives the context that
    # planned it; the eviction finalizer must not keep that context's
    # plans (and the gang prototypes and traces riding them) alive.
    cache = KernelCache()
    ctx = ExecutionContext(kernel_cache=cache)
    ir = cache.compile(DIVERGENT_SRC, arch="sm_20").kernel("k").ir
    plan = weakref.ref(plan_for(ir, TESLA_C2070, ctx=ctx))
    dead_ctx = weakref.ref(ctx)
    del ctx
    gc.collect()
    assert dead_ctx() is None
    assert plan() is None
    assert ir is cache.compile(DIVERGENT_SRC, arch="sm_20").kernel("k").ir


def test_launch_reuses_plan():
    clear_plan_cache()
    h = KernelHarness(DIVERGENT_SRC)
    n = 128
    inp = np.ones(n, np.float32)
    out = np.zeros(n, np.float32)
    before = current_context().cache_counters()
    for _ in range(3):
        h((2,), (64,), out, inp, n)
    assert _counter_delta(before, "plan_misses", "plan_hits") == \
        {"plan_misses": 1, "plan_hits": 2}
    clear_plan_cache()


# -- tuning: parallel sweeps and deterministic optima ------------------


def _sweep_run(config):
    h = KernelHarness(DIVERGENT_SRC)
    n = 64 * config["blocks"]
    inp = np.linspace(-1, 1, n).astype(np.float32)
    out = np.zeros(n, np.float32)
    _, res = h((config["blocks"],), (64,), out, inp, n)
    return SweepRecord(config=config, seconds=res.seconds)


def test_sweeper_jobs_deterministic():
    configs = [{"blocks": b} for b in (1, 2, 3, 4, 5, 6)]
    serial_records = Sweeper(_sweep_run).sweep(configs)
    for _ in range(2):
        records = Sweeper(_sweep_run, jobs=2).sweep(configs)
        assert [r.config for r in records] == \
            [r.config for r in serial_records]
        assert [r.seconds for r in records] == \
            [r.seconds for r in serial_records]


def test_sweeper_cache_report_attributes_reuse():
    from repro.runtime.context import using_context

    def run(config):
        n = 64 * 4
        inp = np.linspace(-1, 1, n).astype(np.float32)
        out = np.zeros(n, np.float32)
        _, res = h((4,), (64,), out, inp, n, engine="batched")
        return SweepRecord(config=config, seconds=res.seconds)

    sweeper = Sweeper(run)
    # The harness captures the ambient context at construction; build
    # it under the sweep's context so its launches are charged there.
    with using_context(sweeper.ctx):
        h = KernelHarness(DIVERGENT_SRC)
    sweeper.sweep([{"i": i} for i in range(4)])
    report = sweeper.cache_report
    # One compile/shape, four launches: everything after the first is
    # a cache hit in both the plan and gang-prototype caches.  The
    # context is private to this sweep, so the counts are exact even
    # with other tests (or sweeps) running in the same process.
    assert report["plan_misses"] == 1 and report["plan_hits"] == 3
    assert report["gang_misses"] == 1
    assert report["gang_hits"] == 4 * _gang_lookups(4) - 1


def _boom_at_2(config):
    if config["n"] == 2:
        raise RuntimeError("boom")
    return SweepRecord(config=config, seconds=float(config["n"]))


def test_sweeper_jobs_captures_failures():
    records = Sweeper(_boom_at_2, jobs=3).sweep([{"n": i} for i in range(4)])
    assert [r.valid for r in records] == [True, True, False, True]
    assert "boom" in records[2].error


def test_best_record_tie_break_deterministic():
    records = [SweepRecord(config={"x": x}, seconds=1.0)
               for x in (3, 1, 2)]
    assert best_record(records).config == {"x": 1}
    assert best_record(list(reversed(records))).config == {"x": 1}


# -- disk cache format guard -------------------------------------------


def test_disk_cache_version_guard(tmp_path):
    cache = KernelCache(disk_dir=str(tmp_path))
    mod = cache.compile(DIVERGENT_SRC)
    assert cache.misses == 1
    entries = list(tmp_path.glob("*.mod"))
    assert len(entries) == 1
    with open(entries[0], "rb") as fh:
        version, payload = pickle.load(fh)
    assert isinstance(version, int)

    # A fresh cache loads the entry from disk without recompiling.
    cache2 = KernelCache(disk_dir=str(tmp_path))
    cache2.compile(DIVERGENT_SRC)
    assert cache2.hits == 1 and cache2.misses == 0

    # A stale-format entry (legacy layout: bare module pickle) is
    # ignored and recompiled in place.
    with open(entries[0], "wb") as fh:
        pickle.dump(payload, fh)
    cache3 = KernelCache(disk_dir=str(tmp_path))
    cache3.compile(DIVERGENT_SRC)
    assert cache3.misses == 1
    with open(entries[0], "rb") as fh:
        version2, _ = pickle.load(fh)
    assert version2 == version  # rewritten in the current format
