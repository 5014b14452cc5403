"""Shared / constant / local memory, atomics, and dirty epochs."""

import numpy as np
import pytest

from repro.gpusim.executor import SimError
from repro.gpusim.memory import GlobalMemory, MemoryError_
from tests.helpers import KernelHarness, run_kernel

rng = np.random.default_rng(11)

REDUCE_SRC = """
__global__ void reduce(const float* in, float* out, int n) {
    __shared__ float sdata[BLOCK];
    unsigned int tid = threadIdx.x;
    unsigned int i = blockIdx.x * blockDim.x + threadIdx.x;
    sdata[tid] = i < n ? in[i] : 0.0f;
    __syncthreads();
    for (unsigned int s = BLOCK / 2; s > 0; s >>= 1) {
        if (tid < s) sdata[tid] += sdata[tid + s];
        __syncthreads();
    }
    if (tid == 0) out[blockIdx.x] = sdata[0];
}
"""


class TestSharedMemory:
    def test_block_reduction_tree(self):
        """The §2.2 in-block parallel reduction, exact for integers."""
        n = 1000
        x = rng.integers(0, 100, n).astype(np.float32)
        blocks = (n + 127) // 128
        out = np.zeros(blocks, np.float32)
        (_, out_), _ = run_kernel(REDUCE_SRC, blocks, 128, x, out, n,
                                  defines={"BLOCK": 128})
        expected = [x[b * 128:(b + 1) * 128].sum() for b in range(blocks)]
        np.testing.assert_allclose(out_, expected, rtol=1e-6)

    @pytest.mark.parametrize("block", [32, 64, 256, 512])
    def test_reduction_various_block_sizes(self, block):
        n = block * 3
        x = rng.integers(0, 10, n).astype(np.float32)
        out = np.zeros(3, np.float32)
        (_, out_), _ = run_kernel(REDUCE_SRC, 3, block, x, out, n,
                                  defines={"BLOCK": block})
        expected = x.reshape(3, block).sum(axis=1)
        np.testing.assert_allclose(out_, expected, rtol=1e-6)

    def test_shared_transpose_tile(self):
        src = """
        __global__ void tr(const float* in, float* out, int w) {
            __shared__ float tile[8][?];
            0;
        }
        """
        # 2D shared arrays are not part of the subset; flat + manual
        # indexing (as the dissertation's kernels do) is the idiom:
        src = """
        __global__ void tr(const float* in, float* out, int w) {
            __shared__ float tile[64];
            int x = threadIdx.x; int y = threadIdx.y;
            tile[y * 8 + x] = in[(blockIdx.y * 8 + y) * w
                                 + blockIdx.x * 8 + x];
            __syncthreads();
            out[(blockIdx.x * 8 + y) * w + blockIdx.y * 8 + x]
                = tile[x * 8 + y];
        }
        """
        w = 16
        a = rng.random((w, w)).astype(np.float32)
        out = np.zeros((w, w), np.float32)
        (_, out_), _ = run_kernel(src, (2, 2), (8, 8), a, out, w)
        np.testing.assert_array_equal(out_, a.T)

    def test_shared_bank_conflict_counted(self):
        """Stride-16 access on CC1.3 (16 banks) must cost replays."""
        conflict_src = """
        __global__ void k(float* out) {
            __shared__ float buf[512];
            int t = threadIdx.x;
            buf[t * 16] = (float)t;
            __syncthreads();
            out[t] = buf[t * 16];
        }
        """
        clean_src = conflict_src.replace("* 16", "* 1")
        h_bad = KernelHarness(conflict_src, arch="sm_13")
        h_ok = KernelHarness(clean_src, arch="sm_13")
        out = np.zeros(32, np.float32)
        _, res_bad = h_bad(1, 32, out)
        _, res_ok = h_ok(1, 32, out)
        assert res_bad.timing.cycles > res_ok.timing.cycles

    def test_two_shared_arrays_do_not_alias(self):
        src = """
        __global__ void two(int* out) {
            __shared__ int a[32];
            __shared__ int b[32];
            int t = threadIdx.x;
            a[t] = t; b[t] = 100 + t;
            __syncthreads();
            out[t] = a[t] + b[t];
        }
        """
        out = np.zeros(32, np.int32)
        (out_,), _ = run_kernel(src, 1, 32, out)
        np.testing.assert_array_equal(out_, np.arange(32) * 2 + 100)


class TestConstantMemory:
    def test_constant_filter(self):
        src = """
        __constant__ float coeffs[8];
        __global__ void conv(const float* in, float* out, int n,
                             int taps) {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i >= n) return;
            float acc = 0.0f;
            for (int k = 0; k < taps; k++) acc += in[i + k] * coeffs[k];
            out[i] = acc;
        }
        """
        taps = 5
        n = 100
        x = rng.random(n + taps).astype(np.float32)
        c = rng.random(8).astype(np.float32)
        out = np.zeros(n, np.float32)
        (_, out_), _ = run_kernel(src, 4, 32, x, out, n, taps,
                                  const={"coeffs": c})
        expected = np.array(
            [np.dot(x[i : i + taps], c[:taps]) for i in range(n)],
            dtype=np.float32)
        np.testing.assert_allclose(out_, expected, rtol=1e-5)

    def test_constant_size_must_be_static(self):
        """§2.4: constant memory size is fixed at compile time; with
        specialization the ceiling becomes adjustable per problem."""
        src = """
        __constant__ float coeffs[TAPS];
        __global__ void k(float* out) { out[0] = coeffs[0]; }
        """
        h = KernelHarness(src, defines={"TAPS": 16})
        decl = h.module.ir.const_globals["coeffs"]
        assert decl.count == 16

    def test_unknown_symbol_raises(self):
        src = "__global__ void k(float* o) { o[0] = 1.0f; }"
        h = KernelHarness(src)
        with pytest.raises(SimError):
            h.gpu.memcpy_to_symbol(h.module, "nope",
                                   np.zeros(4, np.float32))


class TestAtomics:
    def test_atomic_histogram(self):
        src = """
        __global__ void hist(const int* data, int* bins, int n) {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i < n) atomicAdd(&bins[data[i]], 1);
        }
        """
        n = 1024
        data = rng.integers(0, 16, n, dtype=np.int32)
        bins = np.zeros(16, np.int32)
        (_, bins_), _ = run_kernel(src, 8, 128, data, bins, n)
        np.testing.assert_array_equal(bins_, np.bincount(data,
                                                         minlength=16))

    def test_atomic_add_float(self):
        src = """
        __global__ void acc(const float* x, float* total, int n) {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i < n) atomicAdd(total, x[i]);
        }
        """
        x = rng.random(256).astype(np.float32)
        total = np.zeros(1, np.float32)
        (_, total_), _ = run_kernel(src, 2, 128, x, total, 256)
        np.testing.assert_allclose(total_[0], x.sum(), rtol=1e-4)


class TestLocalMemory:
    def test_dynamic_indexed_local_array(self):
        """A locally indexed array that cannot be scalarized."""
        src = """
        __global__ void rot(const int* x, int* out, int n, int shift) {
            int buf[8];
            int i = threadIdx.x;
            for (int k = 0; k < 8; k++) buf[k] = x[i * 8 + k];
            for (int k = 0; k < 8; k++)
                out[i * 8 + k] = buf[(k + shift) % 8];
        }
        """
        x = rng.integers(0, 100, 4 * 8, dtype=np.int32)
        out = np.zeros(4 * 8, np.int32)
        (_, out_), _ = run_kernel(src, 1, 4, x, out, 4, 3)
        expected = np.roll(x.reshape(4, 8), -3, axis=1).reshape(-1)
        np.testing.assert_array_equal(out_, expected)


class TestBoundsChecking:
    def test_out_of_bounds_global_read(self):
        src = """
        __global__ void oob(float* p) { p[0] = p[1 << 30]; }
        """
        with pytest.raises(MemoryError_):
            run_kernel(src, 1, 1, np.zeros(4, np.float32))

    def test_shared_overflow(self):
        src = """
        __global__ void so(float* o) {
            __shared__ float b[16];
            b[threadIdx.x * 100] = 1.0f;
            o[0] = b[0];
        }
        """
        with pytest.raises(MemoryError_):
            run_kernel(src, 1, 32, np.zeros(4, np.float32))


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
