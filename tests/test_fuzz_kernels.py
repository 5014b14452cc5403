"""Seeded random-kernel differential fuzzing: batched ≡ serial.

:mod:`tests.test_fuzz_expressions` fuzzes straight-line arithmetic;
this suite fuzzes whole kernels in the Csmith style — loops with
data-dependent trip counts, divergent branches, shared round-trips
through barriers, global loads with random strides and alignments, and
atomics — and demands the batched engine reproduce the serial oracle's
device memory, per-warp stats, and cycle counts on both device
generations.

Generation is seeded and fully deterministic, so any failure is
reproducible from its test id alone.

Two documented engine semantics bound what the generator may emit:
cross-block ordering is only defined *within* one warp-instruction, so
at most one float-atomic statement targets the accumulator buffer; and
the engines interleave warps of multi-warp blocks differently, so
order-sensitive float atomics are only generated for 32-thread blocks.
Integer atomics are exact under any ordering and are unrestricted.
"""

import numpy as np
import pytest

from tests.helpers import assert_same_launch

SIG = ("__global__ void k(float* out, float* acc, int* ihist,\n"
       "                  const float* in, const int* idx, int n)")


def _gen_kernel(rng):
    """One random kernel + its launch shape, drawn from *rng*."""
    threads = int(rng.choice([32, 48, 64, 128]))
    blocks = int(rng.integers(3, 8))
    total = blocks * threads
    n = total - int(rng.integers(0, threads))  # ragged tail
    bins = int(rng.choice([1, 4, 16]))
    use_shared = bool(rng.random() < 0.5)
    # An early return would leave lanes exited at __syncthreads().
    guard = (not use_shared) and bool(rng.random() < 0.5)
    body = ["    int tid = threadIdx.x;",
            "    int gid = blockIdx.x * blockDim.x + tid;"]
    if guard:
        body.append("    if (gid >= n) return;")
    body.append("    float v = in[gid % n];")
    kinds = ["load", "loop", "branch", "iatomic"]
    if use_shared:
        kinds.append("shared")
    if threads == 32:
        kinds.append("fatomic")
    emitted = set()
    for _ in range(int(rng.integers(2, 5))):
        kind = str(rng.choice(kinds))
        if kind == "load":
            stride = int(rng.choice([1, 2, 3, 4, 32]))
            align = int(rng.integers(0, 8))
            body.append(
                f"    v += in[(gid * {stride} + {align}) % n];")
        elif kind == "loop":
            trip = int(rng.choice([3, 5, 7, 11]))
            body.append(
                f"    for (int i = 0; i < gid % {trip}; ++i)\n"
                f"        v += 0.25f * i + in[(gid + i) % n];")
        elif kind == "branch":
            mod = int(rng.choice([2, 3, 5]))
            arm = int(rng.integers(0, mod))
            body.append(f"    if (gid % {mod} == {arm}) v = -v;\n"
                        f"    else v += 1.0f;")
        elif kind == "iatomic":
            body.append(
                f"    atomicAdd(&ihist[idx[gid % n] % {bins}], 1);")
        elif kind == "shared" and "shared" not in emitted:
            emitted.add("shared")
            stride = int(rng.choice([1, 2, 3, 17]))
            align = int(rng.integers(0, 8))
            body.append(
                "    buf[tid] = v;\n"
                "    __syncthreads();\n"
                f"    v += buf[(tid * {stride} + {align}) "
                f"% {threads}];\n"
                "    __syncthreads();")
        elif kind == "fatomic" and "fatomic" not in emitted:
            emitted.add("fatomic")
            body.append(
                f"    atomicAdd(&acc[idx[gid % n] % {bins}], v);")
    body.append("    out[gid] = v;")
    decls = ([f"    __shared__ float buf[{threads}];"]
             if use_shared else [])
    src = SIG + " {\n" + "\n".join(decls + body) + "\n}\n"
    return src, blocks, threads, n, bins


@pytest.mark.parametrize("arch", ["sm_13", "sm_20"])
@pytest.mark.parametrize("seed", range(10))
def test_random_kernel_matches_serial(seed, arch):
    src, blocks, threads, n, bins = _gen_kernel(
        np.random.default_rng(seed))
    data = np.random.default_rng(10_000 + seed)
    total = blocks * threads
    inp = data.standard_normal(total).astype(np.float32)
    idx = data.integers(0, 1000, total).astype(np.int32)
    out = np.zeros(total, np.float32)
    acc = np.zeros(bins, np.float32)
    ihist = np.zeros(bins, np.int32)
    assert_same_launch(src, (blocks,), (threads,), out, acc, ihist,
                       inp, idx, scalars=(n,), arch=arch)


@pytest.mark.parametrize("seed", range(4))
def test_random_kernel_sampled_launch_matches(seed):
    # Same fuzz grammar, but functional=False: the sampled picks and
    # gang batching of representative blocks must agree too.
    src, blocks, threads, n, bins = _gen_kernel(
        np.random.default_rng(100 + seed))
    data = np.random.default_rng(20_000 + seed)
    total = blocks * threads
    inp = data.standard_normal(total).astype(np.float32)
    idx = data.integers(0, 1000, total).astype(np.int32)
    out = np.zeros(total, np.float32)
    acc = np.zeros(bins, np.float32)
    ihist = np.zeros(bins, np.int32)
    assert_same_launch(src, (blocks,), (threads,), out, acc, ihist,
                       inp, idx, scalars=(n,), functional=False,
                       sample_blocks=3)


@pytest.mark.parametrize("sample_blocks", [1, 2])
@pytest.mark.parametrize("seed", range(4))
def test_random_kernel_narrow_sampled_launch_matches(seed, sample_blocks):
    # The gang widths tuning runs: one- and two-block sampled launches.
    src, blocks, threads, n, bins = _gen_kernel(
        np.random.default_rng(200 + seed))
    data = np.random.default_rng(30_000 + seed)
    total = blocks * threads
    inp = data.standard_normal(total).astype(np.float32)
    idx = data.integers(0, 1000, total).astype(np.int32)
    out = np.zeros(total, np.float32)
    acc = np.zeros(bins, np.float32)
    ihist = np.zeros(bins, np.int32)
    results = assert_same_launch(src, (blocks,), (threads,), out, acc,
                                 ihist, inp, idx, scalars=(n,),
                                 functional=False,
                                 sample_blocks=sample_blocks)
    assert results["batched"][1].blocks_executed == sample_blocks
