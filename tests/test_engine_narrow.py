"""Batched ≡ serial at the gang widths production launches run.

Every production launch runs the gang interpreter, and the gated
workloads run it narrow: a tuning evaluation is a sampled launch of two
blocks, and sub-warp blocks (4x4 threads) split to one-member gangs.
These cases demand, at one and two members, what the wide suites
demand at many: bit-identical device memory, every ``WarpStats`` field
equal, and ``issue_cycles`` equal to the last bit.  Each case also
checks that the batched launch really ran the gang interpreter (it
charges a gang-prototype lookup) while the serial one did not.
"""

import dataclasses

import numpy as np
import pytest

from tests.helpers import KernelHarness
from tests.test_engine_batched import (ATOMIC_SRC, BARRIER_SRC,
                                       BLOCK_DIVERGENT_SRC, CONST_SRC,
                                       DIVERGENT_SRC, EXIT_SRC)
from repro.gpusim import TESLA_C2070
from repro.runtime import ExecutionContext, using_context

#: Non-dyadic issue costs make every float64 ``issue_cycles`` chain
#: order-sensitive (the shipped devices' integral costs add exactly in
#: any order), so a reordered add shows up as a bit difference.
FRACTIONAL = dataclasses.replace(
    TESLA_C2070, name="Tesla C2070 (fractional costs)",
    issue_cost={k: v + 0.1 for k, v in TESLA_C2070.issue_cost.items()},
    mem_issue_cost=1.3)

#: Exit inside divergent code, with block-dependent early exits so the
#: sampled members of a 2-block gang leave at different points.
EXIT_2D_SRC = """
__global__ void k(int* out, const int* in, int n) {
    int tid = threadIdx.y * blockDim.x + threadIdx.x;
    int bid = blockIdx.y * gridDim.x + blockIdx.x;
    int gid = bid * blockDim.x * blockDim.y + tid;
    if (gid >= n) return;
    int v = in[gid];
    if (tid % 3 == 0) {
        if (v < 0) return;               // exit under divergence
        if (bid % 2 == 1 && v < 4) return;
        v = v * 2;
    }
    for (int i = 0; i < v % 5; ++i) v += i;
    out[gid] = v;
}
"""


def _gang_lookups(ctx) -> int:
    counters = ctx.cache_counters()
    return counters["gang_hits"] + counters["gang_misses"]


def _run(engine, src, grid, block, arrays, scalars, spec, **launch):
    ctx = ExecutionContext(name=f"narrow-{engine}")
    with using_context(ctx):
        harness = KernelHarness(src, spec=spec)
        args = [a.copy() for a in arrays] + list(scalars)
        outputs, result = harness(grid, block, *args, engine=engine,
                                  **launch)
    return outputs, result, _gang_lookups(ctx)


def assert_bit_exact(src, grid, block, *arrays, scalars=(), spec=None,
                     **launch):
    """Serial and batched agree on memory and every stat, bit for bit."""
    out_s, res_s, gang_s = _run("serial", src, grid, block, arrays,
                                scalars, spec, **launch)
    out_b, res_b, gang_b = _run("batched", src, grid, block, arrays,
                                scalars, spec, **launch)
    assert gang_s == 0
    assert gang_b >= 1, "the batched launch did not run the gang engine"
    for a, b in zip(out_s, out_b):
        assert a.tobytes() == b.tobytes()
    assert res_s.blocks_executed == res_b.blocks_executed
    for bs, bb in zip(res_s.stats, res_b.stats):
        assert len(bs.warps) == len(bb.warps)
        for ws, wb in zip(bs.warps, bb.warps):
            assert dataclasses.asdict(ws) == dataclasses.asdict(wb)
            assert ws.issue_cycles.hex() == wb.issue_cycles.hex()
    assert res_s.timing == res_b.timing
    return res_b


def _floats(n, seed):
    return np.random.default_rng(seed).standard_normal(n) \
        .astype(np.float32)


@pytest.mark.parametrize("block", [(64,), (48,), (32,)])
def test_single_block_divergent(block):
    n = block[0] - 5
    assert_bit_exact(DIVERGENT_SRC, (1,), block,
                     np.zeros(n, np.float32), _floats(n, 1),
                     scalars=(n,))


def test_single_block_barrier_and_shared():
    n = 64
    assert_bit_exact(BARRIER_SRC, (1,), (64,), np.zeros(n, np.float32),
                     _floats(n, 2), scalars=(n,))


def test_single_block_atomics():
    n = 96
    inp = np.random.default_rng(3).integers(0, 1000, n).astype(np.int32)
    assert_bit_exact(ATOMIC_SRC, (1,), (96,), np.zeros(8, np.int32),
                     inp, scalars=(n, 8))


def test_single_block_constant_memory():
    n = 64
    h_const = {"coeff": _floats(16, 4)}
    assert_bit_exact(CONST_SRC, (1,), (64,), np.zeros(n, np.float32),
                     _floats(n, 5), scalars=(n,), const=h_const)


@pytest.mark.parametrize("grid", [(1,), (2,)])
def test_exit_under_divergence(grid):
    n = grid[0] * 64 - 7
    inp = np.random.default_rng(6).integers(-10, 10, n).astype(np.int32)
    assert_bit_exact(EXIT_SRC, grid, (64,), np.zeros(n, np.int32), inp,
                     scalars=(n,))


@pytest.mark.parametrize("grid", [(1, 1), (2, 1)])
def test_exit_under_divergence_sub_warp_blocks(grid):
    n = grid[0] * grid[1] * 16
    inp = np.random.default_rng(7).integers(-6, 12, n).astype(np.int32)
    assert_bit_exact(EXIT_2D_SRC, grid, (4, 4), np.zeros(n, np.int32),
                     inp, scalars=(n,))


@pytest.mark.parametrize("src", [BLOCK_DIVERGENT_SRC, DIVERGENT_SRC],
                         ids=["block-divergent", "divergent"])
def test_two_block_sampled_launch(src):
    # The tuning shape: functional=False, sample_blocks=2.
    n = 40 * 64
    res = assert_bit_exact(src, (40,), (64,), np.zeros(n, np.float32),
                           _floats(n, 8), scalars=(n,), functional=False,
                           sample_blocks=2)
    assert res.blocks_executed == 2


def test_two_block_sampled_sub_warp_blocks():
    # 4x4-thread blocks, as backprojection's smallest tuning config:
    # per-block exits split the 2-member gang to one member each.
    grid = (5, 4)
    n = 5 * 4 * 16
    inp = np.random.default_rng(9).integers(-6, 12, n).astype(np.int32)
    res = assert_bit_exact(EXIT_2D_SRC, grid, (4, 4),
                           np.zeros(n, np.int32), inp, scalars=(n,),
                           functional=False, sample_blocks=2)
    assert res.blocks_executed == 2


@pytest.mark.parametrize("grid", [(1,), (2,), (40,)])
@pytest.mark.parametrize("src", [DIVERGENT_SRC, BARRIER_SRC, CONST_SRC],
                         ids=["divergent", "barrier", "const"])
def test_fractional_costs_fold_in_order(src, grid):
    # One, two and 40 members: the queued uniform costs fold as a
    # Python float chain for small gangs and as np.add.accumulate for
    # wide ones; both must match the serial one-add-at-a-time chain.
    n = grid[0] * 64
    const = {"coeff": _floats(16, 11)} if src is CONST_SRC else None
    assert_bit_exact(src, grid, (64,), np.zeros(n, np.float32),
                     _floats(n, 10), scalars=(n,), spec=FRACTIONAL,
                     const=const)
