"""Table 6.20 — occupancy and execution data, C1060, PIV V2 set.

For a spread of (rb, threads) configurations of the specialized PIV
kernel on the V2 problem: per-thread registers, shared memory,
blocks/SM, occupancy, the limiting resource, and measured time.  The
dissertation's point (§6.3, after Volkov): maximum performance does
*not* coincide with maximum occupancy — resource-heavy low-thread
blocks with high ILP can win.
"""

import pytest

from benchmarks.common import BENCH_CACHE, harness_inputs, ms
from repro.apps.piv import PIVConfig, PIVProcessor
from repro.apps.piv.problems import MASK_SET, SCALE_NOTE
from repro.gpusim import TESLA_C1060
from repro.gpusim.occupancy import occupancy
from repro.reporting import emit, format_table

V2 = MASK_SET[1]
CONFIGS = [(1, 64), (1, 256), (4, 64), (4, 128), (8, 32), (8, 64)]


def _build():
    img_a, img_b = harness_inputs("piv", V2)
    rows = []
    measured = {}
    for rb, threads in CONFIGS:
        cfg = PIVConfig(variant="tree", rb=rb, threads=threads,
                        specialize=True, functional=False,
                        sample_blocks=2)
        proc = PIVProcessor(V2, cfg, device=TESLA_C1060,
                            cache=BENCH_CACHE)
        result = proc.run(img_a, img_b)
        occ = occupancy(TESLA_C1060, threads,
                        proc.kernel.reg_count,
                        proc.kernel.shared_bytes)
        measured[(rb, threads)] = result.kernel_seconds
        rows.append([
            f"rb={rb}", threads, proc.kernel.reg_count,
            proc.kernel.shared_bytes, occ.blocks_per_sm,
            f"{occ.fraction(TESLA_C1060):.2f}", occ.limited_by,
            f"{ms(result.kernel_seconds):.3f}"])
    return format_table(
        ["config", "threads", "regs/thr", "smem (B)", "blocks/SM",
         "occupancy", "limited by", "time (ms)"],
        rows,
        title="Table 6.20: occupancy and execution data — C1060, "
              "PIV V2 set",
        note=SCALE_NOTE), measured


def test_table_6_20(benchmark):
    text, measured = benchmark.pedantic(_build, rounds=1, iterations=1)
    emit("table_6_20", text)
    # Shape: the fastest configuration is not the max-occupancy one.
    best = min(measured, key=measured.get)
    assert best != (1, 256), "peak should not sit at max occupancy"
