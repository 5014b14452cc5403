"""Design-point ablation — global-memory vs texture-path backprojection.

The era's backprojectors read projections through the texture unit:
linear filtering replaces manual bilinear interpolation (4 loads + 7
FLOPs → 1 fetch) and the 2D-local texture cache absorbs the scattered
access pattern.  Both variants here compile specialized; the comparison
isolates the data-path choice on both device generations.
"""

import pytest

from benchmarks.common import BENCH_CACHE, DEVICES, harness_inputs, ms
from repro.apps.backprojection import Backprojector, BPConfig
from repro.apps.backprojection.problems import PROBLEMS, SCALE_NOTE
from repro.reporting import emit, format_table, speedup


def _build():
    rows = []
    for problem in PROBLEMS:
        projections = harness_inputs("backprojection", problem)
        for device in DEVICES.values():
            results = {}
            regs = {}
            for use_texture in (False, True):
                cfg = BPConfig(block_x=16, block_y=8, zb=4,
                               use_texture=use_texture,
                               functional=False, sample_blocks=2)
                bp = Backprojector(problem, cfg, device=device,
                                   cache=BENCH_CACHE)
                r = bp.run(projections)
                results[use_texture] = r.kernel_seconds
                regs[use_texture] = r.reg_count
            rows.append([
                problem.name, device.name,
                f"{ms(results[False]):.3f}", regs[False],
                f"{ms(results[True]):.3f}", regs[True],
                f"{speedup(results[False], results[True]):.2f}x"])
    return format_table(
        ["set", "device", "global (ms)", "regs", "texture (ms)",
         "regs", "tex gain"],
        rows,
        title="Ablation: global-memory vs texture-path backprojection "
              "(both specialized, zb=4)",
        note=SCALE_NOTE)


def test_texture_path(benchmark):
    text = benchmark.pedantic(_build, rounds=1, iterations=1)
    emit("ablation_texture_path", text)
    for line in text.splitlines()[3:-1]:
        cells = [c.strip() for c in line.split("|")]
        # The texture path never uses more registers.
        assert int(cells[5]) <= int(cells[3]), line
