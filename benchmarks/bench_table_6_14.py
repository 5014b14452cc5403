"""Table 6.14 — PIV kernel variants across the FPGA benchmark set.

Four variants per problem: {tree reduction, warp-specialized} × {RE,
SK}, at a common mid-range configuration on the C2070.  Paper shape:
specialization helps both reduction strategies, and warp specialization
removes the reduction bottleneck (Figure 5.12), beating the tree.
"""

import pytest

from benchmarks.common import BENCH_CACHE, harness_inputs, ms
from repro.apps.piv import PIVConfig, PIVProcessor
from repro.apps.piv.problems import FPGA_SET, SCALE_NOTE
from repro.gpusim import TESLA_C2070
from repro.reporting import emit, format_table

RB, THREADS = 4, 128


def _run(problem, img_a, img_b, variant, specialize):
    cfg = PIVConfig(variant=variant, rb=RB, threads=THREADS,
                    specialize=specialize, functional=False,
                    sample_blocks=2)
    proc = PIVProcessor(problem, cfg, device=TESLA_C2070,
                        cache=BENCH_CACHE)
    result = proc.run(img_a, img_b)
    return result


def _build():
    rows = []
    for problem in FPGA_SET:
        img_a, img_b = harness_inputs("piv", problem)
        results = {}
        for variant in ("tree", "warpspec"):
            for specialize in (False, True):
                results[(variant, specialize)] = _run(
                    problem, img_a, img_b, variant, specialize)
        tree_re = results[("tree", False)].kernel_seconds
        tree_sk = results[("tree", True)].kernel_seconds
        warp_re = results[("warpspec", False)].kernel_seconds
        warp_sk = results[("warpspec", True)].kernel_seconds
        rows.append([
            problem.name, f"{problem.mask}x{problem.mask}",
            f"{problem.offs}x{problem.offs}",
            f"{ms(tree_re):.3f}", f"{ms(tree_sk):.3f}",
            f"{ms(warp_re):.3f}", f"{ms(warp_sk):.3f}",
            f"{tree_re / tree_sk:.2f}x",
            f"{tree_sk / warp_sk:.2f}x"])
    return format_table(
        ["set", "mask", "offsets", "tree RE (ms)", "tree SK (ms)",
         "warp RE (ms)", "warp SK (ms)", "SK gain", "warp-spec gain"],
        rows,
        title="Table 6.14: PIV kernel variants on the FPGA benchmark "
              f"set (C2070, rb={RB}, {THREADS} threads)",
        note=SCALE_NOTE)


def test_table_6_14(benchmark):
    text = benchmark.pedantic(_build, rounds=1, iterations=1)
    emit("table_6_14", text)
    for line in text.splitlines()[3:-1]:
        cells = [c.strip() for c in line.split("|")]
        # Specialization never loses within a variant.
        assert float(cells[4]) <= float(cells[3]) * 1.001, line
        assert float(cells[6]) <= float(cells[5]) * 1.001, line
