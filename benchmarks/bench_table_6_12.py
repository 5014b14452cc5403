"""Table 6.12 — backprojection: OpenMP CPU (4 threads) vs both GPUs.

Paper shape: both GPUs are an order of magnitude ahead of the CPU; the
C2070's higher throughput puts it in front.
"""

import pytest

from benchmarks.common import DEVICES, SEED, ms
from repro.apps.backprojection import cpu_backproject_seconds
from repro.apps.backprojection.problems import (BLOCK_SHAPES, PROBLEMS,
                                                SCALE_NOTE, ZB_VALUES)
from repro.reporting import emit, format_table, speedup
from repro.tuning import best_record, harness_sweep

SWEEP_BLOCKS = [(16, 8), (16, 16)]
SWEEP_ZB = [2, 4]


def _build():
    from repro.apps.backprojection import BPProblem

    rows = []
    # B3: a larger volume (single configuration, no sweep) to show the
    # speedup growing toward the paper's order of magnitude with size.
    big = BPProblem("B3", nx=96, ny=96, nz=64, n_proj=48, det_u=128,
                    det_v=96)
    for problem in list(PROBLEMS) + [big]:
        cpu_s = cpu_backproject_seconds(problem.nx, problem.ny,
                                        problem.nz, problem.n_proj)
        row = [problem.name,
               f"{problem.nx}x{problem.ny}x{problem.nz}",
               problem.n_proj, f"{ms(cpu_s):.3f}"]
        blocks = SWEEP_BLOCKS if problem.name != "B3" else [(16, 16)]
        zbs = SWEEP_ZB if problem.name != "B3" else [4]
        for device in DEVICES:
            records = harness_sweep(
                "backprojection", problem, {"block": blocks, "zb": zbs},
                device=device, seed=SEED).records
            best = best_record(records)
            row += [f"{ms(best.seconds):.3f}",
                    f"{speedup(cpu_s, best.seconds):.1f}x"]
        rows.append(row)
    return format_table(
        ["set", "volume", "projections", "CPU OpenMP (ms)",
         "C1060 (ms)", "speedup", "C2070 (ms)", "speedup"],
        rows,
        title="Table 6.12: backprojection — OpenMP CPU vs best GPU",
        note=SCALE_NOTE)


def test_table_6_12(benchmark):
    text = benchmark.pedantic(_build, rounds=1, iterations=1)
    emit("table_6_12", text)
    for line in text.splitlines()[3:-1]:
        cells = [c.strip() for c in line.split("|")]
        assert float(cells[4]) < float(cells[3]), line
        assert float(cells[6]) < float(cells[3]), line
