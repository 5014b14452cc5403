"""Table 6.11 — PIV: FPGA implementation vs best GPU configuration.

The FPGA column is the deterministic pipeline model of
``repro.baselines.fpga``; the GPU column is the best (rb, threads)
sweep point per device.  Paper shape: the GPU wins most sets, by larger
margins on the bigger masks/searches; the fixed-function FPGA stays
competitive on the smallest problems.
"""

import pytest

from benchmarks.common import DEVICES, SEED, ms
from repro.apps.piv.problems import FPGA_SET, SCALE_NOTE
from repro.baselines.fpga import PIV_FPGA, fpga_piv_time
from repro.reporting import emit, format_table, speedup
from repro.tuning import best_record, harness_sweep

SWEEP_RB = [1, 4, 8]
SWEEP_THREADS = [64, 128]


def _build():
    rows = []
    for problem in FPGA_SET:
        fpga_s = fpga_piv_time(PIV_FPGA, problem.n_windows,
                               problem.mask_pixels, problem.n_offsets)
        row = [problem.name, f"{problem.mask}x{problem.mask}",
               f"{problem.offs}x{problem.offs}", f"{ms(fpga_s):.3f}"]
        for device in DEVICES:
            records = harness_sweep(
                "piv", problem, {"rb": SWEEP_RB, "threads": SWEEP_THREADS},
                device=device, seed=SEED).records
            best = best_record(records)
            row += [f"{ms(best.seconds):.3f}",
                    f"{speedup(fpga_s, best.seconds):.1f}x"]
        rows.append(row)
    return format_table(
        ["set", "mask", "offsets", "FPGA (ms)", "C1060 (ms)",
         "vs FPGA", "C2070 (ms)", "vs FPGA"],
        rows,
        title="Table 6.11: PIV — FPGA pipeline vs best GPU config",
        note=SCALE_NOTE)


def test_table_6_11(benchmark):
    text = benchmark.pedantic(_build, rounds=1, iterations=1)
    emit("table_6_11", text)
    lines = text.splitlines()[3:-1]
    # Shape: the C2070 wins on the largest sets.
    last = [c.strip() for c in lines[-1].split("|")]
    assert float(last[6]) < float(last[3])
