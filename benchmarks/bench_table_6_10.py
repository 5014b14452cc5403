"""Table 6.10 — template matching: multithreaded-C CPU vs best GPU.

For each full-size patient (Table 5.1 dimensions), a small tile/thread
sweep finds the best specialized GPU configuration per device; timing
uses sampled launches so only representative blocks execute.  The CPU
column is the calibrated four-thread model.  The paper's shape: both
GPUs beat the CPU by an order of magnitude, the C2070 ahead of the
C1060.
"""

import pytest

from benchmarks.common import DEVICES, SEED, ms
from repro.apps.template_matching import cpu_match_seconds
from repro.apps.template_matching.problems import PATIENTS_FULL
from repro.reporting import emit, format_table, speedup
from repro.tuning import best_record, harness_sweep

SWEEP_TILES = [(16, 8), (16, 16)]
SWEEP_THREADS = [128]


def _build():
    rows = []
    for problem in PATIENTS_FULL:
        cpu_s = cpu_match_seconds(problem.tmpl_h, problem.tmpl_w,
                                  problem.shift_h, problem.shift_w)
        row = [problem.name, f"{problem.tmpl_h}x{problem.tmpl_w}",
               f"{ms(cpu_s):.3f}"]
        for device in DEVICES:
            records = harness_sweep(
                "template_matching", problem,
                {"tile": SWEEP_TILES, "threads": SWEEP_THREADS},
                device=device, seed=SEED).records
            best = best_record(records)
            row += [f"{ms(best.seconds):.3f}",
                    f"{speedup(cpu_s, best.seconds):.1f}x"]
        rows.append(row)
    return format_table(
        ["patient", "template", "CPU 4-thr (ms/frame)", "C1060 (ms)",
         "C1060 speedup", "C2070 (ms)", "C2070 speedup"],
        rows,
        title="Table 6.10: template matching — CPU vs best GPU config "
              "(per corr2 frame)",
        note="full Table 5.1 dimensions; GPU = best of tile/thread "
             "sweep, kernel-specialized, sampled timing")


def test_table_6_10(benchmark):
    text = benchmark.pedantic(_build, rounds=1, iterations=1)
    emit("table_6_10", text)
    # Shape assertions: every GPU column beats the CPU column.
    for line in text.splitlines()[3:-1]:
        cells = [c.strip() for c in line.split("|")]
        assert float(cells[3]) < float(cells[2]), line
        assert float(cells[5]) < float(cells[2]), line
