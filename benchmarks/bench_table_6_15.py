"""Table 6.15 — PIV optimal register blocking / thread counts, FPGA set.

Per (problem, device): full (rb, threads) sweep of the specialized
tree-reduction kernel, reporting the best time and *where* the optimum
sits.  The paper's point: the optima move with both the problem and the
device — this is what run-time specialization exploits.
"""

import pytest

from benchmarks.common import DEVICES, SEED, ms
from repro.apps.piv.problems import FPGA_SET, RB_VALUES, SCALE_NOTE, \
    THREAD_COUNTS
from repro.reporting import emit, format_table
from repro.tuning import best_record, harness_sweep

RBS = [1, 2, 4, 8]
THREADS = [32, 64, 128]


def build_optima_table(problem_set, title_id, note):
    rows = []
    optima = set()
    for problem in problem_set:
        row = [problem.name]
        for device in DEVICES:
            records = harness_sweep(
                "piv", problem, {"rb": RBS, "threads": THREADS},
                device=device, seed=SEED).records
            best = best_record(records)
            optima.add((device, best.config["rb"],
                        best.config["threads"]))
            row += [f"{ms(best.seconds):.3f}", best.config["rb"],
                    best.config["threads"], best.reg_count,
                    f"{best.occupancy:.2f}"]
        rows.append(row)
    text = format_table(
        ["set", "C1060 (ms)", "rb*", "thr*", "regs", "occ",
         "C2070 (ms)", "rb*", "thr*", "regs", "occ"],
        rows,
        title=f"Table {title_id}: PIV optimal register blocking and "
              "thread counts",
        note=note)
    return text, optima


def _build():
    return build_optima_table(FPGA_SET, "6.15",
                              SCALE_NOTE + "; FPGA benchmark set")


def test_table_6_15(benchmark):
    (text, optima) = benchmark.pedantic(_build, rounds=1, iterations=1)
    emit("table_6_15", text)
    # Shape: the optimum is not one single configuration everywhere.
    assert len(optima) > 1
