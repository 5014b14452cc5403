"""Table 6.19 — backprojection kernels: RE vs SK on both GPUs.

Per (problem, device): the specialized kernel's best (block, zb) sweep
point versus the run-time-evaluated compilation of the same source at
the same configuration.  Paper shape: SK wins everywhere and uses fewer
registers (the z-accumulator array scalarizes instead of spilling, and
the parameter plumbing disappears).
"""

import pytest

from benchmarks.common import DEVICES, SEED, ms
from repro.apps.backprojection.problems import PROBLEMS, SCALE_NOTE
from repro.apps.harness import (ProblemSpec, RunRequest, get_harness,
                                run_request)
from repro.reporting import emit, format_table, speedup
from repro.tuning import best_record, harness_sweep

SWEEP_BLOCKS = [(16, 8), (16, 16)]
SWEEP_ZB = [2, 4]


def _build():
    rows = []
    for problem in PROBLEMS:
        for device, spec in DEVICES.items():
            records = harness_sweep(
                "backprojection", problem,
                {"block": SWEEP_BLOCKS, "zb": SWEEP_ZB},
                device=device, seed=SEED).records
            best = best_record(records)
            bx, by = best.config["block"]
            r_re = run_request(RunRequest(
                ProblemSpec("backprojection", problem, seed=SEED,
                            device=device),
                get_harness("backprojection").sweep_config(
                    best.config, specialize=False)))
            rows.append([
                problem.name, spec.name, f"{bx}x{by}", best.config["zb"],
                f"{ms(r_re.seconds):.3f}", f"{ms(best.seconds):.3f}",
                f"{speedup(r_re.seconds, best.seconds):.2f}x",
                r_re.reg_count, best.reg_count])
    return format_table(
        ["set", "device", "block*", "zb*", "RE (ms)", "SK (ms)",
         "SK speedup", "RE regs", "SK regs"],
        rows,
        title="Table 6.19: backprojection — RE vs SK kernels",
        note=SCALE_NOTE)


def test_table_6_19(benchmark):
    text = benchmark.pedantic(_build, rounds=1, iterations=1)
    emit("table_6_19", text)
    for line in text.splitlines()[3:-1]:
        cells = [c.strip() for c in line.split("|")]
        assert float(cells[5]) <= float(cells[4]), line
        assert int(cells[8]) <= int(cells[7]), line
