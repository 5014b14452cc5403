"""Table 6.22 — PIV: % of peak at fixed data-register counts and
thread counts.

Same presentation as Table 6.21 for the PIV (rb, threads) space over
the mask-size sets: fixing either knob forfeits peak performance on
some problems, on either device.
"""

import pytest

from benchmarks.common import DEVICES, SEED
from repro.apps.piv.problems import MASK_SET, SCALE_NOTE
from repro.reporting import emit, format_table
from repro.tuning import harness_sweep
from repro.tuning.grids import percent_of_peak

RBS = [1, 2, 4, 8]
THREADS = [32, 64, 128]


def sweep_mask_sets():
    """(problem name, device key) -> sweep records."""
    out = {}
    for problem in MASK_SET:
        for device in DEVICES:
            out[(problem.name, device)] = harness_sweep(
                "piv", problem, {"rb": RBS, "threads": THREADS},
                device=device, seed=SEED).records
    return out


def _build():
    headers = ["set", "device"] + [f"rb={rb}/{t}" for rb in RBS
                                   for t in THREADS]
    rows = []
    fractions = []
    sweeps = sweep_mask_sets()
    for problem in MASK_SET:
        for device, spec in DEVICES.items():
            records = sweeps[(problem.name, device)]
            _, _, grid = percent_of_peak(records, "rb", "threads")
            row = [problem.name, spec.name]
            for i, rb in enumerate(RBS):
                for j, t in enumerate(THREADS):
                    cell = grid[i][j]
                    if cell is None:
                        row.append("-")
                    else:
                        fractions.append(cell)
                        row.append(f"{cell:.0f}%")
            rows.append(row)
    return format_table(
        headers, rows,
        title="Table 6.22: PIV — % of peak at fixed register counts "
              "and thread counts (mask-size sets)",
        note=SCALE_NOTE), fractions


@pytest.mark.slow
def test_table_6_22(benchmark):
    text, fractions = benchmark.pedantic(_build, rounds=1, iterations=1)
    emit("table_6_22", text)
    assert max(fractions) == pytest.approx(100.0)
    assert min(fractions) < 80.0
