"""Figure 6.1 — contour maps of performance relative to peak, C1060.

One panel per mask-size data set (Table 6.4): % of peak over the
(register count, thread count) plane.  Printed as contour series —
each line traces the thread axis for one register-blocking level; the
peak cell is marked '*' (the figures' white square).
"""

import pytest

from benchmarks.bench_table_6_22 import RBS, THREADS
from benchmarks.common import DEVICES, SEED
from repro.apps.piv.problems import MASK_SET, SCALE_NOTE
from repro.reporting import emit, format_table
from repro.tuning import best_record, contour_series, harness_sweep


def build_contours(device):
    """Contour panels on *device* (a :data:`DEVICES` key)."""
    sections = []
    peaks = []
    for problem in MASK_SET:
        records = harness_sweep(
            "piv", problem, {"rb": RBS, "threads": THREADS},
            device=device, seed=SEED).records
        best = best_record(records)
        peaks.append((problem.name, best.config["rb"],
                      best.config["threads"]))
        series = contour_series(records, "rb", "threads")
        rows = []
        for rb, pts in series:
            cells = [f"rb={rb}"]
            for t, pct in pts:
                mark = "*" if (rb == best.config["rb"]
                               and t == best.config["threads"]) else ""
                cells.append(f"{pct:.0f}%{mark}")
            rows.append(cells)
        sections.append(format_table(
            ["regs\\threads"] + [str(t) for t in THREADS], rows,
            title=f"{problem.name} (mask {problem.mask}x{problem.mask})"
                  f" on {DEVICES[device].name} — % of peak ('*' = peak)"))
    return "\n\n".join(sections), peaks


def _build():
    return build_contours("c1060")


@pytest.mark.slow
def test_figure_6_1(benchmark):
    text, peaks = benchmark.pedantic(_build, rounds=1, iterations=1)
    emit("figure_6_1", text + f"\nnote: {SCALE_NOTE}")
    # Shape: peak location moves across the data sets.
    assert len({(rb, t) for (_, rb, t) in peaks}) > 1
