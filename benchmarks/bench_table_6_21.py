"""Table 6.21 — template matching: % of peak at fixed tile/thread
choices.

The tile/thread sweep runs per (patient, device); each cell reports the
percentage of that sweep's peak a *fixed* configuration achieves.  The
paper's argument: every fixed choice leaves performance behind on some
problem/device, so configurations must be selected — and specialized —
at run time.
"""

import pytest

from benchmarks.common import DEVICES, SEED
from repro.apps.template_matching.problems import PATIENTS_FULL
from repro.reporting import emit, format_table
from repro.tuning import best_record, harness_sweep

TILES = [(8, 8), (16, 8), (16, 16)]
THREADS = [64, 128]


def _build():
    headers = ["patient", "device"] + [
        f"{tw}x{th}/{t}" for (tw, th) in TILES for t in THREADS]
    rows = []
    fractions = []
    for problem in PATIENTS_FULL[:2]:
        for device, spec in DEVICES.items():
            records = harness_sweep(
                "template_matching", problem,
                {"tile": TILES, "threads": THREADS},
                device=device, seed=SEED).records
            peak = best_record(records).seconds
            row = [problem.name, spec.name]
            for (tw, th) in TILES:
                for t in THREADS:
                    rec = next(r for r in records
                               if r.config["tile"] == (tw, th)
                               and r.config["threads"] == t)
                    if rec.valid:
                        pct = 100.0 * peak / rec.seconds
                        fractions.append(pct)
                        row.append(f"{pct:.0f}%")
                    else:
                        row.append("-")
            rows.append(row)
    return format_table(
        headers, rows,
        title="Table 6.21: template matching — % of peak at fixed "
              "main tile sizes and thread counts",
        note="100% marks each row's own sweep optimum"), fractions


@pytest.mark.slow
def test_table_6_21(benchmark):
    text, fractions = benchmark.pedantic(_build, rounds=1, iterations=1)
    emit("table_6_21", text)
    assert max(fractions) == pytest.approx(100.0)
    # Some fixed choice must be measurably suboptimal somewhere.
    assert min(fractions) < 90.0
