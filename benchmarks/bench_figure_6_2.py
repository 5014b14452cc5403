"""Figure 6.2 — contour maps of performance relative to peak, C2070.

Same panels as Figure 6.1 on the Fermi-generation device; comparing the
two shows the peak locations shifting between GPU generations, the
motivation for per-hardware specialization.
"""

import pytest

from benchmarks.bench_figure_6_1 import build_contours
from repro.apps.piv.problems import SCALE_NOTE
from repro.reporting import emit


def _build():
    return build_contours("c2070")


@pytest.mark.slow
def test_figure_6_2(benchmark):
    text, peaks = benchmark.pedantic(_build, rounds=1, iterations=1)
    emit("figure_6_2", text + f"\nnote: {SCALE_NOTE}")
    assert len(peaks) == 5
