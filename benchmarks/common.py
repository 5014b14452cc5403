"""Shared helpers for the benchmark harness.

Every bench input comes from the app harness
(:meth:`~repro.apps.harness.AppHarness.make_inputs`) at :data:`SEED`:
sweeps regenerate them per cell through
:func:`~repro.tuning.harness_sweep`, and the direct-host benches read
the same arrays through :func:`harness_inputs`.  The direct-host
benches share one process-wide kernel cache, as GPU-PF's binary cache
would in a long-running application (§4.3).
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from pathlib import Path
from typing import Dict, Tuple

import numpy as np

from repro.apps.harness import ProblemSpec, get_harness
from repro.gpupf.cache import KernelCache
from repro.gpusim import TESLA_C1060, TESLA_C2070

BENCH_CACHE = KernelCache()
#: The paper's two GPUs by :data:`repro.gpusim.DEVICES` registry key
#: (what :func:`~repro.tuning.harness_sweep` takes).
DEVICES = {"c1060": TESLA_C1060, "c2070": TESLA_C2070}
#: Input seed of every bench workload.
SEED = 0


def harness_inputs(app: str, problem):
    """The input arrays a harness sweep cell of *problem* runs on."""
    return get_harness(app).make_inputs(ProblemSpec(app, problem,
                                                    seed=SEED))


def us(seconds: float) -> float:
    """seconds -> microseconds for table cells."""
    return seconds * 1e6


def ms(seconds: float) -> float:
    return seconds * 1e3


REPO_ROOT = Path(__file__).resolve().parent.parent


def timed(fn, *args, **kwargs) -> Tuple[float, object]:
    """(wall_seconds, result) of one call — for engine comparisons."""
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - t0, result


def bench_header() -> Dict[str, object]:
    """Provenance for a BENCH file: the commit (``-dirty`` when the
    tree had local changes), core count, and interpreter versions."""
    try:
        sha = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=12"],
            cwd=REPO_ROOT, capture_output=True, text=True,
            check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {"git_sha": sha, "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__}


def write_bench_json(filename: str, payload: Dict) -> Path:
    """Persist a machine-readable bench record at the repo root,
    stamping :func:`bench_header` into *payload* first."""
    payload.update(bench_header())
    path = REPO_ROOT / filename
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
