"""Correctness gate: outputs against independent NumPy references.

Runs after the timed window, so it adds no latency.  Tolerances are the
ones the app tests use.
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path

import numpy as np

from repro.apps.backprojection import backproject_reference
from repro.apps.harness import ProblemSpec, get_harness
from repro.apps.piv import ssd_scores
from repro.apps.template_matching import corr2_map
from repro.tuning.autotune import SECONDS_RTOL


@lru_cache(maxsize=None)
def reference(spec: ProblemSpec) -> np.ndarray:
    """The expected functional output for *spec*'s regenerated inputs."""
    p = spec.problem
    inputs = get_harness(spec.app).make_inputs(spec)
    if spec.app == "piv":
        return ssd_scores(*inputs, p)
    if spec.app == "template_matching":
        frame, template = inputs
        return corr2_map(frame, template, p.shift_h, p.shift_w)
    return backproject_reference(inputs, p.geometry(), p.nx, p.ny, p.nz)


def output_ok(spec: ProblemSpec, output) -> bool:
    """True when *output* matches the reference for *spec*."""
    if output is None:
        return False
    ref = reference(spec)
    if output.shape != ref.shape:
        return False
    if spec.app == "piv":
        return bool(np.allclose(output, ref, rtol=1e-4, atol=0.0))
    return bool(np.allclose(output, ref, rtol=0.0, atol=1e-4))


def load_optima(root: Path) -> dict:
    """app -> simulated seconds of the exhaustive optimum recorded in
    ``BENCH_autotune.json``."""
    rows = json.loads((root / "BENCH_autotune.json").read_text())
    return {app: row["exhaustive_seconds"]
            for app, row in rows["workloads"].items()}


def pick_ok(best, optimum_seconds: float) -> bool:
    """The tuner's pick is valid and its simulated seconds are within
    the tuner's own ``SECONDS_RTOL`` of the exhaustive optimum's (a
    different config with equal seconds is a tie, not a miss)."""
    return best.valid and \
        abs(best.seconds / optimum_seconds - 1.0) <= SECONDS_RTOL
