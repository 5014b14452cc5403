"""Shared workload builders and helpers for the benchmark harness.

Workloads are generated once per session (module-level caches) and a
process-wide kernel cache amortizes compilation across benches, exactly
as GPU-PF's binary cache would in a long-running application (§4.3).
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from repro.apps.backprojection import BPProblem
from repro.apps.piv import PIVProblem
from repro.apps.template_matching import MatchProblem
from repro.data.frames import template_sequence
from repro.data.piv import particle_image_pair
from repro.gpupf.cache import KernelCache
from repro.gpusim import TESLA_C1060, TESLA_C2070

BENCH_CACHE = KernelCache()
DEVICES = [TESLA_C1060, TESLA_C2070]


@lru_cache(maxsize=None)
def tm_workload(problem_key: Tuple) -> Tuple:
    """(frames, template, true_shifts) for a MatchProblem tuple."""
    p = MatchProblem(*problem_key)
    return template_sequence(p.frame_h, p.frame_w, p.tmpl_h, p.tmpl_w,
                             p.shift_h, p.shift_w,
                             n_frames=max(p.n_frames, 1),
                             seed=hash(problem_key) % 1000)


def tm_frames(problem: MatchProblem):
    key = (problem.name, problem.frame_h, problem.frame_w,
           problem.tmpl_h, problem.tmpl_w, problem.shift_h,
           problem.shift_w, problem.n_frames)
    return tm_workload(key)


@lru_cache(maxsize=None)
def piv_workload(img_h: int, img_w: int, seed: int = 7):
    return particle_image_pair(img_h, img_w, displacement=(2, -1),
                               seed=seed)


def piv_images(problem: PIVProblem):
    return piv_workload(problem.img_h, problem.img_w)


@lru_cache(maxsize=None)
def bp_projections(n_proj: int, det_v: int, det_u: int, seed: int = 5):
    rng = np.random.default_rng(seed)
    return rng.random((n_proj, det_v, det_u)).astype(np.float32)


def bp_projs(problem: BPProblem):
    return bp_projections(problem.n_proj, problem.det_v, problem.det_u)


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
    """Persist a machine-readable bench record at the repo root."""
    path = REPO_ROOT / filename
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
