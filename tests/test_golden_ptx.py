"""Golden PTX: the optimizer's output for every app kernel, pinned.

For a few fixed configs per app (PIV, template matching,
backprojection, shaped like the tuning grids), in both the SK and the
RE regime and at ``-O0`` to ``-O3``, the sha256 of each kernel's
``to_ptx()`` and its register count must match ``golden_ptx.json``.  A
compiler change that moves any of them fails here with the kernel
named.  An intended change is re-recorded with::

    PYTHONPATH=src python -m tests.test_golden_ptx

and its diff explained in the commit.

The test also checks that constant propagation reached its fixpoint:
re-running the pipeline's closing passes on an optimized kernel (the
walk and DCE; at ``-O2`` and up also the closing CSE and DCE, since CSE
turns repeated constants into copies that the walk folds back) changes
nothing.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.apps.backprojection.host import (Backprojector, BPConfig,
                                            BPProblem)
from repro.apps.piv.host import PIVConfig, PIVProcessor
from repro.apps.piv.reference import PIVProblem
from repro.apps.template_matching.host import (MatchConfig, MatchProblem,
                                               TemplateMatcher)
from repro.gpupf.cache import KernelCache
from repro.kernelc import nvcc
from repro.kernelc.compiler import CompileError
from repro.kernelc.passes.constprop import propagate_kernel
from repro.kernelc.passes.cse import cse_kernel
from repro.kernelc.passes.dce import dce_kernel

GOLDEN = Path(__file__).with_name("golden_ptx.json")

OPT_LEVELS = (0, 1, 2, 3)

#: (app, config label, problem, config) — tuning-grid shapes.
_PIV = PIVProblem("golden", 40, 40, mask=8, offs=3)
_TM = MatchProblem("golden", frame_h=60, frame_w=80, tmpl_h=16, tmpl_w=12,
                   shift_h=5, shift_w=5, n_frames=1)
_BP = BPProblem("golden", nx=12, ny=12, nz=8, n_proj=6, det_u=16, det_v=12)
CONFIGS = [
    ("piv", "tree-rb1-t32", _PIV, PIVConfig(rb=1, threads=32)),
    ("piv", "tree-rb8-t96", _PIV, PIVConfig(rb=8, threads=96)),
    ("piv", "tree-rb16-t256", _PIV, PIVConfig(rb=16, threads=256)),
    ("piv", "warpspec-rb4-t64", _PIV,
     PIVConfig(variant="warpspec", rb=4, threads=64)),
    ("template_matching", "tile4x4-t32", _TM,
     MatchConfig(tile_w=4, tile_h=4, threads=32)),
    ("template_matching", "tile16x8-t128", _TM,
     MatchConfig(tile_w=16, tile_h=8, threads=128)),
    ("template_matching", "tile8x16-t256", _TM,
     MatchConfig(tile_w=8, tile_h=16, threads=256)),
    ("backprojection", "block4x4-zb1", _BP,
     BPConfig(block_x=4, block_y=4, zb=1)),
    ("backprojection", "block16x8-zb4", _BP,
     BPConfig(block_x=16, block_y=8, zb=4)),
    ("backprojection", "block32x8-zb8", _BP,
     BPConfig(block_x=32, block_y=8, zb=8)),
]


class _RecordingCache(KernelCache):
    """Records each (source, defines, arch) an app asks to compile."""

    def __init__(self):
        super().__init__()
        self.requests = []

    def compile(self, source, defines=None, arch="sm_20", opt_level=3,
                headers=None):
        self.requests.append((source, dict(defines or {}), arch))
        return super().compile(source, defines=defines, arch=arch,
                               opt_level=opt_level, headers=headers)


def _compile_requests(app, problem, config):
    """The compiles one app instance issues for *config*."""
    cache = _RecordingCache()
    if app == "piv":
        PIVProcessor(problem, config, cache=cache)
    elif app == "backprojection":
        Backprojector(problem, config, cache=cache)
    else:
        template = np.zeros((problem.tmpl_h, problem.tmpl_w), np.float32)
        with TemplateMatcher(problem, template, config,
                             cache=cache) as matcher:
            matcher.pipe.refresh()
    return cache.requests


def _cases():
    """Every distinct (name, source, defines, arch, opt_level)."""
    cases, seen = [], set()
    for app, label, problem, config in CONFIGS:
        for specialize in (True, False):
            regime = "SK" if specialize else "RE"
            config = dataclasses.replace(config, specialize=specialize)
            for i, (source, defines, arch) in enumerate(
                    _compile_requests(app, problem, config)):
                key = (source, tuple(sorted(defines.items())), arch)
                if key in seen:
                    continue
                seen.add(key)
                for opt in OPT_LEVELS:
                    name = f"{app}/{label}/{regime}/m{i}/O{opt}"
                    cases.append((name, source, defines, arch, opt))
    return cases


def _compile(source, defines, arch, opt):
    """The module, or the CompileError (some kernels need ``-O1``'s
    folding for a constant array size)."""
    try:
        return nvcc(source, defines=defines, arch=arch, opt_level=opt)
    except CompileError as exc:
        return exc


def _fingerprint(module):
    if isinstance(module, CompileError):
        return {"error": str(module)}
    return {kname: {"sha256": hashlib.sha256(
                        k.to_ptx().encode()).hexdigest(),
                    "reg_count": k.reg_count}
            for kname, k in module.kernels.items()}


def _record() -> None:
    golden = {}
    for name, *case in _cases():
        golden[name] = _fingerprint(_compile(*case))
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(golden)} modules to {GOLDEN}")


@pytest.fixture(scope="module")
def compiled():
    return [(name, case[-1], _compile(*case)) for name, *case in _cases()]


def test_matches_golden_manifest(compiled):
    golden = json.loads(GOLDEN.read_text())
    got = {name: _fingerprint(module) for name, _, module in compiled}
    assert sorted(got) == sorted(golden)
    moved = [f"{name}:{kname}" for name in sorted(got)
             for kname in got[name]
             if got[name][kname] != golden[name].get(kname)]
    assert not moved, f"PTX or register count moved: {moved}"


def test_closing_passes_are_a_fixpoint(compiled):
    for name, opt, module in compiled:
        if opt == 0 or isinstance(module, CompileError):
            continue
        for kernel in module.kernels.values():
            ir = kernel.ir
            before = ir.to_ptx()
            propagate_kernel(ir)
            dce_kernel(ir)
            if opt >= 2:
                cse_kernel(ir)
                dce_kernel(ir)
            assert ir.to_ptx() == before, f"{name}:{kernel.name}"


if __name__ == "__main__":
    _record()
