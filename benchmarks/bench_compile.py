"""Cold-compile cost of the three apps' tuning grids, stage by stage.

Collects the distinct programs (source, ``-D`` set, arch) that the
tuning grids of perfbench's ``tune`` workload (``TUNE_GRIDS``) compile,
by sweeping each grid once inline, then compiles every program at -O3
``ROUNDS`` times, each round in a fresh traced context.  Per round it
sums the ``kernelc`` spans: the compiler stages under ``nvcc``
(preprocess, parse, codegen, optimize) and, where the compiler records
them, the optimization passes under ``optimize``; it also times the
launch plan (:class:`~repro.gpusim.executor.KernelPlan`) of every
compiled kernel.  ``BENCH_compile.json`` keeps the minimum over rounds
of each sum, and a digest of every module's PTX and register counts, so
two checkouts can show the same compiler output at different costs.

Run directly with ``PYTHONPATH=src python benchmarks/bench_compile.py``
(about two minutes on two cores: the collecting sweeps simulate every
grid cell once).
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.common import write_bench_json
from perfbench.inputs import MEMORY_BYTES, TUNE_GRIDS
from repro.gpupf import cache as cache_mod
from repro.gpusim import TESLA_C2070
from repro.gpusim.executor import KernelPlan
from repro.kernelc.compiler import nvcc
from repro.runtime.context import ExecutionContext, using_context
from repro.tuning import harness_sweep

ROUNDS = 5


def collect_programs() -> dict:
    """app -> [(source, defines, arch)] in first-compile order."""
    programs = {}
    real_nvcc = cache_mod.nvcc
    for app, (problem, axes) in TUNE_GRIDS.items():
        seen = programs[app] = []

        def recording_nvcc(source, defines=None, arch="sm_20", **kw):
            seen.append((source, dict(defines or {}), arch))
            return real_nvcc(source, defines=defines, arch=arch, **kw)

        cache_mod.nvcc = recording_nvcc
        try:
            harness_sweep(app, problem, axes, memory_bytes=MEMORY_BYTES)
        finally:
            cache_mod.nvcc = real_nvcc
    return programs


def _digest(modules) -> str:
    h = hashlib.sha256()
    for module in modules:
        h.update(module.to_ptx().encode())
        regs = {name: k.reg_count for name, k in module.kernels.items()}
        h.update(json.dumps(regs, sort_keys=True).encode())
    return h.hexdigest()


def compile_round(programs: dict):
    """(stage sums, pass sums, plan seconds, app -> digest)."""
    ctx = ExecutionContext(name="bench-compile")
    tracer = ctx.enable_tracing()
    modules = {}
    with using_context(ctx):
        for app, calls in programs.items():
            modules[app] = [nvcc(source, defines=defines, arch=arch,
                                 opt_level=3)
                            for source, defines, arch in calls]
    parents = {s.sid: s.name for s in tracer.spans}
    stages, passes = defaultdict(float), defaultdict(float)
    for span in tracer.spans:
        if span.cat != "kernelc":
            continue
        parent = parents.get(span.parent)
        if parent == "nvcc":
            stages[span.name] += span.duration
        elif parent == "optimize":
            passes[span.name] += span.duration
    plan_s = 0.0
    for app_modules in modules.values():
        for module in app_modules:
            for kernel in module.kernels.values():
                t0 = time.perf_counter()
                KernelPlan(kernel.ir, TESLA_C2070)
                plan_s += time.perf_counter() - t0
    return stages, passes, plan_s, {app: _digest(mods)
                                     for app, mods in modules.items()}


def run_compile_bench(rounds: int = ROUNDS) -> dict:
    programs = collect_programs()
    stage_min, pass_min, plan_min, digests = {}, {}, None, None
    for _ in range(rounds):
        stages, passes, plan_s, round_digests = compile_round(programs)
        for best, got in ((stage_min, stages), (pass_min, passes)):
            for name, seconds in got.items():
                best[name] = min(best.get(name, seconds), seconds)
        plan_min = plan_s if plan_min is None else min(plan_min, plan_s)
        # The compiler is deterministic: every round prints the same.
        assert digests in (None, round_digests)
        digests = round_digests
    payload = {
        "bench": "compile",
        "rounds_min_of": rounds,
        "opt_level": 3,
        "programs": {app: len(calls) for app, calls in programs.items()},
        "stage_s": stage_min,
        "pass_s": pass_min,
        "plan_s": plan_min,
        "optimize_plus_plan_s": stage_min["optimize"] + plan_min,
        "digests": digests,
        "digest": hashlib.sha256(
            "".join(digests[app] for app in sorted(digests)).encode()
        ).hexdigest(),
    }
    write_bench_json("BENCH_compile.json", payload)
    return payload


if __name__ == "__main__":
    out = run_compile_bench()
    print(json.dumps({k: out[k] for k in ("programs", "stage_s", "pass_s",
                                          "plan_s", "digest")}, indent=1))
