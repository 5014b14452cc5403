"""Serial-vs-batched engine comparison on the sweep workloads.

Runs the Table 6.21 (template matching) and Table 6.22 (PIV) workloads
*functionally* — every block executes — under both execution engines,
asserts the exactness contract (bit-identical outputs and identical
simulated kernel time, i.e. identical cycle counts), and records the
wall-clock speedups to ``BENCH_engine.json`` at the repo root.  The
wide cases time each engine cold, once.

The ``narrow`` cases time serial vs batched at the gang widths
production launches run at: a ``tune``-shaped sampled backprojection
launch (two 4x4-thread blocks, which split to one-member gangs) and a
single-block PIV launch, best-of-fifteen with the engines alternating,
with host nanoseconds per simulated warp-instruction.

The full comparison is marked ``slow`` (the serial oracle needs about a
minute of wall time); the default bench run executes only the quick
equivalence smokes below (wide and narrow gangs).  Run everything with::

    PYTHONPATH=src:. python -m pytest benchmarks/bench_engine.py \
        -m "slow or not slow"

or directly with ``python benchmarks/bench_engine.py``.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import pytest

import numpy as np

from benchmarks.common import harness_inputs, timed, write_bench_json
from repro.apps.backprojection.host import (Backprojector, BPConfig,
                                            BPProblem)
from repro.apps.piv.host import PIVConfig, PIVProcessor
from repro.apps.piv.problems import MASK_SET
from repro.apps.piv.reference import PIVProblem
from repro.apps.template_matching.host import MatchConfig, \
    TemplateMatcher
from repro.apps.template_matching.problems import PATIENTS, PATIENTS_FULL
from repro.gpusim import GPU, TESLA_C1060, TESLA_C2070
from repro.gpusim.engine import DEFAULT_BATCH_BLOCKS
from repro.kernelc import nvcc
from repro.runtime import current_context

#: Required wall-clock advantage of the batched engine over the serial
#: oracle on the sweep workloads (PR 6 acceptance bar).
SPEEDUP_FLOOR = 3.0


def _piv_case(problem, rb: int, threads: int,
              device=TESLA_C2070) -> dict:
    """One Table 6.22 PIV configuration under both engines."""
    img_a, img_b = harness_inputs("piv", problem)

    # Compile outside the timed region: the binary is engine-independent
    # and a long-running host would reuse it from the kernel cache.
    procs = {engine: PIVProcessor(
        problem, PIVConfig(rb=rb, threads=threads, engine=engine),
        device) for engine in ("batched", "serial")}
    wall_b, res_b = timed(procs["batched"].run, img_a, img_b)
    wall_s, res_s = timed(procs["serial"].run, img_a, img_b)
    suffix = "" if device is TESLA_C2070 else "-c1060"
    return {
        "name": f"piv-{problem.name}-rb{rb}-t{threads}{suffix}",
        "workload": "Table 6.22 (PIV mask-size sets)",
        "problem": problem.name,
        "config": {"rb": rb, "threads": threads},
        "device": device.name,
        "blocks": len(problem.window_origins()[0]),
        "wall_serial_s": wall_s,
        "wall_batched_s": wall_b,
        "speedup": wall_s / wall_b,
        "sim_kernel_seconds": res_s.kernel_seconds,
        "sim_identical": res_s.kernel_seconds == res_b.kernel_seconds,
        "outputs_identical":
            res_s.scores.tobytes() == res_b.scores.tobytes(),
    }


def _tm_case(problem, tile, threads: int) -> dict:
    """One Table 6.21 template-matching configuration, both engines."""
    frame, template = harness_inputs("template_matching", problem)
    tile_w, tile_h = tile

    # Pipelines are built (and kernels compiled) outside the timing.
    matchers = {engine: TemplateMatcher(
        problem, template,
        MatchConfig(tile_w=tile_w, tile_h=tile_h, threads=threads,
                    functional=True, engine=engine),
        TESLA_C2070) for engine in ("batched", "serial")}
    wall_b, res_b = timed(matchers["batched"].match, frame)
    wall_s, res_s = timed(matchers["serial"].match, frame)
    return {
        "name": f"tm-{problem.name}-{tile_w}x{tile_h}-t{threads}",
        "workload": "Table 6.21 (template matching, full-size)",
        "problem": problem.name,
        "config": {"tile": list(tile), "threads": threads},
        "device": TESLA_C2070.name,
        "wall_serial_s": wall_s,
        "wall_batched_s": wall_b,
        "speedup": wall_s / wall_b,
        "sim_kernel_seconds": res_s.kernel_seconds,
        "sim_identical": res_s.kernel_seconds == res_b.kernel_seconds,
        "outputs_identical": res_s.ncc.tobytes() == res_b.ncc.tobytes(),
    }


#: The narrow cases' problems: the ``tune`` workload's backprojection
#: and PIV grid problems (``perfbench/inputs.py``).
NARROW_BP = BPProblem("bench-at", nx=12, ny=12, nz=8, n_proj=6, det_u=16,
                      det_v=12)
NARROW_PIV = PIVProblem("bench-at", 40, 40, mask=8, offs=3)

#: Best-of runs per engine for the narrow cases (each run is a few ms).
NARROW_RUNS = 15


def _sim_instructions(run) -> int:
    """Simulated warp-instructions one call of *run* executes, counted
    from the launch profiles of one traced call."""
    ctx = current_context()
    tracer = ctx.enable_tracing("bench-engine")
    try:
        run()
        return sum(p.instructions for p in tracer.profiles)
    finally:
        ctx.disable_tracing()


def _narrow_case(name: str, workload: str, make, run,
                 blocks: int) -> dict:
    """Serial vs batched on a sampled launch of *blocks* blocks.

    *make(engine)* builds the app object (compiling outside the
    timing) and *run(obj)* runs it once.  Sampled launches have no
    functional output, so exactness is the modeled kernel time, which
    every per-warp stat feeds.  Walls are best-of-:data:`NARROW_RUNS`,
    the engines alternating so that load drift hits both alike.
    """
    objs = {engine: make(engine) for engine in ("serial", "batched")}
    walls, results = {}, {}
    for _ in range(NARROW_RUNS):
        for engine, obj in objs.items():
            wall, results[engine] = timed(run, obj)
            walls[engine] = min(walls.get(engine, wall), wall)
    instrs = _sim_instructions(lambda: run(objs["batched"]))
    res_s, res_b = results["serial"], results["batched"]
    return {
        "name": name,
        "workload": workload,
        "blocks": blocks,
        "device": TESLA_C2070.name,
        "sim_instructions": instrs,
        "wall_serial_s": walls["serial"],
        "wall_batched_s": walls["batched"],
        "speedup": walls["serial"] / walls["batched"],
        "host_ns_per_instr_serial": walls["serial"] * 1e9 / instrs,
        "host_ns_per_instr_batched": walls["batched"] * 1e9 / instrs,
        "sim_kernel_seconds": res_s.kernel_seconds,
        "sim_identical": res_s.kernel_seconds == res_b.kernel_seconds,
    }


def _narrow_bp_case() -> dict:
    """The ``tune`` shape: a 4x4-block backprojection config launched
    sampled (``functional=False, sample_blocks=2``), as every tuning
    evaluation is.  Its 16-thread blocks split to one-member gangs."""
    projections = harness_inputs("backprojection", NARROW_BP)

    def make(engine):
        return Backprojector(NARROW_BP, BPConfig(
            block_x=4, block_y=4, zb=1, functional=False,
            sample_blocks=2, engine=engine), TESLA_C2070)

    return _narrow_case(
        "narrow-bp-4x4-sampled2", "tune-shaped sampled launch",
        make, lambda bp: bp.run(projections), blocks=2)


def _narrow_piv_case() -> dict:
    """A single-block PIV launch: one gang of width 1."""
    img_a, img_b = harness_inputs("piv", NARROW_PIV)

    def make(engine):
        return PIVProcessor(NARROW_PIV, PIVConfig(
            rb=4, threads=64, functional=False, sample_blocks=1,
            engine=engine), TESLA_C2070)

    return _narrow_case(
        "narrow-piv-rb4-t64-1block", "single-block launch",
        make, lambda proc: proc.run(img_a, img_b), blocks=1)


ATOMIC_SRC = """
__global__ void hist(float* facc, int* ihist, const float* in,
                     const int* bin, int n, int bins) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    if (gid < n) {
        int b = bin[gid] % bins;
        atomicAdd(&ihist[b], 1);
        atomicAdd(&facc[b], in[gid]);
    }
}
"""


def _atomic_case(device, blocks: int = 2048, bins: int = 64) -> dict:
    """Atomic-heavy histogram: every lane contends on a few addresses.

    Single-warp blocks keep float-atomic ordering identical between the
    engines (the documented bit-exactness domain), so this measures the
    vectorized ordered-atomic path under maximal contention.
    """
    n = blocks * 32
    rng = np.random.default_rng(42)
    vals = rng.standard_normal(n).astype(np.float32)
    bin_of = rng.integers(0, bins, n).astype(np.int32)
    mod = nvcc(ATOMIC_SRC, arch=device.arch)
    results = {}
    for engine in ("batched", "serial"):
        gpu = GPU(device)
        d_facc = gpu.zeros(bins, np.float32)
        d_ihist = gpu.zeros(bins, np.int32)
        d_in = gpu.alloc_array(vals)
        d_bin = gpu.alloc_array(bin_of)
        wall, res = timed(gpu.launch, mod.kernel("hist"), (blocks,),
                          (32,), [d_facc, d_ihist, d_in, d_bin, n,
                                  bins], engine=engine)
        results[engine] = (
            wall, res, gpu.memcpy_dtoh(d_facc, np.float32, bins),
            gpu.memcpy_dtoh(d_ihist, np.int32, bins))
    wall_b, res_b, facc_b, ihist_b = results["batched"]
    wall_s, res_s, facc_s, ihist_s = results["serial"]
    suffix = "" if device is TESLA_C2070 else "-c1060"
    return {
        "name": f"atomic-hist-{blocks}b{suffix}",
        "workload": "atomic-heavy histogram (ordered float atomics)",
        "problem": f"{n} atomicAdds into {bins} bins",
        "config": {"blocks": blocks, "threads": 32, "bins": bins},
        "device": device.name,
        "blocks": blocks,
        "wall_serial_s": wall_s,
        "wall_batched_s": wall_b,
        "speedup": wall_s / wall_b,
        "sim_kernel_seconds": res_s.seconds,
        "sim_identical": res_s.seconds == res_b.seconds,
        "outputs_identical":
            facc_s.tobytes() == facc_b.tobytes()
            and ihist_s.tobytes() == ihist_b.tobytes(),
    }


def run_engine_bench() -> dict:
    """All cases + aggregate; writes ``BENCH_engine.json``."""
    cases = [
        _piv_case(MASK_SET[0], rb=4, threads=64),
        _tm_case(PATIENTS_FULL[0], tile=(16, 8), threads=128),
        # PR 2: the vectorized CC 1.x path — the Tesla C1060 sweep
        # workload the dissertation's headline comparisons run through.
        _piv_case(MASK_SET[0], rb=4, threads=64, device=TESLA_C1060),
        _atomic_case(TESLA_C2070),
        _atomic_case(TESLA_C1060),
    ]
    narrow = [_narrow_bp_case(), _narrow_piv_case()]
    total_s = sum(c["wall_serial_s"] for c in cases)
    total_b = sum(c["wall_batched_s"] for c in cases)
    payload = {
        "bench": "engine",
        "engines": ["serial", "batched"],
        "batch_blocks": DEFAULT_BATCH_BLOCKS,
        "speedup_floor": SPEEDUP_FLOOR,
        "cases": cases,
        # Gang widths production runs: every tuning evaluation is a
        # sampled launch of a few blocks, often split to one member.
        "narrow": narrow,
        "aggregate": {
            "wall_serial_s": total_s,
            "wall_batched_s": total_b,
            "speedup": total_s / total_b,
            "min_case_speedup": min(c["speedup"] for c in cases),
        },
    }
    write_bench_json("BENCH_engine.json", payload)
    return payload


def test_engine_equivalence_smoke():
    """Quick default check: batched ≡ serial on a small functional TM."""
    case = _tm_case(PATIENTS[0], tile=(16, 16), threads=128)
    assert case["outputs_identical"]
    assert case["sim_identical"]


def test_narrow_equivalence_smoke():
    """Quick default check: batched ≡ serial on the narrow gangs."""
    for case in (_narrow_bp_case(), _narrow_piv_case()):
        assert case["sim_identical"], case["name"]
        assert case["sim_instructions"] > 0, case["name"]


@pytest.mark.slow
def test_engine_speedup():
    payload = run_engine_bench()
    for case in payload["cases"]:
        assert case["outputs_identical"], case["name"]
        assert case["sim_identical"], case["name"]
        assert case["speedup"] >= SPEEDUP_FLOOR, case
    for case in payload["narrow"]:
        assert case["sim_identical"], case["name"]
    assert payload["aggregate"]["speedup"] >= SPEEDUP_FLOOR


if __name__ == "__main__":
    result = run_engine_bench()
    for case in result["cases"]:
        print(f"{case['name']:32s} serial {case['wall_serial_s']:7.2f}s"
              f"  batched {case['wall_batched_s']:7.2f}s"
              f"  speedup {case['speedup']:5.2f}x"
              f"  identical={case['outputs_identical']}")
    for case in result["narrow"]:
        print(f"{case['name']:32s} serial {case['wall_serial_s']:7.4f}s"
              f"  batched {case['wall_batched_s']:7.4f}s"
              f"  ns/instr {case['host_ns_per_instr_serial']:6.0f}"
              f" -> {case['host_ns_per_instr_batched']:6.0f}"
              f"  identical={case['sim_identical']}")
    agg = result["aggregate"]
    print(f"aggregate speedup {agg['speedup']:.2f}x "
          f"(floor {SPEEDUP_FLOOR}x)")
