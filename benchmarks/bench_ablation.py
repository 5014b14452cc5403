"""Ablation — which optimization buys the specialization speedup?

Compiles the specialized PIV kernel with parts of the pipeline
disabled and measures each variant on the same problem:

* RE                — no specialization at all (baseline);
* SK -O1 no-unroll  — constants folded, loops kept, no strength
                      reduction / magic division / CSE, accumulators
                      stay in local memory (no scalarization at rolled
                      loops);
* SK -O1            — plus full unrolling and scalarization;
* SK -O3            — plus strength reduction, magic division and CSE
                      (the shipped pipeline).

This decomposes §6.2's RE-vs-SK gaps into the §2.4 optimization list.
"""

import numpy as np
import pytest

from benchmarks.common import harness_inputs, ms
from repro.apps.piv import PIVProblem
from repro.apps.piv.host import RB_MAX
from repro.apps.piv.kernels import TREE_SRC
from repro.gpusim import GPU, TESLA_C2070
from repro.kernelc import nvcc
from repro.kernelc.templates import specialization_defines
from repro.reporting import emit, format_table

PROBLEM = PIVProblem("abl", 120, 160, mask=16, offs=9)
RB, THREADS = 4, 64

VARIANTS = [
    ("RE", {}, dict(opt_level=3, unroll=True)),
    ("SK -O1 no-unroll", None, dict(opt_level=1, unroll=False)),
    ("SK -O1 (unrolled)", None, dict(opt_level=1, unroll=True)),
    ("SK -O3 (full)", None, dict(opt_level=3, unroll=True)),
]


def _sk_defines():
    d = {"RB_MAX": RB_MAX}
    d.update(specialization_defines({
        "MASK_W": PROBLEM.mask, "MASK_H": PROBLEM.mask,
        "OFFS_W": PROBLEM.offs, "OFFS_H": PROBLEM.offs,
        "RB": RB, "THREADS": THREADS}))
    return d


def _run(kernel, gpu, img_a, img_b):
    xs, ys = PROBLEM.window_origins()
    d_a = gpu.alloc_array(img_a)
    d_b = gpu.alloc_array(img_b)
    d_xs = gpu.alloc_array(xs)
    d_ys = gpu.alloc_array(ys)
    d_scores = gpu.zeros(len(xs) * PROBLEM.n_offsets, np.float32)
    center = PROBLEM.offs // 2
    result = gpu.launch(
        kernel, grid=len(xs), block=THREADS,
        args=[d_a, d_b, d_xs, d_ys, d_scores, PROBLEM.img_w,
              PROBLEM.mask, PROBLEM.mask, PROBLEM.offs, PROBLEM.offs,
              center, center, RB],
        functional=False, sample_blocks=2)
    for addr in (d_a, d_b, d_xs, d_ys, d_scores):
        gpu.free(addr)
    return result


def _build():
    img_a, img_b = harness_inputs("piv", PROBLEM)
    img_a = img_a.astype(np.float32)
    rows = []
    baseline = None
    for label, defines, options in VARIANTS:
        defines = dict(defines) if defines is not None else _sk_defines()
        defines.setdefault("RB_MAX", RB_MAX)
        module = nvcc(TREE_SRC, defines=defines,
                      arch=TESLA_C2070.arch, **options)
        kernel = module.kernel("pivScores")
        gpu = GPU(TESLA_C2070)
        result = _run(kernel, gpu, img_a, img_b)
        seconds = result.seconds
        if baseline is None:
            baseline = seconds
        in_regs = "yes" if not kernel.ir.local_arrays else "no"
        rows.append([label, kernel.static_instructions,
                     kernel.reg_count, in_regs,
                     f"{ms(seconds):.3f}",
                     f"{baseline / seconds:.2f}x"])
    return format_table(
        ["variant", "static instrs", "regs", "acc in regs",
         "time (ms)", "vs RE"],
        rows,
        title="Ablation: optimization contributions to the PIV "
              f"specialization speedup (C2070, mask 16, offs 9, rb={RB})",
        note="each row adds pipeline stages; 'acc in regs' = register "
             "blocking scalarized")


def test_ablation(benchmark):
    text = benchmark.pedantic(_build, rounds=1, iterations=1)
    emit("ablation_optimizations", text)
    lines = [l for l in text.splitlines()[3:-1]]
    times = [float(l.split("|")[4].strip()) for l in lines]
    # Full SK must be the fastest variant.
    assert times[-1] == min(times)
