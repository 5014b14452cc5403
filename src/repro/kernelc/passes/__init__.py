"""IR optimization passes.

The pipeline (driven by :func:`run_pipeline`) mirrors the PTX-generation
stage of nvcc, where the dissertation notes the important optimizations
are applied (§2.4): constant folding/propagation, strength reduction,
CSE, dead-code elimination, local-array scalarization (register
blocking), and register-usage accounting.

The pipeline is a straight line with no pass loop (:data:`PASSES`):
constant folding, propagation, branch folding and unreachable-code
removal are one sparse conditional constant-propagation walk
(:func:`propagate_kernel`), and that walk followed by DCE is already a
fixpoint.
"""

from __future__ import annotations

from repro.kernelc.ir import IRKernel, IRModule, renumber
from repro.kernelc.passes.constprop import propagate_kernel
from repro.kernelc.passes.cse import cse_kernel
from repro.kernelc.passes.dce import dce_kernel
from repro.kernelc.passes.magicdiv import magic_divide_kernel
from repro.kernelc.passes.regalloc import assign_registers
from repro.kernelc.passes.scalarize import scalarize_kernel
from repro.kernelc.passes.strength import strength_reduce_kernel


#: The pipeline, in order: (span name, pass, lowest ``-O`` level that
#: runs it).  Every pass rewrites one kernel in place.
PASSES = (
    ("constprop", propagate_kernel, 1),
    ("dce", dce_kernel, 1),
    ("strength", strength_reduce_kernel, 2),
    ("magicdiv", magic_divide_kernel, 2),
    ("cse", cse_kernel, 2),
    ("scalarize", scalarize_kernel, 1),
    ("constprop", propagate_kernel, 1),
    ("dce", dce_kernel, 1),
    ("cse", cse_kernel, 2),
    ("dce", dce_kernel, 2),
    ("renumber", renumber, 0),
    ("regalloc", assign_registers, 0),
)


def optimize_kernel(kernel: IRKernel, opt_level: int = 3,
                    span=None) -> None:
    """Run the optimization pipeline on one kernel, in place.

    *span* is a tracer's ``span(name, cat)``; when given, each pass
    runs in its own span of category ``kernelc``.
    """
    for name, run, level in PASSES:
        if opt_level < level:
            continue
        if span is None:
            run(kernel)
        else:
            with span(name, "kernelc"):
                run(kernel)


def run_pipeline(module: IRModule, opt_level: int = 3, span=None) -> None:
    """Optimize every kernel of *module* in place (see
    :func:`optimize_kernel` for *span*)."""
    for kernel in module.kernels.values():
        optimize_kernel(kernel, opt_level, span)
