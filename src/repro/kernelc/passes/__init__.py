"""IR optimization passes.

The pipeline (driven by :func:`run_pipeline`) mirrors the PTX-generation
stage of nvcc, where the dissertation notes the important optimizations
are applied (§2.4): constant folding/propagation, strength reduction,
CSE, dead-code elimination, local-array scalarization (register
blocking), and register-usage accounting.

The pipeline is a straight line with no pass loop: constant folding,
propagation, branch folding and unreachable-code removal are one sparse
conditional constant-propagation walk (:func:`propagate_kernel`), and
that walk followed by DCE is already a fixpoint.
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


def optimize_kernel(kernel: IRKernel, opt_level: int = 3) -> None:
    """Run the optimization pipeline on one kernel, in place."""
    if opt_level >= 1:
        propagate_kernel(kernel)
        dce_kernel(kernel)
        if opt_level >= 2:
            strength_reduce_kernel(kernel)
            magic_divide_kernel(kernel)
            cse_kernel(kernel)
        scalarize_kernel(kernel)
        propagate_kernel(kernel)
        dce_kernel(kernel)
        if opt_level >= 2:
            cse_kernel(kernel)
            dce_kernel(kernel)
    renumber(kernel)
    assign_registers(kernel)


def run_pipeline(module: IRModule, opt_level: int = 3) -> None:
    """Optimize every kernel of *module* in place."""
    for kernel in module.kernels.values():
        optimize_kernel(kernel, opt_level)
