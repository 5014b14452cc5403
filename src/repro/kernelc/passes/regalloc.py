"""Register-usage accounting (the PTX → SASS allocation step).

Virtual registers are unlimited; the hardware register file is not, and
per-thread register usage is what limits occupancy (Table 2.2 of the
dissertation).  This pass computes the maximum number of simultaneously
live 32-bit register equivalents over all program points via classic
backward liveness on the CFG, and stores it in ``kernel.reg_count``.

Weighting follows hardware convention: 64-bit values take two 32-bit
registers; predicates live in a separate predicate file and are not
counted.  A small fixed overhead models the registers the real ABI
reserves (stack pointer, special-purpose temporaries).
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.kernelc import typesys as T
from repro.kernelc.cfg import CFG
from repro.kernelc.ir import Imm, Instr, IRKernel, Reg

#: Registers the ABI always reserves (observed nvcc floor is ~2-4).
_ABI_OVERHEAD = 2


def _weight(reg: Reg) -> int:
    t = reg.ctype
    if T.is_pointer(t):
        return 2
    if t.is_bool:
        return 0
    return 2 if t.bits == 64 else 1


def assign_registers(kernel: IRKernel) -> int:
    """Compute and record the per-thread register footprint."""
    cfg = CFG(kernel)
    nblocks = len(cfg.blocks)
    if nblocks == 0:
        kernel.reg_count = _ABI_OVERHEAD
        return kernel.reg_count
    use: List[Set[Reg]] = [set() for _ in range(nblocks)]
    define: List[Set[Reg]] = [set() for _ in range(nblocks)]
    for block in cfg.blocks:
        for i in range(block.start, block.end):
            instr = cfg.instrs[i]
            for s in instr.srcs:
                if isinstance(s, Reg) and s not in define[block.bid]:
                    use[block.bid].add(s)
            if instr.pred is not None and \
                    instr.pred not in define[block.bid]:
                use[block.bid].add(instr.pred)
            if instr.dst is not None:
                define[block.bid].add(instr.dst)
    live_in: List[Set[Reg]] = [set() for _ in range(nblocks)]
    live_out: List[Set[Reg]] = [set() for _ in range(nblocks)]
    changed = True
    while changed:
        changed = False
        for block in reversed(cfg.blocks):
            out: Set[Reg] = set()
            for s in block.succs:
                out |= live_in[s]
            new_in = use[block.bid] | (out - define[block.bid])
            if out != live_out[block.bid] or new_in != live_in[block.bid]:
                live_out[block.bid] = out
                live_in[block.bid] = new_in
                changed = True
    peak = 0
    for block in cfg.blocks:
        live = set(live_out[block.bid])
        # Walk backwards through the block tracking live sets; the
        # pressure moves only when set membership changes.
        pressure = sum(_weight(r) for r in live)
        peak = max(peak, pressure)
        for i in range(block.end - 1, block.start - 1, -1):
            instr = cfg.instrs[i]
            dst = instr.dst
            if dst is not None and dst in live:
                live.remove(dst)
                pressure -= _weight(dst)
            for s in instr.srcs:
                if isinstance(s, Reg) and s not in live:
                    live.add(s)
                    pressure += _weight(s)
            pred = instr.pred
            if pred is not None and pred not in live:
                live.add(pred)
                pressure += _weight(pred)
            if pressure > peak:
                peak = pressure
    kernel.reg_count = peak + _ABI_OVERHEAD
    return kernel.reg_count
