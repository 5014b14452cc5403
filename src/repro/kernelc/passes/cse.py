"""Local common-subexpression elimination with copy propagation.

Within each basic block, pure instructions with identical opcodes and
operands reuse the earlier result instead of recomputing it.  Registers
are mutable, so an expression's availability ends when any of its input
registers (or its result register) is redefined.  Register-to-register
``mov`` copies are propagated locally so chains produced by earlier
replacements collapse too; DCE then sweeps the dead movs.

This keeps specialized kernels honest: unrolled loop bodies share their
common address sub-expressions the way nvcc's PTX does, so the
instruction-count comparison between RE and SK kernels reflects real
toolchain behaviour rather than naive duplication.

The pass walks the body directly: a block starts at a label some branch
targets and after each ``bra`` or ``exit``, exactly where
:class:`~repro.kernelc.cfg.CFG` would start one.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.kernelc.cfg import branch_targets
from repro.kernelc.ir import COMMUTATIVE_OPS, Imm, Instr, IRKernel, Label, Reg


def _operand_key(operand):
    """Registers key by identity.  Immediates key by value and PTX type
    suffix; non-``int`` values (bools, floats) by ``repr``, so ``1``,
    ``True`` and ``1.0`` and the two zeros ``0.0`` and ``-0.0`` stay
    apart."""
    if isinstance(operand, Reg):
        return operand
    if isinstance(operand, Imm):
        value = operand.value
        if value.__class__ is not int:
            value = repr(value)
        return value, operand.ctype.ptx_suffix()
    return operand.name


def _key(instr: Instr) -> Tuple:
    srcs = instr.srcs
    if len(srcs) == 2 and instr.op in COMMUTATIVE_OPS:
        # An unordered pair: ``add a, b`` and ``add b, a`` share a key.
        operands = frozenset((_operand_key(srcs[0]),
                              _operand_key(srcs[1])))
    else:
        operands = tuple([_operand_key(s) for s in srcs])
    return instr.op, instr.dtype.ptx_suffix(), instr.cmp, operands


def cse_kernel(kernel: IRKernel) -> bool:
    """Eliminate redundant pure computations per block."""
    targets = branch_targets(kernel.instructions())
    changed = False
    # Per-block state.  ``copies`` maps a register to the register it
    # copies, which is never itself a copy: each entry is made after
    # resolving its source and dropped when either side is redefined.
    available: Dict[Tuple, Reg] = {}
    uses: Dict[Reg, List[Tuple]] = {}
    copies: Dict[Reg, Reg] = {}
    copy_rev: Dict[Reg, Set[Reg]] = {}

    def kill(reg: Reg) -> None:
        # Invalidate expressions touching reg and copies through it.
        for key in uses.pop(reg, ()):
            available.pop(key, None)
        old = copies.pop(reg, None)
        if old is not None:
            copy_rev[old].discard(reg)
        for dependent in copy_rev.pop(reg, ()):
            del copies[dependent]

    def new_block() -> None:
        available.clear()
        uses.clear()
        copies.clear()
        copy_rev.clear()

    for instr in kernel.body:
        if isinstance(instr, Label):
            if instr.name in targets:
                new_block()
            continue
        if copies:
            srcs = instr.srcs
            for j, s in enumerate(srcs):
                if isinstance(s, Reg) and s in copies:
                    if srcs is instr.srcs:
                        srcs = instr.srcs = list(srcs)
                    srcs[j] = copies[s]
                    changed = True
            if instr.pred is not None:
                r = copies.get(instr.pred, instr.pred)
                if r is not instr.pred:
                    instr.pred = r
                    changed = True
        dst = instr.dst
        if dst is not None:
            kill(dst)
        if not instr.is_pure() or dst is None or instr.pred is not None:
            if instr.op in ("bra", "exit"):
                new_block()
            continue
        if instr.op == "mov" and isinstance(instr.srcs[0], Reg):
            src = instr.srcs[0]
            if src is not dst:
                copies[dst] = src
                copy_rev.setdefault(src, set()).add(dst)
            continue
        key = _key(instr)
        prior = available.get(key)
        if prior is not None and prior is not dst:
            instr.op = "mov"
            instr.cmp = ""
            instr.srcs = [prior]
            copies[dst] = prior
            copy_rev.setdefault(prior, set()).add(dst)
            changed = True
        elif dst not in instr.srcs:
            available[key] = dst
            for s in instr.srcs:
                if isinstance(s, Reg):
                    uses.setdefault(s, []).append(key)
            uses.setdefault(dst, []).append(key)
    if changed:
        kernel.body = [item for item in kernel.body
                       if not isinstance(item, Label)
                       or item.name in targets]
    return changed
