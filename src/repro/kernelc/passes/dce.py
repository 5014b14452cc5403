"""Dead code elimination.

Pure instructions (and loads) whose destinations are never read are
deleted, and so, in turn, are the ones only they read; then the
unguarded branches left jumping to the next label go too.  One pass
counts the reads of every register, and a worklist deletes each dead
instruction once, queuing the definitions whose last read it was.  Run
after the constant-propagation walk (which itself deletes the blocks it
never reaches), this removes the parameter-plumbing that specialization
renders unnecessary — which is where the register-count reduction the
dissertation reports comes from (specialized kernels no longer need
registers to hold intermediate values computed from adjustable
parameters, §2.4).
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.kernelc.ir import PURE_OPS, Instr, IRKernel, Label, Reg


def dce_kernel(kernel: IRKernel) -> bool:
    """Delete dead instructions.  Returns True if changed."""
    reads: Dict[Reg, int] = {}
    defs: Dict[Reg, List[Instr]] = {}
    for item in kernel.body:
        if not isinstance(item, Instr):
            continue
        for s in item.srcs:
            if isinstance(s, Reg):
                reads[s] = reads.get(s, 0) + 1
        if item.pred is not None:
            reads[item.pred] = reads.get(item.pred, 0) + 1
        if item.dst is not None and (item.op in PURE_OPS
                                     or item.op == "ld"):
            defs.setdefault(item.dst, []).append(item)
    dead: Set[int] = set()
    worklist = [reg for reg in defs if reg not in reads]
    while worklist:
        for instr in defs.pop(worklist.pop()):
            dead.add(id(instr))
            operands = [s for s in instr.srcs if isinstance(s, Reg)]
            if instr.pred is not None:
                operands.append(instr.pred)
            for reg in operands:
                reads[reg] -= 1
                if not reads[reg] and reg in defs:
                    worklist.append(reg)
    if dead:
        kernel.body = [item for item in kernel.body
                       if id(item) not in dead]
    return _drop_jumps_to_next(kernel) or bool(dead)


def _drop_jumps_to_next(kernel: IRKernel) -> bool:
    """Delete each unguarded ``bra`` to a label that directly follows it."""
    kept: List[object] = []
    following: Set[str] = set()  # labels up to the next instruction
    for item in reversed(kernel.body):
        if isinstance(item, Label):
            following.add(item.name)
        elif item.op == "bra" and item.pred is None \
                and item.target in following:
            continue
        elif following:
            following = set()
        kept.append(item)
    if len(kept) == len(kernel.body):
        return False
    kernel.body = kept[::-1]
    return True
