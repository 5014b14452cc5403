"""Dead code elimination.

Pure instructions (and loads) whose destinations are never read are
deleted, repeatedly, until none is left; then so are the unguarded
branches left jumping to the next label.  Run after the
constant-propagation walk (which itself deletes the blocks it never
reaches), this removes the parameter-plumbing that specialization
renders unnecessary — which is where the register-count reduction the
dissertation reports comes from (specialized kernels no longer need
registers to hold intermediate values computed from adjustable
parameters, §2.4).
"""

from __future__ import annotations

from typing import List, Set

from repro.kernelc.ir import Instr, IRKernel, Label, Reg


def dce_kernel(kernel: IRKernel) -> bool:
    """Delete dead instructions.  Returns True if changed."""
    changed = False
    while True:
        used: Set[Reg] = set()
        for instr in kernel.instructions():
            for s in instr.srcs:
                if isinstance(s, Reg):
                    used.add(s)
            if instr.pred is not None:
                used.add(instr.pred)
        removed = False
        new_body: List[object] = []
        for item in kernel.body:
            if isinstance(item, Instr) and item.dst is not None \
                    and item.dst not in used \
                    and (item.is_pure() or item.op == "ld"):
                removed = True
                changed = True
                continue
            new_body.append(item)
        kernel.body = new_body
        if not removed:
            return _drop_jumps_to_next(kernel) or changed


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
        else:
            following = set()
        kept.append(item)
    if len(kept) == len(kernel.body):
        return False
    kernel.body = kept[::-1]
    return True
