"""Sparse conditional constant propagation (Wegman–Zadeck, TOPLAS 1991).

Registers in the IR are mutable (non-SSA), so constantness is a forward
dataflow property: a register is constant at a point when every reaching
definition along an *executable* path assigns it the same immediate.
:func:`propagate_kernel` solves that problem in one optimistic worklist
walk that follows only executable CFG edges: a branch whose predicate is
a known constant contributes one successor, and a guarded instruction
whose guard is known either runs unguarded or not at all.  Facts only
fall (unset -> constant -> not constant), so the walk converges without
an iteration cap.

The rewrite then substitutes the known constants, applies
:mod:`~repro.kernelc.passes.constfold`'s per-instruction rule
(:func:`fold_values`, then the algebraic identities) to every reachable
instruction, folds constant branches and guards, and deletes the blocks
the walk never reached — which is how whole run-time-guard regions
disappear from specialized kernels.  One walk followed by DCE (which
also drops the branches left jumping to the next label) is a fixpoint:
running both again changes nothing.

Each instruction is folded once.  The walk records every instruction's
answer (:func:`_evaluate`) on its block's last visit, which sees the
block's final in-environment, and the rewrite reuses it; only an
instruction whose guard stays unknown is folded by the rewrite itself.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.kernelc import typesys as T
from repro.kernelc.cfg import CFG
from repro.kernelc.ir import PURE_OPS, Imm, Instr, IRKernel, Reg
from repro.kernelc.passes.constfold import (ZERO, fold_identity,
                                            fold_values, identity)

#: Lattice bottom: definitely not a constant.  A register missing from
#: an environment is still unset (lattice top).
_BOTTOM = object()


def _runs(instr: Instr, lookup) -> Optional[bool]:
    """Whether *instr* executes: None while its guard is not constant."""
    if instr.pred is None:
        return True
    known = lookup(instr.pred)
    if known is None or known is _BOTTOM:
        return None
    return bool(known) != instr.pred_neg


def _substitute(srcs, lookup) -> Optional[list]:
    """*srcs* with each register of known constant value replaced, or
    None when no register has one."""
    out = None
    for j, s in enumerate(srcs):
        if isinstance(s, Reg):
            known = lookup(s)
            if known is not None and known is not _BOTTOM:
                if out is None:
                    out = list(srcs)
                out[j] = Imm(known, s.ctype)
    return out


#: :func:`_evaluate`'s answer for an instruction that stays as it is.
_UNKNOWN = (None, _BOTTOM)


def _evaluate(instr: Instr, lookup) -> Tuple[Optional[Imm], object]:
    """(folded, fact) for *instr* under the constants *lookup* knows.

    ``folded`` is the immediate :func:`fold_values` computes when every
    source is constant; the rewrite turns the instruction into a ``mov``
    of it.  ``fact`` is the value the destination holds when the
    instruction runs: ``folded``'s, or the constant an algebraic
    identity leaves (``x*0``), or :data:`_BOTTOM`.
    """
    op = instr.op
    if op not in PURE_OPS:
        return _UNKNOWN
    srcs = instr.srcs
    values = []
    unknown = False
    for s in srcs:
        if isinstance(s, Imm):
            values.append(s.value)
            continue
        value = lookup(s) if isinstance(s, Reg) else None
        if value is None or value is _BOTTOM:
            if unknown or len(srcs) != 2:
                return _UNKNOWN  # neither folds nor meets an identity
            unknown = True
            value = None
        values.append(value)
    t = instr.dtype
    if not unknown:
        folded = fold_values(op, t, instr.cmp, values)
        if folded is not None:
            return folded, folded.value
    if len(srcs) != 2:
        return _UNKNOWN
    pick = identity(op, t, values[0], values[1])
    if pick == ZERO:
        return None, T.convert_const(0, t)
    if pick is None or values[pick] is None:
        return _UNKNOWN
    return None, T.convert_const(values[pick], t)


def _transfer(cfg: CFG, block, env: Dict[Reg, object], interesting,
              results: list):
    """Run constants through one block.

    Returns the out-environment and the executable successors, and
    stores each instruction's :func:`_evaluate` answer in *results*
    (None where it did not run unguarded).  The block's last transfer
    sees its final in-environment, so the rewrite takes those answers
    as they are.  Only *interesting* registers (those live across block
    boundaries) are tracked globally; block-local values are kept in a
    scratch dictionary per visit, which keeps the dataflow dictionaries
    small even for fully unrolled kernels.
    """
    env = dict(env)
    local: Dict[Reg, object] = {}

    def lookup(reg):
        v = local.get(reg)
        return v if v is not None else env.get(reg)

    instrs = cfg.instrs
    for i in range(block.start, block.end):
        instr = instrs[i]
        dst = instr.dst
        if dst is None:
            continue
        runs = _runs(instr, lookup)
        if runs is False:
            continue
        if runs:
            result = results[i] = _evaluate(instr, lookup)
            value = result[1]
        else:
            results[i] = None
            value = _BOTTOM
        if dst in interesting:
            env[dst] = value
            local.pop(dst, None)
        else:
            local[dst] = value
    succs = block.succs
    if block.end > block.start:
        last = instrs[block.end - 1]
        if last.op == "bra" and last.pred is not None:
            runs = _runs(last, lookup)
            if runs is not None:
                # succs is [target, fall-through] for a guarded branch.
                succs = succs[:1] if runs else succs[1:]
    return env, succs


def _meet(a: Dict[Reg, object], b: Dict[Reg, object]) -> Dict[Reg, object]:
    out = dict(a)
    for reg, vb in b.items():
        va = out.get(reg)
        if va is None:
            out[reg] = vb
        elif vb is _BOTTOM or va != vb:
            out[reg] = _BOTTOM
    return out


def _interesting_regs(cfg: CFG):
    """Registers read in a block without a prior definition there.

    Only these can carry constants *across* blocks; everything else is
    block-local and handled by the rewrite walk.  Keeping the dataflow
    dictionaries to this set makes propagation linear-ish even on fully
    unrolled kernels.
    """
    interesting = set()
    for block in cfg.blocks:
        defined = set()
        for i in range(block.start, block.end):
            instr = cfg.instrs[i]
            for s in instr.srcs:
                if isinstance(s, Reg) and s not in defined:
                    interesting.add(s)
            if instr.pred is not None and instr.pred not in defined:
                interesting.add(instr.pred)
            if instr.dst is not None:
                defined.add(instr.dst)
    return interesting


def _solve(cfg: CFG, results: list) -> List[Optional[Dict[Reg, object]]]:
    """In-environment per block; None for blocks never reached."""
    interesting = _interesting_regs(cfg)
    nblocks = len(cfg.blocks)
    block_in: List[Optional[Dict[Reg, object]]] = [None] * nblocks
    block_out: List[Optional[tuple]] = [None] * nblocks
    block_in[0] = {}
    worklist = [0]
    while worklist:
        bid = worklist.pop()
        out = _transfer(cfg, cfg.blocks[bid], block_in[bid], interesting,
                        results)
        if block_out[bid] == out:
            continue
        block_out[bid] = out
        env_out, succs = out
        for succ in succs:
            if block_in[succ] is None:
                block_in[succ] = dict(env_out)
                worklist.append(succ)
            else:
                merged = _meet(block_in[succ], env_out)
                if merged != block_in[succ]:
                    block_in[succ] = merged
                    worklist.append(succ)
    return block_in


def _delete(instr: Instr) -> None:
    instr.op = "nop"
    instr.dst = None
    instr.srcs = []


def _rewrite(cfg: CFG, block, env: Dict[Reg, object],
             results: list) -> bool:
    """Fold one reachable block under its in-environment, taking each
    instruction's answer from the solve where it is final."""
    env = dict(env)
    changed = False
    for i in range(block.start, block.end):
        instr = cfg.instrs[i]
        srcs = _substitute(instr.srcs, env.get)
        if srcs is not None:
            instr.srcs = srcs
            changed = True
        runs = _runs(instr, env.get)
        if runs is False:
            _delete(instr)
            changed = True
            continue
        if runs and instr.pred is not None:
            instr.pred = None
            instr.pred_neg = False
            changed = True
        result = results[i] if runs else None
        folded, fact = result or _evaluate(instr, env.get)
        if folded is not None:
            simpler = None
            if instr.op != "mov" or instr.srcs[0] != folded:
                simpler = Instr("mov", instr.dtype, instr.dst, [folded],
                                pred=instr.pred, pred_neg=instr.pred_neg,
                                line=instr.line)
        else:
            simpler = fold_identity(instr)
            if simpler is not None:
                simpler.pred = instr.pred
                simpler.pred_neg = instr.pred_neg
        if simpler is not None:
            instr = cfg.instrs[i] = simpler
            changed = True
        if instr.dst is not None:
            env[instr.dst] = fact if runs else _BOTTOM
    return changed


def propagate_kernel(kernel: IRKernel) -> bool:
    """Propagate and fold constants through *kernel*, delete the code
    that cannot run, and return True if anything changed."""
    cfg = CFG(kernel)
    if not cfg.blocks:
        return False
    results: list = [None] * len(cfg.instrs)
    block_in = _solve(cfg, results)
    changed = False
    for block in cfg.blocks:
        env = block_in[block.bid]
        if env is not None:
            changed |= _rewrite(cfg, block, env, results)
            continue
        for i in range(block.start, block.end):
            _delete(cfg.instrs[i])
            changed = True
    if changed:
        cfg.rebuild_body()
    return changed
