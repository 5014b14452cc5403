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
(:func:`fold_instr`, then the algebraic identities) to every reachable
instruction, folds constant branches and guards, and deletes the blocks
the walk never reached — which is how whole run-time-guard regions
disappear from specialized kernels.  One walk followed by DCE (which
also drops the branches left jumping to the next label) is a fixpoint:
running both again changes nothing.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.kernelc.cfg import CFG
from repro.kernelc.ir import Imm, Instr, IRKernel, Reg
from repro.kernelc.passes.constfold import fold_identity, fold_instr

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


def _substitute(srcs, lookup) -> list:
    """*srcs* with each register of known constant value replaced."""
    out = []
    for s in srcs:
        if isinstance(s, Reg):
            known = lookup(s)
            if known is not None and known is not _BOTTOM:
                s = Imm(known, s.ctype)
        out.append(s)
    return out


def _simplify(instr: Instr):
    """(replacement or None, constant result or None) for *instr*:
    :func:`fold_instr` turns it into a ``mov`` of an immediate, or else
    an algebraic identity reduces it (``x*0`` to a constant too)."""
    folded = fold_instr(instr)
    if folded is not None:
        if instr.op == "mov" and instr.srcs[0] == folded:
            return None, folded
        return Instr("mov", instr.dtype, instr.dst, [folded],
                     pred=instr.pred, pred_neg=instr.pred_neg,
                     line=instr.line), folded
    simpler = fold_identity(instr)
    if simpler is None:
        return None, None
    simpler.pred = instr.pred
    simpler.pred_neg = instr.pred_neg
    return simpler, fold_instr(simpler)


def _value_of(instr: Instr, lookup) -> object:
    """Fact for the register an unguarded *instr* writes."""
    if not instr.is_pure():
        return _BOTTOM
    srcs = _substitute(instr.srcs, lookup)
    immediates = sum(isinstance(s, Imm) for s in srcs)
    if immediates < len(srcs) and (immediates == 0 or len(srcs) != 2):
        return _BOTTOM  # neither folds nor meets a binary identity
    _, folded = _simplify(Instr(instr.op, instr.dtype, instr.dst, srcs,
                                cmp=instr.cmp))
    return _BOTTOM if folded is None else folded.value


def _transfer(cfg: CFG, block, env: Dict[Reg, object], interesting):
    """Run constants through one block.

    Returns the out-environment and the executable successors.  Only
    *interesting* registers (those live across block boundaries) are
    tracked globally; block-local values are handled by the rewrite
    walk, which keeps the dataflow dictionaries small even for fully
    unrolled kernels.
    """
    env = dict(env)
    local: Dict[Reg, object] = {}

    def lookup(reg):
        v = local.get(reg)
        return v if v is not None else env.get(reg)

    for i in range(block.start, block.end):
        instr = cfg.instrs[i]
        dst = instr.dst
        if dst is None:
            continue
        runs = _runs(instr, lookup)
        if runs is False:
            continue
        value = _value_of(instr, lookup) if runs else _BOTTOM
        if dst in interesting:
            env[dst] = value
            local.pop(dst, None)
        else:
            local[dst] = value
    succs = block.succs
    if block.end > block.start:
        last = cfg.instrs[block.end - 1]
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


def _solve(cfg: CFG) -> List[Optional[Dict[Reg, object]]]:
    """In-environment per block; None for blocks never reached."""
    interesting = _interesting_regs(cfg)
    nblocks = len(cfg.blocks)
    block_in: List[Optional[Dict[Reg, object]]] = [None] * nblocks
    block_out: List[Optional[tuple]] = [None] * nblocks
    block_in[0] = {}
    worklist = [0]
    while worklist:
        bid = worklist.pop()
        out = _transfer(cfg, cfg.blocks[bid], block_in[bid], interesting)
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


def _rewrite(cfg: CFG, block, env: Dict[Reg, object]) -> bool:
    """Fold one reachable block under its in-environment."""
    env = dict(env)
    changed = False
    for i in range(block.start, block.end):
        instr = cfg.instrs[i]
        srcs = _substitute(instr.srcs, env.get)
        changed |= any(a is not b for a, b in zip(srcs, instr.srcs))
        instr.srcs = srcs
        runs = _runs(instr, env.get)
        if runs is False:
            _delete(instr)
            changed = True
            continue
        if runs and instr.pred is not None:
            instr.pred = None
            instr.pred_neg = False
            changed = True
        simpler, folded = _simplify(instr)
        if simpler is not None:
            instr = cfg.instrs[i] = simpler
            changed = True
        if instr.dst is not None:
            known = runs and folded is not None
            env[instr.dst] = folded.value if known else _BOTTOM
    return changed


def propagate_kernel(kernel: IRKernel) -> bool:
    """Propagate and fold constants through *kernel*, delete the code
    that cannot run, and return True if anything changed."""
    cfg = CFG(kernel)
    if not cfg.blocks:
        return False
    block_in = _solve(cfg)
    changed = False
    for block in cfg.blocks:
        env = block_in[block.bid]
        if env is not None:
            changed |= _rewrite(cfg, block, env)
            continue
        for i in range(block.start, block.end):
            _delete(cfg.instrs[i])
            changed = True
    if changed:
        cfg.rebuild_body()
    return changed
