"""Warp-vectorized SIMT interpreter.

Executes one thread block of a compiled kernel the way an SM does:
warps of 32 lanes run in lockstep over NumPy lane-arrays; divergence is
handled with the standard immediate-post-dominator reconvergence stack;
``bar.sync`` rendezvous suspends warps until the whole block arrives.

For speed, kernels are first lowered to an execution *plan*
(:class:`KernelPlan`): virtual registers become integer indices into a
flat list, immediate operands become pre-broadcast lane arrays, branch
targets become instruction indices, and issue costs are resolved
against the device model once.  The interpreter then dispatches on
plain tuples — no IR-object hashing in the hot loop.

While executing, each warp accumulates the micro-architectural event
counts the timing model consumes: issue cycles, global-memory
transactions (via the coalescing rules), shared-memory bank replays,
and scoreboard stalls (a read of a register with an outstanding load).
The scoreboard is what makes register blocking pay off in the simulator
exactly as on hardware: batching independent loads ahead of their uses
removes stall events, trading thread-level for instruction-level
parallelism (§2.3 of the dissertation).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.gpusim import coalescing
from repro.gpusim.device import DeviceSpec, cost_class
from repro.gpusim.memory import FlatMemory, GlobalMemory, MemoryError_
from repro.kernelc import typesys as T
from repro.kernelc.cfg import CFG
from repro.kernelc.ir import Imm, Instr, IRKernel, Reg, Special

WARP = 32

#: Latency charged per scoreboard stall on a shared-memory load.
SHARED_LATENCY = 30


class SimError(Exception):
    """Runtime fault in the simulated kernel (bad access, bad sync...)."""


@dataclass
class WarpStats:
    """Per-warp event counters for the timing model."""

    issue_cycles: float = 0.0
    instructions: int = 0
    mem_transactions: int = 0
    mem_bytes: int = 0
    global_stalls: int = 0
    shared_stalls: int = 0
    barriers: int = 0
    divergent_branches: int = 0
    atomics: int = 0


@dataclass
class BlockStats:
    """Aggregated per-block statistics."""

    warps: List[WarpStats] = field(default_factory=list)

    @property
    def issue_cycles(self) -> float:
        return sum(w.issue_cycles for w in self.warps)

    @property
    def mem_bytes(self) -> int:
        return sum(w.mem_bytes for w in self.warps)

    @property
    def mem_transactions(self) -> int:
        return sum(w.mem_transactions for w in self.warps)

    @property
    def instructions(self) -> int:
        return sum(w.instructions for w in self.warps)

    def latency_bound(self, device: DeviceSpec) -> float:
        """Serial completion time of the slowest warp (cycles)."""
        bound = 0.0
        for w in self.warps:
            cycles = (w.issue_cycles
                      + w.global_stalls * device.mem_latency
                      + w.shared_stalls * SHARED_LATENCY)
            bound = max(bound, cycles)
        return bound


class PlannedInstr:
    """One instruction, pre-resolved for fast interpretation.

    ``run``/``fn``/``exact`` are the gang interpreter's bound handler,
    NumPy semantics and write flag
    (:func:`repro.gpusim.engine.bind_handler`); the serial oracle
    ignores them.
    """

    __slots__ = ("op", "ctype", "np_dtype", "itemsize", "cmp", "space",
                 "target", "pred", "pred_neg", "dst", "dst_dtype",
                 "srcs", "reg_srcs", "cost", "param_name", "is_bool",
                 "run", "fn", "exact")

    def __init__(self):
        self.pred = -1
        self.pred_neg = False
        self.dst = -1
        self.target = -1
        self.param_name = None


class KernelPlan:
    """Pre-computed execution structures shared across blocks."""

    def __init__(self, kernel: IRKernel, device: DeviceSpec):
        # Weak so a cached plan never pins a dead kernel module.
        self._kernel_ref = weakref.ref(kernel)
        self.device = device
        cfg = CFG(kernel)
        self.label_index = cfg.label_index
        self.ipdom = cfg.ipdom_instr()
        self._reg_index: Dict[Reg, int] = {}
        self._reg_dtypes: List[np.dtype] = []
        # Operand descriptors, shared by every instruction that reads
        # the same register or immediate the same way.  A register's
        # key is its descriptor; an immediate's is ("c", dtype, value),
        # a non-int value keyed by repr so 0.0 and -0.0 stay apart.
        self._operands: Dict[Tuple, Tuple] = {}
        # Deferred import: the engine module imports this one.
        from repro.gpusim.engine import bind_handler
        self.instrs: List[PlannedInstr] = [
            bind_handler(self._plan(i)) for i in cfg.instrs]
        # Only planning reads these; cached plans live as long as their
        # kernels, so they are not kept.
        del self._reg_index, self._operands
        self.n_regs = len(self._reg_dtypes)
        self.n = len(self.instrs)
        # Gang prototypes (repro.gpusim.engine): per-(block_dim,
        # grid_dim) warp lane layouts reused across launches.  Stored
        # on the plan so their lifetime rides the plan cache — evicted
        # together when the kernel IR dies or the cache is cleared.
        self.gang_protos: Dict[Tuple, object] = {}
        # Compiled gang traces (repro.gpusim.trace): keyed
        # (entry_pc, active-lane signature).  Riding the plan gives
        # traces the same lifetime/eviction story as gang prototypes.
        self.traces: Dict[Tuple, object] = {}
        #: Failed recording attempts per trace key; keys that keep
        #: aborting (member divergence every run) stop being retried.
        self.trace_aborts: Dict[Tuple, int] = {}
        #: Keys with a recording in flight this batch, so sibling
        #: warps don't redundantly record the same region.
        self.trace_pending = set()
        #: Memoized single-row shared-memory conflict factors/indices
        #: for the trace engine's row-uniform fast path, keyed by raw
        #: address/mask bytes (patterns are tid-derived and recur).
        self.shared_rows: Dict[Tuple, Tuple] = {}
        #: Memoized whole-gang shared factors/indices for patterns no
        #: row canonicalisation collapses (ctaid-derived addressing);
        #: geometry functions, so they recur across launches.
        self.shared_pats: Dict[Tuple, Tuple] = {}
        #: Memoized global coalescing/index results keyed by 256-byte
        #: base-relative address bytes, so per-run allocations (the
        #: bump allocator never reuses addresses) still hit.
        self.global_pats: Dict[Tuple, Tuple] = {}

    @property
    def kernel(self) -> Optional[IRKernel]:
        return self._kernel_ref()

    def _reg(self, reg: Reg) -> int:
        idx = self._reg_index.get(reg)
        if idx is None:
            idx = len(self._reg_dtypes)
            self._reg_index[reg] = idx
            self._reg_dtypes.append(reg.ctype.np_dtype())
        return idx

    def _operand(self, operand, want_dtype: Optional[np.dtype]):
        """-> ('r', idx, cast_or_None) | ('c', array) | ('s', name)."""
        if isinstance(operand, Reg):
            idx = self._reg(operand)
            have = operand.ctype.np_dtype()
            cast = want_dtype if (want_dtype is not None
                                  and have != want_dtype) else None
            desc = ("r", idx, cast)
            return self._operands.setdefault(desc, desc)
        if isinstance(operand, Imm):
            dtype = want_dtype or operand.ctype.np_dtype()
            value = operand.value
            key = ("c", dtype,
                   value if value.__class__ is int else repr(value))
            desc = self._operands.get(key)
            if desc is None:
                arr = np.full(WARP, value, dtype=dtype)
                arr.flags.writeable = False
                desc = self._operands[key] = ("c", arr, None)
            return desc
        if isinstance(operand, Special):
            return ("s", operand.name, want_dtype)
        raise SimError(f"bad operand {operand!r}")

    def _plan(self, instr: Instr) -> PlannedInstr:
        p = PlannedInstr()
        p.op = instr.op
        p.ctype = instr.dtype
        p.cmp = instr.cmp
        p.space = instr.space
        p.is_bool = getattr(instr.dtype, "is_bool", False)
        try:
            p.np_dtype = instr.dtype.np_dtype()
        except (ValueError, KeyError):
            p.np_dtype = np.dtype(np.int32)
        p.itemsize = getattr(instr.dtype, "size", 4)
        if instr.pred is not None:
            p.pred = self._reg(instr.pred)
            p.pred_neg = instr.pred_neg
        if instr.dst is not None:
            p.dst = self._reg(instr.dst)
            p.dst_dtype = instr.dst.ctype.np_dtype()
        else:
            p.dst_dtype = p.np_dtype
        if instr.op == "bra":
            p.target = self.label_index[instr.target]
        # Per-position operand target dtypes.
        want: List[Optional[np.dtype]] = []
        if instr.op in ("cvt",):
            want = [None]
        elif instr.op in ("shl", "shr"):
            want = [p.np_dtype, None]
        elif instr.op == "selp":
            want = [p.np_dtype, p.np_dtype, None]
        elif instr.op == "tex":
            p.param_name = instr.srcs[0].name
            coord_np = np.dtype(np.int32) if instr.cmp == "1d" \
                else np.dtype(np.float32)
            p.srcs = tuple(self._operand(s, coord_np)
                           for s in instr.srcs[1:])
            p.reg_srcs = tuple(d[1] for d in p.srcs if d[0] == "r")
            p.cost = 0.0
            return p
        elif instr.op == "ld":
            want = [None]
            if instr.space == "param" and isinstance(instr.srcs[0],
                                                     Special):
                p.param_name = instr.srcs[0].name
        elif instr.op in ("st", "atom"):
            want = [None, p.np_dtype]
        else:
            want = [p.np_dtype] * len(instr.srcs)
        p.srcs = tuple([self._operand(s, w)
                        for s, w in zip(instr.srcs, want)])
        reg_srcs = [d[1] for d in p.srcs if d[0] == "r"]
        if p.pred >= 0:
            reg_srcs.append(p.pred)
        p.reg_srcs = tuple(reg_srcs)
        if instr.op in ("ld", "st", "atom"):
            if instr.space == "param":
                p.cost = self.device.issue_cost["shared"]
            else:
                p.cost = 0.0  # memory costs computed per access
        else:
            p.cost = self.device.issue_cost[
                cost_class(instr.op, instr.dtype, instr.cmp)]
        return p


def _ctx(ctx):
    if ctx is None:
        from repro.runtime.context import current_context
        ctx = current_context()
    return ctx


def plan_for(kernel: IRKernel, device: DeviceSpec,
             ctx=None) -> KernelPlan:
    """A (cached) :class:`KernelPlan` for *kernel* on *device*.

    Sweeps launch the same kernel thousands of times; planning is pure
    per ``(kernel identity, device)``, so it is paid once here.  The
    cache lives on the :class:`~repro.runtime.context.ExecutionContext`
    (*ctx*, default current): entries key on ``(id(kernel_ir),
    device.name)`` and are evicted by a weakref finalizer when the
    kernel IR dies, so a recycled ``id()`` can never alias a stale
    plan.  The finalizer holds *ctx* weakly, so IR that outlives the
    context never keeps the context's caches alive.
    """
    ctx = _ctx(ctx)
    key = (id(kernel), device.name)
    plan = ctx.plan_cache.get(key)
    if plan is not None and plan.kernel is kernel:
        ctx.metrics.inc("cache.plan_hits")
        return plan
    ctx.metrics.inc("cache.plan_misses")
    tracer = ctx.tracer
    if tracer is not None:
        with tracer.span(f"plan:{kernel.name}", "plan",
                         device=device.name):
            plan = KernelPlan(kernel, device)
    else:
        plan = KernelPlan(kernel, device)
    ctx.plan_cache[key] = plan
    weakref.finalize(kernel, _evict_plan, weakref.ref(ctx), key)
    return plan


def _evict_plan(ctx_ref, key) -> None:
    """Finalizer of one plan-cache entry, counted in
    ``cache.plan_evictions``.  It reaches the context through a
    weakref: IR shared through a run-wide kernel cache outlives the
    cell contexts that planned it, and must not pin their plans, gang
    prototypes and traces."""
    ctx = ctx_ref()
    if ctx is not None and ctx.plan_cache.pop(key, None) is not None:
        ctx.metrics.inc("cache.plan_evictions")


def clear_plan_cache(ctx=None) -> None:
    """Drop *ctx*'s (default current) cached plans; counters keep
    counting, so callers measure deltas of ``ctx.cache_counters()``."""
    _ctx(ctx).clear_plan_cache()


_CMP_FN = {"eq": np.equal, "ne": np.not_equal, "lt": np.less,
           "le": np.less_equal, "gt": np.greater, "ge": np.greater_equal}


class _Warp:
    """Execution state of one warp."""

    __slots__ = ("block", "wid", "lane_mask", "regs", "stack", "stats",
                 "finished", "at_barrier", "specials", "outstanding",
                 "local", "lane_full")

    def __init__(self, block: "BlockExecutor", wid: int,
                 lane_mask: np.ndarray, specials: Dict[str, np.ndarray]):
        self.block = block
        self.wid = wid
        self.lane_mask = lane_mask
        self.lane_full = bool(lane_mask.all())
        self.regs: List[Optional[np.ndarray]] = \
            [None] * block.plan.n_regs
        # SIMT stack entries: [reconv_pc, mask, pc, covers_warp]
        self.stack: List[List] = [
            [block.plan.n, lane_mask.copy(), 0, True]]
        self.stats = WarpStats()
        self.finished = not lane_mask.any()
        self.at_barrier = False
        self.specials = specials
        self.outstanding: Dict[int, str] = {}
        local_bytes = block.kernel.local_bytes
        self.local = (FlatMemory(local_bytes * WARP, "local")
                      if local_bytes else None)

    # -- operand plumbing --------------------------------------------

    def read(self, desc) -> np.ndarray:
        kind, payload, cast = desc
        if kind == "r":
            arr = self.regs[payload]
            if arr is None:
                arr = np.zeros(WARP,
                               dtype=self.block.plan._reg_dtypes[payload])
                self.regs[payload] = arr
            if cast is not None:
                return arr.astype(cast)
            return arr
        if kind == "c":
            return payload
        arr = self.specials[payload]
        if cast is not None and arr.dtype != cast:
            return arr.astype(cast)
        return arr

    def write(self, p: PlannedInstr, value: np.ndarray,
              mask: np.ndarray, covers: bool) -> None:
        if value.dtype != p.dst_dtype:
            value = value.astype(p.dst_dtype)
        if covers:
            self.regs[p.dst] = value
        else:
            old = self.regs[p.dst]
            if old is None:
                old = np.zeros(WARP, dtype=p.dst_dtype)
            self.regs[p.dst] = np.where(mask, value, old)

    # -- main loop -----------------------------------------------------

    def run(self) -> str:
        """Execute until barrier ('bar') or completion ('exit')."""
        block = self.block
        plan = block.plan
        instrs = plan.instrs
        n = plan.n
        stats = self.stats
        outstanding = self.outstanding
        while True:
            if not self.stack:
                self.finished = True
                return "exit"
            top = self.stack[-1]
            reconv, mask, pc, covers = top[0], top[1], top[2], top[3]
            if not covers and not mask.any():
                self.stack.pop()
                continue
            if pc == reconv or pc >= n:
                self.stack.pop()
                if self.stack:
                    continue
                self.finished = True
                return "exit"
            p = instrs[pc]
            op = p.op
            if outstanding:
                self._score_read(p)
            exec_mask = mask
            exec_covers = covers
            if p.pred >= 0 and op != "bra":
                pred = self.regs[p.pred]
                if pred is None:
                    pred = np.zeros(WARP, dtype=bool)
                lane_take = pred != p.pred_neg
                exec_mask = mask & lane_take
                exec_covers = False
            if op == "bra":
                stats.issue_cycles += p.cost
                stats.instructions += 1
                new_pc = self._branch(p, top, mask, pc)
                if new_pc is not None:
                    top[2] = new_pc
                continue
            if op == "bar":
                if not covers or not self._mask_is_warp(mask):
                    raise SimError(
                        "__syncthreads() reached in divergent code — "
                        "undefined behaviour in CUDA, rejected here")
                stats.issue_cycles += p.cost or \
                    self.block.device.issue_cost["bar"]
                stats.instructions += 1
                stats.barriers += 1
                outstanding.clear()
                top[2] = pc + 1
                self.at_barrier = True
                return "bar"
            if op == "exit":
                self._terminate(mask)
                continue
            self._execute(p, exec_mask, exec_covers)
            top[2] = pc + 1

    def _mask_is_warp(self, mask: np.ndarray) -> bool:
        return bool((mask == self.lane_mask).all())

    def _score_read(self, p: PlannedInstr) -> None:
        outstanding = self.outstanding
        waited_g = waited_s = False
        for idx in p.reg_srcs:
            kind = outstanding.get(idx)
            if kind is not None:
                waited_g |= kind == "g"
                waited_s |= kind == "s"
        if waited_g:
            self.stats.global_stalls += 1
            outstanding.clear()
        elif waited_s:
            self.stats.shared_stalls += 1
            outstanding.clear()

    def _terminate(self, mask: np.ndarray) -> None:
        self.lane_mask = self.lane_mask & ~mask
        self.lane_full = False
        for entry in self.stack:
            entry[1] = entry[1] & ~mask
            entry[3] = False

    def _branch(self, p: PlannedInstr, top, mask, pc) -> Optional[int]:
        if p.pred < 0:
            return p.target
        pred = self.regs[p.pred]
        if pred is None:
            pred = np.zeros(WARP, dtype=bool)
        lane_take = pred != p.pred_neg
        taken = mask & lane_take
        fall = mask & ~lane_take
        any_taken = bool(taken.any())
        any_fall = bool(fall.any())
        if not any_taken:
            return pc + 1
        if not any_fall:
            return p.target
        # Divergence: reconverge at the immediate post-dominator.
        self.stats.divergent_branches += 1
        reconv = self.block.ipdom.get(pc, self.block.plan.n)
        top[2] = reconv  # the join resumes here with the full mask
        self.stack.append([reconv, fall, pc + 1, False])
        self.stack.append([reconv, taken, p.target, False])
        return None

    # -- instruction semantics -----------------------------------------

    def _execute(self, p: PlannedInstr, mask: np.ndarray,
                 covers: bool) -> None:
        op = p.op
        stats = self.stats
        stats.instructions += 1
        if op in ("ld", "st", "atom"):
            self._memory(p, mask, covers)
            return
        if op == "tex":
            self._tex(p, mask, covers)
            return
        stats.issue_cycles += p.cost
        if not covers and not mask.any():
            return
        srcs = p.srcs
        if op == "mov":
            self.write(p, self.read(srcs[0]), mask, covers)
            return
        if op == "add":
            self.write(p, self.read(srcs[0]) + self.read(srcs[1]),
                       mask, covers)
            return
        if op == "mul":
            self.write(p, self.read(srcs[0]) * self.read(srcs[1]),
                       mask, covers)
            return
        if op == "sub":
            self.write(p, self.read(srcs[0]) - self.read(srcs[1]),
                       mask, covers)
            return
        if op == "setp":
            a = self.read(srcs[0])
            b = self.read(srcs[1])
            self.write(p, _CMP_FN[p.cmp](a, b), mask, covers)
            return
        if op == "selp":
            a = self.read(srcs[0])
            b = self.read(srcs[1])
            sel = self.read(srcs[2])
            self.write(p, np.where(sel, a, b), mask, covers)
            return
        if op == "cvt":
            self._cvt(p, mask, covers)
            return
        if op in _BINARY:
            a = self.read(srcs[0])
            b = self.read(srcs[1])
            if p.is_bool and op in ("and", "or", "xor"):
                fn = {"and": np.logical_and, "or": np.logical_or,
                      "xor": np.logical_xor}[op]
                self.write(p, fn(a, b), mask, covers)
                return
            self.write(p, _BINARY[op](a, b, p), mask, covers)
            return
        if op in ("mad", "fma"):
            a = self.read(srcs[0])
            b = self.read(srcs[1])
            c = self.read(srcs[2])
            self.write(p, a * b + c, mask, covers)
            return
        if op in _UNARY:
            a = self.read(srcs[0])
            if op == "not" and p.is_bool:
                self.write(p, np.logical_not(a), mask, covers)
                return
            self.write(p, _UNARY[op](a, p), mask, covers)
            return
        raise SimError(f"unimplemented opcode {op!r}")

    def _cvt(self, p: PlannedInstr, mask, covers) -> None:
        value = self.read(p.srcs[0])
        if p.ctype.is_integer and value.dtype.kind == "f":
            if p.cmp.endswith(".rn"):
                value = np.rint(value)
            else:
                value = np.trunc(value)
            value = np.where(np.isfinite(value), value, 0.0)
        self.write(p, value.astype(p.np_dtype), mask, covers)

    # -- memory ------------------------------------------------------

    def _memory(self, p: PlannedInstr, mask: np.ndarray,
                covers: bool) -> None:
        device = self.block.device
        stats = self.stats
        space = p.space
        if space == "param":
            stats.issue_cycles += p.cost
            self.write(p, self.block.param_array(p.param_name,
                                                 p.np_dtype),
                       mask, covers)
            return
        itemsize = p.itemsize
        addrs = self.read(p.srcs[0])
        if addrs.dtype != np.uint64:
            addrs = addrs.astype(np.uint64)
        if p.op == "ld":
            value = self._do_load(space, addrs, p, mask)
            self.write(p, value, mask, covers)
            if space in ("global", "local"):
                self.outstanding[p.dst] = "g"
            elif space == "shared":
                self.outstanding[p.dst] = "s"
            return
        if p.op == "st":
            value = self.read(p.srcs[1])
            self._do_store(space, addrs, value, p, mask)
            return
        # atom (only .add is generated)
        if space not in ("global", "shared"):
            raise SimError(f"atomicAdd on {space} memory")
        mem = self.block.gmem if space == "global" else self.block.smem
        if space == "global" and mem._epoch is not None:
            mem.note_lanes(addrs, mask, itemsize)
        idx = mem.element_index(addrs, itemsize, mask)
        view = mem.view(p.np_dtype)
        old = view[idx].copy()
        np.add.at(view, idx[mask], self.read(p.srcs[1])[mask])
        self.write(p, old, mask, covers)
        stats.issue_cycles += device.issue_cost["atom"]
        stats.atomics += 1
        if space == "global":
            txn = coalescing.global_transactions(addrs, mask, itemsize,
                                                 device)
            stats.mem_transactions += txn
            stats.mem_bytes += txn * 32
            self.outstanding.clear()
            stats.global_stalls += 1  # atomics round-trip

    def _do_load(self, space, addrs, p: PlannedInstr,
                 mask) -> np.ndarray:
        device = self.block.device
        stats = self.stats
        itemsize = p.itemsize
        if space == "global":
            txn, nbytes = _global_traffic(addrs, mask, itemsize, device)
            stats.mem_transactions += txn
            stats.mem_bytes += nbytes
            stats.issue_cycles += device.mem_issue_cost * max(txn, 1)
            mem = self.block.gmem
            idx = mem.element_index(addrs, itemsize, mask)
            return mem.view(p.np_dtype)[idx]
        if space == "shared":
            factor = coalescing.shared_conflict_factor(addrs, mask,
                                                       itemsize, device)
            stats.issue_cycles += device.issue_cost["shared"] * factor
            mem = self.block.smem
            idx = mem.element_index(addrs, itemsize, mask)
            return mem.view(p.np_dtype)[idx]
        if space == "const":
            active = addrs[mask]
            distinct = np.unique(active).size if active.size else 1
            stats.issue_cycles += device.issue_cost["shared"] * distinct
            mem = self.block.cmem
            idx = mem.element_index(addrs, itemsize, mask)
            return mem.view(p.np_dtype)[idx]
        if space == "local":
            return self._local_access(addrs, None, p, mask)
        raise SimError(f"bad load space {space!r}")

    def _do_store(self, space, addrs, value, p: PlannedInstr,
                  mask) -> None:
        device = self.block.device
        stats = self.stats
        itemsize = p.itemsize
        if value.dtype != p.np_dtype:
            value = value.astype(p.np_dtype)
        if space == "global":
            txn, nbytes = _global_traffic(addrs, mask, itemsize, device)
            stats.mem_transactions += txn
            stats.mem_bytes += nbytes
            stats.issue_cycles += device.mem_issue_cost * max(txn, 1)
            mem = self.block.gmem
            if mem._epoch is not None:
                mem.note_lanes(addrs, mask, itemsize)
            idx = mem.element_index(addrs, itemsize, mask)
            mem.view(p.np_dtype)[idx[mask]] = value[mask]
            return
        if space == "shared":
            factor = coalescing.shared_conflict_factor(addrs, mask,
                                                       itemsize, device)
            stats.issue_cycles += device.issue_cost["shared"] * factor
            mem = self.block.smem
            idx = mem.element_index(addrs, itemsize, mask)
            mem.view(p.np_dtype)[idx[mask]] = value[mask]
            return
        if space == "local":
            self._local_access(addrs, value, p, mask)
            return
        if space == "const":
            raise SimError("stores to constant memory are illegal")
        raise SimError(f"bad store space {space!r}")

    def _tex(self, p: PlannedInstr, mask, covers) -> None:
        """Texture fetch through the (modelled) texture cache.

        Point or bilinear filtering with clamp/wrap/border addressing,
        per the bound :class:`TextureBinding`.  Traffic is charged at
        half the raw-global transaction count — the 2D-local texture
        cache is why the era's kernels (backprojection included) read
        through textures.
        """
        device = self.block.device
        stats = self.stats
        binding = self.block.texture_binding(p.param_name)
        itemsize = np.dtype(binding.np_dtype).itemsize
        base_elem = self.block.gmem.element_index(
            np.full(WARP, binding.addr, np.uint64), itemsize,
            np.ones(WARP, bool))[0]
        view = self.block.gmem.view(binding.np_dtype)

        def fetch(ix, iy):
            ixa, okx = _tex_address(ix, binding.width, binding.address)
            if binding.height > 1:
                iya, oky = _tex_address(iy, binding.height,
                                        binding.address)
            else:
                iya, oky = np.zeros_like(ixa), np.ones_like(okx)
            flat = base_elem + iya * binding.width + ixa
            value = view[flat]
            if binding.address == "border":
                value = np.where(okx & oky, value, 0)
            return value

        if p.cmp == "1d":
            idx = self.read(p.srcs[0]).astype(np.int64)
            # tex1Dfetch: unfiltered element access (clamped here).
            value = fetch(idx, None)
        else:
            x = self.read(p.srcs[0]).astype(np.float64)
            y = self.read(p.srcs[1]).astype(np.float64)
            if binding.filter == "point":
                value = fetch(np.floor(x).astype(np.int64),
                              np.floor(y).astype(np.int64))
            else:
                xb = x - 0.5
                yb = y - 0.5
                ix0 = np.floor(xb).astype(np.int64)
                iy0 = np.floor(yb).astype(np.int64)
                fx = (xb - ix0).astype(np.float32)
                fy = (yb - iy0).astype(np.float32)
                v00 = fetch(ix0, iy0)
                v01 = fetch(ix0 + 1, iy0)
                v10 = fetch(ix0, iy0 + 1)
                v11 = fetch(ix0 + 1, iy0 + 1)
                row0 = v00 * (1 - fx) + v01 * fx
                row1 = v10 * (1 - fx) + v11 * fx
                value = (row0 * (1 - fy) + row1 * fy).astype(
                    binding.np_dtype)
        self.write(p, np.asarray(value), mask, covers)
        active = int(mask.sum())
        txn = max(1, (active * itemsize + 127) // 128 // 2 + 1)
        stats.mem_transactions += txn
        stats.mem_bytes += txn * 32
        stats.issue_cycles += device.issue_cost["shared"]
        self.outstanding[p.dst] = "g"

    def _local_access(self, addrs, value, p: PlannedInstr, mask):
        """Per-thread local memory (DRAM-backed spill space).

        Each lane owns a disjoint slice of the warp's local buffer.
        Local memory is physically interleaved so lane-uniform offsets
        coalesce — but it still pays DRAM latency/bandwidth, which is
        the register-blocking penalty for RE kernels.
        """
        if self.local is None:
            raise SimError("kernel has no local memory but accesses it")
        device = self.block.device
        stats = self.stats
        itemsize = p.itemsize
        per_thread = self.local.size // WARP
        offsets = addrs.astype(np.int64) + _LANE_IDS * per_thread
        active = int(mask.sum())
        txn = max(1, (active * itemsize + 127) // 128)
        stats.mem_transactions += txn
        stats.mem_bytes += txn * 128
        stats.issue_cycles += device.mem_issue_cost * txn
        idx = self.local.element_index(offsets.astype(np.uint64),
                                       itemsize, mask)
        view = self.local.view(p.np_dtype)
        if value is None:
            return view[idx]
        view[idx[mask]] = value[mask]
        return None


_LANE_IDS = np.arange(WARP, dtype=np.int64)


@dataclass(frozen=True)
class TextureBinding:
    """Host-side texture binding (cudaBindTexture[2D])."""

    addr: int
    width: int
    height: int = 1
    np_dtype: object = np.float32
    address: str = "clamp"
    filter: str = "point"


def _tex_address(idx, n, mode):
    """Apply a texture addressing mode; returns (indices, in_range)."""
    ok = (idx >= 0) & (idx < n)
    if mode == "wrap":
        return idx % n, ok
    return np.clip(idx, 0, n - 1), ok


def _global_traffic(addrs, mask, itemsize, device) -> Tuple[int, int]:
    txn = coalescing.global_transactions(addrs, mask, itemsize, device)
    return txn, txn * device.coalesce_line_bytes()


# Binary/unary semantics over lane arrays ------------------------------


def _int_div(a, b, p):
    safe_b = np.where(b == 0, 1, b)
    if p.ctype.signed:
        q = np.abs(a.astype(np.int64)) // np.abs(
            safe_b.astype(np.int64))
        sign = np.where((a < 0) != (safe_b < 0), -1, 1)
        return (q * sign).astype(a.dtype)
    return a // safe_b


def _int_rem(a, b, p):
    q = _int_div(a, b, p)
    return (a - q * np.where(b == 0, 1, b)).astype(a.dtype)


def _div(a, b, p):
    if p.ctype.is_integer:
        return _int_div(a, b, p)
    return a / b


def _shift_amount(b, p):
    return (b.astype(np.int64) & (p.ctype.bits - 1))


def _shl(a, b, p):
    return a << _shift_amount(b, p).astype(a.dtype)


def _shr(a, b, p):
    return a >> _shift_amount(b, p).astype(a.dtype)


def _mulhi(a, b, p):
    if p.ctype.signed:
        prod = a.astype(np.int64) * b.astype(np.int64)
    else:
        prod = a.astype(np.uint64) * b.astype(np.uint64)
    return (prod >> 32).astype(p.np_dtype)


def _mul24(a, b, p):
    a64 = a.astype(np.int64) & 0xFFFFFF
    b64 = b.astype(np.int64) & 0xFFFFFF
    if p.ctype.signed:
        a64 = np.where(a64 & 0x800000, a64 - 0x1000000, a64)
        b64 = np.where(b64 & 0x800000, b64 - 0x1000000, b64)
    return (a64 * b64).astype(p.np_dtype)


def _wrap2(fn):
    def wrapped(a, b, p):
        return fn(a, b)
    return wrapped


_BINARY = {
    "mul24": _mul24,
    "mulhi": _mulhi,
    "div": _div,
    "rem": _int_rem,
    "and": _wrap2(np.bitwise_and),
    "or": _wrap2(np.bitwise_or),
    "xor": _wrap2(np.bitwise_xor),
    "shl": _shl,
    "shr": _shr,
    "min": _wrap2(np.minimum),
    "max": _wrap2(np.maximum),
}


def _wrap1(fn):
    def wrapped(a, p):
        return fn(a)
    return wrapped


_UNARY = {
    "neg": _wrap1(np.negative),
    "not": _wrap1(np.invert),
    "abs": _wrap1(np.abs),
    "sqrt": _wrap1(np.sqrt),
    "rsqrt": _wrap1(lambda a: 1.0 / np.sqrt(a)),
    "rcp": _wrap1(lambda a: 1.0 / a),
    "floor": _wrap1(np.floor),
    "ceil": _wrap1(np.ceil),
    "round": _wrap1(np.rint),
    "trunc": _wrap1(np.trunc),
    "exp2": _wrap1(np.exp2),
    "lg2": _wrap1(np.log2),
    "sin": _wrap1(np.sin),
    "cos": _wrap1(np.cos),
}


class BlockExecutor:
    """Executes one thread block and returns its statistics."""

    def __init__(self, kernel: IRKernel, device: DeviceSpec,
                 gmem: GlobalMemory, cmem: FlatMemory,
                 args: Dict[str, object], block_idx: Tuple[int, int, int],
                 block_dim: Tuple[int, int, int],
                 grid_dim: Tuple[int, int, int],
                 dynamic_smem: int = 0,
                 plan: Optional[KernelPlan] = None,
                 textures: Optional[Dict[str, "TextureBinding"]] = None):
        self.kernel = kernel
        self.device = device
        self.gmem = gmem
        self.cmem = cmem
        self.args = args
        self.block_idx = block_idx
        self.block_dim = block_dim
        self.grid_dim = grid_dim
        if plan is None:
            plan = KernelPlan(kernel, device)
        self.plan = plan
        self.ipdom = plan.ipdom
        self.smem = FlatMemory(kernel.shared_bytes + dynamic_smem,
                               "shared")
        self.textures = textures or {}
        self._param_arrays: Dict[Tuple[str, str], np.ndarray] = {}

    def texture_binding(self, name: str) -> "TextureBinding":
        binding = self.textures.get(name)
        if binding is None:
            raise SimError(
                f"texture {name!r} is not bound — call "
                "GPU.bind_texture() before launching")
        return binding

    def param_array(self, name: str, dtype) -> np.ndarray:
        key = (name, np.dtype(dtype).str)
        arr = self._param_arrays.get(key)
        if arr is None:
            try:
                value = self.args[name]
            except KeyError:
                raise SimError(
                    f"kernel argument {name!r} was not supplied")
            arr = np.full(WARP, value, dtype=dtype)
            arr.flags.writeable = False
            self._param_arrays[key] = arr
        return arr

    def run(self) -> BlockStats:
        bx, by, bz = self.block_dim
        nthreads = bx * by * bz
        if nthreads > self.device.max_threads_per_block:
            raise SimError(
                f"block of {nthreads} threads exceeds device limit "
                f"{self.device.max_threads_per_block}")
        nwarps = (nthreads + WARP - 1) // WARP
        warps: List[_Warp] = []
        linear = np.arange(WARP, dtype=np.uint32)
        for wid in range(nwarps):
            tids = wid * WARP + linear
            lane_mask = tids < nthreads
            safe = np.where(lane_mask, tids, 0)
            tid_x = (safe % bx).astype(np.uint32)
            tid_y = ((safe // bx) % by).astype(np.uint32)
            tid_z = (safe // (bx * by)).astype(np.uint32)
            specials = {
                "tid.x": tid_x, "tid.y": tid_y, "tid.z": tid_z,
                "ntid.x": np.full(WARP, bx, np.uint32),
                "ntid.y": np.full(WARP, by, np.uint32),
                "ntid.z": np.full(WARP, bz, np.uint32),
                "ctaid.x": np.full(WARP, self.block_idx[0], np.uint32),
                "ctaid.y": np.full(WARP, self.block_idx[1], np.uint32),
                "ctaid.z": np.full(WARP, self.block_idx[2], np.uint32),
                "nctaid.x": np.full(WARP, self.grid_dim[0], np.uint32),
                "nctaid.y": np.full(WARP, self.grid_dim[1], np.uint32),
                "nctaid.z": np.full(WARP, self.grid_dim[2], np.uint32),
            }
            for arr in specials.values():
                arr.flags.writeable = False
            warps.append(_Warp(self, wid, lane_mask, specials))

        # Round-robin with barrier rendezvous.  One errstate covers
        # the whole block: simulated kernels wrap/overflow like HW.
        guard = 0
        limit = 10_000_000
        ctx = np.errstate(all="ignore")
        ctx.__enter__()
        try:
            self._scheduler_loop(warps, guard, limit)
        finally:
            ctx.__exit__(None, None, None)
        return BlockStats(warps=[w.stats for w in warps])

    def _scheduler_loop(self, warps, guard, limit):
        while True:
            guard += 1
            if guard > limit:
                raise SimError("block execution did not terminate "
                               "(runaway loop in kernel?)")
            running = [w for w in warps if not w.finished
                       and not w.at_barrier]
            if not running:
                waiting = [w for w in warps if w.at_barrier]
                if not waiting:
                    break
                for w in waiting:
                    w.at_barrier = False
                continue
            for w in running:
                w.run()
