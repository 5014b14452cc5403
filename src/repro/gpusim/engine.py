"""Block-batched SIMT execution engine.

The serial path in :mod:`repro.gpusim.executor` runs one
:class:`~repro.gpusim.executor.BlockExecutor` per block: every block
pays the full Python interpreter loop even though most blocks of a
launch execute the *same* instruction trace.  This module batches B
blocks into a *gang*: per-warp-position fragments whose lane state is
(B, 32) NumPy arrays, so one interpreter step retires a warp-instruction
for every block in the gang at once.

Exactness is the contract: batched execution produces bit-identical
device memory and identical per-warp statistics to the serial oracle.
The gang therefore mirrors the serial interpreter operation for
operation:

* All members of a fragment share one program counter and one SIMT
  reconvergence stack (stack masks are (B, 32)).  Whenever a decision
  the serial interpreter takes would differ *across* blocks — a branch
  that is uniformly taken in one block but divergent in another, or an
  ``exit`` that empties some blocks' masks only — the fragment *splits*
  into sub-fragments that continue independently.  A fragment of one
  member is exactly the serial per-block path, so per-block fallback is
  the degenerate case of splitting rather than a separate code path.
* Statistics accumulate in per-member arrays with the same sequence of
  additions the serial path performs, so floating-point issue-cycle
  totals match bit for bit.  Memory-transaction counts (coalescing,
  bank conflicts, constant broadcasts) are computed per member with the
  same :mod:`repro.gpusim.coalescing` routines.
* Barriers rendezvous per block: the round scheduler releases waiting
  fragments only once no fragment in the batch can run, which releases
  every block that has fully arrived (blocks in a batch are
  independent, so the extra wait cannot change results).

Cross-block memory ordering: within one warp-instruction, member side
effects apply in ascending block order (the serial order for that
instruction).  Blocks that communicate through global memory across
*different* instructions see an interleaving that may differ from the
serial block-at-a-time order — as on real hardware, where inter-block
ordering is undefined.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.gpusim import coalescing
from repro.gpusim.executor import (WARP, BlockStats, KernelPlan,
                                   PlannedInstr, SimError, TextureBinding,
                                   WarpStats, _BINARY, _CMP_FN, _UNARY,
                                   _tex_address)
from repro.gpusim.device import DeviceSpec
from repro.gpusim.memory import FlatMemory, GlobalMemory, MemoryError_
from repro.kernelc.ir import IRKernel

from repro.runtime.context import ENGINE_ENV, ENGINES, current_context

from repro.gpusim import trace as gang_trace

#: Blocks ganged per batch.  Bounds transient lane-state memory
#: (n_regs × batch × 32 × 8 bytes) while keeping the per-instruction
#: Python overhead amortized over many blocks.
DEFAULT_BATCH_BLOCKS = 128

_LANE_IDS = np.arange(WARP, dtype=np.int64)
_CTAID_KEYS = ("ctaid.x", "ctaid.y", "ctaid.z")


def resolve_engine(name: Optional[str], ctx=None) -> str:
    """Validate an ``engine=`` argument (None selects *ctx*'s default).

    The ``REPRO_ENGINE`` environment variable upgrades ``"batched"``
    resolutions to ``"traced"`` (the trace-JIT is a bit-exact superset
    of the gang interpreter); an explicit ``"serial"`` is never
    overridden so the oracle stays reachable for differential runs.
    """
    if name is None or name == "auto":
        name = (ctx or current_context()).engine
    env = os.environ.get(ENGINE_ENV)
    if env:
        if env not in ENGINES:
            raise SimError(
                f"invalid {ENGINE_ENV}={env!r}; valid engines are "
                + ", ".join(repr(e) for e in ENGINES))
        if env == "traced" and name == "batched":
            name = "traced"
    if name not in ENGINES:
        raise SimError(
            f"unknown execution engine {name!r}; valid engines are "
            + ", ".join(repr(e) for e in ENGINES)
            + f" (pass engine=..., call ctx.set_engine(), or set "
            f"{ENGINE_ENV}=traced to upgrade batched launches)")
    return name


def run_blocks_batched(kernel: IRKernel, device: DeviceSpec,
                       gmem: GlobalMemory, cmem: FlatMemory,
                       args: Dict[str, object],
                       indices: Sequence[Tuple[int, int, int]],
                       block_dim: Tuple[int, int, int],
                       grid_dim: Tuple[int, int, int],
                       dynamic_smem: int = 0,
                       plan: Optional[KernelPlan] = None,
                       textures: Optional[Dict[str, TextureBinding]] = None,
                       batch_blocks: Optional[int] = None,
                       ctx=None,
                       trace_counts: Optional[Dict[str, int]] = None,
                       ) -> List[BlockStats]:
    """Execute *indices* blocks gang-batched; stats in index order.

    With a *trace_counts* dict gang warps record/replay compiled traces
    (:mod:`repro.gpusim.trace`) and count their trace-cache activity
    into it (``hits`` / ``misses`` / ``records`` / ``deopts`` /
    ``aborts``); ``None`` runs the plain interpreter.  Results stay
    bit-identical — the trace machinery deoptimizes to this
    interpreter on any guard failure.  Callers must not trace while a
    fault injector is armed (the launcher enforces this).
    """
    if ctx is None:
        ctx = current_context()
    if plan is None:
        plan = KernelPlan(kernel, device)
    if batch_blocks is None:
        batch_blocks = int(os.environ.get("REPRO_SIM_BATCH",
                                          DEFAULT_BATCH_BLOCKS))
    batch_blocks = max(1, batch_blocks)
    stats: List[BlockStats] = []
    injector = ctx.injector
    tracer = ctx.tracer
    for start in range(0, len(indices), batch_blocks):
        if injector is not None:
            # Fault site: watchdog kill between gang batches.  Earlier
            # batches already wrote device memory — retrying callers
            # must snapshot/restore around the whole launch.
            injector.check("launch.watchdog",
                           detail=f"{kernel.name}@batch{start}")
        batch = _Batch(kernel, device, gmem, cmem, args,
                       indices[start:start + batch_blocks], block_dim,
                       grid_dim, dynamic_smem, plan, textures or {},
                       ctx=ctx, trace_counts=trace_counts)
        if tracer is not None:
            n = min(batch_blocks, len(indices) - start)
            with tracer.span(f"gang:{kernel.name}", "engine",
                             batch_start=start, blocks=n):
                stats.extend(batch.run())
        else:
            stats.extend(batch.run())
    return stats


class _GangProto:
    """Launch-shape state shared by every gang of a kernel launch.

    Everything a :class:`_GangWarp` needs that depends only on
    ``(block_dim, grid_dim)`` — the per-warp-position special-register
    lane arrays (all but ``ctaid.*``, which are member data) and each
    warp position's partial-block row mask.  Prototypes are cached on
    the :class:`~repro.gpusim.executor.KernelPlan`, so repeated
    launches of one kernel — a sweep's sampled launches in particular
    — reuse the gang fragments' lane layout instead of rebuilding it
    per launch.
    """

    __slots__ = ("nthreads", "nwarps", "warps")

    def __init__(self, device: DeviceSpec, block_dim, grid_dim):
        bx, by, bz = block_dim
        self.nthreads = bx * by * bz
        if self.nthreads > device.max_threads_per_block:
            raise SimError(
                f"block of {self.nthreads} threads exceeds device limit "
                f"{device.max_threads_per_block}")
        self.nwarps = (self.nthreads + WARP - 1) // WARP
        gx, gy, gz = grid_dim
        self.warps = []
        for wid in range(self.nwarps):
            tids = (wid * WARP
                    + np.arange(WARP, dtype=np.uint32)).astype(np.uint32)
            row_mask = tids < self.nthreads
            safe = np.where(row_mask, tids, 0)
            specials = {
                "tid.x": (safe % bx).astype(np.uint32),
                "tid.y": ((safe // bx) % by).astype(np.uint32),
                "tid.z": (safe // (bx * by)).astype(np.uint32),
                "ntid.x": np.full(WARP, bx, np.uint32),
                "ntid.y": np.full(WARP, by, np.uint32),
                "ntid.z": np.full(WARP, bz, np.uint32),
                "nctaid.x": np.full(WARP, gx, np.uint32),
                "nctaid.y": np.full(WARP, gy, np.uint32),
                "nctaid.z": np.full(WARP, gz, np.uint32),
            }
            for arr in specials.values():
                arr.flags.writeable = False
            row_mask.flags.writeable = False
            self.warps.append((specials, row_mask))


def _gang_proto(plan: KernelPlan, device: DeviceSpec, block_dim,
                grid_dim, ctx=None) -> _GangProto:
    """The plan's prototype for this launch shape, counted as a
    ``cache.gang_hits`` / ``cache.gang_misses`` of *ctx*."""
    metrics = (ctx or current_context()).metrics
    key = (block_dim, grid_dim)
    proto = plan.gang_protos.get(key)
    if proto is None:
        metrics.inc("cache.gang_misses")
        proto = _GangProto(device, block_dim, grid_dim)
        plan.gang_protos[key] = proto
    else:
        metrics.inc("cache.gang_hits")
    return proto


def _segmented_prefix(values: np.ndarray, starts: np.ndarray,
                      lengths: np.ndarray,
                      init: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Sequential prefix chains ``[init, after 1 add, ...]`` per segment.

    Returns ``(prefix, offsets)``: segment ``g``'s chain occupies
    ``prefix[offsets[g] : offsets[g] + lengths[g] + 1]``.  Chains fold
    strictly left to right (``np.add.accumulate``), so float rounding
    matches a one-value-at-a-time serial loop bit for bit.  Segments
    are bucketed by power-of-two chain length and accumulated as
    zero-padded rows — padding sits past each chain's end and never
    feeds a result, and total transient memory stays within ~2x the
    event count regardless of how skewed the segment sizes are.
    """
    out_len = lengths + 1
    offsets = np.zeros(starts.size, np.int64)
    np.cumsum(out_len[:-1], dtype=np.int64, out=offsets[1:])
    prefix = np.empty(int(out_len.sum()), values.dtype)
    maxlen = int(out_len.max())
    lower, upper = 0, 1
    while lower < maxlen:
        pick = (out_len > lower) & (out_len <= upper)
        lower, upper = upper, upper * 2
        if not pick.any():
            continue
        cols = lower
        seg_starts = starts[pick]
        seg_lens = lengths[pick]
        buf = np.zeros((seg_starts.size, cols), values.dtype)
        buf[:, 0] = init[pick]
        if cols > 1:
            ar = np.arange(cols - 1, dtype=np.int64)
            gather = ar[None, :] < seg_lens[:, None]
            buf[:, 1:][gather] = values[
                (seg_starts[:, None] + ar[None, :])[gather]]
        np.add.accumulate(buf, axis=1, out=buf)
        ar = np.arange(cols, dtype=np.int64)
        scatter = ar[None, :] < out_len[pick][:, None]
        prefix[(offsets[pick][:, None] + ar[None, :])[scatter]] = \
            buf[scatter]
    return prefix, offsets


def _ordered_atomic_add(view: np.ndarray, idx: np.ndarray,
                        mask: np.ndarray,
                        value: np.ndarray) -> np.ndarray:
    """Gang-wide atomic read-add-write in exact serial member order.

    Reproduces, bit for bit, the serial oracle's per-member loop

        for i in range(M):                        # ascending block order
            old[i] = view[idx[i]]                 # member snapshot
            np.add.at(view, idx[i][mask[i]], value[i][mask[i]])

    without iterating members in Python: additions are stably grouped
    by address (flattened row-major position == serial order), each
    address's chain is folded sequentially via :func:`_segmented_prefix`,
    and every lane's old value samples its address's chain at the
    position just before its own member's additions.  Inactive lanes
    read element 0 at their member's snapshot, exactly as
    ``element_index`` maps them in the serial path.
    """
    M, W = idx.shape
    S = M * W
    flat_idx = idx.reshape(-1)
    flat_mask = mask.reshape(-1)
    old = view[flat_idx]  # pre-instruction snapshot (fancy copy)
    w_pos = np.nonzero(flat_mask)[0]
    if w_pos.size:
        order = np.argsort(flat_idx[w_pos], kind="stable")
        w_pos = w_pos[order]
        w_idx = flat_idx[w_pos]
        w_val = value.reshape(-1)[w_pos]
        head = np.ones(w_idx.size, bool)
        head[1:] = w_idx[1:] != w_idx[:-1]
        starts = np.nonzero(head)[0]
        uaddr = w_idx[starts]
        lengths = np.diff(np.append(starts, w_idx.size))
        prefix, offsets = _segmented_prefix(w_val, starts, lengths,
                                            view[uaddr])
        # Per lane: how many additions to its address precede its
        # member?  Counted with one searchsorted over composite
        # (address, serial position) keys.
        group = np.searchsorted(uaddr, flat_idx)
        hit = np.zeros(S, bool)
        in_range = group < uaddr.size
        hit[in_range] = uaddr[group[in_range]] == flat_idx[in_range]
        member_first = (np.arange(S, dtype=np.int64) // W) * W
        before = np.searchsorted(w_idx * S + w_pos,
                                 flat_idx * S + member_first)
        k = before - starts[np.where(hit, group, 0)]
        old[hit] = prefix[offsets[group[hit]] + k[hit]]
        view[uaddr] = prefix[offsets + lengths]  # final chain values
    return old.reshape(M, W)


class _BlockCtx:
    """Per-block resources shared by that block's fragments."""

    __slots__ = ("block_idx", "slot", "smem", "warp_stats")

    def __init__(self, block_idx, slot, smem, nwarps):
        self.block_idx = block_idx
        self.slot = slot
        self.smem = smem
        self.warp_stats: List[Optional[WarpStats]] = [None] * nwarps


class _Batch:
    """One gang of blocks executing a launch chunk in lockstep."""

    def __init__(self, kernel, device, gmem, cmem, args, indices,
                 block_dim, grid_dim, dynamic_smem, plan, textures,
                 ctx=None, trace_counts=None):
        #: The launch's trace-JIT counts; None = untraced.
        self.trace_counts = trace_counts
        self.kernel = kernel
        self.device = device
        self.gmem = gmem
        self.cmem = cmem
        self.args = args
        self.block_dim = block_dim
        self.grid_dim = grid_dim
        self.plan = plan
        self.ipdom = plan.ipdom
        self.textures = textures
        self.proto = _gang_proto(plan, device, block_dim, grid_dim,
                                 ctx=ctx)
        self.nthreads = self.proto.nthreads
        self.nwarps = self.proto.nwarps
        smem_bytes = kernel.shared_bytes + dynamic_smem
        # All member blocks share one stacked byte buffer so gangs can
        # gather/scatter shared memory in a single fancy index; each
        # block still sees a private, serially-identical FlatMemory
        # whose .data is a row of the stack.  Rows are padded to 16
        # bytes so any element dtype tiles the stack exactly.
        self.smem_row = max((smem_bytes + 15) // 16 * 16, 16)
        self.smem_stack = np.zeros(len(indices) * self.smem_row,
                                   np.uint8)
        stack2d = self.smem_stack.reshape(len(indices), self.smem_row)
        self.ctxs = []
        for slot, bidx in enumerate(indices):
            smem = FlatMemory(smem_bytes, "shared")
            smem.data = stack2d[slot, :smem_bytes]
            self.ctxs.append(_BlockCtx(bidx, slot, smem, self.nwarps))
        self._smem_views: Dict = {}
        self._param_arrays: Dict[Tuple[str, str], np.ndarray] = {}

    def smem_view(self, dtype) -> np.ndarray:
        """A typed view of the whole shared-memory stack.

        Keyed by the dtype object itself: distinct spellings of one
        dtype just memoize separate (identical) views, and the
        ``np.dtype(...).str`` normalisation cost stays off the hot
        path.
        """
        view = self._smem_views.get(dtype)
        if view is None:
            view = self.smem_stack.view(dtype)
            self._smem_views[dtype] = view
        return view

    def smem_view2(self, dtype, row_elems: int) -> np.ndarray:
        """A 2-D (slot, element) view of the shared-memory stack.

        ``row_elems`` must be ``smem_row // itemsize``; rows are
        padded to 16 bytes, so any element dtype tiles exactly.
        """
        key = (dtype, 2)
        view = self._smem_views.get(key)
        if view is None:
            view = self.smem_stack.view(dtype).reshape(-1, row_elems)
            self._smem_views[key] = view
        return view

    # Shared lookups (identical values for every member).

    def texture_binding(self, name: str) -> TextureBinding:
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

    def run(self) -> List[BlockStats]:
        pool: List[_GangWarp] = [
            _GangWarp(self, wid, list(self.ctxs))
            for wid in range(self.nwarps)]
        guard = 0
        limit = 10_000_000
        ctx = np.errstate(all="ignore")
        ctx.__enter__()
        try:
            # Round-robin with barrier rendezvous, mirroring the serial
            # scheduler: run every runnable fragment to its next stop,
            # then release barriers when nothing can run.
            while True:
                guard += 1
                if guard > limit:
                    raise SimError("block execution did not terminate "
                                   "(runaway loop in kernel?)")
                running = [f for f in pool
                           if not f.finished and not f.at_barrier]
                if not running:
                    waiting = [f for f in pool if f.at_barrier]
                    if not waiting:
                        break
                    for f in waiting:
                        f.at_barrier = False
                    continue
                running.sort(key=lambda f: f.wid)
                for frag in running:
                    work = [frag]
                    while work:
                        g = work.pop()
                        spawned = g.run_quantum()
                        pool.extend(spawned)
                        work.extend(spawned)
        finally:
            ctx.__exit__(None, None, None)
            # An aborted launch must not leave its trace key stuck in
            # trace_pending on the (cached, shared) plan.
            for frag in pool:
                if frag._rec is not None:
                    gang_trace.abort_recording(frag)
        for frag in pool:
            frag.finalize()
        return [BlockStats(warps=list(c.warp_stats)) for c in self.ctxs]


#: Per-member event-counter vectors a gang warp carries; one name per
#: :class:`~repro.gpusim.executor.WarpStats` field.  Any stat added to
#: WarpStats must be counted here AND in the serial executor's matching
#: path — the engines' bit-identity contract covers stats too.
_GANG_STAT_NAMES = ("issue_cycles", "instructions", "mem_transactions",
                    "mem_bytes", "global_stalls", "shared_stalls",
                    "barriers", "divergent_branches", "atomics")


class _GangWarp:
    """One warp position of M blocks executing in lockstep."""

    __slots__ = ("batch", "wid", "ctxs", "M", "slots", "lane_mask",
                 "regs", "stack", "specials", "outstanding", "locals_",
                 "finished", "at_barrier",
                 "_rec", "_trace", "_trace_pos",
                 "_sbase") + _GANG_STAT_NAMES

    def __init__(self, batch: _Batch, wid: int, ctxs: List[_BlockCtx]):
        self.batch = batch
        self.wid = wid
        self.ctxs = ctxs
        M = len(ctxs)
        self.M = M
        base_specials, row_mask = batch.proto.warps[wid]
        specials = dict(base_specials)
        for axis, key in enumerate(_CTAID_KEYS):
            specials[key] = np.array(
                [c.block_idx[axis] for c in ctxs],
                np.uint32).reshape(M, 1)
        self.specials = specials
        self.slots = np.array([c.slot for c in ctxs], np.int64)
        self.lane_mask = np.broadcast_to(row_mask, (M, WARP)).copy()
        self.regs: List[Optional[np.ndarray]] = [None] * batch.plan.n_regs
        self.stack: List[list] = [
            [batch.plan.n, self.lane_mask.copy(), 0, True]]
        self.outstanding: Dict[int, str] = {}
        self.finished = not row_mask.any()
        self.at_barrier = False
        self._rec = None
        self._trace = None
        self._trace_pos = 0
        #: Per-itemsize shared-memory row-base vectors (trace engine);
        #: derived from ``slots``, so splitting invalidates it.
        self._sbase: Dict[int, np.ndarray] = {}
        local_bytes = batch.kernel.local_bytes
        self.locals_ = ([FlatMemory(local_bytes * WARP, "local")
                         for _ in ctxs] if local_bytes else None)
        self.issue_cycles = np.zeros(M, np.float64)
        for name in _GANG_STAT_NAMES[1:]:
            setattr(self, name, np.zeros(M, np.int64))

    def finalize(self) -> None:
        for i, ctx in enumerate(self.ctxs):
            ctx.warp_stats[self.wid] = WarpStats(
                issue_cycles=float(self.issue_cycles[i]),
                **{name: int(getattr(self, name)[i])
                   for name in _GANG_STAT_NAMES[1:]})

    # -- gang splitting ------------------------------------------------

    def _take(self, sel: np.ndarray) -> "_GangWarp":
        """A new fragment holding the ``sel`` member rows (copies)."""
        sib = object.__new__(_GangWarp)
        sib.batch = self.batch
        sib.wid = self.wid
        sib.ctxs = [c for c, s in zip(self.ctxs, sel) if s]
        sib.M = len(sib.ctxs)
        sib.slots = self.slots[sel]
        sib.lane_mask = self.lane_mask[sel]
        # Row-uniform registers may be stored as single-row (WARP,)
        # arrays (see trace.py); row selection on those is identity.
        sib.regs = [r if r is None or r.ndim == 1 else r[sel]
                    for r in self.regs]
        sib.stack = [[e[0], e[1][sel], e[2], e[3]] for e in self.stack]
        specials = dict(self.specials)
        for key in _CTAID_KEYS:
            specials[key] = specials[key][sel]
        sib.specials = specials
        sib.outstanding = dict(self.outstanding)
        sib.locals_ = ([m for m, s in zip(self.locals_, sel) if s]
                       if self.locals_ else None)
        sib.finished = self.finished
        sib.at_barrier = self.at_barrier
        # Recordings follow the parent fragment, and a sibling split
        # off by a replay guard is deoptimized by its caller; either
        # way the sibling starts with clean trace state.
        sib._rec = None
        sib._trace = None
        sib._trace_pos = 0
        sib._sbase = {}
        for name in _GANG_STAT_NAMES:
            setattr(sib, name, getattr(self, name)[sel])
        return sib

    def _narrow(self, sel: np.ndarray) -> None:
        """Restrict this fragment to the ``sel`` member rows in place."""
        self.ctxs = [c for c, s in zip(self.ctxs, sel) if s]
        self.M = len(self.ctxs)
        self.slots = self.slots[sel]
        self.lane_mask = self.lane_mask[sel]
        self._sbase = {}
        self.regs = [r if r is None or r.ndim == 1 else r[sel]
                     for r in self.regs]
        for e in self.stack:
            e[1] = e[1][sel]
        for key in _CTAID_KEYS:
            self.specials[key] = self.specials[key][sel]
        if self.locals_:
            self.locals_ = [m for m, s in zip(self.locals_, sel) if s]
        for name in _GANG_STAT_NAMES:
            setattr(self, name, getattr(self, name)[sel])

    # -- operand plumbing ----------------------------------------------

    def _read(self, desc) -> np.ndarray:
        kind, payload, cast = desc
        if kind == "r":
            arr = self.regs[payload]
            if arr is None:
                arr = np.zeros((self.M, WARP),
                               dtype=self.batch.plan._reg_dtypes[payload])
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

    def _write(self, p: PlannedInstr, value: np.ndarray,
               mask: np.ndarray, covers: bool) -> None:
        if value.dtype != p.dst_dtype:
            value = value.astype(p.dst_dtype)
        if covers:
            if value.shape != (self.M, WARP):
                value = np.broadcast_to(value, (self.M, WARP))
            self.regs[p.dst] = value
        else:
            old = self.regs[p.dst]
            if old is None:
                old = np.zeros((self.M, WARP), dtype=p.dst_dtype)
            self.regs[p.dst] = np.where(mask, value, old)

    def _full(self, arr: np.ndarray) -> np.ndarray:
        """Broadcast a lane array to the gang's (M, 32) shape."""
        if arr.shape != (self.M, WARP):
            arr = np.broadcast_to(arr, (self.M, WARP))
        return arr

    # -- main loop -----------------------------------------------------

    def run_quantum(self) -> List["_GangWarp"]:
        """Execute until barrier or completion.

        Returns fragments split off along the way; each still needs its
        own ``run_quantum`` this scheduling round.
        """
        batch = self.batch
        spawned: List[_GangWarp] = []
        if batch.trace_counts is not None:
            # Replay guards may split nonconforming members into
            # ``spawned`` even when the remainder deoptimizes back to
            # the interpreter below.
            status = gang_trace.quantum_enter(self, spawned)
            if status is not None:
                return spawned
        plan = batch.plan
        instrs = plan.instrs
        n = plan.n
        while True:
            if not self.stack:
                self.finished = True
                return spawned
            top = self.stack[-1]
            reconv, mask, pc, covers = top[0], top[1], top[2], top[3]
            if not covers:
                any_rows = mask.any(axis=1)
                if not any_rows.all():
                    if self._rec is not None:
                        # Partial-exit splits have no straight-line form.
                        gang_trace.abort_recording(self)
                    if not any_rows.any():
                        self.stack.pop()
                        continue
                    # Some blocks' masks emptied (exit under
                    # divergence): they pop this entry, the rest do not.
                    sib = self._take(~any_rows)
                    self._narrow(any_rows)
                    spawned.append(sib)
                    continue
            if pc == reconv or pc >= n:
                self.stack.pop()
                if self.stack:
                    if self._rec is not None:
                        self._rec.events.append(("pop",))
                    continue
                if self._rec is not None:
                    self._rec.events.append(("fin",))
                    gang_trace.finish_recording(self)
                self.finished = True
                return spawned
            p = instrs[pc]
            op = p.op
            if self.outstanding:
                self._score_read(p)
            exec_mask = mask
            exec_covers = covers
            if p.pred >= 0 and op != "bra":
                pred = self.regs[p.pred]
                if pred is None:
                    pred = np.zeros((self.M, WARP), dtype=bool)
                exec_mask = mask & self._full(pred != p.pred_neg)
                exec_covers = False
            if op == "bra":
                self.issue_cycles += p.cost
                self.instructions += 1
                self._branch(p, top, mask, pc, spawned)
                continue
            if op == "bar":
                if not covers or not (mask == self.lane_mask).all():
                    raise SimError(
                        "__syncthreads() reached in divergent code — "
                        "undefined behaviour in CUDA, rejected here")
                self.issue_cycles += p.cost or \
                    batch.device.issue_cost["bar"]
                self.instructions += 1
                self.barriers += 1
                self.outstanding.clear()
                top[2] = pc + 1
                self.at_barrier = True
                if self._rec is not None:
                    self._rec.events.append(("bar", pc))
                return spawned
            if op == "exit":
                if self._rec is not None:
                    if (mask == self.lane_mask).all():
                        # Whole-warp exit: a clean trace terminator.
                        self._rec.events.append(("exit", pc))
                        gang_trace.finish_recording(self)
                    else:
                        gang_trace.abort_recording(self)
                self._terminate(mask)
                continue
            self._execute(p, exec_mask, exec_covers)
            top[2] = pc + 1
            if self._rec is not None:
                self._rec.events.append(("x", pc, covers))
                if len(self._rec.events) > gang_trace.MAX_EVENTS:
                    gang_trace.abort_recording(self)

    def _score_read(self, p: PlannedInstr) -> None:
        outstanding = self.outstanding
        waited_g = waited_s = False
        for idx in p.reg_srcs:
            kind = outstanding.get(idx)
            if kind is not None:
                waited_g |= kind == "g"
                waited_s |= kind == "s"
        if waited_g:
            self.global_stalls += 1
            outstanding.clear()
        elif waited_s:
            self.shared_stalls += 1
            outstanding.clear()

    def _terminate(self, mask: np.ndarray) -> None:
        self.lane_mask = self.lane_mask & ~mask
        for entry in self.stack:
            entry[1] = entry[1] & ~mask
            entry[3] = False

    def _branch(self, p: PlannedInstr, top, mask, pc,
                spawned: List["_GangWarp"]) -> None:
        if p.pred < 0:
            if self._rec is not None:
                self._rec.events.append(("ub", pc))
            top[2] = p.target
            return
        pred = self.regs[p.pred]
        if pred is None:
            pred = np.zeros((self.M, WARP), dtype=bool)
        lane_take = self._full(pred != p.pred_neg)
        taken = mask & lane_take
        fall = mask & ~lane_take
        t_any = taken.any(axis=1)
        f_any = fall.any(axis=1)
        # Per-member branch classes, mirroring the serial decisions:
        # no lane taken -> fall through; all active lanes taken ->
        # jump; otherwise diverge through the IPDOM stack.
        groups = [(sel, kind) for sel, kind in
                  ((~t_any, "fall"), (t_any & ~f_any, "taken"),
                   (t_any & f_any, "div"))
                  if sel.any()]
        if len(groups) == 1:
            if self._rec is not None:
                self._rec.events.append(("br", pc, groups[0][1]))
            self._apply_branch(groups[0][1], top, taken, fall, pc,
                               p.target)
            return
        # Blocks disagree: split the gang, largest class stays here.
        groups.sort(key=lambda g: int(g[0].sum()), reverse=True)
        keep_sel, keep_kind = groups[0]
        if self._rec is not None:
            # Members disagree on the branch class.  The recorder
            # follows the surviving (largest) fragment: the events so
            # far are common to every member, and from here the trace
            # records the survivor's straight-line path.  Replay
            # guards split nonconforming members off the same way.
            self._rec.events.append(("br", pc, keep_kind))
        for sel, kind in groups[1:]:
            sib = self._take(sel)
            sib._apply_branch(kind, sib.stack[-1], taken[sel],
                              fall[sel], pc, p.target)
            spawned.append(sib)
        self._narrow(keep_sel)
        self._apply_branch(keep_kind, self.stack[-1], taken[keep_sel],
                           fall[keep_sel], pc, p.target)

    def _apply_branch(self, kind: str, top, taken, fall, pc,
                      target) -> None:
        if kind == "fall":
            top[2] = pc + 1
            return
        if kind == "taken":
            top[2] = target
            return
        self.divergent_branches += 1
        reconv = self.batch.ipdom.get(pc, self.batch.plan.n)
        top[2] = reconv  # the join resumes here with the full mask
        self.stack.append([reconv, fall, pc + 1, False])
        self.stack.append([reconv, taken, target, False])

    # -- instruction semantics -----------------------------------------

    def _execute(self, p: PlannedInstr, mask: np.ndarray,
                 covers: bool) -> None:
        op = p.op
        self.instructions += 1
        if op in ("ld", "st", "atom"):
            self._memory(p, mask, covers)
            return
        if op == "tex":
            self._tex(p, mask, covers)
            return
        self.issue_cycles += p.cost
        if not covers and not mask.any():
            return
        srcs = p.srcs
        if op == "mov":
            self._write(p, self._read(srcs[0]), mask, covers)
            return
        if op == "add":
            self._write(p, self._read(srcs[0]) + self._read(srcs[1]),
                        mask, covers)
            return
        if op == "mul":
            self._write(p, self._read(srcs[0]) * self._read(srcs[1]),
                        mask, covers)
            return
        if op == "sub":
            self._write(p, self._read(srcs[0]) - self._read(srcs[1]),
                        mask, covers)
            return
        if op == "setp":
            a = self._read(srcs[0])
            b = self._read(srcs[1])
            self._write(p, _CMP_FN[p.cmp](a, b), mask, covers)
            return
        if op == "selp":
            a = self._read(srcs[0])
            b = self._read(srcs[1])
            sel = self._read(srcs[2])
            self._write(p, np.where(sel, a, b), mask, covers)
            return
        if op == "cvt":
            self._cvt(p, mask, covers)
            return
        if op in _BINARY:
            a = self._read(srcs[0])
            b = self._read(srcs[1])
            if p.is_bool and op in ("and", "or", "xor"):
                fn = {"and": np.logical_and, "or": np.logical_or,
                      "xor": np.logical_xor}[op]
                self._write(p, fn(a, b), mask, covers)
                return
            self._write(p, _BINARY[op](a, b, p), mask, covers)
            return
        if op in ("mad", "fma"):
            a = self._read(srcs[0])
            b = self._read(srcs[1])
            c = self._read(srcs[2])
            self._write(p, a * b + c, mask, covers)
            return
        if op in _UNARY:
            a = self._read(srcs[0])
            if op == "not" and p.is_bool:
                self._write(p, np.logical_not(a), mask, covers)
                return
            self._write(p, _UNARY[op](a, p), mask, covers)
            return
        raise SimError(f"unimplemented opcode {op!r}")

    def _cvt(self, p: PlannedInstr, mask, covers) -> None:
        value = self._read(p.srcs[0])
        if p.ctype.is_integer and value.dtype.kind == "f":
            if p.cmp.endswith(".rn"):
                value = np.rint(value)
            else:
                value = np.trunc(value)
            value = np.where(np.isfinite(value), value, 0.0)
        self._write(p, value.astype(p.np_dtype), mask, covers)

    # -- memory --------------------------------------------------------

    def _memory(self, p: PlannedInstr, mask: np.ndarray,
                covers: bool) -> None:
        batch = self.batch
        device = batch.device
        space = p.space
        if space == "param":
            self.issue_cycles += p.cost
            self._write(p, batch.param_array(p.param_name, p.np_dtype),
                        mask, covers)
            return
        itemsize = p.itemsize
        addrs = self._full(self._read(p.srcs[0]))
        if addrs.dtype != np.uint64:
            addrs = addrs.astype(np.uint64)
        if p.op == "ld":
            value = self._do_load(space, addrs, p, mask)
            self._write(p, value, mask, covers)
            if space in ("global", "local"):
                self.outstanding[p.dst] = "g"
            elif space == "shared":
                self.outstanding[p.dst] = "s"
            return
        if p.op == "st":
            value = self._full(self._read(p.srcs[1]))
            self._do_store(space, addrs, value, p, mask)
            return
        # atom (only .add is generated)
        if space not in ("global", "shared"):
            raise SimError(f"atomicAdd on {space} memory")
        value = self._full(self._read(p.srcs[1]))
        if space == "global":
            mem = batch.gmem
            if mem._epoch is not None:
                mem.note_lanes(addrs, mask, itemsize)
            idx = mem.element_index(
                addrs.reshape(-1), itemsize,
                mask.reshape(-1)).reshape(self.M, WARP)
            old = _ordered_atomic_add(mem.view(p.np_dtype), idx, mask,
                                      value)
        else:
            # Member rows are disjoint in the stack, so reading every
            # old value before any add matches the per-member order.
            gidx = self._shared_index(addrs, mask, itemsize)
            view = batch.smem_view(p.np_dtype)
            old = view[gidx]
            np.add.at(view, gidx[mask], value[mask])
        self._write(p, old, mask, covers)
        self.issue_cycles += device.issue_cost["atom"]
        self.atomics += 1
        if space == "global":
            txns = self._global_txns(addrs, mask, itemsize)
            self.mem_transactions += txns
            self.mem_bytes += txns * 32
            self.outstanding.clear()
            self.global_stalls += 1  # atomics round-trip

    def _global_txns(self, addrs, mask, itemsize) -> np.ndarray:
        return coalescing.global_transactions_batch(
            addrs, mask, itemsize, self.batch.device)

    def _shared_index(self, addrs, mask, itemsize) -> np.ndarray:
        """Element indices into the batch shared stack, validated.

        Mirrors :meth:`FlatMemory.element_index` for every member at
        once (sizes and labels are uniform across a launch), then
        offsets each row into that member's slot of the stack.
        """
        size = self.ctxs[0].smem.size
        offsets = addrs.astype(np.int64)
        active = offsets[mask]
        if active.size:
            if (active < 0).any() or (active + itemsize > size).any():
                raise MemoryError_(
                    f"shared access out of bounds (size {size})")
            if (active % itemsize).any():
                raise MemoryError_("misaligned shared access")
        idx = np.where(mask, offsets, 0) // itemsize
        row = self.batch.smem_row // itemsize
        return idx + (self.slots * row)[:, None]

    def _shared_factors(self, addrs, mask) -> np.ndarray:
        """Per-member bank-conflict replay factors, vectorised.

        Same model as :func:`coalescing.shared_conflict_factor`: the
        worst bank's count of distinct 32-bit words, per half-warp on
        CC 1.x and per full warp on CC 2.x.
        """
        device = self.batch.device
        banks = device.shared_banks
        words = addrs.astype(np.int64) // 4
        spans = device.shared_groups()
        if len(spans) == 1:
            groups = (mask,)
        else:
            groups = []
            for lo, hi in spans:
                m = mask.copy()
                m[:, :lo] = False
                m[:, hi:] = False
                groups.append(m)
        sentinel = np.iinfo(np.int64).max
        worst = np.ones(self.M, np.int64)
        for m in groups:
            w = np.where(m, words, sentinel)
            w.sort(axis=1)
            uniq = np.ones(w.shape, bool)
            uniq[:, 1:] = w[:, 1:] != w[:, :-1]
            uniq &= w != sentinel
            counts = np.zeros((self.M, banks), np.int64)
            np.add.at(counts, (np.nonzero(uniq)[0], w[uniq] % banks), 1)
            worst = np.maximum(worst, counts.max(axis=1))
        return worst

    def _do_load(self, space, addrs, p: PlannedInstr,
                 mask) -> np.ndarray:
        batch = self.batch
        device = batch.device
        itemsize = p.itemsize
        M = self.M
        if space == "global":
            txns = self._global_txns(addrs, mask, itemsize)
            line = device.coalesce_line_bytes()
            self.mem_transactions += txns
            self.mem_bytes += txns * line
            self.issue_cycles += device.mem_issue_cost * \
                np.maximum(txns, 1)
            mem = batch.gmem
            idx = mem.element_index(addrs.reshape(-1), itemsize,
                                    mask.reshape(-1))
            return mem.view(p.np_dtype)[idx].reshape(M, WARP)
        if space == "shared":
            factors = self._shared_factors(addrs, mask)
            gidx = self._shared_index(addrs, mask, itemsize)
            self.issue_cycles += device.issue_cost["shared"] * factors
            return batch.smem_view(p.np_dtype)[gidx]
        if space == "const":
            # Distinct addresses per member (broadcast model), counted
            # with a row sort; empty rows pay the single-broadcast cost.
            sentinel = np.iinfo(np.int64).max
            a = np.where(mask, addrs.astype(np.int64), sentinel)
            a.sort(axis=1)
            uniq = np.ones(a.shape, bool)
            uniq[:, 1:] = a[:, 1:] != a[:, :-1]
            uniq &= a != sentinel
            distinct = np.maximum(uniq.sum(axis=1), 1)
            self.issue_cycles += device.issue_cost["shared"] * distinct
            mem = batch.cmem
            idx = mem.element_index(addrs.reshape(-1), itemsize,
                                    mask.reshape(-1))
            return mem.view(p.np_dtype)[idx].reshape(M, WARP)
        if space == "local":
            return self._local_access(addrs, None, p, mask)
        raise SimError(f"bad load space {space!r}")

    def _do_store(self, space, addrs, value, p: PlannedInstr,
                  mask) -> None:
        batch = self.batch
        device = batch.device
        itemsize = p.itemsize
        if value.dtype != p.np_dtype:
            value = value.astype(p.np_dtype)
        if space == "global":
            txns = self._global_txns(addrs, mask, itemsize)
            line = device.coalesce_line_bytes()
            self.mem_transactions += txns
            self.mem_bytes += txns * line
            self.issue_cycles += device.mem_issue_cost * \
                np.maximum(txns, 1)
            mem = batch.gmem
            if mem._epoch is not None:
                mem.note_lanes(addrs, mask, itemsize)
            flat_mask = mask.reshape(-1)
            idx = mem.element_index(addrs.reshape(-1), itemsize,
                                    flat_mask)
            flat_value = np.ascontiguousarray(value).reshape(-1)
            # Fancy assignment applies rows in member (= block) order,
            # so duplicate addresses resolve as the serial path does.
            mem.view(p.np_dtype)[idx[flat_mask]] = flat_value[flat_mask]
            return
        if space == "shared":
            factors = self._shared_factors(addrs, mask)
            gidx = self._shared_index(addrs, mask, itemsize)
            # Row-major flattening keeps lane order within each member,
            # so duplicate addresses resolve exactly as serial does.
            batch.smem_view(p.np_dtype)[gidx[mask]] = value[mask]
            self.issue_cycles += device.issue_cost["shared"] * factors
            return
        if space == "local":
            self._local_access(addrs, value, p, mask)
            return
        if space == "const":
            raise SimError("stores to constant memory are illegal")
        raise SimError(f"bad store space {space!r}")

    def _tex(self, p: PlannedInstr, mask, covers) -> None:
        batch = self.batch
        binding = batch.texture_binding(p.param_name)
        itemsize = np.dtype(binding.np_dtype).itemsize
        base_elem = batch.gmem.element_index(
            np.full(WARP, binding.addr, np.uint64), itemsize,
            np.ones(WARP, bool))[0]
        view = batch.gmem.view(binding.np_dtype)

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
            idx = self._full(self._read(p.srcs[0])).astype(np.int64)
            value = fetch(idx, None)
        else:
            x = self._full(self._read(p.srcs[0])).astype(np.float64)
            y = self._full(self._read(p.srcs[1])).astype(np.float64)
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
        self._write(p, np.asarray(value), mask, covers)
        active = mask.sum(axis=1).astype(np.int64)
        txns = np.maximum(1, (active * itemsize + 127) // 128 // 2 + 1)
        self.mem_transactions += txns
        self.mem_bytes += txns * 32
        self.issue_cycles += batch.device.issue_cost["shared"]
        self.outstanding[p.dst] = "g"

    def _local_access(self, addrs, value, p: PlannedInstr, mask):
        if self.locals_ is None:
            raise SimError("kernel has no local memory but accesses it")
        device = self.batch.device
        itemsize = p.itemsize
        offsets = addrs.astype(np.int64) + _LANE_IDS * \
            (self.locals_[0].size // WARP)
        active = mask.sum(axis=1).astype(np.int64)
        txns = np.maximum(1, (active * itemsize + 127) // 128)
        self.mem_transactions += txns
        self.mem_bytes += txns * 128
        self.issue_cycles += device.mem_issue_cost * txns
        out = (np.empty((self.M, WARP), dtype=p.np_dtype)
               if value is None else None)
        off64 = offsets.astype(np.uint64)
        for i, local in enumerate(self.locals_):
            idx = local.element_index(off64[i], itemsize, mask[i])
            view = local.view(p.np_dtype)
            if value is None:
                out[i] = view[idx]
            else:
                view[idx[mask[i]]] = value[i][mask[i]]
        return out
