"""Block-batched SIMT execution engine: the production interpreter.

The serial path in :mod:`repro.gpusim.executor` runs one
:class:`~repro.gpusim.executor.BlockExecutor` per block: every block
pays the full Python interpreter loop even though most blocks of a
launch execute the *same* instruction trace.  This module batches B
blocks into a *gang*: per-warp-position fragments whose lane state is
(B, 32) NumPy arrays, so one interpreter step retires a warp-instruction
for every block in the gang at once.

Every launch that does not ask for ``engine="serial"`` runs here, one
block or many; ``BlockExecutor`` is the test oracle.  The gated
workloads run it narrow: a tuning evaluation is a sampled launch of one
or two blocks, and blocks smaller than a warp or whose control flow
differs split to one-member fragments (one ``tune`` pass retires about
94k gang-instructions at width 1 and 37k at width 2; serve-cold
launches run 2–24 blocks).  So the per-instruction cost is kept
independent of width:

* Uniform stat adds (the ``issue_cycles`` cost of a non-memory
  instruction, ``instructions += 1``) are queued as Python scalars and
  folded into the per-member arrays, in order, only when something
  reads them (see ``_GangWarp._fold``).
* A stack entry's row-emptiness test runs once per mask object, not
  once per instruction; predicated instructions share one guard-mask
  reduction per (mask, predicate) pair.
* Each planned instruction carries a bound handler (``p.run``, one
  shared function per opcode family, see :func:`bind_handler`) in place
  of an if-chain.

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
  same :mod:`repro.gpusim.coalescing` rules.
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


def batch_width() -> int:
    """Blocks per gang batch: ``REPRO_SIM_BATCH``, else the default."""
    return max(1, int(os.environ.get("REPRO_SIM_BATCH",
                                     DEFAULT_BATCH_BLOCKS)))

_LANE_IDS = np.arange(WARP, dtype=np.int64)
_CTAID_KEYS = ("ctaid.x", "ctaid.y", "ctaid.z")
#: Sorts past every real word/address in the row-distinct counts.
_SENTINEL = np.iinfo(np.int64).max
#: Largest members x queued-costs fold done as a Python float chain;
#: bigger folds use one ``np.add.accumulate``.
_SCALAR_FOLD = 64


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
    batch_blocks = batch_width() if batch_blocks is None \
        else max(1, batch_blocks)
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
        # Launch-shape constants: one read-only array each, shared by
        # every warp position (prototypes are retained with the plan).
        dims = {key: np.full(WARP, value, np.uint32) for key, value in (
            ("ntid.x", bx), ("ntid.y", by), ("ntid.z", bz),
            ("nctaid.x", gx), ("nctaid.y", gy), ("nctaid.z", gz))}
        for arr in dims.values():
            arr.flags.writeable = False
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
            }
            for arr in specials.values():
                arr.flags.writeable = False
            specials.update(dims)
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
        self._param_arrays: Dict[Tuple[str, object], np.ndarray] = {}

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
        key = (name, dtype)
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
                 "_rec", "_trace", "_trace_pos", "_sbase",
                 "_ic", "_ni", "_pend", "_npend", "_live", "_pmask"
                 ) + _GANG_STAT_NAMES[2:]

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
        #: Per-itemsize shared-memory row-base vectors (``_shared_index``
        #: and the trace engine); derived from ``slots``, so splitting
        #: invalidates it.
        self._sbase: Dict[int, np.ndarray] = {}
        local_bytes = batch.kernel.local_bytes
        self.locals_ = ([FlatMemory(local_bytes * WARP, "local")
                         for _ in ctxs] if local_bytes else None)
        self._ic = np.zeros(M, np.float64)
        self._pend: List[float] = []
        self._npend = 0
        self._live = None
        self._pmask = None
        for name in _GANG_STAT_NAMES[1:]:
            setattr(self, name, np.zeros(M, np.int64))

    # -- uniform stat adds ---------------------------------------------
    #
    # Every member of a fragment retires the same instructions, so the
    # non-memory ``issue_cycles += cost`` and ``instructions += 1``
    # adds are the same for all members.  The interpreter loop queues
    # them as Python scalars (``_pend`` / ``_npend``; compiled traces
    # append to the same queue); reading either property folds the
    # queue into the per-member arrays first.  The fold is a strictly
    # left-to-right chain per member row (Python floats are IEEE
    # binary64, and ``np.add.accumulate`` folds in order), so each
    # float64 total rounds exactly as the serial one-add-at-a-time
    # path does.  Per-member adds (memory, atomics) go through the
    # properties, or through ``_add_cycles``, which queues them when
    # the gang has one member; splits and ``finalize`` read the
    # properties, so they always see folded arrays.

    def _fold(self) -> None:
        pend = self._pend
        if pend:
            ic = self._ic
            if ic.size * len(pend) <= _SCALAR_FOLD:
                out = []
                for x in ic.tolist():
                    for cost in pend:
                        x += cost
                    out.append(x)
                ic[:] = out
            else:
                buf = np.empty((ic.size, len(pend) + 1))
                buf[:, 0] = ic
                buf[:, 1:] = pend
                np.add.accumulate(buf, axis=1, out=buf)
                ic[:] = buf[:, -1]
            pend.clear()
        if self._npend:
            self._ni += self._npend
            self._npend = 0

    def _add_cycles(self, cost: np.ndarray) -> None:
        """Add a per-member ``(M,)`` issue cost in program order.  A
        one-member gang queues it like a uniform cost."""
        if self.M == 1:
            self._pend.append(cost.item())
        else:
            self.issue_cycles += cost

    @property
    def issue_cycles(self) -> np.ndarray:
        if self._pend or self._npend:
            self._fold()
        return self._ic

    @issue_cycles.setter
    def issue_cycles(self, value: np.ndarray) -> None:
        self._ic = value

    @property
    def instructions(self) -> np.ndarray:
        if self._pend or self._npend:
            self._fold()
        return self._ni

    @instructions.setter
    def instructions(self, value: np.ndarray) -> None:
        self._ni = value

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
        sib._pend = []
        sib._npend = 0
        sib._live = None
        sib._pmask = None
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
        self._live = None
        self._pmask = None
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
        # ``p.exact``: the plan proved the handler yields dst_dtype.
        if not p.exact and value.dtype != p.dst_dtype:
            value = value.astype(p.dst_dtype)
        if covers:
            if value.shape != (self.M, WARP):
                value = self._full(value)
            self.regs[p.dst] = value
        else:
            old = self.regs[p.dst]
            if old is None:
                old = np.zeros((self.M, WARP), dtype=p.dst_dtype)
            self.regs[p.dst] = np.where(mask, value, old)

    def _full(self, arr: np.ndarray) -> np.ndarray:
        """Widen a lane array to the gang's (M, 32) shape.

        Copies rather than ``np.broadcast_to``, whose view costs
        several microseconds per call; register values are never
        written in place, so a single-member gang may also take a
        (1, 32) view of a (32,) lane array.
        """
        if arr.shape == (self.M, WARP):
            return arr
        if self.M == 1 and arr.ndim == 1:
            return arr[None]
        out = np.empty((self.M, WARP), arr.dtype)
        out[...] = arr
        return out

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
        stack = self.stack
        pend = self._pend
        while True:
            if not stack:
                self.finished = True
                return spawned
            top = stack[-1]
            reconv, mask, pc, covers = top
            if not covers and mask is not self._live:
                # Row emptiness is a property of the mask object, and
                # masks are only ever replaced (``_terminate``,
                # ``_take``, ``_narrow``), never edited: test each
                # mask once, not once per instruction.
                any_rows = mask.any(axis=1)
                if not any_rows.all():
                    if self._rec is not None:
                        # Partial-exit splits have no straight-line form.
                        gang_trace.abort_recording(self)
                    if not any_rows.any():
                        stack.pop()
                        continue
                    # Some blocks' masks emptied (exit under
                    # divergence): they pop this entry, the rest do not.
                    sib = self._take(~any_rows)
                    self._narrow(any_rows)
                    spawned.append(sib)
                    continue
                self._live = mask
            if pc == reconv or pc >= n:
                stack.pop()
                if stack:
                    if self._rec is not None:
                        self._rec.events.append(("pop",))
                    continue
                if self._rec is not None:
                    self._rec.events.append(("fin",))
                    gang_trace.finish_recording(self)
                self.finished = True
                return spawned
            p = instrs[pc]
            if self.outstanding:
                self._score_read(p)
            run = p.run
            if run is not None:
                self._npend += 1
                if p.pred >= 0:
                    exec_mask, live = self._pred_mask(p, mask)
                    exec_covers = False
                else:
                    exec_mask, live, exec_covers = mask, True, covers
                if run in _SELF_COSTED:
                    run(self, p, exec_mask, exec_covers)
                else:
                    # Every member pays the issue cost; an instruction
                    # no lane executes changes no register.
                    pend.append(p.cost)
                    if live:
                        run(self, p, exec_mask, exec_covers)
                top[2] = pc + 1
                if self._rec is not None:
                    self._rec.events.append(("x", pc, covers))
                    if len(self._rec.events) > gang_trace.MAX_EVENTS:
                        gang_trace.abort_recording(self)
                continue
            op = p.op
            if op == "bra":
                pend.append(p.cost)
                self._npend += 1
                self._branch(p, top, mask, pc, spawned)
                continue
            if op == "bar":
                if not covers or not (mask == self.lane_mask).all():
                    raise SimError(
                        "__syncthreads() reached in divergent code — "
                        "undefined behaviour in CUDA, rejected here")
                pend.append(p.cost or batch.device.issue_cost["bar"])
                self._npend += 1
                self.barriers += 1
                self.outstanding.clear()
                top[2] = pc + 1
                self.at_barrier = True
                if self._rec is not None:
                    self._rec.events.append(("bar", pc))
                return spawned
            # exit
            if self._rec is not None:
                if (mask == self.lane_mask).all():
                    # Whole-warp exit: a clean trace terminator.
                    self._rec.events.append(("exit", pc))
                    gang_trace.finish_recording(self)
                else:
                    gang_trace.abort_recording(self)
            self._terminate(mask)

    def _pred_mask(self, p: PlannedInstr,
                   mask: np.ndarray) -> Tuple[np.ndarray, bool]:
        """``(mask & guard lanes, any lane live)`` for a predicated op.

        Memoized on the (mask, predicate register, polarity) objects:
        runs of instructions under one guard share one reduction.
        """
        pred = self.regs[p.pred]
        neg = p.pred_neg
        hit = self._pmask
        if (hit is not None and hit[0] is mask and hit[1] is pred
                and hit[2] == neg):
            return hit[3], hit[4]
        if pred is None:
            lane = np.zeros((self.M, WARP), dtype=bool) != neg
        else:
            lane = pred != neg
        exec_mask = mask & lane
        live = np.count_nonzero(exec_mask) > 0
        self._pmask = (mask, pred, neg, exec_mask, live)
        return exec_mask, live

    def _score_read(self, p: PlannedInstr) -> None:
        outstanding = self.outstanding
        if outstanding.keys().isdisjoint(p.reg_srcs):
            return
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
        lane_take = ~pred if p.pred_neg else pred
        taken = mask & lane_take
        fall = None
        # Every member has an active lane here (``run_quantum`` split
        # off empty rows), so a gang-wide empty arm decides every
        # member's class at once.
        if not np.count_nonzero(taken):
            kind = "fall"
        else:
            fall = mask > lane_take  # mask & ~lane_take, one op
            if not np.count_nonzero(fall):
                kind = "taken"
            elif self.M == 1:
                kind = "div"
            else:
                kind = None
        if kind is not None:
            if self._rec is not None:
                self._rec.events.append(("br", pc, kind))
            self._apply_branch(kind, top, taken, fall, pc, p.target)
            return
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

    # -- memory --------------------------------------------------------

    def _memory(self, p: PlannedInstr, mask: np.ndarray,
                covers: bool) -> None:
        batch = self.batch
        device = batch.device
        space = p.space
        if space == "param":
            self._pend.append(p.cost)
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
            idx, txns = self._global_access(addrs, mask, itemsize)
            old = _ordered_atomic_add(mem.view(p.np_dtype),
                                      idx.reshape(self.M, WARP), mask,
                                      value)
        else:
            # Member rows are disjoint in the stack, so reading every
            # old value before any add matches the per-member order.
            gidx = self._shared_index(addrs, mask, itemsize)
            view = batch.smem_view(p.np_dtype)
            old = view[gidx]
            np.add.at(view, gidx[mask], value[mask])
        self._write(p, old, mask, covers)
        self._pend.append(device.issue_cost["atom"])
        self.atomics += 1
        if space == "global":
            self.mem_transactions += txns
            self.mem_bytes += txns * 32
            self.outstanding.clear()
            self.global_stalls += 1  # atomics round-trip

    def _count_global(self, txns: np.ndarray) -> None:
        """Charge one global load/store's transactions."""
        device = self.batch.device
        self.mem_transactions += txns
        self.mem_bytes += txns * device.coalesce_line_bytes()
        self._add_cycles(device.mem_issue_cost * np.maximum(txns, 1))

    def _global_access(self, addrs, mask,
                       itemsize) -> Tuple[np.ndarray, np.ndarray]:
        """``(flat element indices, per-member transactions)``.

        The values :meth:`GlobalMemory.element_index` and
        :func:`coalescing.global_transactions_batch` give.  Validating
        first means every active access is aligned, so none straddles
        a segment.
        """
        batch = self.batch
        mem = batch.gmem
        flat = mask.reshape(-1)
        a = addrs.astype(np.int64)
        off = a.reshape(-1) - mem._BASE
        active = off[flat]
        if active.size and (np.minimum.reduce(active) < 0
                            or np.maximum.reduce(active)
                            > mem.size - itemsize
                            or np.count_nonzero(active % itemsize)):
            # Raises the exact diagnostic.
            mem.element_index(addrs.reshape(-1), itemsize, flat)
        txns = coalescing.global_transactions_batch(
            a, mask, itemsize, batch.device, aligned=True)
        return np.where(flat, off, 0) // itemsize, txns

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
            if (np.minimum.reduce(active) < 0
                    or np.maximum.reduce(active) > size - itemsize):
                raise MemoryError_(
                    f"shared access out of bounds (size {size})")
            if np.count_nonzero(active % itemsize):
                raise MemoryError_("misaligned shared access")
        idx = np.where(mask, offsets, 0) // itemsize
        base = self._sbase.get(itemsize)
        if base is None:  # per-member row offsets; reset by splits
            base = (self.slots * (self.batch.smem_row // itemsize))[:,
                                                                    None]
            self._sbase[itemsize] = base
        return idx + base

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
        M = self.M
        worst = np.ones(M, np.int64)
        for m in groups:
            w = np.where(m, words, _SENTINEL)
            w.sort(axis=1)
            uniq = w != _SENTINEL
            uniq[:, 1:] &= w[:, 1:] != w[:, :-1]
            # Distinct words per (member, bank), one flat histogram.
            rows = np.nonzero(uniq)[0]
            counts = np.bincount(rows * banks + w[uniq] % banks,
                                 minlength=M * banks)
            np.maximum(worst, counts.reshape(M, banks).max(axis=1),
                       out=worst)
        return worst

    def _do_load(self, space, addrs, p: PlannedInstr,
                 mask) -> np.ndarray:
        batch = self.batch
        device = batch.device
        itemsize = p.itemsize
        M = self.M
        if space == "global":
            idx, txns = self._global_access(addrs, mask, itemsize)
            self._count_global(txns)
            return batch.gmem.view(p.np_dtype)[idx].reshape(M, WARP)
        if space == "shared":
            factors = self._shared_factors(addrs, mask)
            gidx = self._shared_index(addrs, mask, itemsize)
            self._add_cycles(device.issue_cost["shared"] * factors)
            return batch.smem_view(p.np_dtype)[gidx]
        if space == "const":
            # Distinct addresses per member (broadcast model), counted
            # with a row sort; empty rows pay the single-broadcast cost.
            a = np.where(mask, addrs.astype(np.int64), _SENTINEL)
            a.sort(axis=1)
            uniq = a != _SENTINEL
            uniq[:, 1:] &= a[:, 1:] != a[:, :-1]
            distinct = np.maximum(uniq.sum(axis=1), 1)
            self._add_cycles(device.issue_cost["shared"] * distinct)
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
            idx, txns = self._global_access(addrs, mask, itemsize)
            self._count_global(txns)
            mem = batch.gmem
            if mem._epoch is not None:
                mem.note_lanes(addrs, mask, itemsize)
            flat_mask = mask.reshape(-1)
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
            self._add_cycles(device.issue_cost["shared"] * factors)
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
        self._pend.append(batch.device.issue_cost["shared"])
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
        self._add_cycles(device.mem_issue_cost * txns)
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


# -- per-op handlers -----------------------------------------------------
#
# One shared function per opcode family, bound on each PlannedInstr at
# plan time (``p.run``, with the NumPy semantics in ``p.fn``), so the
# interpreter loop makes one indirect call instead of walking an
# if-chain.  Arithmetic handlers run only when some lane of the
# execution mask is live; the loop has already queued their issue
# cost.  Memory and texture instructions bind ``_GangWarp._memory`` /
# ``_tex`` (``_SELF_COSTED``) and always run: they add their own
# per-member costs.

def _op_mov(w: _GangWarp, p: PlannedInstr, mask, covers) -> None:
    w._write(p, w._read(p.srcs[0]), mask, covers)


def _op_unary(w: _GangWarp, p: PlannedInstr, mask, covers) -> None:
    w._write(p, p.fn(w._read(p.srcs[0])), mask, covers)


def _op_binary(w: _GangWarp, p: PlannedInstr, mask, covers) -> None:
    srcs = p.srcs
    w._write(p, p.fn(w._read(srcs[0]), w._read(srcs[1])), mask, covers)


def _op_typed_binary(w: _GangWarp, p: PlannedInstr, mask,
                     covers) -> None:
    """Binary semantics that read the instruction's type (div, shifts)."""
    srcs = p.srcs
    w._write(p, p.fn(w._read(srcs[0]), w._read(srcs[1]), p), mask,
             covers)


def _op_typed_unary(w: _GangWarp, p: PlannedInstr, mask,
                    covers) -> None:
    w._write(p, p.fn(w._read(p.srcs[0]), p), mask, covers)


def _op_mad(w: _GangWarp, p: PlannedInstr, mask, covers) -> None:
    srcs = p.srcs
    w._write(p, w._read(srcs[0]) * w._read(srcs[1]) + w._read(srcs[2]),
             mask, covers)


def _op_selp(w: _GangWarp, p: PlannedInstr, mask, covers) -> None:
    srcs = p.srcs
    w._write(p, np.where(w._read(srcs[2]), w._read(srcs[0]),
                         w._read(srcs[1])), mask, covers)


def _op_cvt(w: _GangWarp, p: PlannedInstr, mask, covers) -> None:
    value = w._read(p.srcs[0])
    if p.fn is not None and value.dtype.kind == "f":
        # Float to integer: round (``p.fn``), non-finite lanes to 0.
        value = p.fn(value)
        value = np.where(np.isfinite(value), value, 0.0)
    w._write(p, value.astype(p.np_dtype), mask, covers)


def _op_unimplemented(w: _GangWarp, p: PlannedInstr, mask,
                      covers) -> None:
    raise SimError(f"unimplemented opcode {p.op!r}")


_SELF_COSTED = (_GangWarp._memory, _GangWarp._tex)
_BOOL_BINARY = {"and": np.logical_and, "or": np.logical_or,
                "xor": np.logical_xor}
#: op -> (handler, NumPy semantics).  ``bind_handler`` specialises
#: ``setp``'s comparison, ``cvt``'s rounding and the boolean logic ops.
_BIND = {"mov": (_op_mov, None), "selp": (_op_selp, None),
         "cvt": (_op_cvt, None), "mad": (_op_mad, None),
         "fma": (_op_mad, None), "setp": (_op_binary, None),
         "ld": (_GangWarp._memory, None),
         "st": (_GangWarp._memory, None),
         "atom": (_GangWarp._memory, None), "tex": (_GangWarp._tex, None),
         "bra": (None, None), "bar": (None, None), "exit": (None, None),
         "add": (_op_binary, np.add), "sub": (_op_binary, np.subtract),
         "mul": (_op_binary, np.multiply),
         "min": (_op_binary, np.minimum), "max": (_op_binary, np.maximum),
         "and": (_op_binary, np.bitwise_and),
         "or": (_op_binary, np.bitwise_or),
         "xor": (_op_binary, np.bitwise_xor)}
for _op, _fn in _BINARY.items():
    _BIND.setdefault(_op, (_op_typed_binary, _fn))
for _op, _fn in _UNARY.items():
    _BIND.setdefault(_op, (_op_typed_unary, _fn))
#: Ops whose handler yields the instruction's dtype: ``cvt`` casts to
#: it, and the rest keep their operands' dtype, which the plan reads
#: as the instruction's.  A write needs no cast when that is also the
#: destination register's dtype.
_YIELDS_NP_DTYPE = frozenset(("mov", "add", "sub", "mul", "min", "max",
                              "and", "or", "xor", "mad", "fma", "selp",
                              "neg", "abs", "not", "cvt"))
_BOOL = np.dtype(bool)


def bind_handler(p: PlannedInstr) -> PlannedInstr:
    """Bind *p*'s gang handler (``run``), semantics (``fn``) and write
    flag (``exact``); control ops (``bra``/``bar``/``exit``) keep
    ``run = None``."""
    op = p.op
    run, fn = _BIND.get(op, (_op_unimplemented, None))
    if op == "setp":
        fn = _CMP_FN[p.cmp]
    elif op == "cvt" and p.ctype.is_integer:
        fn = np.rint if p.cmp.endswith(".rn") else np.trunc
    elif p.is_bool and op in _BOOL_BINARY:
        fn = _BOOL_BINARY[op]
    elif p.is_bool and op == "not":
        run, fn = _op_unary, np.logical_not
    p.run = run
    p.fn = fn
    result = _BOOL if op == "setp" else p.np_dtype
    p.exact = ((op == "setp" or op in _YIELDS_NP_DTYPE)
               and result == p.dst_dtype)
    return p
