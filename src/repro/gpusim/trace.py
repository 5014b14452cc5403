"""Trace-JIT over the batched gang interpreter.

The batched engine (:mod:`repro.gpusim.engine`) already retires one
warp-instruction for up to 128 blocks per interpreter step, but still
pays Python dispatch — operand decoding, the ``_execute`` if-chain,
scoreboard bookkeeping — per instruction.  For the kernels this
dissertation studies, every gang of a launch (and every launch of a
sweep) walks the *same* straight-line regions; this module records
that walk once and replays it as a flat generated-Python program of
whole-array NumPy statements.

How it works
------------

* **Recording.**  When tracing is enabled and a :class:`_GangWarp`
  starts a quantum with the canonical entry state (depth-1 stack,
  covering mask, empty scoreboard), and no compiled trace exists for
  the key ``(entry_pc, active-lane signature)``, a recorder attaches.
  The interpreter runs normally while appending one event per retired
  operation: executed instruction, branch outcome class
  (fall/taken/div), reconvergence pop, barrier, exit.  Recording
  survives barriers (one trace spans the whole kernel).  A gang
  *split* — member blocks disagreeing on a branch class — ends the
  recording at that branch, and the continuation past it is captured
  by a separate *chain* trace keyed on the deopt state (below);
  recordings abort only on genuinely untraceable events (unsupported
  ops, oversized traces), and keys that keep aborting are poisoned
  after a few attempts.

* **Compilation.**  The event list is lowered to a list of coarse ops:

  - ``SEG``: a generated Python function of inlined NumPy statements
    covering a run of straight-line instructions.  Arithmetic is
    emitted as direct array expressions; loads/stores/atomics/textures
    call back into the interpreter's exact ``_memory``/``_tex``
    helpers (they carry all transaction/stall modelling).  Scoreboard
    stalls are *statically* simulated at compile time — the
    ``outstanding`` dict is deterministic given the instruction
    stream — and emitted as plain counter increments.  Per-instruction
    ``issue_cycles`` additions join the warp's queue of uniform costs
    (``w._pend``) in original order, so the float64 chains match the
    interpreter bit for bit.
  - ``BRA``: a guard.  It re-evaluates the predicate and checks every
    member still falls in the *recorded* branch class; on agreement it
    applies the branch (pushing taken/fall entries for a divergent
    branch).  Nonconforming members are split off and deoptimized
    while the conforming majority keeps replaying; when every member
    fails, the whole fragment **deoptimizes** (and may immediately
    attach a continuation trace — see ``_chain``).  When compile-time
    analysis proved the predicate and mask row-uniform, the guard
    checks row 0 only (32 lanes instead of M·32) and fails
    all-or-nothing.
  - ``POP`` / ``BAR`` / ``EXIT`` / ``FIN``: reconvergence pops,
    barrier rendezvous (replay resumes mid-trace next quantum), and
    the two finish forms.

* **Deoptimization.**  Every guard carries the symbolic interpreter
  state at its program point: the stack's ``(reconv, pc, covers)``
  entries (masks are live — replay maintains them exactly) and the
  scoreboard snapshot.  On guard failure the warp's stack and
  ``outstanding`` are restored and the quantum falls through to the
  ordinary interpreter loop, which re-executes the guarded
  instruction with full splitting semantics.  Deopt is therefore
  always bit-exact, never best-effort.

* **Caching.**  Compiled traces ride the :class:`KernelPlan`
  (``plan.traces``) exactly like gang prototypes, so the
  :class:`~repro.runtime.context.ExecutionContext` plan cache gives
  sweeps and repeated launches trace reuse for free, and
  ``clear_plan_cache()`` evicts traces too.  Each launch counts into
  its own dict (``batch.trace_counts``), which the launcher reports as
  ``LaunchResult.trace_*`` and adds to the context's ``cache.trace_*``
  counters (read through ``ctx.cache_counters()`` /
  ``Sweeper.cache_report``).

* **Fast paths.**  The compiler runs a static row-uniformity analysis
  over registers and mask-stack levels: values proven identical
  across member rows may be stored as single-row ``(WARP,)`` arrays
  (NumPy broadcasting widens them lazily; splits and deopts keep them
  valid because row selection on a row-uniform value is the
  identity), and guards on proven-uniform predicates test one row.
  Shared-memory traffic additionally gets per-placement address-
  pattern memos (``plan.shared_rows`` / ``plan.shared_pats``) with a
  contiguous row-slice special case, and global loads/stores memoize
  block-relative patterns (``plan.global_pats``) with bounds
  re-checked per placement.

Fault injection: the launcher only enables tracing when no injector is
installed, so every ``FaultPlan`` site sees the plain interpreter and
chaos semantics are unchanged.

Correctness invariants the design leans on (see DESIGN.md §9):

* Inside a trace no mask row is ever empty: entry masks cover whole
  warps, and a guard only admits a divergent branch when *both* arms
  are non-empty for *every* member — which is what the recorded class
  ``div`` asserts.  Emptiness appears only via ``exit``, which ends
  the trace.
* The scoreboard is a deterministic function of the instruction
  stream, so stalls can be decided at compile time; the runtime
  ``outstanding`` dict may go stale during replay but is rewritten
  from the static snapshot at every deopt and cleared at barriers.
* Predicated-off arithmetic the interpreter skips is value-neutral to
  execute anyway (writes are masked; NumPy under ``errstate(ignore)``
  raises nothing), so segments run unconditionally.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.gpusim import coalescing
from repro.gpusim.executor import (WARP, SimError, _BINARY, _UNARY)
from repro.gpusim.memory import MemoryError_

__all__ = ["GangTrace", "MAX_EVENTS"]

#: Recording aborts past this many events (a trace is a full loop
#: unroll; unbounded kernels would compile forever).
MAX_EVENTS = int(os.environ.get("REPRO_TRACE_MAX_EVENTS", 32768))

#: Recording attempts per key before the key is poisoned.
_MAX_ABORTS = 4

# Compiled-op tags.
_OP_SEG, _OP_BRA, _OP_POP, _OP_BAR, _OP_FIN, _OP_EXIT = range(6)

_KIND_CODE = {"fall": 0, "taken": 1, "div": 2}

_CMP_OPERATORS = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=",
                  "gt": ">", "ge": ">="}

_INLINE_BINARY = {
    "and": "np.bitwise_and({a}, {b})",
    "or": "np.bitwise_or({a}, {b})",
    "xor": "np.bitwise_xor({a}, {b})",
    "min": "np.minimum({a}, {b})",
    "max": "np.maximum({a}, {b})",
}

_INLINE_UNARY = {
    "neg": "np.negative({a})",
    "not": "np.invert({a})",
    "abs": "np.abs({a})",
    "sqrt": "np.sqrt({a})",
    "rsqrt": "(1.0 / np.sqrt({a}))",
    "rcp": "(1.0 / {a})",
    "floor": "np.floor({a})",
    "ceil": "np.ceil({a})",
    "round": "np.rint({a})",
    "trunc": "np.trunc({a})",
    "exp2": "np.exp2({a})",
    "lg2": "np.log2({a})",
    "sin": "np.sin({a})",
    "cos": "np.cos({a})",
}


def _strict() -> bool:
    return bool(os.environ.get("REPRO_TRACE_STRICT"))


class GangTrace:
    """One compiled straight-line gang program."""

    __slots__ = ("key", "ops", "n_events", "n_segments", "sources")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        entry = ("deopt-chain" if self.key[0] == "d"
                 else f"pc={self.key[0]}")
        return (f"<GangTrace {entry} ops={len(self.ops)} "
                f"segments={self.n_segments} events={self.n_events}>")


class _Recorder:
    """Event sink attached to a recording :class:`_GangWarp`."""

    __slots__ = ("key", "events")

    def __init__(self, key):
        self.key = key
        self.events: List[tuple] = []


class _CompileAbort(Exception):
    """Trace cannot be compiled; fall back to the interpreter."""


# ---------------------------------------------------------------------
# Runtime helpers shared by generated segments.
# ---------------------------------------------------------------------

def _reg_zeros(w, i):
    """Materialize a never-written register, exactly like ``_read``."""
    arr = np.zeros((w.M, WARP), dtype=w.batch.plan._reg_dtypes[i])
    w.regs[i] = arr
    return arr


#: Global address-pattern memo entries per plan before the cache
#: resets.
_GPAT_CAP = 4096


def _glob_rel(a, m):
    """Base-relative addresses under a 256-byte-aligned shift.

    ``cudaMalloc`` aligns allocations to 256 bytes and every coalescing
    segment size (32/64/128) divides 256, so keying a lane-address
    pattern relative to this base makes it recur across launches that
    place the same access shape in different allocations — the bump
    allocator never reuses addresses, so absolute keys would never hit
    for per-run buffers.  Inactive lanes are zeroed: they hold stale
    register bytes (often absolute pointers from earlier launches)
    that would otherwise defeat the memo, and every consumer of a
    cached entry ignores them anyway.
    """
    if m.all():
        s = int(a.min()) & ~0xFF
        return s, a - s
    if m.any():
        s = int(a[m].min()) & ~0xFF
        return s, np.where(m, a, s) - s
    return 0, np.where(m, a, 0)


def _global_pattern(w, key, a, m, itemsize, s):
    """Compute and cache one global access pattern's txns + indices.

    The entry stores base-relative element indices plus the active
    lanes' byte extent ``[lo, hi)`` relative to the shift *s*, so a hit
    revalidates bounds with two scalar compares and rebuilds exact
    absolute indices by adding the new base back.  Alignment is
    shift-invariant (*s* and the heap base are both 256-aligned and
    ``itemsize`` divides 256).  Validation raises *before* anything is
    cached.
    """
    batch = w.batch
    mem = batch.gmem
    txns = coalescing.global_transactions_batch(a, m, itemsize,
                                                batch.device)
    fm = m.reshape(-1)
    idx = mem.element_index(a.reshape(-1), itemsize, fm)
    if fm.any():
        offs = a[m].astype(np.int64) - s
        lo = int(offs.min())
        hi = int(offs.max()) + itemsize
    else:
        lo = hi = None
    idx_rel = np.where(fm, idx - (s - mem._BASE) // itemsize, 0)
    cache = batch.plan.global_pats
    if len(cache) >= _GPAT_CAP:
        cache.clear()
    cache[key] = (txns, idx_rel, lo, hi)
    return cache[key]


def _glob_index(w, a, m, itemsize):
    """Memoized (transactions, element indices) for one global access.

    Returns the exact values ``global_transactions_batch`` and
    ``element_index`` would produce, raising the same out-of-bounds and
    misalignment diagnostics on the same inputs.
    """
    mem = w.batch.gmem
    if 256 % itemsize:
        txns = coalescing.global_transactions_batch(a, m, itemsize,
                                                    w.batch.device)
        idx = mem.element_index(a.reshape(-1), itemsize, m.reshape(-1))
        return txns, idx
    s, rel = _glob_rel(a, m)
    key = (itemsize, rel.tobytes(), np.packbits(m).tobytes())
    hit = w.batch.plan.global_pats.get(key)
    if hit is None:
        hit = _global_pattern(w, key, a, m, itemsize, s)
    txns, idx_rel, lo, hi = hit
    base = s - mem._BASE
    if lo is not None and (base + lo < 0 or base + hi > mem.size):
        # Same relative pattern, but this placement is out of bounds:
        # the uncached path raises the exact diagnostic.
        mem.element_index(a.reshape(-1), itemsize, m.reshape(-1))
    idx = np.where(m.reshape(-1), idx_rel + base // itemsize, 0)
    return txns, idx


def _ldg(w, p, a, m):
    """Global load, inlined: mirrors ``_do_load(space='global')``."""
    batch = w.batch
    device = batch.device
    itemsize = p.itemsize
    txns, idx = _glob_index(w, a, m, itemsize)
    line = device.coalesce_line_bytes()
    w.mem_transactions += txns
    w.mem_bytes += txns * line
    w.issue_cycles += device.mem_issue_cost * np.maximum(txns, 1)
    mem = batch.gmem
    return mem.view(p.np_dtype)[idx].reshape(w.M, WARP)


def _stg(w, p, a, v, m):
    """Global store, inlined: mirrors ``_do_store(space='global')``."""
    batch = w.batch
    device = batch.device
    itemsize = p.itemsize
    if v.dtype != p.np_dtype:
        v = v.astype(p.np_dtype)
    txns, idx = _glob_index(w, a, m, itemsize)
    line = device.coalesce_line_bytes()
    w.mem_transactions += txns
    w.mem_bytes += txns * line
    w.issue_cycles += device.mem_issue_cost * np.maximum(txns, 1)
    mem = batch.gmem
    if mem._epoch is not None:
        mem.note_lanes(a, m, itemsize)
    fm = m.reshape(-1)
    fv = np.ascontiguousarray(v).reshape(-1)
    mem.view(p.np_dtype)[idx[fm]] = fv[fm]


def _srow_base(w, itemsize):
    """Per-member shared-row element offsets, cached on the warp.

    ``slots`` only changes when a fragment splits (which clears the
    cache), so every shared access after the first reuses the vector.
    """
    base = w._sbase.get(itemsize)
    if base is None:
        base = (w.slots * (w.batch.smem_row // itemsize))[:, None]
        w._sbase[itemsize] = base
    return base


def _srow_gidx(w, idx0, itemsize):
    """Whole-gang shared element indices into a per-warp scratch.

    The ``idx0 + base`` broadcast add runs thousands of times per
    launch; writing into one reused ``(M, 32)`` buffer skips the
    allocation.  Callers consume the result immediately (the gather
    copies, scatters read it once), so a single scratch per warp is
    safe; splits shrink ``M``, caught by the shape check.
    """
    buf = w._sbase.get(-1)
    if buf is None or buf.shape[0] != w.M:
        buf = np.empty((w.M, WARP), np.int64)
        w._sbase[-1] = buf
    return np.add(idx0, _srow_base(w, itemsize), out=buf)


#: Shared row-pattern memo entries per plan before the cache resets.
_SHROW_CAP = 8192

_ARANGE32 = np.arange(WARP, dtype=np.int64)


def _shared_row(w, arow, mrow, itemsize, device):
    """Single-row shared factor + element index, memoized per plan.

    Value-equivalent to ``_shared_factors``/``_shared_index`` on one
    member row: callers only take this path after proving every row of
    the gang carries identical addresses and mask, so the row-0 result
    (a scalar conflict factor, a ``(32,)`` index vector) stands for
    all members.  Shared access patterns are tid-derived and recur
    identically across gangs, launches, and sweep jobs, so results are
    cached on the plan keyed by the raw address/mask bytes (plus the
    per-launch shared size, which scales the bounds check).

    Returns ``(factor, idx0, start)``; *start* is the first element
    index when the row is a full-warp contiguous run (the coalesced
    common case, eligible for the row-slice fast path in
    ``_lds``/``_sts``), else ``None``.
    """
    size = w.ctxs[0].smem.size
    cache = w.batch.plan.shared_rows
    key = (itemsize, size, arow.tobytes(), mrow.tobytes())
    hit = cache.get(key)
    if hit is not None:
        return hit
    offs = arow.astype(np.int64)
    active = offs[mrow]
    if active.size:
        if (active < 0).any() or (active + itemsize > size).any():
            raise MemoryError_(
                f"shared access out of bounds (size {size})")
        if (active % itemsize).any():
            raise MemoryError_("misaligned shared access")
    idx0 = np.where(mrow, offs, 0) // itemsize
    banks = device.shared_banks
    words = offs // 4
    spans = device.shared_groups()
    if len(spans) == 1:
        groups = (mrow,)
    else:
        groups = []
        for lo, hi in spans:
            g = mrow.copy()
            g[:lo] = False
            g[hi:] = False
            groups.append(g)
    worst = 1
    for g in groups:
        act = words[g]
        if act.size:
            distinct = np.unique(act)
            counts = np.bincount(distinct % banks, minlength=banks)
            worst = max(worst, int(counts.max()))
    start = None
    if mrow.all() and (idx0 == idx0[0] + _ARANGE32).all():
        # Full-warp contiguous run: every element index was bounds-
        # checked above, so a 32-wide slice at ``start`` stays inside
        # the member's shared row.
        start = int(idx0[0])
    if len(cache) >= _SHROW_CAP:
        cache.clear()
    cache[key] = (worst, idx0, start)
    return worst, idx0, start


def _shared_cols(w, arow, itemsize, device):
    """Conflict/index kernel for one address row, any mask pattern.

    Divergent kernels (boundary tiles, data-dependent loops) keep the
    *addresses* row-uniform — they are tid-derived — while the active
    masks differ per member, defeating :func:`_shared_row`.  For that
    shape the per-row conflict factor is a fixed function of the mask:
    a lane→distinct-word one-hot matrix and a word→bank one-hot matrix
    turn the whole gang's factors into two small matmuls.  Memoized on
    the plan beside the single-row entries (disjoint key space).

    Returns ``(badlane, idx0, mats)``: lanes whose offsets would fault
    if active (``None`` when the row is fully valid), per-lane element
    indices (faulting lanes forced to 0, matching the general path's
    masked ``where``), and per-conflict-group ``(lo, hi, l2w, w2b)``
    matrices.
    """
    size = w.ctxs[0].smem.size
    cache = w.batch.plan.shared_rows
    key = (0, itemsize, size, arow.tobytes())
    hit = cache.get(key)
    if hit is not None:
        return hit
    offs = arow.astype(np.int64)
    bad = (offs < 0) | (offs + itemsize > size) | (offs % itemsize != 0)
    idx0 = np.where(bad, 0, offs) // itemsize
    banks = device.shared_banks
    words = offs // 4
    halves = device.shared_groups()
    mats = []
    for lo, hi in halves:
        uw, inv = np.unique(words[lo:hi], return_inverse=True)
        l2w = np.zeros((hi - lo, uw.size), np.int64)
        l2w[np.arange(hi - lo), inv] = 1
        w2b = np.zeros((uw.size, banks), np.int64)
        w2b[np.arange(uw.size), uw % banks] = 1
        mats.append((lo, hi, l2w, w2b))
    entry = (bad if bad.any() else None, idx0, mats)
    if len(cache) >= _SHROW_CAP:
        cache.clear()
    cache[key] = entry
    return entry


#: Whole-gang shared-pattern memo entries per plan before reset.
_SHPAT_CAP = 2048


def _pat_key(a, m, itemsize, size) -> tuple:
    """Whole-gang pattern memo key: raw address and packed mask bytes."""
    return (itemsize, size, a.tobytes(), np.packbits(m).tobytes())


def _shared_pattern(w, key, a, m, itemsize, size):
    """Compute and memoize general-path shared factors/indices.

    Divergent kernels with ctaid-derived shared addressing (the
    template matcher's per-shift area loads) produce per-member
    patterns no row canonicalisation can collapse — but the patterns
    are functions of launch geometry alone, so the same gang replays
    them unchanged on every launch of the plan.  A pattern that fails
    validation raises before it is cached.  Returns ``(factors,
    idx)`` with ``idx`` still missing the per-member slot offsets.
    """
    cache = w.batch.plan.shared_pats
    factors = w._shared_factors(a, m)
    offs = a.astype(np.int64)
    active = offs[m]
    if active.size:
        if (active < 0).any() or (active + itemsize > size).any():
            raise MemoryError_(
                f"shared access out of bounds (size {size})")
        if (active % itemsize).any():
            raise MemoryError_("misaligned shared access")
    idx = np.where(m, offs, 0) // itemsize
    if len(cache) >= _SHPAT_CAP:
        cache.clear()
    cache[key] = (factors, idx)
    return factors, idx


def _lane_ref(a, m):
    """Canonical per-lane addresses when active lanes agree across rows.

    Straight-line replay runs every instruction full-width but masks
    register writes, so *inactive* lanes carry stale, member-specific
    values — whole-row equality fails even though every active lane
    computes the same tid-derived address.  Pick each lane's first
    active row as its reference (never-active lanes canonicalise to 0)
    and verify every active occurrence matches.  Returns the ``(32,)``
    reference row, or ``None`` when some lane disagrees while active.
    """
    ref = a[m.argmax(axis=0), np.arange(WARP)]
    ref = np.where(m.any(axis=0), ref, 0)
    if (np.where(m, a, ref) == ref).all():
        return ref
    return None


def _shared_col_factors(w, m, mats):
    """Per-member conflict factors from memoized one-hot matrices.

    ``(m @ l2w) > 0`` marks, per member, which distinct words have at
    least one active lane; ``@ w2b`` counts them per bank.  Matches
    ``_shared_factors`` bit for bit (distinct active words, worst
    bank, floor of one).
    """
    worst = np.ones(w.M, np.int64)
    for lo, hi, l2w, w2b in mats:
        hit = (m[:, lo:hi].astype(np.int64) @ l2w) > 0
        counts = hit.astype(np.int64) @ w2b
        worst = np.maximum(worst, counts.max(axis=1))
    return worst


def _lds(w, p, a, m, rowsafe, auni):
    """Shared load with row-uniform fast paths.

    Shared addressing in SIMT kernels is usually a pure function of
    ``tid``, making every gang row identical; the full per-row
    bank-conflict sort then repeats one row's work M times.  When
    masks are uniform too, factor and indices come from row 0 alone
    (:func:`_shared_row`); when only the addresses are uniform —
    divergent code with data-dependent masks — the memoized matmul
    kernel (:func:`_shared_cols`) still vectorises the whole gang.
    ``rowsafe`` is compile-time True for ops running under the
    covering entry mask, whose rows are uniform by construction (one
    ``blockDim`` per launch).  ``auni`` is compile-time True when the
    compiler's dataflow analysis proved the address row-uniform
    (derived from tid/params/constants only), skipping the dynamic
    probe; False falls back to probing, so dynamically-uniform
    addresses still take the fast path.
    """
    batch = w.batch
    device = batch.device
    itemsize = p.itemsize
    uniform = auni or (a == a[0]).all()
    if uniform and (rowsafe or (m == m[0]).all()):
        f, idx0, start = _shared_row(w, a[0], m[0], itemsize, device)
        w.issue_cycles += device.issue_cost["shared"] * f
        if start is not None:
            # Contiguous full-warp row: one 32-element run per member
            # off a 2-D view, instead of materialising and gathering
            # 32*M scattered offsets.
            view2 = batch.smem_view2(p.np_dtype,
                                     batch.smem_row // itemsize)
            return view2[w.slots, start:start + WARP]
        gidx = _srow_gidx(w, idx0, itemsize)
        return batch.smem_view(p.np_dtype)[gidx]
    size = w.ctxs[0].smem.size
    pkey = _pat_key(a, m, itemsize, size)
    hit = batch.plan.shared_pats.get(pkey)
    if hit is None:
        ref = a[0] if uniform else _lane_ref(a, m)
        if ref is not None:
            badlane, idx0, mats = _shared_cols(w, ref, itemsize,
                                               device)
            if badlane is None or not (m & badlane).any():
                factors = _shared_col_factors(w, m, mats)
                gidx = (np.where(m, idx0, 0)
                        + _srow_base(w, itemsize))
                w.issue_cycles += device.issue_cost["shared"] * factors
                return batch.smem_view(p.np_dtype)[gidx]
            # An active lane faults: fall through so the general
            # path raises its exact diagnostic.
        hit = _shared_pattern(w, pkey, a, m, itemsize, size)
    factors, idx = hit
    gidx = _srow_gidx(w, idx, itemsize)
    w.issue_cycles += device.issue_cost["shared"] * factors
    return batch.smem_view(p.np_dtype)[gidx]


def _sts(w, p, a, v, m, rowsafe, auni):
    """Shared store with the same row-uniform fast paths as ``_lds``."""
    batch = w.batch
    device = batch.device
    itemsize = p.itemsize
    if v.dtype != p.np_dtype:
        v = v.astype(p.np_dtype)
    uniform = auni or (a == a[0]).all()
    if uniform and (rowsafe or (m == m[0]).all()):
        f, idx0, start = _shared_row(w, a[0], m[0], itemsize, device)
        if start is not None:
            # Contiguous full-warp row (rows uniform, mrow full, so
            # every lane is active): distinct slots, distinct
            # in-row offsets — no duplicate targets to order.
            view2 = batch.smem_view2(p.np_dtype,
                                     batch.smem_row // itemsize)
            view2[w.slots, start:start + WARP] = v
            w.issue_cycles += device.issue_cost["shared"] * f
            return
        gidx = _srow_gidx(w, idx0, itemsize)
        view = batch.smem_view(p.np_dtype)
        # Row-major flattening keeps lane order within each
        # member, so duplicate addresses resolve exactly as the
        # general path.
        if m.all():
            view[gidx] = v
        else:
            view[gidx[m]] = v[m]
        w.issue_cycles += device.issue_cost["shared"] * f
        return
    size = w.ctxs[0].smem.size
    pkey = _pat_key(a, m, itemsize, size)
    hit = batch.plan.shared_pats.get(pkey)
    if hit is None:
        ref = a[0] if uniform else _lane_ref(a, m)
        if ref is not None:
            badlane, idx0, mats = _shared_cols(w, ref, itemsize,
                                               device)
            if badlane is None or not (m & badlane).any():
                factors = _shared_col_factors(w, m, mats)
                gidx = (np.where(m, idx0, 0)
                        + _srow_base(w, itemsize))
                batch.smem_view(p.np_dtype)[gidx[m]] = v[m]
                w.issue_cycles += device.issue_cost["shared"] * factors
                return
        hit = _shared_pattern(w, pkey, a, m, itemsize, size)
    factors, idx = hit
    gidx = _srow_gidx(w, idx, itemsize)
    batch.smem_view(p.np_dtype)[gidx[m]] = v[m]
    w.issue_cycles += device.issue_cost["shared"] * factors


# ---------------------------------------------------------------------
# Compiler: event list -> GangTrace.
# ---------------------------------------------------------------------

class _Compiler:
    """Lowers a recorded event stream to compiled trace ops.

    Tracks a *symbolic* interpreter state alongside code emission: the
    reconvergence stack as ``[reconv, pc, covers]`` entries and the
    scoreboard ``outstanding`` dict.  Event program counters are
    checked against the symbolic walk — any mismatch means the model
    and the interpreter disagreed, and compilation aborts rather than
    risk an unfaithful trace.
    """

    def __init__(self, plan, device, key):
        self.plan = plan
        self.instrs = plan.instrs
        self.device = device
        self.ipdom = plan.ipdom
        self.n = plan.n
        if key[0] == "d":
            # Continuation trace: entry is a deopt snapshot — the
            # exact (reconv, pc, covers) stack and scoreboard a guard
            # restores, so chained fragments re-enter mid-kernel.
            entries, out = key[1]
            self.stack = [list(e) for e in entries]
            self.out: Dict[int, str] = dict(out)
        else:
            self.stack = [[plan.n, key[0], True]]
            self.out = {}
        self.ops: List[tuple] = []
        self.sources: List[str] = []
        # Per-segment emission state.
        self.pending: List[str] = []
        self.pend_instr = 0
        self.loaded: Dict[int, str] = {}
        self.casts: Dict[tuple, str] = {}
        self.preds: Dict[int, str] = {}
        self.ems: Dict[tuple, str] = {}
        self.specials: Dict[tuple, str] = {}
        self.ns = {"np": np, "P": plan.instrs, "_zeros": _reg_zeros,
                   "_ldg": _ldg, "_stg": _stg, "_lds": _lds,
                   "_sts": _sts}
        self.dtnames: Dict[str, str] = {}
        self.nseg = 0
        self.ntmp = 0
        #: Registers statically known to carry identical member rows:
        #: written unpredicated under a covering mask from operands
        #: that are themselves row-uniform (constants, kernel params,
        #: tid-derived specials — everything but ctaid and memory).
        #: Starts empty, so values live at trace entry (mid-kernel
        #: entry points, deopt chains) are never assumed uniform.
        self.rowuni: set = set()
        #: Mask row-uniformity, one flag per stack level.  Covering
        #: masks equal the warp's lane mask, whose rows are identical
        #: by construction (one ``blockDim`` per launch, and splits
        #: copy whole rows); forks stay uniform when the branch
        #: predicate is itself row-uniform.
        self.muni: List[bool] = [bool(e[2]) for e in self.stack]

    # -- small utilities ----------------------------------------------

    def _tmp(self) -> str:
        self.ntmp += 1
        return f"v{self.ntmp}"

    def _dt(self, dtype) -> str:
        dt = np.dtype(dtype)
        name = self.dtnames.get(dt.str)
        if name is None:
            name = f"D{len(self.dtnames)}"
            self.dtnames[dt.str] = name
            self.ns[name] = dt
        return name

    def _invalidate(self, reg: int) -> None:
        self.preds.pop(reg, None)
        for k in [k for k in self.casts if k[0] == reg]:
            del self.casts[k]
        for k in [k for k in self.ems if k[0] == reg]:
            del self.ems[k]

    def _snapshot(self) -> tuple:
        """Deopt state: stack (reconv, pc, covers) + scoreboard."""
        entries = tuple((e[0], e[1], e[2]) for e in self.stack)
        return (entries, tuple(self.out.items()))

    # -- static scoreboard --------------------------------------------

    def _score_classify(self, p) -> int:
        if not self.out:
            return 0
        waited_g = waited_s = False
        for idx in p.reg_srcs:
            kind = self.out.get(idx)
            if kind == "g":
                waited_g = True
            elif kind == "s":
                waited_s = True
        if waited_g:
            self.out.clear()
            return 1
        if waited_s:
            self.out.clear()
            return 2
        return 0

    def _score_emit(self, p) -> None:
        stall = self._score_classify(p)
        if stall == 1:
            self.pending.append("w.global_stalls += 1")
        elif stall == 2:
            self.pending.append("w.shared_stalls += 1")

    # -- segment flushing ---------------------------------------------

    def _flush(self) -> None:
        if not self.pending and not self.pend_instr:
            return
        lines = self.pending
        if self.pend_instr:
            lines.append(f"w._npend += {self.pend_instr}")
        name = f"_seg{self.nseg}"
        body = "\n    ".join(lines)
        src = (f"def {name}(w, mask):\n"
               f"    R = w.regs\n"
               f"    MW = (w.M, {WARP})\n"
               f"    WV = ({WARP},)\n"
               f"    IC = w._pend\n"
               f"    {body}\n")
        code = compile(src, f"<gangtrace:{name}>", "exec")
        loc: Dict[str, object] = {}
        exec(code, self.ns, loc)
        self.ops.append((_OP_SEG, loc[name]))
        self.sources.append(src)
        self.nseg += 1
        self.pending = []
        self.pend_instr = 0
        self.loaded = {}
        self.casts = {}
        self.preds = {}
        self.ems = {}
        self.specials = {}
        self.ntmp = 0

    # -- operand emission ---------------------------------------------

    def _rd(self, desc, pc: int, slot: int) -> str:
        kind, payload, cast = desc
        if kind == "r":
            name = self.loaded.get(payload)
            if name is None:
                name = f"r{payload}"
                self.pending.append(f"{name} = R[{payload}]")
                self.pending.append(
                    f"if {name} is None: {name} = _zeros(w, {payload})")
                self.loaded[payload] = name
            if cast is None:
                return name
            if np.dtype(cast) == self.plan._reg_dtypes[payload]:
                # ``_read`` would astype to the dtype the register
                # already has — a pure copy; segments never mutate
                # operand arrays in place, so the alias is safe.
                return name
            ck = (payload, np.dtype(cast).str)
            cname = self.casts.get(ck)
            if cname is None:
                cname = self._tmp()
                self.pending.append(
                    f"{cname} = {name}.astype({self._dt(cast)})")
                self.casts[ck] = cname
            return cname
        if kind == "c":
            cn = f"K{pc}_{slot}"
            self.ns[cn] = payload
            return cn
        # Special register: always uint32 lane arrays on the warp.
        skey = (payload, None if cast is None else np.dtype(cast).str)
        sname = self.specials.get(skey)
        if sname is not None:
            return sname
        base = self.specials.get((payload, None))
        if base is None:
            base = "s_" + payload.replace(".", "_")
            self.pending.append(f"{base} = w.specials[{payload!r}]")
            self.specials[(payload, None)] = base
        if cast is not None and np.dtype(cast) != np.dtype(np.uint32):
            sname = self._tmp()
            self.pending.append(
                f"{sname} = {base}.astype({self._dt(cast)})")
            self.specials[skey] = sname
            return sname
        self.specials[skey] = base
        return base

    def _src_rowuni(self, desc) -> bool:
        """Is this operand row-uniform (identical across gang rows)?"""
        kind, payload, _ = desc
        if kind == "c":
            return True
        if kind == "r":
            return payload in self.rowuni
        # Specials: everything is one (WARP,) row broadcast to the
        # gang except the per-member block indices.
        return not payload.startswith("ctaid")

    def _src_dtype(self, desc) -> np.dtype:
        kind, payload, cast = desc
        if kind == "r":
            return (np.dtype(cast) if cast is not None
                    else self.plan._reg_dtypes[payload])
        if kind == "c":
            return payload.dtype
        return np.dtype(cast) if cast is not None else np.dtype(np.uint32)

    def _emask(self, p, covers: bool) -> Tuple[str, str]:
        """The (mask expr, covers literal) an op executes under."""
        if p.pred < 0:
            return "mask", ("True" if covers else "False")
        j = p.pred
        pn = self.preds.get(j)
        if pn is None:
            pn = f"q{j}"
            self.pending.append(f"{pn} = R[{j}]")
            self.pending.append(
                f"if {pn} is None: {pn} = np.zeros(MW, np.bool_)")
            self.preds[j] = pn
        ek = (j, p.pred_neg)
        em = self.ems.get(ek)
        if em is None:
            em = f"em{j}_{int(p.pred_neg)}"
            if p.pred_neg:
                # ``mask > q`` is ``mask & ~q`` for booleans, minus
                # the inversion temporary.
                self.pending.append(f"{em} = mask > {pn}")
            else:
                self.pending.append(f"{em} = mask & {pn}")
            self.ems[ek] = em
        return em, "False"

    # -- writes --------------------------------------------------------

    def _write(self, p, expr: str, covers: bool,
               uni: bool = False) -> None:
        v = self._tmp()
        self.pending.append(f"{v} = {expr}")
        self._write_value(p, v, covers, uni)

    def _write_value(self, p, v: str, covers: bool,
                     uni: bool = False) -> None:
        # Elementwise ops preserve row uniformity.  A full overwrite
        # of a uniform value always qualifies; a blend qualifies only
        # when mask, predicate, and the previous value are all
        # row-uniform too.
        narrow = False
        if uni and ((covers and p.pred < 0)
                    or (self.muni[-1]
                        and (p.pred < 0 or p.pred in self.rowuni)
                        and p.dst in self.rowuni)):
            self.rowuni.add(p.dst)
            narrow = covers and p.pred < 0
        else:
            self.rowuni.discard(p.dst)
        d = p.dst
        if d < 0:
            raise _CompileAbort(f"op {p.op} writes no register")
        dtn = self._dt(p.dst_dtype)
        self.pending.append(
            f"if {v}.dtype != {dtn}: {v} = {v}.astype({dtn})")
        if covers and p.pred < 0:
            if narrow:
                # Row-uniform full overwrite: keep the single-row
                # (WARP,) representation; consumers broadcast lazily.
                self.pending.append(
                    f"if {v}.ndim == 0: {v} = np.broadcast_to({v}, WV)")
            else:
                self.pending.append(
                    f"if {v}.shape != MW: {v} = np.broadcast_to({v}, MW)")
            self.pending.append(f"R[{d}] = r{d} = {v}")
        else:
            em, _ = self._emask(p, covers)
            old = self.loaded.get(d)
            if old is None:
                old = f"r{d}"
                self.pending.append(f"{old} = R[{d}]")
                self.pending.append(
                    f"if {old} is None: {old} = np.zeros(MW, {dtn})")
            self.pending.append(
                f"R[{d}] = r{d} = np.where({em}, {v}, {old})")
        self.loaded[d] = f"r{d}"
        self._invalidate(d)

    def _reload_dst(self, p) -> None:
        """Refresh the register alias after an interpreter-helper call."""
        d = p.dst
        if d < 0:
            return
        self.rowuni.discard(d)
        self.pending.append(f"r{d} = R[{d}]")
        self.loaded[d] = f"r{d}"
        self._invalidate(d)

    # -- per-op lowering ----------------------------------------------

    def _memory(self, pc: int, p, covers: bool) -> None:
        space = p.space
        if p.op in ("ld", "st") and space in ("global", "shared"):
            self._mem_inline(pc, p, covers, space)
            return
        em, ec = self._emask(p, covers)
        self.pending.append(f"w._memory(P[{pc}], {em}, {ec})")
        if p.op == "ld":
            if space in ("global", "local"):
                self.out[p.dst] = "g"
            elif space == "shared":
                self.out[p.dst] = "s"
            self._reload_dst(p)
            if space == "param" and covers and p.pred < 0:
                # Kernel parameters are launch-wide values: every
                # member row receives the same array.
                self.rowuni.add(p.dst)
        elif p.op == "atom":
            if space == "global":
                self.out.clear()
            self._reload_dst(p)

    def _local(self, desc, pc: int, slot: int) -> str:
        """Read an operand into a *local* name safe to rebind.

        Constant operands live in the generated function's globals;
        the broadcast guard lines assign to their operand name, which
        must therefore be function-local.
        """
        name = self._rd(desc, pc, slot)
        if desc[0] == "c":
            alias = self._tmp()
            self.pending.append(f"{alias} = {name}")
            name = alias
        return name

    def _addr(self, desc, pc: int) -> str:
        """Emit the address operand: ``_full(_read(src))`` as uint64."""
        name = self._local(desc, pc, 0)
        self.pending.append(
            f"if {name}.shape != MW: "
            f"{name} = np.broadcast_to({name}, MW)")
        if self._src_dtype(desc) == np.dtype(np.uint64):
            return name
        kind, payload, cast = desc
        u64 = self._dt(np.uint64)
        if kind == "r" and cast is None:
            ck = (payload, "<u8")
            cname = self.casts.get(ck)
            if cname is None:
                cname = self._tmp()
                self.pending.append(f"{cname} = {name}.astype({u64})")
                self.casts[ck] = cname
            return cname
        cname = self._tmp()
        self.pending.append(f"{cname} = {name}.astype({u64})")
        return cname

    def _mem_inline(self, pc: int, p, covers: bool,
                    space: str) -> None:
        """Lower a global/shared ld/st to a direct helper call.

        The helpers replicate the interpreter's ``_do_load`` /
        ``_do_store`` accounting statement for statement; shared ops
        additionally get the row-uniform fast path (``rowsafe`` is
        compile-time truth that the executing mask rows are uniform:
        the op runs unpredicated under the covering entry mask).
        """
        # Static address row-uniformity must be judged before _addr
        # emits (and before the store value is read): it is a property
        # of the *source* registers at this program point.
        auni = "True" if self._src_rowuni(p.srcs[0]) else "False"
        em, _ = self._emask(p, covers)
        a = self._addr(p.srcs[0], pc)
        # The execution mask is row-uniform when the stack mask is
        # and the predicate (if any) is too.
        emuni = self.muni[-1] and (p.pred < 0
                                   or p.pred in self.rowuni)
        rowsafe = "True" if emuni else "False"
        if p.op == "ld":
            v = self._tmp()
            if space == "global":
                self.pending.append(
                    f"{v} = _ldg(w, P[{pc}], {a}, {em})")
                self.out[p.dst] = "g"
            else:
                self.pending.append(
                    f"{v} = _lds(w, P[{pc}], {a}, {em}, {rowsafe}, "
                    f"{auni})")
                self.out[p.dst] = "s"
            self._write_value(p, v, covers)
            return
        val = self._local(p.srcs[1], pc, 1)
        self.pending.append(
            f"if {val}.shape != MW: "
            f"{val} = np.broadcast_to({val}, MW)")
        if space == "global":
            self.pending.append(
                f"_stg(w, P[{pc}], {a}, {val}, {em})")
        else:
            self.pending.append(
                f"_sts(w, P[{pc}], {a}, {val}, {em}, {rowsafe}, "
                f"{auni})")

    def _tex(self, pc: int, p, covers: bool) -> None:
        em, ec = self._emask(p, covers)
        self.pending.append(f"w._tex(P[{pc}], {em}, {ec})")
        self.out[p.dst] = "g"
        self._reload_dst(p)

    def _cvt(self, pc: int, p, covers: bool) -> None:
        desc = p.srcs[0]
        a = self._rd(desc, pc, 0)
        v = self._tmp()
        if p.ctype.is_integer and self._src_dtype(desc).kind == "f":
            fn = "np.rint" if (p.cmp or "").endswith(".rn") \
                else "np.trunc"
            self.pending.append(f"{v} = {fn}({a})")
            self.pending.append(
                f"{v} = np.where(np.isfinite({v}), {v}, 0.0)")
        else:
            self.pending.append(f"{v} = {a}")
        self.pending.append(
            f"{v} = {v}.astype({self._dt(p.np_dtype)})")
        self._write_value(p, v, covers, self._src_rowuni(desc))

    def _arith(self, pc: int, p, covers: bool) -> None:
        if p.cost != 0.0:
            self.pending.append(f"IC.append({p.cost!r})")
        op = p.op
        srcs = p.srcs

        def rd(i):
            return self._rd(srcs[i], pc, i)

        if op == "mov":
            expr = rd(0)
        elif op == "add":
            expr = f"({rd(0)} + {rd(1)})"
        elif op == "mul":
            expr = f"({rd(0)} * {rd(1)})"
        elif op == "sub":
            expr = f"({rd(0)} - {rd(1)})"
        elif op == "setp":
            oper = _CMP_OPERATORS.get(p.cmp)
            if oper is None:
                raise _CompileAbort(f"comparison {p.cmp!r}")
            a, b = rd(0), rd(1)
            expr = f"({a} {oper} {b})"
        elif op == "selp":
            a, b = rd(0), rd(1)
            sel = rd(2)
            expr = f"np.where({sel}, {a}, {b})"
        elif op == "cvt":
            self._cvt(pc, p, covers)
            return
        elif op in ("mad", "fma"):
            a, b = rd(0), rd(1)
            c = rd(2)
            expr = f"({a} * {b} + {c})"
        elif op in ("shl", "shr"):
            a, b = rd(0), rd(1)
            adt = self._dt(self._src_dtype(srcs[0]))
            amt = (f"({b}.astype({self._dt(np.int64)}) "
                   f"& {p.ctype.bits - 1}).astype({adt})")
            expr = f"({a} {'<<' if op == 'shl' else '>>'} {amt})"
        elif op == "mulhi":
            a, b = rd(0), rd(1)
            wdt = self._dt(np.int64 if p.ctype.signed else np.uint64)
            expr = (f"(({a}.astype({wdt}) * {b}.astype({wdt})) >> 32)"
                    f".astype({self._dt(p.np_dtype)})")
        elif op in _BINARY:
            a, b = rd(0), rd(1)
            if p.is_bool and op in ("and", "or", "xor"):
                fn = {"and": "np.logical_and", "or": "np.logical_or",
                      "xor": "np.logical_xor"}[op]
                expr = f"{fn}({a}, {b})"
            elif op in _INLINE_BINARY:
                expr = _INLINE_BINARY[op].format(a=a, b=b)
            else:
                fname = f"F{pc}"
                self.ns[fname] = _BINARY[op]
                expr = f"{fname}({a}, {b}, P[{pc}])"
        elif op in _UNARY:
            a = rd(0)
            if op == "not" and p.is_bool:
                expr = f"np.logical_not({a})"
            else:
                expr = _INLINE_UNARY[op].format(a=a)
        else:
            raise _CompileAbort(f"opcode {op!r}")
        self._write(p, expr, covers,
                    all(map(self._src_rowuni, srcs)))

    # -- event handlers ------------------------------------------------

    def _check_pc(self, pc: int, what: str) -> None:
        if pc != self.stack[-1][1]:
            raise _CompileAbort(
                f"{what} at pc {pc} but symbolic pc is "
                f"{self.stack[-1][1]}")

    def on_exec(self, pc: int, covers: bool) -> None:
        self._check_pc(pc, "exec")
        p = self.instrs[pc]
        self._score_emit(p)
        op = p.op
        if op in ("ld", "st", "atom"):
            self._memory(pc, p, covers)
        elif op == "tex":
            self._tex(pc, p, covers)
        else:
            self._arith(pc, p, covers)
        self.pend_instr += 1
        self.stack[-1][1] = pc + 1

    def on_ubra(self, pc: int) -> None:
        self._check_pc(pc, "uniform branch")
        p = self.instrs[pc]
        self._score_emit(p)
        if p.cost != 0.0:
            self.pending.append(f"IC.append({p.cost!r})")
        self.pend_instr += 1
        self.stack[-1][1] = p.target

    def on_bra(self, pc: int, kind: str) -> None:
        self._check_pc(pc, "branch")
        p = self.instrs[pc]
        state = self._snapshot()  # pre-stall scoreboard, pc at branch
        stall = self._score_classify(p)
        self._flush()
        # Guard on a statically row-uniform predicate under a
        # row-uniform mask: row 0 decides for every member at replay,
        # and failures are all-or-nothing.
        guni = self.muni[-1] and p.pred in self.rowuni
        top = self.stack[-1]
        reconv = -1
        if kind == "fall":
            top[1] = pc + 1
        elif kind == "taken":
            top[1] = p.target
        else:
            reconv = self.ipdom.get(pc, self.n)
            top[1] = reconv
            self.stack.append([reconv, pc + 1, False])
            self.stack.append([reconv, p.target, False])
            self.muni.append(guni)
            self.muni.append(guni)
        self.ops.append((_OP_BRA, p.pred, p.pred_neg, _KIND_CODE[kind],
                         reconv, pc + 1, p.target, stall, state,
                         guni))
        # Branch-retire stats open the next segment (they must only
        # apply once the guard has passed).
        if p.cost != 0.0:
            self.pending.append(f"IC.append({p.cost!r})")
        self.pend_instr += 1
        if kind == "div":
            self.pending.append("w.divergent_branches += 1")

    def on_pop(self) -> None:
        top = self.stack[-1]
        if not (top[1] == top[0] or top[1] >= self.n):
            raise _CompileAbort(f"pop at non-reconvergence pc {top[1]}")
        if len(self.stack) < 2:
            raise _CompileAbort("pop would empty the stack")
        self._flush()
        self.ops.append((_OP_POP,))
        self.stack.pop()
        self.muni.pop()

    def on_bar(self, pc: int) -> None:
        self._check_pc(pc, "barrier")
        p = self.instrs[pc]
        self._score_emit(p)
        self._flush()
        cost = p.cost or self.device.issue_cost["bar"]
        self.ops.append((_OP_BAR, cost))
        self.out.clear()
        self.stack[-1][1] = pc + 1

    def on_exit(self, pc: int) -> None:
        self._check_pc(pc, "exit")
        p = self.instrs[pc]
        state = self._snapshot()
        stall = self._score_classify(p)
        self._flush()
        self.ops.append((_OP_EXIT, stall, state))

    def on_fin(self) -> None:
        top = self.stack[-1]
        if not (top[1] == top[0] or top[1] >= self.n):
            raise _CompileAbort(f"finish at non-reconvergence pc "
                                f"{top[1]}")
        if len(self.stack) != 1:
            raise _CompileAbort("finish with a deep stack")
        self._flush()
        self.ops.append((_OP_FIN,))


def _compile(rec: _Recorder, plan, device) -> GangTrace:
    comp = _Compiler(plan, device, rec.key)
    for ev in rec.events:
        tag = ev[0]
        if tag == "x":
            comp.on_exec(ev[1], ev[2])
        elif tag == "br":
            comp.on_bra(ev[1], ev[2])
        elif tag == "ub":
            comp.on_ubra(ev[1])
        elif tag == "pop":
            comp.on_pop()
        elif tag == "bar":
            comp.on_bar(ev[1])
        elif tag == "exit":
            comp.on_exit(ev[1])
        elif tag == "fin":
            comp.on_fin()
        else:  # pragma: no cover - recorder and compiler move together
            raise _CompileAbort(f"unknown event {tag!r}")
    if not comp.ops or comp.ops[-1][0] not in (_OP_FIN, _OP_EXIT):
        raise _CompileAbort("trace has no terminal op")
    trace = GangTrace()
    trace.key = rec.key
    trace.ops = comp.ops
    trace.n_events = len(rec.events)
    trace.n_segments = comp.nseg
    trace.sources = (comp.sources
                     if os.environ.get("REPRO_TRACE_DEBUG") else None)
    return trace


# ---------------------------------------------------------------------
# Replay.
# ---------------------------------------------------------------------

def _deopt(w, state, stats) -> str:
    """Restore interpreter state at a failed guard's program point."""
    entries, out = state
    stack = w.stack
    if len(stack) != len(entries):  # pragma: no cover - structural
        raise SimError("trace deopt with inconsistent stack depth")
    for entry, (reconv, pc, covers) in zip(stack, entries):
        entry[0] = reconv
        entry[2] = pc
        entry[3] = covers
    w.outstanding = dict(out)
    w._trace = None
    w._trace_pos = 0
    stats["deopts"] += 1
    return "deopt"


def _chain(w, state, mask, lane_take, stats) -> Optional[GangTrace]:
    """Continue past a failed BRA guard with a continuation trace.

    A deopt restores *state* with the failed branch still ahead, so
    the interpreter's next step is that branch — and every fragment
    restoring the same structural state with the same member-uniform
    branch class walks the same continuation.  Key those walks as
    ``("d", state, class)``: on a hit the trace is attached (its first
    guard passes by construction, so chains always make progress —
    data-dependent loops converge by self-chaining one recorded unroll
    at a time); on a miss a recorder captures the continuation for the
    next fragment.  Mixed-class gangs stay with the interpreter, which
    splits them.
    """
    t = (mask & lane_take).any(axis=1)
    f = (mask & ~lane_take).any(axis=1)
    if (t & f).all():
        cls = "div"
    elif (t & ~f).all():
        cls = "taken"
    elif not t.any():
        cls = "fall"
    else:
        return None
    plan = w.batch.plan
    key = ("d", state, cls)
    trace = plan.traces.get(key)
    if trace is not None:
        stats["hits"] += 1
        w._trace = trace
        w._trace_pos = 0
        return trace
    stats["misses"] += 1
    if key in plan.trace_pending \
            or plan.trace_aborts.get(key, 0) >= _MAX_ABORTS:
        return None
    plan.trace_pending.add(key)
    w._rec = _Recorder(key)
    return None


def _replay(w, spawned) -> str:
    """Drive *w* through its attached trace.

    Returns ``"bar"`` (barrier reached, trace position saved),
    ``"fin"`` (warp finished), or ``"deopt"`` (state restored; the
    interpreter must run this quantum).  When only *some* members
    fail a guard, the nonconforming rows are split off into a sibling
    fragment (appended to *spawned*, deoptimized to the interpreter)
    and the conforming majority keeps replaying.
    """
    ops = w._trace.ops
    i = w._trace_pos
    stack = w.stack
    regs = w.regs
    stats = w.batch.trace_counts
    mask = stack[-1][1]
    while True:
        op = ops[i]
        tag = op[0]
        if tag == _OP_SEG:
            op[1](w, mask)
            i += 1
        elif tag == _OP_BRA:
            (_, pidx, neg, kind, reconv, fall_pc, taken_pc, stall,
             state, uni) = op
            pred = regs[pidx]
            if pred is None:
                pred = np.zeros((w.M, WARP), bool)
            # ``bad`` stays None on the conforming fast path: for
            # kinds 0/1 one elementwise op and one scalar reduction
            # prove every member conforms — ``lane_take`` itself is
            # only materialised for forks and guard failures
            # (``mask > pred`` is ``mask & ~pred`` for booleans,
            # without the inversion temporary).  When the compiler
            # proved the predicate and mask row-uniform (``uni``),
            # row 0 stands for the whole gang: the guard touches 32
            # lanes instead of M*32 and fails all-or-nothing.
            bad = None
            lane_take = None
            if uni:
                m0 = mask[0]
                p0 = pred if pred.ndim == 1 else pred[0]
                if kind == 0:
                    allbad = ((m0 > p0) if neg else (m0 & p0)).any()
                elif kind == 1:
                    allbad = ((m0 & p0) if neg else (m0 > p0)).any()
                else:
                    lane_take = ~pred if neg else pred
                    lt0 = (lane_take if lane_take.ndim == 1
                           else lane_take[0])
                    allbad = not ((m0 & lt0).any()
                                  and (m0 > lt0).any())
                if allbad:
                    if lane_take is None:
                        lane_take = ~pred if neg else pred
                    status = _deopt(w, state, stats)
                    if _chain(w, state, mask, lane_take,
                              stats) is None:
                        return status
                    ops = w._trace.ops
                    i = 0
                    continue
                if kind == 2:
                    taken = mask & lane_take
                    fall = mask & ~lane_take
            elif kind == 0:
                v = (mask > pred) if neg else (mask & pred)
                if v.any():
                    bad = v.any(axis=1)
            elif kind == 1:
                v = (mask & pred) if neg else (mask > pred)
                if v.any():
                    bad = v.any(axis=1)
            else:
                lane_take = ~pred if neg else pred
                taken = mask & lane_take
                fall = mask & ~lane_take
                v = ~(taken.any(axis=1) & fall.any(axis=1))
                if v.any():
                    bad = v
            if bad is not None:
                if lane_take is None:
                    lane_take = ~pred if neg else pred
                if bad.all():
                    status = _deopt(w, state, stats)
                    if _chain(w, state, mask, lane_take, stats) is None:
                        return status
                    ops = w._trace.ops
                    i = 0
                    continue
                # Nonconforming members leave for the interpreter
                # (or a continuation trace); the conforming rows keep
                # replaying.  ``_narrow`` rebuilds ``w.regs`` and
                # narrows stack masks in place, so refresh the loop
                # locals.
                sib = w._take(bad)
                _deopt(sib, state, stats)
                _chain(sib, state, sib.stack[-1][1],
                       lane_take if lane_take.ndim == 1
                       else lane_take[bad],
                       stats)
                spawned.append(sib)
                w._narrow(~bad)
                regs = w.regs
                mask = stack[-1][1]
                if kind == 2:
                    pred = regs[pidx]
                    if pred is None:
                        pred = np.zeros((w.M, WARP), bool)
                    lane_take = ~pred if neg else pred
                    taken = mask & lane_take
                    fall = mask & ~lane_take
            if kind == 2:
                stack.append([reconv, fall, fall_pc, False])
                stack.append([reconv, taken, taken_pc, False])
                mask = taken
            if stall == 1:
                w.global_stalls += 1
            elif stall == 2:
                w.shared_stalls += 1
            i += 1
        elif tag == _OP_POP:
            stack.pop()
            mask = stack[-1][1]
            i += 1
        elif tag == _OP_BAR:
            w.issue_cycles += op[1]
            w.instructions += 1
            w.barriers += 1
            w.outstanding.clear()
            w.at_barrier = True
            w._trace_pos = i + 1
            return "bar"
        elif tag == _OP_EXIT:
            _, stall, state = op
            full = (mask == w.lane_mask).all(axis=1)
            if not full.all():
                if not full.any():
                    return _deopt(w, state, stats)
                sib = w._take(~full)
                _deopt(sib, state, stats)
                spawned.append(sib)
                w._narrow(full)
                mask = stack[-1][1]
            if stall == 1:
                w.global_stalls += 1
            elif stall == 2:
                w.shared_stalls += 1
            w.lane_mask = w.lane_mask & ~mask
            del stack[:]
            w.finished = True
            w._trace = None
            w._trace_pos = 0
            return "fin"
        else:  # _OP_FIN
            del stack[:]
            w.finished = True
            w._trace = None
            w._trace_pos = 0
            return "fin"


# ---------------------------------------------------------------------
# Engine hooks.
# ---------------------------------------------------------------------

def quantum_enter(w, spawned) -> Optional[str]:
    """Trace hook at the top of a gang-warp quantum.

    Returns ``"bar"``/``"fin"`` when a replayed trace consumed the
    quantum, or ``None`` when the interpreter must run it (a recorder
    may have been attached as a side effect).  Fragments split off by
    failed replay guards are appended to *spawned*.
    """
    if w._trace is not None:  # resuming a replay across a barrier
        status = _replay(w, spawned)
        return None if status == "deopt" else status
    if w._rec is not None:  # recording continues across barriers
        return None
    stack = w.stack
    # Canonical entry state: depth-1 covering stack and an empty
    # scoreboard (the compile-time stall simulation starts empty).
    if len(stack) != 1 or not stack[0][3] or w.outstanding:
        return None
    plan = w.batch.plan
    stats = w.batch.trace_counts
    key = (stack[0][2], w.lane_mask[0].tobytes())
    trace = plan.traces.get(key)
    if trace is not None:
        stats["hits"] += 1
        w._trace = trace
        w._trace_pos = 0
        status = _replay(w, spawned)
        return None if status == "deopt" else status
    stats["misses"] += 1
    if key in plan.trace_pending \
            or plan.trace_aborts.get(key, 0) >= _MAX_ABORTS:
        return None
    plan.trace_pending.add(key)
    w._rec = _Recorder(key)
    return None


def abort_recording(w) -> None:
    """Drop the attached recorder; too many aborts poison the key."""
    rec = w._rec
    w._rec = None
    plan = w.batch.plan
    plan.trace_pending.discard(rec.key)
    plan.trace_aborts[rec.key] = plan.trace_aborts.get(rec.key, 0) + 1
    w.batch.trace_counts["aborts"] += 1


def finish_recording(w) -> None:
    """Compile the recorded events and publish the trace."""
    rec = w._rec
    w._rec = None
    plan = w.batch.plan
    plan.trace_pending.discard(rec.key)
    stats = w.batch.trace_counts
    try:
        trace = _compile(rec, plan, w.batch.device)
    except _CompileAbort:
        if _strict():
            raise
        plan.trace_aborts[rec.key] = _MAX_ABORTS
        stats["aborts"] += 1
        return
    except Exception:
        # A codegen defect must never take down a launch the
        # interpreter could run; poison the key and carry on.
        if _strict():
            raise
        plan.trace_aborts[rec.key] = _MAX_ABORTS
        stats["aborts"] += 1
        return
    plan.traces[rec.key] = trace
    stats["records"] += 1
