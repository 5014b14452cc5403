"""Simulated device memories.

Global memory is one flat byte buffer with a bump allocator; addresses
handed to kernels are plain integers, so specialized kernels can bake
pointer values in as immediates exactly as the dissertation does
(``PTR_IN``/``PTR_OUT`` in Listing 4.2).  Shared, constant, and local
memories are separate small buffers with the same typed-view access
discipline.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np


class MemoryError_(Exception):
    """Out-of-bounds, misaligned, or exhausted-memory access."""


class _Epoch:
    """Copy-on-write dirty-tracking state for one resilient launch."""

    __slots__ = ("intervals", "starts", "ends", "saved", "wild",
                 "cursor", "allocations")

    def __init__(self, intervals, cursor, allocations):
        self.intervals = intervals  # sorted (start, end, addr)
        self.starts = np.array([iv[0] for iv in intervals], np.int64)
        self.ends = np.array([iv[1] for iv in intervals], np.int64)
        #: Allocation pre-images, saved lazily at first touch.
        self.saved: Dict[int, np.ndarray] = {}
        #: Pre-images of touched bytes outside any allocation.
        self.wild: List[Tuple[int, np.ndarray]] = []
        self.cursor = cursor
        self.allocations = allocations


class GlobalMemory:
    """The device's DRAM.

    Addresses start at a non-zero base so that a stray zero pointer
    faults instead of silently reading allocation zero.
    """

    _BASE = 0x0200000000  # mirrors the 0x2xxxxxxxx pointers of Appendix D

    def __init__(self, size: int = 256 * 1024 * 1024):
        self.size = size
        self.data = np.zeros(size, dtype=np.uint8)
        self._cursor = 0
        self._views: Dict[object, np.ndarray] = {}
        self.allocations: Dict[int, int] = {}
        #: Armed by :meth:`begin_epoch`; the engines consult this
        #: before every global store/atomic, so ``None`` keeps the
        #: common (non-resilient) path to one attribute test.
        self._epoch: Optional[_Epoch] = None

    def alloc(self, nbytes: int, align: int = 256) -> int:
        """cudaMalloc: returns a device address."""
        if nbytes <= 0:
            raise MemoryError_(f"bad allocation size {nbytes}")
        start = (self._cursor + align - 1) // align * align
        if start + nbytes > self.size:
            raise MemoryError_(
                f"device out of memory: wanted {nbytes} bytes, "
                f"{self.size - self._cursor} free")
        self._cursor = start + nbytes
        addr = self._BASE + start
        self.allocations[addr] = nbytes
        return addr

    def free(self, addr: int) -> None:
        """cudaFree.  The bump allocator does not reuse space."""
        self.allocations.pop(addr, None)

    @property
    def allocated_bytes(self) -> int:
        """Bytes under the bump cursor (the live device footprint)."""
        return self._cursor

    def snapshot(self):
        """Copy-out of every allocated byte plus allocator state.

        The resilience layer snapshots before a risky launch so a
        watchdog kill or detected ECC error mid-execution can be rolled
        back and the launch retried from a bit-identical starting
        state.
        """
        return (self.data[:self._cursor].copy(), self._cursor,
                dict(self.allocations))

    def restore(self, snap) -> None:
        """Roll back to a :meth:`snapshot` (never reallocates views)."""
        data, cursor, allocations = snap
        # Writes made past the snapshot's cursor (by allocations that
        # postdate it) are wiped along with the rollback.
        self.data[cursor:self._cursor] = 0
        self.data[:cursor] = data
        self._cursor = cursor
        self.allocations = dict(allocations)

    def reset(self) -> None:
        """Release everything (between benchmark problems)."""
        self._cursor = 0
        self.allocations.clear()
        self.data[:] = 0
        self._epoch = None

    # -- per-allocation dirty tracking -----------------------------

    def begin_epoch(self) -> None:
        """Arm copy-on-write dirty tracking for a resilient launch.

        While armed, the engines note every global store/atomic (and
        the fault injector notes ECC bit flips) *before* mutating
        DRAM; the first touch of each allocation saves that
        allocation's pre-image, and touches outside any allocation
        save just the touched byte range.  :meth:`rollback_epoch`
        then restores only what the kernel actually wrote, so launch
        retries stop paying a whole-heap :meth:`snapshot` copy.
        """
        intervals = sorted(
            (addr - self._BASE, addr - self._BASE + nbytes, addr)
            for addr, nbytes in self.allocations.items())
        self._epoch = _Epoch(intervals, self._cursor,
                             dict(self.allocations))

    def note_range(self, lo: int, hi: int) -> None:
        """Record that raw byte offsets ``[lo, hi)`` will change."""
        epoch = self._epoch
        if epoch is None or hi <= lo:
            return
        intervals = epoch.intervals
        idx = max(np.searchsorted(epoch.starts, lo, side="right") - 1,
                  0)
        pos = lo
        while pos < hi:
            if idx < len(intervals):
                start, end, addr = intervals[idx]
                if pos >= end:
                    idx += 1
                    continue
                if pos >= start:
                    if addr not in epoch.saved:
                        epoch.saved[addr] = self.data[start:end].copy()
                    pos = end
                    idx += 1
                    continue
                gap_hi = min(hi, start)
            else:
                gap_hi = hi
            epoch.wild.append((pos, self.data[pos:gap_hi].copy()))
            pos = gap_hi

    def note_lanes(self, addrs: np.ndarray, mask: np.ndarray,
                   itemsize: int) -> None:
        """Note a lane scatter (device-address array) before it lands.

        Exact per-allocation resolution: only allocations an active
        lane actually targets are saved, so a scatter touching two
        buffers does not drag everything between them into the epoch.
        """
        epoch = self._epoch
        if epoch is None:
            return
        offs = addrs[mask].astype(np.int64) - self._BASE
        if not offs.size:
            return
        if not epoch.starts.size:
            for off in np.unique(offs):
                self.note_range(int(off), int(off) + itemsize)
            return
        pos = np.searchsorted(epoch.starts, offs, side="right") - 1
        safe = np.maximum(pos, 0)
        inside = (pos >= 0) & (offs < epoch.ends[safe])
        for k in np.unique(safe[inside]):
            start, end, addr = epoch.intervals[k]
            if addr not in epoch.saved:
                epoch.saved[addr] = self.data[start:end].copy()
        # Lanes outside every allocation, or items straddling an
        # allocation's tail, fall back to exact byte ranges.
        loose = ~inside
        loose |= inside & (offs + itemsize > epoch.ends[safe])
        if loose.any():
            for off in np.unique(offs[loose]):
                self.note_range(int(off), int(off) + itemsize)

    def rollback_epoch(self) -> None:
        """Undo every noted write; the epoch stays armed for a retry."""
        epoch = self._epoch
        if epoch is None:
            raise MemoryError_("rollback_epoch without begin_epoch")
        for addr, pre in epoch.saved.items():
            off = addr - self._BASE
            self.data[off:off + pre.size] = pre
        # Wild ranges may overlap; reverse order lands the oldest
        # (pre-epoch) bytes last.
        for lo, pre in reversed(epoch.wild):
            self.data[lo:lo + pre.size] = pre
        # Allocations made since the epoch began roll back with it.
        self.data[epoch.cursor:self._cursor] = 0
        self._cursor = epoch.cursor
        self.allocations = dict(epoch.allocations)
        epoch.saved.clear()
        del epoch.wild[:]

    def end_epoch(self) -> Dict[str, int]:
        """Disarm dirty tracking; returns what the epoch dirtied."""
        epoch = self._epoch
        self._epoch = None
        if epoch is None:
            return {"allocs": 0, "wild": 0}
        return {"allocs": len(epoch.saved), "wild": len(epoch.wild)}

    def _offset(self, addr: int, nbytes: int) -> int:
        offset = addr - self._BASE
        if offset < 0 or offset + nbytes > self.size:
            raise MemoryError_(
                f"global access out of bounds: addr=0x{addr:x} "
                f"({nbytes} bytes)")
        return offset

    def write(self, addr: int, array: np.ndarray) -> None:
        """cudaMemcpy host→device."""
        raw = np.ascontiguousarray(array).view(np.uint8).reshape(-1)
        offset = self._offset(addr, raw.size)
        self.data[offset : offset + raw.size] = raw

    def read(self, addr: int, dtype, count: int) -> np.ndarray:
        """cudaMemcpy device→host."""
        dtype = np.dtype(dtype)
        nbytes = dtype.itemsize * count
        offset = self._offset(addr, nbytes)
        return self.data[offset : offset + nbytes].view(dtype).copy()

    def view(self, dtype) -> np.ndarray:
        """A typed full-buffer view for gather/scatter lane access.

        Memoized by the *dtype* argument itself: two spellings of one
        dtype just hold two identical views.
        """
        view = self._views.get(dtype)
        if view is None:
            view = self._views[dtype] = self.data.view(dtype)
        return view

    def element_index(self, addrs: np.ndarray, itemsize: int,
                      mask: np.ndarray) -> np.ndarray:
        """Convert lane byte addresses to element indices, validated."""
        offsets = addrs.astype(np.int64) - self._BASE
        active = offsets[mask]
        if active.size:
            if (active < 0).any() or \
                    (active + itemsize > self.size).any():
                bad = int(addrs[mask][((active < 0)
                                       | (active + itemsize
                                          > self.size)).argmax()])
                raise MemoryError_(
                    f"global access out of bounds: addr=0x{bad:x}")
            if (active % itemsize).any():
                raise MemoryError_(
                    "misaligned global access "
                    f"(itemsize {itemsize})")
        safe = np.where(mask, offsets, 0)
        return safe // itemsize


class FlatMemory:
    """Shared / constant / local memory: a small flat byte buffer."""

    def __init__(self, size: int, label: str):
        self.size = size
        self.label = label
        self.data = np.zeros(size, dtype=np.uint8)
        self._views: Dict[object, np.ndarray] = {}

    def view(self, dtype) -> np.ndarray:
        view = self._views.get(dtype)
        if view is None:
            view = self._views[dtype] = self.data.view(dtype)
        return view

    def write(self, offset: int, array: np.ndarray) -> None:
        raw = np.ascontiguousarray(array).view(np.uint8).reshape(-1)
        if offset < 0 or offset + raw.size > self.size:
            raise MemoryError_(
                f"{self.label} write out of bounds at {offset}")
        self.data[offset : offset + raw.size] = raw

    def read(self, offset: int, dtype, count: int) -> np.ndarray:
        dtype = np.dtype(dtype)
        nbytes = dtype.itemsize * count
        if offset < 0 or offset + nbytes > self.size:
            raise MemoryError_(
                f"{self.label} read out of bounds at {offset}")
        return self.data[offset : offset + nbytes].view(dtype).copy()

    def element_index(self, addrs: np.ndarray, itemsize: int,
                      mask: np.ndarray) -> np.ndarray:
        offsets = addrs.astype(np.int64)
        active = offsets[mask]
        if active.size:
            if (active < 0).any() or \
                    (active + itemsize > self.size).any():
                raise MemoryError_(
                    f"{self.label} access out of bounds "
                    f"(size {self.size})")
            if (active % itemsize).any():
                raise MemoryError_(
                    f"misaligned {self.label} access")
        safe = np.where(mask, offsets, 0)
        return safe // itemsize
