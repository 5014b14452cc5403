"""Memory-transaction models: global coalescing and shared banks.

These per-compute-capability rules are the reason kernel configuration
matters so much on real hardware, and they drive the simulator's timing:

* **CC 1.2/1.3** coalesce per *half-warp*: the hardware issues one
  transaction per distinct aligned 128-byte segment touched (64 B for
  2-byte, 32 B for 1-byte accesses).
* **CC 2.x+** issues one transaction per distinct 128-byte cache line
  touched by the full warp.
* **Shared memory** has 16 banks serviced per half-warp on CC 1.x and
  32 banks per warp on CC 2.x+; the access replays once per additional
  distinct word mapped to the same bank (same-word access broadcasts).

Which rule applies is *not* decided here: every generation-conditional
(full-warp vs half-warp grouping, segment sizes, transaction billing)
is read off the device's declarative capability model
(:class:`~repro.gpusim.device.DeviceCaps`), so a new device generation
changes this module's behavior without changing its code.
"""

from __future__ import annotations

import numpy as np

from repro.gpusim.device import DeviceSpec


def global_transactions(addrs: np.ndarray, mask: np.ndarray,
                        itemsize: int, device: DeviceSpec) -> int:
    """Number of DRAM transactions for one warp-wide access.

    Args:
        addrs: per-lane byte addresses (device addresses).
        mask: active lanes.
        itemsize: access size in bytes.
        device: target device (selects the CC rule set).
    """
    if not mask.any():
        return 0
    segment = device.coalesce_segment_bytes(itemsize)
    if device.caps.full_warp_coalescing:
        active = addrs[mask].astype(np.int64)
        lines = active // segment
        if itemsize > 1:
            lines = np.concatenate([lines,
                                    (active + itemsize - 1) // segment])
        return int(np.unique(lines).size)
    # Half-warp rule (CC 1.x): independent segments per lane group.
    lanes = np.nonzero(mask)[0]
    total = 0
    for lo, hi in device.coalesce_groups():
        half = lanes[(lanes >= lo) & (lanes < hi)]
        if half.size == 0:
            continue
        a = addrs[half].astype(np.int64)
        segs = a // segment
        if itemsize > 1:
            segs = np.concatenate([segs, (a + itemsize - 1) // segment])
        total += int(np.unique(segs).size)
    return total


_SENTINEL = np.iinfo(np.int64).max


def _row_distinct(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Distinct masked values per row of a 2D array (sort + compare).

    Masked-off lanes sort last as one sentinel run, so a row holds
    ``1 + changes`` runs, minus one when that run is present.
    """
    v = np.where(mask, values, _SENTINEL)
    v.sort(axis=1)
    changes = np.add.reduce(v[:, 1:] != v[:, :-1], axis=1, dtype=np.int64)
    return changes + (v[:, -1] != _SENTINEL)


def global_transactions_batch(addrs: np.ndarray, mask: np.ndarray,
                              itemsize: int, device: DeviceSpec,
                              aligned: bool = False) -> np.ndarray:
    """Per-member DRAM transactions for a gang of warp accesses.

    The batched-engine form of :func:`global_transactions`: *addrs*
    and *mask* are ``(M, 32)`` arrays (one row per gang member), and
    the result is the ``(M,)`` vector of transaction counts the scalar
    oracle would return row by row.  Both compute-capability rules are
    evaluated with row-wise sorts — no Python loop over members.

    ``aligned=True`` promises every active address is a multiple of
    *itemsize*.  Every segment size is a multiple of every item size,
    so no access then straddles a segment and only the first byte's
    segment is counted.
    """
    a = addrs.astype(np.int64, copy=False)
    segment = device.coalesce_segment_bytes(itemsize)
    straddles = itemsize > 1 and not (aligned
                                      and segment % itemsize == 0)
    if device.caps.full_warp_coalescing:
        # CC 2.x+: distinct cache lines per full warp.
        lines = a // segment
        if straddles:
            lines = np.concatenate(
                [lines, (a + itemsize - 1) // segment], axis=1)
            mask = np.concatenate([mask, mask], axis=1)
        return _row_distinct(lines, mask)
    # CC 1.x: per half-warp, one transaction per distinct aligned
    # segment (32 B for 1-byte, 64 B for 2-byte, 128 B otherwise).
    total = np.zeros(len(a), np.int64)
    for lo, hi in device.coalesce_groups():
        half = slice(lo, hi)
        segs = a[:, half] // segment
        m = mask[:, half]
        if straddles:
            segs = np.concatenate(
                [segs, (a[:, half] + itemsize - 1) // segment], axis=1)
            m = np.concatenate([m, m], axis=1)
        total += _row_distinct(segs, m)
    return total


def launch_transactions(stats) -> "tuple[int, int]":
    """Total (DRAM transactions, DRAM bytes) over a launch's blocks.

    Sums the coalescing model's per-warp counters across a sequence of
    :class:`~repro.gpusim.executor.BlockStats` — the aggregate a
    :class:`~repro.obs.profile.LaunchProfile` reports as the launch's
    coalesced-traffic totals.
    """
    transactions = 0
    nbytes = 0
    for block in stats:
        transactions += block.mem_transactions
        nbytes += block.mem_bytes
    return transactions, nbytes


def shared_conflict_factor(addrs: np.ndarray, mask: np.ndarray,
                           itemsize: int, device: DeviceSpec) -> int:
    """Replay factor for one warp-wide shared-memory access (≥ 1).

    The factor is the maximum, over banks, of the number of *distinct*
    32-bit words that the active lanes address within that bank; lanes
    reading the same word broadcast.  CC 1.x services half-warps
    against 16 banks; CC 2.x full warps against 32 banks.
    """
    if not mask.any():
        return 1
    banks = device.shared_banks
    worst = 1
    spans = device.shared_groups()
    if len(spans) == 1:
        groups = (addrs[mask],)
    else:
        lanes = np.nonzero(mask)[0]
        groups = tuple(addrs[lanes[(lanes >= lo) & (lanes < hi)]]
                       for lo, hi in spans)
    for group in groups:
        if group.size == 0:
            continue
        words = np.unique(group.astype(np.int64) // 4)
        counts = np.bincount(words % banks, minlength=1)
        worst = max(worst, int(counts.max()))
    return worst
