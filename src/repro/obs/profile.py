"""Per-launch kernel profiles.

A :class:`LaunchProfile` is the micro-profiling record the dissertation
uses to justify each specialization: launch geometry, occupancy and its
limiter, register/shared-memory pressure, the engine's event counters
(coalesced DRAM transactions, shared/global stalls, divergence, atomic
traffic), and the Hong-&-Kim-style modeled time from
:mod:`repro.gpusim.timing`.  One is built per traced launch by
:meth:`repro.gpusim.GPU.launch` and attached both to the launch span
(``attrs``) and to ``tracer.profiles``.

Profiles are frozen dataclasses of plain scalars: picklable (they ride
:class:`~repro.apps.harness.RunResult` back from worker processes)
and JSON-friendly via :meth:`attrs`.  This module deliberately imports
nothing from the rest of :mod:`repro`; the launch result and kernel are
consumed duck-typed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, Tuple

__all__ = ["LaunchProfile"]


@dataclass(frozen=True)
class LaunchProfile:
    """Everything the timing model knew about one kernel launch."""

    kernel: str
    grid: Tuple[int, int, int]
    block: Tuple[int, int, int]
    blocks_executed: int
    total_blocks: int
    #: Static kernel pressure (what the occupancy calculator consumed).
    reg_count: int
    shared_bytes: int
    #: Achieved occupancy and what capped it.
    occupancy: float
    blocks_per_sm: int
    occupancy_limit: str
    #: Event counters summed over the executed blocks' warps.
    instructions: int
    mem_transactions: int
    mem_bytes: int
    divergent_branches: int
    global_stalls: int
    shared_stalls: int
    barriers: int
    atomics: int
    #: Modeled time (extrapolated over the grid when sampled).
    cycles: float
    seconds: float
    bound: str
    engine: str

    @classmethod
    def from_launch(cls, kernel: Any, result: Any,
                    engine: str) -> "LaunchProfile":
        """Build a profile from a :class:`CompiledKernel` and its
        :class:`~repro.gpusim.launcher.LaunchResult`."""
        timing = result.timing
        occ = result.occupancy
        total = result.grid[0] * result.grid[1] * result.grid[2]
        counts = {"instructions": 0, "mem_transactions": 0,
                  "mem_bytes": 0, "divergent_branches": 0,
                  "global_stalls": 0, "shared_stalls": 0,
                  "barriers": 0, "atomics": 0}
        for block in result.stats:
            for warp in block.warps:
                for name in counts:
                    counts[name] += getattr(warp, name)
        return cls(kernel=kernel.name, grid=tuple(result.grid),
                   block=tuple(result.block),
                   blocks_executed=result.blocks_executed,
                   total_blocks=total,
                   reg_count=kernel.reg_count,
                   shared_bytes=kernel.shared_bytes,
                   occupancy=timing.occupancy_fraction,
                   blocks_per_sm=timing.blocks_per_sm,
                   occupancy_limit=occ.limited_by,
                   cycles=timing.cycles, seconds=timing.seconds,
                   bound=timing.bound, engine=engine, **counts)

    def attrs(self) -> Dict[str, Any]:
        """Flat JSON-scalar dict for span attrs / metrics export."""
        d = asdict(self)
        d["grid"] = "x".join(str(v) for v in self.grid)
        d["block"] = "x".join(str(v) for v in self.block)
        return d
