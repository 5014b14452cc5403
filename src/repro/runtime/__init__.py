"""repro.runtime — host-context ownership of execution state.

The dissertation's host framework assumes one context owns the
compiler, the binary cache, and the device (§4.4); this package makes
that ownership explicit.  :class:`ExecutionContext` scopes everything
the simulator stack used to keep in module globals — device spec,
engine selection, launch-plan/gang caches and their counters, the
kernel binary cache, the fault injector, and a per-context stats
registry — so concurrent sweeps (threads *or* processes) get fully
independent state.

:class:`DeviceFleet` shards one workload across a fleet of simulated
GPUs: placement policies and modeled accounting over the serve
subsystem's supervised worker pool, with bit-identical result merge
(DESIGN.md §12).
"""

from repro.runtime.context import (ENGINES, ExecutionContext,
                                   current_context, default_context,
                                   using_context)
from repro.runtime.fleet import (PLACEMENTS, DeviceFleet, FleetError,
                                 FleetMember, FleetPlacementError)

__all__ = ["ExecutionContext", "current_context", "default_context",
           "using_context", "ENGINES", "DeviceFleet", "FleetMember",
           "FleetError", "FleetPlacementError", "PLACEMENTS"]
