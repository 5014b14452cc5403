"""repro.faults — deterministic fault injection and resilience.

The dissertation's central contract is that a specialized kernel (SK)
is an *optional optimization* over an always-available runtime-
evaluated (RE) kernel.  This package supplies the machinery that makes
the rest of the system honor that contract under failure:

* :class:`FaultPlan` / :class:`FaultInjector` — seeded, declarative
  fault schedules over the named sites in :data:`FAULT_SITES`
  (``nvcc.compile``, ``nvcc.timeout``, ``cache.corrupt``,
  ``launch.fail``, ``launch.watchdog``, ``memory.bitflip``,
  ``memory.oom``);
* :mod:`repro.faults.hooks` — the zero-overhead-when-disabled process
  hook the compiler, caches, launcher, and engine consult;
* :class:`RetryPolicy` / :func:`retry_call` — bounded retry with
  exponential backoff and deterministic jitter;
* the typed exception ladder in :mod:`repro.faults.errors`, so every
  injected failure is diagnosable by class and fault site.
"""

from repro.faults.errors import (FAULT_SITES, CacheCorruption,
                                 CompileFault, CompileTimeout,
                                 DeadlineExceeded, DeviceOOM, ECCError,
                                 FaultError, LaunchFault, WatchdogTimeout,
                                 error_for)
from repro.faults.hooks import active, clear, injecting, install
from repro.faults.plan import FaultEvent, FaultInjector, FaultPlan
from repro.faults.retry import (RetryPolicy, default_should_retry,
                                retry_call)

__all__ = [
    "FAULT_SITES", "FaultError", "CompileFault", "CompileTimeout",
    "CacheCorruption", "LaunchFault", "WatchdogTimeout", "ECCError",
    "DeviceOOM", "DeadlineExceeded", "error_for",
    "FaultPlan", "FaultInjector", "FaultEvent",
    "install", "clear", "active", "injecting",
    "RetryPolicy", "retry_call", "default_should_retry",
]
