"""Typed fault exceptions, one class per named fault site.

Every injected fault raises (or is reported as) one of these, so
callers can always dispatch on the *kind* of failure rather than
string-matching messages.  ``transient`` marks faults that a bounded
retry may clear (a flaky compile, a rejected launch, a detected ECC
error); non-transient faults (out-of-memory) go straight to the
caller.

This module is dependency-free on purpose: the compiler, the caches,
and the simulator all import it, and it must never import them back.
"""

from __future__ import annotations

from typing import Dict, Type


class FaultError(Exception):
    """Base class for every injected (or injected-style) fault.

    Attributes:
        site: the named fault site that produced this error.
        transient: whether a bounded retry is expected to clear it.
    """

    site: str = "fault"
    transient: bool = True

    def __init__(self, message: str = "", site: str = None):
        super().__init__(message or type(self).__name__)
        if site is not None:
            self.site = site


class CompileFault(FaultError):
    """nvcc crashed / returned garbage for one invocation."""

    site = "nvcc.compile"


class CompileTimeout(FaultError):
    """nvcc hung past its time budget and was killed."""

    site = "nvcc.timeout"


class CacheCorruption(FaultError):
    """A disk-cache entry failed integrity checks.

    Not transient: the entry is bad until quarantined and rebuilt —
    re-reading the same bytes cannot succeed.
    """

    site = "cache.corrupt"
    transient = False


class LaunchFault(FaultError):
    """The driver rejected a kernel launch (transient launch failure)."""

    site = "launch.fail"


class WatchdogTimeout(FaultError):
    """The display watchdog killed a kernel mid-execution.

    Device memory may hold partial results when this is raised; callers
    that retry must restore a pre-launch snapshot first.
    """

    site = "launch.watchdog"


class ECCError(FaultError):
    """A detected, uncorrectable ECC memory error (bit flip).

    The flipped bit is real — the injector mutates simulated device
    memory — so retries must restore a pre-launch snapshot.
    """

    site = "memory.bitflip"


class DeviceOOM(FaultError):
    """cudaMalloc failed: device out of memory.

    Not transient: the bump allocator will not free space by itself, so
    retrying the same allocation is pointless.
    """

    site = "memory.oom"
    transient = False


class DeadlineExceeded(Exception):
    """A per-request deadline expired before (or during) the work.

    Deliberately *not* a :class:`FaultError`: deadline expiry is a
    caller-imposed budget, not a device fault, and it must never be
    retried (``default_should_retry`` only retries transient
    FaultErrors).  ``site`` names where the budget ran out —
    ``"before-launch"``, ``"retry-backoff"``, ...
    """

    def __init__(self, message: str = "deadline exceeded",
                 site: str = "deadline"):
        super().__init__(message)
        self.site = site


#: Every named fault site, mapped to the exception it raises.
SITE_ERRORS: Dict[str, Type[FaultError]] = {
    cls.site: cls
    for cls in (CompileFault, CompileTimeout, CacheCorruption,
                LaunchFault, WatchdogTimeout, ECCError, DeviceOOM)
}

#: The canonical fault-site names, in documentation order.
FAULT_SITES = tuple(SITE_ERRORS)


def error_for(site: str) -> Type[FaultError]:
    """The exception class a given fault site raises."""
    try:
        return SITE_ERRORS[site]
    except KeyError:
        raise ValueError(f"unknown fault site {site!r}; expected one of "
                         f"{sorted(SITE_ERRORS)}") from None
