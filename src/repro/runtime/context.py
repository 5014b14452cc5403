"""Scoped execution state: one :class:`ExecutionContext` per host.

Everything the simulator stack historically kept in module-level
globals lives here as instance state:

* the default :class:`~repro.gpusim.device.DeviceSpec` and execution
  engine selection (``serial`` / ``batched``),
* the launch-plan cache and its hit/miss counters
  (:func:`repro.gpusim.executor.plan_for`),
* the batched engine's gang-prototype counters
  (:func:`repro.gpusim.engine.gang_cache_stats`),
* the sampled-launch block-pick memo
  (:func:`repro.gpusim.launcher._block_indices`),
* the compiled-kernel binary cache
  (:class:`repro.gpupf.cache.KernelCache`),
* the fault injector (:mod:`repro.faults.hooks`),
* the metrics registry and optional tracer (:mod:`repro.obs`) behind
  the free-form counter API (:meth:`bump`).

**Counter namespace convention.**  Free-form counter and metric names
are dotted ``subsystem.event`` strings — ``fault.launch.fail``,
``retry.nvcc.compile``, ``sweep.cells``, ``error.SimError``,
``cache.plan_hits`` — so one flat :meth:`MetricsRegistry.snapshot`
stays greppable by prefix and collision-free across subsystems (see
GLOSSARY.md "counter namespace").  :meth:`cache_counters` predates the
convention and keeps its flat underscore keys (``plan_hits`` ...)
because sweep delta-accounting and tests depend on them verbatim; the
namespaced equivalents appear under ``cache.*`` in
:meth:`metrics_snapshot`.

A process-wide *default* context backs every module-level entry point
(``fault_hooks.active()``, ``plan_cache_stats()``...): they resolve
against :func:`current_context`, which is the innermost
:func:`using_context` on this thread or else the default.  Sweeps and
worker processes build their own contexts, so two concurrent
sweeps in one process report fully independent cache/gang counters.
"""

from __future__ import annotations

import os
import threading
from collections import Counter
from contextlib import contextmanager
from typing import TYPE_CHECKING, Dict, Iterator, Optional, Union

from repro.faults.plan import FaultInjector, FaultPlan
from repro.obs.events import FlightRecorder
from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpusim.device import DeviceSpec

#: The execution engines a launch may name.  ``serial`` is the oracle,
#: ``batched`` the gang interpreter, ``traced`` the trace-JIT layered
#: on top of it (see :mod:`repro.gpusim.trace`).
ENGINES = ("serial", "batched", "traced")

#: Environment override consulted by engine resolution: setting
#: ``REPRO_ENGINE=traced`` upgrades default/``batched`` selections to
#: the trace-JIT without touching call sites.  Explicit ``serial``
#: requests are never overridden — differential tests must always be
#: able to reach the oracle.
ENGINE_ENV = "REPRO_ENGINE"

#: Per-context trace-JIT counter names (``ExecutionContext.trace_stats``).
TRACE_STAT_NAMES = ("hits", "misses", "records", "deopts", "aborts")


def _engine_env_default() -> str:
    """The engine name the environment selects when none is given."""
    return (os.environ.get(ENGINE_ENV)
            or os.environ.get("REPRO_SIM_ENGINE", "batched"))


class ExecutionContext:
    """Owns all mutable state one simulated host context needs.

    Args:
        device: default :class:`DeviceSpec` for ``GPU()`` constructed
            under this context (defaults to the Tesla C2070 model).
        engine: default execution engine for launches that do not name
            one; falls back to ``REPRO_SIM_ENGINE`` or ``"batched"``.
        kernel_cache: compiled-binary cache; a fresh private
            :class:`KernelCache` unless one is injected.
        injector: an optional pre-installed fault injector.
    """

    def __init__(self, device: Optional["DeviceSpec"] = None,
                 engine: Optional[str] = None,
                 kernel_cache=None,
                 injector: Optional[FaultInjector] = None,
                 name: str = "context"):
        self.name = name
        if device is None:
            # Deferred for the same reason as KernelCache below: the
            # gpusim package init imports engine.py, which imports this
            # module for ENGINES/current_context.
            from repro.gpusim.device import TESLA_C2070
            device = TESLA_C2070
        self.device = device
        self.engine = self._validate_engine(
            engine or _engine_env_default())
        if kernel_cache is None:
            # Deferred: gpupf.cache imports faults.hooks, which resolves
            # through this module; importing it lazily keeps the package
            # import graph acyclic.
            from repro.gpupf.cache import KernelCache
            kernel_cache = KernelCache()
        self.kernel_cache = kernel_cache
        self.injector: Optional[FaultInjector] = injector
        #: (id(kernel_ir), device.name) -> KernelPlan (see executor).
        self.plan_cache: Dict = {}
        self.plan_stats: Dict[str, int] = {"hits": 0, "misses": 0}
        #: Gang-prototype hit/miss counters (protos ride KernelPlans).
        self.gang_stats: Dict[str, int] = {"hits": 0, "misses": 0}
        #: Trace-JIT counters (compiled traces ride KernelPlans too;
        #: see repro.gpusim.trace.trace_cache_stats).
        self.trace_stats: Dict[str, int] = {
            name: 0 for name in TRACE_STAT_NAMES}
        #: (grid3, sample_blocks) -> representative block picks.
        self.sample_cache: Dict = {}
        #: Named counters/gauges/histograms (``subsystem.event`` keys;
        #: always on — see the module docstring).
        self.metrics = MetricsRegistry()
        #: Bounded flight recorder of structured events (always on,
        #: like :attr:`metrics` — recording is an O(1) deque append;
        #: see :mod:`repro.obs.events`).  Traced requests ship their
        #: event delta back on the RunResult.
        self.events = FlightRecorder(capacity=256, origin=name)
        #: Structured span recorder; None = tracing off (the
        #: zero-overhead sentinel, like ``injector``).  Hot paths must
        #: only ever do ``if ctx.tracer is not None:``.
        self.tracer: Optional["Tracer"] = None
        #: Per-request deadline as a ``time.monotonic()`` timestamp, or
        #: None (unbounded).  Set by the serve worker (or any caller)
        #: around one evaluation; the compile/launch retry paths pass
        #: it into :func:`repro.faults.retry.retry_call`, which aborts
        #: with :class:`~repro.faults.errors.DeadlineExceeded` rather
        #: than backing off past it.
        self.deadline: Optional[float] = None
        self._fault_lock = threading.Lock()

    # -- engine selection ----------------------------------------------

    @staticmethod
    def _validate_engine(name: str) -> str:
        if name not in ENGINES:
            raise ValueError(
                f"unknown execution engine {name!r}; valid engines are "
                + ", ".join(repr(e) for e in ENGINES)
                + " (or set the REPRO_ENGINE environment variable, e.g. "
                  "REPRO_ENGINE=traced, to upgrade defaults)")
        return name

    def set_engine(self, name: str) -> str:
        """Set this context's default engine; returns the previous."""
        previous = self.engine
        self.engine = self._validate_engine(name)
        return previous

    # -- fault injection ------------------------------------------------

    def install_faults(self, plan: Union[FaultPlan, FaultInjector]
                       ) -> FaultInjector:
        """Install *plan* on this context; returns the live injector.

        Exactly one injector may be active per context — nested
        installs are a test bug and raise immediately.
        """
        injector = plan if isinstance(plan, FaultInjector) \
            else FaultInjector(plan)
        with self._fault_lock:
            if self.injector is not None:
                raise RuntimeError(
                    "fault injection is already active on this context; "
                    "clear_faults() the current injector first")
            self.injector = injector
        return injector

    def clear_faults(self) -> None:
        """Remove the active injector (idempotent)."""
        with self._fault_lock:
            self.injector = None

    @contextmanager
    def injecting(self, plan: Union[FaultPlan, FaultInjector]
                  ) -> Iterator[FaultInjector]:
        """Install *plan* for the dynamic extent; always clears."""
        injector = self.install_faults(plan)
        try:
            yield injector
        finally:
            self.clear_faults()

    # -- deadlines -------------------------------------------------------

    def deadline_remaining(self, clock=None) -> Optional[float]:
        """Seconds until :attr:`deadline`, or None when unbounded."""
        if self.deadline is None:
            return None
        import time as _time
        return self.deadline - (clock or _time.monotonic)()

    def deadline_expired(self, clock=None) -> bool:
        """True when a deadline is set and already in the past."""
        remaining = self.deadline_remaining(clock)
        return remaining is not None and remaining <= 0

    @contextmanager
    def deadline_scope(self, deadline: Optional[float]
                       ) -> Iterator["ExecutionContext"]:
        """Set :attr:`deadline` for the dynamic extent; always restores."""
        previous = self.deadline
        self.deadline = deadline
        try:
            yield self
        finally:
            self.deadline = previous

    # -- cache maintenance ----------------------------------------------

    def clear_plan_cache(self) -> None:
        """Drop cached launch plans (gang prototypes ride along)."""
        self.plan_cache.clear()
        self.sample_cache.clear()

    def cache_counters(self) -> Dict[str, int]:
        """Plan/gang cache counters for exact delta accounting.

        Returns flat keys ``plan_hits`` / ``plan_misses`` /
        ``gang_hits`` / ``gang_misses`` / ``trace_hits`` /
        ``trace_misses`` / ``trace_records`` / ``trace_deopts`` /
        ``trace_aborts`` — historical underscore names,
        NOT the dotted ``subsystem.event`` convention, because
        :class:`~repro.tuning.sweep.Sweeper` delta-accounting and its
        tests compare these dicts verbatim.  The namespaced ``cache.*``
        spellings live in :meth:`metrics_snapshot`.
        """
        counters = {"plan_hits": self.plan_stats["hits"],
                    "plan_misses": self.plan_stats["misses"],
                    "gang_hits": self.gang_stats["hits"],
                    "gang_misses": self.gang_stats["misses"]}
        for name in TRACE_STAT_NAMES:
            counters[f"trace_{name}"] = self.trace_stats[name]
        return counters

    # -- observability ---------------------------------------------------

    def enable_tracing(self, name: Optional[str] = None) -> "Tracer":
        """Attach (or return) this context's :class:`Tracer`.

        Idempotent: a second call returns the existing tracer so
        nested ``trace=True`` layers (harness inside sweep inside
        pipeline) share one span tree.
        """
        if self.tracer is None:
            from repro.obs.trace import Tracer
            self.tracer = Tracer(name or f"{self.name}")
        return self.tracer

    def disable_tracing(self) -> None:
        """Detach the tracer (idempotent); recorded spans are dropped."""
        self.tracer = None

    def bump(self, counter: str, n: int = 1) -> int:
        """Increment a named per-context counter; returns the new value.

        *counter* should follow the ``subsystem.event`` namespace
        convention (module docstring).  Delegates to
        :attr:`metrics` — ``bump`` is the legacy spelling of
        ``ctx.metrics.inc``.
        """
        self.metrics.inc(counter, n)
        return self.metrics.counter(counter)

    @property
    def counters(self) -> Counter:
        """Legacy view of the registry's counters (read-only copy)."""
        return Counter(self.metrics.counters())

    def metrics_snapshot(self) -> Dict[str, object]:
        """The registry snapshot plus the cache counters, one taxonomy.

        Merges :meth:`MetricsRegistry.snapshot` with the plan/gang
        cache counters (as ``cache.plan_hits`` ...) and the kernel
        cache's stats (``cache.kernel_hits`` ...), so one dict answers
        every "how many" question about this context.
        """
        snap = self.metrics.snapshot()
        counters = snap["counters"]
        for key, value in self.cache_counters().items():
            counters[f"cache.{key}"] = counters.get(f"cache.{key}", 0) \
                + value
        for key, value in self.kernel_cache.stats().items():
            counters[f"cache.kernel_{key}"] = \
                counters.get(f"cache.kernel_{key}", 0) + value
        return snap

    def stats(self) -> Dict[str, object]:
        """Everything countable about this context, namespaced."""
        return {
            "name": self.name,
            "device": self.device.name,
            "engine": self.engine,
            "plan": dict(self.plan_stats, size=len(self.plan_cache)),
            "gang": dict(self.gang_stats),
            "trace": dict(self.trace_stats),
            "kernel_cache": self.kernel_cache.stats(),
            "counters": self.metrics.counters(),
        }

    # -- activation ------------------------------------------------------

    def activate(self):
        """``with ctx.activate():`` — make this the current context."""
        return using_context(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ExecutionContext {self.name!r} device={self.device.name}"
                f" engine={self.engine}>")


# ---------------------------------------------------------------------
# Default / current context plumbing.
# ---------------------------------------------------------------------

_DEFAULT: Optional[ExecutionContext] = None
_DEFAULT_LOCK = threading.Lock()
_TLS = threading.local()


def default_context() -> ExecutionContext:
    """The lazily-created process-wide default context.

    Module-level entry points (``fault_hooks.active()``,
    ``plan_cache_stats()``...) resolve here when no scoped context is
    active on the calling thread.
    """
    global _DEFAULT
    if _DEFAULT is None:
        with _DEFAULT_LOCK:
            if _DEFAULT is None:
                _DEFAULT = ExecutionContext(name="default")
    return _DEFAULT


def current_context() -> ExecutionContext:
    """The innermost activated context on this thread, or the default."""
    stack = getattr(_TLS, "stack", None)
    if stack:
        return stack[-1]
    return default_context()


@contextmanager
def using_context(ctx: ExecutionContext) -> Iterator[ExecutionContext]:
    """Make *ctx* the current context for the dynamic extent.

    Scoping is per-thread: worker threads of a sweep activate the
    sweep's context without disturbing other threads.
    """
    stack = getattr(_TLS, "stack", None)
    if stack is None:
        stack = _TLS.stack = []
    stack.append(ctx)
    try:
        yield ctx
    finally:
        stack.pop()
