"""Scoped execution state: one :class:`ExecutionContext` per host.

Everything the simulator stack historically kept in module-level
globals lives here as instance state:

* the default :class:`~repro.gpusim.device.DeviceSpec` and execution
  engine selection (``serial`` / ``batched``),
* the launch-plan cache (:func:`repro.gpusim.executor.plan_for`), on
  whose plans the gang prototypes ride,
* the sampled-launch block-pick memo
  (:func:`repro.gpusim.launcher._block_indices`),
* the compiled-kernel binary cache
  (:class:`repro.gpupf.cache.KernelCache`),
* the fault injector (:mod:`repro.faults.hooks`),
* the metrics registry and optional tracer (:mod:`repro.obs`).

**Counter namespace convention.**  Counter and metric names are
dotted ``subsystem.event`` strings — ``fault.launch.fail``,
``retry.nvcc.compile``, ``sweep.cells``, ``error.SimError``,
``cache.plan_hits`` — so one flat :meth:`MetricsRegistry.snapshot`
stays greppable by prefix and collision-free across subsystems (see
GLOSSARY.md "counter namespace").  :attr:`metrics` is the only store
for the launch-plan and gang-prototype cache counts
(``cache.plan_hits`` ...); :meth:`cache_counters` is their one flat
view, keeping the historical underscore keys (``plan_hits`` ...)
because sweep delta-accounting and ``RunResult.counters`` use them
verbatim.

A process-wide *default* context backs every module-level entry point
(``fault_hooks.active()``, ``clear_plan_cache()``...): they resolve
against :func:`current_context`, which is the innermost
:func:`using_context` on this thread or else the default.  Sweeps and
worker processes build their own contexts, so two concurrent
sweeps in one process report fully independent cache counters.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import TYPE_CHECKING, Dict, Iterator, Optional, Union

from repro.faults.plan import FaultInjector, FaultPlan
from repro.obs.events import FlightRecorder
from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpusim.device import DeviceSpec

#: The execution engines a launch may name.  ``serial`` is the oracle
#: (:class:`~repro.gpusim.executor.BlockExecutor`), ``batched`` the
#: gang interpreter (:mod:`repro.gpusim.engine`) every other launch
#: runs on.
ENGINES = ("serial", "batched")

#: Environment variable naming a context's default engine when its
#: constructor is given none.  It never overrides an explicit
#: ``engine=``, so differential tests can always reach the oracle.
ENGINE_ENV = "REPRO_ENGINE"

#: The flat keys of :meth:`ExecutionContext.cache_counters`; each is
#: the registry counter ``cache.<key>``.
CACHE_COUNTERS = ("plan_hits", "plan_misses", "gang_hits", "gang_misses")


def engine_env() -> Optional[str]:
    """``REPRO_ENGINE``'s engine, or None when unset.

    A value naming no engine raises ``SimError`` listing the valid ones,
    so a stale setting fails loudly instead of being ignored.
    """
    env = os.environ.get(ENGINE_ENV)
    if env and env not in ENGINES:
        # Deferred: the gpusim package imports this module.
        from repro.gpusim.executor import SimError
        raise SimError(f"invalid {ENGINE_ENV}={env!r}; valid engines are "
                       + ", ".join(repr(e) for e in ENGINES))
    return env or None


class ExecutionContext:
    """Owns all mutable state one simulated host context needs.

    Args:
        device: default :class:`DeviceSpec` for ``GPU()`` constructed
            under this context (defaults to the Tesla C2070 model).
        engine: default execution engine for launches that do not name
            one; falls back to ``REPRO_ENGINE`` or ``"batched"``.
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
            engine or engine_env() or "batched")
        if kernel_cache is None:
            # Deferred: gpupf.cache imports faults.hooks, which resolves
            # through this module; importing it lazily keeps the package
            # import graph acyclic.
            from repro.gpupf.cache import KernelCache
            kernel_cache = KernelCache()
        self.kernel_cache = kernel_cache
        #: The kernel cache's stats when this context was built; see
        #: :meth:`metrics_snapshot`.
        self._kernel_cache_base = kernel_cache.stats()
        self.injector: Optional[FaultInjector] = injector
        #: (id(kernel_ir), device.name) -> KernelPlan (see executor).
        self.plan_cache: Dict = {}
        #: (grid3, sample_blocks) -> representative block picks.
        self.sample_cache: Dict = {}
        #: Named counters/gauges/histograms (``subsystem.event`` keys;
        #: always on — see the module docstring).  The cache counters
        #: start at zero so every snapshot lists them.
        self.metrics = MetricsRegistry()
        for key in CACHE_COUNTERS:
            self.metrics.inc(f"cache.{key}", 0)
        self.metrics.inc("cache.plan_evictions", 0)
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
                + f" (or set {ENGINE_ENV})")
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
        """Drop cached launch plans (gang prototypes ride along); the
        ``cache.*`` counters keep counting."""
        self.plan_cache.clear()
        self.sample_cache.clear()

    def cache_counters(self) -> Dict[str, int]:
        """The launch-plan and gang-prototype cache counts.

        Returns the :data:`CACHE_COUNTERS` flat keys (``plan_hits`` /
        ``plan_misses`` / ``gang_hits`` / ``gang_misses``), each read
        from the registry counter ``cache.<key>``.
        :class:`~repro.tuning.sweep.Sweeper` and ``run_request`` take
        exact deltas of this dict.
        """
        counters = self.metrics.counters("cache.")
        return {key: counters.get(f"cache.{key}", 0)
                for key in CACHE_COUNTERS}

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

    def metrics_snapshot(self) -> Dict[str, object]:
        """The registry snapshot plus the kernel cache, one taxonomy.

        Folds this context's kernel-cache traffic (``cache.kernel_hits``
        ... ``cache.kernel_evictions``) into
        :meth:`MetricsRegistry.snapshot`, whose counters already hold
        the plan/gang counts (``cache.plan_hits`` ...
        ``cache.plan_evictions``), so one dict answers every "how many"
        question about this context.  The kernel counts are deltas
        from the cache's stats when the context was built, so contexts
        that take turns with one cache (a harness run's inline cells)
        each report their own lookups.
        """
        snap = self.metrics.snapshot()
        counters = snap["counters"]
        base = self._kernel_cache_base
        for key, value in self.kernel_cache.stats().items():
            counters[f"cache.kernel_{key}"] = \
                counters.get(f"cache.kernel_{key}", 0) + value \
                - base.get(key, 0)
        return snap

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
    ``clear_plan_cache()``...) resolve here when no scoped context is
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
