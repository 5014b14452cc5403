"""Context-scoped structured tracing.

A :class:`Tracer` records :class:`Span` objects — named, categorised
intervals with monotonic start/duration, free-form attributes, and a
parent link — around the stack's phases: ``nvcc`` compiles, kernel-cache
lookups, launch-plan builds, kernel launches, engine gang batches, and
pipeline actions.  Instantaneous :meth:`Tracer.event` marks record
fault/retry/degradation moments from the resilience ladder.

Ownership and overhead follow the fault-hook pattern
(:mod:`repro.faults.hooks`): the tracer lives on the
:class:`~repro.runtime.context.ExecutionContext` as ``ctx.tracer`` and
is ``None`` unless a caller opted in via
:meth:`~repro.runtime.context.ExecutionContext.enable_tracing` (or a
``trace=True`` switch on :class:`~repro.gpupf.pipeline.Pipeline`,
:class:`~repro.apps.harness.RunRequest`, or
:class:`~repro.tuning.sweep.Sweeper`).  Instrumented hot paths pay one
attribute load and a ``None`` test when tracing is off — no tracer or
span objects are ever allocated on the disabled path (asserted by
``tests/test_obs.py``).

Parenting is per-thread: each thread of a traced context nests its own
spans, so concurrent threads produce disjoint, well-formed subtrees.
:meth:`Tracer.to_dict` exports a picklable form that survives the
worker-process boundary; :meth:`Tracer.graft` folds
such an export back in as a child subtree (per-cell sweep aggregation).
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

__all__ = ["Span", "TraceContext", "Tracer", "current_tracer"]


@dataclass(frozen=True)
class TraceContext:
    """Cross-process trace propagation token.

    A supervisor stamps one onto each dispatched
    :class:`~repro.apps.harness.RunRequest` (``request.trace_ctx``);
    the worker-side :func:`~repro.apps.harness.run_request` sees it,
    enables tracing, names the worker tracer after ``trace_id``, and
    ships the span tree back on the result — where the supervisor
    grafts it under its own span for the request, yielding one
    end-to-end tree (admission → queue → worker → launch) in a single
    Chrome/Perfetto export.

    ``trace_id`` identifies the distributed trace (the supervisor's
    request id works); ``parent`` labels the supervisor-side span the
    shipped subtree will be grafted under; ``client`` carries the
    requesting client's name for attribution attrs.
    """

    trace_id: str
    parent: str = ""
    client: str = ""


class Span:
    """One traced interval (or instantaneous event, ``duration == 0``).

    ``start`` is seconds since the owning tracer's epoch
    (``time.perf_counter`` based, monotonic); ``duration`` is ``None``
    while the span is open and seconds once closed.  ``parent`` is the
    ``sid`` of the enclosing span on the same thread, or ``None`` for
    roots.  ``attrs`` values should stay JSON-scalar so every exporter
    can carry them verbatim.
    """

    __slots__ = ("sid", "parent", "name", "cat", "start", "duration",
                 "tid", "attrs")

    def __init__(self, sid: int, parent: Optional[int], name: str,
                 cat: str, start: float, tid: int,
                 attrs: Dict[str, Any]):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.cat = cat
        self.start = start
        self.duration: Optional[float] = None
        self.tid = tid
        self.attrs = attrs

    def to_dict(self) -> Dict[str, Any]:
        return {"sid": self.sid, "parent": self.parent,
                "name": self.name, "cat": self.cat,
                "start": self.start,
                "dur": 0.0 if self.duration is None else self.duration,
                "tid": self.tid, "attrs": dict(self.attrs)}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Span {self.name!r} cat={self.cat} sid={self.sid} "
                f"parent={self.parent} dur={self.duration}>")


class _SpanContext:
    """``with tracer.span(...)`` helper: closes + unwinds on exit."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc is not None:
            self.span.attrs.setdefault("error",
                                       f"{type(exc).__name__}: {exc}")
        self._tracer.end(self.span)


class Tracer:
    """Records a span tree for one :class:`ExecutionContext`.

    Thread-safe: spans may begin/end concurrently from sweep worker
    threads; each thread parents its own spans.  The span list is
    append-only in *begin* order, so a parent always precedes its
    children in :attr:`spans` and in every export.
    """

    def __init__(self, name: str = "trace"):
        self.name = name
        self.epoch = time.perf_counter()
        self.spans: List[Span] = []
        #: Every LaunchProfile captured while this tracer was active,
        #: in launch order (also present on the launch spans' attrs).
        self.profiles: List[object] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._tls = threading.local()

    # -- recording -----------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def begin(self, name: str, cat: str = "default",
              **attrs: Any) -> Span:
        """Open a span; pair with :meth:`end` (prefer :meth:`span`)."""
        stack = self._stack()
        parent = stack[-1].sid if stack else None
        span = Span(next(self._ids), parent, name, cat,
                    time.perf_counter() - self.epoch,
                    threading.get_ident(), attrs)
        with self._lock:
            self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span: Span) -> Span:
        """Close *span*, fixing its duration and unwinding the stack."""
        if span.duration is None:
            span.duration = max(
                0.0, time.perf_counter() - self.epoch - span.start)
        stack = self._stack()
        while stack:
            popped = stack.pop()
            if popped is span:
                break
        return span

    def span(self, name: str, cat: str = "default",
             **attrs: Any) -> _SpanContext:
        """``with tracer.span("launch:k", "launch", grid="8x8"):``"""
        return _SpanContext(self, self.begin(name, cat, **attrs))

    def event(self, name: str, cat: str = "event",
              **attrs: Any) -> Span:
        """Record an instantaneous (zero-duration) span."""
        span = self.begin(name, cat, **attrs)
        span.duration = 0.0
        self._stack().pop()
        return span

    # -- export / import -----------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Picklable export (closed spans keep durations; open -> 0)."""
        with self._lock:
            spans = [s.to_dict() for s in self.spans]
        return {"name": self.name, "spans": spans}

    def graft(self, exported: Dict[str, Any], label: str,
              cat: str = "sweep", **attrs: Any) -> Optional[Span]:
        """Fold an exported trace in as a child subtree of a new span.

        Used for per-cell sweep aggregation: a process worker's trace
        (shipped back through a pickled
        :class:`~repro.apps.harness.RunResult`) is re-rooted under a
        synthetic *label* span.  The import is re-timed: the subtree
        keeps its internal relative timing but is laid out *ending* at
        this tracer's "now" — the grafted work happened strictly
        before the graft call, and placing it in the past keeps it
        nested inside whatever still-open span the wrapper parents
        under (grafts laid out forward would escape any parent that
        closes right after grafting).  Returns the wrapper span
        (``None`` for an empty export).
        """
        spans = exported.get("spans") or []
        if not spans:
            return None
        base = min(s["start"] for s in spans)
        extent = max(s["start"] + s["dur"] for s in spans) - base
        stack = self._stack()
        floor = stack[-1].start if stack else 0.0
        wrapper = self.begin(label, cat, **attrs)
        wrapper.start = max(floor, wrapper.start - extent)
        shift = wrapper.start - base
        remap: Dict[int, int] = {}
        grafted: List[Span] = []
        for s in spans:
            sid = next(self._ids)
            remap[s["sid"]] = sid
            child = Span(sid, None, s["name"], s["cat"],
                         s["start"] + shift, s["tid"],
                         dict(s["attrs"]))
            child.duration = s["dur"]
            child.parent = s["parent"]  # remapped below
            grafted.append(child)
        for child in grafted:
            child.parent = remap.get(child.parent, wrapper.sid)
        with self._lock:
            self.spans.extend(grafted)
        wrapper.duration = extent
        self._stack().pop()  # close the wrapper without re-timing it
        return wrapper

    # -- introspection -------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self.spans)

    def roots(self) -> List[Span]:
        with self._lock:
            return [s for s in self.spans if s.parent is None]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Tracer {self.name!r} spans={len(self)}>"


def current_tracer() -> Optional[Tracer]:
    """The current context's tracer, or None when tracing is off.

    The analogue of :func:`repro.faults.hooks.active` for tracing:
    call sites that do not already hold an
    :class:`~repro.runtime.context.ExecutionContext` (the compiler,
    the kernel cache) resolve through the current context.
    """
    from repro.runtime.context import current_context
    return current_context().tracer
