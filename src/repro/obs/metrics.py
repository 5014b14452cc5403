"""Named counters, gauges, and histograms with one ``snapshot()``.

`MetricsRegistry` generalizes the stack's ad-hoc counter dicts — the
context's cache hit/miss counts, `Pipeline.health`'s per-site
Counters, `Sweeper`'s error taxonomy — into one taxonomy of named
instruments:

* **counters** — monotonically increasing ints (`inc`), e.g.
  ``fault.launch``, ``retry.compile``, ``sweep.cells``;
* **gauges** — last-written values (`gauge`), e.g.
  ``pipeline.iterations``;
* **histograms** — log-bucketed :class:`~repro.obs.hist.LatencyHistogram`
  instances (`observe`), e.g. ``launch.cycles`` or
  ``client.alice.latency_s``, carrying both the classic
  (count, sum, min, max) summary and sparse buckets for
  p50/p95/p99 estimation via :meth:`quantile`.

Histograms can carry **SLO thresholds** (:meth:`set_slo`): every
observation above the threshold bumps the ``slo.breach.{name}``
counter, which the serve daemon surfaces per client in ``/health``.

Metric names follow the context counter convention documented in
:mod:`repro.runtime.context`: dotted ``subsystem.event`` (see
GLOSSARY.md).  The registry is thread-safe; a registry lives on each
:class:`~repro.runtime.context.ExecutionContext` (``ctx.metrics``) so
concurrent sweeps with private contexts never share instruments.
Unlike the tracer, the registry is always present — incrementing a
Counter under a lock is cheap enough that counters stay exact whether
or not tracing is enabled.
"""

from __future__ import annotations

import threading
from collections import Counter
from typing import Any, Dict, Iterable, Optional, Tuple

from repro.obs.hist import LatencyHistogram

__all__ = ["MetricsRegistry"]


class MetricsRegistry:
    """Thread-safe registry of named counters/gauges/histograms."""

    def __init__(self):
        # Reentrant: a garbage collection that runs while this thread
        # holds the lock may call a finalizer that counts here
        # (:func:`repro.gpusim.executor._evict_plan`).
        self._lock = threading.RLock()
        self._counters: Counter = Counter()
        self._gauges: Dict[str, float] = {}
        self._hists: Dict[str, LatencyHistogram] = {}
        self._slos: Dict[str, float] = {}

    # -- instruments ---------------------------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        """Increment counter *name* by *amount* (default 1)."""
        with self._lock:
            self._counters[name] += amount

    def gauge(self, name: str, value: float) -> None:
        """Set gauge *name* to *value* (last write wins)."""
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record *value* into histogram *name* (and check its SLO)."""
        with self._lock:
            h = self._hists.get(name)
            if h is None:
                h = self._hists[name] = LatencyHistogram()
            h.record(value)
            slo = self._slos.get(name)
            if slo is not None and value > slo:
                self._counters[f"slo.breach.{name}"] += 1

    def time(self, name: str):
        """``with registry.time("serve.exec_s"):`` — observe wall time.

        Records the block's elapsed ``time.perf_counter()`` seconds
        into histogram *name*; the serve daemon uses it for queue-wait
        and execution latency summaries.
        """
        return _Timer(self, name)

    # -- SLOs ----------------------------------------------------------

    def set_slo(self, name: str, threshold: float) -> None:
        """Declare an SLO: observations of *name* above *threshold*
        seconds (or whatever unit the histogram records) increment the
        ``slo.breach.{name}`` counter.  Last write wins."""
        with self._lock:
            self._slos[name] = float(threshold)

    def slos(self) -> Dict[str, float]:
        """The declared SLO thresholds (histogram name -> threshold)."""
        with self._lock:
            return dict(self._slos)

    # -- reading -------------------------------------------------------

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters[name]

    def counters(self, prefix: str = "") -> Dict[str, int]:
        """Counters as a plain dict, optionally filtered by *prefix*."""
        with self._lock:
            if not prefix:
                return dict(self._counters)
            return {k: v for k, v in self._counters.items()
                    if k.startswith(prefix)}

    def quantile(self, name: str, q: float) -> Optional[float]:
        """The *q*-quantile estimate for histogram *name*.

        ``None`` when the histogram doesn't exist or has no bucket
        detail; otherwise accurate to one log-bucket (see
        :mod:`repro.obs.hist`).
        """
        with self._lock:
            h = self._hists.get(name)
            return h.quantile(q) if h is not None else None

    def quantiles(self, name: str,
                  qs: Iterable[float] = (0.5, 0.95, 0.99)
                  ) -> Dict[str, float]:
        """``{"p50": ..., "p95": ..., "p99": ...}`` for histogram *name*
        (empty dict when unknown/empty)."""
        with self._lock:
            h = self._hists.get(name)
            return h.quantiles(qs) if h is not None else {}

    def snapshot(self) -> Dict[str, Any]:
        """One coherent view of every instrument.

        Returns ``{"counters": {name: int}, "gauges": {name: float},
        "histograms": {name: {"count","sum","mean","min","max"}},
        "buckets": {name: {bucket_index: count}}}``.  The summary shape
        under ``histograms`` is unchanged from the pre-bucket registry;
        the sparse log-bucket detail rides in the separate ``buckets``
        section so consumers that only want summaries ignore it.  All
        values are plain JSON types (JSON stringifies the int bucket
        keys; :func:`~repro.obs.hist.LatencyHistogram.from_parts`
        accepts both); the dict is safe to pickle, merge, or dump.
        """
        with self._lock:
            hists = {name: h.summary() for name, h in self._hists.items()}
            buckets = {name: dict(h.buckets)
                       for name, h in self._hists.items() if h.buckets}
            return {"counters": dict(self._counters),
                    "gauges": dict(self._gauges),
                    "histograms": hists,
                    "buckets": buckets}

    def merge(self, snapshot: Dict[str, Any]) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters add; gauges last-write-win; histograms combine their
        (count, sum, min, max) summaries and add bucket counts (when
        the snapshot carries a ``buckets`` section — pre-bucket
        snapshots merge summaries only).  Used to aggregate metrics
        shipped back from worker processes.
        """
        with self._lock:
            for name, v in (snapshot.get("counters") or {}).items():
                self._counters[name] += v
            self._gauges.update(snapshot.get("gauges") or {})
            all_buckets = snapshot.get("buckets") or {}
            for name, h in (snapshot.get("histograms") or {}).items():
                other = LatencyHistogram.from_parts(
                    h, all_buckets.get(name))
                mine = self._hists.get(name)
                if mine is None:
                    self._hists[name] = other
                else:
                    mine.merge(other)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        with self._lock:
            return (f"<MetricsRegistry counters={len(self._counters)} "
                    f"gauges={len(self._gauges)} "
                    f"hists={len(self._hists)}>")


class _Timer:
    """Context manager behind :meth:`MetricsRegistry.time`."""

    __slots__ = ("_registry", "_name", "_start")

    def __init__(self, registry: "MetricsRegistry", name: str):
        self._registry = registry
        self._name = name

    def __enter__(self) -> "_Timer":
        import time
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        import time
        self._registry.observe(self._name,
                               time.perf_counter() - self._start)
