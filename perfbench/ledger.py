"""Outside-in per-layer ledger.

:class:`Ledger` patches the program's public entry points at the names
the program calls them by, records one :class:`Span` per call (name,
start, end, parent) in memory, and restores the originals on exit.
Nothing under ``src/`` is touched.  A layer's self time is its span's
duration minus the time its direct child spans cover.

Boundaries (span name <- entry point):

* ``apps.request``    <- ``run_request`` (``repro.apps.harness`` and the
  tuner's ``repro.tuning.app_sweeps`` binding)
* ``runtime.context`` <- ``ExecutionContext(...)`` as ``run_request``
  builds it
* ``gpupf.cache``     <- ``KernelCache.compile``
* ``kernelc.nvcc``    <- ``nvcc``, at the name ``KernelCache`` calls
* ``gpupf.pipeline``  <- ``Pipeline.refresh`` / ``Pipeline.run``
* ``gpusim.launch``   <- ``GPU.launch``

With ``layers=False`` only ``apps.request`` is wrapped: that is the
operation clock of the untraced ``tune`` run, one pair of clock reads
per evaluation.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List

import repro.apps.harness as harness_mod
import repro.gpupf.cache as cache_mod
import repro.tuning.app_sweeps as sweeps_mod
from repro.gpupf.pipeline import Pipeline
from repro.gpusim.launcher import GPU


@dataclass
class Span:
    name: str
    start: float
    parent: int
    end: float = 0.0
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Ledger:
    """In-memory span and count recorder over patched entry points.

    Single-threaded by design: the traced runs are ``jobs=1`` tuning
    and inline request replays.
    """

    def __init__(self, layers: bool = True):
        self.layers = layers
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.request_walls: List[float] = []
        self._stack: List[int] = []
        self._saved = []

    # -- recording -----------------------------------------------------

    def _wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, time.perf_counter(), parent)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent >= 0:
                    self.spans[parent].child_s += span.duration
            if after is not None:
                after(result)
            return result
        return wrapper

    def _on_request(self, result):
        self.request_walls.append(result.wall_seconds)
        self.counts.update(result.counters)

    def _on_nvcc(self, module):
        self.counts["static_instructions"] += sum(
            k.static_instructions for k in module.kernels.values())

    def _on_launch(self, result):
        self.counts["sim_instructions"] += result.instructions
        self.counts["sim_cycles"] += result.cycles

    # -- patching --------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def __enter__(self) -> "Ledger":
        request = self._wrap("apps.request", harness_mod.run_request,
                             self._on_request)
        self._patch(harness_mod, "run_request", request)
        self._patch(sweeps_mod, "run_request", request)
        if not self.layers:
            return self
        self._patch(harness_mod, "ExecutionContext", self._wrap(
            "runtime.context", harness_mod.ExecutionContext))
        self._patch(cache_mod, "nvcc", self._wrap(
            "kernelc.nvcc", cache_mod.nvcc, self._on_nvcc))
        traced = self._wrap("gpupf.cache", cache_mod.KernelCache.compile)

        @functools.wraps(traced)
        def cached_compile(cache, *args, **kwargs):
            before = cache.stats()
            try:
                return traced(cache, *args, **kwargs)
            finally:
                after = cache.stats()
                for key in ("hits", "misses"):
                    self.counts[f"cache_{key}"] += after[key] - before[key]

        self._patch(cache_mod.KernelCache, "compile", cached_compile)
        for attr in ("refresh", "run"):
            self._patch(Pipeline, attr, self._wrap(
                "gpupf.pipeline", getattr(Pipeline, attr)))
        self._patch(GPU, "launch", self._wrap(
            "gpusim.launch", GPU.launch, self._on_launch))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- reading ---------------------------------------------------------

    def export(self) -> List[dict]:
        """Every span as a plain dict, times in seconds from the first."""
        t0 = self.spans[0].start if self.spans else 0.0
        return [{"name": s.name, "start": s.start - t0, "end": s.end - t0,
                 "parent": s.parent, "self_s": s.self_s}
                for s in self.spans]

    def request_spans(self) -> List[Span]:
        return [s for s in self.spans if s.name == "apps.request"]

    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer metrics over everything recorded (see metrics.py)."""
        ops = len(self.request_spans())
        total: Dict[str, float] = Counter()
        calls: Dict[str, int] = Counter()
        own: Dict[str, float] = Counter()
        for span in self.spans:
            total[span.name] += span.duration
            own[span.name] += span.self_s
            calls[span.name] += 1
        wall = total["apps.request"]
        c = self.counts
        lookups = c["cache_hits"] + c["cache_misses"]
        out = {
            "kernelc.compile_calls": calls["kernelc.nvcc"],
            "kernelc.compile_s": total["kernelc.nvcc"] / ops,
            "kernelc.compile_share": total["kernelc.nvcc"] / wall,
            "kernelc.static_instructions": c["static_instructions"],
            "gpupf.cache_hits": c["cache_hits"],
            "gpupf.cache_misses": c["cache_misses"],
            "gpupf.cache_hit_ratio": (c["cache_hits"] / lookups
                                      if lookups else 0.0),
            "gpupf.cache_s": own["gpupf.cache"] / ops,
            "gpupf.pipeline_s": own["gpupf.pipeline"] / ops,
            "gpusim.launch_calls": calls["gpusim.launch"],
            "gpusim.launch_s": total["gpusim.launch"] / ops,
            "gpusim.launch_share": total["gpusim.launch"] / wall,
            "gpusim.sim_instructions": c["sim_instructions"],
            "gpusim.sim_cycles": c["sim_cycles"],
            "gpusim.host_ns_per_sim_instr": (
                total["gpusim.launch"] * 1e9 / c["sim_instructions"]
                if c["sim_instructions"] else 0.0),
            "runtime.context_s": total["runtime.context"] / ops,
            "apps.request_s": statistics.median(self.request_walls),
            "apps.other_s": own["apps.request"] / ops,
        }
        for name in ("plan_hits", "plan_misses", "gang_hits",
                     "gang_misses", "trace_hits", "trace_records",
                     "trace_deopts"):
            out[f"gpusim.{name}"] = c[name]
        return out
