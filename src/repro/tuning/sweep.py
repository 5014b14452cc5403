"""Generic configuration sweep machinery."""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.reporting import format_table
from repro.runtime.context import ExecutionContext, using_context


@dataclass
class SweepRecord:
    """One evaluated configuration point."""

    config: dict
    seconds: float
    reg_count: int = 0
    occupancy: float = 0.0
    valid: bool = True
    error: str = ""
    #: Position of this record in the sweeper's cumulative evaluation
    #: sequence (set by ``sweep()``; indices keep counting across
    #: calls, so pruned multi-batch sweeps — the AutoTuner — never
    #: alias).  Records of one call are always returned sorted by it.
    index: int = -1
    #: Plan/gang cache counters charged by runs that evaluated in a
    #: private context of their own (:class:`HarnessRunner` runs, so
    #: every app sweep); empty for a plain callable, which charges the
    #: sweep's context directly.
    counters: Dict[str, int] = field(default_factory=dict)
    #: site -> fired count from the run's fault injector (chaos
    #: sweeps); empty when no fault plan was installed.
    faults: Dict[str, int] = field(default_factory=dict)
    #: Tracer export from a run that traced in a private context of
    #: its own (a ``trace=True`` :class:`HarnessRunner` evaluation);
    #: the owning :class:`Sweeper` grafts it back into its own trace
    #: as a ``cell:<index>`` subtree.  None for untraced runs.
    trace: Optional[Dict[str, object]] = None
    #: The private run context's ``metrics_snapshot()`` (traced
    #: harness runs only).
    metrics: Optional[Dict[str, object]] = None
    #: Per-launch :class:`~repro.obs.profile.LaunchProfile` records of
    #: the evaluation, in launch order (traced harness runs only) —
    #: the AutoTuner's diagnosis input and the rows behind
    #: :meth:`Sweeper.limiter_report`.
    profiles: List[object] = field(default_factory=list)

    def key(self) -> Tuple:
        return tuple(sorted(self.config.items()))


def _eval_config(run: Callable[[dict], SweepRecord],
                 config: dict) -> SweepRecord:
    try:
        return run(dict(config))
    except Exception as exc:  # occupancy/compile failures
        return SweepRecord(config=dict(config),
                           seconds=float("inf"), valid=False,
                           error=f"{type(exc).__name__}: {exc}")


def require_picklable(run: Callable) -> None:
    """Raise an actionable ``ValueError`` unless *run* can ship to a
    worker process."""
    try:
        pickle.dumps(run)
    except Exception as exc:
        raise ValueError(
            "jobs>1 and fleet sweeps need a picklable run callable; "
            "closures over arrays are not — use a HarnessRunner "
            f"(repro.tuning.app_sweeps) instead: {exc}") from exc


def served_record(future, config: dict, index: int) -> SweepRecord:
    """The record of one served cell; a cell the service could not
    evaluate (a ``ServiceWorkerError``) is a typed invalid record."""
    from repro.serve.errors import ServiceError
    try:
        return future.result()
    except ServiceError as exc:
        return SweepRecord(config=dict(config), seconds=float("inf"),
                           valid=False,
                           error=f"{type(exc).__name__}: {exc}",
                           index=index)


class Sweeper:
    """Evaluates a run function over a configuration grid.

    The run function receives one config dict and returns a
    :class:`SweepRecord`; configurations that cannot launch (occupancy
    failures — a real phenomenon the dissertation's sweeps also hit)
    come back ``valid=False`` and stay in the record list so coverage
    tables can show the holes.

    Args:
        run: the evaluation function.  ``jobs>1`` requires it to be
            picklable (a :class:`HarnessRunner` or module-level
            function, not a closure).
        jobs: worker count; 1 evaluates inline.  More runs each
            ``sweep()`` call's cells on a private
            :class:`~repro.serve.supervisor.SpecializationService` of
            ``jobs`` worker processes; a cell whose worker keeps dying
            becomes a typed ``ServiceWorkerError`` record.
        context: the :class:`ExecutionContext` the sweep evaluates
            under; a fresh private one by default, so concurrent
            sweeps in one process never share caches or counters.
        start_method: multiprocessing start method of the service's
            workers (None = platform default; ``"spawn"`` exercises a
            cold interpreter per worker).
        fleet: a :class:`~repro.runtime.fleet.DeviceFleet` to shard
            the grid across instead (``jobs`` is then ignored); records
            merge back in grid order, bit-identical to an unfleeted
            sweep.
        trace: enable the sweep context's tracer.  Inline cells record
            an ``eval:<index>`` span; cells that traced inside a
            private context of their own (a ``trace=True``
            :class:`~repro.tuning.app_sweeps.HarnessRunner`, inline or
            served) additionally graft their shipped trace back in as
            a ``cell:<index>`` subtree.
    """

    def __init__(self, run: Callable[[dict], SweepRecord],
                 jobs: int = 1,
                 context: Optional[ExecutionContext] = None,
                 start_method: Optional[str] = None,
                 trace: bool = False,
                 fleet=None):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.run = run
        self.jobs = jobs
        self.start_method = start_method
        self.fleet = fleet
        #: Every evaluation of this sweep is charged to this context —
        #: its plan/gang counters see no other sweep's traffic.
        self.ctx = context or ExecutionContext(name="sweep")
        self.records: List[SweepRecord] = []
        #: The sweep-level instrument registry (one counter taxonomy,
        #: see GLOSSARY "counter namespace"): ``cache.*`` gauges hold
        #: the last call's cache deltas, ``sweep.calls`` /
        #: ``sweep.cells`` / ``error.<class>`` counters accumulate, and
        #: the ``sweep.cell_seconds`` histogram summarizes valid cells'
        #: modeled time.  :attr:`cache_report` and
        #: :meth:`error_taxonomy` are thin views over it.
        self.metrics = MetricsRegistry()
        if trace:
            self.ctx.enable_tracing("sweep")

    def _eval(self, index: int, config: dict) -> SweepRecord:
        with using_context(self.ctx):
            tracer = self.ctx.tracer
            if tracer is None:
                record = _eval_config(self.run, config)
            else:
                with tracer.span(f"eval:{index}", "sweep",
                                 config=_config_note(config)) as span:
                    record = _eval_config(self.run, config)
                    span.attrs["valid"] = record.valid
                    if record.valid:
                        span.attrs["sim_seconds"] = record.seconds
            record.index = index
            return record

    def sweep(self, configs: Iterable[dict]) -> List[SweepRecord]:
        configs = list(configs)
        base = len(self.records)
        before = self.ctx.cache_counters()
        tracer = self.ctx.tracer
        new: List[SweepRecord] = []
        try:
            if tracer is None:
                new = self._eval_all(configs, base)
            else:
                with tracer.span("sweep", "sweep", cells=len(configs),
                                 jobs=self.jobs):
                    new = self._eval_all(configs, base)
                    # Per-cell aggregation: harness cells traced in
                    # their own private context; fold each
                    # shipped trace in as a child subtree, grid order.
                    for record in new:
                        if record.trace:
                            tracer.graft(record.trace,
                                         f"cell:{record.index}",
                                         index=record.index,
                                         valid=record.valid)
            self.records.extend(new)
            return self.records
        finally:
            self._account(new, before)

    def _eval_all(self, configs: List[dict],
                  base: int = 0) -> List[SweepRecord]:
        """Records of *configs*, indexed from *base*, in grid order."""
        if self.fleet is not None:
            # The fleet handles placement, typed crash records, and
            # grid-order merge; each cell's counters ride its record
            # back into _account exactly as served cells' do.
            return self.fleet.map_grid(self.run, configs, base)
        if self.jobs == 1 or len(configs) <= 1:
            return [self._eval(base + i, c)
                    for i, c in enumerate(configs)]
        require_picklable(self.run)
        from repro.serve.supervisor import (ServiceConfig,
                                            SpecializationService)
        from repro.serve.worker import SweepCell
        # The queue holds the whole grid, so admission never sheds.
        config = ServiceConfig(workers=min(self.jobs, len(configs)),
                               queue_capacity=len(configs),
                               start_method=self.start_method)
        with SpecializationService(config) as service:
            futures = [service.submit(SweepCell(self.run, dict(c),
                                                base + i))
                       for i, c in enumerate(configs)]
            return [served_record(f, c, base + i)
                    for i, (f, c) in enumerate(zip(futures, configs))]

    def _account(self, new: List[SweepRecord],
                 before: Dict[str, int]) -> None:
        """Fold a finished ``sweep()`` call into :attr:`metrics`.

        Cache deltas — the launch-plan and gang-prototype hit/miss
        traffic of this call, summed over the sweep context and the
        per-record private contexts — land as ``cache.*`` gauges
        (last call wins, which is exactly what :attr:`cache_report`
        reports); cell and error-class counts accumulate as counters.
        A healthy sweep over one kernel shows ~1 miss and hits for
        every other launch.
        """
        after = self.ctx.cache_counters()
        report = {k: after[k] - before[k] for k in after}
        for record in new:
            for k, v in record.counters.items():
                report[k] = report.get(k, 0) + v
        for key, value in report.items():
            self.metrics.gauge(f"cache.{key}", value)
        self.metrics.inc("sweep.calls")
        self.metrics.inc("sweep.cells", len(new))
        for record in new:
            if record.valid:
                self.metrics.observe("sweep.cell_seconds",
                                     record.seconds)
            else:
                self.metrics.inc(
                    f"error.{_error_class(record.error)}")

    @property
    def cache_report(self) -> Dict[str, int]:
        """Cache activity attributed to the last ``sweep()`` call.

        Exact deltas of the launch-plan and gang-prototype counters, in
        :meth:`ExecutionContext.cache_counters` keys (``plan_hits`` /
        ``plan_misses`` / ``gang_hits`` / ``gang_misses``).  A thin
        view over the ``cache.*`` gauges in :attr:`metrics`; empty
        before the first call.
        """
        gauges = self.metrics.snapshot()["gauges"]
        return {name[len("cache."):]: int(value)
                for name, value in gauges.items()
                if name.startswith("cache.")}

    def error_taxonomy(self) -> Dict[str, int]:
        """Invalid records grouped by error class, with counts.

        The sweep-level half of the observability story: together with
        ``Pipeline.health_report()`` it makes every failed
        configuration diagnosable by *kind* rather than by reading N
        raw message strings.  A thin view over the ``error.<class>``
        counters in :attr:`metrics` (historical bare class names kept).
        """
        return {name[len("error."):]: count
                for name, count
                in self.metrics.counters("error.").items()}

    def limiter_report(self) -> Dict[str, Dict[str, int]]:
        """Distribution of launch-profile limiters over all records.

        Counts every :class:`~repro.obs.profile.LaunchProfile` the
        records carry (traced harness runs; untraced records
        contribute nothing) by its occupancy limiter and its modeled
        boundedness — the AutoTuner's diagnosis inputs, exposed so
        they are independently testable::

            {"occupancy_limit": {"registers": 4, "blocks": 2},
             "bound": {"latency": 5, "issue": 1}}
        """
        occ: Dict[str, int] = {}
        bound: Dict[str, int] = {}
        for record in self.records:
            for profile in record.profiles:
                limit = str(getattr(profile, "occupancy_limit", "?"))
                occ[limit] = occ.get(limit, 0) + 1
                b = str(getattr(profile, "bound", "?"))
                bound[b] = bound.get(b, 0) + 1
        return {"occupancy_limit": occ, "bound": bound}

    def slowest_report(self, n: int = 5) -> str:
        """The *n* slowest valid cells, as an aligned text table.

        The sweep-level profiling summary: modeled time, register
        pressure, and occupancy per cell, worst first — where to point
        a traced re-run (``trace=True`` + ``export_trace``) when a
        grid's tail looks wrong.
        """
        ranked = sorted((r for r in self.records if r.valid),
                        key=lambda r: (-r.seconds, r.key()))[:n]
        rows = [[r.index, _config_note(r.config),
                 f"{r.seconds * 1e3:.3f}", r.reg_count,
                 f"{r.occupancy:.2f}"] for r in ranked]
        return format_table(
            ["cell", "config", "ms", "regs", "occ"], rows,
            title=f"slowest {len(rows)} of {len(self.records)} cells")


def _config_note(config: dict) -> str:
    """One config dict as a stable ``k=v`` note for spans/tables."""
    return " ".join(f"{k}={v}" for k, v in sorted(config.items()))


def _error_class(error: str) -> str:
    """``"SimError: bad launch"`` -> ``"SimError"``."""
    head = error.split(":", 1)[0].strip()
    return head or "UnknownError"


def best_record(records: List[SweepRecord]) -> SweepRecord:
    """The fastest valid record (ties broken by config key).

    The explicit tie-break makes sweep optima — and every table built
    from them — reproducible no matter how the records were ordered or
    which worker produced them first.
    """
    valid = [r for r in records if r.valid]
    if not valid:
        # Group by error class so an all-invalid sweep is diagnosable
        # at a glance: every distinct failure kind appears, counted,
        # with one example message each.
        groups: Dict[str, List[object]] = {}
        for r in records:
            entry = groups.setdefault(_error_class(r.error),
                                      [0, r.error])
            entry[0] += 1
        detail = "; ".join(
            f"{cls} x{count} (e.g. {example})"
            for cls, (count, example) in sorted(groups.items()))
        raise ValueError(
            f"no configuration in the sweep could run ({len(records)} "
            f"tried): {detail}")
    return min(valid, key=lambda r: (r.seconds, r.key()))


def grid_configs(**axes) -> List[dict]:
    """Cartesian product of named axes into config dicts."""
    configs: List[dict] = [{}]
    for name, values in axes.items():
        configs = [dict(c, **{name: v}) for c in configs for v in values]
    return configs
