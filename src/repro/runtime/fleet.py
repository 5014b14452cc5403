"""DeviceFleet: shard one workload across N simulated devices.

A :class:`DeviceFleet` is placement plus modeled accounting over the
serve subsystem's worker pool.  It owns N :class:`FleetMember` slots,
each one device model (any mix of registry keys, duplicates allowed),
and runs their work on one
:class:`~repro.serve.supervisor.SpecializationService` with a worker
process per member:

* :meth:`run_requests` shards a stream of picklable
  :class:`~repro.apps.harness.RunRequest`\\ s;
* :meth:`map_grid` shards a sweep grid (``Sweeper(fleet=...)`` wires
  this in transparently).

**Placement.**  Work is only *eligible* for members whose device model
matches it.  Among eligible members, ``least-loaded`` (default) picks
the fewest in-flight entries, ties to the fewest dispatches, then
member order; ``round-robin`` stripes them in order; ``affinity`` pins
identical work to one member by a stable CRC.  Placement decides where
work is accounted, never what it computes: every evaluation is
hermetic or warm-path, both bit-identical by the cache contract, so
merged results equal a sequential single-device run.

**Execution** is the service's: warm per-device worker contexts,
tracing grafts, per-member attribution (each submission carries
``client=member.key``), and crash redispatch at most
``max_redispatch`` times, after which the work resolves as a typed
:class:`~repro.serve.errors.ServiceWorkerError` — raised or returned
for requests, an invalid record for grid cells.

**Reports**: ``fleet.*`` counters next to the service's ``serve.*``
ones in its registry (:attr:`DeviceFleet.metrics`), per-request cache
deltas on each result's ``counters``, :meth:`health_report`, and the
modeled :meth:`busy_seconds` / :meth:`makespan_seconds`.
"""

from __future__ import annotations

import zlib
from concurrent.futures import Future, wait
from typing import (TYPE_CHECKING, Callable, Dict, Iterable, List,
                    Optional, Sequence)

from repro.gpusim.device import DEVICES

if TYPE_CHECKING:  # pragma: no cover - import cycle: harness needs gpusim
    from repro.apps.harness import RunRequest
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import Tracer

PLACEMENTS = ("least-loaded", "round-robin", "affinity")


class FleetError(Exception):
    """Base of the fleet's typed error ladder."""


class FleetPlacementError(FleetError):
    """No fleet member models the device the work needs."""


def _stable_hash(value: object) -> int:
    """Deterministic (process-independent) hash for affinity placement."""
    return zlib.crc32(repr(value).encode())


class FleetMember:
    """One simulated device slot: a device model and its accounting."""

    def __init__(self, ordinal: int, device: str,
                 metrics: "MetricsRegistry"):
        if device not in DEVICES:
            raise FleetPlacementError(
                f"unknown device {device!r}; expected one of "
                f"{tuple(sorted(DEVICES))}")
        self.ordinal = ordinal
        self.device = device
        self.key = f"{device}:{ordinal}"
        self.spec = DEVICES[device]
        self._metrics = metrics
        self.in_flight = 0
        self.dispatched = 0
        self.completed = 0
        self.errors = 0
        #: Modeled simulated seconds this member spent executing.
        self.busy_seconds = 0.0

    @property
    def generation(self) -> int:
        """1 + workers lost while evaluating this member's work."""
        return 1 + self._metrics.counter(f"client.{self.key}.worker_lost")

    def settle(self, result=None) -> None:
        """Account one collected evaluation; None when it failed."""
        self.in_flight -= 1
        if result is None:
            self.errors += 1
            return
        self.completed += 1
        self.busy_seconds += result.seconds

    def stats(self) -> Dict[str, object]:
        return {"member": self.key, "device": self.spec.name,
                "generation": self.generation,
                "in_flight": self.in_flight,
                "dispatched": self.dispatched,
                "completed": self.completed, "errors": self.errors,
                "busy_modeled_s": self.busy_seconds}


class DeviceFleet:
    """N simulated devices scheduled on one supervised worker pool."""

    def __init__(self, devices: Sequence[str], *,
                 placement: str = "least-loaded",
                 max_redispatch: int = 1,
                 start_method: Optional[str] = None,
                 name: str = "fleet"):
        if not devices:
            raise ValueError("a fleet needs at least one device")
        if placement not in PLACEMENTS:
            raise ValueError(f"unknown placement {placement!r}; "
                             f"expected one of {PLACEMENTS}")
        self.name = name
        self.placement = placement
        from repro.serve.supervisor import (ServiceConfig,
                                            SpecializationService)
        #: Started on first use: a fleet that only places spawns nothing.
        self.service = SpecializationService(ServiceConfig(
            workers=len(devices), max_redispatch=max_redispatch,
            start_method=start_method))
        #: The service's registry: ``fleet.*`` counters sit next to its
        #: ``serve.*`` and ``client.<member>.*`` ones.
        self.metrics = self.service.metrics
        self.metrics.gauge("fleet.members", len(devices))
        self.members: List[FleetMember] = [
            FleetMember(i, device, self.metrics)
            for i, device in enumerate(devices)]
        self.recorder = self.service.recorder
        self._rr: Dict[str, int] = {}
        self._closed = False

    # -- lifecycle -------------------------------------------------------

    def __enter__(self) -> "DeviceFleet":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    def shutdown(self) -> None:
        """Stop the service's workers (idempotent)."""
        self._closed = True
        self.service.shutdown()

    def _start(self) -> None:
        if self._closed:
            raise FleetError(f"fleet {self.name!r} is shut down")
        if not self.service.running:
            self.service.start()

    # -- observability ---------------------------------------------------

    @property
    def tracer(self) -> Optional["Tracer"]:
        """The service's tracer; None until :meth:`enable_tracing`."""
        return self.service.tracer

    def enable_tracing(self, name: Optional[str] = None) -> "Tracer":
        """Trace every request dispatched afterwards (the service's
        tracer; each graft is tagged with its member as ``client``)."""
        return self.service.enable_tracing(name or self.name)

    def export_trace(self, path: str) -> str:
        """Write the fleet trace + service metrics + events to *path*."""
        return self.service.export_trace(path)

    # -- placement -------------------------------------------------------

    def eligible(self, device: str) -> List[FleetMember]:
        """Members whose model matches *device* (fleet order)."""
        return [m for m in self.members if m.device == device]

    def place(self, device: str,
              affinity_key: object = None) -> FleetMember:
        """Pick the member one piece of *device* work is placed on.

        Raises:
            FleetPlacementError: the fleet has no member modeling
                *device* — a heterogeneous-workload configuration bug,
                reported with the fleet's actual composition.
        """
        candidates = self.eligible(device)
        if not candidates:
            raise FleetPlacementError(
                f"no member of fleet {self.name!r} models device "
                f"{device!r}; fleet is "
                f"{[m.key for m in self.members]} "
                f"(registry devices: {tuple(sorted(DEVICES))})")
        return self._pick(candidates, device, affinity_key)

    def _pick(self, candidates: List[FleetMember], lane: str,
              affinity_key: object) -> FleetMember:
        if self.placement == "affinity":
            return candidates[_stable_hash(affinity_key)
                              % len(candidates)]
        if self.placement == "round-robin":
            n = self._rr.get(lane, 0)
            self._rr[lane] = n + 1
            return candidates[n % len(candidates)]
        return min(candidates,
                   key=lambda m: (m.in_flight, m.dispatched, m.ordinal))

    def _submit(self, member: FleetMember, work,
                pending: List[Future]) -> Future:
        """Submit *work* for *member*, metered so admission never sheds:
        dispatch is FIFO, so once the entry submitted a queue's worth
        earlier has resolved, the queue has room."""
        from repro.serve.errors import ServiceError
        capacity = self.service.config.queue_capacity
        if len(pending) >= capacity:
            wait([pending[-capacity]])
        member.in_flight += 1
        member.dispatched += 1
        self.metrics.inc("fleet.dispatch")
        try:
            return self.service.submit(work, client=member.key)
        except ServiceError as exc:  # refused at the door (deadline)
            future: Future = Future()
            future.set_exception(exc)
            return future

    # -- request sharding ------------------------------------------------

    def run_requests(self, requests: Iterable["RunRequest"], *,
                     return_errors: bool = False) -> List[object]:
        """Shard a stream of requests; results in submission order,
        each with ``worker`` naming its member.

        Failures are typed service errors: the first is raised once the
        whole batch has settled, or all are returned in place with
        ``return_errors=True``.
        """
        self._start()
        members: List[FleetMember] = []
        futures: List[Future] = []
        for request in requests:
            device = request.spec.device
            member = self.place(device, affinity_key=(
                request.spec.app, request.spec.seed, device))
            self.recorder.record("fleet.place", member=member.key,
                                 policy=self.placement)
            futures.append(self._submit(member, request, futures))
            members.append(member)
        self.metrics.inc("fleet.batches")
        results: List[object] = []
        for member, future in zip(members, futures):
            try:
                result = future.result()
            except Exception as exc:
                member.settle(None)
                self.metrics.inc("fleet.errors")
                results.append(exc)
                continue
            member.settle(result)
            result.worker = member.key
            results.append(result)
        if not return_errors:
            for result in results:
                if isinstance(result, Exception):
                    raise result
        return results

    # -- grid sharding ---------------------------------------------------

    def map_grid(self, run: Callable[[dict], object],
                 configs: Iterable[dict], base: int = 0) -> List[object]:
        """Shard a sweep grid's cells; records merged in grid order.

        Each cell is placed on a member eligible for the runner's
        device (``run.spec.device`` when present; any member
        otherwise) and evaluated exactly as ``Sweeper`` would: cell
        exceptions and worker deaths past the redispatch budget become
        typed invalid records.
        """
        from repro.serve.worker import SweepCell
        from repro.tuning.sweep import require_picklable, served_record
        require_picklable(run)
        configs = list(configs)
        device = getattr(getattr(run, "spec", None), "device", None)
        if device is not None:
            self.eligible(device) or self.place(device)  # raise typed
        self._start()
        self.metrics.inc("fleet.shards")
        members: List[FleetMember] = []
        futures: List[Future] = []
        for i, config in enumerate(configs):
            key = tuple(sorted(config.items()))
            member = (self.place(device, affinity_key=key)
                      if device is not None
                      else self._pick(self.members, "*", key))
            futures.append(self._submit(
                member, SweepCell(run, dict(config), base + i), futures))
            members.append(member)
        records = []
        for i, (member, future) in enumerate(zip(members, futures)):
            if future.exception() is not None:
                self.metrics.inc("fleet.errors")
            record = served_record(future, configs[i], base + i)
            member.settle(record if record.valid else None)
            if record.valid:
                self.metrics.observe("fleet.cell_seconds",
                                     record.seconds)
            records.append(record)
        return records

    # -- fleet-level reports ---------------------------------------------

    def busy_seconds(self) -> float:
        """Total modeled seconds executed across the fleet."""
        return sum(m.busy_seconds for m in self.members)

    def makespan_seconds(self) -> float:
        """Modeled completion time of the sharded workload.

        The busiest member bounds the fleet: with N devices running
        concurrently (in simulated time), the workload finishes when
        the most-loaded one does.  ``busy / makespan`` is the fleet's
        modeled throughput multiple over a single device — the number
        BENCH_fleet.json tracks.
        """
        return max((m.busy_seconds for m in self.members), default=0.0)

    def health_report(self) -> Dict[str, object]:
        """Load + error picture of the whole fleet."""
        status = "shutdown" if self._closed else "ok"
        if not self._closed and any(m.errors for m in self.members):
            status = "degraded"
        return {
            "status": status,
            "name": self.name,
            "placement": self.placement,
            "devices": [m.device for m in self.members],
            "members": [m.stats() for m in self.members],
            "busy_modeled_s": self.busy_seconds(),
            "makespan_modeled_s": self.makespan_seconds(),
            "metrics": self.metrics.snapshot(),
            "flight": self.recorder.dump(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<DeviceFleet {self.name!r} "
                f"[{', '.join(m.key for m in self.members)}] "
                f"placement={self.placement}>")
