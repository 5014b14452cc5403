"""The specialization service: supervised worker pool + dispatch loop.

:class:`SpecializationService` is the tentpole of the serve subsystem.
It owns a fixed set of worker *slots*, each running (or restarting
into) one warm :mod:`repro.serve.worker` process, and a single
supervisor thread that multiplexes everything over
:func:`multiprocessing.connection.wait`.  It is the repo's one worker
pool: the daemon's requests, ``Sweeper(jobs>1)`` grid cells and
:class:`~repro.runtime.fleet.DeviceFleet` work all run on it.

* **dispatch** — admitted entries go to idle workers in FIFO order;
  the circuit breaker decides per dispatch whether the request runs
  specialized, degraded to RE, or as the half-open probe;
* **crash detection** — a worker pipe hitting EOF (or its process
  dying) fails the slot; the in-flight entry is redispatched to
  another worker under the at-most-N-retries contract, then resolved
  as :class:`~repro.serve.errors.ServiceWorkerError`;
* **hang detection** — workers heartbeat on the pipe; a busy *or*
  idle worker whose last beat is older than ``hang_timeout`` is
  killed and treated exactly like a crash;
* **deadline backstop** — a request still running ``kill_grace``
  past its deadline gets its worker killed and resolves as
  :class:`~repro.serve.errors.ServiceDeadlineError`; cooperative
  deadline checks inside the worker normally fire long before this;
* **restart pacing** — slot restarts back off on the service's
  seeded :class:`~repro.faults.retry.RetryPolicy` schedule, so a
  crash-looping worker cannot hot-spin the supervisor, and the
  pacing is deterministic per seed;
* **drain shutdown** — ``shutdown(drain=True)`` stops admission,
  lets queued + in-flight work finish, then stops workers; abort
  mode resolves everything pending as
  :class:`~repro.serve.errors.ServiceShutdownError` instead.

Threading contract: the supervisor thread is the only thing that
touches worker handles; ``submit`` runs in caller threads and only
touches the admission queue, the wake channel, and service counters.
"""

from __future__ import annotations

import dataclasses
import itertools
import multiprocessing
import socket
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _conn_wait
from typing import Dict, List, Mapping, Optional

from repro.apps.harness import RunRequest, RunResult
from repro.faults.errors import DeadlineExceeded
from repro.faults.retry import RetryPolicy
from repro.obs.events import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceContext, Tracer
from repro.serve.admission import AdmissionController, Entry
from repro.serve.breaker import COMPILE_SITES, CircuitBreaker
from repro.serve.errors import (ServiceDeadlineError, ServiceError,
                                ServiceRequestError, ServiceShutdownError,
                                ServiceWorkerError)
from repro.serve.worker import (EVICTION_COUNTERS, MSG_HEARTBEAT,
                                MSG_READY, MSG_RESULT, worker_main)


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs for one service instance (all times in seconds)."""

    workers: int = 2
    queue_capacity: int = 16
    #: Extra dispatches allowed after a worker crash: a request is
    #: attempted at most ``1 + max_redispatch`` times total.
    max_redispatch: int = 2
    heartbeat_interval: float = 0.1
    #: A worker silent this long is presumed wedged and killed.
    hang_timeout: float = 3.0
    #: How far past its deadline a running request may overrun before
    #: the supervisor kills the worker out from under it.
    kill_grace: float = 0.5
    #: Supervisor loop tick (upper bound on event-detection latency).
    tick: float = 0.05
    #: multiprocessing start method; None = platform default.
    start_method: Optional[str] = None
    breaker_threshold: int = 3
    breaker_reset: float = 1.0
    #: Paces slot restarts after crashes (seeded => deterministic).
    restart_backoff: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(
            max_attempts=8, base_delay=0.05, max_delay=2.0, seed=1009))
    #: Flight-recorder ring size (newest events kept for forensics).
    event_capacity: int = 256
    #: SLO thresholds, histogram name -> seconds: observations above
    #: the threshold bump ``slo.breach.{name}``.  The special key
    #: ``"client.latency_s"`` applies to *every* per-client latency
    #: histogram (``client.{name}.latency_s``), so one number sets the
    #: whole fleet's client SLO; other keys register verbatim (e.g.
    #: ``"serve.queue_wait_s": 0.25``).
    slo: Optional[Mapping[str, float]] = None

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.max_redispatch < 0:
            raise ValueError("max_redispatch must be >= 0")


class WorkerHandle:
    """One live worker process bound to a slot."""

    def __init__(self, slot: int, generation: int, proc, conn):
        self.slot = slot
        self.generation = generation
        self.id = f"w{slot}g{generation}"
        self.proc = proc
        self.conn = conn
        self.busy: Optional[Entry] = None
        self.started_at = time.monotonic()
        self.last_beat = self.started_at
        self.dispatched_at = 0.0
        self.deadline_kill = False  # our kill, not the worker's fault
        #: Device keys this worker has already built a warm context
        #: for (the worker keeps one per device); dispatch prefers a
        #: worker already warm for a request's device, so a
        #: heterogeneous fleet workload lands on hot caches.
        self.warm_devices: set = set()


class SpecializationService:
    """Supervised warm-worker pool behind admission control."""

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        cfg = self.config
        self.metrics = MetricsRegistry()
        for name in EVICTION_COUNTERS:
            self.metrics.inc(f"cache.{name}", 0)
        #: Bounded ring of typed events (see :mod:`repro.obs.events`):
        #: worker lifecycle, breaker transitions, sheds, redispatches,
        #: plus whatever traced workers ship back.  `/health` renders
        #: it and ``--flight-recorder`` dumps it on crash.
        self.recorder = FlightRecorder(capacity=cfg.event_capacity,
                                       origin="supervisor")
        #: Supervisor-side tracer; None until :meth:`enable_tracing`.
        #: When set, every dispatched :class:`RunRequest` carries a
        #: :class:`~repro.obs.trace.TraceContext` and the shipped
        #: worker span tree is grafted under a ``request:{id}`` span —
        #: one export shows admission → queue → worker → launch.
        self.tracer: Optional[Tracer] = None
        self.admission = AdmissionController(
            cfg.queue_capacity, on_shed=self._on_shed)
        self.breaker = CircuitBreaker(
            failure_threshold=cfg.breaker_threshold,
            reset_timeout=cfg.breaker_reset,
            on_transition=self._on_breaker_transition)
        self._client_slo: Optional[float] = None
        for name, threshold in dict(cfg.slo or {}).items():
            if name == "client.latency_s":
                self._client_slo = float(threshold)
            else:
                self.metrics.set_slo(name, threshold)
        self._mp = multiprocessing.get_context(cfg.start_method)
        self._ids = itertools.count(1)
        self._handles: List[Optional[WorkerHandle]] = \
            [None] * cfg.workers
        self._restart_at: List[float] = [0.0] * cfg.workers
        self._crash_streak: List[int] = [0] * cfg.workers
        self._generation: List[int] = [0] * cfg.workers
        self._restart_delays = cfg.restart_backoff.schedule() \
            or [cfg.restart_backoff.base_delay]
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._thread: Optional[threading.Thread] = None
        self._stopping = False
        self._drain = True
        self._stopped = threading.Event()
        self._started = False
        self._started_at = 0.0

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "SpecializationService":
        if self._started:
            raise RuntimeError("service already started")
        self._started = True
        self._started_at = time.monotonic()
        self._thread = threading.Thread(target=self._loop,
                                        name="serve-supervisor",
                                        daemon=True)
        self._thread.start()
        return self

    def __enter__(self) -> "SpecializationService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(drain=exc_type is None)

    @property
    def running(self) -> bool:
        return self._started and not self._stopped.is_set()

    def shutdown(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop the service; *drain* finishes pending work first."""
        if not self._started:
            return
        self.admission.close()
        if not drain:
            for entry in self.admission.drain_pending():
                entry.complete(error=ServiceShutdownError(
                    "service aborted before request ran"))
        self._drain = drain
        self._stopping = True
        self._wake()
        self._thread.join(timeout)
        if self._thread.is_alive():  # drain overran: abort the rest
            self._drain = False
            for entry in self.admission.drain_pending():
                entry.complete(error=ServiceShutdownError(
                    "service drain timed out; request abandoned"))
            self._wake()
            self._thread.join(5.0)

    # -- client surface --------------------------------------------------

    def submit(self, request, deadline: Optional[float] = None,
               client: str = "") -> Future:
        """Admit one request; returns its future or raises typed.

        *deadline* is an absolute ``time.monotonic()`` timestamp; for
        :class:`RunRequest` it is pushed into the request itself so
        the worker's cooperative deadline checks see it too.
        """
        if deadline is None:
            deadline = getattr(request, "deadline", None)
        elif isinstance(request, RunRequest) \
                and request.deadline != deadline:
            request = dataclasses.replace(request, deadline=deadline)
        entry = Entry(id=next(self._ids), request=request,
                      future=Future(), deadline=deadline, client=client,
                      on_complete=self._attribute)
        try:
            self.admission.admit(entry)
        except ServiceError:
            self.metrics.inc(f"client.{client or 'anon'}.rejected")
            raise
        self.metrics.inc("serve.submitted")
        self.metrics.inc(f"client.{client or 'anon'}.submitted")
        self._wake()
        return entry.future

    def _on_shed(self, entry: Entry) -> None:
        self.metrics.inc("serve.shed")
        self.recorder.record("admission.shed",
                             client=entry.client or "anon",
                             why="queue_full")

    def _on_breaker_transition(self, old: str, new: str) -> None:
        self.recorder.record("breaker.transition",
                             from_state=old, to_state=new)

    def enable_tracing(self, name: str = "serve") -> Tracer:
        """Attach the supervisor tracer (idempotent).

        From then on every dispatched :class:`RunRequest` is traced
        end-to-end: the worker ships its span tree back and
        :meth:`_on_result` grafts it — under synthetic ``queue`` /
        ``worker:{id}`` phase spans — below a ``request:{id}`` span in
        this tracer.
        """
        if self.tracer is None:
            self.tracer = Tracer(name)
        return self.tracer

    def export_trace(self, path: str) -> str:
        """Write the supervisor trace (plus metrics + flight events)
        as Chrome-trace JSON to *path*; returns the path."""
        if self.tracer is None:
            raise RuntimeError("tracing is not enabled on this service")
        from repro.obs.export import write_trace
        write_trace(path, self.tracer.to_dict(),
                    metrics=self.metrics.snapshot(),
                    events=self.recorder.events())
        return path

    def _attribute(self, entry: Entry, ok: bool) -> None:
        """Per-client outcome accounting (Entry resolution hook).

        Thread-safety: runs wherever the entry resolves (supervisor
        thread, or the caller's thread on pre-dispatch failures);
        MetricsRegistry is lock-protected, so that's fine.
        """
        name = entry.client or "anon"
        self.metrics.inc(f"client.{name}.{'ok' if ok else 'err'}")

    def run(self, request, deadline: Optional[float] = None,
            timeout: Optional[float] = None, client: str = ""):
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(request, deadline=deadline,
                           client=client).result(timeout)

    def health(self) -> Dict[str, object]:
        from repro.serve.health import health_report
        return health_report(self)

    # -- supervisor internals (supervisor thread only) -------------------

    def _wake(self) -> None:
        try:
            self._wake_w.send(b"\x00")
        except OSError:
            pass

    def _spawn(self, slot: int) -> None:
        parent, child = self._mp.Pipe(duplex=True)
        self._generation[slot] += 1
        gen = self._generation[slot]
        worker_id = f"w{slot}g{gen}"
        proc = self._mp.Process(
            target=worker_main,
            args=(worker_id, child, self.config.heartbeat_interval),
            name=f"serve-{worker_id}", daemon=True)
        proc.start()
        child.close()  # parent keeps one end only, so EOF means death
        self._handles[slot] = WorkerHandle(slot, gen, proc, parent)
        self.metrics.inc("serve.worker.spawn")
        self.recorder.record("worker.spawn", worker=worker_id,
                             pid=proc.pid)

    def _kill_worker(self, handle: WorkerHandle) -> None:
        try:
            handle.proc.kill()
        except (OSError, AttributeError):
            pass

    def _worker_died(self, slot: int, reason: str) -> None:
        handle = self._handles[slot]
        if handle is None:
            return
        self._handles[slot] = None
        entry = handle.busy
        handle.busy = None
        try:
            handle.conn.close()
        except OSError:
            pass
        self._kill_worker(handle)
        handle.proc.join(1.0)
        now = time.monotonic()
        if handle.deadline_kill:
            # Our own deadline backstop: the slot is healthy, restart
            # immediately and keep the crash streak clean.
            self._restart_at[slot] = now
        else:
            self._crash_streak[slot] += 1
            streak = self._crash_streak[slot]
            delay = self._restart_delays[
                min(streak - 1, len(self._restart_delays) - 1)]
            self._restart_at[slot] = now + delay
            self.metrics.inc("serve.worker.crash")
        self.recorder.record("worker.exit", worker=handle.id, why=reason)
        if entry is None or entry.done:
            return
        self.metrics.inc(f"client.{entry.client or 'anon'}.worker_lost")
        if entry.probe:
            self.breaker.abort_probe()
        if entry.expired(now):
            entry.complete(error=ServiceDeadlineError(
                f"request {entry.id} deadline expired while its worker "
                f"died ({reason})", phase="running"))
        elif entry.attempts >= 1 + self.config.max_redispatch:
            entry.complete(error=ServiceWorkerError(
                f"request {entry.id} lost {entry.attempts} workers "
                f"({reason}); redispatch budget "
                f"({self.config.max_redispatch}) exhausted",
                attempts=entry.attempts))
            self.metrics.inc("serve.err")
        else:
            self.admission.requeue_front(entry)
            self.metrics.inc("serve.redispatch")
            self.recorder.record("redispatch", request=entry.id,
                                 attempts=entry.attempts)

    def _dispatch(self, handle: WorkerHandle, entry: Entry) -> None:
        entry.attempts += 1
        request = entry.request
        if isinstance(request, RunRequest):
            mode = self.breaker.acquire()
            entry.probe = mode == "probe"
            entry.degrade = mode == "degrade"
            if entry.degrade and not request.degrade:
                request = dataclasses.replace(request, degrade=True)
                self.metrics.inc("serve.degraded_dispatch")
            if self.tracer is not None and request.trace_ctx is None:
                request = dataclasses.replace(
                    request, trace_ctx=TraceContext(
                        trace_id=f"req{entry.id}",
                        parent=f"request:{entry.id}",
                        client=entry.client))
        handle.busy = entry
        handle.dispatched_at = time.monotonic()
        entry.dispatched_at = handle.dispatched_at
        self.metrics.observe("serve.queue_wait_s",
                             handle.dispatched_at - entry.admitted_at)
        try:
            handle.conn.send(("run", entry.id, request, entry.attempts))
        except (OSError, ValueError, BrokenPipeError):
            self._worker_died(handle.slot, "send failed")
            return
        device = getattr(getattr(request, "spec", None), "device", None)
        if device:
            handle.warm_devices.add(device)
        self.metrics.inc("serve.dispatch")

    def _map_worker_error(self, exc: Exception) -> ServiceError:
        if isinstance(exc, ServiceError):
            return exc
        if isinstance(exc, DeadlineExceeded):
            return ServiceDeadlineError(str(exc), phase=exc.site)
        return ServiceRequestError(
            f"{type(exc).__name__}: {exc}", cause=exc,
            site=getattr(exc, "site", "unknown"))

    def _breaker_mode(self, entry: Entry, degraded: bool) -> str:
        if entry.degrade or degraded:
            return "degrade"
        return "probe" if entry.probe else "sk"

    def _on_result(self, handle: WorkerHandle, msg) -> None:
        _, req_id, status, payload = msg
        entry = handle.busy
        handle.busy = None
        self._crash_streak[handle.slot] = 0
        if entry is None or entry.id != req_id:
            return  # stale reply from a superseded dispatch
        now = time.monotonic()
        if status == "ok":
            if isinstance(payload, RunResult):
                payload.worker = handle.id
                payload.attempts = entry.attempts
                for name, count in payload.evictions.items():
                    self.metrics.inc(f"cache.{name}", count)
                compile_faults = sum(payload.faults.get(s, 0)
                                     for s in COMPILE_SITES)
                self.breaker.record(
                    compile_faults,
                    self._breaker_mode(entry, payload.degraded))
                self._telemetry(handle, entry, payload, now)
            if entry.complete(result=payload):
                self.metrics.inc("serve.ok")
                self.metrics.observe("serve.latency_s",
                                     now - entry.admitted_at)
                self._observe_latency(entry, payload, now)
        else:
            exc = payload
            site = getattr(exc, "site", "")
            if isinstance(site, str) and site.startswith("nvcc."):
                self.breaker.record(
                    1, self._breaker_mode(entry, False))
            elif entry.probe:
                self.breaker.abort_probe()
            if entry.complete(error=self._map_worker_error(exc)):
                self.metrics.inc("serve.err")

    def _observe_latency(self, entry: Entry, payload, now: float) -> None:
        """Per-client / per-device / per-phase latency histograms."""
        latency = now - entry.admitted_at
        client = entry.client or "anon"
        name = f"client.{client}.latency_s"
        if self._client_slo is not None:
            # Idempotent registration: the config's one client SLO
            # applies to every client histogram as it appears.
            self.metrics.set_slo(name, self._client_slo)
        self.metrics.observe(name, latency)
        device = getattr(getattr(entry.request, "spec", None),
                         "device", None)
        if device:
            self.metrics.observe(f"serve.device.{device}.latency_s",
                                 latency)
        if entry.dispatched_at:
            exec_s = getattr(payload, "wall_seconds", 0.0) \
                or max(0.0, now - entry.dispatched_at)
            self.metrics.observe("serve.exec_s", exec_s)

    def _telemetry(self, handle: WorkerHandle, entry: Entry,
                   payload: RunResult, now: float) -> None:
        """Fold a traced worker result into the supervisor's plane.

        Ships three things back from the worker: flight events (into
        :attr:`recorder`, re-originated to the worker id), per-phase
        compile/launch time (summed from the shipped span tree's
        categories into ``serve.phase.*`` histograms), and — when
        supervisor tracing is on — the span tree itself, grafted under
        a ``request:{id}`` span with synthetic ``queue`` and
        ``worker:{id}`` phase spans so the export reads
        admission → queue → worker → launch end-to-end.
        """
        if payload.events:
            self.recorder.extend(payload.events, origin=handle.id)
        trace = payload.trace
        if not trace:
            return
        spans = trace.get("spans") or []
        if spans:
            self.metrics.observe(
                "serve.phase.compile_s",
                sum(s["dur"] for s in spans if s["cat"] == "compile"))
            self.metrics.observe(
                "serve.phase.launch_s",
                sum(s["dur"] for s in spans if s["cat"] == "launch"))
        if self.tracer is None or not spans:
            return
        queue_wait = max(0.0, entry.dispatched_at - entry.admitted_at)
        exec_wall = getattr(payload, "wall_seconds", 0.0) \
            or max(0.0, now - entry.dispatched_at)
        base = min(s["start"] for s in spans)
        extent = max(s["start"] + s["dur"] for s in spans) - base
        # The worker span must contain the shipped subtree even when
        # the two clocks disagree slightly.
        exec_dur = max(exec_wall, extent)
        # Synthetic phase spans: the graft wrapper itself becomes the
        # request:{id} span, so the export's roots are the two phases.
        synthetic = [
            {"sid": 1, "parent": None, "name": "queue", "cat": "serve",
             "start": 0.0, "dur": queue_wait, "tid": 0,
             "attrs": {"client": entry.client or "anon"}},
            {"sid": 2, "parent": None, "name": f"worker:{handle.id}",
             "cat": "serve", "start": queue_wait, "dur": exec_dur,
             "tid": 0, "attrs": {"worker": handle.id,
                                 "attempts": entry.attempts}},
        ]
        shift = (queue_wait + exec_dur - extent) - base
        for s in spans:
            synthetic.append({
                "sid": s["sid"] + 2,
                "parent": s["parent"] + 2 if s["parent"] is not None
                else 2,
                "name": s["name"], "cat": s["cat"],
                "start": s["start"] + shift, "dur": s["dur"],
                "tid": s["tid"], "attrs": s["attrs"]})
        self.tracer.graft(
            {"name": trace.get("name", f"req{entry.id}"),
             "spans": synthetic},
            f"request:{entry.id}", cat="serve",
            client=entry.client or "anon", worker=handle.id,
            attempts=entry.attempts)

    def _check_worker(self, handle: WorkerHandle, now: float) -> None:
        """Deadline backstop + hang detection for one live worker."""
        entry = handle.busy
        if entry is not None and entry.deadline is not None \
                and now > entry.deadline + self.config.kill_grace:
            if entry.probe:
                self.breaker.abort_probe()
            entry.complete(error=ServiceDeadlineError(
                f"request {entry.id} overran its deadline by more than "
                f"kill_grace={self.config.kill_grace}s; worker "
                f"{handle.id} killed", phase="running"))
            handle.busy = None
            handle.deadline_kill = True
            self.metrics.inc("serve.deadline_kill")
            self.metrics.inc("serve.err")
            self.recorder.record("deadline.kill", request=entry.id,
                                 worker=handle.id)
            self._kill_worker(handle)
            self._worker_died(handle.slot, "deadline backstop")
            return
        if now - handle.last_beat > self.config.hang_timeout:
            self.metrics.inc("serve.hang_kill")
            self.recorder.record("worker.kill", worker=handle.id,
                                 why="heartbeat stale")
            self._kill_worker(handle)
            self._worker_died(handle.slot, "heartbeat stale")

    def _drain_wake(self) -> None:
        try:
            while self._wake_r.recv(4096):
                pass
        except (BlockingIOError, OSError):
            pass

    def _read_conn(self, slot: int) -> None:
        handle = self._handles[slot]
        while handle is not None and self._handles[slot] is handle:
            try:
                if not handle.conn.poll():
                    return
                msg = handle.conn.recv()
            except (EOFError, OSError):
                self._worker_died(slot, "pipe closed")
                return
            tag = msg[0]
            if tag in (MSG_READY, MSG_HEARTBEAT):
                handle.last_beat = time.monotonic()
            elif tag == MSG_RESULT:
                handle.last_beat = time.monotonic()
                self._on_result(handle, msg)

    def _idle_worker(self) -> Optional[WorkerHandle]:
        for handle in self._handles:
            if handle is not None and handle.busy is None:
                return handle
        return None

    def _affine_worker(self, entry: Entry) -> Optional[WorkerHandle]:
        """An idle worker already warm for the entry's device, if any.

        Device-affinity placement (the fleet's policy, applied to the
        service's worker pool): under a heterogeneous workload, a
        request preferentially lands on a worker that has already
        built the warm per-device context its spec needs, instead of
        paying a cold compile on whichever slot was first-idle.
        """
        device = getattr(getattr(entry.request, "spec", None),
                         "device", None)
        if device is None:
            return None
        for handle in self._handles:
            if handle is not None and handle.busy is None \
                    and device in handle.warm_devices:
                self.metrics.inc("serve.affinity_hit")
                return handle
        return None

    def _busy_count(self) -> int:
        return sum(1 for h in self._handles
                   if h is not None and h.busy is not None)

    def _loop(self) -> None:
        cfg = self.config
        try:
            while True:
                now = time.monotonic()
                if self._stopping and not self._drain:
                    break
                if self._stopping and self._drain \
                        and self.admission.depth == 0 \
                        and self._busy_count() == 0:
                    break
                for slot in range(cfg.workers):
                    if self._handles[slot] is None \
                            and now >= self._restart_at[slot]:
                        self._spawn(slot)
                for handle in list(self._handles):
                    if handle is not None:
                        self._check_worker(handle, now)
                self.admission.sweep_expired()
                while True:
                    handle = self._idle_worker()
                    if handle is None:
                        break
                    entry = self.admission.next_ready()
                    if entry is None:
                        break
                    self._dispatch(self._affine_worker(entry) or handle,
                                   entry)
                waitables = [self._wake_r]
                for handle in self._handles:
                    if handle is not None:
                        waitables.append(handle.conn)
                try:
                    ready = _conn_wait(waitables, timeout=cfg.tick)
                except OSError:
                    ready = []
                for obj in ready:
                    if obj is self._wake_r:
                        self._drain_wake()
                        continue
                    for slot, handle in enumerate(self._handles):
                        if handle is not None and handle.conn is obj:
                            self._read_conn(slot)
                            break
        finally:
            self._teardown()

    def _teardown(self) -> None:
        shutdown_err = ServiceShutdownError(
            "service stopped before request completed")
        for entry in self.admission.drain_pending():
            entry.complete(error=shutdown_err)
        for slot, handle in enumerate(self._handles):
            if handle is None:
                continue
            if handle.busy is not None and not handle.busy.done:
                handle.busy.complete(error=shutdown_err)
                handle.busy = None
            try:
                handle.conn.send(("stop",))
            except (OSError, ValueError, BrokenPipeError):
                pass
        deadline = time.monotonic() + 2.0
        for handle in self._handles:
            if handle is None:
                continue
            handle.proc.join(max(0.0, deadline - time.monotonic()))
            if handle.proc.is_alive():
                self._kill_worker(handle)
                handle.proc.join(1.0)
            try:
                handle.conn.close()
            except OSError:
                pass
        self._handles = [None] * self.config.workers
        self._stopped.set()
        self.recorder.record("note", text="service stopped")
