"""The serve worker process: warm contexts, heartbeats, one request at
a time.

Each worker owns one end of a duplex pipe to the supervisor.  A
daemon thread beats on the pipe every ``heartbeat_interval`` seconds
so the supervisor can tell "busy" from "dead or wedged"; the main
thread blocks on :meth:`Connection.recv` for work.

The warm path is the whole point of the daemon (§4.3: specialization
cost is amortized by reuse): the worker keeps one long-lived
:class:`~repro.runtime.context.ExecutionContext` *per device model*
and evaluates every request against it via
``run_request(request, context=ctx)``, so repeated specs hit the
compiled-binary, launch-plan, gang-prototype, and trace caches instead
of rebuilding them per request.  Hermeticity survives because
per-request state (fault injector, tracer, deadline) is scoped inside
``run_request`` and cache hits are bit-identical to misses by
construction.

A warm worker keeps a working set, not its history: each context's
:class:`~repro.gpupf.cache.KernelCache` holds at most ``MAX_MODULES``
modules, and an evicted module's launch plans go with it.  Each
RunResult reply carries the worker's ``kernel_evictions`` and
``plan_evictions`` since its previous reply, which the supervisor sums
into its ``cache.*`` counters for `/health`.  The worker owns its
process's heap, so it also sets the collector's young-generation
threshold (:data:`GC_THRESHOLD`); library calls that run in a caller's
process never touch it.

The worker also evaluates sweep grid cells (:class:`SweepCell`, from
``Sweeper(jobs>1)`` and ``DeviceFleet.map_grid``) with the inline
sweep's ``_eval_config``, imported only when the first cell arrives.

Every evaluation ends in exactly one reply: ``("result", req_id,
"ok", RunResult)`` or ``("result", req_id, "err", exception)`` — the
exception *instance* ships (type, fault site, and fields survive
pickling), so the supervisor can map it onto the ServiceError ladder.
A worker that dies instead of replying is the supervisor's problem,
by design.
"""

from __future__ import annotations

import gc
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict

from repro.apps.harness import RunRequest, RunResult, run_request
from repro.gpusim import DEVICES
from repro.runtime.context import ExecutionContext
from repro.serve.chaos import CrashRequest, SleepRequest

#: Message tags on the worker->supervisor pipe.
MSG_READY = "ready"
MSG_HEARTBEAT = "hb"
MSG_RESULT = "result"

#: The collector's thresholds in a worker process.  The young
#: generation holds about one request's net allocations (13k objects
#: median, 27k p90 on the serve-cold stream); at the default 700 the
#: older generations fill fast enough to force a full collection over
#: the warm caches about once every 11 requests.
GC_THRESHOLD = (20_000, 10, 10)

#: The warm-cache eviction counts a RunResult reply carries.
EVICTION_COUNTERS = ("kernel_evictions", "plan_evictions")


@dataclass(frozen=True)
class SweepCell:
    """One sweep grid cell: ``run(config)``, recorded at ``index``."""

    run: Callable
    config: dict
    index: int


def _heartbeat_loop(conn, send_lock: threading.Lock,
                    interval: float, stop: threading.Event) -> None:
    while not stop.wait(interval):
        try:
            with send_lock:
                conn.send((MSG_HEARTBEAT, time.monotonic()))
        except (OSError, ValueError, BrokenPipeError):
            return  # supervisor went away; the process is dying anyway


def _evaluate(msg, contexts: Dict[str, ExecutionContext]):
    """Evaluate one ("run", id, request, delivery) message."""
    _, _req_id, request, delivery = msg
    if isinstance(request, (CrashRequest, SleepRequest)):
        return request.execute(delivery)
    if isinstance(request, SweepCell):
        from repro.tuning.sweep import _eval_config
        record = _eval_config(request.run, request.config)
        record.index = request.index
        return record
    if not isinstance(request, RunRequest):
        raise TypeError(f"worker cannot evaluate "
                        f"{type(request).__name__}")
    device = request.spec.device
    ctx = contexts.get(device)
    if ctx is None:
        ctx = ExecutionContext(device=DEVICES[device],
                               name=f"serve:{device}")
        contexts[device] = ctx
    return run_request(request, context=ctx)


def _eviction_totals(contexts: Dict[str, ExecutionContext]
                     ) -> Dict[str, int]:
    """The worker's :data:`EVICTION_COUNTERS`, summed over contexts."""
    return {
        "kernel_evictions": sum(ctx.kernel_cache.stats()["evictions"]
                                for ctx in contexts.values()),
        "plan_evictions": sum(ctx.metrics.counter("cache.plan_evictions")
                              for ctx in contexts.values()),
    }


def worker_main(worker_id: str, conn,
                heartbeat_interval: float = 0.2) -> None:
    """Process entry point: serve requests until told to stop."""
    gc.set_threshold(*GC_THRESHOLD)
    send_lock = threading.Lock()
    stop = threading.Event()
    beat = threading.Thread(
        target=_heartbeat_loop,
        args=(conn, send_lock, heartbeat_interval, stop),
        name=f"{worker_id}-heartbeat", daemon=True)
    beat.start()
    contexts: Dict[str, ExecutionContext] = {}
    reported = dict.fromkeys(EVICTION_COUNTERS, 0)
    try:
        with send_lock:
            conn.send((MSG_READY, time.monotonic()))
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                return  # supervisor side closed: shut down
            if msg[0] == "stop":
                return
            if msg[0] != "run":
                continue  # unknown message: ignore, stay alive
            req_id = msg[1]
            try:
                result = _evaluate(msg, contexts)
                if isinstance(result, RunResult):
                    totals = _eviction_totals(contexts)
                    result.evictions = {k: totals[k] - reported[k]
                                        for k in EVICTION_COUNTERS}
                    reported = totals
                reply = (MSG_RESULT, req_id, "ok", result)
            except Exception as exc:
                reply = (MSG_RESULT, req_id, "err", exc)
            try:
                with send_lock:
                    conn.send(reply)
            except (OSError, ValueError, BrokenPipeError):
                return
    finally:
        stop.set()
        try:
            conn.close()
        except OSError:
            pass
