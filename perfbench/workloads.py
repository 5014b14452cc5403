"""The three closed-loop workloads, untraced and traced.

Each ``run_*`` function measures one workload for ``seconds`` and
returns an :class:`Outcome` with every end-to-end metric; each
``trace_*`` function runs the workload's fixed operation list three
times (untraced, then traced twice under a :class:`Ledger`) and returns
the per-layer metrics.  Outputs are checked after the timed window.
"""

from __future__ import annotations

import itertools
import os
import pickle
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional

import repro.apps.harness as harness_mod
from repro.runtime.context import ExecutionContext
from repro.serve import ServiceClient
from repro.serve.errors import ServiceError
from repro.tuning import harness_autotune

from .check import load_optima, output_ok, pick_ok
from .daemon import Daemon, RssSampler, program_env
from .inputs import (MEMORY_BYTES, TUNE_GRIDS, TUNE_REJECTED, cold_stream,
                    cold_warmups, warm_pairs)
from .ledger import Ledger
from .metrics import EXACT, PER_LAYER, SERVE_PASS, SETUP_REPEATS, percentile

#: Fixed operation counts of the traced serve runs.
TRACE_REQUESTS = {"serve-warm": 90, "serve-cold": 36}


@dataclass
class Outcome:
    metrics: Dict[str, float]
    attempted: int
    failures: List[str] = field(default_factory=list)
    #: The last traced run's spans (:meth:`Ledger.export`).
    spans: List[dict] = field(default_factory=list)


# -- tune ----------------------------------------------------------------

def _tune_pass(seed: int, grids) -> dict:
    return {app: harness_autotune(app, problem, axes, seed=seed,
                                  memory_bytes=MEMORY_BYTES)
            for app, (problem, axes) in grids.items()}


def _eval_ok(app: str, record) -> bool:
    """Valid, or a config the device is expected to reject."""
    if record.valid:
        return True
    return record.error.startswith("OccupancyError") and any(
        all(record.config.get(k) == v for k, v in pattern.items())
        for pattern in TUNE_REJECTED.get(app, ()))


def _tune_failures(tuners: dict, optima: dict) -> List[str]:
    """One entry per failed evaluation.  A wrong pick fails every
    evaluation of that app's tuning: the user waited for a wrong config.
    """
    failures = []
    for app, tuner in tuners.items():
        if not pick_ok(tuner.result.best, optima[app]):
            failures += [f"tune {app}: pick {tuner.result.best.config} "
                         f"({tuner.result.best.seconds:.4g} s) is not "
                         f"the exhaustive optimum ({optima[app]:.4g} s)"
                         ] * len(tuner.records)
            continue
        failures += [f"tune {app}: {r.config} invalid: {r.error}"
                     for r in tuner.records if not _eval_ok(app, r)]
    return failures


def _spawn_setup(root: Path) -> float:
    """Seconds from spawning a fresh interpreter to the tuning stack
    being imported and ready."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c",
         "import repro.tuning.app_sweeps, repro.apps.harness; "
         "print('ready', flush=True)"],
        cwd=root, env=program_env(root), stdout=subprocess.PIPE, text=True)
    with proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError("tuning stack failed to import")
    return elapsed


def run_tune(root: Path, seed: int, seconds: float,
             grids=TUNE_GRIDS, optima: Optional[dict] = None) -> Outcome:
    optima = optima or load_optima(root)
    setups = [_spawn_setup(root) for _ in range(SETUP_REPEATS)]
    passes, failures = [], []
    with Ledger(layers=False) as clock, RssSampler([os.getpid()]) as rss:
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            t0 = time.perf_counter()
            tuners = _tune_pass(seed, grids)
            passes.append(time.perf_counter() - t0)
            failures += _tune_failures(tuners, optima)
        window = time.perf_counter() - start
    latencies = [s.duration for s in clock.request_spans()]
    attempted = len(latencies)
    return Outcome({
        "latency_p50_s": statistics.median(latencies),
        "latency_p90_s": percentile(latencies, 90),
        "throughput_rps": (attempted - len(failures)) / window,
        "pass_s": statistics.median(passes),
        "ok_frac": (attempted - len(failures)) / attempted,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss.high_water_mb(),
    }, attempted, failures)


def trace_tune(root: Path, seed: int, grids=TUNE_GRIDS,
               optima: Optional[dict] = None) -> Outcome:
    optima = optima or load_optima(root)
    t0 = time.perf_counter()
    failures = _tune_failures(_tune_pass(seed, grids), optima)
    untraced = time.perf_counter() - t0
    runs, walls = [], []
    for _ in range(2):
        with Ledger() as ledger:
            t0 = time.perf_counter()
            tuners = _tune_pass(seed, grids)
            wall = time.perf_counter() - t0
        failures += _tune_failures(tuners, optima)
        metrics = ledger.layer_metrics()
        metrics["tuning.evals"] = sum(t.result.evals for t in tuners.values())
        metrics["tuning.overhead_s"] = wall - sum(
            s.duration for s in ledger.request_spans())
        runs.append(metrics)
        walls.append(wall)
    attempted = 3 * runs[0]["tuning.evals"]
    return _traced_outcome(runs, walls, untraced, {}, attempted, failures,
                           ledger)


# -- serve ---------------------------------------------------------------

@dataclass
class Reply:
    request: object
    start: float
    end: float
    result: object = None
    error: Optional[BaseException] = None

    @property
    def latency(self) -> float:
        return self.end - self.start


def _closed_loop(clients, requests: Iterator, seconds: float) -> List[Reply]:
    """Each client sends its next request only after its previous reply,
    until the window ends or the requests run out."""
    lock = threading.Lock()
    end_at = time.perf_counter() + seconds
    replies: List[Reply] = []
    crashed: List[BaseException] = []

    def drive(client):
        try:
            _drive(client)
        except BaseException as exc:  # re-raised below, after the join
            crashed.append(exc)

    def _drive(client):
        while True:
            with lock:
                request = next(requests, None)
            if request is None or time.perf_counter() >= end_at:
                return
            reply = Reply(request, time.perf_counter(), 0.0)
            try:
                reply.result = client.run(request)
            except ServiceError as exc:
                reply.error = exc
            reply.end = time.perf_counter()
            with lock:
                replies.append(reply)

    threads = [threading.Thread(target=drive, args=(c,)) for c in clients]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if crashed:
        raise crashed[0]
    replies.sort(key=lambda r: r.start)
    return replies


def _reply_failures(replies: List[Reply]) -> List[str]:
    failures = []
    for r in replies:
        if r.error is not None:
            failures.append(f"{r.request.spec.app}: "
                            f"{type(r.error).__name__}: {r.error}")
        elif not output_ok(r.request.spec, r.result.output):
            failures.append(f"{r.request.spec.app} {r.request.config}: "
                            f"output differs from the reference")
    return failures


class _Service:
    """A daemon plus one client connection per concurrent caller."""

    def __init__(self, root: Path, workers: int, warmups: List):
        self.daemon = Daemon(root, workers)
        self.clients = []
        try:
            self.clients = [ServiceClient(*self.daemon.address)
                            for _ in range(workers)]
            warm = _closed_loop(self.clients, iter(warmups), float("inf"))
            if any(r.error is not None for r in warm):
                raise RuntimeError("serve warm-up failed")
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        for client in self.clients:
            client.close()
        self.daemon.stop()


def _serve_setup(root: Path, workers: int, warmups: List):
    """Set up :data:`SETUP_REPEATS` times; keep the last service."""
    setups, service = [], None
    for _ in range(SETUP_REPEATS):
        if service is not None:
            service.close()
        t0 = time.perf_counter()
        service = _Service(root, workers, warmups)
        setups.append(time.perf_counter() - t0)
    return statistics.median(setups), service


def _serve_plan(kind: str, seed: int):
    """(workers, warm-up requests, request iterator) for *kind*."""
    if kind == "serve-warm":
        pairs = warm_pairs(seed)
        return 1, pairs, itertools.cycle(pairs)
    return 2, cold_warmups(2), iter(cold_stream(seed))


def run_serve(root: Path, kind: str, seed: int, seconds: float) -> Outcome:
    workers, warmups, requests = _serve_plan(kind, seed)
    setup_s, service = _serve_setup(root, workers, warmups)
    try:
        with RssSampler(service.daemon.pids()) as rss:
            start = time.perf_counter()
            replies = _closed_loop(service.clients, requests, seconds)
            window = max(r.end for r in replies) - start
    finally:
        service.close()
    failures = _reply_failures(replies)
    latencies = [r.latency for r in replies]
    # A run too short for one full block (a smoke run) times what it has.
    blocks = [replies[i:i + SERVE_PASS]
              for i in range(0, len(replies) - SERVE_PASS + 1, SERVE_PASS)
              ] or [replies]
    ok = len(replies) - len(failures)
    return Outcome({
        "latency_p50_s": statistics.median(latencies),
        "latency_p90_s": percentile(latencies, 90),
        "throughput_rps": ok / window,
        "pass_s": statistics.median(
            max(r.end for r in b) - b[0].start for b in blocks),
        "ok_frac": ok / len(replies),
        "setup_s": setup_s,
        "peak_rss_mb": rss.high_water_mb(),
    }, len(replies), failures)


def _serve_layer(root: Path, kind: str, seed: int, requests: List) -> tuple:
    """serve.* metrics from the daemon, untraced, over *requests*."""
    workers, warmups, _ = _serve_plan(kind, seed)
    service = _Service(root, workers, warmups)
    try:
        replies = _closed_loop(service.clients, iter(requests),
                               float("inf"))
        counters = service.clients[0].health()["metrics"]["counters"]
    finally:
        service.close()
    done = [r for r in replies if r.error is None]
    metrics = {
        "serve.overhead_s": statistics.median(
            r.latency - r.result.wall_seconds for r in done),
        "serve.reply_bytes": statistics.median(
            len(pickle.dumps(r.result)) for r in done),
        "serve.restarts": counters.get("serve.worker.spawn", 0) - workers,
        "serve.redispatches": counters.get("serve.redispatch", 0),
        "serve.shed": counters.get("serve.shed", 0),
    }
    return metrics, len(replies), _reply_failures(replies)


def _replay(kind: str, seed: int, requests: List,
            ledger: Optional[Ledger]) -> tuple:
    """Run *requests* inline through ``run_request``: one warm context
    for serve-warm (warmed before timing), a fresh one per request for
    serve-cold.  Returns (wall seconds, failures)."""
    context = None
    if kind == "serve-warm":
        pairs = warm_pairs(seed)
        context = ExecutionContext(device=pairs[0].spec.device_spec())
        for request in pairs:
            harness_mod.run_request(request, context=context)
    failures, results = [], []
    with ledger or Ledger(layers=False):
        t0 = time.perf_counter()
        for request in requests:
            results.append(harness_mod.run_request(request, context=context))
        wall = time.perf_counter() - t0
    for request, result in zip(requests, results):
        if not output_ok(request.spec, result.output):
            failures.append(f"inline {request.spec.app} {request.config}: "
                            f"output differs from the reference")
    return wall, failures


def trace_serve(root: Path, kind: str, seed: int,
                count: Optional[int] = None) -> Outcome:
    count = count or TRACE_REQUESTS[kind]
    _, _, stream = _serve_plan(kind, seed)
    requests = list(itertools.islice(stream, count))
    serve_metrics, attempted, failures = _serve_layer(root, kind, seed,
                                                     requests)
    untraced, more = _replay(kind, seed, requests, None)
    failures += more
    runs, walls = [], []
    for _ in range(2):
        ledger = Ledger()
        wall, more = _replay(kind, seed, requests, ledger)
        failures += more
        runs.append(ledger.layer_metrics())
        walls.append(wall)
    attempted += 3 * len(requests)
    return _traced_outcome(runs, walls, untraced, serve_metrics, attempted,
                           failures, ledger)


# -- shared --------------------------------------------------------------

def _traced_outcome(runs, walls, untraced, serve_metrics, attempted,
                    failures, ledger) -> Outcome:
    """Check the exact counts repeat; layers a workload does not reach
    read 0."""
    first, second = runs
    for name in EXACT:
        if first.get(name, 0) != second.get(name, 0):
            failures.append(f"exact count {name} differs across two "
                            f"traced runs: {first[name]} != {second[name]}")
    metrics = {name: 0 for name in PER_LAYER}
    metrics.update(second)
    metrics.update(serve_metrics)
    metrics["obs.trace_overhead"] = statistics.median(walls) / untraced - 1
    return Outcome(metrics, attempted, failures, ledger.export())
