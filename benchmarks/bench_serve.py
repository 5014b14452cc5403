"""Warm-pool service throughput vs per-request context rebuilds.

The daemon's reason to exist is §4.3's amortization argument: a warm
worker keeps its :class:`ExecutionContext` — compiled-binary, launch
plan, gang, and trace caches — across requests, so only the *first*
request per distinct config pays specialization cost.  This bench
times the same request stream three ways:

* **cold** — ``run_request`` with a fresh context per request (what a
  batch harness without the daemon does);
* **warm** — the in-process service with one worker, heartbeats at
  the production default, and a ``health()`` poll per request (the
  full supervision + reporting tax included);
* **warm, reporting muted** — the same service with heartbeats
  effectively off and no health polls, to price the supervision tax
  by difference.

Writes ``BENCH_serve.json`` at the repo root.  The pytest smoke
asserts the warm pool beats cold rebuilds and the health/heartbeat
overhead stays under 2%.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.common import timed, write_bench_json
from repro.apps.harness import ProblemSpec, RunRequest, run_request
from repro.apps.template_matching import MatchConfig, MatchProblem
from repro.serve import ServiceConfig, SpecializationService

SPEC = ProblemSpec(
    app="template_matching",
    problem=MatchProblem("bench", frame_h=60, frame_w=80, tmpl_h=16,
                         tmpl_w=12, shift_h=5, shift_w=5, n_frames=1),
    seed=11, device="c2070", memory_bytes=16 << 20)

#: Three distinct configs cycled over the stream: the warm pool
#: compiles each once; cold rebuilds compile every single request.
CONFIGS = [MatchConfig(tile_w=8, tile_h=8, threads=32),
           MatchConfig(tile_w=16, tile_h=8, threads=32),
           MatchConfig(tile_w=8, tile_h=8, threads=64)]

REQUESTS = 18
REPEATS = 3


def request_stream():
    return [RunRequest(spec=SPEC, config=CONFIGS[i % len(CONFIGS)])
            for i in range(REQUESTS)]


def run_cold() -> float:
    def once():
        for request in request_stream():
            run_request(request)  # fresh context per request

    return min(timed(once)[0] for _ in range(REPEATS))


def run_warm(heartbeat: float, poll_health: bool) -> float:
    config = ServiceConfig(workers=1, queue_capacity=REQUESTS + 2,
                           heartbeat_interval=heartbeat, tick=0.01)

    def once():
        with SpecializationService(config) as service:
            for request in request_stream():
                service.run(request)
                if poll_health:
                    service.health()

    return min(timed(once)[0] for _ in range(REPEATS))


def run_serve_bench() -> dict:
    wall_cold = run_cold()
    wall_warm = run_warm(heartbeat=0.1, poll_health=True)
    wall_muted = run_warm(heartbeat=60.0, poll_health=False)
    overhead = max(0.0, (wall_warm - wall_muted) / wall_muted)
    payload = {
        "bench": "serve",
        "app": SPEC.app,
        "requests": REQUESTS,
        "distinct_configs": len(CONFIGS),
        "repeats_best_of": REPEATS,
        "wall_cold_s": wall_cold,
        "wall_warm_s": wall_warm,
        "wall_warm_muted_s": wall_muted,
        "warm_speedup": wall_cold / wall_warm,
        "health_heartbeat_overhead_frac": overhead,
        "requests_per_s_cold": REQUESTS / wall_cold,
        "requests_per_s_warm": REQUESTS / wall_warm,
    }
    write_bench_json("BENCH_serve.json", payload)
    return payload


def test_warm_pool_beats_cold_rebuilds():
    payload = run_serve_bench()
    # The warm pool must amortize specialization: strictly faster than
    # rebuilding a context (and recompiling) per request, even paying
    # process hops, supervision, and health polls.
    assert payload["warm_speedup"] > 1.0
    # Heartbeats + health reporting price in under 2%.
    assert payload["health_heartbeat_overhead_frac"] < 0.02


if __name__ == "__main__":
    p = run_serve_bench()
    print(f"{p['requests']} requests over {p['distinct_configs']} "
          f"configs (best of {p['repeats_best_of']})")
    print(f"cold rebuilds {p['wall_cold_s']:6.2f}s "
          f"({p['requests_per_s_cold']:.1f} req/s)")
    print(f"warm service  {p['wall_warm_s']:6.2f}s "
          f"({p['requests_per_s_warm']:.1f} req/s, "
          f"{p['warm_speedup']:.2f}x)")
    print(f"health/heartbeat overhead "
          f"{100 * p['health_heartbeat_overhead_frac']:.2f}%")
