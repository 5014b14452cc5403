"""Fleet-of-N scaling and shard-merge overhead.

Two questions about :class:`~repro.runtime.fleet.DeviceFleet`:

* **Scaling** — sharding one request stream over N simulated devices
  must cut the *modeled* completion time (the fleet makespan — the
  busiest member's simulated seconds) roughly N-fold versus the same
  stream serialized on one device.  Modeled time is the right axis:
  the simulated devices are the resource being multiplied, and on a
  small CI box the Python interpreter (often a single core) cannot
  express device-level parallelism in wall-clock.  Measured wall time
  is still recorded, in its own ``wall_*`` fields, for the overhead
  story.
* **Shard-merge overhead** — the wall-clock tax of routing through
  the fleet (placement, the service's worker processes and their
  start/stop, pipes, accounting, in-order merge) instead of calling
  ``run_request`` in a plain loop on one warm context, as a service
  worker does.

Writes ``BENCH_fleet.json`` at the repo root.  The pytest smoke
asserts fleet-of-4 achieves >=2x modeled throughput over one device
(the PR's acceptance bar; the balanced workload actually gets ~4x),
that the merge is bit-identical to the sequential run, and that the
scheduler tax stays small.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.common import timed, write_bench_json
from repro.apps.harness import ProblemSpec, RunRequest, run_request
from repro.apps.piv import PIVConfig, PIVProblem
from repro.gpusim import DEVICES
from repro.runtime import DeviceFleet, ExecutionContext

PROBLEM = PIVProblem("bench", 40, 40, mask=8, offs=3)
REQUESTS = 16
REPEATS = 3
FLEET_SIZES = (1, 2, 4)


def request_stream():
    # Distinct seeds = distinct inputs: every request is real work,
    # and the cells are balanced (same problem shape), so an N-way
    # shard should divide the modeled makespan ~N-fold.
    return [RunRequest(spec=ProblemSpec(app="piv", problem=PROBLEM,
                                        seed=seed, device="c2070",
                                        memory_bytes=8 << 20),
                       config=PIVConfig(rb=2, threads=32,
                                        functional=True))
            for seed in range(REQUESTS)]


def run_sequential():
    def once():
        ctx = ExecutionContext(device=DEVICES["c2070"])
        return [run_request(r, context=ctx) for r in request_stream()]

    best = None
    for _ in range(REPEATS):
        wall, results = timed(once)
        best = wall if best is None else min(best, wall)
    return best, results


def run_fleet(n: int):
    def once():
        with DeviceFleet(["c2070"] * n) as fleet:
            results = fleet.run_requests(request_stream())
            return fleet, results

    best = None
    for _ in range(REPEATS):
        wall, (fleet, results) = timed(once)
        best = wall if best is None else min(best, wall)
    return best, fleet, results


def run_fleet_bench() -> dict:
    wall_seq, seq_results = run_sequential()
    modeled_single = sum(r.seconds for r in seq_results)
    fleets = {}
    bit_identical = True
    merge_overhead = 0.0
    for n in FLEET_SIZES:
        wall, fleet, results = run_fleet(n)
        bit_identical &= all(
            a.same_output(b) and a.seconds == b.seconds
            for a, b in zip(seq_results, results))
        makespan = fleet.makespan_seconds()
        fleets[n] = {
            "members": n,
            "wall_s": wall,
            "modeled_makespan_s": makespan,
            "modeled_busy_s": fleet.busy_seconds(),
            "modeled_speedup": modeled_single / makespan,
            "wall_overhead_frac": max(0.0, (wall - wall_seq) / wall_seq),
        }
        if n == 1:
            merge_overhead = fleets[n]["wall_overhead_frac"]
    payload = {
        "bench": "fleet",
        "app": "piv",
        "requests": REQUESTS,
        "repeats_best_of": REPEATS,
        "wall_sequential_s": wall_seq,
        "modeled_single_device_s": modeled_single,
        "bit_identical_merge": bit_identical,
        "wall_fleet_of_1_overhead_frac": merge_overhead,
        "fleets": {str(n): row for n, row in fleets.items()},
        "modeled_speedup_fleet_of_4": fleets[4]["modeled_speedup"],
    }
    write_bench_json("BENCH_fleet.json", payload)
    return payload


def test_fleet_of_4_doubles_modeled_throughput():
    payload = run_fleet_bench()
    # The PR's acceptance bar: >=2x modeled throughput on a fleet of
    # 4 vs a single device.  The balanced stream actually shards
    # ~evenly, so this normally lands near 4x.
    assert payload["modeled_speedup_fleet_of_4"] >= 2.0
    # Sharding must never change answers.
    assert payload["bit_identical_merge"]
    # And a fleet of 2 already beats one device.
    assert payload["fleets"]["2"]["modeled_speedup"] > 1.5


def test_shard_merge_overhead_is_small():
    payload = run_fleet_bench()
    # Fleet-of-1 runs the identical warm evaluations plus the whole
    # scheduler (placement, a worker process, pipes, accounting,
    # ordered merge); that tax must stay a modest fraction of the work
    # itself.
    assert payload["wall_fleet_of_1_overhead_frac"] < 0.50


if __name__ == "__main__":
    p = run_fleet_bench()
    print(f"{p['requests']} PIV requests, best of "
          f"{p['repeats_best_of']}, {p['cpu_count']} cpus")
    print(f"sequential: {p['wall_sequential_s']:.3f}s wall, "
          f"{p['modeled_single_device_s'] * 1e6:.1f} us modeled")
    for n, row in sorted(p["fleets"].items(), key=lambda kv: int(kv[0])):
        print(f"fleet of {n}: modeled makespan "
              f"{row['modeled_makespan_s'] * 1e6:.1f} us "
              f"({row['modeled_speedup']:.2f}x), wall "
              f"{row['wall_s']:.3f}s")
    print(f"bit-identical merge: {p['bit_identical_merge']}")
