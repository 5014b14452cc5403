"""Sequential vs served sweep wall time on the PIV tuning grid.

The sweep workload is pure-Python simulator execution, so only
separate processes can overlap cells.  This bench times the same
:class:`HarnessRunner` sweep with ``jobs=1`` (inline on the caller's
thread) and ``jobs=2`` (cells served by a private
:class:`~repro.serve.supervisor.SpecializationService` with two worker
processes, started and stopped inside the timed call), verifies both
produce bit-identical records (the harness contract), and records the
measured wall seconds to ``BENCH_sweep.json`` at the repo root.

Run directly with ``python benchmarks/bench_sweep.py`` or via pytest
(it is cheap, so it is part of the default smoke).
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.common import timed, write_bench_json
from repro.apps.harness import ProblemSpec
from repro.apps.piv import PIVProblem
from repro.tuning.app_sweeps import HarnessRunner
from repro.tuning.sweep import Sweeper, best_record, grid_configs

#: Worker count of the served sweep.
JOBS = 2
REPEATS = 3

PROBLEM = PIVProblem("bench", 48, 64, mask=8, offs=5)
AXES = dict(rb=[1, 2, 4, 8], threads=[32, 64])


def _run_one(jobs: int, repeats: int = REPEATS):
    """Best-of-*repeats* wall time of one sweep with *jobs* workers."""
    best = None
    for _ in range(repeats):
        runner = HarnessRunner("piv", ProblemSpec(
            "piv", PROBLEM, seed=7, memory_bytes=16 << 20))
        sweeper = Sweeper(runner, jobs=jobs)
        wall, _ = timed(sweeper.sweep, grid_configs(**AXES))
        if best is None or wall < best[0]:
            best = (wall, sweeper)
    return best


def run_sweep_bench() -> dict:
    # One untimed pass first, so both timed modes see the same warm
    # interpreter (imports, module-level caches).
    _run_one(1, repeats=1)
    wall_seq, seq = _run_one(1)
    wall_srv, srv = _run_one(JOBS)

    def comparable(sweeper):
        return [(r.config, r.seconds, r.reg_count, r.occupancy,
                 r.valid) for r in sweeper.records]

    payload = {
        "bench": "sweep",
        "app": "piv",
        "problem": PROBLEM.name,
        "grid_points": len(grid_configs(**AXES)),
        "jobs": JOBS,
        "repeats_best_of": REPEATS,
        "wall_sequential_s": wall_seq,
        "wall_served_s": wall_srv,
        "served_speedup": wall_seq / wall_srv,
        "records_identical": comparable(srv) == comparable(seq),
        "best_config": best_record(seq.records).config,
        "cache_report": seq.cache_report,
    }
    write_bench_json("BENCH_sweep.json", payload)
    return payload


def test_served_sweep_is_bit_identical():
    payload = run_sweep_bench()
    assert payload["records_identical"]
    # Overlap needs a second core; on one core the served sweep only
    # pays its pool's start/stop overhead, which must stay modest.
    floor = 1.0 if payload["cpu_count"] > 1 else 0.7
    assert payload["served_speedup"] >= floor


if __name__ == "__main__":
    p = run_sweep_bench()
    print(f"grid {p['grid_points']} points, jobs={p['jobs']}, "
          f"cpus={p['cpu_count']}")
    print(f"sequential {p['wall_sequential_s']:6.2f}s")
    print(f"served     {p['wall_served_s']:6.2f}s "
          f"({p['served_speedup']:.2f}x)")
    print(f"identical records: {p['records_identical']}")
