"""Metric definitions and the layer -> end-to-end prediction map.

``BENCHMARK.json`` lists names, units and bounds; this module adds what
that file has no room for: what each metric means, and for every
per-layer metric the end-to-end metric it should move and the workloads
it should move it on.  ``tests/test_perfbench.py`` checks the two agree.

End-to-end metrics are reported for every workload, because the
benchmark is run one workload at a time and each run prints the same
set:

* ``latency_p50_s`` / ``latency_p90_s`` -- per operation at the caller:
  one tuner evaluation on ``tune``, one request on ``serve-*``.  p90 is
  the highest percentile with at least ten samples beyond it at these
  run lengths.
* ``throughput_rps`` -- correct operations per second of the timed
  window.
* ``pass_s`` -- wall time of one pass over a fixed block of operations,
  median over the passes of the run.  On ``tune`` a pass is the whole
  three-grid tuning pass, the time a user waits for a tuned config; on
  ``serve-*`` it is a block of :data:`SERVE_PASS` consecutive requests.
* ``ok_frac`` -- correct operations / operations attempted.  Typed
  errors, sheds and wrong outputs all count as failures.
* ``setup_s`` -- start of the workload to its first timed operation
  (process or daemon spawn, imports, warm-up), median of
  :data:`SETUP_REPEATS` set-ups.
* ``peak_rss_mb`` -- high-water RSS of the program's processes (the
  daemon plus its workers, or the process running the tuner): the 90th
  percentile of their summed RSS, sampled every 0.2 s over the window.

Per-layer metrics come from a traced run over a fixed operation list
(see ``ledger.py``).  Counts are totals over that list and repeat
exactly; ``*_s`` times are seconds per operation; ``*_share`` and
``*_ratio`` are fractions.
"""

from __future__ import annotations

WORKLOADS = ("tune", "serve-warm", "serve-cold")
#: Workloads left out of ``BENCHMARK.json``, with the reason.  They stay
#: runnable (``--workload serve-warm``), ungated.
DROPPED = {
    "serve-warm": "its 10-run spread of latency_p50_s and pass_s (IQR over "
                  "median, 0.19-0.42 with 30 s runs on a shared 2-core VM) "
                  "exceeded the 0.25 bound, and 50 s runs for three "
                  "workloads take too long to measure",
}

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Requests per ``pass_s`` block on the serve workloads.
SERVE_PASS = 9

END_TO_END = {
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "throughput_rps": "1/s",
    "pass_s": "s",
    "ok_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_P50, _PASS, _RPS = "latency_p50_s", "pass_s", "throughput_rps"
_TUNE, _WARM, _COLD = WORKLOADS

#: name -> (unit, better, end-to-end metrics it should move, workloads).
PER_LAYER = {
    "kernelc.compile_calls": ("count", "lower", [_P50, _PASS], [_TUNE, _COLD]),
    "kernelc.compile_s": ("s", "lower", [_P50, _PASS], [_TUNE, _COLD]),
    "kernelc.compile_share": ("ratio", "lower", [_P50, _PASS], [_TUNE, _COLD]),
    "kernelc.static_instructions": ("count", "lower", [_P50, _PASS],
                                    [_TUNE, _COLD]),
    "gpupf.cache_hits": ("count", "higher", [_PASS, _RPS], [_TUNE, _COLD]),
    "gpupf.cache_misses": ("count", "lower", [_PASS, _RPS], [_TUNE, _COLD]),
    "gpupf.cache_hit_ratio": ("ratio", "higher", [_PASS, _RPS],
                              [_TUNE, _COLD]),
    "gpupf.cache_s": ("s", "lower", [_P50], [_TUNE, _COLD]),
    "gpupf.pipeline_s": ("s", "lower", [_P50], [_WARM]),
    "gpusim.launch_calls": ("count", "lower", [_P50, _RPS], [_WARM]),
    "gpusim.launch_s": ("s", "lower", [_P50, _RPS], [_WARM]),
    "gpusim.launch_share": ("ratio", "lower", [_P50, _RPS], [_WARM]),
    "gpusim.sim_instructions": ("count", "lower", [_P50, _RPS], [_WARM]),
    "gpusim.sim_cycles": ("count", "lower", [_P50, _RPS], [_WARM]),
    "gpusim.host_ns_per_sim_instr": ("ns", "lower", [_P50, _RPS], [_WARM]),
    "gpusim.plan_hits": ("count", "higher", [_P50, _RPS], [_WARM]),
    "gpusim.plan_misses": ("count", "lower", [_P50, _RPS], [_WARM]),
    "gpusim.gang_hits": ("count", "higher", [_P50, _RPS], [_WARM]),
    "gpusim.gang_misses": ("count", "lower", [_P50, _RPS], [_WARM]),
    "gpusim.trace_hits": ("count", "higher", [_P50, _RPS], [_WARM]),
    "gpusim.trace_records": ("count", "lower", [_P50], [_COLD]),
    "gpusim.trace_deopts": ("count", "lower", [_P50], [_COLD]),
    "runtime.context_s": ("s", "lower", [_P50, _PASS], [_TUNE, _COLD]),
    "apps.request_s": ("s", "lower", [_P50], list(WORKLOADS)),
    "apps.other_s": ("s", "lower", [_P50], list(WORKLOADS)),
    "tuning.evals": ("count", "lower", [_PASS], [_TUNE]),
    "tuning.overhead_s": ("s", "lower", [_PASS], [_TUNE]),
    "serve.overhead_s": ("s", "lower", [_P50, _RPS], [_WARM, _COLD]),
    "serve.reply_bytes": ("bytes", "lower", [_P50, _RPS], [_WARM, _COLD]),
    "serve.restarts": ("count", "lower", [_RPS], [_WARM, _COLD]),
    "serve.redispatches": ("count", "lower", [_RPS], [_WARM, _COLD]),
    "serve.shed": ("count", "lower", [_RPS], [_WARM, _COLD]),
    # The cost of the benchmark's own wrappers: it should move nothing.
    "obs.trace_overhead": ("ratio", "lower", [], list(WORKLOADS)),
}

#: Counts that must repeat exactly across two traced runs on one seed.
EXACT = ("kernelc.compile_calls", "kernelc.static_instructions",
         "gpusim.sim_instructions", "gpusim.sim_cycles", "tuning.evals",
         "gpupf.cache_hits", "gpupf.cache_misses", "gpusim.plan_hits",
         "gpusim.plan_misses", "gpusim.gang_hits", "gpusim.gang_misses")


def percentile(values, q):
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]

