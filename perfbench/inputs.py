"""Seeded inputs for the three workloads.

The benchmark owns its inputs: the program only ever sees the
:class:`~repro.apps.harness.RunRequest` objects built here.  Every
population below was sized on a 2-core x86 box so that its members cost
about the same (within ~2x), which keeps p50 and p90 from landing in a
gap between apps or configs whichever members a seed draws.  No member
is a config the device rejects, so a failed request is a real failure.

PIV's ``tree`` variant is drawn only with power-of-two thread counts:
its shared-memory reduction halves ``THREADS`` and returns wrong scores
for 96, 160, 192 or 224 threads, a known program defect that
``tests/test_perfbench.py`` keeps visible as a strict expected failure.
"""

from __future__ import annotations

import random
from itertools import product
from typing import List

from repro.apps.backprojection import BPConfig, BPProblem
from repro.apps.harness import ProblemSpec, RunRequest
from repro.apps.piv import PIVConfig, PIVProblem
from repro.apps.template_matching import MatchConfig, MatchProblem

#: Simulated device memory per request.  Every problem here fits in a
#: fraction of it.  Template-matching requests leave their device memory
#: in reference cycles that only the cyclic garbage collector frees, so
#: with larger memories the serve workers' RSS swung by >50% from seed
#: to seed with the number of uncollected requests.
MEMORY_BYTES = 1 << 20
THREADS = range(32, 257, 32)
#: Thread counts the PIV ``tree`` reduction handles correctly.
POW2_THREADS = (32, 64, 128, 256)

#: The three paper-shaped autotuning grids of
#: ``benchmarks/bench_autotune.py``, whose exhaustive optima are recorded
#: in ``BENCH_autotune.json``.  PIV ``rb=16`` is kept although the device
#: rejects it (70 registers > 63): the tuner probes it and must learn it
#: is invalid, and dropping it would change the tuner's walk.
TUNE_GRIDS = {
    "piv": (
        PIVProblem("bench-at", 40, 40, mask=8, offs=3),
        {"rb": [1, 2, 4, 8, 16],
         "threads": [32, 64, 96, 128, 160, 192, 224, 256]},
    ),
    "template_matching": (
        MatchProblem("bench-at", frame_h=60, frame_w=80, tmpl_h=16,
                     tmpl_w=12, shift_h=5, shift_w=5, n_frames=1),
        {"tile": [(4, 4), (8, 4), (8, 8), (16, 8), (16, 16), (8, 16)],
         "threads": [32, 64, 96, 128, 160, 192, 224, 256]},
    ),
    "backprojection": (
        BPProblem("bench-at", nx=12, ny=12, nz=8, n_proj=6, det_u=16,
                  det_v=12),
        {"block": [(4, 4), (8, 4), (8, 8), (16, 4), (16, 8), (16, 16),
                   (32, 4), (32, 8)],
         "zb": [1, 2, 3, 4, 6, 8]},
    ),
}

#: Configs the device is expected to reject inside the tuning grids.
TUNE_REJECTED = {"piv": ({"rb": 16},)}

_TM = MatchProblem("perf", frame_h=60, frame_w=80, tmpl_h=16, tmpl_w=12,
                   shift_h=5, shift_w=5, n_frames=1)
_PIV = PIVProblem("perf", 40, 40, mask=8, offs=3)
_BP4 = BPProblem("perf", nx=8, ny=8, nz=8, n_proj=4, det_u=12, det_v=8)
_BP6 = BPProblem("perf", nx=8, ny=8, nz=8, n_proj=6, det_u=12, det_v=8)

#: serve-warm population: per app, (problem, config) members in order of
#: warm service time, all within 38-53 ms on the reference box.
WARM_POOL = {
    "template_matching": [
        (_TM, MatchConfig(tile_w=w, tile_h=h, threads=t))
        for w, h, t in [(16, 8, 64), (12, 8, 32), (16, 8, 128),
                        (12, 8, 128), (8, 16, 32), (16, 16, 32),
                        (8, 8, 32), (8, 8, 64), (16, 16, 128),
                        (16, 16, 64), (8, 16, 192), (16, 16, 256)]],
    "piv": [
        (_PIV, PIVConfig(variant=v, rb=rb, threads=t))
        for v, rb, t in [("warpspec", 2, 32), ("tree", 1, 32),
                         ("warpspec", 1, 32), ("tree", 2, 32),
                         ("warpspec", 4, 32), ("tree", 4, 32),
                         ("tree", 3, 64), ("tree", 1, 64),
                         ("tree", 2, 64)]],
    "backprojection": [
        (_BP4, BPConfig(block_x=8, block_y=4, zb=8)),
        (_BP4, BPConfig(block_x=4, block_y=8, zb=8)),
        (_BP6, BPConfig(block_x=8, block_y=8, zb=8))],
}
#: Configs drawn per app for one serve-warm run, one from each
#: consecutive cost stratum of the app's pool, so the draw barely moves
#: the run's mean service time.
WARM_PER_APP = 3


def _spec(app, problem, rng) -> ProblemSpec:
    return ProblemSpec(app, problem, seed=rng.randrange(1 << 30),
                       memory_bytes=MEMORY_BYTES)


def warm_pairs(seed: int) -> List[RunRequest]:
    """The (app, config) pairs one serve-warm run cycles over."""
    rng = random.Random(seed)
    pairs = []
    for app, pool in WARM_POOL.items():
        size = len(pool) // WARM_PER_APP
        for i in range(0, len(pool), size):
            problem, config = rng.choice(pool[i:i + size])
            pairs.append(RunRequest(_spec(app, problem, rng), config))
    rng.shuffle(pairs)
    return pairs


#: serve-cold TM search windows (shift_h, shift_w): 12 to 36 shifts each.
#: 3x3 is left out for :func:`cold_warmups`.
TM_SHIFTS = [(h, w) for h in range(3, 8) for w in range(3, 8)
             if 12 <= h * w <= 36]


def cold_stream(seed: int) -> List[RunRequest]:
    """Every serve-cold request, in order: a seeded shuffle of the TM
    and PIV config grids, so no define set repeats within a run.

    The grids are widened (21 TM shift windows, two PIV offset windows,
    both PIV variants) to 1451 members, so that a run does not exhaust
    them even with a program several times faster than today's; members
    cost 0.05-0.5 s cold.
    """
    rng = random.Random(seed)
    requests = []
    tm_specs = [_spec("template_matching",
                      MatchProblem("perf", 60, 80, 16, 12, sh, sw, 1), rng)
                for sh, sw in TM_SHIFTS]
    for spec, (w, h), t in product(
            tm_specs, [(4, 4), (8, 4), (4, 8), (8, 8), (16, 8), (8, 16),
                       (16, 16), (12, 8)], THREADS):
        requests.append(RunRequest(spec, MatchConfig(
            tile_w=w, tile_h=h, threads=t)))
    piv3 = _spec("piv", _PIV, rng)
    piv5 = _spec("piv", PIVProblem("perf", 40, 40, mask=8, offs=5), rng)
    for variant, rbs, spec, threads in [
            ("tree", range(1, 9), piv3, POW2_THREADS),
            ("warpspec", range(1, 7), piv3, THREADS),
            ("tree", range(1, 7), piv5, POW2_THREADS[:3]),
            ("warpspec", range(1, 4), piv5, (32, 64, 96))]:
        requests += [RunRequest(spec, PIVConfig(variant=variant, rb=rb,
                                                threads=t))
                     for rb, t in product(rbs, threads)]
    rng.shuffle(requests)
    return requests


def cold_warmups(count: int) -> List[RunRequest]:
    """One request per worker whose define sets are outside
    :func:`cold_stream` (shift window 3x3), so warm-up leaves the
    timed requests cold."""
    spec = ProblemSpec("template_matching",
                       MatchProblem("perf", 60, 80, 16, 12, 3, 3, 1),
                       memory_bytes=MEMORY_BYTES)
    return [RunRequest(spec, MatchConfig(tile_w=4, tile_h=4, threads=t))
            for t in THREADS[:count]]
