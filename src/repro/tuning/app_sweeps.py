"""Application-specific sweep adapters.

Each builds the workload once and evaluates configurations with sampled
(non-functional) launches, which is how autotuning over the simulator
stays affordable: a handful of representative blocks per configuration,
extrapolated by the timing model.

Two styles:

* :class:`HarnessRunner` + :func:`harness_sweep` — the picklable path.
  The runner carries only a :class:`~repro.apps.harness.ProblemSpec`
  (seeds, not arrays) and rebuilds everything per evaluation via
  :func:`~repro.apps.harness.run_request`, so it works identically
  inline (``jobs=1``) and on worker processes (``jobs>1``).
* the legacy ``piv_sweep`` / ``tm_sweep`` / ``bp_sweep`` closures —
  inline only (closures over input arrays don't pickle), kept for
  callers that already hold generated inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Mapping, Optional

import numpy as np

from repro.apps.backprojection import Backprojector, BPConfig, BPProblem
from repro.apps.harness import (ProblemSpec, RunRequest, get_harness,
                                run_request)
from repro.apps.piv import PIVConfig, PIVProblem, PIVProcessor
from repro.apps.template_matching import (MatchConfig, MatchProblem,
                                          TemplateMatcher)
from repro.faults.plan import FaultPlan
from repro.gpusim import DeviceSpec
from repro.tuning.autotune import APP_RULES, AutoTuner
from repro.tuning.sweep import SweepRecord, Sweeper, grid_configs


@dataclass(frozen=True)
class HarnessRunner:
    """A picklable sweep evaluator: grid config dict -> SweepRecord.

    Every ``__call__`` goes through
    :func:`repro.apps.harness.run_request`, which builds a fresh
    private :class:`ExecutionContext` and (when ``fault_plan`` is set)
    re-installs the seeded injector inside whatever worker runs it —
    the guarantee that makes chaos sweeps work on worker processes.
    Because each evaluation is hermetic, results are bit-identical
    across ``jobs`` choices.
    """

    app: str
    spec: ProblemSpec
    specialize: bool = True
    sample_blocks: int = 2
    functional: bool = False
    engine: Optional[str] = None
    fault_plan: Optional[FaultPlan] = None
    #: Trace each evaluation inside its private context; the span
    #: export and metrics snapshot ride the record back (the Sweeper
    #: grafts them into its own trace as ``cell:<index>`` subtrees).
    trace: bool = False

    def __call__(self, config: dict) -> SweepRecord:
        harness = get_harness(self.app)
        app_config = harness.sweep_config(
            config, specialize=self.specialize,
            sample_blocks=self.sample_blocks,
            functional=self.functional, engine=self.engine)
        result = run_request(RunRequest(self.spec, app_config,
                                        fault_plan=self.fault_plan,
                                        trace=self.trace))
        return SweepRecord(config=config, seconds=result.seconds,
                           reg_count=result.reg_count,
                           occupancy=result.occupancy,
                           counters=result.counters,
                           faults=result.faults,
                           trace=result.trace,
                           metrics=result.metrics,
                           profiles=list(result.profiles))


def harness_sweep(app: str, problem, axes: Mapping[str, Iterable], *,
                  device: str = "c2070", seed: int = 0,
                  memory_bytes: int = 64 * 1024 * 1024,
                  specialize: bool = True, sample_blocks: int = 2,
                  functional: bool = False,
                  engine: Optional[str] = None,
                  fault_plan: Optional[FaultPlan] = None,
                  jobs: int = 1, start_method: Optional[str] = None,
                  trace: bool = False, fleet=None,
                  autotune: bool = False, **tuner_options) -> Sweeper:
    """Sweep *axes* for one app via the picklable harness protocol.

    Returns the :class:`Sweeper` after running, so callers read
    ``.records`` (grid order) and the exact ``.cache_report``.  With
    ``trace=True`` every cell is traced where it runs (inline or on a
    worker process) and the sweeper's own trace aggregates the cells.

    ``fleet`` shards the grid across a
    :class:`~repro.runtime.fleet.DeviceFleet` instead
    (*device* must be one of the fleet's device models); records merge
    back in grid order, bit-identical to the unfleeted sweep.

    ``autotune=True`` replaces the exhaustive grid walk with the
    profile-guided :class:`~repro.tuning.autotune.AutoTuner`
    (``tuner_options`` — ``budget``, ``probes``, ``patience``, … —
    forward to it): the returned sweeper's ``records`` then hold only
    the pruned evaluation sequence and the tuner itself hangs off
    ``sweeper.tuner``.
    """
    if autotune:
        tuner = harness_autotune(
            app, problem, axes, device=device, seed=seed,
            memory_bytes=memory_bytes, specialize=specialize,
            sample_blocks=sample_blocks, engine=engine,
            fault_plan=fault_plan, jobs=jobs,
            start_method=start_method, trace=trace, **tuner_options)
        tuner.sweeper.tuner = tuner
        return tuner.sweeper
    if tuner_options:
        raise TypeError("tuner options "
                        f"{sorted(tuner_options)} need autotune=True")
    spec = ProblemSpec(app, problem, seed=seed, device=device,
                       memory_bytes=memory_bytes)
    runner = HarnessRunner(app, spec, specialize=specialize,
                           sample_blocks=sample_blocks,
                           functional=functional, engine=engine,
                           fault_plan=fault_plan, trace=trace)
    sweeper = Sweeper(runner, jobs=jobs, start_method=start_method,
                      trace=trace, fleet=fleet)
    sweeper.sweep(grid_configs(**{k: list(v) for k, v in axes.items()}))
    return sweeper


def harness_autotune(app: str, problem, axes: Mapping[str, Iterable],
                     *, device: str = "c2070", seed: int = 0,
                     memory_bytes: int = 64 * 1024 * 1024,
                     specialize: bool = True, sample_blocks: int = 2,
                     engine: Optional[str] = None,
                     fault_plan: Optional[FaultPlan] = None,
                     jobs: int = 1, start_method: Optional[str] = None,
                     trace: bool = False, **tuner_options) -> AutoTuner:
    """Profile-guided pruned tuning of *axes* for one app.

    Builds a ``trace=True`` :class:`HarnessRunner` (launch profiles
    must ride each record back — that is the diagnosis signal), wires
    it to an :class:`~repro.tuning.autotune.AutoTuner` under the
    app's :data:`~repro.tuning.autotune.APP_RULES`, runs
    :meth:`~repro.tuning.autotune.AutoTuner.tune`, and returns the
    tuner (``.result`` holds the verdict, ``.records`` the pruned
    evaluation sequence).  Evaluation still goes through a
    :class:`Sweeper`, so ``jobs``/``fault_plan`` behave exactly as in
    :func:`harness_sweep` and records stay bit-identical across
    ``jobs``.  ``tuner_options`` (``budget``, ``probes``,
    ``extra_probes``, ``patience``, ``quorum``, ``max_passes``,
    ``rules``, ``seed`` as ``tuner_seed``) forward to the tuner.
    """
    spec = ProblemSpec(app, problem, seed=seed, device=device,
                       memory_bytes=memory_bytes)
    runner = HarnessRunner(app, spec, specialize=specialize,
                           sample_blocks=sample_blocks,
                           functional=False, engine=engine,
                           fault_plan=fault_plan, trace=True)
    tuner_options.setdefault("rules", APP_RULES.get(app))
    if "tuner_seed" in tuner_options:
        tuner_options["seed"] = tuner_options.pop("tuner_seed")
    tuner = AutoTuner(runner,
                      {k: list(v) for k, v in axes.items()},
                      jobs=jobs, start_method=start_method,
                      trace=trace, **tuner_options)
    tuner.tune()
    return tuner


def piv_sweep(problem: PIVProblem, device: DeviceSpec,
              img_a: np.ndarray, img_b: np.ndarray,
              rb_values: Iterable[int], thread_values: Iterable[int],
              variant: str = "tree", specialize: bool = True,
              sample_blocks: int = 2,
              cache=None,
              engine: Optional[str] = None) -> List[SweepRecord]:
    """Sweep (rb, threads) for one PIV problem on one device."""

    def run(config: dict) -> SweepRecord:
        cfg = PIVConfig(variant=variant, rb=config["rb"],
                        threads=config["threads"],
                        specialize=specialize, functional=False,
                        sample_blocks=sample_blocks, engine=engine)
        proc = PIVProcessor(problem, cfg, device=device, cache=cache)
        result = proc.run(img_a, img_b)
        return SweepRecord(config=config, seconds=result.kernel_seconds,
                           reg_count=result.reg_count,
                           occupancy=result.occupancy)

    sweeper = Sweeper(run)
    cache = cache or sweeper.ctx.kernel_cache
    return sweeper.sweep(grid_configs(rb=list(rb_values),
                                      threads=list(thread_values)))


def tm_sweep(problem: MatchProblem, template: np.ndarray,
             frame: np.ndarray, tile_sizes, thread_values,
             device: DeviceSpec, specialize: bool = True,
             sample_blocks: int = 2,
             cache=None,
             engine: Optional[str] = None) -> List[SweepRecord]:
    """Sweep (tile, threads) for one template-matching problem."""

    def run(config: dict) -> SweepRecord:
        tw, th = config["tile"]
        cfg = MatchConfig(tile_w=tw, tile_h=th,
                          threads=config["threads"],
                          specialize=specialize, functional=False,
                          sample_blocks=sample_blocks, engine=engine)
        matcher = TemplateMatcher(problem, template, cfg, device=device,
                                  cache=cache)
        result = matcher.match(frame)
        return SweepRecord(config=config,
                           seconds=result.kernel_seconds,
                           reg_count=matcher.numerator_reg_count())

    sweeper = Sweeper(run)
    cache = cache or sweeper.ctx.kernel_cache
    return sweeper.sweep(grid_configs(tile=list(tile_sizes),
                                      threads=list(thread_values)))


def bp_sweep(problem: BPProblem, projections: np.ndarray,
             block_shapes, zb_values, device: DeviceSpec,
             specialize: bool = True, sample_blocks: int = 2,
             cache=None,
             engine: Optional[str] = None) -> List[SweepRecord]:
    """Sweep (block shape, zb) for a backprojection problem."""

    def run(config: dict) -> SweepRecord:
        bx, by = config["block"]
        cfg = BPConfig(block_x=bx, block_y=by, zb=config["zb"],
                       specialize=specialize, functional=False,
                       sample_blocks=sample_blocks, engine=engine)
        bp = Backprojector(problem, cfg, device=device, cache=cache)
        result = bp.run(projections)
        return SweepRecord(config=config, seconds=result.kernel_seconds,
                           reg_count=result.reg_count,
                           occupancy=result.occupancy)

    sweeper = Sweeper(run)
    cache = cache or sweeper.ctx.kernel_cache
    return sweeper.sweep(grid_configs(block=list(block_shapes),
                                      zb=list(zb_values)))
