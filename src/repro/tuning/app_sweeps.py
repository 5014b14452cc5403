"""Application sweeps over the shared run protocol.

Configurations are evaluated with sampled (non-functional) launches,
which is how autotuning over the simulator stays affordable: a handful
of representative blocks per configuration, extrapolated by the timing
model.

Every app sweep takes one path: :func:`harness_sweep` drives a
:class:`Sweeper` with a :class:`HarnessRunner`.  The runner carries
only a :class:`~repro.apps.harness.ProblemSpec` (seeds, not arrays) and
evaluates each cell in a fresh context via
:func:`~repro.apps.harness.run_request`, so it works identically inline
(``jobs=1``), on worker processes (``jobs>1``) and across a fleet.
Within one :func:`harness_sweep` / :func:`harness_autotune` call the
inline cells share one kernel cache (GPU-PF's binary cache, §4.3), so
each distinct (source, defines) spelling compiles once per run.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional

from repro.apps.harness import (ProblemSpec, RunRequest, get_harness,
                                request_context, run_request)
from repro.faults.plan import FaultPlan
from repro.tuning.autotune import APP_RULES, AutoTuner
from repro.tuning.sweep import SweepRecord, Sweeper, grid_configs


@dataclass(frozen=True)
class HarnessRunner:
    """A picklable sweep evaluator: grid config dict -> SweepRecord.

    Every ``__call__`` goes through
    :func:`repro.apps.harness.run_request` in a fresh
    :class:`ExecutionContext` and (when ``fault_plan`` is set)
    re-installs the seeded injector inside whatever worker runs it —
    the guarantee that makes chaos sweeps work on worker processes.
    Inside :meth:`sharing_compiles` those contexts share one kernel
    cache; plans, gang prototypes, traces, counters, injector, tracer
    and deadline stay per evaluation, so records are bit-identical
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
        cache = getattr(self, "_kernel_cache", None)
        context = (None if cache is None
                   else request_context(self.spec, kernel_cache=cache))
        result = run_request(RunRequest(self.spec, app_config,
                                        fault_plan=self.fault_plan,
                                        trace=self.trace),
                             context=context)
        return SweepRecord(config=config, seconds=result.seconds,
                           reg_count=result.reg_count,
                           occupancy=result.occupancy,
                           counters=result.counters,
                           faults=result.faults,
                           trace=result.trace,
                           metrics=result.metrics,
                           profiles=list(result.profiles))

    @contextmanager
    def sharing_compiles(self) -> Iterator[None]:
        """Share one :class:`~repro.gpupf.cache.KernelCache` among the
        cells this runner evaluates inline during the with-block.

        The cache is never pickled with the runner (``jobs>1`` and
        fleet cells compile in their workers) and is dropped on exit,
        so nothing the run returns keeps its modules alive.  A runner
        with a ``fault_plan`` keeps a private cache per evaluation:
        every cell's ``nvcc.*`` fault sites must fire.
        """
        if self.fault_plan is not None:
            yield
            return
        from repro.gpupf.cache import KernelCache
        object.__setattr__(self, "_kernel_cache", KernelCache())
        try:
            yield
        finally:
            object.__delattr__(self, "_kernel_cache")

    def __getstate__(self):
        # The run's cache stays in this process: served cells compile
        # in their workers, one private cache per evaluation.
        state = dict(self.__dict__)
        state.pop("_kernel_cache", None)
        return state


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
    with runner.sharing_compiles():
        sweeper.sweep(grid_configs(**{k: list(v)
                                      for k, v in axes.items()}))
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
    with runner.sharing_compiles():
        tuner.tune()
    return tuner

