"""Shared declarative run protocol for the three paper applications.

Every app host (PIV, template matching, backprojection) is wrapped in
an :class:`AppHarness` that speaks one picklable vocabulary:

* :class:`ProblemSpec` — *what* to run: the app id, the app's frozen
  problem dataclass, a device registry key, and the RNG seed from
  which the harness regenerates the input arrays deterministically.
  Shipping seeds instead of arrays keeps payloads tiny and process
  workers bit-identical to inline runs.
* :class:`RunRequest` — a spec plus the app's frozen config dataclass
  and an optional :class:`~repro.faults.FaultPlan`; everything a
  worker needs to reproduce one evaluation from scratch.
* :class:`RunResult` — timing, register/occupancy metadata, the
  functional output array (when requested), the run context's cache
  counters, and the fault-injector summary.

:func:`run_request` is the single entry point: it builds a fresh
:class:`~repro.runtime.context.ExecutionContext` for the request's
device, re-installs the seeded fault injector from the shipped plan
(the chaos-on-worker-processes contract — hooks are context state and
never survive into a spawned worker by themselves), and executes under
that context.  Identical requests therefore produce bit-identical
results whether evaluated inline, on a thread, or in a spawned
subprocess.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.apps.backprojection import Backprojector, BPConfig, BPProblem
from repro.apps.piv import PIVConfig, PIVProblem, PIVProcessor
from repro.apps.template_matching import (MatchConfig, MatchProblem,
                                          TemplateMatcher)
from repro.data import particle_image_pair, template_sequence
from repro.faults.errors import DeadlineExceeded
from repro.faults.plan import FaultPlan
from repro.gpusim import DEVICES, GPU
from repro.obs.trace import TraceContext
from repro.runtime.context import (ExecutionContext, current_context,
                                   using_context)

APP_IDS = ("piv", "template_matching", "backprojection")


@dataclass(frozen=True)
class ProblemSpec:
    """What to run: app id + problem shape + input seed + device.

    ``problem`` is the app's own frozen problem dataclass
    (:class:`PIVProblem` / :class:`MatchProblem` / :class:`BPProblem`);
    ``device`` is a key of :data:`repro.gpusim.DEVICES`.  The spec is
    fully picklable and carries no arrays: inputs regenerate from
    ``seed``.
    """

    app: str
    problem: object
    seed: int = 0
    device: str = "c2070"
    memory_bytes: int = 64 * 1024 * 1024

    def __post_init__(self):
        if self.app not in APP_IDS:
            raise ValueError(f"unknown app {self.app!r}; "
                             f"expected one of {APP_IDS}")
        if self.device not in DEVICES:
            raise ValueError(f"unknown device {self.device!r}; "
                             f"expected one of {tuple(sorted(DEVICES))}")

    def device_spec(self):
        return DEVICES[self.device]


@dataclass(frozen=True)
class RunRequest:
    """One evaluation, self-contained and picklable.

    ``config`` is the app's frozen config dataclass.  ``fault_plan``
    (not an injector — injectors hold locks and are process-local) is
    re-installed inside whatever worker executes the request.
    ``trace`` enables the worker context's :class:`~repro.obs.Tracer`
    for this evaluation; the recorded spans, metrics snapshot, and
    per-launch profiles ride the :class:`RunResult` back across the
    pickle boundary (a tracer itself never crosses processes — like
    the fault injector, it is rebuilt where the work runs).
    """

    spec: ProblemSpec
    config: object
    fault_plan: Optional[FaultPlan] = None
    trace: bool = False
    #: Absolute ``time.monotonic()`` deadline for this evaluation, or
    #: None (unbounded).  An already-expired deadline raises
    #: :class:`~repro.faults.errors.DeadlineExceeded` *before* any
    #: compile or launch happens; mid-run, the deadline rides
    #: ``ctx.deadline`` into the compile/launch retry paths, which
    #: abort (with device state rolled back) rather than back off past
    #: it.  Monotonic clocks are comparable across processes on one
    #: machine, so the serve daemon's workers honor client deadlines.
    deadline: Optional[float] = None
    #: Pre-degrade to the runtime-evaluated (RE) regime: strip kernel
    #: specialization from the config before running.  Per DESIGN.md §7
    #: the RE variant is bit-identical in results; the serve circuit
    #: breaker sets this while open so a poisoned SK compile path is
    #: skipped entirely instead of re-failing per request.
    degrade: bool = False
    #: Cross-process trace propagation (see
    #: :class:`~repro.obs.trace.TraceContext`): when set, the request
    #: is traced regardless of ``trace`` and the worker tracer is named
    #: after ``trace_ctx.trace_id``, so the supervisor can graft the
    #: shipped span tree under its own span for this request.
    trace_ctx: Optional[TraceContext] = None


@dataclass
class RunResult:
    """What one evaluation produced (picklable; arrays ship verbatim)."""

    app: str
    seconds: float
    transfer_seconds: float = 0.0
    reg_count: int = 0
    occupancy: float = 0.0
    output: Optional[np.ndarray] = None
    #: The run context's plan/gang cache counters (exact, per-run).
    counters: Dict[str, int] = field(default_factory=dict)
    #: site -> fired count from the run's injector (empty: no faults).
    faults: Dict[str, int] = field(default_factory=dict)
    #: Tracer export (``{"name", "spans"}``) for traced requests;
    #: None when the request did not set ``trace=True``.
    trace: Optional[Dict[str, object]] = None
    #: The run context's ``metrics_snapshot()`` (traced requests only).
    metrics: Optional[Dict[str, object]] = None
    #: Per-launch :class:`~repro.obs.LaunchProfile` records in launch
    #: order (traced requests only) — frozen scalar dataclasses, so
    #: they survive pickling back from worker processes.
    profiles: List[object] = field(default_factory=list)
    #: True when the evaluation ran pre-degraded to RE
    #: (``RunRequest.degrade`` — e.g. dispatched under an open serve
    #: circuit breaker).  Results stay bit-identical; performance
    #: metadata reflects the unspecialized variant.
    degraded: bool = False
    #: Serve bookkeeping: which worker evaluated the request, and on
    #: which dispatch attempt (1 = no redispatch).  Empty/1 outside the
    #: service.
    worker: str = ""
    attempts: int = 1
    #: Serve bookkeeping: the worker's warm-cache evictions since its
    #: previous reply (``kernel_evictions`` / ``plan_evictions``).
    #: Empty outside the service.
    evictions: Dict[str, int] = field(default_factory=dict)
    #: Host wall-clock seconds spent inside the evaluation (as opposed
    #: to ``seconds``, the *simulated* kernel time) — what the serve
    #: supervisor's latency histograms and span grafting need.
    wall_seconds: float = 0.0
    #: Flight-recorder events recorded *during* this evaluation (traced
    #: requests only): the delta of the run context's
    #: :class:`~repro.obs.FlightRecorder` stream, shipped as plain
    #: dicts so the supervisor can fold them into its own recorder.
    events: List[Dict[str, object]] = field(default_factory=list)

    def same_output(self, other: "RunResult") -> bool:
        """Bit-identical functional output (both-None counts)."""
        if self.output is None or other.output is None:
            return self.output is None and other.output is None
        return (self.output.shape == other.output.shape
                and self.output.dtype == other.output.dtype
                and bool(np.array_equal(self.output, other.output)))


class AppHarness:
    """Declarative adapter from the run protocol onto one app host.

    Subclasses define ``app`` and the three hooks; everything above
    (context setup, fault installation, pickling) is shared.
    """

    app: str = ""

    def make_inputs(self, spec: ProblemSpec):
        """Regenerate the input arrays for *spec* (pure in the seed)."""
        raise NotImplementedError

    def sweep_config(self, axes: Mapping[str, object], *,
                     specialize: bool = True, sample_blocks: int = 2,
                     functional: bool = False,
                     engine: Optional[str] = None):
        """Translate one sweep-grid point into the app's config."""
        raise NotImplementedError

    def execute(self, spec: ProblemSpec, config,
                context: Optional[ExecutionContext] = None) -> RunResult:
        """Run one (spec, config) evaluation under *context*."""
        raise NotImplementedError

    def _gpu(self, spec: ProblemSpec,
             ctx: ExecutionContext) -> GPU:
        return GPU(spec.device_spec(), memory_bytes=spec.memory_bytes,
                   context=ctx)


class PIVHarness(AppHarness):
    app = "piv"

    def make_inputs(self, spec: ProblemSpec):
        return particle_image_pair(spec.problem.img_h,
                                   spec.problem.img_w, seed=spec.seed)

    def sweep_config(self, axes, *, specialize=True, sample_blocks=2,
                     functional=False, engine=None) -> PIVConfig:
        return PIVConfig(variant=axes.get("variant", "tree"),
                         rb=axes["rb"], threads=axes["threads"],
                         specialize=specialize, functional=functional,
                         sample_blocks=sample_blocks, engine=engine)

    def execute(self, spec, config, context=None) -> RunResult:
        ctx = context or current_context()
        img_a, img_b = self.make_inputs(spec)
        proc = PIVProcessor(spec.problem, config,
                            gpu=self._gpu(spec, ctx), context=ctx)
        r = proc.run(img_a, img_b)
        return RunResult(app=self.app, seconds=r.kernel_seconds,
                         transfer_seconds=r.transfer_seconds,
                         reg_count=r.reg_count, occupancy=r.occupancy,
                         output=r.scores)


class TemplateMatchingHarness(AppHarness):
    app = "template_matching"

    def make_inputs(self, spec: ProblemSpec):
        p = spec.problem
        frames, template, _ = template_sequence(
            p.frame_h, p.frame_w, p.tmpl_h, p.tmpl_w, p.shift_h,
            p.shift_w, n_frames=1, seed=spec.seed)
        return frames[0], template

    def sweep_config(self, axes, *, specialize=True, sample_blocks=2,
                     functional=False, engine=None) -> MatchConfig:
        tile_w, tile_h = axes["tile"]
        return MatchConfig(tile_w=tile_w, tile_h=tile_h,
                           threads=axes["threads"],
                           specialize=specialize, functional=functional,
                           sample_blocks=sample_blocks, engine=engine)

    def execute(self, spec, config, context=None) -> RunResult:
        ctx = context or current_context()
        frame, template = self.make_inputs(spec)
        with TemplateMatcher(spec.problem, template, config,
                             gpu=self._gpu(spec, ctx),
                             context=ctx) as matcher:
            r = matcher.match(frame)
            reg_count = matcher.numerator_reg_count()
        return RunResult(app=self.app, seconds=r.kernel_seconds,
                         transfer_seconds=r.transfer_seconds,
                         reg_count=reg_count,
                         output=r.ncc if config.functional else None)


class BackprojectionHarness(AppHarness):
    app = "backprojection"

    def make_inputs(self, spec: ProblemSpec):
        p = spec.problem
        rng = np.random.default_rng(spec.seed)
        return rng.random((p.n_proj, p.det_v,
                           p.det_u)).astype(np.float32)

    def sweep_config(self, axes, *, specialize=True, sample_blocks=2,
                     functional=False, engine=None) -> BPConfig:
        block_x, block_y = axes["block"]
        return BPConfig(block_x=block_x, block_y=block_y,
                        zb=axes["zb"], specialize=specialize,
                        functional=functional,
                        sample_blocks=sample_blocks, engine=engine)

    def execute(self, spec, config, context=None) -> RunResult:
        ctx = context or current_context()
        projections = self.make_inputs(spec)
        bp = Backprojector(spec.problem, config,
                           gpu=self._gpu(spec, ctx), context=ctx)
        r = bp.run(projections)
        return RunResult(app=self.app, seconds=r.kernel_seconds,
                         transfer_seconds=r.transfer_seconds,
                         reg_count=r.reg_count, occupancy=r.occupancy,
                         output=r.volume)


HARNESSES: Dict[str, AppHarness] = {
    h.app: h for h in (PIVHarness(), TemplateMatchingHarness(),
                       BackprojectionHarness())}


def get_harness(app: str) -> AppHarness:
    try:
        return HARNESSES[app]
    except KeyError:
        raise ValueError(f"unknown app {app!r}; expected one of "
                         f"{tuple(HARNESSES)}") from None


def degrade_config(config):
    """Strip specialization from an app config: the RE regime.

    Every app config carries the ``specialize`` toggle; flipping it off
    compiles the runtime-evaluated variant, which is bit-identical in
    results (DESIGN.md §7) at unspecialized performance.  Configs
    without the toggle come back unchanged.
    """
    if getattr(config, "specialize", False):
        return dataclasses.replace(config, specialize=False)
    return config


def request_context(spec: ProblemSpec,
                    kernel_cache=None) -> ExecutionContext:
    """The fresh private context a cold request on *spec* runs under.

    A *kernel_cache* shared between such contexts lets requests reuse
    each other's compiled modules (a harness run's inline cells);
    every other cache, counter and per-request scope starts empty.
    """
    return ExecutionContext(device=spec.device_spec(),
                            kernel_cache=kernel_cache,
                            name=f"run:{spec.app}")


def run_request(request: RunRequest,
                context: Optional[ExecutionContext] = None) -> RunResult:
    """Evaluate one :class:`RunRequest`; cold by default, warm on reuse.

    With ``context=None`` (the cold path) a fresh private
    context — kernel cache, plan/gang caches, re-seeded fault injector
    — is rebuilt from the request alone, so the result cannot depend on
    which process or thread ran it.

    Passing a *context* reuses it across requests: this is the serve
    worker's warm path, where the whole point is that the second
    identical spec hits the compiled-binary, launch-plan, gang, and
    trace caches instead of rebuilding them (§4.3's amortization
    argument, finally realized).  Warm runs are bit-identical to cold
    ones — cache hits return the exact artifacts a miss would build —
    and per-request state (fault injector, tracer, deadline) is scoped
    to the call:  ``result.counters`` always reports this request's
    cache-counter *delta*, so accounting is identical either way.
    """
    spec = request.spec
    harness = get_harness(spec.app)
    if request.deadline is not None \
            and time.monotonic() >= request.deadline:
        raise DeadlineExceeded(
            f"request deadline expired before launch "
            f"(app={spec.app})", site="before-launch")
    config = request.config
    degraded = False
    if request.degrade:
        config = degrade_config(config)
        degraded = config is not request.config
    ctx = context if context is not None else request_context(spec)
    before = ctx.cache_counters() if context is not None else None
    injector = None
    if request.fault_plan is not None:
        injector = ctx.install_faults(request.fault_plan)
    had_tracer = ctx.tracer is not None
    tracer = None
    if request.trace or request.trace_ctx is not None:
        name = request.trace_ctx.trace_id if request.trace_ctx \
            else f"run:{spec.app}"
        tracer = ctx.enable_tracing(name)
    events_before = ctx.events.last_seq
    wall_start = time.perf_counter()
    try:
        with using_context(ctx), ctx.deadline_scope(request.deadline):
            if tracer is None:
                result = harness.execute(spec, config, context=ctx)
            else:
                attrs = {"app": spec.app, "device": spec.device,
                         "seed": spec.seed}
                if request.trace_ctx is not None:
                    attrs["trace_id"] = request.trace_ctx.trace_id
                    if request.trace_ctx.client:
                        attrs["client"] = request.trace_ctx.client
                with tracer.span(f"request:{spec.app}", "harness",
                                 **attrs) as span:
                    result = harness.execute(spec, config, context=ctx)
                    span.attrs["sim_seconds"] = result.seconds
    finally:
        if injector is not None:
            ctx.clear_faults()
        if tracer is not None and not had_tracer:
            ctx.disable_tracing()
    result.wall_seconds = time.perf_counter() - wall_start
    result.counters = ctx.cache_counters()
    if before is not None:
        result.counters = {k: result.counters[k] - before[k]
                           for k in result.counters}
    result.degraded = degraded
    if injector is not None:
        result.faults = injector.summary()
    if tracer is not None:
        result.trace = tracer.to_dict()
        result.metrics = ctx.metrics_snapshot()
        result.profiles = list(tracer.profiles)
        result.events = ctx.events.since(events_before)
    return result
