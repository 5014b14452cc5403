"""Profile-guided autotuning over configuration grids (DESIGN.md §10).

The exhaustive :class:`~repro.tuning.sweep.Sweeper` pays for every
point of a configuration grid.  The :class:`AutoTuner` closes the loop
the observability stack opened: every traced launch already emits a
:class:`~repro.obs.profile.LaunchProfile` (occupancy and its limiter,
coalesced transactions, divergence, stalls, the modeled boundedness),
so a handful of *probe* evaluations is enough to diagnose what limits
the kernel and to search only the neighborhood that diagnosis says can
move the needle.

The procedure (each step deterministic in ``(axes, seed)``):

1. **Probe** — evaluate a small stratified probe set: ``probes``
   points spread along the grid diagonal in index space (endpoints
   included, indices rounded half-up), plus ``extra_probes`` seeded
   uniform picks.  Probes run through the same :class:`Sweeper` as
   everything else, so workers, caches, fault plans, and metrics apply.
2. **Diagnose** — for each valid probe carrying profiles, classify
   the *dominant* launch (largest modeled seconds) into one limiter
   label via :func:`diagnose`.  The incumbent (fastest) probe's label
   is adopted iff at least ``quorum`` of the diagnosable probes agree
   with it; otherwise the tuner falls back to the full grid.
3. **Expand** — walk the axes in the order the diagnosis rule names
   (:data:`APP_RULES`): numeric axes by an outward ring search around
   the incumbent (offsets +1, -1, +2, -2, … — a direction dies after
   ``patience`` consecutive non-improvements), tuple/categorical axes
   by an in-order scan with the same early stop.  Passes over the
   axis list repeat while the incumbent keeps moving (already-seen
   configs are never re-evaluated), up to ``max_passes``.
4. **Stop** — on a pass with no improvement, on budget exhaustion, or
   after the full-grid fallback.

``budget=N`` is a hard cap: the tuner never performs more than N
evaluations, truncating the probe set, walk rounds, and even the
fallback deterministically.  With ``budget=None`` (default) the
fallback may spend up to the full grid — the <25 %-of-grid target
(ROADMAP) is a property of the agreeing-diagnosis fast path, which the
Table 6.21/6.22 workload grids take; :data:`SECONDS_RTOL` documents
the modeled-seconds tolerance within which a pruned optimum is
considered equivalent to the exhaustive one.

Every decision is recorded: ``tuner.*`` counters/gauges on the
sweeper's :class:`~repro.obs.metrics.MetricsRegistry`
(``tuner.limiter.<label>`` per diagnosed probe, ``tuner.diagnosis``,
``tuner.fallback``, ``tuner.evals``…), ``tuner:<phase>`` spans when
the sweep context traces, and a plain-string :attr:`AutoTuner.decisions`
log that determinism tests compare verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Number
from typing import (Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

import numpy as np

from repro.faults.errors import FaultError
from repro.tuning.sweep import (SweepRecord, Sweeper, best_record,
                                grid_configs)

__all__ = ["APP_RULES", "AutoTuner", "DIV_RATIO", "LIMITER_LABELS",
           "OCC_LOW", "SECONDS_RTOL", "TuneResult", "diagnose"]

#: Documented equivalence tolerance on modeled seconds: a pruned
#: optimum within this relative distance of the exhaustive optimum
#: counts as matching (the paper's tables report whole percents).
SECONDS_RTOL = 0.01

#: Occupancy below which a ``registers`` / ``shared memory`` occupancy
#: limiter is diagnosed as the bottleneck.
OCC_LOW = 0.5

#: Divergent-branch fraction above which divergence is the diagnosis.
DIV_RATIO = 0.05

#: Every label :func:`diagnose` can produce.
LIMITER_LABELS = ("occupancy", "divergence", "bandwidth", "latency",
                  "issue")

#: Diagnosis rules per app (DESIGN.md §10): limiter label -> the axis
#: priority order the expansion walks.  Occupancy/issue diagnoses lead
#: with the register-pressure knob (PIV ``rb``, backprojection ``zb``),
#: latency leads with the thread/TLP knob, bandwidth with the
#: coalescing-shape knob (thread count, tile, block shape).
APP_RULES: Dict[str, Dict[str, Tuple[str, ...]]] = {
    "piv": {
        "occupancy": ("rb", "threads"),
        "issue": ("rb", "threads"),
        "latency": ("threads", "rb"),
        "bandwidth": ("threads", "rb"),
        "divergence": ("threads", "rb"),
    },
    "template_matching": {
        "occupancy": ("threads", "tile"),
        "issue": ("tile", "threads"),
        "latency": ("threads", "tile"),
        "bandwidth": ("tile", "threads"),
        "divergence": ("tile", "threads"),
    },
    "backprojection": {
        "occupancy": ("zb", "block"),
        "issue": ("zb", "block"),
        "latency": ("zb", "block"),
        "bandwidth": ("block", "zb"),
        "divergence": ("block", "zb"),
    },
}


def diagnose(profile) -> str:
    """Classify one :class:`LaunchProfile` into a limiter label.

    The rule table (DESIGN.md §10), first match wins:

    1. ``occupancy`` — occupancy below :data:`OCC_LOW` *and* capped by
       register or shared-memory pressure (the knobs specialization
       moves);
    2. ``divergence`` — more than :data:`DIV_RATIO` of retired
       instructions were divergent branches;
    3. otherwise the timing model's own boundedness: ``bandwidth``,
       ``latency``, or ``issue``.
    """
    occ = float(getattr(profile, "occupancy", 1.0))
    limit = str(getattr(profile, "occupancy_limit", ""))
    if occ < OCC_LOW and limit in ("registers", "shared memory"):
        return "occupancy"
    instructions = int(getattr(profile, "instructions", 0))
    divergent = int(getattr(profile, "divergent_branches", 0))
    if instructions and divergent / instructions > DIV_RATIO:
        return "divergence"
    bound = str(getattr(profile, "bound", ""))
    return bound if bound in ("bandwidth", "latency", "issue") \
        else "issue"


@dataclass(frozen=True)
class ProbeDiagnosis:
    """One probe's limiter classification (``label == ""``: no
    profile rode back, so the probe is undiagnosable)."""

    config: dict
    label: str
    kernel: str = ""
    seconds: float = 0.0


@dataclass
class TuneResult:
    """What one :meth:`AutoTuner.tune` produced."""

    best: SweepRecord
    records: List[SweepRecord]
    evals: int
    grid_size: int
    diagnosis: str
    diagnoses: List[ProbeDiagnosis]
    fallback: bool
    reason: str
    passes: int
    #: Config keys in exact evaluation order (the determinism
    #: contract: same seed -> same sequence).
    sequence: List[Tuple] = field(default_factory=list)

    @property
    def frac(self) -> float:
        """Fraction of the grid actually evaluated."""
        return self.evals / self.grid_size if self.grid_size else 0.0


def _axis_is_numeric(values: Sequence) -> bool:
    return all(isinstance(v, Number) and not isinstance(v, bool)
               for v in values)


def _key(config: dict) -> Tuple:
    return tuple(sorted(config.items()))


def _better(a: SweepRecord, b: Optional[SweepRecord]) -> bool:
    """Strict improvement under :func:`best_record`'s total order."""
    if not a.valid:
        return False
    if b is None or not b.valid:
        return True
    return (a.seconds, a.key()) < (b.seconds, b.key())


class AutoTuner:
    """Profile-guided pruned search over a configuration grid.

    Args:
        run: the evaluation callable (``config dict -> SweepRecord``).
            For profile-guided mode it must attach launch profiles to
            its records — a ``trace=True``
            :class:`~repro.tuning.app_sweeps.HarnessRunner` does; a
            profile-less run still works but always takes the
            full-grid fallback.
        axes: the grid, as ``name -> value list`` (values keep their
            declared order; neighborhoods are index neighborhoods).
        rules: limiter label -> axis priority order; missing labels
            (and ``rules=None``) walk the axes in declared order.
            :data:`APP_RULES` has the per-app tables.
        probes: diagonal probe count (endpoints always included).
        extra_probes: additional seeded uniform probe picks.
        seed: seeds the extra-probe RNG (and nothing else).
        budget: hard evaluation cap (None = uncapped).
        patience: consecutive non-improvements that kill a walk
            direction / categorical scan.
        quorum: fraction of diagnosable probes that must share the
            incumbent's label; below it the tuner falls back.
        max_passes: cap on expansion passes over the axis list.
        jobs / start_method / context / trace: forwarded to the
            internal :class:`Sweeper` (one per tuner; its ``records``
            are exactly the tuner's evaluations, in eval order).
    """

    def __init__(self, run: Callable[[dict], SweepRecord],
                 axes: Mapping[str, Sequence], *,
                 rules: Optional[Mapping[str, Sequence[str]]] = None,
                 probes: int = 3, extra_probes: int = 0, seed: int = 0,
                 budget: Optional[int] = None, patience: int = 2,
                 quorum: float = 0.5, max_passes: int = 4,
                 jobs: int = 1, start_method: Optional[str] = None,
                 context=None, trace: bool = False):
        if probes < 1:
            raise ValueError(f"probes must be >= 1, got {probes}")
        if extra_probes < 0:
            raise ValueError("extra_probes must be >= 0")
        if budget is not None and budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        if patience < 1:
            raise ValueError(f"patience must be >= 1, got {patience}")
        if not 0.0 <= quorum <= 1.0:
            raise ValueError("quorum must be in [0, 1]")
        self.axes: Dict[str, list] = {k: list(v)
                                      for k, v in axes.items()}
        if not self.axes or any(not v for v in self.axes.values()):
            raise ValueError("every axis needs at least one value")
        rules = rules or {}
        for label, order in rules.items():
            unknown = [a for a in order if a not in self.axes]
            if unknown:
                raise ValueError(f"rule {label!r} names unknown axes "
                                 f"{unknown}; have {sorted(self.axes)}")
        self.rules = {label: tuple(order)
                      for label, order in rules.items()}
        self.grid = grid_configs(**self.axes)
        self.probes = probes
        self.extra_probes = extra_probes
        self.seed = seed
        self.budget = budget
        self.patience = patience
        self.quorum = quorum
        self.max_passes = max_passes
        self.sweeper = Sweeper(run, jobs=jobs, context=context,
                               start_method=start_method, trace=trace)
        self._seen: Dict[Tuple, SweepRecord] = {}
        #: Plain-string decision log, one entry per probe pick,
        #: diagnosis, walk step, and fallback — the determinism
        #: contract compares it verbatim across runs.
        self.decisions: List[str] = []
        self.result: Optional[TuneResult] = None

    # -- evaluation plumbing -------------------------------------------

    @property
    def records(self) -> List[SweepRecord]:
        """Every evaluated record, in evaluation order."""
        return self.sweeper.records

    @property
    def metrics(self):
        """The sweeper's registry (``tuner.*`` + ``sweep.*``)."""
        return self.sweeper.metrics

    def _budget_left(self) -> float:
        if self.budget is None:
            return float("inf")
        return self.budget - len(self.records)

    def _evaluate(self, configs: List[dict],
                  phase: str) -> List[SweepRecord]:
        """Evaluate *configs* (deduplicated, budget-truncated) through
        the sweeper; returns one record per requested config (cached
        records included), in request order."""
        fresh, fresh_keys = [], set()
        for config in configs:
            key = _key(config)
            if key in self._seen or key in fresh_keys:
                continue
            if len(fresh) >= self._budget_left():
                self.decisions.append(f"{phase}:budget-truncated")
                break
            fresh_keys.add(key)
            fresh.append(config)
        if fresh:
            tracer = self.sweeper.ctx.tracer
            if tracer is None:
                new = self.sweeper.sweep(fresh)[-len(fresh):]
            else:
                with tracer.span(f"tuner:{phase}", "tuner",
                                 cells=len(fresh)):
                    new = self.sweeper.sweep(fresh)[-len(fresh):]
            for record in new:
                self._seen[record.key()] = record
                self.decisions.append(
                    f"{phase}:eval:" + " ".join(
                        f"{k}={v}" for k, v in sorted(
                            record.config.items())))
        return [self._seen[_key(c)] for c in configs
                if _key(c) in self._seen]

    # -- probe phase ---------------------------------------------------

    def _diagonal_indices(self) -> List[Tuple[int, ...]]:
        names = list(self.axes)
        lens = [len(self.axes[n]) for n in names]
        count = max(1, min(self.probes, max(lens)))
        picks = []
        for i in range(count):
            if count == 1:
                frac = (0, 1)
            else:
                frac = (i, count - 1)
            # Round half up so the midpoint of an even-length axis
            # lands on the upper-middle index, deterministically.
            idx = tuple(((k - 1) * 2 * frac[0] + frac[1])
                        // (2 * frac[1]) for k in lens)
            picks.append(idx)
        return picks

    def _probe_configs(self) -> List[dict]:
        names = list(self.axes)
        seen, probes = set(), []
        for idx in self._diagonal_indices():
            if idx in seen:
                continue
            seen.add(idx)
            probes.append({n: self.axes[n][i]
                           for n, i in zip(names, idx)})
        if self.extra_probes:
            rng = np.random.default_rng(self.seed)
            lens = [len(self.axes[n]) for n in names]
            picked = 0
            # Bounded rejection sampling keeps the draw sequence (and
            # with it the probe set) a pure function of the seed.
            for _ in range(16 * self.extra_probes):
                if picked >= self.extra_probes:
                    break
                idx = tuple(int(rng.integers(k)) for k in lens)
                if idx in seen:
                    continue
                seen.add(idx)
                picked += 1
                probes.append({n: self.axes[n][i]
                               for n, i in zip(names, idx)})
        for config in probes:
            self.decisions.append("probe:" + " ".join(
                f"{k}={v}" for k, v in sorted(config.items())))
        return probes

    # -- diagnosis -----------------------------------------------------

    @staticmethod
    def _diagnose_record(record: SweepRecord) -> ProbeDiagnosis:
        if not record.valid or not record.profiles:
            return ProbeDiagnosis(config=record.config, label="")
        dominant = max(record.profiles,
                       key=lambda p: float(getattr(p, "seconds", 0.0)))
        return ProbeDiagnosis(
            config=record.config, label=diagnose(dominant),
            kernel=str(getattr(dominant, "kernel", "")),
            seconds=float(getattr(dominant, "seconds", 0.0)))

    def _choose(self, probe_records: List[SweepRecord]
                ) -> Tuple[str, str, List[ProbeDiagnosis]]:
        """(label, fallback reason, per-probe diagnoses); empty label
        means fall back."""
        diagnoses = [self._diagnose_record(r) for r in probe_records]
        for d in diagnoses:
            if d.label:
                self.metrics.inc(f"tuner.limiter.{d.label}")
        incumbent = None
        for record in probe_records:
            if _better(record, incumbent):
                incumbent = record
        if incumbent is None:
            return "", "all probes invalid", diagnoses
        labelled = [d for d in diagnoses if d.label]
        if not labelled:
            return "", "no probe produced a launch profile", diagnoses
        incumbent_diag = next(
            (d for d, r in zip(diagnoses, probe_records)
             if r is incumbent), None)
        chosen = incumbent_diag.label \
            if incumbent_diag and incumbent_diag.label \
            else labelled[0].label
        agree = sum(d.label == chosen for d in labelled) / len(labelled)
        self.decisions.append(
            f"diagnose:{chosen}:agree={agree:.2f}")
        if agree < self.quorum:
            counts = sorted({d.label for d in labelled})
            return "", (f"diagnoses disagree ({', '.join(counts)}: "
                        f"{agree:.0%} share < {self.quorum:.0%} "
                        "quorum)"), diagnoses
        return chosen, "", diagnoses

    # -- expansion -----------------------------------------------------

    def _incumbent(self) -> Optional[SweepRecord]:
        best = None
        for record in self.records:
            if _better(record, best):
                best = record
        return best

    def _walk_numeric(self, axis: str) -> bool:
        """Ring search along *axis* around the incumbent; True iff the
        incumbent improved."""
        values = self.axes[axis]
        start = self._incumbent()
        if start is None or len(values) <= 1:
            return False
        center = values.index(start.config[axis])
        improved = False
        streak = {+1: 0, -1: 0}
        alive = {+1, -1}
        step = 0
        while alive and self._budget_left() > 0:
            step += 1
            batch, dirs = [], []
            for direction in (+1, -1):
                if direction not in alive:
                    continue
                idx = center + direction * step
                if not 0 <= idx < len(values):
                    alive.discard(direction)
                    continue
                config = dict(start.config)
                config[axis] = values[idx]
                batch.append(config)
                dirs.append(direction)
            if not batch:
                break
            self._evaluate(batch, phase=f"walk:{axis}")
            incumbent = self._incumbent()
            for direction, config in zip(dirs, batch):
                record = self._seen.get(_key(config))
                if record is None:  # budget-truncated mid-batch
                    alive.discard(direction)
                    continue
                if _better(record, incumbent) or record is incumbent:
                    improved = True
                    streak[direction] = 0
                    incumbent = record
                else:
                    streak[direction] += 1
                    if streak[direction] >= self.patience:
                        alive.discard(direction)
        return improved

    def _scan_categorical(self, axis: str) -> bool:
        """In-order early-stopped scan of a non-numeric axis with the
        other axes pinned at the incumbent; True iff improved."""
        values = self.axes[axis]
        start = self._incumbent()
        if start is None or len(values) <= 1:
            return False
        improved, streak = False, 0
        for value in values:
            if value == start.config[axis]:
                continue
            if streak >= self.patience or self._budget_left() <= 0:
                break
            config = dict(start.config)
            config[axis] = value
            before = self._incumbent()
            self._evaluate([config], phase=f"scan:{axis}")
            record = self._seen.get(_key(config))
            if record is not None and _better(record, before):
                improved, streak = True, 0
            else:
                streak += 1
        return improved

    def _expand(self, label: str) -> int:
        """Coordinate passes over the rule's axis order; returns the
        number of passes run."""
        order = self.rules.get(label) or tuple(self.axes)
        # Rule orders may name a subset; un-named axes follow in
        # declared order so every axis stays reachable.
        order = tuple(order) + tuple(a for a in self.axes
                                     if a not in order)
        passes = 0
        while passes < self.max_passes and self._budget_left() > 0:
            passes += 1
            self.decisions.append(f"pass:{passes}")
            improved = False
            for axis in order:
                if _axis_is_numeric(self.axes[axis]):
                    improved |= self._walk_numeric(axis)
                else:
                    improved |= self._scan_categorical(axis)
            if not improved:
                break
        return passes

    # -- fallback and completion ---------------------------------------

    def _fallback(self, reason: str) -> None:
        self.metrics.inc("tuner.fallback")
        self.decisions.append(f"fallback:{reason}")
        remaining = [c for c in self.grid
                     if _key(c) not in self._seen]
        self._evaluate(remaining, phase="fallback")

    def _raise_if_faulted(self) -> None:
        """All-invalid tuning under a single fault class re-raises it
        typed, so chaos callers dispatch on kind, not on strings."""
        if not self.records or any(r.valid for r in self.records):
            return
        classes = {r.error.split(":", 1)[0].strip()
                   for r in self.records}
        if len(classes) != 1:
            return
        name = classes.pop()
        for cls in FaultError.__subclasses__():
            if cls.__name__ == name:
                raise cls(self.records[0].error)

    def tune(self) -> TuneResult:
        """Run the probe → diagnose → expand (or fallback) pipeline.

        Raises:
            FaultError: every evaluation failed with one injected
                fault class (chaos sweeps).
            ValueError: no configuration could run at all.
        """
        probe_records = self._evaluate(self._probe_configs(),
                                       phase="probe")
        self.metrics.inc("tuner.probes", len(probe_records))
        label, reason, diagnoses = self._choose(probe_records)
        passes = 0
        if label:
            self.metrics.inc(f"tuner.diagnosis.{label}")
            before = len(self.records)
            passes = self._expand(label)
            self.metrics.inc("tuner.expansions",
                             len(self.records) - before)
            self.metrics.inc("tuner.passes", passes)
        else:
            self._fallback(reason)
        self._raise_if_faulted()
        evals = len(self.records)
        self.metrics.gauge("tuner.evals", evals)
        self.metrics.gauge("tuner.grid", len(self.grid))
        self.result = TuneResult(
            best=best_record(self.records), records=self.records,
            evals=evals, grid_size=len(self.grid),
            diagnosis=label, diagnoses=diagnoses,
            fallback=not label, reason=reason, passes=passes,
            sequence=[r.key() for r in self.records])
        return self.result
