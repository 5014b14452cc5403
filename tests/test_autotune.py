"""Sweep-equivalence suite for the profile-guided AutoTuner.

The headline contract (ISSUE 7 / ROADMAP): on every paper-shaped app
grid the tuner returns the same ``best_record`` key as the exhaustive
``Sweeper`` (or a config within :data:`SECONDS_RTOL` on modeled
seconds) from **less than 25 % of the grid evaluations**, and its
evaluation sequence is bit-identical across ``jobs=1``, thread pools,
and process pools.  Synthetic landscapes (fast, no simulator) pin the
algorithmic contracts: determinism in the seed, the hard ``budget``
cap, the disagreeing-diagnosis fallback, and typed fault re-raise.
"""

import itertools

import pytest

from repro.apps.backprojection import BPProblem
from repro.apps.piv import PIVProblem
from repro.apps.template_matching import MatchProblem
from repro.faults import CompileFault
from repro.obs.profile import LaunchProfile
from repro.tuning import harness_autotune, harness_sweep
from repro.tuning.autotune import (APP_RULES, AutoTuner, SECONDS_RTOL,
                                   diagnose)
from repro.tuning.sweep import (SweepRecord, Sweeper, best_record,
                                grid_configs)

# ---------------------------------------------------------------------
# Paper-shaped app grids: the Table 6.21/6.22 axes (rb x threads,
# tile x threads, block x zb) at test scale, sized so that <25 % of
# the grid is a meaningful bar (40-48 cells each).
# ---------------------------------------------------------------------

APP_GRIDS = {
    "piv": (
        PIVProblem("at", 40, 40, mask=8, offs=3),
        {"rb": [1, 2, 4, 8, 16],
         "threads": [32, 64, 96, 128, 160, 192, 224, 256]},
    ),
    "template_matching": (
        MatchProblem("at", frame_h=60, frame_w=80, tmpl_h=16,
                     tmpl_w=12, shift_h=5, shift_w=5, n_frames=1),
        {"tile": [(4, 4), (8, 4), (8, 8), (16, 8), (16, 16), (8, 16)],
         "threads": [32, 64, 96, 128, 160, 192, 224, 256]},
    ),
    "backprojection": (
        BPProblem("at", nx=12, ny=12, nz=8, n_proj=6, det_u=16,
                  det_v=12),
        {"block": [(4, 4), (8, 4), (8, 8), (16, 4), (16, 8), (16, 16),
                   (32, 4), (32, 8)],
         "zb": [1, 2, 3, 4, 6, 8]},
    ),
}


@pytest.fixture(scope="module")
def exhaustive():
    """Lazily cached exhaustive sweeps (each app pays once)."""
    cache = {}

    def get(app):
        if app not in cache:
            problem, axes = APP_GRIDS[app]
            cache[app] = harness_sweep(app, problem, axes, seed=11,
                                       memory_bytes=8 << 20)
        return cache[app]

    return get


@pytest.fixture(scope="module")
def tuned():
    """Lazily cached tuner runs, keyed by (app, jobs)."""
    cache = {}

    def get(app, jobs=1):
        key = (app, jobs)
        if key not in cache:
            problem, axes = APP_GRIDS[app]
            cache[key] = harness_autotune(app, problem, axes, seed=11,
                                          memory_bytes=8 << 20,
                                          jobs=jobs)
        return cache[key]

    return get


def _comparable(records):
    """The fields that must not depend on how the tuner executed."""
    return [(r.index, r.config, r.seconds, r.reg_count, r.occupancy,
             r.valid, r.error, r.counters) for r in records]


class TestSweepEquivalence:
    @pytest.mark.parametrize("app", sorted(APP_GRIDS))
    def test_matches_exhaustive_optimum(self, app, exhaustive, tuned):
        exh_best = best_record(exhaustive(app).records)
        result = tuned(app).result
        matched = result.best.key() == exh_best.key()
        within_tol = (result.best.seconds
                      <= exh_best.seconds * (1.0 + SECONDS_RTOL))
        assert matched or within_tol, (
            f"{app}: tuner best {result.best.config} "
            f"({result.best.seconds}) vs exhaustive "
            f"{exh_best.config} ({exh_best.seconds})")

    @pytest.mark.parametrize("app", sorted(APP_GRIDS))
    def test_under_quarter_of_grid(self, app, tuned):
        result = tuned(app).result
        assert not result.fallback
        assert result.grid_size == len(
            grid_configs(**{k: list(v)
                            for k, v in APP_GRIDS[app][1].items()}))
        assert result.evals == len(tuned(app).records)
        assert result.evals < 0.25 * result.grid_size, (
            f"{app}: {result.evals}/{result.grid_size} "
            f"= {result.frac:.0%}")

    @pytest.mark.parametrize("app", sorted(APP_GRIDS))
    def test_bit_identical_across_pools(self, app, tuned):
        inline = tuned(app, jobs=1)
        served = tuned(app, jobs=2)
        assert _comparable(served.records) == _comparable(inline.records)
        assert served.result.sequence == inline.result.sequence
        assert served.decisions == inline.decisions
        assert served.result.best.key() == inline.result.best.key()

    def test_harness_sweep_autotune_flag(self):
        problem, axes = APP_GRIDS["piv"]
        sweeper = harness_sweep("piv", problem, axes, seed=11,
                                memory_bytes=8 << 20, autotune=True)
        assert sweeper.tuner.result is not None
        assert sweeper.records is sweeper.tuner.records
        assert sweeper.tuner.result.evals < 0.25 * len(
            grid_configs(**{k: list(v) for k, v in axes.items()}))

    def test_tuner_options_require_autotune(self):
        problem, axes = APP_GRIDS["piv"]
        with pytest.raises(TypeError, match="autotune=True"):
            harness_sweep("piv", problem, axes, budget=4)


# ---------------------------------------------------------------------
# Synthetic landscapes: algorithmic contracts without the simulator.
# ---------------------------------------------------------------------

def make_profile(**overrides):
    """A real LaunchProfile with benign defaults, field-overridable."""
    base = dict(kernel="k", grid=(4, 1, 1), block=(32, 1, 1),
                blocks_executed=4, total_blocks=4, reg_count=16,
                shared_bytes=0, occupancy=1.0, blocks_per_sm=8,
                occupancy_limit="warps", instructions=1000,
                mem_transactions=10, mem_bytes=1280,
                divergent_branches=0, global_stalls=5,
                shared_stalls=2, barriers=1, atomics=0,
                cycles=1000.0, seconds=1e-5, bound="latency",
                engine="reference")
    base.update(overrides)
    return LaunchProfile(**base)


BOWL_AXES = {"x": [0, 1, 2, 3, 4, 5, 6, 7, 8], "y": [0, 1, 2, 3, 4]}


def bowl_run(config):
    """Convex landscape with its optimum at (x=6, y=1); every record
    carries one latency-bound profile, so all probes agree."""
    seconds = 1e-6 * (1.0 + (config["x"] - 6) ** 2
                      + (config["y"] - 1) ** 2)
    return SweepRecord(config=dict(config), seconds=seconds,
                       profiles=[make_profile(seconds=seconds)])


def disagreeing_run(config):
    """Same bowl, but the modeled bound cycles with x, so the three
    diagonal probes report three different limiters."""
    record = bowl_run(config)
    bound = ("latency", "issue", "bandwidth")[config["x"] % 3]
    record.profiles[:] = [make_profile(seconds=record.seconds,
                                       bound=bound)]
    return record


DISAGREE_AXES = {"x": [0, 1, 2, 3, 4], "y": [0, 1, 2, 3, 4]}


class TestDeterminism:
    def test_same_seed_same_sequence(self):
        runs = [AutoTuner(bowl_run, BOWL_AXES, extra_probes=3, seed=7)
                for _ in range(2)]
        results = [t.tune() for t in runs]
        assert results[0].sequence == results[1].sequence
        assert runs[0].decisions == runs[1].decisions
        assert results[0].best.key() == results[1].best.key()
        assert results[0].evals == results[1].evals

    def test_finds_bowl_optimum(self):
        result = AutoTuner(bowl_run, BOWL_AXES).tune()
        assert result.best.config == {"x": 6, "y": 1}
        assert not result.fallback
        assert result.diagnosis == "latency"
        assert result.evals < len(grid_configs(**BOWL_AXES))

    def test_seed_only_feeds_extra_probes(self):
        # Without extra probes the seed changes nothing at all.
        a = AutoTuner(bowl_run, BOWL_AXES, seed=1).tune()
        b = AutoTuner(bowl_run, BOWL_AXES, seed=2).tune()
        assert a.sequence == b.sequence


class TestBudget:
    @pytest.mark.parametrize("budget", [1, 2, 5, 10])
    def test_never_exceeds_budget(self, budget):
        tuner = AutoTuner(bowl_run, BOWL_AXES, budget=budget)
        result = tuner.tune()
        assert result.evals <= budget
        assert len(tuner.records) == result.evals
        assert result.best.valid

    def test_budget_caps_the_fallback_too(self):
        tuner = AutoTuner(disagreeing_run, DISAGREE_AXES, budget=10)
        result = tuner.tune()
        assert result.fallback
        assert result.evals <= 10
        assert any(d.endswith("budget-truncated")
                   for d in tuner.decisions)

    def test_uncapped_has_no_truncation(self):
        tuner = AutoTuner(bowl_run, BOWL_AXES)
        tuner.tune()
        assert not any("budget-truncated" in d for d in tuner.decisions)


class TestFallback:
    def test_disagreeing_diagnoses_trigger_full_grid(self):
        tuner = AutoTuner(disagreeing_run, DISAGREE_AXES)
        result = tuner.tune()
        assert result.fallback
        assert result.diagnosis == ""
        assert "disagree" in result.reason
        # The fallback is the exhaustive sweep: every cell evaluated,
        # so the optimum is exact by construction.
        assert result.evals == len(grid_configs(**DISAGREE_AXES))
        assert result.best.config == {"x": 4, "y": 1}
        assert any(d.startswith("fallback:") for d in tuner.decisions)

    def test_quorum_zero_disables_the_fallback(self):
        result = AutoTuner(disagreeing_run, DISAGREE_AXES,
                           quorum=0.0).tune()
        assert not result.fallback
        assert result.diagnosis in ("latency", "issue", "bandwidth")
        assert result.evals < len(grid_configs(**DISAGREE_AXES))

    def test_profile_less_runner_falls_back(self):
        def bare(config):
            record = bowl_run(config)
            record.profiles[:] = []
            return record

        result = AutoTuner(bare, BOWL_AXES).tune()
        assert result.fallback
        assert "profile" in result.reason
        assert result.best.config == {"x": 6, "y": 1}

    def test_all_probes_invalid_falls_back(self):
        def diagonal_breaks(config):
            if config["x"] == config["y"]:
                raise ValueError("diagonal cell cannot launch")
            return bowl_run(config)

        # probes land on (0,0), (2,2), (4,4): all invalid.
        tuner = AutoTuner(diagonal_breaks, DISAGREE_AXES)
        result = tuner.tune()
        assert result.fallback
        assert result.reason == "all probes invalid"
        assert result.best.valid
        assert result.best.config["x"] != result.best.config["y"]
        assert sum(not r.valid for r in tuner.records) == 5

    def test_single_fault_class_reraised_typed(self):
        def faulted(config):
            raise CompileFault("injected: nvcc.compile")

        with pytest.raises(CompileFault):
            AutoTuner(faulted, {"x": [1, 2], "y": [1, 2]}).tune()


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"probes": 0}, {"extra_probes": -1}, {"budget": 0},
        {"patience": 0}, {"quorum": 1.5}, {"quorum": -0.1},
        {"rules": {"latency": ("zz",)}},
    ])
    def test_bad_options_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AutoTuner(bowl_run, BOWL_AXES, **kwargs)

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError):
            AutoTuner(bowl_run, {})
        with pytest.raises(ValueError):
            AutoTuner(bowl_run, {"x": []})


class TestDiagnose:
    def test_low_occupancy_by_pressure_is_occupancy(self):
        assert diagnose(make_profile(
            occupancy=0.3, occupancy_limit="registers")) == "occupancy"
        assert diagnose(make_profile(
            occupancy=0.3,
            occupancy_limit="shared memory")) == "occupancy"

    def test_low_occupancy_by_warps_is_not(self):
        # warp/block-capped occupancy is not a specialization knob.
        assert diagnose(make_profile(
            occupancy=0.3, occupancy_limit="warps",
            bound="issue")) == "issue"

    def test_divergence_ratio(self):
        assert diagnose(make_profile(
            instructions=100, divergent_branches=6)) == "divergence"
        assert diagnose(make_profile(
            instructions=100, divergent_branches=5,
            bound="bandwidth")) == "bandwidth"

    def test_bound_passthrough_and_unknown(self):
        for bound in ("bandwidth", "latency", "issue"):
            assert diagnose(make_profile(bound=bound)) == bound
        assert diagnose(make_profile(bound="???")) == "issue"

    def test_app_rules_name_real_axes(self):
        for app, (problem, axes) in APP_GRIDS.items():
            for label, order in APP_RULES[app].items():
                assert set(order) == set(axes), (app, label)


# ---------------------------------------------------------------------
# Limiter distribution views (the diagnosis inputs, independently).
# ---------------------------------------------------------------------

class TestLimiterReport:
    def test_exact_counts_on_synthetic_records(self):
        profiles_by_cell = {
            1: [make_profile(occupancy_limit="registers",
                             bound="issue"),
                make_profile(occupancy_limit="warps",
                             bound="latency")],
            2: [make_profile(occupancy_limit="registers",
                             bound="bandwidth")],
            3: [],
        }

        def run(config):
            return SweepRecord(
                config=dict(config), seconds=1.0,
                profiles=list(profiles_by_cell[config["n"]]))

        sweeper = Sweeper(run)
        sweeper.sweep(grid_configs(n=[1, 2, 3]))
        assert sweeper.limiter_report() == {
            "occupancy_limit": {"registers": 2, "warps": 1},
            "bound": {"issue": 1, "latency": 1, "bandwidth": 1},
        }

    def test_untraced_records_contribute_nothing(self):
        def run(config):
            return SweepRecord(config=dict(config), seconds=1.0)

        sweeper = Sweeper(run)
        sweeper.sweep(grid_configs(n=[1, 2]))
        assert sweeper.limiter_report() == {"occupancy_limit": {},
                                            "bound": {}}

    def test_tuner_limiter_counters_exact(self):
        tuner = AutoTuner(bowl_run, BOWL_AXES)
        tuner.tune()
        # Three diagonal probes, all diagnosable, all latency-bound.
        assert tuner.metrics.counters("tuner.limiter.") == {
            "tuner.limiter.latency": 3}
        snapshot = tuner.metrics.snapshot()
        assert snapshot["gauges"]["tuner.evals"] == tuner.result.evals
        assert snapshot["gauges"]["tuner.grid"] == len(
            grid_configs(**BOWL_AXES))

    def test_real_app_limiters_are_in_vocabulary(self, tuned):
        tuner = tuned("piv")
        report = tuner.sweeper.limiter_report()
        total = sum(len(r.profiles) for r in tuner.records)
        assert total > 0
        assert sum(report["occupancy_limit"].values()) == total
        assert sum(report["bound"].values()) == total
        assert set(report["occupancy_limit"]) <= {
            "warps", "blocks", "registers", "shared memory"}
        assert set(report["bound"]) <= {"issue", "bandwidth", "latency"}
        labelled = [d for d in tuner.result.diagnoses if d.label]
        counters = tuner.metrics.counters("tuner.limiter.")
        assert sum(counters.values()) == len(labelled)
