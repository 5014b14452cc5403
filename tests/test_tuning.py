"""Tuning/sweep machinery tests."""

import numpy as np
import pytest

from repro.apps.piv import PIVProblem
from repro.data.piv import particle_image_pair
from repro.gpusim import TESLA_C2070
from repro.tuning import (best_record, contour_series, harness_sweep,
                          percent_of_peak, peak_grid_text)
from repro.tuning.sweep import SweepRecord, Sweeper, grid_configs


class TestSweeper:
    def test_grid_configs_cartesian(self):
        configs = grid_configs(a=[1, 2], b=["x", "y", "z"])
        assert len(configs) == 6
        assert {(c["a"], c["b"]) for c in configs} == \
            {(a, b) for a in (1, 2) for b in "xyz"}

    def test_failures_recorded_not_raised(self):
        def run(config):
            if config["n"] == 2:
                raise RuntimeError("occupancy")
            return SweepRecord(config=config, seconds=config["n"])

        records = Sweeper(run).sweep(grid_configs(n=[1, 2, 3]))
        assert len(records) == 3
        assert not records[1].valid
        assert best_record(records).config["n"] == 1

    def test_best_of_empty_raises(self):
        with pytest.raises(ValueError):
            best_record([SweepRecord(config={}, seconds=1.0,
                                     valid=False, error="x")])

    def test_best_of_all_invalid_groups_every_error_class(self):
        records = [
            SweepRecord(config={"n": 1}, seconds=1.0, valid=False,
                        error="SimError: grid too large"),
            SweepRecord(config={"n": 2}, seconds=1.0, valid=False,
                        error="SimError: zero occupancy"),
            SweepRecord(config={"n": 3}, seconds=1.0, valid=False,
                        error="CompileError: parse error"),
        ]
        with pytest.raises(ValueError) as err:
            best_record(records)
        message = str(err.value)
        # Every distinct error class appears, counted, with an example.
        assert "3 tried" in message
        assert "SimError x2" in message
        assert "CompileError x1" in message
        assert "parse error" in message

    def test_error_taxonomy_counts_by_class(self):
        def run(config):
            if config["n"] == 1:
                raise RuntimeError("boom")
            if config["n"] == 2:
                raise ValueError("bad shape")
            return SweepRecord(config=config, seconds=1.0)

        sweeper = Sweeper(run)
        sweeper.sweep(grid_configs(n=[1, 2, 3, 1]))
        assert sweeper.error_taxonomy() == {"RuntimeError": 2,
                                            "ValueError": 1}

    def test_cache_report_attribution_under_concurrent_sweeps(self):
        # Each Sweeper owns a private ExecutionContext, so two sweeps
        # overlapping in time report *exactly* their own plan/gang
        # traffic — equal to what the same sweep reports when run
        # alone, with no cross-attribution.
        import threading

        from repro.apps.piv import (PIVConfig, PIVProblem, PIVProcessor)
        from repro.gpusim import GPU

        problem = PIVProblem("cc", 40, 40, mask=8, offs=3)
        img_a, img_b = particle_image_pair(40, 40, seed=1)

        def make_run(barrier=None):
            def run(config):
                if barrier is not None:
                    barrier.wait()  # force the two sweeps to overlap
                proc = PIVProcessor(problem,
                                    PIVConfig(rb=config["rb"],
                                              threads=32),
                                    gpu=GPU(TESLA_C2070,
                                            memory_bytes=4 << 20))
                result = proc.run(img_a, img_b)
                return SweepRecord(config=config, seconds=1.0,
                                   valid=result.scores is not None)
            return run

        # Baseline: the exact counters one such sweep produces alone.
        solo = Sweeper(make_run())
        solo.sweep(grid_configs(rb=[2, 4]))
        assert all(r.valid for r in solo.records)
        baseline = solo.cache_report
        assert baseline["plan_misses"] > 0

        barrier = threading.Barrier(2)
        sweepers = [Sweeper(make_run(barrier)) for _ in range(2)]
        threads = [threading.Thread(
            target=lambda s=s: s.sweep(grid_configs(rb=[2, 4])))
            for s in sweepers]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for sweeper in sweepers:
            assert all(r.valid for r in sweeper.records)
            assert sweeper.cache_report == baseline


class TestOrderingContracts:
    """Ordering pins for pruned (sparse, non-grid-ordered) record
    lists — what the AutoTuner's multi-batch sweeps feed these APIs."""

    @staticmethod
    def _sparse_ties():
        # Equal modeled seconds on a sparse, non-grid-ordered subset.
        return [
            SweepRecord(config={"rb": 4, "threads": 64}, seconds=2.0),
            SweepRecord(config={"rb": 1, "threads": 128}, seconds=2.0),
            SweepRecord(config={"rb": 2, "threads": 32}, seconds=3.0),
            SweepRecord(config={"rb": 8, "threads": 32}, seconds=3.0),
        ]

    def test_best_record_tie_break_is_order_independent(self):
        import itertools
        for perm in itertools.permutations(self._sparse_ties()):
            best = best_record(list(perm))
            # Smallest config key among the equal-seconds fastest.
            assert best.config == {"rb": 1, "threads": 128}

    def test_slowest_report_tie_order_is_order_independent(self):
        import itertools
        reports = set()
        for perm in itertools.permutations(self._sparse_ties()):
            sweeper = Sweeper(lambda c: SweepRecord(config=c,
                                                    seconds=0.0))
            sweeper.records = list(perm)
            reports.add(sweeper.slowest_report(3))
        assert len(reports) == 1
        lines = reports.pop().splitlines()
        # Worst first; the 3.0 s tie resolves by config key (rb=2
        # before rb=8), independent of record order.
        assert "rb=2" in lines[3] and "rb=8" in lines[4]

    def test_indices_continue_across_sweep_calls(self):
        # The tuner sweeps in several small batches over one Sweeper;
        # indices must keep counting (aliasing used to re-start at 0,
        # which scrambled slowest_report cell ids and trace grafts).
        sweeper = Sweeper(_seconds_from_n, jobs=2)
        sweeper.sweep(grid_configs(n=[3, 1]))
        sweeper.sweep(grid_configs(n=[2]))
        sweeper.sweep(grid_configs(n=[5, 4]))
        assert [r.index for r in sweeper.records] == [0, 1, 2, 3, 4]
        assert [r.config["n"] for r in sweeper.records] == \
            [3, 1, 2, 5, 4]
        assert best_record(sweeper.records).index == 1


def _seconds_from_n(config):
    return SweepRecord(config=config, seconds=float(config["n"]))


class TestGrids:
    def _records(self):
        data = {(1, 32): 4.0, (1, 64): 2.0, (2, 32): 1.0, (2, 64): 2.0}
        return [SweepRecord(config={"rb": rb, "threads": t}, seconds=s)
                for (rb, t), s in data.items()]

    def test_percent_of_peak(self):
        rows, cols, grid = percent_of_peak(self._records(), "rb",
                                           "threads")
        assert rows == [1, 2] and cols == [32, 64]
        assert grid[1][0] == 100.0
        assert grid[0][0] == 25.0

    def test_invalid_cells_are_none(self):
        records = self._records()
        records.append(SweepRecord(config={"rb": 4, "threads": 32},
                                   seconds=float("inf"), valid=False))
        records.append(SweepRecord(config={"rb": 4, "threads": 64},
                                   seconds=3.0))
        rows, cols, grid = percent_of_peak(records, "rb", "threads")
        assert grid[2][0] is None and grid[2][1] is not None

    def test_grid_text_shape(self):
        headers, body = peak_grid_text(self._records(), "rb", "threads")
        assert headers[0].startswith("rb")
        assert len(body) == 2 and len(body[0]) == 3

    def test_contour_series(self):
        series = contour_series(self._records(), "rb", "threads")
        assert series[0][0] == 1
        assert series[1][1][0] == (32, 100.0)


class TestPIVSweepIntegration:
    def test_sweep_finds_interior_optimum(self):
        problem = PIVProblem("t", 48, 64, mask=8, offs=5)
        records = harness_sweep("piv", problem,
                                {"rb": [1, 4], "threads": [32, 64]},
                                device="c2070", seed=0).records
        assert len(records) == 4
        assert all(r.valid for r in records)
        best = best_record(records)
        assert best.seconds <= min(r.seconds for r in records)

    def test_unlaunchable_configs_survive_as_invalid(self):
        """rb=16 at 512 threads exceeds the C1060 register file."""
        problem = PIVProblem("t", 48, 64, mask=8, offs=5)
        records = harness_sweep("piv", problem,
                                {"rb": [16], "threads": [512]},
                                device="c1060", seed=0).records
        assert len(records) == 1
        assert not records[0].valid
        assert records[0].error.startswith("OccupancyError"), \
            records[0].error
