"""DeviceFleet: sharding, placement, reports, and the merge contract.

The fleet's core promise is *result transparency*: sharding a workload
across N members — any placement — merges to exactly the
records/results a single-device sequential run produces.  Placement
policies only decide where work is accounted; typed errors
(:class:`FleetPlacementError`, the service's
:class:`ServiceWorkerError`) cover the ways that can fail.
Worker-death chaos lives in ``tests/test_faults_chaos.py``.
"""

import time

import pytest

from repro.apps.harness import ProblemSpec, RunRequest, run_request
from repro.apps.piv import PIVConfig, PIVProblem
from repro.runtime import DeviceFleet, FleetError, FleetPlacementError
from repro.serve.errors import ServiceDeadlineError
from repro.tuning.sweep import SweepRecord
from repro.tuning.app_sweeps import HarnessRunner, harness_sweep
from repro.tuning.sweep import Sweeper, grid_configs
from tests.helpers import call_from

PROBLEM = PIVProblem("fleet", 40, 40, mask=8, offs=3)
AXES = dict(rb=[1, 2], threads=[32, 64])


def piv_spec(device="c2070", seed=3):
    return ProblemSpec(app="piv", problem=PROBLEM, seed=seed,
                       device=device, memory_bytes=8 << 20)


def piv_request(device="c2070", seed=3, **kw):
    return RunRequest(spec=piv_spec(device, seed),
                      config=PIVConfig(rb=2, threads=32,
                                       functional=True), **kw)


def explode(config) -> SweepRecord:
    raise ValueError(f"cell {config['cell']} refused")


def comparable(records):
    return [(r.index, r.key(), r.seconds, r.reg_count, r.occupancy,
             r.valid, r.error) for r in records]


# ---------------------------------------------------------------------
# Construction and placement.
# ---------------------------------------------------------------------

class TestPlacement:
    def test_members_are_labeled_per_ordinal(self):
        with DeviceFleet(["c2070", "c2070", "k20"]) as fleet:
            assert [m.key for m in fleet.members] \
                == ["c2070:0", "c2070:1", "k20:2"]

    def test_unknown_device_rejected(self):
        with pytest.raises(FleetPlacementError):
            DeviceFleet(["gtx480"])

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError):
            DeviceFleet([])

    def test_bad_placement_rejected(self):
        with pytest.raises(ValueError):
            DeviceFleet(["c2070"], placement="random")

    def test_eligibility_is_by_device_model(self):
        with DeviceFleet(["c1060", "c2070", "c1060"]) as fleet:
            assert [m.key for m in fleet.eligible("c1060")] \
                == ["c1060:0", "c1060:2"]
            assert fleet.eligible("k20") == []
            with pytest.raises(FleetPlacementError):
                fleet.place("k20")

    def test_least_loaded_stripes(self):
        with DeviceFleet(["c2070"] * 3) as fleet:
            picks = []
            for _ in range(6):
                member = fleet.place("c2070")
                member.dispatched += 1
                picks.append(member.ordinal)
            assert picks == [0, 1, 2, 0, 1, 2]

    def test_round_robin_stripes(self):
        with DeviceFleet(["c2070"] * 2,
                         placement="round-robin") as fleet:
            picks = [fleet.place("c2070").ordinal for _ in range(4)]
            assert picks == [0, 1, 0, 1]

    def test_affinity_is_deterministic_and_sticky(self):
        with DeviceFleet(["c2070"] * 4,
                         placement="affinity") as fleet:
            a = fleet.place("c2070", affinity_key=("piv", 3))
            b = fleet.place("c2070", affinity_key=("piv", 3))
            assert a is b  # identical work pins to one member
        # and the pick survives fleet reconstruction (stable hash)
        with DeviceFleet(["c2070"] * 4,
                         placement="affinity") as fleet2:
            c = fleet2.place("c2070", affinity_key=("piv", 3))
            assert c.ordinal == a.ordinal

    def test_shutdown_fleet_refuses_work(self):
        fleet = DeviceFleet(["c2070"])
        fleet.shutdown()
        with pytest.raises(FleetError):
            fleet.run_requests([piv_request()])


# ---------------------------------------------------------------------
# Request-stream sharding.
# ---------------------------------------------------------------------

class TestRunRequests:
    @pytest.fixture(scope="class")
    def sequential(self):
        return [run_request(piv_request(seed=s)) for s in range(4)]

    # ``caller`` is where the fleet is driven from: the test's own
    # thread, or a helper thread.
    @pytest.mark.parametrize("caller", ["inline", "thread"])
    def test_homogeneous_merge_bit_identical(self, caller, sequential):
        reqs = [piv_request(seed=s) for s in range(4)]
        with DeviceFleet(["c2070"] * 2) as fleet:
            merged = call_from(caller,
                               lambda: fleet.run_requests(reqs))
            for solo, sharded in zip(sequential, merged):
                assert sharded.same_output(solo)
                assert sharded.seconds == solo.seconds
                assert sharded.reg_count == solo.reg_count
            # both members actually worked
            assert all(m.completed == 2 for m in fleet.members)

    def test_results_carry_member_attribution(self):
        with DeviceFleet(["c2070"] * 2) as fleet:
            merged = fleet.run_requests(
                [piv_request(seed=s) for s in range(4)])
            assert [r.worker for r in merged] \
                == ["c2070:0", "c2070:1", "c2070:0", "c2070:1"]

    def test_heterogeneous_requests_route_by_device(self):
        reqs = [piv_request(device=d)
                for d in ("k20", "c2070", "c1060", "k20")]
        solo = {d: run_request(piv_request(device=d))
                for d in ("c1060", "c2070", "k20")}
        with DeviceFleet(["c1060", "c2070", "k20"]) as fleet:
            merged = fleet.run_requests(reqs)
            for req, res in zip(reqs, merged):
                assert res.worker.startswith(req.spec.device + ":")
                assert res.same_output(solo[req.spec.device])

    def test_missing_device_is_typed(self):
        with DeviceFleet(["c1060"]) as fleet:
            with pytest.raises(FleetPlacementError):
                fleet.run_requests([piv_request(device="k20")])

    def test_warm_thread_members_hit_caches(self):
        reqs = [piv_request(seed=3) for _ in range(3)]
        with DeviceFleet(["c2070"]) as fleet:
            merged = fleet.run_requests(reqs)
            assert merged[0].same_output(merged[2])
            assert sum(r.counters["plan_misses"] for r in merged) == 1
            assert sum(r.counters["plan_hits"] for r in merged) == 2

    def test_request_error_is_raised_at_its_position(self):
        bad = piv_request(seed=9, deadline=time.monotonic() - 1.0)
        with DeviceFleet(["c2070"]) as fleet:
            with pytest.raises(ServiceDeadlineError):
                fleet.run_requests([piv_request(), bad])

    def test_return_errors_keeps_good_results(self):
        bad = piv_request(seed=9, deadline=time.monotonic() - 1.0)
        with DeviceFleet(["c2070"]) as fleet:
            out = fleet.run_requests([piv_request(), bad],
                                     return_errors=True)
            assert out[0].same_output(run_request(piv_request()))
            assert isinstance(out[1], ServiceDeadlineError)
            health = fleet.health_report()
            assert health["status"] == "degraded"
            assert health["metrics"]["counters"]["fleet.errors"] == 1


# ---------------------------------------------------------------------
# Grid sharding and the Sweeper/harness wiring.
# ---------------------------------------------------------------------

class TestGridSharding:
    @pytest.fixture(scope="class")
    def baseline(self):
        return harness_sweep("piv", PROBLEM, AXES, device="c2070",
                             memory_bytes=8 << 20)

    @pytest.mark.parametrize("caller", ["inline", "thread"])
    @pytest.mark.parametrize("placement",
                             ["least-loaded", "round-robin", "affinity"])
    def test_fleet_sweep_bit_identical(self, placement, caller,
                                       baseline):
        with DeviceFleet(["c2070"] * 2, placement=placement) as fleet:
            sweeper = call_from(caller, lambda: harness_sweep(
                "piv", PROBLEM, AXES, device="c2070",
                memory_bytes=8 << 20, fleet=fleet))
            assert comparable(sweeper.records) \
                == comparable(baseline.records)

    def test_process_backend_bit_identical(self, baseline):
        # The whole fleet, service included, lives in a child process.
        def in_child():
            with DeviceFleet(["c2070"] * 2) as fleet:
                return comparable(harness_sweep(
                    "piv", PROBLEM, AXES, device="c2070",
                    memory_bytes=8 << 20, fleet=fleet).records)

        assert call_from("process", in_child) \
            == comparable(baseline.records)

    def test_sweeper_accounting_sees_fleet_cells(self, baseline):
        with DeviceFleet(["c2070"] * 2) as fleet:
            runner = HarnessRunner("piv", piv_spec())
            sweeper = Sweeper(runner, fleet=fleet)
            sweeper.sweep(grid_configs(**AXES))
            assert sweeper.metrics.snapshot()["counters"][
                "sweep.cells"] == 4
            # per-cell counters rode the records into cache_report
            assert sweeper.cache_report["plan_misses"] == 4

    def test_grid_rejects_unservable_device(self):
        with DeviceFleet(["c1060"]) as fleet:
            with pytest.raises(FleetPlacementError):
                harness_sweep("piv", PROBLEM, AXES, device="k20",
                              memory_bytes=8 << 20, fleet=fleet)

    def test_invalid_cells_stay_typed_records(self):
        with DeviceFleet(["c2070"] * 2) as fleet:
            records = fleet.map_grid(explode, [{"cell": 0}, {"cell": 1}])
            assert all(not r.valid for r in records)
            assert all("ValueError" in r.error for r in records)


# ---------------------------------------------------------------------
# Fleet-level reports.
# ---------------------------------------------------------------------

class TestReports:
    def test_health_report_shape(self):
        with DeviceFleet(["c1060", "k20"],
                         placement="round-robin") as fleet:
            fleet.run_requests([piv_request(device="c1060"),
                                piv_request(device="k20")])
            health = fleet.health_report()
            assert health["status"] == "ok"
        assert fleet.health_report()["status"] == "shutdown"
        assert health["devices"] == ["c1060", "k20"]
        assert health["placement"] == "round-robin"
        rows = {row["member"]: row for row in health["members"]}
        assert rows["c1060:0"]["completed"] == 1
        assert rows["k20:1"]["completed"] == 1
        assert health["makespan_modeled_s"] > 0.0
        assert health["busy_modeled_s"] >= health["makespan_modeled_s"]

    def test_modeled_time_accounting_sums_members(self):
        reqs = [piv_request(seed=s) for s in range(4)]
        solo_total = sum(run_request(r).seconds for r in reqs)
        with DeviceFleet(["c2070"] * 2) as fleet:
            fleet.run_requests(reqs)
            assert fleet.busy_seconds() == pytest.approx(solo_total)
            # balanced striping: the makespan is about half the work
            assert fleet.makespan_seconds() < solo_total

    def test_metrics_namespace(self):
        with DeviceFleet(["c2070"]) as fleet:
            fleet.run_requests([piv_request()])
            counters = fleet.metrics.snapshot()["counters"]
            assert counters["fleet.dispatch"] == 1
            assert counters["fleet.batches"] == 1
            gauges = fleet.metrics.snapshot()["gauges"]
            assert gauges["fleet.members"] == 1
