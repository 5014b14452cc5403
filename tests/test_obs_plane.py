"""The fleet-wide telemetry plane, end to end.

Covers the four tentpole pieces of the observability PR:

* :mod:`repro.obs.hist` — log-bucketed latency histograms whose
  quantile estimates stay within one bucket of the exact order
  statistic (asserted against :func:`numpy.percentile`);
* :mod:`repro.obs.events` — the bounded, seeded-deterministic flight
  recorder, its closed event schema, and the ``repro.obs.tail`` CLI;
* :mod:`repro.obs.prom` — Prometheus text exposition of any metrics
  snapshot, plus the checker CI runs over it;
* cross-process span propagation — a traced serve request ships its
  worker span tree back and the supervisor grafts it under a
  ``request:{id}`` span (the TCP variant lives in ``test_serve.py``).
"""

import json
import sys

import numpy as np
import pytest

from repro.apps.harness import ProblemSpec, RunRequest
from repro.apps.piv import PIVConfig, PIVProblem
from repro.obs import report as report_cli
from repro.obs import tail as tail_cli
from repro.obs.events import EVENT_KINDS, FlightRecorder, validate_events
from repro.obs.export import validate_chrome
from repro.obs.hist import (GROWTH, LatencyHistogram, bucket_bounds,
                            bucket_index)
from repro.obs.metrics import MetricsRegistry
from repro.obs.prom import prom_exposition, validate_prom
from repro.obs.trace import TraceContext
from repro.runtime import DeviceFleet
from repro.runtime.context import ExecutionContext
from repro.serve import ServiceConfig, SpecializationService

PIV_SPEC = ProblemSpec(
    app="piv", problem=PIVProblem("plane", 40, 40, mask=8, offs=3),
    seed=3, device="c2070", memory_bytes=8 << 20)


def piv_request(**kw):
    return RunRequest(spec=PIV_SPEC,
                      config=PIVConfig(rb=2, threads=32,
                                       functional=True), **kw)


def fast_config(**kw):
    kw.setdefault("workers", 1)
    kw.setdefault("queue_capacity", 8)
    kw.setdefault("tick", 0.02)
    kw.setdefault("heartbeat_interval", 0.05)
    kw.setdefault("hang_timeout", 2.0)
    return ServiceConfig(**kw)


# ---------------------------------------------------------------------
# Log-bucketed histograms: the quantile error bound is the contract.
# ---------------------------------------------------------------------

class TestLatencyHistogram:
    def test_bucket_geometry(self):
        lo, hi = bucket_bounds(bucket_index(0.5))
        assert lo <= 0.5 < hi
        assert hi / lo == pytest.approx(GROWTH)
        # the clamp: zero and negatives land in the bottom bucket
        assert bucket_index(0.0) == bucket_index(-1.0) \
            == bucket_index(1e-15)

    @pytest.mark.parametrize("dist", ["lognormal", "uniform", "bimodal"])
    def test_quantiles_within_one_bucket_of_exact(self, dist):
        rng = np.random.default_rng(42)
        if dist == "lognormal":
            samples = rng.lognormal(mean=-3.0, sigma=1.2, size=5000)
        elif dist == "uniform":
            samples = rng.uniform(1e-4, 2.0, size=5000)
        else:
            samples = np.concatenate([
                rng.normal(0.01, 0.001, size=2500),
                rng.normal(1.0, 0.05, size=2500)]).clip(min=1e-6)
        h = LatencyHistogram()
        for v in samples:
            h.record(float(v))
        for q in (0.5, 0.9, 0.95, 0.99):
            estimate = h.quantile(q)
            # the bound is against the order statistic itself, not a
            # linearly interpolated percentile (which can land between
            # two widely separated samples in the bimodal case)
            exact = float(np.percentile(samples, q * 100,
                                        method="lower"))
            # Estimate and exact order statistic share a bucket, so
            # the ratio is bounded by one bucket width (factor GROWTH).
            assert exact / GROWTH <= estimate <= exact * GROWTH, \
                f"q={q}: estimate {estimate} vs exact {exact}"

    def test_quantile_edge_cases(self):
        h = LatencyHistogram()
        assert h.quantile(0.5) is None          # empty
        h.record(0.25)
        assert h.quantile(0.5) == 0.25          # clamped into [min,max]
        assert h.quantile(1.0) == 0.25
        with pytest.raises(ValueError):
            h.quantile(0.0)
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_quantiles_dict_shape(self):
        h = LatencyHistogram()
        assert h.quantiles() == {}
        for v in (0.1, 0.2, 0.3):
            h.record(v)
        qs = h.quantiles()
        assert set(qs) == {"p50", "p95", "p99"}
        assert qs["p50"] <= qs["p95"] <= qs["p99"]

    def test_merge_adds_bucket_counts(self):
        rng = np.random.default_rng(7)
        a, b, both = (LatencyHistogram() for _ in range(3))
        for v in rng.uniform(0.001, 1.0, size=400):
            a.record(float(v))
            both.record(float(v))
        for v in rng.lognormal(-2, 1, size=400):
            b.record(float(v))
            both.record(float(v))
        a.merge(b)
        assert a.count == both.count == 800
        assert a.buckets == both.buckets
        assert a.sum == pytest.approx(both.sum)
        assert a.quantile(0.95) == both.quantile(0.95)

    def test_from_parts_round_trips_through_json(self):
        h = LatencyHistogram()
        for v in (0.01, 0.02, 0.5, 0.5, 3.0):
            h.record(v)
        blob = json.dumps({"summary": h.summary(),
                           "buckets": h.buckets})
        parts = json.loads(blob)  # bucket keys become strings
        back = LatencyHistogram.from_parts(parts["summary"],
                                           parts["buckets"])
        assert back.count == h.count
        assert back.buckets == h.buckets
        assert back.quantile(0.5) == h.quantile(0.5)

    def test_summary_without_buckets_quantile_none(self):
        h = LatencyHistogram.from_parts(
            {"count": 10, "sum": 1.0, "min": 0.05, "max": 0.2})
        assert h.count == 10
        assert h.quantile(0.5) is None  # no bucket detail shipped


# ---------------------------------------------------------------------
# Registry: SLO breach counters, snapshot buckets, bucket-aware merge.
# ---------------------------------------------------------------------

class TestRegistrySLO:
    def test_breaches_counted_above_threshold(self):
        reg = MetricsRegistry()
        reg.set_slo("lat_s", 0.5)
        for v in (0.1, 0.6, 0.4, 2.0, 0.5):  # exactly-at is not a breach
            reg.observe("lat_s", v)
        assert reg.counter("slo.breach.lat_s") == 2
        assert reg.slos() == {"lat_s": 0.5}

    def test_snapshot_carries_buckets_section(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.observe("lat_s", 0.25)
        snap = reg.snapshot()
        assert set(snap) == {"counters", "gauges", "histograms",
                             "buckets"}
        # the histogram summary keeps its historical shape
        assert set(snap["histograms"]["lat_s"]) \
            == {"count", "sum", "mean", "min", "max"}
        assert snap["buckets"]["lat_s"] == {bucket_index(0.25): 1}

    def test_merge_combines_bucket_counts(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for v in (0.1, 0.2, 0.4):
            a.observe("lat_s", v)
            b.observe("lat_s", v)
        a.merge(b.snapshot())
        snap = a.snapshot()
        assert snap["histograms"]["lat_s"]["count"] == 6
        assert all(n == 2 for n in snap["buckets"]["lat_s"].values())
        assert a.quantile("lat_s", 0.5) is not None

    def test_quantiles_for_unknown_histogram(self):
        reg = MetricsRegistry()
        assert reg.quantile("nope", 0.5) is None
        assert reg.quantiles("nope") == {}


# ---------------------------------------------------------------------
# Flight recorder: bounded, deterministic, schema-validated.
# ---------------------------------------------------------------------

class TestFlightRecorder:
    def test_ring_rotation_and_drop_count(self):
        rec = FlightRecorder(capacity=3)
        for i in range(5):
            rec.record("note", text=f"n{i}")
        assert len(rec) == 3
        assert rec.dropped == 2
        assert rec.last_seq == 5
        assert [e["attrs"]["text"] for e in rec.events()] \
            == ["n2", "n3", "n4"]

    def test_ids_are_seed_deterministic(self):
        a = FlightRecorder(seed=11)
        b = FlightRecorder(seed=11)
        c = FlightRecorder(seed=12)
        for rec in (a, b, c):
            rec.record("note", text="x")
            rec.record("worker.spawn", worker="w0g1")
        ids = lambda r: [e["id"] for e in r.events()]  # noqa: E731
        assert ids(a) == ids(b)
        assert ids(a) != ids(c)

    def test_unknown_kind_raises(self):
        rec = FlightRecorder()
        with pytest.raises(ValueError, match="unknown event kind"):
            rec.record("made.up", foo=1)

    def test_since_returns_the_delta(self):
        rec = FlightRecorder()
        rec.record("note", text="before")
        mark = rec.last_seq
        rec.record("note", text="after")
        delta = rec.since(mark)
        assert [e["attrs"]["text"] for e in delta] == ["after"]

    def test_extend_resequences_and_reoriginates(self):
        worker = FlightRecorder(origin="worker")
        worker.record("cache.quarantine", path="k.bin")
        shipped = worker.since(0)
        sup = FlightRecorder(origin="supervisor")
        sup.record("worker.spawn", worker="w0g1")
        assert sup.extend(shipped, origin="w0g1") == 1
        events = sup.events()
        assert [e["seq"] for e in events] == [1, 2]
        assert events[1]["kind"] == "cache.quarantine"
        assert events[1]["origin"] == "w0g1"
        assert not validate_events(events)

    def test_validate_events_catches_schema_violations(self):
        ok = FlightRecorder()
        ok.record("worker.kill", worker="w0g1", why="hang")
        events = ok.events()
        assert validate_events(events) == []
        bad_attr = [dict(events[0], attrs={"worker": "w0g1"})]
        assert any("missing attr 'why'" in p
                   for p in validate_events(bad_attr))
        bad_kind = [dict(events[0], kind="bogus")]
        assert any("unknown kind" in p
                   for p in validate_events(bad_kind))
        stuck_seq = [dict(events[0]), dict(events[0])]
        assert any("not increasing" in p
                   for p in validate_events(stuck_seq))

    def test_every_declared_kind_is_recordable(self):
        rec = FlightRecorder(capacity=len(EVENT_KINDS))
        for kind, required in EVENT_KINDS.items():
            rec.record(kind, **{k: "x" for k in required})
        assert validate_events(rec.events()) == []

    def test_dump_json_round_trip(self, tmp_path):
        rec = FlightRecorder(seed=5, origin="test")
        rec.record("redispatch", request=3, attempts=2)
        path = rec.dump_json(str(tmp_path / "flight.json"))
        with open(path) as fh:
            dump = json.load(fh)
        assert dump["origin"] == "test"
        assert dump["seed"] == 5
        assert validate_events(dump["events"]) == []

    def test_crash_hook_dumps_and_chains(self, tmp_path):
        rec = FlightRecorder(origin="crashy")
        rec.record("note", text="pre-crash")
        path = str(tmp_path / "crash.json")
        chained = []
        previous = sys.excepthook
        sys.excepthook = lambda *a: chained.append(a)
        try:
            rec.install_crash_dump(path)
            try:
                raise RuntimeError("boom")
            except RuntimeError:
                sys.excepthook(*sys.exc_info())
        finally:
            sys.excepthook = previous
        assert len(chained) == 1  # the previous hook still ran
        with open(path) as fh:
            dump = json.load(fh)
        kinds = [e["attrs"]["text"] for e in dump["events"]]
        assert kinds == ["pre-crash", "crash: RuntimeError: boom"]


class TestTailCLI:
    def test_demo_writes_then_checks_clean(self, tmp_path, capsys):
        path = str(tmp_path / "demo.json")
        assert tail_cli.main([path, "--demo"]) == 0
        out = capsys.readouterr().out
        assert "worker.spawn" in out and "breaker.transition" in out
        assert tail_cli.main([path, "--check"]) == 0
        assert "schema valid" in capsys.readouterr().out

    def test_demo_dump_is_deterministic(self, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        tail_cli._demo_dump(a)
        tail_cli._demo_dump(b)
        assert open(a).read() == open(b).read()

    def test_kind_and_last_filters(self, tmp_path, capsys):
        path = str(tmp_path / "demo.json")
        tail_cli._demo_dump(path)
        assert tail_cli.main([path, "--kind", "worker.spawn"]) == 0
        out = capsys.readouterr().out
        assert "worker.spawn" in out and "redispatch" not in out
        assert tail_cli.main([path, "--last", "1"]) == 0
        out = capsys.readouterr().out
        assert "note" in out and "worker.spawn" not in out

    def test_check_flags_corrupt_dump(self, tmp_path, capsys):
        path = str(tmp_path / "bad.json")
        with open(path, "w") as fh:
            json.dump({"events": [{"seq": 1, "id": "e0", "t": 0.0,
                                   "kind": "worker.kill",
                                   "origin": "x",
                                   "attrs": {"worker": "w"}}]}, fh)
        assert tail_cli.main([path, "--check"]) == 1
        assert "missing attr 'why'" in capsys.readouterr().out

    def test_unreadable_dump_is_an_error(self, tmp_path, capsys):
        assert tail_cli.main([str(tmp_path / "missing.json")]) == 2
        assert "cannot read" in capsys.readouterr().err


# ---------------------------------------------------------------------
# Prometheus exposition.
# ---------------------------------------------------------------------

class TestPromExposition:
    def _loaded_registry(self):
        reg = MetricsRegistry()
        reg.inc("serve.ok", 3)
        reg.inc("client.alice.ok", 2)
        reg.gauge("fleet.members", 4)
        rng = np.random.default_rng(1)
        for v in rng.lognormal(-2, 1, size=200):
            reg.observe("client.alice.latency_s", float(v))
        return reg

    def test_render_validates_clean(self):
        text = prom_exposition(self._loaded_registry().snapshot())
        assert validate_prom(text) == []
        assert "# TYPE repro_serve_ok counter" in text
        assert "# TYPE repro_fleet_members gauge" in text
        assert "# TYPE repro_client_alice_latency_s histogram" in text

    def test_bucket_ladder_is_cumulative_to_inf(self):
        text = prom_exposition(self._loaded_registry().snapshot())
        ladder = [float(line.rsplit(" ", 1)[1])
                  for line in text.splitlines()
                  if line.startswith("repro_client_alice_latency_s"
                                     "_bucket")]
        assert ladder == sorted(ladder)
        assert ladder[-1] == 200  # +Inf agrees with _count
        assert "repro_client_alice_latency_s_count 200" in text

    def test_json_round_tripped_snapshot_renders(self):
        snap = json.loads(json.dumps(self._loaded_registry().snapshot()))
        text = prom_exposition(snap)  # bucket keys are strings now
        assert validate_prom(text) == []

    def test_name_collision_raises(self):
        reg = MetricsRegistry()
        reg.inc("a.b")
        reg.inc("a_b")
        with pytest.raises(ValueError, match="sanitize"):
            prom_exposition(reg.snapshot())

    def test_validator_catches_broken_text(self):
        assert any("no # TYPE" in p
                   for p in validate_prom("orphan_sample 1\n"))
        bad_ladder = ("# TYPE h histogram\n"
                      'h_bucket{le="0.5"} 5\n'
                      'h_bucket{le="1.0"} 3\n'
                      'h_bucket{le="+Inf"} 5\n'
                      "h_sum 1.0\nh_count 5\n")
        assert any("non-cumulative" in p
                   for p in validate_prom(bad_ladder))
        no_inf = "# TYPE h histogram\nh_sum 1.0\nh_count 5\n"
        assert any("missing +Inf" in p for p in validate_prom(no_inf))

    def test_empty_snapshot_renders_empty(self):
        assert prom_exposition(MetricsRegistry().snapshot()) == ""


# ---------------------------------------------------------------------
# report CLI: --prom and event-aware --check.
# ---------------------------------------------------------------------

class TestReportCLI:
    @pytest.fixture(scope="class")
    def demo_trace(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("report") / "trace.json")
        assert report_cli.main(["--demo", path]) == 0
        return path

    def test_check_includes_flight_events(self, demo_trace, capsys):
        assert report_cli.main(["--check", demo_trace]) == 0
        assert "flight events" in capsys.readouterr().out

    def test_prom_output_is_valid(self, demo_trace, capsys):
        assert report_cli.main(["--prom", demo_trace]) == 0
        text = capsys.readouterr().out
        assert validate_prom(text) == []
        assert "# TYPE" in text

    def test_check_rejects_bad_embedded_events(self, demo_trace,
                                               tmp_path, capsys):
        with open(demo_trace) as fh:
            doc = json.load(fh)
        doc.setdefault("otherData", {})["events"] = [
            {"seq": 1, "id": "e0", "t": 0.0, "kind": "bogus.kind",
             "origin": "x", "attrs": {}}]
        bad = str(tmp_path / "bad.json")
        with open(bad, "w") as fh:
            json.dump(doc, fh)
        assert report_cli.main(["--check", bad]) == 1
        assert "otherData.events" in capsys.readouterr().out


# ---------------------------------------------------------------------
# Cross-process propagation: worker spans grafted under request spans.
# ---------------------------------------------------------------------

class TestServeTelemetryPlane:
    def test_worker_spans_graft_under_request_span(self, tmp_path):
        cfg = fast_config(slo={"client.latency_s": 120.0})
        with SpecializationService(cfg) as svc:
            svc.enable_tracing("serve-test")
            svc.run(piv_request(), client="alice")
            tracer = svc.tracer
            path = svc.export_trace(str(tmp_path / "serve.json"))
            health = svc.health()
        by_sid = {s.sid: s for s in tracer.spans}
        request = [s for s in tracer.spans
                   if s.parent is None and s.name.startswith("request:")]
        assert len(request) == 1
        request = request[0]
        assert request.cat == "serve"
        assert request.attrs["client"] == "alice"
        children = [s for s in tracer.spans
                    if s.parent == request.sid]
        names = {s.name for s in children}
        assert "queue" in names
        assert any(n.startswith("worker:") for n in names)
        worker_span = next(s for s in children
                           if s.name.startswith("worker:"))
        # the worker-side tree (compile/launch spans) hangs below the
        # synthetic worker span — the cross-process graft worked
        descendants = []
        frontier = [worker_span.sid]
        while frontier:
            sid = frontier.pop()
            kids = [s for s in tracer.spans if s.parent == sid]
            descendants += kids
            frontier += [s.sid for s in kids]
        cats = {s.cat for s in descendants}
        assert "launch" in cats
        for span in descendants:  # nesting within the grafted subtree
            parent = by_sid[span.parent]
            assert span.start >= parent.start - 1e-6
            assert span.start + span.duration \
                <= parent.start + parent.duration + 1e-6
        with open(path) as fh:
            doc = json.load(fh)
        assert validate_chrome(doc) == []
        assert validate_events(doc["otherData"]["events"]) == []
        # satellite: /health rows carry quantiles + SLO accounting
        alice = health["clients"]["alice"]
        assert alice["p95_s"] > 0.0
        assert alice["slo_breach"] == 0
        assert health["slo"]["thresholds"] == {
            "client.alice.latency_s": 120.0}
        assert health["flight"]["events"]

    def test_untraced_service_ships_no_span_payload(self):
        with SpecializationService(fast_config()) as svc:
            result = svc.run(piv_request(), client="bob")
        assert result.trace is None
        assert result.events == []
        assert result.wall_seconds > 0.0

    def test_slo_breach_surfaces_in_health(self):
        cfg = fast_config(slo={"client.latency_s": 1e-9})
        with SpecializationService(cfg) as svc:
            svc.run(piv_request(), client="carol")
            health = svc.health()
        assert health["clients"]["carol"]["slo_breach"] == 1
        assert health["slo"]["breaches"] == {
            "slo.breach.client.carol.latency_s": 1}

    def test_phase_histograms_recorded_for_traced_requests(self):
        with SpecializationService(fast_config()) as svc:
            svc.enable_tracing()
            svc.run(piv_request())
            snap = svc.metrics.snapshot()
        for name in ("serve.phase.compile_s", "serve.phase.launch_s",
                     "serve.exec_s", "serve.queue_wait_s"):
            assert snap["histograms"][name]["count"] >= 1

    def test_flight_recorder_sees_worker_lifecycle(self):
        with SpecializationService(fast_config()) as svc:
            svc.run(piv_request())
        events = svc.recorder.events()
        kinds = [e["kind"] for e in events]
        assert "worker.spawn" in kinds
        assert kinds[-1] == "note"  # "service stopped"
        assert validate_events(events) == []


class TestHarnessPropagation:
    def test_trace_ctx_implies_tracing_and_ships_events(self):
        from repro.apps.harness import run_request
        ctx = TraceContext(trace_id="req42", parent="request:42",
                           client="dana")
        result = run_request(piv_request(trace_ctx=ctx))
        assert result.trace is not None
        assert result.trace["name"] == "req42"
        roots = [s for s in result.trace["spans"]
                 if s["parent"] is None]
        assert roots[0]["attrs"]["trace_id"] == "req42"
        assert roots[0]["attrs"]["client"] == "dana"
        assert validate_events(result.events) == []

    def test_context_always_has_a_recorder(self):
        ctx = ExecutionContext(name="plane-test")
        assert isinstance(ctx.events, FlightRecorder)
        assert ctx.events.origin == "plane-test"


class TestFleetTelemetry:
    def test_results_surface_trace_counters(self):
        with DeviceFleet(["c2070"] * 2) as fleet:
            results = fleet.run_requests([piv_request() for _ in range(3)])
            health = fleet.health_report()
        for result in results:
            assert set(result.counters) == {"plan_hits", "plan_misses",
                                            "gang_hits", "gang_misses"}
        assert validate_events(health["flight"]["events"]) == []
        kinds = [e["kind"] for e in health["flight"]["events"]]
        assert kinds.count("fleet.place") == 3

    def test_fleet_grafts_member_results(self, tmp_path):
        with DeviceFleet(["c2070"]) as fleet:
            fleet.enable_tracing()
            fleet.run_requests([piv_request()])
            path = fleet.export_trace(str(tmp_path / "fleet.json"))
        wrappers = [s for s in fleet.tracer.spans
                    if s.parent is None
                    and s.name.startswith("request:")]
        assert len(wrappers) == 1
        grafted = [s for s in fleet.tracer.spans
                   if s.parent == wrappers[0].sid]
        assert grafted  # the member's span tree came back
        with open(path) as fh:
            assert validate_chrome(json.load(fh)) == []
