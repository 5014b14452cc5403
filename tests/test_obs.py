"""Observability subsystem tests: spans, metrics, profiles, exports.

Covers the contracts DESIGN.md §8 states:

* span trees are well-formed — no orphan parents, parents precede
  children in begin order, child intervals nest inside their parent's;
* metrics snapshots are exact and identical under ``jobs=1`` and
  ``jobs=4`` (cells served by worker processes);
* exported Chrome-trace JSON conforms to the schema
  :func:`repro.obs.export.validate_chrome` enforces;
* tracing off is zero-allocation: no :class:`Tracer` or :class:`Span`
  object is ever constructed on an untraced run.
"""

import json
import pickle
import threading

import pytest

from repro.apps.harness import ProblemSpec, RunRequest, run_request
from repro.apps.piv import PIVProblem
from repro.apps.template_matching import MatchConfig, MatchProblem
from repro.gpupf import KernelCache, Pipeline
from repro.gpusim import GPU, TESLA_C2070
from repro.gpusim.engine import batch_width
from repro.obs import (LaunchProfile, MetricsRegistry, Span, Tracer,
                       chrome_trace, current_tracer, metrics_table,
                       summary_tree, validate_chrome, write_trace)
from repro.obs import report as report_cli
from repro.runtime.context import ExecutionContext, using_context
from repro.tuning.app_sweeps import harness_sweep
from repro.tuning.sweep import SweepRecord, Sweeper, grid_configs
from tests.test_gpupf import SCALE_SRC

#: Slack (seconds) for float-subtraction timestamp arithmetic.
EPS = 1e-6


def assert_well_formed(exported):
    """Every span: unique sid, parent already seen, interval nested."""
    seen = {}
    for s in exported["spans"]:
        assert s["sid"] not in seen, f"duplicate sid {s['sid']}"
        seen[s["sid"]] = s
        assert s["dur"] >= 0.0
        if s["parent"] is None:
            continue
        assert s["parent"] in seen, \
            f"span {s['sid']} parent {s['parent']} missing/out of order"
        p = seen[s["parent"]]
        assert s["start"] >= p["start"] - EPS
        assert s["start"] + s["dur"] <= p["start"] + p["dur"] + EPS


def build_traced_pipeline(ctx, specialize=True):
    """The test_gpupf scale pipeline, on a private traced context."""
    gpu = GPU(TESLA_C2070, context=ctx)
    pipe = Pipeline(gpu, "scale", cache=KernelCache(), trace=True)
    n = pipe.int_param("n", 256)
    factor = pipe.int_param("factor", 3)
    extent = pipe.extent_param("buf", (256,), 4)
    extent.derive_from([n], lambda k: ((k,), 4))
    defines = {"CT_FACTOR": 1, "FACTOR": factor} if specialize else {}
    mod = pipe.module("mod", SCALE_SRC, defines=defines)
    k = pipe.kernel("scale", mod)
    h_in = pipe.host_memory("h_in", extent)
    h_out = pipe.host_memory("h_out", extent)
    d_in = pipe.global_memory("d_in", extent)
    d_out = pipe.global_memory("d_out", extent)
    grid = pipe.triplet_param("grid", (2, 1, 1))
    block = pipe.triplet_param("block", (128, 1, 1))
    pipe.copy("upload", h_in, d_in)
    pipe.kernel_exec("run", k, grid, block, [d_in, d_out, n, factor])
    pipe.copy("download", d_out, h_out)
    return pipe


SMALL_TM = MatchProblem("obs-tm", frame_h=60, frame_w=80, tmpl_h=16,
                        tmpl_w=12, shift_h=5, shift_w=5, n_frames=1)
SMALL_PIV = PIVProblem("obs-piv", 48, 64, mask=8, offs=5)


class TestTracer:
    def test_span_nesting_and_parents(self):
        t = Tracer("t")
        with t.span("a", "x"):
            with t.span("b", "x"):
                pass
            with t.span("c", "x"):
                pass
        a, b, c = t.spans
        assert (a.parent, b.parent, c.parent) == (None, a.sid, a.sid)
        assert_well_formed(t.to_dict())

    def test_per_thread_parenting_is_disjoint(self):
        t = Tracer("t")
        done = threading.Barrier(3)

        def work(name):
            with t.span(name, "thread"):
                done.wait()

        threads = [threading.Thread(target=work, args=(f"w{i}",))
                   for i in range(2)]
        for th in threads:
            th.start()
        done.wait()
        for th in threads:
            th.join()
        assert all(s.parent is None for s in t.spans)
        assert len({s.tid for s in t.spans}) == 2
        assert_well_formed(t.to_dict())

    def test_event_is_instantaneous(self):
        t = Tracer("t")
        with t.span("outer", "x"):
            e = t.event("fault.launch", "fault", site="k")
        assert e.duration == 0.0
        assert e.parent == t.spans[0].sid

    def test_exception_closes_span_and_records_error(self):
        t = Tracer("t")
        with pytest.raises(ValueError):
            with t.span("boom", "x"):
                raise ValueError("no")
        (s,) = t.spans
        assert s.duration is not None
        assert s.attrs["error"] == "ValueError: no"

    def test_graft_retimes_into_the_past(self):
        # Real ordering: the aggregating tracer's enclosing span opens
        # before the worker runs, as in Sweeper.sweep().
        parent = Tracer("parent")
        with parent.span("sweep", "sweep"):
            worker = Tracer("worker")
            with worker.span("cell-work", "x"):
                with worker.span("inner", "x"):
                    pass
            wrapper = parent.graft(worker.to_dict(), "cell:0")
        exported = parent.to_dict()
        assert_well_formed(exported)
        assert wrapper.parent == parent.spans[0].sid
        grafted = [s for s in exported["spans"]
                   if s["parent"] == wrapper.sid]
        assert [s["name"] for s in grafted] == ["cell-work"]
        assert parent.graft({"spans": []}, "cell:1") is None


class TestMetricsRegistry:
    def test_instruments_and_snapshot(self):
        m = MetricsRegistry()
        m.inc("fault.launch")
        m.inc("fault.launch", 2)
        m.gauge("pipeline.iterations", 7)
        m.observe("launch.cycles", 10.0)
        m.observe("launch.cycles", 30.0)
        snap = m.snapshot()
        assert snap["counters"] == {"fault.launch": 3}
        assert snap["gauges"] == {"pipeline.iterations": 7}
        assert snap["histograms"]["launch.cycles"] == {
            "count": 2, "sum": 40.0, "mean": 20.0,
            "min": 10.0, "max": 30.0}
        json.dumps(snap)  # plain JSON types throughout

    def test_merge_combines_summaries(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("n", 2)
        b.inc("n", 3)
        a.observe("h", 1.0)
        b.observe("h", 5.0)
        a.merge(b.snapshot())
        snap = a.snapshot()
        assert snap["counters"] == {"n": 5}
        assert snap["histograms"]["h"] == {
            "count": 2, "sum": 6.0, "mean": 3.0, "min": 1.0,
            "max": 5.0}

    def test_concurrent_increments_are_exact(self):
        m = MetricsRegistry()

        def work():
            for _ in range(1000):
                m.inc("n")

        threads = [threading.Thread(target=work) for _ in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert m.counter("n") == 8000


class TestZeroOverhead:
    def test_untraced_run_allocates_no_tracer_objects(self, monkeypatch):
        from repro.obs import trace as trace_mod

        def boom(*args, **kwargs):
            raise AssertionError(
                "tracer/span allocated while tracing is off")

        monkeypatch.setattr(trace_mod.Tracer, "__init__", boom)
        monkeypatch.setattr(trace_mod.Span, "__init__", boom)
        ctx = ExecutionContext(name="notrace")
        with using_context(ctx):
            gpu = GPU(TESLA_C2070, context=ctx)
            pipe = Pipeline(gpu, "scale", cache=KernelCache())
            n = pipe.int_param("n", 256)
            factor = pipe.int_param("factor", 3)
            extent = pipe.extent_param("buf", (256,), 4)
            mod = pipe.module("mod", SCALE_SRC,
                              defines={"CT_FACTOR": 1, "FACTOR": factor})
            k = pipe.kernel("scale", mod)
            d_in = pipe.global_memory("d_in", extent)
            d_out = pipe.global_memory("d_out", extent)
            grid = pipe.triplet_param("grid", (2, 1, 1))
            block = pipe.triplet_param("block", (128, 1, 1))
            pipe.kernel_exec("run", k, grid, block,
                             [d_in, d_out, n, factor])
            pipe.run(2)
        assert ctx.tracer is None
        assert current_tracer() is None

    def test_untraced_harness_run_carries_no_trace(self, monkeypatch):
        from repro.obs import trace as trace_mod

        def boom(*args, **kwargs):
            raise AssertionError("span allocated while tracing is off")

        monkeypatch.setattr(trace_mod.Span, "__init__", boom)
        result = run_request(RunRequest(
            ProblemSpec("template_matching", SMALL_TM, seed=11,
                        memory_bytes=8 << 20),
            MatchConfig(tile_w=8, tile_h=8, threads=32)))
        assert result.trace is None
        assert result.metrics is None
        assert result.profiles == []


class TestPipelineTracing:
    def test_spans_cover_every_phase(self):
        ctx = ExecutionContext(name="obs-pipe")
        pipe = build_traced_pipeline(ctx)
        pipe.run(2)
        exported = ctx.tracer.to_dict()
        assert_well_formed(exported)
        cats = {s["cat"] for s in exported["spans"]}
        assert {"pipeline", "action", "compile", "cache", "plan",
                "launch", "engine"} <= cats
        names = [s["name"] for s in exported["spans"]]
        assert "refresh:scale" in names and "run:scale" in names
        assert "launch:scale" in names and "nvcc" in names

    def test_nvcc_span_splits_into_compiler_stages(self):
        ctx = ExecutionContext(name="obs-nvcc")
        pipe = build_traced_pipeline(ctx)
        pipe.run(1)
        spans = ctx.tracer.spans
        compiles = [s for s in spans if s.name == "nvcc"]
        assert compiles
        stages = ("preprocess", "parse", "codegen", "optimize")
        for nvcc_span in compiles:
            children = {s.name: s for s in spans
                        if s.parent == nvcc_span.sid}
            assert set(stages) <= set(children)
            assert all(children[n].cat == "kernelc" for n in stages)
            assert sum(children[n].duration for n in stages) \
                <= nvcc_span.duration

    def test_optimize_span_splits_into_passes(self):
        ctx = ExecutionContext(name="obs-passes")
        pipe = build_traced_pipeline(ctx)
        pipe.run(1)
        spans = ctx.tracer.spans
        optimizes = [s for s in spans if s.name == "optimize"]
        assert optimizes
        o3 = ["constprop", "dce", "strength", "magicdiv", "cse",
              "scalarize", "constprop", "dce", "cse", "dce", "renumber",
              "regalloc"]
        for opt in optimizes:
            children = [s for s in spans if s.parent == opt.sid]
            assert [s.name for s in children] == o3
            assert all(s.cat == "kernelc" for s in children)
            assert sum(s.duration for s in children) <= opt.duration

    def test_launch_spans_carry_profiles(self):
        ctx = ExecutionContext(name="obs-prof")
        pipe = build_traced_pipeline(ctx)
        pipe.run(1)
        launches = [s for s in ctx.tracer.spans
                    if s.cat == "launch"]
        assert launches
        for span in launches:
            for key in ("occupancy", "reg_count", "mem_transactions",
                        "cycles", "instructions", "engine", "bound"):
                assert key in span.attrs, key
        profiles = ctx.tracer.profiles
        assert len(profiles) == len(launches)
        p = profiles[0]
        assert isinstance(p, LaunchProfile)
        assert p.kernel == "scale" and p.cycles > 0
        assert 0.0 < p.occupancy <= 1.0 and p.reg_count > 0
        assert p.mem_transactions > 0
        # The always-on metric side of a traced launch.
        snap = ctx.metrics.snapshot()
        assert snap["counters"]["launch.count"] == len(launches)
        assert snap["histograms"]["launch.cycles"]["count"] == \
            len(launches)

    def test_export_trace_validates_and_embeds_metrics(self, tmp_path):
        ctx = ExecutionContext(name="obs-export")
        pipe = build_traced_pipeline(ctx)
        pipe.run(1)
        path = tmp_path / "trace.json"
        pipe.export_trace(str(path))
        doc = json.loads(path.read_text())
        assert validate_chrome(doc) == []
        metrics = doc["otherData"]["metrics"]
        assert "cache.plan_misses" in metrics["counters"]
        assert report_cli.main(["--check", str(path)]) == 0

    def test_untraced_pipeline_refuses_export(self, tmp_path):
        from repro.gpupf.pipeline import PipelineError
        ctx = ExecutionContext(name="obs-noexport")
        gpu = GPU(TESLA_C2070, context=ctx)
        pipe = Pipeline(gpu, "p", cache=KernelCache())
        with pytest.raises(PipelineError, match="trace=True"):
            pipe.export_trace(str(tmp_path / "t.json"))

    def test_health_report_keys_unchanged(self):
        ctx = ExecutionContext(name="obs-health")
        pipe = build_traced_pipeline(ctx)
        pipe.run(1)
        report = pipe.health_report()
        assert set(report) == {"pipeline", "faults", "retries",
                               "degraded", "fallbacks", "cache",
                               "refreshes", "iterations"}
        assert report["faults"] == {} and report["fallbacks"] == 0


class TestHarnessTracing:
    def test_traced_result_survives_pickling(self):
        request = RunRequest(
            ProblemSpec("template_matching", SMALL_TM, seed=11,
                        memory_bytes=8 << 20),
            MatchConfig(tile_w=8, tile_h=8, threads=32), trace=True)
        result = pickle.loads(pickle.dumps(run_request(request)))
        assert_well_formed(result.trace)
        assert result.profiles and all(
            isinstance(p, LaunchProfile) for p in result.profiles)
        assert result.metrics["counters"]["launch.count"] == \
            len(result.profiles)
        cats = {s["cat"] for s in result.trace["spans"]}
        assert {"harness", "pipeline", "compile", "launch"} <= cats

    def test_registry_holds_the_request_cache_counts(self):
        # The context registry is the only store of the cache counts:
        # RunResult.counters and the per-launch profiles both agree
        # with it exactly.
        ctx = ExecutionContext(name="obs-counts")
        request = RunRequest(
            ProblemSpec("template_matching", SMALL_TM, seed=11,
                        memory_bytes=8 << 20),
            MatchConfig(tile_w=8, tile_h=8, threads=32), trace=True)
        result = run_request(request, context=ctx)
        registry = ctx.metrics.counters("cache.")
        assert set(result.counters) == {"plan_hits", "plan_misses",
                                        "gang_hits", "gang_misses"}
        assert {key: registry[f"cache.{key}"]
                for key in result.counters} == result.counters
        profiles = result.profiles
        assert profiles and all(p.engine == "batched" for p in profiles)
        # One plan lookup per launch, one gang lookup per gang batch.
        assert registry["cache.plan_hits"] + \
            registry["cache.plan_misses"] == len(profiles)
        width = batch_width()
        assert registry["cache.gang_hits"] + \
            registry["cache.gang_misses"] == sum(
                -(-p.blocks_executed // width) for p in profiles)
        assert registry["cache.plan_misses"] > 0


class TestSweepObservability:
    AXES = dict(rb=[1, 2], threads=[32, 64])

    def _sweep(self, **kw):
        return harness_sweep("piv", SMALL_PIV, self.AXES, seed=7,
                             memory_bytes=16 << 20, trace=True, **kw)

    def test_metrics_snapshot_exact_across_pools(self):
        seq = self._sweep(jobs=1)
        prc = self._sweep(jobs=4)
        baseline = seq.metrics.snapshot()
        assert prc.metrics.snapshot() == baseline
        assert baseline["counters"]["sweep.cells"] == 4
        assert baseline["histograms"]["sweep.cell_seconds"]["count"] \
            == 4
        assert seq.cache_report == prc.cache_report
        assert seq.cache_report["plan_misses"] == 4

    def test_traced_sweep_grafts_cells_and_validates(self):
        sweeper = self._sweep(jobs=4)
        exported = sweeper.ctx.tracer.to_dict()
        assert_well_formed(exported)
        cells = [s for s in exported["spans"]
                 if s["name"].startswith("cell:")]
        assert len(cells) == len(sweeper.records)
        # Each grafted cell subtree carries the worker's launch spans.
        for cell in cells:
            children = [s for s in exported["spans"]
                        if s["parent"] == cell["sid"]]
            assert children
        assert validate_chrome(chrome_trace(exported)) == []

    def test_error_taxonomy_is_a_registry_view(self):
        def run(config):
            if config["x"] % 2:
                raise RuntimeError("odd")
            return SweepRecord(config=config, seconds=1.0)

        sweeper = Sweeper(run)
        sweeper.sweep(grid_configs(x=[0, 1, 2, 3]))
        assert sweeper.error_taxonomy() == {"RuntimeError": 2}
        assert sweeper.metrics.counters("error.") == \
            {"error.RuntimeError": 2}
        assert sweeper.metrics.counter("sweep.cells") == 4

    def test_slowest_report_ranks_by_modeled_time(self):
        def run(config):
            return SweepRecord(config=config,
                               seconds=config["x"] * 1e-3)

        sweeper = Sweeper(run)
        sweeper.sweep(grid_configs(x=[1, 3, 2]))
        report = sweeper.slowest_report(2)
        lines = report.splitlines()
        assert "slowest 2 of 3 cells" in lines[0]
        # title, header, separator, then rows worst-first.
        assert "x=3" in lines[3] and "x=2" in lines[4]


class TestChromeExport:
    def _doc(self):
        t = Tracer("t")
        with t.span("root", "pipeline"):
            with t.span("child", "launch"):
                pass
            t.event("fault.launch", "fault")
        return chrome_trace(t.to_dict(), metrics={"counters": {"n": 1},
                                                  "gauges": {},
                                                  "histograms": {}})

    def test_valid_document_passes(self):
        assert validate_chrome(self._doc()) == []

    def test_validator_catches_corruption(self):
        assert validate_chrome([]) != []
        assert validate_chrome({}) != []
        doc = self._doc()
        doc["traceEvents"][0].pop("dur")
        assert any("dur" in p for p in validate_chrome(doc))
        doc = self._doc()
        doc["traceEvents"][1]["args"]["parent"] = 999
        assert any("orphan" in p for p in validate_chrome(doc))
        doc = self._doc()
        doc["traceEvents"][1]["args"]["sid"] = \
            doc["traceEvents"][0]["args"]["sid"]
        assert any("duplicate" in p for p in validate_chrome(doc))
        doc = self._doc()
        doc["traceEvents"][1]["ts"] = doc["traceEvents"][0]["ts"] + 1e9
        assert any("escapes" in p for p in validate_chrome(doc))

    def test_cli_round_trip(self, tmp_path, capsys):
        ctx = ExecutionContext(name="obs-cli")
        pipe = build_traced_pipeline(ctx)
        pipe.run(1)
        path = tmp_path / "trace.json"
        write_trace(str(path), ctx.tracer.to_dict(),
                    metrics=ctx.metrics_snapshot())
        assert report_cli.main(["--check", str(path)]) == 0
        assert report_cli.main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "launch:scale" in out and "cache.plan_misses" in out
        assert report_cli.main(["--metrics", str(path)]) == 0
        assert report_cli.main([str(tmp_path / "missing.json")]) == 2
        path.write_text(json.dumps({"traceEvents": [{}]}))
        assert report_cli.main(["--check", str(path)]) == 1

    def test_summary_and_metrics_tables_render(self):
        doc = self._doc()
        t = Tracer("t")
        with t.span("root", "pipeline", note="hi"):
            pass
        text = summary_tree(t.to_dict())
        assert "root" in text and "note=hi" in text
        table = metrics_table(doc["otherData"]["metrics"])
        assert "counter" in table


class TestCounterNamespace:
    def test_context_counts_live_in_one_registry(self):
        ctx = ExecutionContext(name="obs-registry")
        ctx.metrics.inc("sweep.cells", 5)
        ctx.metrics.inc("cache.plan_misses")
        counters = ctx.metrics_snapshot()["counters"]
        assert counters["sweep.cells"] == 5
        assert counters["cache.plan_misses"] == 1
        assert ctx.cache_counters()["plan_misses"] == 1

    def test_metrics_snapshot_merges_cache_taxonomy(self):
        ctx = ExecutionContext(name="obs-snap")
        snap = ctx.metrics_snapshot()
        for key in ("cache.plan_hits", "cache.plan_misses",
                    "cache.gang_hits", "cache.gang_misses",
                    "cache.kernel_hits", "cache.kernel_misses"):
            assert key in snap["counters"], key
        flat = ctx.cache_counters()
        assert set(flat) == {"plan_hits", "plan_misses", "gang_hits",
                             "gang_misses"}
