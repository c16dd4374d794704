"""Observability layer tests: registry, tracer, Chrome export, profiler."""

import json

import pytest

from repro.obs import (
    DEFAULT_TRACE_CAPACITY,
    EventTracer,
    MetricsRegistry,
    Observability,
    PhaseProfiler,
    TraceEvent,
    chrome_events,
    chrome_trace,
    dump_chrome_trace,
    empty_snapshot,
    merge_snapshots,
    read_jsonl,
    span_pairs,
    validate_chrome_trace,
    validate_chrome_trace_file,
)


class TestRegistry:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.count("mcu.checks")
        reg.count("mcu.checks", 4)
        assert reg.counter("mcu.checks").value == 5

    def test_counter_memoised(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")

    def test_gauge_set_and_set_max(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("hbt.ways")
        gauge.set(2)
        gauge.set_max(1)  # lower: high-water mark keeps 2
        assert gauge.value == 2
        gauge.set_max(4)
        assert gauge.value == 4

    def test_histogram_bucket_placement(self):
        reg = MetricsRegistry()
        hist = reg.histogram("walk", (1, 2, 4))
        for value in (0, 1, 2, 3, 4, 5, 100):
            hist.observe(value)
        # <=1: {0,1}, <=2: {2}, <=4: {3,4}, overflow: {5,100}
        assert hist.counts == [2, 1, 2, 2]
        assert hist.count == 7
        assert hist.total == sum((0, 1, 2, 3, 4, 5, 100))
        assert hist.mean == pytest.approx(hist.total / 7)

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("bad", (4, 1))

    def test_histogram_reregistration_same_bounds_ok(self):
        reg = MetricsRegistry()
        assert reg.histogram("h", (1, 2)) is reg.histogram("h", (1, 2))

    def test_histogram_reregistration_different_bounds_raises(self):
        reg = MetricsRegistry()
        reg.histogram("h", (1, 2))
        with pytest.raises(ValueError):
            reg.histogram("h", (1, 2, 4))

    def test_snapshot_sorted_and_json_able(self):
        reg = MetricsRegistry()
        reg.count("z.late")
        reg.count("a.early")
        reg.set_gauge("m.level", 1.5)
        reg.histogram("h", (1,)).observe(0)
        snap = reg.snapshot()
        assert list(snap["counters"]) == ["a.early", "z.late"]
        # Round-trips through JSON without custom encoders.
        assert json.loads(json.dumps(snap)) == snap

    def test_empty_snapshot_shape(self):
        assert empty_snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}


class TestMergeSnapshots:
    def test_counters_sum_gauges_max(self):
        a = {"counters": {"c": 2}, "gauges": {"g": 3.0}, "histograms": {}}
        b = {"counters": {"c": 5, "d": 1}, "gauges": {"g": 1.0}, "histograms": {}}
        merged = merge_snapshots([a, b])
        assert merged["counters"] == {"c": 7, "d": 1}
        assert merged["gauges"] == {"g": 3.0}

    def test_histograms_merge_bucketwise(self):
        h1 = {"bounds": [1, 2], "counts": [1, 0, 2], "total": 7.0, "count": 3}
        h2 = {"bounds": [1, 2], "counts": [0, 4, 1], "total": 9.0, "count": 5}
        merged = merge_snapshots(
            [
                {"counters": {}, "gauges": {}, "histograms": {"h": h1}},
                {"counters": {}, "gauges": {}, "histograms": {"h": h2}},
            ]
        )
        assert merged["histograms"]["h"] == {
            "bounds": [1, 2],
            "counts": [1, 4, 3],
            "total": 16.0,
            "count": 8,
        }

    def test_none_and_empty_cells_skipped(self):
        a = {"counters": {"c": 1}, "gauges": {}, "histograms": {}}
        merged = merge_snapshots([None, {}, a])
        assert merged["counters"] == {"c": 1}

    def test_bounds_mismatch_raises(self):
        h1 = {"bounds": [1], "counts": [0, 0], "total": 0.0, "count": 0}
        h2 = {"bounds": [2], "counts": [0, 0], "total": 0.0, "count": 0}
        with pytest.raises(ValueError):
            merge_snapshots(
                [
                    {"counters": {}, "gauges": {}, "histograms": {"h": h1}},
                    {"counters": {}, "gauges": {}, "histograms": {"h": h2}},
                ]
            )

    def test_merge_is_deterministically_ordered(self):
        a = {"counters": {"z": 1}, "gauges": {}, "histograms": {}}
        b = {"counters": {"a": 1}, "gauges": {}, "histograms": {}}
        assert list(merge_snapshots([a, b])["counters"]) == ["a", "z"]


class TestTracer:
    def test_emit_stamps_current_cycle(self):
        tracer = EventTracer()
        tracer.cycle = 42.0
        tracer.emit("mcq.enqueue", occupancy=3)
        (event,) = tracer.events()
        assert event.cycle == 42.0
        assert event.name == "mcq.enqueue"
        assert dict(event.args) == {"occupancy": 3}

    def test_args_stored_sorted(self):
        tracer = EventTracer()
        tracer.emit("e", zeta=1, alpha=2)
        (event,) = tracer.events()
        assert [k for k, _ in event.args] == ["alpha", "zeta"]

    def test_rejects_unknown_phase(self):
        with pytest.raises(ValueError):
            EventTracer().emit("e", phase="Q")

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            EventTracer(capacity=0)

    def test_ring_keeps_latest_and_counts_drops(self):
        tracer = EventTracer(capacity=3)
        for i in range(5):
            tracer.cycle = float(i)
            tracer.emit("e", i=i)
        assert len(tracer) == 3
        assert [e.cycle for e in tracer.events()] == [2.0, 3.0, 4.0]
        assert tracer.stats.emitted == 5
        assert tracer.stats.dropped == 2
        assert tracer.stats.retained == 3

    def test_begin_end_sample_phases(self):
        tracer = EventTracer()
        tracer.begin("hbt.resize", old_ways=1)
        tracer.end("hbt.resize", ways=2)
        tracer.sample("mcq.occupancy", entries=4)
        phases = [e.phase for e in tracer.events()]
        assert phases == ["B", "E", "C"]

    def test_jsonl_round_trip(self, tmp_path):
        tracer = EventTracer()
        tracer.cycle = 7.0
        tracer.emit("bwb.miss", tag=0x12)
        tracer.begin("hbt.resize", old_ways=1, new_ways=2)
        path = tmp_path / "events.jsonl"
        assert tracer.to_jsonl(path) == 2
        assert read_jsonl(path) == tracer.events()

    def test_span_pairs_matches_nested_by_name(self):
        tracer = EventTracer()
        tracer.begin("outer")
        tracer.begin("inner")
        tracer.end("inner")
        tracer.end("outer")
        pairs = span_pairs(tracer.events())
        assert [(b.name, e.name) for b, e in pairs] == [
            ("inner", "inner"),
            ("outer", "outer"),
        ]

    def test_clear_resets_ring_not_stats(self):
        tracer = EventTracer()
        tracer.emit("e")
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.stats.emitted == 1


class TestChromeExport:
    def test_instant_events_carry_scope(self):
        events = [TraceEvent(cycle=1.0, name="bwb.miss")]
        (record,) = chrome_events(events)
        assert record["ph"] == "i"
        assert record["s"] == "t"
        assert record["ts"] == 1.0

    def test_unclosed_span_auto_closed(self):
        events = [TraceEvent(cycle=5.0, name="hbt.resize", phase="B")]
        records = chrome_events(events)
        assert [r["ph"] for r in records] == ["B", "E"]
        assert records[1]["ts"] == 5.0  # closed at the last seen cycle

    def test_trace_document_is_schema_valid(self):
        tracer = EventTracer()
        tracer.emit("aos.exception", kind="bounds-check")
        tracer.begin("hbt.resize")
        tracer.sample("mcq.occupancy", entries=2)
        document = chrome_trace(tracer.events(), metadata={"workload": "gcc"})
        assert validate_chrome_trace(document) == []
        assert document["otherData"] == {"workload": "gcc"}

    def test_validator_flags_bad_documents(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"traceEvents": "nope"}) != []
        bad_ts = {"traceEvents": [
            {"name": "e", "ph": "i", "ts": -1, "pid": 1, "tid": 1}
        ]}
        assert any("bad ts" in p for p in validate_chrome_trace(bad_ts))

    def test_validator_flags_unbalanced_spans(self):
        lone_end = {"traceEvents": [
            {"name": "s", "ph": "E", "ts": 0, "pid": 1, "tid": 1}
        ]}
        assert any("without matching B" in p for p in validate_chrome_trace(lone_end))
        lone_begin = {"traceEvents": [
            {"name": "s", "ph": "B", "ts": 0, "pid": 1, "tid": 1}
        ]}
        assert any("unclosed span" in p for p in validate_chrome_trace(lone_begin))

    def test_validator_requires_numeric_counter_args(self):
        doc = {"traceEvents": [
            {"name": "c", "ph": "C", "ts": 0, "pid": 1, "tid": 1,
             "args": {"entries": "three"}}
        ]}
        assert any("numeric" in p for p in validate_chrome_trace(doc))
        missing = {"traceEvents": [
            {"name": "c", "ph": "C", "ts": 0, "pid": 1, "tid": 1}
        ]}
        assert any("without args" in p for p in validate_chrome_trace(missing))

    def test_dump_and_validate_file(self, tmp_path):
        tracer = EventTracer()
        tracer.emit("run.done", instructions=100)
        path = tmp_path / "trace.json"
        dump_chrome_trace(path, tracer.events(), metadata={"seed": 7})
        assert validate_chrome_trace_file(path) == []

    def test_validate_file_reports_unreadable(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        problems = validate_chrome_trace_file(path)
        assert problems and "unreadable" in problems[0]


class TestProfiler:
    def test_phases_accumulate_with_fake_clock(self):
        ticks = iter(range(100))
        profiler = PhaseProfiler(clock=lambda: float(next(ticks)))
        with profiler.phase("simulate"):
            pass
        with profiler.phase("simulate"):
            pass
        with profiler.phase("report"):
            pass
        summary = profiler.summary()
        assert summary["simulate"] == 2.0  # two 1-tick spans
        assert summary["report"] == 1.0
        assert profiler.total() == 3.0

    def test_add_external_duration(self):
        profiler = PhaseProfiler(clock=lambda: 0.0)
        profiler.add("cache-io", 1.25)
        assert profiler.summary() == {"cache-io": 1.25}

    def test_format_lists_phases_and_total(self):
        profiler = PhaseProfiler(clock=lambda: 0.0)
        profiler.add("trace-gen", 1.0)
        text = profiler.format()
        assert "trace-gen" in text
        assert "total" in text

    def test_chrome_export_uses_engine_pid(self):
        ticks = iter([0.0, 1.0, 2.0])
        profiler = PhaseProfiler(clock=lambda: next(ticks))
        with profiler.phase("simulate"):
            pass
        (event,) = profiler.chrome_events()
        assert event["ph"] == "X"
        assert event["pid"] == 2  # never merged with the simulation track
        assert event["dur"] == pytest.approx(1e6)


class TestObsSettings:
    """``RunSettings.metrics`` and the :class:`Observability` bundles a run
    reports through."""

    def test_disabled_creates_nothing(self, monkeypatch):
        from repro.experiments import CellSpec, RunSettings, parallel

        def refuse():
            raise AssertionError("no Observability without metrics")

        monkeypatch.setattr(parallel, "Observability", refuse)
        settings = RunSettings(instructions=1000)
        assert settings.metrics is False  # off by default everywhere
        assert parallel.simulate_cell(settings, CellSpec("gobmk", "aos")).metrics == {}

    def test_enabled_metrics_only(self):
        obs = Observability()
        assert obs.tracer is None
        obs.emit("e")  # no-op without a tracer, must not raise
        obs.set_cycle(9.0)
        assert obs.snapshot() == empty_snapshot()

    def test_enabled_with_tracer(self):
        obs = Observability(tracer=EventTracer(8))
        assert obs.tracer.capacity == 8
        obs.set_cycle(3.0)
        obs.emit("e")
        assert obs.tracer.events()[0].cycle == 3.0

    def test_default_capacity(self):
        assert EventTracer().capacity == DEFAULT_TRACE_CAPACITY

    def test_settings_hashable_for_fingerprints(self):
        from repro.experiments import RunSettings

        # RunSettings fingerprints hash the frozen dataclass tree.
        assert hash(RunSettings()) == hash(RunSettings())
        assert RunSettings() != RunSettings(metrics=True)

    def test_observability_default_registry(self):
        obs = Observability()
        obs.registry.count("x")
        assert obs.snapshot()["counters"] == {"x": 1}
