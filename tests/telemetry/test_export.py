"""Unit tests for the JSONL / Chrome-trace sinks and the summary."""

import json

from repro.telemetry.export import (
    format_trace_summary,
    read_trace_jsonl,
    summarize_trace,
    validate_record,
    validate_trace_jsonl,
    write_chrome_trace,
    write_metrics_json,
    write_trace_jsonl,
)
from repro.telemetry.manifest import RunManifest
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import Tracer


def _loaded_tracer() -> Tracer:
    tracer = Tracer()
    with tracer.span("phase.evaluate", generation=0):
        pass
    tracer.add_span(
        "pu.setup", start=0.0, duration=1e-6, track="pu0", cycles=200
    )
    tracer.add_span(
        "pu.compute",
        start=1e-6,
        duration=5e-6,
        track="pu0",
        cycles=1000,
        active_cycles=800,
        steps=10,
    )
    tracer.add_span(
        "pu.drain", start=6e-6, duration=1e-6, track="pu0", cycles=200
    )
    tracer.add_span("inax.wave", start=0.0, duration=7e-6, track="inax")
    return tracer


def _registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("episode.count").inc(4)
    registry.gauge("compile.cache.size").set(12)
    registry.histogram("episode.steps").observe(100)
    return registry


class TestJsonl:
    def test_writes_all_row_types(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        manifest = RunManifest.collect(command="run", backend="inax")
        rows = write_trace_jsonl(
            path, _loaded_tracer(), manifest=manifest, metrics=_registry()
        )
        parsed = read_trace_jsonl(path)
        assert len(parsed) == rows == 1 + 5 + 3
        assert parsed[0]["type"] == "manifest"
        assert {r["type"] for r in parsed} == {"manifest", "span", "metric"}
        assert validate_trace_jsonl(path) == []

    def test_dropped_spans_get_a_counter_row(self, tmp_path):
        tracer = Tracer(max_spans=3)
        for i in range(5):
            tracer.add_span("phase.evaluate", start=float(i), duration=1.0)
        path = tmp_path / "trace.jsonl"
        rows = write_trace_jsonl(path, tracer, metrics=_registry())
        parsed = read_trace_jsonl(path)
        assert len(parsed) == rows == 3 + 3 + 1
        assert parsed[-1] == {
            "type": "metric", "name": "telemetry.spans_dropped",
            "kind": "counter", "value": 2,
        }
        assert validate_trace_jsonl(path) == []
        summary = summarize_trace(path)
        assert summary.spans_dropped == 2
        assert summary.phase_seconds == {"evaluate": 3.0}
        text = format_trace_summary(summary)
        assert (
            "dropped the oldest 2 spans at its max_spans cap; the tables "
            "below cover only the retained spans"
        ) in text

    def test_no_drop_row_without_drops(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace_jsonl(path, _loaded_tracer())
        names = {row.get("name") for row in read_trace_jsonl(path)}
        assert "telemetry.spans_dropped" not in names
        summary = summarize_trace(path)
        assert summary.spans_dropped == 0
        assert "dropped" not in format_trace_summary(summary)

    def test_validation_reports_line_numbers(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"type": "span", "name": "x", "track": "host",
                        "start": -1.0, "dur": 0.0, "span_id": 1})
            + "\nnot json\n"
            + json.dumps({"type": "wat"})
            + "\n"
        )
        errors = validate_trace_jsonl(path)
        assert any(e.startswith("line 1:") and "negative" in e for e in errors)
        assert any(e.startswith("line 2:") and "invalid JSON" in e for e in errors)
        assert any(e.startswith("line 3:") and "unknown row type" in e for e in errors)

    def test_validate_record_span_and_metric(self):
        assert validate_record(
            {"type": "span", "name": "n", "track": "host", "start": 0,
             "dur": 1, "span_id": 2}
        ) == []
        assert validate_record({"type": "span"})  # missing everything
        assert validate_record(
            {"type": "metric", "name": "m", "kind": "counter", "value": 1}
        ) == []
        assert validate_record({"type": "metric", "name": "m", "kind": "nope"})
        assert validate_record(
            {"type": "metric", "name": "h", "kind": "histogram"}
        )  # histogram fields missing


class TestChromeTrace:
    def test_device_tracks_get_own_threads(self, tmp_path):
        path = tmp_path / "trace.chrome.json"
        count = write_chrome_trace(path, _loaded_tracer())
        payload = json.loads(path.read_text())
        events = payload["traceEvents"]
        assert len(events) == count
        # host process metadata plus one thread_name per device track
        names = {
            (e["pid"], e["tid"], e["args"]["name"])
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert (1, 1, "pu0") in names
        assert (1, 0, "inax") in names
        pu_events = [
            e for e in events if e["ph"] == "X" and e["name"] == "pu.compute"
        ]
        assert pu_events[0]["pid"] == 1 and pu_events[0]["tid"] == 1
        assert pu_events[0]["dur"] == 5.0  # 5e-6 s -> 5 us
        host = [e for e in events if e["ph"] == "X" and e["pid"] == 0]
        assert host[0]["name"] == "phase.evaluate"

    def test_manifest_embedded(self, tmp_path):
        path = tmp_path / "trace.chrome.json"
        manifest = RunManifest.collect(command="run", backend="inax")
        write_chrome_trace(path, _loaded_tracer(), manifest=manifest)
        payload = json.loads(path.read_text())
        assert payload["otherData"]["backend"] == "inax"


class TestMetricsJson:
    def test_snapshot_plus_manifest(self, tmp_path):
        path = tmp_path / "metrics.json"
        write_metrics_json(
            path, _registry(),
            manifest=RunManifest.collect(command="run", backend="cpu"),
        )
        payload = json.loads(path.read_text())
        assert payload["manifest"]["backend"] == "cpu"
        assert payload["metrics"]["episode.count"]["value"] == 4
        assert payload["metrics"]["episode.steps"]["count"] == 1


class TestSummary:
    def test_summarize_phases_and_pus(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace_jsonl(
            path, _loaded_tracer(),
            manifest=RunManifest.collect(command="run", backend="inax"),
            metrics=_registry(),
        )
        summary = summarize_trace(path)
        assert summary.manifest["backend"] == "inax"
        assert set(summary.phase_seconds) == {"evaluate"}
        assert summary.span_count == 5
        assert summary.metric_count == 3
        pu = summary.pu_cycles["pu0"]
        assert pu["setup"] == 200
        assert pu["compute"] == 1000
        assert pu["drain"] == 200
        assert pu["active"] == 800
        assert pu["steps"] == 10
        # U(PU) = (setup + active) / (setup + compute + drain)
        assert summary.pu_utilization("pu0") == (200 + 800) / 1400
        assert summary.phase_fractions() == {"evaluate": 1.0}

    def test_format_renders_tables(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace_jsonl(path, _loaded_tracer())
        text = format_trace_summary(summarize_trace(path))
        assert "host phases" in text
        assert "INAX PU timeline" in text
        assert "pu0" in text
        assert "evaluate" in text

    def test_empty_trace_summary(self):
        summary = summarize_trace([])
        assert summary.phase_fractions() == {}
        text = format_trace_summary(summary)
        assert "no phase spans" in text

    def test_to_dict_is_json_ready(self, tmp_path):
        import json

        path = tmp_path / "trace.jsonl"
        write_trace_jsonl(
            path, _loaded_tracer(),
            manifest=RunManifest.collect(command="run", backend="inax"),
            metrics=_registry(),
        )
        payload = summarize_trace(path).to_dict()
        assert set(payload) == {
            "manifest", "phase_seconds", "phase_fractions", "pu_cycles",
            "pu_utilization", "span_count", "metric_count", "spans_dropped",
        }
        assert payload["manifest"]["backend"] == "inax"
        assert payload["phase_fractions"]["evaluate"] == 1.0
        assert payload["pu_utilization"]["pu0"] == (200 + 800) / 1400
        # round-trips through json unchanged
        assert json.loads(json.dumps(payload, sort_keys=True)) == json.loads(
            json.dumps(payload, sort_keys=True)
        )

    def test_to_dict_empty_trace(self):
        payload = summarize_trace([]).to_dict()
        assert payload["manifest"] is None
        assert payload["phase_seconds"] == {}
        assert payload["span_count"] == 0
