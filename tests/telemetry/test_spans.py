"""Unit tests for the span tracer and the phase timer."""

import time

import pytest

from repro.telemetry.metrics import MetricsRegistry, get_metrics, set_metrics
from repro.telemetry.spans import (
    Tracer,
    get_tracer,
    phase,
    set_tracer,
    span,
)


class TestTracer:
    def test_span_records_timing(self):
        tracer = Tracer()
        with tracer.span("work", generation=3):
            pass
        (recorded,) = tracer.spans
        assert recorded.name == "work"
        assert recorded.track == "host"
        assert recorded.duration >= 0.0
        assert recorded.start >= 0.0
        assert recorded.attrs == {"generation": 3}
        assert recorded.parent_id is None

    def test_nesting_sets_parent_linkage(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.spans  # inner finishes first
        assert inner.name == "inner"
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None

    def test_span_recorded_on_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("boom")
        assert [s.name for s in tracer.spans] == ["boom"]
        # the stack unwound: a following span is not parented to "boom"
        with tracer.span("after"):
            pass
        assert tracer.spans[-1].parent_id is None

    def test_add_span_explicit_clock(self):
        tracer = Tracer()
        recorded = tracer.add_span(
            "pu.setup", start=1.5, duration=0.25, track="pu3", cycles=500
        )
        assert recorded.track == "pu3"
        assert recorded.end == 1.75
        assert recorded.attrs == {"cycles": 500}
        with pytest.raises(ValueError):
            tracer.add_span("bad", start=0.0, duration=-1.0)

    def test_bounded_and_counts_drops(self):
        tracer = Tracer(max_spans=3)
        for i in range(5):
            tracer.add_span(f"s{i}", start=float(i), duration=0.0)
        assert len(tracer) == 3
        assert tracer.dropped == 2
        assert [s.name for s in tracer.spans] == ["s2", "s3", "s4"]

    def test_max_spans_validated(self):
        with pytest.raises(ValueError):
            Tracer(max_spans=0)

    def test_to_dict_schema(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner", k=1):
                pass
        inner, outer = (s.to_dict() for s in tracer.spans)
        assert inner["type"] == "span"
        assert inner["parent_id"] == outer["span_id"]
        assert inner["attrs"] == {"k": 1}
        assert "parent_id" not in outer
        assert "attrs" not in outer


class TestGlobalSpanHelper:
    def test_disabled_helper_is_shared_noop(self):
        assert get_tracer() is None
        first = span("anything", generation=1)
        second = span("else")
        assert first is second  # shared null context, no allocation

    def test_installed_helper_records(self):
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            with span("guarded", k=2):
                pass
        finally:
            set_tracer(previous)
        assert [s.name for s in tracer.spans] == ["guarded"]
        assert get_tracer() is previous

    def test_set_tracer_returns_previous(self):
        a, b = Tracer(), Tracer()
        assert set_tracer(a) is None
        try:
            assert set_tracer(b) is a
        finally:
            set_tracer(None)


@pytest.fixture
def installed():
    """A fresh tracer and registry installed for one test."""
    tracer, registry = Tracer(), MetricsRegistry()
    previous = set_tracer(tracer), set_metrics(registry)
    try:
        yield tracer, registry
    finally:
        set_tracer(previous[0])
        set_metrics(previous[1])


class TestPhase:
    def test_accumulates_across_calls(self, installed):
        tracer, registry = installed
        table: dict[str, float] = {}
        with phase(table, "evaluate"):
            pass
        with phase(table, "evaluate"):
            pass
        with phase(table, "speciate"):
            pass
        first, second, speciate = tracer.spans
        assert table == {
            "evaluate": first.duration + second.duration,
            "speciate": speciate.duration,
        }
        counter = registry.counter("phase.evaluate_seconds")
        assert counter.value == table["evaluate"]

    def test_times_the_block(self):
        table: dict[str, float] = {}
        with phase(table, "sleepy"):
            time.sleep(0.01)
        assert table["sleepy"] >= 0.005

    def test_one_clock_feeds_table_span_and_counter(self, installed):
        tracer, registry = installed
        table = {"reproduce": 1.0}
        with phase(table, "reproduce", generation=2):
            pass
        (recorded,) = tracer.spans
        assert recorded.name == "phase.reproduce"
        assert recorded.track == "host"
        assert recorded.attrs == {"generation": 2}
        assert recorded.parent_id is None
        assert table["reproduce"] == 1.0 + recorded.duration
        assert registry.names() == ["phase.reproduce_seconds"]
        assert (
            registry.counter("phase.reproduce_seconds").value
            == recorded.duration
        )

    def test_records_when_block_raises(self, installed):
        tracer, registry = installed
        table: dict[str, float] = {}
        with pytest.raises(RuntimeError):
            with phase(table, "boom"):
                raise RuntimeError("boom")
        (recorded,) = tracer.spans
        assert recorded.name == "phase.boom"
        assert table == {"boom": recorded.duration}
        assert registry.counter("phase.boom_seconds").value == table["boom"]

    def test_span_opened_inside_is_its_child(self, installed):
        tracer, _ = installed
        with phase({}, "evaluate", generation=0):
            with span("backend.evaluate"):
                with tracer.span("rollout.lockstep"):
                    pass
        rollout, backend, evaluate = tracer.spans
        assert evaluate.name == "phase.evaluate"
        assert backend.parent_id == evaluate.span_id
        assert rollout.parent_id == backend.span_id
        assert evaluate.start <= backend.start
        assert backend.end <= evaluate.end

    def test_stack_unwinds_after_raising_block(self, installed):
        tracer, _ = installed
        with tracer.span("outer"):
            with pytest.raises(RuntimeError):
                with phase({}, "evaluate"):
                    with span("inner"):
                        raise RuntimeError("boom")
            with span("sibling"):
                pass
        inner, evaluate, sibling, outer = tracer.spans
        assert inner.parent_id == evaluate.span_id
        assert evaluate.parent_id == outer.span_id
        # the raising phase popped itself: the sibling hangs off outer
        assert sibling.parent_id == outer.span_id
        with span("after"):
            pass
        assert tracer.spans[-1].parent_id is None

    def test_untraced_phase_leaves_no_tracer_or_registry_state(self):
        assert get_tracer() is None and get_metrics() is None
        table: dict[str, float] = {}
        with phase(table, "evaluate", generation=0):
            pass
        assert table.keys() == {"evaluate"}
        assert get_tracer() is None and get_metrics() is None
        # nothing was buffered for a tracer or registry installed later
        tracer, registry = Tracer(), MetricsRegistry()
        previous = set_tracer(tracer), set_metrics(registry)
        try:
            with span("later"):
                pass
        finally:
            set_tracer(previous[0])
            set_metrics(previous[1])
        assert [s.name for s in tracer.spans] == ["later"]
        assert len(registry) == 0
