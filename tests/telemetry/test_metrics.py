"""Unit tests for the metrics registry."""

import pytest

from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_metrics,
    set_metrics,
)


class TestPrimitives:
    def test_counter_monotonic(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_last_write_wins(self):
        gauge = Gauge("g")
        gauge.set(5)
        gauge.set(2.0)
        assert gauge.value == 2.0

    def test_histogram_buckets(self):
        hist = Histogram("h", buckets=(1, 10, 100))
        for value in (0, 1, 5, 10, 50, 1000):
            hist.observe(value)
        # counts[i] = observations <= bucket[i]; last slot is overflow
        assert hist.counts == [2, 2, 1, 1]
        assert hist.count == 6
        assert hist.total == 1066
        assert hist.min == 0 and hist.max == 1000
        assert hist.mean == pytest.approx(1066 / 6)

    def test_histogram_needs_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())

    def test_empty_histogram_to_dict(self):
        state = Histogram("h").to_dict()
        assert state["count"] == 0
        assert state["min"] is None and state["max"] is None


class TestRegistry:
    def test_get_or_create_is_stable(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.names() == ["a"]

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_snapshot_roundtrip_merge(self):
        src = MetricsRegistry()
        src.counter("runs").inc(3)
        src.gauge("size").set(7)
        src.histogram("steps").observe(20)
        src.histogram("steps").observe(500)

        dst = MetricsRegistry()
        dst.counter("runs").inc(1)
        dst.histogram("steps").observe(5)
        dst.merge_snapshot(src.snapshot())

        assert dst.counter("runs").value == 4
        assert dst.gauge("size").value == 7
        hist = dst.histogram("steps")
        assert hist.count == 3
        assert hist.total == 525
        assert hist.min == 5 and hist.max == 500

    def test_merge_bucket_mismatch_raises(self):
        src = MetricsRegistry()
        src.histogram("h", buckets=(1, 2)).observe(1)
        dst = MetricsRegistry()
        dst.histogram("h", buckets=(1, 2, 3))
        with pytest.raises(ValueError):
            dst.merge_snapshot(src.snapshot())

    def test_merge_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            MetricsRegistry().merge_snapshot({"x": {"kind": "mystery"}})


class TestGlobalRegistry:
    def test_set_metrics_returns_previous(self):
        assert get_metrics() is None
        registry = MetricsRegistry()
        assert set_metrics(registry) is None
        try:
            assert get_metrics() is registry
        finally:
            assert set_metrics(None) is registry
        assert get_metrics() is None


class TestHistogramQuantiles:
    def test_nearest_rank_bucket_resolution(self):
        hist = Histogram("h", buckets=(1, 10, 100))
        for value in (0.5, 2, 3, 20, 50, 500):
            hist.observe(value)
        # ranks: p50 -> 3rd obs (bucket <=10), p95/p99 -> overflow -> max
        assert hist.quantile(0.5) == 10.0
        assert hist.quantile(0.95) == 500
        assert hist.quantile(0.99) == 500

    def test_clamped_to_observed_range(self):
        hist = Histogram("h", buckets=(100,))
        hist.observe(3)
        hist.observe(7)
        # the bucket bound (100) far exceeds anything observed
        assert hist.quantile(0.5) == 7
        assert hist.quantile(0.0) == 7  # same bucket, same clamped bound

    def test_empty_histogram_returns_none(self):
        hist = Histogram("h")
        assert hist.quantile(0.5) is None
        assert hist.quantiles() == {"p50": None, "p95": None, "p99": None}

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h").quantile(1.5)

    def test_deterministic_across_identical_streams(self):
        def build():
            hist = Histogram("h", buckets=(0.001, 0.01, 0.1, 1.0))
            for i in range(1000):
                hist.observe((i % 97) / 100.0)
            return hist.quantiles()

        assert build() == build()

    def test_quantiles_in_snapshot_export(self):
        registry = MetricsRegistry()
        hist = registry.histogram("phase.evaluate_seconds")
        for value in (0.01, 0.02, 0.03):
            hist.observe(value)
        state = registry.snapshot()["phase.evaluate_seconds"]
        assert set(state["quantiles"]) == {"p50", "p95", "p99"}
        assert state["quantiles"]["p50"] is not None

    def test_merge_snapshot_recomputes_quantiles(self):
        source = MetricsRegistry()
        for value in (1, 2, 3, 200):
            source.histogram("h", buckets=(10, 100)).observe(value)
        target = MetricsRegistry()
        target.merge_snapshot(source.snapshot())
        merged = target.snapshot()["h"]
        assert merged["quantiles"] == source.snapshot()["h"]["quantiles"]
