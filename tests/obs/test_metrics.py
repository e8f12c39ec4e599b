"""Metrics registry tests."""

import pytest

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry


class TestCounter:
    def test_increments(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)


class TestGauge:
    def test_set(self):
        gauge = Gauge("g")
        gauge.set(3.5)
        assert gauge.value == 3.5

    def test_track_max(self):
        gauge = Gauge("g")
        for value in (2, 7, 4):
            gauge.track_max(value)
        assert gauge.value == 7


class TestHistogram:
    def test_streaming_summary(self):
        hist = Histogram("h")
        for value in (1, 2, 3):
            hist.record(value)
        assert hist.count == 3
        assert hist.mean == 2.0
        assert hist.minimum == 1
        assert hist.maximum == 3

    def test_percentile(self):
        hist = Histogram("h")
        for value in range(1, 101):
            hist.record(value)
        assert hist.percentile(0) == 1
        assert hist.percentile(100) == 100
        assert 49 <= hist.percentile(50) <= 51

    def test_empty_percentile_raises(self):
        with pytest.raises(ValueError, match="no samples"):
            Histogram("h").percentile(50)

    def test_percentile_bounds(self):
        hist = Histogram("h")
        hist.record(1)
        with pytest.raises(ValueError):
            hist.percentile(101)


class TestRegistry:
    def test_get_or_create(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert len(registry) == 1

    def test_kind_clash_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x")

    def test_contains_and_get(self):
        registry = MetricsRegistry()
        registry.gauge("noc.buffer.0")
        assert "noc.buffer.0" in registry
        assert registry.get("noc.buffer.0") is not None
        assert registry.get("missing") is None

    def test_names_prefix_filter(self):
        registry = MetricsRegistry()
        registry.counter("noc.link.flits")
        registry.counter("noc.link.packets")
        registry.counter("dram.commands")
        # prefix matches whole dotted segments, not raw string prefixes
        registry.counter("nocturnal")
        assert registry.names("noc") == ["noc.link.flits", "noc.link.packets"]
        assert len(registry.names()) == 4

    def test_as_dict(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.gauge("g").set(1.5)
        registry.histogram("h").record(10)
        snapshot = registry.as_dict()
        assert snapshot["c"] == 3
        assert snapshot["g"] == 1.5
        assert snapshot["h"]["count"] == 1.0
        assert snapshot["h"]["mean"] == 10.0

    def test_render_lists_all(self):
        registry = MetricsRegistry()
        registry.counter("dram.commands").inc(2)
        registry.histogram("lat").record(5)
        text = registry.render()
        assert "dram.commands" in text
        assert "n=1" in text


class TestSnapshotDeterminism:
    """The snapshot is the base of JSONL telemetry and the Prometheus
    exposition: byte-identical output for identical state, regardless of
    registration or update order."""

    @staticmethod
    def _populate(registry, order):
        for name in order:
            registry.counter(f"counter.{name}").inc(3)
        registry.gauge("gauge.z").set(1.0)
        hist = registry.histogram("hist.lat")
        for value in (5.0, 1.0, 9.0):
            hist.record(value)

    def test_json_dumps_byte_identical_across_orders(self):
        import json

        first = MetricsRegistry()
        self._populate(first, ["b", "a", "c"])
        second = MetricsRegistry()
        self._populate(second, ["c", "b", "a"])
        assert json.dumps(first.snapshot()) == json.dumps(second.snapshot())

    def test_keys_sorted(self):
        registry = MetricsRegistry()
        self._populate(registry, ["z", "m", "a"])
        keys = list(registry.snapshot())
        assert keys == sorted(keys)

    def test_histogram_summary_field_order_fixed(self):
        registry = MetricsRegistry()
        registry.histogram("h").record(4.0)
        summary = registry.snapshot()["h"]
        assert list(summary) == ["count", "mean", "min", "max", "p50",
                                 "p95", "p99"]

    def test_empty_histogram_omits_extremes(self):
        registry = MetricsRegistry()
        registry.histogram("h")
        summary = registry.snapshot()["h"]
        assert list(summary) == ["count", "mean"]

    def test_percentiles_reported_when_samples_kept(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h")
        for value in range(1, 101):
            hist.record(float(value))
        summary = registry.snapshot()["h"]
        assert summary["p95"] == 95.05
        assert summary["min"] == 1.0 and summary["max"] == 100.0
