"""Metrics registry tests."""

import pytest

from repro.obs.metrics import Counter, Gauge, MetricsRegistry
from repro.sim.stats import LatencySeries, quantiles


def series_of(values, keep_samples=True):
    series = LatencySeries(keep_samples=keep_samples)
    for value in values:
        series.record(value)
    return series


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


class TestHistogram:
    """A published :class:`LatencySeries` is the registry's histogram."""

    def test_streaming_summary(self):
        registry = MetricsRegistry()
        hist = registry.publish("h", series_of((1, 2, 3)))
        assert registry.get("h") is hist
        assert hist.count == 3
        assert hist.mean == 2.0
        assert hist.minimum == 1
        assert hist.maximum == 3

    def test_percentile(self):
        hist = series_of(range(1, 101))
        assert hist.minimum == 1
        assert hist.p100 == 100
        assert quantiles(hist.samples)["p50"] == 50.5

    def test_empty_percentile_raises(self):
        with pytest.raises(ValueError, match="no samples"):
            quantiles(series_of(()).samples)

    def test_published_by_reference(self):
        registry = MetricsRegistry()
        series = registry.publish("lat", series_of((4,)))
        series.record(8)
        assert registry.snapshot()["lat"]["count"] == 2.0

    def test_publish_rejects_a_taken_name(self):
        registry = MetricsRegistry()
        registry.counter("lat")
        with pytest.raises(ValueError, match="already registered"):
            registry.publish("lat", series_of((4,)))
        registry.publish("series", series_of((4,)))
        with pytest.raises(ValueError, match="already registered"):
            registry.counter("series")


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

    def test_snapshot_values(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.gauge("g").set(1.5)
        registry.publish("h", series_of((10,)))
        snapshot = registry.snapshot()
        assert snapshot["c"] == 3
        assert snapshot["g"] == 1.5
        assert snapshot["h"]["count"] == 1.0
        assert snapshot["h"]["mean"] == 10.0


class TestSnapshotDeterminism:
    """The snapshot is the base of JSONL telemetry and the Prometheus
    exposition: byte-identical output for identical state, regardless of
    registration or update order."""

    @staticmethod
    def _populate(registry, order):
        for name in order:
            registry.counter(f"counter.{name}").inc(3)
        registry.gauge("gauge.z").set(1.0)
        registry.publish("hist.lat", series_of((5, 1, 9)))

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
        registry.publish("h", series_of((4,)))
        summary = registry.snapshot()["h"]
        assert list(summary) == ["count", "mean", "min", "max", "p50",
                                 "p95", "p99"]

    def test_empty_histogram_omits_extremes(self):
        registry = MetricsRegistry()
        registry.publish("h", series_of(()))
        summary = registry.snapshot()["h"]
        assert list(summary) == ["count", "mean"]

    def test_series_without_samples_omits_quantiles(self):
        registry = MetricsRegistry()
        registry.publish("h", series_of((3, 5), keep_samples=False))
        assert registry.snapshot()["h"] == {
            "count": 2.0, "mean": 4.0, "min": 3.0, "max": 5.0,
        }

    def test_percentiles_reported_when_samples_kept(self):
        registry = MetricsRegistry()
        registry.publish("h", series_of(range(1, 101)))
        summary = registry.snapshot()["h"]
        assert summary["p95"] == 95.05
        assert summary["min"] == 1.0 and summary["max"] == 100.0
