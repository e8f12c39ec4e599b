"""Telemetry stream protocol: writers, readers, manifests, Prometheus."""

import io
import json

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.stream import (
    RECORD_TYPES,
    TelemetryWriter,
    host_manifest,
    prometheus_exposition,
    read_stream,
    run_manifest,
    validate_stream,
)
from repro.sim.config import SystemConfig
from repro.sim.stats import LatencySeries


class TestTelemetryWriter:
    def test_emits_typed_timestamped_lines(self, tmp_path):
        path = tmp_path / "t.ndjson"
        with TelemetryWriter(path) as writer:
            writer.emit("sweep_start", total=3)
            writer.emit("sweep_end", total=3)
        records = read_stream(path)
        assert [r["type"] for r in records] == ["sweep_start", "sweep_end"]
        assert all("ts" in r for r in records)
        assert writer.records_written == 2

    def test_rejects_unknown_type(self, tmp_path):
        writer = TelemetryWriter(tmp_path / "t.ndjson")
        with pytest.raises(ValueError):
            writer.emit("not_a_type")
        writer.close()

    def test_text_stream_sink(self):
        sink = io.StringIO()
        writer = TelemetryWriter(sink)
        writer.emit("heartbeat", worker=1)
        assert json.loads(sink.getvalue())["worker"] == 1
        assert writer.path is None

    def test_mode_w_truncates(self, tmp_path):
        path = tmp_path / "t.ndjson"
        path.write_text('{"type": "sweep_end", "ts": 0}\n')
        TelemetryWriter(path).emit("sweep_start", total=1)
        assert [r["type"] for r in read_stream(path)] == ["sweep_start"]

    def test_lines_sorted_keys(self, tmp_path):
        path = tmp_path / "t.ndjson"
        TelemetryWriter(path).emit("heartbeat", zeta=1, alpha=2)
        line = path.read_text().strip()
        keys = list(json.loads(line))
        assert keys == sorted(keys)


class TestReaders:
    def test_truncated_tail_dropped(self, tmp_path):
        path = tmp_path / "t.ndjson"
        with open(path, "w") as handle:
            handle.write('{"type": "heartbeat", "ts": 1}\n')
            handle.write('{"type": "sample", "cyc')  # interrupted producer
        records = read_stream(path)
        assert len(records) == 1

    def test_validate_counts_per_type(self):
        counts = validate_stream([
            {"type": "sweep_start"},
            {"type": "heartbeat"},
            {"type": "heartbeat"},
        ])
        assert counts == {"sweep_start": 1, "heartbeat": 2}

    def test_validate_rejects_unknown_type(self):
        with pytest.raises(ValueError):
            validate_stream([{"type": "mystery"}])
        with pytest.raises(ValueError):
            validate_stream([{"no_type": True}])

    def test_validate_rejects_malformed_sample(self):
        with pytest.raises(ValueError):
            validate_stream([{"type": "sample", "cycle": 9}])
        validate_stream([
            {"type": "sample", "cycle": 9, "span": 10, "rates": {}}
        ])


class TestManifests:
    def test_host_manifest_fields(self):
        manifest = host_manifest()
        for field in (
            "python", "implementation", "platform", "hostname",
            "cpu_count", "git", "pid",
        ):
            assert field in manifest

    def test_run_manifest_key_matches_sweep_store(self):
        from repro.sweep import config_payload, job_key, metrics_job

        config = SystemConfig(app="single_dtv", cycles=4_000, warmup=400)
        manifest = run_manifest(config, sample_interval=500)
        assert manifest["config_key"] == job_key(
            "metrics", config_payload(config)
        )
        assert manifest["config_key"] == metrics_job(config).key
        assert manifest["sample_interval"] == 500
        assert manifest["config"]["cycles"] == 4_000
        json.dumps(manifest)  # stream-ready

    def test_record_types_cover_protocol(self):
        assert {"run_start", "sample", "run_end", "heartbeat",
                "sweep_progress"} <= RECORD_TYPES


class TestPrometheus:
    def test_counter_gauge_histogram_rendering(self):
        registry = MetricsRegistry()
        registry.counter("noc.link.flits").inc(7)
        registry.gauge("buffer.highwater").set(3.0)
        series = registry.publish(
            "latency.all", LatencySeries(keep_samples=True)
        )
        for value in (10, 20, 30):
            series.record(value)
        text = prometheus_exposition(registry)
        assert "# TYPE repro_noc_link_flits counter" in text
        assert "repro_noc_link_flits 7" in text
        assert "# TYPE repro_buffer_highwater gauge" in text
        assert "# TYPE repro_latency_all summary" in text
        assert 'repro_latency_all{quantile="0.5"} 20.0' in text
        assert "repro_latency_all_sum 60.0" in text
        assert "repro_latency_all_count 3" in text

    def test_names_sanitized(self):
        registry = MetricsRegistry()
        registry.counter("dram.bank3.row-hits").inc()
        text = prometheus_exposition(registry, prefix="x")
        assert "x_dram_bank3_row_hits 1" in text

    def test_deterministic_output(self):
        def build(order):
            registry = MetricsRegistry()
            for name in order:
                registry.counter(name).inc()
            return prometheus_exposition(registry)

        assert build(["b", "a", "c"]) == build(["c", "a", "b"])
