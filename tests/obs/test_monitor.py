"""Monitor: state folding, rendering, and the CLI entry point."""

import io

from repro.obs.monitor import MonitorState, render, run_monitor
from repro.obs.stream import TelemetryWriter


def sample_record(cycle, wall_s, completed_rate=0.1):
    return {
        "type": "sample",
        "cycle": cycle,
        "span": 1_000,
        "windows": 1,
        "partial": False,
        "rates": {
            "dram.busy_cycles": 0.75,
            "dram.row_hits": 0.09,
            "dram.row_misses": 0.01,
            "requests.completed": completed_rate,
        },
        "gauges": {"noc.in_flight_packets": 30.0},
        "latency": {"all": {"count": 50.0, "mean": 180.0, "p95": 400.0}},
        "wall_s": wall_s,
    }


class TestMonitorState:
    def test_run_stream_folding(self):
        state = MonitorState()
        state.apply({"type": "run_start", "label": "x", "seed": 1})
        state.apply(sample_record(999, 1.0))
        state.apply(sample_record(1999, 1.5))
        assert state.samples_seen == 2
        assert not state.finished
        assert state.cycles_per_second() == 1000 / 0.5
        state.apply({"type": "run_end", "utilization": 0.7})
        assert state.finished

    def test_sweep_stream_folding(self):
        state = MonitorState()
        state.apply({"type": "sweep_start", "total": 4})
        state.apply({"type": "job_hit", "key": "a"})
        state.apply({"type": "job_done", "key": "b"})
        state.apply({"type": "job_fail", "key": "c"})
        assert (state.sweep_done, state.sweep_failed, state.sweep_hits) \
            == (3, 1, 1)
        state.apply({
            "type": "sweep_progress", "done": 4, "total": 4,
            "failed": 1, "hits": 1, "jobs_per_s": 2.0, "eta_s": 0.0,
        })
        assert state.sweep_done == 4
        assert not state.finished
        state.apply({"type": "sweep_end"})
        assert state.finished

    def test_heartbeats_keep_latest_per_worker(self):
        state = MonitorState()
        state.apply({"type": "sweep_start", "total": 1})
        state.apply({"type": "heartbeat", "worker": 11, "jobs_done": 1})
        state.apply({"type": "heartbeat", "worker": 11, "jobs_done": 2})
        state.apply({"type": "heartbeat", "worker": 12, "jobs_done": 1})
        assert len(state.workers) == 2
        assert state.workers[11]["jobs_done"] == 2

    def test_unknown_record_type_tolerated(self):
        state = MonitorState()
        state.apply({"type": "from_the_future", "x": 1})
        assert state.records_seen == 1


class TestRender:
    def test_run_view_lines(self):
        state = MonitorState()
        state.apply({
            "type": "run_start", "label": "single_dtv", "seed": 2010,
            "sample_interval": 1000, "config_key": "abcdef0123456789",
        })
        state.apply(sample_record(999, 1.0))
        state.apply(sample_record(1999, 1.5))
        text = render(state)
        assert "single_dtv" in text
        assert "2,000 c/s" in text
        assert "row-hit  90.0%" in text
        assert "p95=400c" in text
        assert "30 packets" in text

    def test_sweep_view_lines(self):
        state = MonitorState()
        state.apply({"type": "sweep_start", "total": 8})
        state.apply({
            "type": "sweep_progress", "done": 4, "total": 8,
            "failed": 1, "hits": 2, "jobs_per_s": 0.5, "eta_s": 8.0,
        })
        state.apply({"type": "heartbeat", "worker": 7, "jobs_done": 3})
        text = render(state)
        assert "4/8 done" in text
        assert "1 failed" in text
        assert "eta 8s" in text
        assert "7:3" in text

    def test_empty_stream_renders_placeholder(self):
        assert "no renderable records" in render(MonitorState())


class TestRunMonitor:
    def test_once_renders_and_exits_zero(self, tmp_path):
        path = tmp_path / "t.ndjson"
        with TelemetryWriter(path) as writer:
            writer.emit("sweep_start", total=1)
            writer.emit("job_done", key="k")
            writer.emit("sweep_end", total=1)
        out = io.StringIO()
        assert run_monitor(str(path), out=out) == 0
        assert "sweep done" in out.getvalue()

    def test_empty_stream_exits_one(self, tmp_path):
        path = tmp_path / "t.ndjson"
        path.write_text("")
        out = io.StringIO()
        assert run_monitor(str(path), out=out) == 1

    def test_follow_exits_on_finish_marker(self, tmp_path):
        path = tmp_path / "t.ndjson"
        with TelemetryWriter(path) as writer:
            writer.emit("sweep_start", total=1)
            writer.emit("sweep_end", total=1)
        out = io.StringIO()
        code = run_monitor(
            str(path), follow=True, refresh_s=0.01, out=out, max_seconds=5
        )
        assert code == 0
        assert "sweep done" in out.getvalue()
