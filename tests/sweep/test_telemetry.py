"""Sweep telemetry: lifecycle streams across process boundaries, the
progress line, and the monitor rendering the result."""

import io
import sys

import pytest

from repro.cli import main
from repro.obs.monitor import MonitorState, render
from repro.obs.stream import TelemetryWriter, read_stream, validate_stream
from repro.sweep import Job, ProgressPrinter, ResultStore, run_sweep
from repro.sweep.orchestrator import execute_job

# Runners are registered module-wide by the orchestrator tests; reuse
# the simple one here (fork workers inherit the registration).
from tests.sweep.test_orchestrator import echo_jobs, needs_fork


class TestSerialTelemetry:
    def test_lifecycle_records(self, tmp_path):
        path = tmp_path / "sweep.ndjson"
        with TelemetryWriter(path) as telemetry:
            report = run_sweep(echo_jobs([1, 2, 3]), telemetry=telemetry)
        assert report.executed == 3
        counts = validate_stream(read_stream(path))
        assert counts["sweep_start"] == 1
        assert counts["job_start"] == 3  # serial path emits them too
        assert counts["job_done"] == 3
        assert counts["sweep_progress"] == 3
        assert counts["sweep_end"] == 1
        assert counts["heartbeat"] == 6  # start + done per job

    def test_cached_rerun_emits_hits(self, tmp_path):
        path = tmp_path / "sweep.ndjson"
        store = ResultStore(tmp_path / "store.jsonl")
        jobs = echo_jobs([1, 2])
        run_sweep(jobs, store=store)
        with TelemetryWriter(path) as telemetry:
            report = run_sweep(jobs, store=store, telemetry=telemetry)
        assert report.all_cached
        counts = validate_stream(read_stream(path))
        assert counts["job_hit"] == 2
        assert "job_done" not in counts
        assert counts["sweep_end"] == 1

    def test_failures_stream_as_job_fail(self, tmp_path):
        path = tmp_path / "sweep.ndjson"
        jobs = [Job(kind="explode", params={"x": 1}, label="boom")]
        with TelemetryWriter(path) as telemetry:
            report = run_sweep(jobs, telemetry=telemetry)
        assert report.failed == 1
        records = read_stream(path)
        fails = [r for r in records if r["type"] == "job_fail"]
        assert len(fails) == 1
        assert "boom" in fails[0]["label"]
        assert fails[0]["error"]

    def test_progress_records_carry_throughput(self, tmp_path):
        path = tmp_path / "sweep.ndjson"
        with TelemetryWriter(path) as telemetry:
            run_sweep(echo_jobs([1, 2]), telemetry=telemetry)
        progress = [
            r for r in read_stream(path) if r["type"] == "sweep_progress"
        ]
        assert progress[-1]["done"] == progress[-1]["total"] == 2
        assert progress[-1]["jobs_per_s"] > 0
        assert progress[-1]["eta_s"] == 0.0  # nothing remaining


@needs_fork
class TestParallelTelemetry:
    def test_two_worker_stream_parses_and_renders(self, tmp_path, capsys):
        """The acceptance path: a 2-worker sweep emits a stream that
        validates and that the monitor renders."""
        path = tmp_path / "sweep.ndjson"
        with TelemetryWriter(path) as telemetry:
            report = run_sweep(
                echo_jobs([1, 2, 3, 4]), workers=2, telemetry=telemetry
            )
        assert report.executed == 4 and report.failed == 0
        records = read_stream(path)
        counts = validate_stream(records)
        assert counts["job_start"] == 4
        assert counts["job_done"] == 4
        assert counts["heartbeat"] == 8  # start + done per job
        # Records name the slot, not a process id.
        assert {
            r["worker"] for r in records
            if r["type"] in ("job_start", "heartbeat")
        } == {0, 1}
        done = [
            r for r in records
            if r["type"] == "heartbeat" and r["phase"] == "done"
        ]
        assert sum(
            max(r["jobs_done"] for r in done if r["worker"] == slot)
            for slot in (0, 1)
        ) == 4

        state = MonitorState()
        for record in records:
            state.apply(record)
        assert state.finished
        assert state.sweep_done == 4
        text = render(state)
        assert "4/4 done" in text
        assert "workers" in text

        assert main(["monitor", str(path), "--once"]) == 0
        assert "workers   : 2 seen" in capsys.readouterr().out


class TestExecuteJobTelemetry:
    def test_without_path_emits_nothing(self, tmp_path):
        payload = execute_job("echo", {"x": 5})
        assert payload["status"] == "ok"


class FakeTty(io.StringIO):
    def isatty(self):
        return True


class TestProgressPrinter:
    def _record(self, status="ok"):
        return {"status": status, "elapsed_s": 0.1}

    def test_tty_redraws_one_line(self):
        stream = FakeTty()
        printer = ProgressPrinter(stream)
        job = Job(kind="echo", params={"x": 1}, label="x=1")
        printer(job, self._record(), False, 1, 3)
        printer(job, self._record(), True, 2, 3)
        printer(job, self._record("failed"), False, 3, 3)
        printer.close()
        text = stream.getvalue()
        assert text.count("\r") == 3
        assert text.endswith("\n")
        assert "3/3" in text
        assert "1 cached" in text
        assert "1 failed" in text

    def test_non_tty_prints_milestones_only(self):
        stream = io.StringIO()
        printer = ProgressPrinter(stream)
        job = Job(kind="echo", params={"x": 1}, label="x=1")
        total = 40
        for done in range(1, total + 1):
            printer(job, self._record(), False, done, total)
        printer.close()
        lines = [l for l in stream.getvalue().splitlines() if l]
        assert len(lines) <= 12  # ~10 milestones, not 40 lines
        assert "\r" not in stream.getvalue()
        assert f"{total}/{total}" in lines[-1]

    def test_eta_counts_only_executed_jobs(self):
        printer = ProgressPrinter(io.StringIO())
        job = Job(kind="echo", params={"x": 1}, label="x=1")
        printer(job, self._record(), True, 1, 10)  # cache hit: free
        assert printer.eta_s(1, 10) is None
        printer(job, self._record(), False, 2, 10)
        assert printer.eta_s(2, 10) is not None
        assert printer.eta_s(10, 10) is None

    def test_close_without_output_is_silent(self):
        stream = io.StringIO()
        ProgressPrinter(stream).close()
        assert stream.getvalue() == ""
