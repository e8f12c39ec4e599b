"""Orchestrator: sharding, caching, failure containment, crash isolation.

The test runners registered here are inherited by worker processes via
the fork start context the orchestrator uses by default, so parallel
cases exercise the real multiprocess path.
"""

import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

from repro.sweep import (
    Job,
    JobFailure,
    ResultStore,
    SweepSpec,
    register_runner,
    run_sweep,
)

needs_fork = pytest.mark.skipif(
    sys.platform == "win32", reason="fork start method required"
)


@register_runner("echo")
def _echo(params):
    return {"value": params["x"] * 10}


@register_runner("explode")
def _explode(params):
    raise RuntimeError(f"boom on {params['x']}")


@register_runner("domain-failure")
def _domain_failure(params):
    raise JobFailure("point diverged", result={"partial": params["x"]})


@register_runner("crash")
def _crash(params):
    if params["x"] == 2:
        os._exit(13)  # hard worker death: no exception, no cleanup
    return {"value": params["x"]}


@register_runner("unpicklable")
def _unpicklable(params):
    return {"value": lambda: params["x"]}


@register_runner("logged-crash-first")
def _logged_crash_first(params):
    with open(params["log"], "a") as handle:
        handle.write(f"{params['x']}\n")
    if params["x"] == 0:
        os._exit(13)
    return {"value": params["x"]}


#: A sweep of 0.2 s jobs on 2 workers; each job leaves its worker's pid
#: in the directory named by the first argument.
SLOW_SWEEP = """
import os, sys, time
from repro.sweep import Job, register_runner, run_sweep

@register_runner("pid-sleep")
def _pid_sleep(params):
    open(os.path.join(params["dir"], str(os.getpid())), "w").close()
    time.sleep(0.2)
    return {}

if __name__ == "__main__":
    run_sweep(
        [Job(kind="pid-sleep", params={"dir": sys.argv[1], "x": x})
         for x in range(200)],
        workers=2,
    )
"""

#: Two jobs that each spin for 30 s, so a parent killed once both have
#: started dies while each worker holds one.
LONG_SWEEP = """
import os, sys, time
from repro.sweep import Job, register_runner, run_sweep

@register_runner("pid-spin")
def _pid_spin(params):
    open(os.path.join(params["dir"], str(os.getpid())), "w").close()
    end = time.monotonic() + 30
    while time.monotonic() < end:
        pass
    return {}

if __name__ == "__main__":
    run_sweep(
        [Job(kind="pid-spin", params={"dir": sys.argv[1], "x": x})
         for x in range(2)],
        workers=2,
    )
"""


def _alive(pid):
    """Whether ``pid`` still runs; a zombie awaiting its reaper is gone."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    if not os.path.exists("/proc/self/stat"):
        return True
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _kill_sweep_parent(tmp_path, script_text, grace_s):
    """Run ``script_text`` as a 2-worker sweep, SIGKILL its parent once
    both workers have logged their pid, and return the workers still
    alive ``grace_s`` later (then killed) and the stderr all of them
    shared."""
    script = tmp_path / "sweep.py"
    script.write_text(script_text)
    pids = tmp_path / "pids"
    pids.mkdir()
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    parent = subprocess.Popen(
        [sys.executable, str(script), str(pids)],
        env=dict(os.environ, PYTHONPATH=str(src)),
        stderr=subprocess.PIPE,
    )
    workers = []
    try:
        deadline = time.monotonic() + 60
        while len(workers) < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
            workers = [int(path.name) for path in pids.iterdir()]
        assert len(workers) == 2, "both workers never started a job"
        parent.kill()
        parent.wait(timeout=10)
        deadline = time.monotonic() + grace_s
        while any(map(_alive, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        survivors = [pid for pid in workers if _alive(pid)]
    finally:
        if parent.poll() is None:
            parent.kill()
            parent.wait(timeout=10)
        for pid in workers:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
        stderr = parent.stderr.read()
        parent.stderr.close()
    return survivors, stderr


def echo_jobs(values):
    return [Job(kind="echo", params={"x": v}, label=f"x={v}") for v in values]


class TestSerial:
    def test_all_jobs_resolve_in_order(self):
        report = run_sweep(echo_jobs([1, 2, 3]))
        assert [o.record["result"]["value"] for o in report.outcomes] \
            == [10, 20, 30]
        assert report.executed == 3 and report.hits == 0

    def test_spec_accepted_directly(self):
        spec = SweepSpec(name="s", kind="echo", axes={"x": [1, 2]})
        assert run_sweep(spec).total == 2

    def test_runner_exception_contained_as_failed_record(self):
        jobs = echo_jobs([1]) + [Job(kind="explode", params={"x": 9})]
        report = run_sweep(jobs)
        assert report.failed == 1
        failed = report.outcomes[1]
        assert failed.record["status"] == "failed"
        assert "boom on 9" in failed.record["error"]
        # the healthy job still completed
        assert report.outcomes[0].ok

    def test_job_failure_keeps_partial_result(self):
        report = run_sweep([Job(kind="domain-failure", params={"x": 5})])
        record = report.outcomes[0].record
        assert record["status"] == "failed"
        assert record["error"] == "point diverged"
        assert record["result"] == {"partial": 5}

    def test_unknown_kind_is_failed_not_fatal(self):
        report = run_sweep([Job(kind="no-such-kind", params={})])
        assert report.failed == 1
        assert "unknown job kind" in report.outcomes[0].record["error"]

    def test_workers_validated(self):
        with pytest.raises(ValueError):
            run_sweep([], workers=0)


class TestCaching:
    def test_second_run_is_all_hits(self):
        store = ResultStore()
        first = run_sweep(echo_jobs([1, 2]), store=store)
        second = run_sweep(echo_jobs([1, 2]), store=store)
        assert first.executed == 2
        assert second.all_cached and second.hits == 2
        assert [o.record["result"] for o in second.outcomes] \
            == [o.record["result"] for o in first.outcomes]

    def test_any_param_change_misses(self):
        store = ResultStore()
        run_sweep(echo_jobs([1]), store=store)
        report = run_sweep(echo_jobs([2]), store=store)
        assert report.executed == 1

    def test_no_cache_forces_execution(self):
        store = ResultStore()
        run_sweep(echo_jobs([1]), store=store)
        report = run_sweep(echo_jobs([1]), store=store, use_cache=False)
        assert report.executed == 1

    def test_failed_records_served_unless_retry_failed(self):
        store = ResultStore()
        jobs = [Job(kind="domain-failure", params={"x": 1})]
        run_sweep(jobs, store=store)
        cached = run_sweep(jobs, store=store)
        assert cached.all_cached and cached.failed == 1
        retried = run_sweep(jobs, store=store, retry_failed=True)
        assert retried.executed == 1

    def test_duplicate_jobs_run_once(self):
        store = ResultStore()
        report = run_sweep(echo_jobs([1, 1, 1]), store=store)
        assert report.total == 1
        assert report.duplicates == 2
        assert report.executed == 1

    def test_resume_after_interruption(self):
        # Simulate an interrupted sweep: only a prefix of the grid made
        # it into the store; the re-run executes exactly the remainder.
        store = ResultStore()
        grid = echo_jobs([1, 2, 3, 4])
        run_sweep(grid[:2], store=store)
        resumed = run_sweep(grid, store=store)
        assert resumed.hits == 2
        assert resumed.executed == 2
        assert [o.record["result"]["value"] for o in resumed.outcomes] \
            == [10, 20, 30, 40]

    def test_progress_callback_sees_every_outcome(self):
        seen = []
        store = ResultStore()
        run_sweep(
            echo_jobs([1, 2]), store=store,
            progress=lambda job, rec, cached, done, total:
                seen.append((job.label, cached, total)),
        )
        run_sweep(
            echo_jobs([1, 2]), store=store,
            progress=lambda job, rec, cached, done, total:
                seen.append((job.label, cached, total)),
        )
        assert seen == [
            ("x=1", False, 2), ("x=2", False, 2),
            ("x=1", True, 2), ("x=2", True, 2),
        ]


@needs_fork
class TestParallel:
    def test_parallel_matches_serial(self):
        serial = run_sweep(echo_jobs(range(6)))
        parallel = run_sweep(echo_jobs(range(6)), workers=3)
        assert [o.record["result"] for o in serial.outcomes] \
            == [o.record["result"] for o in parallel.outcomes]

    def test_runner_exception_in_worker_contained(self):
        jobs = echo_jobs([1, 2]) + [Job(kind="explode", params={"x": 3})]
        report = run_sweep(jobs, workers=2)
        assert report.failed == 1
        assert sum(o.ok for o in report.outcomes) == 2

    def test_worker_crash_isolated_to_its_job(self):
        # x == 2 kills its worker process outright; only the job its
        # slot held is marked failed, and the rest complete.
        jobs = [
            Job(kind="crash", params={"x": v}, label=f"x={v}")
            for v in [1, 2, 3, 4]
        ]
        report = run_sweep(jobs, workers=2)
        by_label = {o.job.label: o for o in report.outcomes}
        assert not by_label["x=2"].ok
        assert "worker process died" in by_label["x=2"].record["error"]
        for label in ("x=1", "x=3", "x=4"):
            assert by_label[label].ok, label
            assert by_label[label].record["result"]["value"] \
                == int(label[2:])

    def test_crash_fails_one_job_and_reruns_none(self, tmp_path):
        """A dead worker fails only the job its slot held; a fresh
        process takes the slot and no job runs twice."""
        log = tmp_path / "executions"
        jobs = [
            Job(
                kind="logged-crash-first",
                params={"x": v, "log": str(log)},
                label=f"x={v}",
            )
            for v in range(12)
        ]
        report = run_sweep(jobs, workers=2)
        assert report.failed == 1
        assert sum(o.ok for o in report.outcomes) == 11
        assert "worker process died" in report.record_for(jobs[0])["error"]
        assert sorted(log.read_text().split()) == sorted(
            str(v) for v in range(12)
        )

    def test_worker_dead_between_jobs_is_replaced(self, monkeypatch):
        """A worker killed while idle holds no job: its slot forks a
        fresh process for the next job, and every job completes."""
        from repro.sweep.orchestrator import _Slot

        receive = _Slot.receive
        killed = []

        def receive_then_kill(slot):
            payload = receive(slot)
            if not killed:
                killed.append(slot._process.pid)
                os.kill(slot._process.pid, signal.SIGKILL)
                slot._process.join()
            return payload

        monkeypatch.setattr(_Slot, "receive", receive_then_kill)
        report = run_sweep(echo_jobs(range(6)), workers=2)
        assert killed
        assert report.failed == 0
        assert [o.record["result"]["value"] for o in report.outcomes] \
            == [v * 10 for v in range(6)]

    @needs_fork
    def test_workers_exit_when_the_parent_is_killed(self, tmp_path):
        """SIGKILL of a sweep's parent mid-job leaves no worker behind,
        and the workers exit without a traceback."""
        survivors, stderr = _kill_sweep_parent(tmp_path, SLOW_SWEEP, 5)
        assert not survivors
        assert b"Traceback" not in stderr

    def test_workers_exit_mid_job_when_the_parent_is_killed(self, tmp_path):
        """A worker does not run its job to the end for a dead parent:
        each holds a 30 s job and must be gone within 3 s of the kill."""
        survivors, stderr = _kill_sweep_parent(tmp_path, LONG_SWEEP, 3)
        assert not survivors, f"workers {survivors} outlived the parent"
        assert b"Traceback" not in stderr

    def test_unpicklable_result_fails_its_job(self):
        jobs = echo_jobs([1]) + [Job(kind="unpicklable", params={"x": 2})]
        report = run_sweep(jobs, workers=2)
        assert report.outcomes[0].ok
        assert "pickle" in report.outcomes[1].record["error"]

    def test_crashed_point_reported_but_not_stored(self):
        """A worker death says nothing about its job: the sweep reports
        the failure, and a re-run against the store runs the job again."""
        store = ResultStore()
        jobs = [Job(kind="crash", params={"x": 2})]
        first = run_sweep(jobs, store=store, workers=2)
        assert first.failed == 1 and store.get(jobs[0].key) is None
        second = run_sweep(jobs, store=store, workers=2)
        assert second.executed == 1 and second.failed == 1
