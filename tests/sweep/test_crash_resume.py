"""Crash tolerance: kill -9 + resume, failed records, drain.

A SIGKILLed worker must not poison the sweep, and re-running with the
same store must converge to a store bit-identical to an uninterrupted
run: the dead worker's job is reported failed but not stored, so the
re-run runs it.  A job runs once: a failure it raised is stored with
its traceback, never retried.  A SIGINT drains the sweep, storing what
finished.
"""

import os
import signal
import sys
import time

import pytest

from repro.sweep import Job, JobFailure, ResultStore, register_runner, run_sweep

needs_fork = pytest.mark.skipif(
    sys.platform == "win32", reason="fork start method required"
)

#: Record fields that legitimately differ between two runs of the same
#: job (wall-clock stamps); everything else must be bit-identical.
VOLATILE = ("stored_at", "elapsed_s")


def stable(record):
    return {k: v for k, v in record.items() if k not in VOLATILE}


@register_runner("cr-armed-kill")
def _armed_kill(params):
    # SIGKILL the worker outright while the sentinel file exists — the
    # hardest crash there is: no exception, no atexit, no cleanup.
    if params["x"] == 2 and os.path.exists(params["sentinel"]):
        os.kill(os.getpid(), signal.SIGKILL)
    return {"value": params["x"] * 10}


@register_runner("cr-domain-fail")
def _domain_fail(params):
    with open(params["counter"], "a") as handle:
        handle.write("x\n")
    raise JobFailure("point diverged deterministically")


@register_runner("cr-raise")
def _raise(params):
    with open(params["counter"], "a") as handle:
        handle.write("x\n")
    raise RuntimeError("runner bug")


@register_runner("cr-sigint-self")
def _sigint_self(params):
    # Simulate a user ^C arriving while job 1 runs: with
    # handle_signals=True the orchestrator's handler records it and the
    # serial loop drains before starting the next job.
    os.kill(os.getpid(), signal.SIGINT)
    return {"value": params["x"]}


@register_runner("cr-echo")
def _echo(params):
    return {"value": params["x"]}


def kill_jobs(sentinel):
    return [
        Job(
            kind="cr-armed-kill",
            params={"x": v, "sentinel": str(sentinel)},
            label=f"x={v}",
        )
        for v in (1, 2, 3)
    ]


# ---------------------------------------------------------------------- #
# kill -9 a worker, then --resume: store converges bit-identically
# ---------------------------------------------------------------------- #


@needs_fork
class TestKillResume:
    def test_sigkilled_worker_recorded_then_resume_bit_identical(
        self, tmp_path
    ):
        sentinel = tmp_path / "armed"
        sentinel.touch()
        jobs = kill_jobs(sentinel)
        store_path = tmp_path / "store.jsonl"

        # Sweep 1: the armed job SIGKILLs its worker.  Only the job that
        # slot held fails; the innocents complete.
        report = run_sweep(jobs, store=ResultStore(store_path), workers=2)
        assert report.total == 3
        assert report.failed == 1
        crashed = report.record_for(jobs[1])
        assert crashed["status"] == "failed"
        assert "worker process died" in crashed["error"]
        for job in (jobs[0], jobs[2]):
            assert report.record_for(job)["status"] == "ok"

        # Disarm and resume against the same store (what the CLI's
        # --resume does: reload, repair, run what the store lacks).
        sentinel.unlink()
        resumed_store = ResultStore(store_path)
        assert resumed_store.repair() == 0  # parent-side appends are whole
        assert resumed_store.get(jobs[1].key) is None
        resumed = run_sweep(jobs, store=resumed_store, workers=2)
        assert resumed.failed == 0
        assert resumed.hits == 2 and resumed.executed == 1

        # A never-crashed control sweep over the same jobs.
        clean_store = ResultStore(tmp_path / "clean.jsonl")
        run_sweep(jobs, store=clean_store, workers=2)

        resumed_index = {
            r["key"]: stable(r) for r in resumed_store.records()
        }
        clean_index = {r["key"]: stable(r) for r in clean_store.records()}
        assert resumed_index == clean_index

    def test_resumed_store_reloads_cleanly(self, tmp_path):
        sentinel = tmp_path / "armed"
        sentinel.touch()
        jobs = kill_jobs(sentinel)
        store_path = tmp_path / "store.jsonl"
        run_sweep(jobs, store=ResultStore(store_path), workers=2)
        sentinel.unlink()
        run_sweep(jobs, store=ResultStore(store_path), workers=2)
        # Fresh load: nothing corrupt, all three points served from
        # cache.
        final = ResultStore(store_path)
        assert final.corrupt_lines == 0
        replay = run_sweep(jobs, store=final, workers=2)
        assert replay.all_cached and replay.failed == 0


    def test_resume_reruns_a_dead_worker_but_serves_a_raised_failure(
        self, tmp_path
    ):
        """Both failures are reported, but only the one the job raised
        is its outcome: resuming runs the dead worker's job again and
        serves the raised failure from the store without running it."""
        sentinel = tmp_path / "armed"
        sentinel.touch()
        counter = tmp_path / "raised"
        raising = Job(kind="cr-raise", params={"counter": str(counter)})
        jobs = kill_jobs(sentinel) + [raising]
        store_path = tmp_path / "store.jsonl"
        first = run_sweep(jobs, store=ResultStore(store_path), workers=2)
        assert first.failed == 2

        sentinel.unlink()
        resumed = run_sweep(jobs, store=ResultStore(store_path), workers=2)
        assert resumed.executed == 1 and resumed.hits == 3
        assert resumed.record_for(jobs[1])["status"] == "ok"
        assert resumed.record_for(raising)["status"] == "failed"
        assert counter.read_text().count("x") == 1


# ---------------------------------------------------------------------- #
# Failed records: one execution, traceback kept
# ---------------------------------------------------------------------- #


class TestFailedRecord:
    @pytest.mark.parametrize("kind, exception", [
        ("cr-domain-fail", "JobFailure"),
        ("cr-raise", "RuntimeError"),
    ], ids=["JobFailure", "RuntimeError"])
    def test_runs_once_and_keeps_traceback(self, tmp_path, kind, exception):
        counter = tmp_path / "calls"
        job = Job(kind=kind, params={"counter": str(counter)})
        store_path = tmp_path / "store.jsonl"
        report = run_sweep([job], store=ResultStore(store_path))
        record = ResultStore(store_path).get(job.key)
        assert record == report.outcomes[0].record
        assert record["status"] == "failed"
        assert exception in record["traceback"]
        assert counter.read_text() == "x\n"  # exactly one execution


# ---------------------------------------------------------------------- #
# Graceful drain on SIGINT
# ---------------------------------------------------------------------- #


class TestGracefulDrain:
    def test_serial_drain_stores_finished_skips_queued(self, tmp_path):
        jobs = [
            Job(kind="cr-sigint-self", params={"x": 1}, label="first"),
            Job(kind="cr-echo", params={"x": 2}, label="second"),
            Job(kind="cr-echo", params={"x": 3}, label="third"),
        ]
        store = ResultStore(tmp_path / "store.jsonl")
        previous = signal.getsignal(signal.SIGINT)
        report = run_sweep(jobs, store=store, handle_signals=True)
        # The orchestrator restored the process handler on the way out.
        assert signal.getsignal(signal.SIGINT) is previous

        assert report.interrupted
        assert "INTERRUPTED" in report.summary()
        # Job 1 finished (its ^C arrived mid-run) and was stored; the
        # queued jobs never started and have no outcome.
        assert report.total == 1
        assert report.outcomes[0].ok
        assert len(store) == 1

        # Re-running the same sweep resumes: one hit, two executions.
        resumed = run_sweep(jobs, store=ResultStore(store.path))
        assert resumed.hits == 1 and resumed.executed == 2
        assert not resumed.interrupted

    def test_without_handle_signals_flag_not_set(self, tmp_path):
        report = run_sweep(
            [Job(kind="cr-echo", params={"x": 1})],
            store=ResultStore(tmp_path / "store.jsonl"),
        )
        assert not report.interrupted
        assert "INTERRUPTED" not in report.summary()


# ---------------------------------------------------------------------- #
# Parallel drain (fork): hand out no more jobs, keep running work
# ---------------------------------------------------------------------- #


@needs_fork
def test_parallel_drain_cancels_queued_jobs(tmp_path):
    # Far more jobs than workers, so the drain finds queued jobs.  The
    # first job SIGINTs the *parent* (os.kill targets the orchestrating
    # pid); each slot holds one job, so the queue is never started.
    parent = os.getpid()
    jobs = [
        Job(
            kind="cr-parent-sigint",
            params={"x": 1, "parent": parent},
            label="signaler",
        )
    ] + [
        Job(kind="cr-slow-echo", params={"x": v}, label=f"x={v}")
        for v in range(2, 18)
    ]
    store = ResultStore(tmp_path / "store.jsonl")
    report = run_sweep(
        jobs, store=store, workers=2, handle_signals=True
    )
    assert report.interrupted
    # Everything that DID run was stored; queued jobs never started.
    assert 1 <= report.total < len(jobs)
    assert all(outcome.ok for outcome in report.outcomes)
    assert len(store) == report.total


@register_runner("cr-parent-sigint")
def _parent_sigint(params):
    os.kill(params["parent"], signal.SIGINT)
    time.sleep(0.3)  # stay "running" while the drain decision is made
    return {"value": params["x"]}


@register_runner("cr-slow-echo")
def _slow_echo(params):
    time.sleep(0.2)
    return {"value": params["x"]}
