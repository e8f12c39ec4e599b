"""Crash tolerance: kill -9 + resume, timeouts, retries, drain.

The scenarios ISSUE 9 calls out: a SIGKILLed worker must not poison the
sweep, and re-running with the same store must converge to a store
bit-identical to an uninterrupted run; the ``metrics`` runner must
resume mid-job from its own snapshot (and survive a torn one); wall
clock deadlines and retries must be bounded, counted, and — because the
backoff jitter is derived from the job key — deterministic.
"""

import multiprocessing
import os
import signal
import sys
import time

import pytest

from repro.core.system import build_system
from repro.sim.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from repro.sim.config import SystemConfig
from repro.sweep import Job, JobFailure, ResultStore, register_runner, run_sweep
from repro.sweep.orchestrator import execute_job
from repro.sweep.runners import config_from_payload, metrics_job, retry_backoff_s

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


@register_runner("cr-sleepy")
def _sleepy(params):
    time.sleep(params["sleep_s"])
    return {"value": 1}


@register_runner("cr-flaky")
def _flaky(params):
    # Cross-attempt state via a counter file: fail the first
    # ``fail_times`` calls, then succeed.  Retries re-execute in the
    # same process, but a file survives worker replacement too.
    counter = params["counter"]
    with open(counter, "a") as handle:
        handle.write("x\n")
    with open(counter) as handle:
        calls = len(handle.readlines())
    if calls <= params["fail_times"]:
        raise RuntimeError(f"transient failure on call {calls}")
    return {"calls": calls}


@register_runner("cr-domain-fail")
def _domain_fail(params):
    with open(params["counter"], "a") as handle:
        handle.write("x\n")
    raise JobFailure("point diverged deterministically")


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
        # --resume does: reload, repair, re-run with retry_failed).
        sentinel.unlink()
        resumed_store = ResultStore(store_path)
        assert resumed_store.repair() == 0  # parent-side appends are whole
        resumed = run_sweep(
            jobs, store=resumed_store, workers=2, retry_failed=True
        )
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
        run_sweep(
            jobs, store=ResultStore(store_path), workers=2,
            retry_failed=True,
        )
        # Fresh load: last-write-wins resolves the failed row, nothing
        # corrupt, all three points served from cache.
        final = ResultStore(store_path)
        assert final.corrupt_lines == 0
        replay = run_sweep(jobs, store=final, workers=2)
        assert replay.all_cached and replay.failed == 0


# ---------------------------------------------------------------------- #
# Mid-job checkpointing in the metrics runner
# ---------------------------------------------------------------------- #


class TestMidJobCheckpoint:
    CONFIG = SystemConfig(
        app="single_dtv", cycles=1_200, warmup=200, seed=7
    )

    def clean_result(self):
        job = metrics_job(self.CONFIG)
        payload = execute_job("metrics", dict(job.params), key=job.key)
        assert payload["status"] == "ok"
        return job, payload["result"]

    def test_resumes_from_partial_snapshot_bit_identical(self, tmp_path):
        job, clean = self.clean_result()
        # A crashed worker's leavings: the job ran to cycle 500 and
        # snapshotted before dying.
        partial = build_system(config_from_payload(job.params))
        partial.simulator.run(500)
        ckpt = tmp_path / f"{job.key}.ckpt"
        save_checkpoint(ckpt, partial)

        payload = execute_job(
            "metrics", dict(job.params), key=job.key,
            checkpoint_dir=str(tmp_path),
        )
        assert payload["status"] == "ok"
        assert payload["result"] == clean
        assert not ckpt.exists()  # deleted on success

    def test_torn_snapshot_discarded_job_starts_over(self, tmp_path):
        job, clean = self.clean_result()
        ckpt = tmp_path / f"{job.key}.ckpt"
        ckpt.write_bytes(b"REPROCKP" + b"\x00" * 40)  # torn mid-write
        with pytest.raises(CheckpointError):
            load_checkpoint(ckpt)
        payload = execute_job(
            "metrics", dict(job.params), key=job.key,
            checkpoint_dir=str(tmp_path),
        )
        assert payload["status"] == "ok"
        assert payload["result"] == clean
        assert not ckpt.exists()

    def test_without_checkpoint_dir_no_snapshot_files(self, tmp_path):
        job, _ = self.clean_result()
        assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------- #
# Deadlines, retries, attempt accounting
# ---------------------------------------------------------------------- #


class TestTimeoutAndRetry:
    def test_timeout_fails_with_attempt_count(self):
        payload = execute_job(
            "cr-sleepy", {"sleep_s": 30.0},
            key="t-timeout", timeout_s=0.2, retries=1,
        )
        assert payload["status"] == "failed"
        assert payload["attempts"] == 2
        assert "deadline" in payload["error"]
        assert "JobTimeout" in payload["traceback"]

    def test_transient_failure_retried_to_success(self, tmp_path):
        counter = tmp_path / "calls"
        payload = execute_job(
            "cr-flaky", {"counter": str(counter), "fail_times": 1},
            key="t-flaky", retries=1,
        )
        assert payload["status"] == "ok"
        assert payload["attempts"] == 2
        assert payload["result"] == {"calls": 2}
        assert payload["traceback"] is None

    def test_retries_exhausted_keeps_last_traceback(self, tmp_path):
        counter = tmp_path / "calls"
        payload = execute_job(
            "cr-flaky", {"counter": str(counter), "fail_times": 5},
            key="t-exhaust", retries=2,
        )
        assert payload["status"] == "failed"
        assert payload["attempts"] == 3
        assert "transient failure on call 3" in payload["error"]
        assert "RuntimeError" in payload["traceback"]

    def test_job_failure_never_retried(self, tmp_path):
        counter = tmp_path / "calls"
        payload = execute_job(
            "cr-domain-fail", {"counter": str(counter)},
            key="t-domain", retries=3,
        )
        assert payload["status"] == "failed"
        assert payload["attempts"] == 1
        assert counter.read_text() == "x\n"  # exactly one execution

    def test_attempts_and_traceback_reach_the_store(self, tmp_path):
        counter = tmp_path / "calls"
        job = Job(
            kind="cr-flaky",
            params={"counter": str(counter), "fail_times": 1},
            label="flaky",
        )
        store = ResultStore(tmp_path / "store.jsonl")
        report = run_sweep([job], store=store, job_retries=1)
        record = report.outcomes[0].record
        assert record["status"] == "ok"
        assert record["attempts"] == 2
        assert record["traceback"] is None
        # And a stored failure keeps its last traceback for debugging.
        bad = Job(kind="cr-domain-fail", params={"counter": str(counter)})
        report = run_sweep([bad], store=store)
        record = report.outcomes[0].record
        assert record["attempts"] == 1
        assert "JobFailure" in record["traceback"]


class TestBackoff:
    def test_deterministic_for_same_key_and_attempt(self):
        assert retry_backoff_s("k", 1) == retry_backoff_s("k", 1)
        assert retry_backoff_s("k", 2) == retry_backoff_s("k", 2)

    def test_varies_with_key_and_attempt(self):
        assert retry_backoff_s("k", 1) != retry_backoff_s("other", 1)
        assert retry_backoff_s("k", 1) != retry_backoff_s("k", 2)

    def test_jitter_window_and_cap(self):
        for attempt in range(1, 12):
            delay = retry_backoff_s("k", attempt, base_s=0.25, cap_s=8.0)
            ceiling = min(8.0, 0.25 * 2 ** (attempt - 1))
            assert 0.5 * ceiling <= delay <= 1.5 * ceiling
        # Deep attempts stay capped, never overflow.
        assert retry_backoff_s("k", 200) <= 1.5 * 8.0

    def test_rejects_nonpositive_attempt(self):
        with pytest.raises(ValueError, match="attempt"):
            retry_backoff_s("k", 0)


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
