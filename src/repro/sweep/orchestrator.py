"""Multiprocess sweep orchestrator.

:func:`run_sweep` takes a job list (or a :class:`~repro.sweep.spec
.SweepSpec`), collapses duplicate keys, serves every already-stored key
from the :class:`~repro.sweep.store.ResultStore`, and shards the
remainder across worker processes.  Each job's outcome — ``ok`` or
``failed``, with metrics or an error — is appended to the store the
moment it completes, so an interrupted sweep resumes from its last
completed point and a finished sweep re-runs as 100% cache hits.

With ``workers > 1`` each of ``workers`` *slots* owns one long-lived
worker process and its own pipe, and holds at most one job at a time:
the parent sends a job, waits on every busy pipe at once
(:func:`multiprocessing.connection.wait`), and hands the next job to
whichever slot answers.  ``workers == 1`` runs every job in-process.

Failure containment is per point, never per sweep:

* a runner that raises records a *failed* job (with
  :class:`~repro.sweep.runners.JobFailure` carrying any partial
  result) and the sweep continues;
* a worker process that dies outright (segfault, ``os._exit``, OOM
  kill) fails exactly the job its slot held, since a slot holds one;
  a fresh process takes the slot for the next job, and no other job
  runs twice;
* a parent that dies outright leaves no worker behind: each worker
  watches its parent's sentinel and exits the moment it fires, even
  mid-job.

Workers are forked where available (Linux/macOS ``fork`` context) so
runner registrations made by the parent are visible without re-import;
pass ``mp_context`` to override.

Liveness has two optional surfaces, both off by default:

* ``telemetry=`` (a :class:`~repro.obs.stream.TelemetryWriter`) streams
  the sweep lifecycle — ``sweep_start``, per-job ``job_start`` /
  ``job_done`` / ``job_fail`` / ``job_hit``, a ``heartbeat`` per slot as
  it starts and finishes each job, rolling ``sweep_progress`` with
  throughput and ETA, and a closing ``sweep_end`` — for ``repro
  monitor`` to render live.  The parent sees every job start and end,
  so it is the stream's only writer;
* :class:`ProgressPrinter` is a ready-made :data:`ProgressFn` that keeps
  a single updating stderr line (done/total, failures, cache hits, ETA)
  on a tty and degrades to sparse plain lines when piped.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import sys
import threading
import time
import traceback as traceback_mod
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    TextIO,
    Union,
)

from .runners import JOB_RUNNERS, JobFailure
from .spec import Job, SweepSpec, dedupe
from .store import ResultStore, make_record

#: Outcome-stream callback: (job, record, cached, done_count, total_count).
ProgressFn = Callable[[Job, Mapping[str, object], bool, int, int], None]


def execute_job(kind: str, params: Dict[str, object]) -> Dict[str, object]:
    """Run one job once in the current process; never raises.

    The worker-side entry point: every failure mode is folded into the
    returned payload, with the failure's ``traceback``, so a
    Python-level error can never end a worker.  Nothing is retried: the
    simulator is deterministic, so a second run would fail the same way.
    """
    started = time.perf_counter()
    try:
        runner = JOB_RUNNERS.get(kind)
        if runner is None:
            raise JobFailure(
                f"unknown job kind {kind!r}; registered: {sorted(JOB_RUNNERS)}"
            )
        payload = {
            "status": "ok",
            "result": dict(runner(params)),
            "error": None,
            "traceback": None,
        }
    except JobFailure as failure:
        payload = {
            "status": "failed",
            "result": failure.result,
            "error": failure.error,
            "traceback": traceback_mod.format_exc(),
        }
    except Exception as exc:  # noqa: BLE001 - boundary: fold into record
        payload = {
            "status": "failed",
            "result": None,
            "error": f"{type(exc).__name__}: {exc}",
            "traceback": traceback_mod.format_exc(),
        }
    payload["elapsed_s"] = time.perf_counter() - started
    return payload


@dataclass(frozen=True)
class JobOutcome:
    """One job's resolution within a sweep."""

    job: Job
    record: Mapping[str, object]
    cached: bool

    @property
    def ok(self) -> bool:
        return self.record.get("status") == "ok"


@dataclass
class SweepReport:
    """What a sweep did: per-job outcomes plus aggregate counters."""

    outcomes: List[JobOutcome] = field(default_factory=list)
    #: Jobs submitted more than once with the same key (collapsed).
    duplicates: int = 0
    elapsed_s: float = 0.0
    #: A SIGINT/SIGTERM drained the sweep early: running jobs finished
    #: and were stored, queued jobs were never started (and are absent
    #: from :attr:`outcomes`).
    interrupted: bool = False

    @property
    def total(self) -> int:
        return len(self.outcomes)

    @property
    def hits(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.cached)

    @property
    def executed(self) -> int:
        return sum(1 for outcome in self.outcomes if not outcome.cached)

    @property
    def failed(self) -> int:
        return sum(1 for outcome in self.outcomes if not outcome.ok)

    @property
    def all_cached(self) -> bool:
        return self.executed == 0

    def record_for(self, job: Job) -> Mapping[str, object]:
        for outcome in self.outcomes:
            if outcome.job.key == job.key:
                return outcome.record
        raise KeyError(job.key)

    def summary(self) -> str:
        text = (
            f"{self.total} job(s): {self.hits} cache hit(s), "
            f"{self.executed} executed, {self.failed} failed "
            f"({self.elapsed_s:.1f}s)"
        )
        if self.interrupted:
            text += " — INTERRUPTED (resume with the same store)"
        return text


class ProgressPrinter:
    """Single updating progress line: done/total, failures, hits, ETA.

    A :data:`ProgressFn` for long grids.  On a tty the line redraws in
    place (``\\r``); piped to a file it prints at most ~10 milestone
    lines so logs stay readable.  Call :meth:`close` (or use the CLI,
    which does) to terminate the tty line with a newline.
    """

    def __init__(self, stream: Optional[TextIO] = None) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self._isatty = bool(getattr(self.stream, "isatty", lambda: False)())
        self._started = time.perf_counter()
        self._executed = 0
        self._failed = 0
        self._hits = 0
        self._open_line = False

    def __call__(
        self,
        job: Job,
        record: Mapping[str, object],
        cached: bool,
        done: int,
        total: int,
    ) -> None:
        if cached:
            self._hits += 1
        else:
            self._executed += 1
        if record.get("status") != "ok":
            self._failed += 1
        if self._isatty or done == total or self._milestone(done, total):
            self._render(done, total)

    def _milestone(self, done: int, total: int) -> bool:
        step = max(1, total // 10)
        return done % step == 0

    def eta_s(self, done: int, total: int) -> Optional[float]:
        """Remaining-work estimate from executed-job throughput; cache
        hits are free, so they never count toward the rate."""
        if self._executed == 0 or done >= total:
            return None
        elapsed = time.perf_counter() - self._started
        if elapsed <= 0:
            return None
        return (total - done) * elapsed / self._executed

    def _render(self, done: int, total: int) -> None:
        eta = self.eta_s(done, total)
        text = (
            f"sweep [{done}/{total}] "
            f"{self._executed} run, {self._hits} cached, "
            f"{self._failed} failed"
        )
        if eta is not None:
            text += f", eta {eta:.0f}s"
        if self._isatty:
            self.stream.write("\r\x1b[K" + text)
            self._open_line = True
        else:
            self.stream.write(text + "\n")
        self.stream.flush()

    def close(self) -> None:
        """Terminate an in-place line so later output starts clean."""
        if self._open_line:
            self.stream.write("\n")
            self.stream.flush()
            self._open_line = False


def _default_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        return multiprocessing.get_context()


def _exit_with_parent(sentinel) -> None:
    """End this process as soon as ``sentinel`` (the parent's) fires."""
    wait([sentinel])
    os._exit(1)


def _serve(conn) -> None:
    """A worker process's body: run each ``(kind, params)`` that arrives
    on ``conn`` and send its payload back, until ``None`` or the
    parent's death.

    A parent that dies leaves the pipe open, since this worker and any
    forked after it hold copies of the parent's ends, and no one would
    take the result of the job in hand, so a daemon thread waits on the
    parent's sentinel and ends the process the moment it fires.
    """
    threading.Thread(
        target=_exit_with_parent,
        args=(multiprocessing.parent_process().sentinel,),
        daemon=True,
    ).start()
    while True:
        message = conn.recv()
        if message is None:
            return
        payload = execute_job(*message)
        try:
            conn.send(payload)
        except Exception as exc:  # noqa: BLE001 - e.g. an unpicklable result
            conn.send({
                "status": "failed",
                "result": None,
                "error": f"{type(exc).__name__}: {exc}",
                "elapsed_s": payload["elapsed_s"],
            })


class _Slot:
    """One worker process, its pipe, and the one job it holds."""

    def __init__(self, index: int, mp_context) -> None:
        self.index = index
        self.job: Optional[Job] = None
        self.conn = None
        self._context = mp_context
        self._process = None

    def _start(self) -> None:
        self.conn, child = self._context.Pipe()
        self._process = self._context.Process(target=_serve, args=(child,))
        self._process.start()
        child.close()

    def send(self, job: Job) -> None:
        """Hand ``job`` to this slot's process, forking a fresh one if
        the slot has none or its process died between jobs."""
        message = (job.kind, dict(job.params))
        if self._process is not None:
            try:
                self.conn.send(message)
            except OSError:
                self.close()
        if self._process is None:
            self._start()
            self.conn.send(message)
        self.job = job

    def receive(self) -> Dict[str, object]:
        """The held job's payload.  If the process died running it, the
        job fails and the slot is left empty for a fresh process."""
        try:
            payload = self.conn.recv()
        except (EOFError, OSError):
            self.close()
            payload = {
                "status": "failed",
                "result": None,
                "error": "worker process died while running this job",
                "elapsed_s": 0.0,
            }
        self.job = None
        return payload

    def close(self) -> None:
        """End this slot's process: an idle one is told to exit, one
        still holding a job is terminated."""
        if self._process is None:
            return
        if self.job is None:
            try:
                self.conn.send(None)
            except OSError:
                pass
        else:
            self._process.terminate()
        self._process.join()
        self.conn.close()
        self._process = None


def _run_parallel(
    pending: Sequence[Job],
    workers: int,
    mp_context,
    on_start: Callable[[int, Job], None],
    on_done: Callable[[int, Job, Dict[str, object]], None],
    should_stop: Callable[[], bool],
) -> None:
    """Run ``pending`` on ``workers`` slots, one job per slot at a time.

    When ``should_stop`` turns true (a drain signal), no further job is
    handed out; jobs already running finish and are recorded, so the
    drain loses no completed work.
    """
    queue = deque(pending)
    slots = [_Slot(i, mp_context) for i in range(min(workers, len(queue)))]
    idle = deque(slots)
    busy = {}
    try:
        while True:
            while idle and queue:
                slot = idle.popleft()
                job = queue.popleft()
                on_start(slot.index, job)
                slot.send(job)
                busy[slot.conn] = slot
            if not busy:
                return
            for conn in wait(list(busy)):
                slot = busy.pop(conn)
                job = slot.job
                on_done(slot.index, job, slot.receive())
                idle.append(slot)
            if should_stop():
                queue.clear()
    finally:
        for slot in slots:
            slot.close()


def run_sweep(
    jobs: Union[SweepSpec, Sequence[Job]],
    store: Optional[ResultStore] = None,
    workers: int = 1,
    use_cache: bool = True,
    retry_failed: bool = False,
    progress: Optional[ProgressFn] = None,
    mp_context=None,
    telemetry=None,
    handle_signals: bool = False,
) -> SweepReport:
    """Resolve every job — from the store where possible, by
    simulation otherwise — and return the per-job outcomes.

    ``use_cache=False`` forces every point to execute (fresh records
    still overwrite the store, so it doubles as an invalidation pass).
    ``retry_failed=True`` re-executes stored *failed* records instead
    of serving them from cache — the default serves them, because the
    simulator is deterministic and a re-run reproduces the failure.
    ``telemetry`` (a :class:`~repro.obs.stream.TelemetryWriter`) streams
    the sweep lifecycle; ``job_start`` and ``heartbeat`` records name
    the slot (``worker``, 0 to ``workers`` - 1) that ran the job.

    Each job runs once.  The store is the only recovery state: every
    finished job is appended to it, a job whose worker died is recorded
    failed, and re-running the same sweep against the store runs only
    what is missing (and, with ``retry_failed``, what failed).  With
    ``handle_signals=True`` a SIGINT/SIGTERM drains gracefully: running
    jobs finish and are stored, queued jobs are skipped, and the report
    says ``interrupted``.  (Signal handlers are process-global: only
    the CLI, which owns the process, turns this on.)
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if isinstance(jobs, SweepSpec):
        jobs = jobs.expand()
    if store is None:
        store = ResultStore()  # memory-only
    started = time.perf_counter()
    unique = dedupe(jobs)
    report = SweepReport(duplicates=len(jobs) - len(unique))

    outcomes: Dict[str, JobOutcome] = {}
    pending: List[Job] = []
    for job in unique:
        record = store.get(job.key) if use_cache else None
        if record is not None and (
            record.get("status") == "ok" or not retry_failed
        ):
            outcomes[job.key] = JobOutcome(job, record, cached=True)
        else:
            pending.append(job)

    if telemetry is not None:
        telemetry.emit(
            "sweep_start",
            total=len(unique),
            pending=len(pending),
            cached=len(outcomes),
            workers=workers,
            duplicates=report.duplicates,
        )

    done_count = len(outcomes)
    executed_done = 0
    failed_count = 0
    for job in unique:
        outcome = outcomes.get(job.key)
        if outcome is None:
            continue
        if not outcome.ok:
            failed_count += 1
        if progress is not None:
            progress(job, outcome.record, True, done_count, len(unique))
        if telemetry is not None:
            telemetry.emit(
                "job_hit",
                key=job.key,
                label=job.label,
                status=outcome.record.get("status"),
            )

    #: Jobs each slot has finished, for its heartbeats.
    slot_jobs_done = [0] * workers

    def on_start(slot: int, job: Job) -> None:
        if telemetry is not None:
            telemetry.emit(
                "job_start",
                key=job.key, kind=job.kind, label=job.label, worker=slot,
            )
            telemetry.emit(
                "heartbeat",
                worker=slot, jobs_done=slot_jobs_done[slot],
                current=job.label, phase="start",
            )

    def on_done(slot: int, job: Job, payload: Dict[str, object]) -> None:
        nonlocal done_count, executed_done, failed_count
        slot_jobs_done[slot] += 1
        record = make_record(
            job,
            status=payload["status"],
            result=payload["result"],
            error=payload["error"],
            elapsed_s=payload["elapsed_s"],
            traceback=payload.get("traceback"),
        )
        store.put(record)
        outcomes[job.key] = JobOutcome(job, record, cached=False)
        done_count += 1
        executed_done += 1
        failed = payload["status"] != "ok"
        if failed:
            failed_count += 1
        if progress is not None:
            progress(job, record, False, done_count, len(unique))
        if telemetry is not None:
            telemetry.emit(
                "heartbeat",
                worker=slot, jobs_done=slot_jobs_done[slot],
                current=job.label, phase="done", status=payload["status"],
            )
            telemetry.emit(
                "job_fail" if failed else "job_done",
                key=job.key,
                label=job.label,
                elapsed_s=payload["elapsed_s"],
                error=payload["error"],
            )
            elapsed = time.perf_counter() - started
            rate = executed_done / elapsed if elapsed > 0 else None
            remaining = len(unique) - done_count
            telemetry.emit(
                "sweep_progress",
                done=done_count,
                total=len(unique),
                failed=failed_count,
                hits=done_count - executed_done,
                jobs_per_s=rate,
                eta_s=remaining / rate if rate else None,
            )

    stop_signals: List[int] = []
    previous_handlers: Dict[int, object] = {}
    if handle_signals:
        def request_stop(signum, frame):
            stop_signals.append(signum)

        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                previous_handlers[signum] = signal.signal(
                    signum, request_stop
                )
            except ValueError:  # not the main thread: no drain support
                for installed, handler in previous_handlers.items():
                    signal.signal(installed, handler)
                previous_handlers.clear()
                break

    try:
        if pending:
            if workers == 1:
                for job in pending:
                    if stop_signals:
                        break
                    on_start(0, job)
                    on_done(0, job, execute_job(job.kind, dict(job.params)))
            else:
                _run_parallel(
                    pending,
                    workers,
                    mp_context if mp_context is not None
                    else _default_context(),
                    on_start,
                    on_done,
                    lambda: bool(stop_signals),
                )
    finally:
        for signum, handler in previous_handlers.items():
            signal.signal(signum, handler)

    # Report in submission order regardless of completion order.  An
    # interrupted sweep has no outcome for never-started jobs.
    report.interrupted = bool(stop_signals)
    report.outcomes = [
        outcomes[job.key] for job in unique if job.key in outcomes
    ]
    report.elapsed_s = time.perf_counter() - started
    if telemetry is not None:
        telemetry.emit(
            "sweep_end",
            total=report.total,
            hits=report.hits,
            executed=report.executed,
            failed=report.failed,
            elapsed_s=report.elapsed_s,
            interrupted=report.interrupted,
            summary=report.summary(),
        )
    return report
