"""Multiprocess sweep orchestrator.

:func:`run_sweep` takes a job list (or a :class:`~repro.sweep.spec
.SweepSpec`), collapses duplicate keys, serves every already-stored key
from the :class:`~repro.sweep.store.ResultStore`, and shards the
remainder across worker processes.  Each job's outcome — ``ok`` or
``failed``, with metrics or an error — is appended to the store the
moment it completes, so an interrupted sweep resumes from its last
completed point and a finished sweep re-runs as 100% cache hits.

Failure containment is per point, never per sweep:

* a runner that raises records a *failed* job (with
  :class:`~repro.sweep.runners.JobFailure` carrying any partial
  result) and the sweep continues;
* a worker process that dies outright (segfault, ``os._exit``, OOM
  kill) breaks the shared pool — the orchestrator then re-runs each
  unfinished job in its own single-worker pool, so the crasher is
  identified precisely and marked failed while innocent in-flight jobs
  complete normally.

Workers are forked where available (Linux/macOS ``fork`` context) so
runner registrations made by the parent are visible without re-import;
pass ``mp_context`` to override.

Liveness has two optional surfaces, both off by default:

* ``telemetry=`` (a :class:`~repro.obs.stream.TelemetryWriter`) streams
  the sweep lifecycle — ``sweep_start``, per-job ``job_start`` /
  ``job_done`` / ``job_fail`` / ``job_hit``, per-worker ``heartbeat``
  records written by the worker processes themselves, rolling
  ``sweep_progress`` with throughput and ETA, and a closing
  ``sweep_end`` — for ``repro monitor`` to render live;
* :class:`ProgressPrinter` is a ready-made :data:`ProgressFn` that keeps
  a single updating stderr line (done/total, failures, cache hits, ETA)
  on a tty and degrades to sparse plain lines when piped.
"""

from __future__ import annotations

import multiprocessing
import signal
import sys
import time
import traceback as traceback_mod
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
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

from .runners import (
    JOB_RUNNERS,
    JobFailure,
    heartbeat_drops,
    job_context,
    job_deadline,
    retry_backoff_s,
    worker_job_finished,
    worker_job_started,
)
from .spec import Job, SweepSpec, dedupe
from .store import ResultStore, make_record

#: Outcome-stream callback: (job, record, cached, done_count, total_count).
ProgressFn = Callable[[Job, Mapping[str, object], bool, int, int], None]


def execute_job(
    kind: str,
    params: Dict[str, object],
    telemetry_path: Optional[str] = None,
    key: Optional[str] = None,
    label: Optional[str] = None,
    timeout_s: Optional[float] = None,
    retries: int = 0,
    checkpoint_dir: Optional[str] = None,
    checkpoint_every: Optional[int] = None,
) -> Dict[str, object]:
    """Run one job in the current process; never raises.

    The worker-side entry point: every failure mode is folded into the
    returned payload so a Python-level error can never poison the pool.
    With ``telemetry_path`` set, the worker itself appends ``job_start``
    and ``heartbeat`` records to the stream (line-atomic ``O_APPEND``
    writes), so a monitor sees jobs as workers pick them up.

    ``timeout_s`` bounds each attempt's wall clock (SIGALRM, see
    :func:`~repro.sweep.runners.job_deadline`); ``retries`` allows that
    many *re*-executions after a timeout or an unexpected exception,
    each preceded by the deterministic jittered backoff of
    :func:`~repro.sweep.runners.retry_backoff_s`.  A
    :class:`~repro.sweep.runners.JobFailure` is never retried: the
    simulator is deterministic, so a domain-level failure reproduces
    exactly.  The payload reports ``attempts`` (executions, including
    the first), the last failure's ``traceback``, and the worker's
    ``heartbeat_drops`` delta for this job.
    """
    started = time.perf_counter()
    drops_before = heartbeat_drops()
    if telemetry_path is not None:
        worker_job_started(telemetry_path, key or "", kind, label or "")
    attempts = 0
    while True:
        attempts += 1
        try:
            runner = JOB_RUNNERS.get(kind)
            if runner is None:
                raise JobFailure(
                    f"unknown job kind {kind!r}; "
                    f"registered: {sorted(JOB_RUNNERS)}"
                )
            with job_context(key or "", checkpoint_dir, checkpoint_every):
                with job_deadline(timeout_s):
                    result = runner(params)
            payload = {
                "status": "ok",
                "result": dict(result),
                "error": None,
                "traceback": None,
            }
            break
        except JobFailure as failure:
            payload = {
                "status": "failed",
                "result": failure.result,
                "error": failure.error,
                "traceback": failure.traceback
                or traceback_mod.format_exc(),
            }
            break
        except Exception as exc:  # noqa: BLE001 - boundary: fold into record
            trace = traceback_mod.format_exc()
            if attempts <= retries:
                time.sleep(retry_backoff_s(key or kind, attempts))
                continue
            payload = {
                "status": "failed",
                "result": None,
                "error": f"{type(exc).__name__}: {exc}",
                "traceback": trace,
            }
            break
    payload["attempts"] = attempts
    payload["elapsed_s"] = time.perf_counter() - started
    if telemetry_path is not None:
        worker_job_finished(
            telemetry_path, key or "", label or "", str(payload["status"])
        )
    payload["heartbeat_drops"] = heartbeat_drops() - drops_before
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
    #: Worker telemetry emissions dropped on OSError (summed deltas).
    heartbeat_drops: int = 0
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
        if self.heartbeat_drops:
            text += f", {self.heartbeat_drops} heartbeat drop(s)"
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


def _run_isolated(
    job: Job,
    mp_context,
    telemetry_path: Optional[str] = None,
    job_kwargs: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Re-run one suspect job in a disposable single-worker pool.

    If this pool breaks too, the crash is attributable to exactly this
    job, which is then the one marked failed.
    """
    try:
        with ProcessPoolExecutor(
            max_workers=1, mp_context=mp_context
        ) as pool:
            return pool.submit(
                execute_job, job.kind, dict(job.params),
                telemetry_path, job.key, job.label,
                **(job_kwargs or {}),
            ).result()
    except BrokenProcessPool:
        return {
            "status": "failed",
            "result": None,
            "error": "worker process died while running this job",
            "elapsed_s": 0.0,
        }


def _run_parallel(
    pending: Sequence[Job],
    workers: int,
    mp_context,
    on_done: Callable[[Job, Dict[str, object]], None],
    telemetry_path: Optional[str] = None,
    should_stop: Optional[Callable[[], bool]] = None,
    job_kwargs: Optional[Dict[str, object]] = None,
) -> None:
    """Shard ``pending`` over a worker pool, isolating crashers.

    When ``should_stop`` turns true (a drain signal), every not-yet-
    started future is cancelled; jobs already running finish and are
    recorded, so the drain loses no completed work.
    """
    suspects: List[Job] = []
    draining = False
    with ProcessPoolExecutor(
        max_workers=workers, mp_context=mp_context
    ) as pool:
        futures = {}
        for index, job in enumerate(pending):
            try:
                future = pool.submit(
                    execute_job, job.kind, dict(job.params),
                    telemetry_path, job.key, job.label,
                    **(job_kwargs or {}),
                )
            except BrokenProcessPool:
                # A worker died before the last submit: the pool takes no
                # more work, so the rest join the isolated re-runs below.
                suspects.extend(pending[index:])
                break
            futures[future] = job
        for future in as_completed(futures):
            if not draining and should_stop is not None and should_stop():
                draining = True
                for other in futures:
                    other.cancel()
            job = futures[future]
            if future.cancelled():
                continue
            try:
                payload = future.result()
            except BrokenProcessPool:
                # A worker died; every unfinished future resolves this
                # way and the crasher is not attributable here.  Defer
                # to isolated re-runs below.
                suspects.append(job)
                continue
            except Exception as exc:  # noqa: BLE001 - e.g. unpicklable
                payload = {
                    "status": "failed",
                    "result": None,
                    "error": f"{type(exc).__name__}: {exc}",
                    "elapsed_s": 0.0,
                }
            on_done(job, payload)
    if draining:
        return
    for job in suspects:
        on_done(
            job, _run_isolated(job, mp_context, telemetry_path, job_kwargs)
        )


def run_sweep(
    jobs: Union[SweepSpec, Sequence[Job]],
    store: Optional[ResultStore] = None,
    workers: int = 1,
    use_cache: bool = True,
    retry_failed: bool = False,
    progress: Optional[ProgressFn] = None,
    mp_context=None,
    telemetry=None,
    job_timeout_s: Optional[float] = None,
    job_retries: int = 0,
    checkpoint_dir: Optional[str] = None,
    checkpoint_every: Optional[int] = None,
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
    the sweep lifecycle; workers append their own ``job_start`` and
    ``heartbeat`` records when the writer is file-backed.

    Crash tolerance: ``job_timeout_s`` bounds each attempt's wall
    clock, ``job_retries`` re-executes timeouts/unexpected exceptions
    (deterministic backoff — see :func:`execute_job`), and
    ``checkpoint_dir`` lets the ``metrics`` runner snapshot mid-job
    every ``checkpoint_every`` cycles so a killed worker's progress
    survives to the retry or the next invocation.  With
    ``handle_signals=True`` a SIGINT/SIGTERM drains gracefully: running
    jobs finish and are stored, queued jobs are skipped, and the report
    says ``interrupted`` — re-running the same sweep resumes from the
    store.  (Signal handlers are process-global: only the CLI, which
    owns the process, turns this on.)
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
    telemetry_path = (
        str(telemetry.path)
        if telemetry is not None and telemetry.path is not None
        else None
    )

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

    def on_done(job: Job, payload: Dict[str, object]) -> None:
        nonlocal done_count, executed_done, failed_count
        record = make_record(
            job,
            status=payload["status"],
            result=payload["result"],
            error=payload["error"],
            elapsed_s=payload["elapsed_s"],
            attempts=payload.get("attempts", 1),
            traceback=payload.get("traceback"),
        )
        report.heartbeat_drops += int(payload.get("heartbeat_drops", 0))
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

    job_kwargs: Dict[str, object] = {
        "timeout_s": job_timeout_s,
        "retries": job_retries,
        "checkpoint_dir": checkpoint_dir,
        "checkpoint_every": checkpoint_every,
    }
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
                    on_done(
                        job,
                        execute_job(
                            job.kind, dict(job.params),
                            telemetry_path, job.key, job.label,
                            **job_kwargs,
                        ),
                    )
            else:
                _run_parallel(
                    pending,
                    workers,
                    mp_context if mp_context is not None
                    else _default_context(),
                    on_done,
                    telemetry_path,
                    should_stop=lambda: bool(stop_signals),
                    job_kwargs=job_kwargs,
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
            heartbeat_drops=report.heartbeat_drops,
            interrupted=report.interrupted,
            summary=report.summary(),
        )
    return report
