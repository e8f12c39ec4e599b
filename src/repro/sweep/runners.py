"""Job runners: what a worker process executes for each job kind.

A runner is a plain function ``params -> result dict`` registered under
a job *kind*; the orchestrator sends ``(kind, params, key)`` to a
worker process (or runs it in-process with one worker), which looks the
runner up in :data:`JOB_RUNNERS` and executes it.  Both sides of the
boundary are JSON-level dicts so jobs pickle trivially and hash
canonically.  A worker only computes: its payload goes back to the
orchestrating process, which alone writes the result store and the
telemetry stream.

Two kinds are built in:

* ``metrics`` — build one :class:`~repro.sim.config.SystemConfig` from
  a fully-resolved payload, simulate it, return the
  :class:`~repro.sim.stats.RunMetrics` fields.  Every metric exhibit
  (Tables I–III, Fig. 8, the arbiter comparison) and the generic
  ``repro sweep grid`` command resolve their cells as these jobs.
* ``fault-point`` — one point of the fault-rate sweep, run by
  :func:`repro.experiments.fault_sweep.run_fault_point`; the fault
  sweep resolves every point as one of these jobs, in-process or
  sharded.  A point that hangs
  (fails to drain) or leaves injected faults unaccounted raises
  :class:`JobFailure` carrying the partial result, so the store records
  it as a *failed* job with the rate and drain budget in the error —
  never a silent row.

A runner signals a domain-level failure by raising :class:`JobFailure`
(optionally with the partial result); any other exception is caught at
the execution boundary and recorded as a failed job with the exception
text.
"""

from __future__ import annotations

import signal
import threading
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path
from typing import Callable, Dict, Mapping, Optional

from ..core.system import build_system
from ..resilience.faults import FaultConfig, FaultSite, ScheduledFault
from ..sim.config import DdrGeneration, NocDesign, SystemConfig
from ..sim.rng import derive_rng


class JobFailure(Exception):
    """A runner-reported failure, optionally with a partial result.

    ``attempts`` and ``traceback`` are stamped by the execution boundary
    (:func:`~repro.sweep.orchestrator.execute_job`) so the stored record
    says how many executions it took and what the last one looked like.
    """

    def __init__(
        self,
        error: str,
        result: Optional[Mapping[str, object]] = None,
        attempts: int = 1,
        traceback: Optional[str] = None,
    ) -> None:
        super().__init__(error)
        self.error = error
        self.result = dict(result) if result is not None else None
        self.attempts = attempts
        self.traceback = traceback


class JobTimeout(Exception):
    """A runner exceeded its wall-clock deadline (see :func:`job_deadline`)."""


@contextmanager
def job_deadline(seconds: Optional[float]):
    """Raise :class:`JobTimeout` if the body runs longer than ``seconds``.

    Implemented with ``SIGALRM`` — the only way to interrupt a CPU-bound
    simulation loop from within the same process.  Worker processes run
    jobs on their main thread, where signal delivery works; off the main
    thread (or with ``seconds=None``/non-POSIX) the deadline degrades to
    a no-op rather than failing the job.
    """
    usable = (
        seconds is not None
        and seconds > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def expire(signum, frame):
        raise JobTimeout(f"job exceeded its {seconds:g}s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, float(seconds))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def retry_backoff_s(
    key: str,
    attempt: int,
    base_s: float = 0.25,
    cap_s: float = 8.0,
) -> float:
    """Deterministic jittered exponential backoff before retry ``attempt``.

    Exponential in the attempt number, jittered to de-thunder a pool of
    workers retrying together — but the jitter is *derived* from the job
    key (via the same SHA-256 stream derivation every other seed in the
    repo uses), not wall-clock randomness, so a re-run of a sweep waits
    the exact same delays and the retry schedule is reproducible.
    """
    if attempt < 1:
        raise ValueError(f"attempt must be >= 1, got {attempt}")
    rng = derive_rng(0, "job-retry", key, attempt)
    return min(cap_s, base_s * (2.0 ** (attempt - 1))) * (0.5 + rng.random())


#: The job currently executing in this process, set by ``execute_job``:
#: ``key`` plus the checkpoint policy the orchestrator was given.
#: Runners that support mid-job snapshots (``metrics``) read it to find
#: where to save/resume; plain module state, so each worker process
#: owns its copy.
_active_job: Dict[str, object] = {}


@contextmanager
def job_context(
    key: str,
    checkpoint_dir: Optional[str] = None,
    checkpoint_every: Optional[int] = None,
):
    """Install the per-job execution context around one runner call."""
    previous = dict(_active_job)
    _active_job.clear()
    _active_job.update(
        key=key,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=checkpoint_every,
    )
    try:
        yield
    finally:
        _active_job.clear()
        _active_job.update(previous)


#: kind -> runner. Workers resolve kinds here; register new experiment
#: types with :func:`register_runner`.
JOB_RUNNERS: Dict[str, Callable[[Mapping[str, object]], Mapping[str, object]]] = {}


def register_runner(kind: str):
    """Decorator registering a runner for ``kind`` (last wins)."""

    def register(fn):
        JOB_RUNNERS[kind] = fn
        return fn

    return register


# --------------------------------------------------------------------- #
# Config <-> canonical JSON payload
# --------------------------------------------------------------------- #

def fault_payload(faults: FaultConfig) -> Dict[str, object]:
    """A FaultConfig flattened to JSON scalars (enums to values)."""
    payload = asdict(faults)
    payload["schedule"] = [
        {
            "cycle": entry.cycle,
            "site": entry.site.value,
            "node": entry.node,
            "bits": entry.bits,
        }
        for entry in faults.schedule
    ]
    return payload


def fault_from_payload(payload: Mapping[str, object]) -> FaultConfig:
    fields = dict(payload)
    fields["schedule"] = tuple(
        ScheduledFault(
            cycle=entry["cycle"],
            site=FaultSite(entry["site"]),
            node=entry["node"],
            bits=entry["bits"],
        )
        for entry in fields.get("schedule", ())
    )
    return FaultConfig(**fields)


def config_payload(config: SystemConfig) -> Dict[str, object]:
    """Every SystemConfig field, fully resolved, as JSON scalars.

    This is the ``metrics`` job's parameter mapping — and therefore the
    cache key material — so *every* field participates: changing any
    one of them is a miss, changing none is a hit.
    """
    payload = asdict(config)
    payload["ddr"] = config.ddr.value
    payload["design"] = config.design.value
    payload["faults"] = (
        fault_payload(config.faults) if config.faults is not None else None
    )
    return payload


def config_from_payload(payload: Mapping[str, object]) -> SystemConfig:
    fields = dict(payload)
    fields["ddr"] = DdrGeneration(fields["ddr"])
    fields["design"] = NocDesign(fields["design"])
    if fields.get("faults") is not None:
        fields["faults"] = fault_from_payload(fields["faults"])
    return SystemConfig(**fields)


def metrics_job(config: SystemConfig, label: Optional[str] = None):
    """The ``metrics`` job for one configuration.

    Exhibits (:func:`repro.experiments.runner.run_cells`) and ``repro
    sweep grid`` both build their jobs here, so they address the store
    by the same key and a point simulated by either is a hit for the
    other.
    """
    from .spec import Job  # local: spec imports store, not runners

    return Job(
        kind="metrics",
        params=config_payload(config),
        label=label if label is not None else config.label,
    )


# --------------------------------------------------------------------- #
# Built-in runners
# --------------------------------------------------------------------- #

@register_runner("metrics")
def run_metrics_job(params: Mapping[str, object]) -> Dict[str, object]:
    """Simulate one configuration; result = RunMetrics fields.

    When the orchestrator supplies a checkpoint policy (``execute_job``
    sets it in the job context), the run snapshots to
    ``<checkpoint_dir>/<job_key>.ckpt`` every ``checkpoint_every``
    cycles, resumes from a valid existing snapshot (a SIGKILLed worker's
    partial progress), and deletes the snapshot on success.  The
    checkpoint-identity guarantee makes the resumed result bit-identical
    to an uninterrupted run, so caching semantics are unchanged.
    """
    config = config_from_payload(params)
    checkpoint_dir = _active_job.get("checkpoint_dir")
    if not checkpoint_dir:
        system = build_system(config)
        metrics = system.run()
        return asdict(metrics)

    from ..sim.checkpoint import (
        CheckpointError,
        load_checkpoint,
        save_checkpoint,
    )
    from ..sim.stats import RunMetrics

    path = Path(checkpoint_dir) / f"{_active_job.get('key', 'job')}.ckpt"
    system = None
    if path.exists():
        try:
            system = load_checkpoint(path)
        except CheckpointError:
            # Invalid snapshot (torn write from the crash itself):
            # discard it and start the job over.
            system = None
    if system is None:
        system = build_system(config)
    every = _active_job.get("checkpoint_every") or max(1, config.cycles // 4)

    def snapshot(cycle: int) -> bool:
        save_checkpoint(path, system)
        return False  # keep running

    system.simulator.run(
        max(0, config.cycles - system.simulator.cycle),
        checkpoint_every=every,
        on_checkpoint=snapshot,
    )
    metrics = RunMetrics.from_collector(
        system.stats, system.simulator.cycle, scheduler=system.subsystem
    )
    try:
        path.unlink()
    except OSError:
        pass
    return asdict(metrics)


@register_runner("fault-point")
def run_fault_point_job(params: Mapping[str, object]) -> Dict[str, object]:
    """One fault-sweep point, hung/unaccounted surfaced as failure."""
    from ..experiments import fault_sweep

    point = fault_sweep.run_fault_point(
        rate=params["rate"],
        cycles=params["cycles"],
        warmup=params["warmup"],
        seed=params["seed"],
        app=params["app"],
        drain_cycles=params["drain_cycles"],
    )
    result = asdict(point)
    reason = point.failure_reason()
    if reason is not None:
        raise JobFailure(reason, result)
    return result
