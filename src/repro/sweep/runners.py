"""Job runners: what a worker process executes for each job kind.

A runner is a plain function ``params -> result dict`` registered under
a job *kind*; the orchestrator sends ``(kind, params)`` to a worker
process (or runs it in-process with one worker), which looks the runner
up in :data:`JOB_RUNNERS` and executes it once.  Both sides of the
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
text and traceback.  A job is never retried or resumed mid-run: the
simulator is deterministic, so a re-run reproduces a failure.  A job
whose worker died is failed but not stored.  The result store is the
only recovery state: ``repro sweep --resume`` runs the jobs it lacks,
a dead worker's job among them, and ``--retry-failed`` the jobs it
holds as failed.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Callable, Dict, Mapping, Optional

from ..core.system import build_system
from ..resilience.faults import FaultConfig, FaultSite, ScheduledFault
from ..sim.config import DdrGeneration, NocDesign, SystemConfig


class JobFailure(Exception):
    """A runner-reported failure, optionally with a partial result."""

    def __init__(
        self, error: str, result: Optional[Mapping[str, object]] = None
    ) -> None:
        super().__init__(error)
        self.error = error
        self.result = dict(result) if result is not None else None


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
    """Simulate one configuration; result = RunMetrics fields."""
    return asdict(build_system(config_from_payload(params)).run())


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
