"""Sharded sweep orchestration with a content-addressed result store.

The layer between "one simulation" and "an experiment service":
declarative parameter grids (:class:`SweepSpec`) expand into
fully-resolved :class:`Job` objects, a multiprocess orchestrator
(:func:`run_sweep`) shards them across worker processes with per-point
failure containment, and every outcome lands in a persistent
:class:`ResultStore` under a content-addressed key — so repeated points
are never simulated twice and interrupted sweeps resume for free.

See ``docs/ARCHITECTURE.md`` (Sweep orchestration) for the job
lifecycle, seed derivation, and cache-key composition.
"""

from .._lazy import lazy_exports

# Resolved on first use, so the orchestrator's multiprocessing and the
# store's logging load only in processes that run a sweep.
__getattr__, __dir__ = lazy_exports(globals(), {
    ".grids": ("config_grid_spec",),
    ".orchestrator": ("JobOutcome", "ProgressPrinter", "SweepReport",
                      "execute_job", "run_sweep"),
    ".runners": ("JOB_RUNNERS", "JobFailure", "config_from_payload",
                 "config_payload", "metrics_job", "register_runner"),
    ".spec": ("Job", "SweepSpec", "dedupe"),
    ".store": ("SCHEMA_VERSION", "ResultStore", "job_key", "make_record"),
})

__all__ = [
    "JOB_RUNNERS",
    "Job",
    "JobFailure",
    "JobOutcome",
    "ProgressPrinter",
    "ResultStore",
    "SCHEMA_VERSION",
    "SweepReport",
    "SweepSpec",
    "config_from_payload",
    "config_grid_spec",
    "config_payload",
    "dedupe",
    "execute_job",
    "job_key",
    "make_record",
    "metrics_job",
    "register_runner",
    "run_sweep",
]
