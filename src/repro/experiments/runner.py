"""Experiment runner: simulate configurations and aggregate metrics.

The paper simulates each configuration for one million cycles of Verilog
RTL; a pure-Python cycle-level model is ~10^3x slower, so the default here
is 20 000 cycles with a 3 000-cycle warmup, optionally averaged over
several workload seeds.  The reported metrics are time-averages that are
stable well below that horizon; ``EXPERIMENTS.md`` records the residual
run-to-run spread.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Iterable, List, Optional, Sequence

from ..core.system import build_system
from ..sim.config import SystemConfig
from ..sim.stats import RunMetrics

#: Default experiment horizon (cycles) and warmup.
DEFAULT_CYCLES = 20_000
DEFAULT_WARMUP = 3_000
DEFAULT_SEEDS = (2010, 2011)


@dataclass(frozen=True)
class AveragedMetrics:
    """Seed-averaged metrics for one configuration.

    The WCET pair aggregates by *max*, not mean: ``service_p100`` is the
    worst service latency observed across the seeds, and ``wcet_bound``
    the largest analytic bound any seed reported (``None`` when the
    backend has no bound) — a bound that held per-seed must hold for the
    maxima too, so the pair stays directly comparable.
    """

    utilization: float
    raw_utilization: float
    latency_all: float
    latency_demand: float
    completed: float
    row_hit_rate: float
    runs: int
    service_p100: float = 0.0
    wcet_bound: Optional[float] = None

    @classmethod
    def from_runs(cls, runs: Sequence[RunMetrics]) -> "AveragedMetrics":
        if not runs:
            raise ValueError("no runs to average")
        n = len(runs)
        bounds = [r.wcet_bound for r in runs if r.wcet_bound is not None]
        return cls(
            utilization=sum(r.utilization for r in runs) / n,
            raw_utilization=sum(r.raw_utilization for r in runs) / n,
            latency_all=sum(r.latency_all for r in runs) / n,
            latency_demand=sum(r.latency_demand for r in runs) / n,
            completed=sum(r.completed for r in runs) / n,
            row_hit_rate=sum(r.row_hit_rate for r in runs) / n,
            runs=n,
            service_p100=max((r.service_p100 for r in runs), default=0.0),
            wcet_bound=max(bounds) if bounds else None,
        )


#: When set (via :func:`cached_runs`), every :func:`run_once` consults
#: this content-addressed store before simulating — the seam that makes
#: a second ``repro all`` near-instant.
_ACTIVE_STORE = None


@contextmanager
def cached_runs(store):
    """Serve :func:`run_once` from ``store`` within the block.

    ``store`` is a :class:`repro.sweep.store.ResultStore`; results are
    addressed by the same ``metrics``-job key the sweep orchestrator
    uses, so exhibits and sweeps share one cache.  Metrics round-trip
    through JSON exactly (Python floats are repr-round-trip stable), so
    a cache hit is bit-identical to a fresh simulation.
    """
    global _ACTIVE_STORE
    previous = _ACTIVE_STORE
    _ACTIVE_STORE = store
    try:
        yield store
    finally:
        _ACTIVE_STORE = previous


def active_store():
    """The store :func:`run_once` currently consults, if any."""
    return _ACTIVE_STORE


def run_once(config: SystemConfig) -> RunMetrics:
    """Build and simulate one configuration.

    Inside a :func:`cached_runs` block, a configuration whose result is
    already stored is served from the store without simulating; a fresh
    result is stored on the way out.
    """
    store = _ACTIVE_STORE
    if store is None:
        return build_system(config).run()
    # Imported lazily: repro.sweep imports this module for the
    # experiment defaults.
    from ..sweep.runners import metrics_job
    from ..sweep.store import make_record

    job = metrics_job(config)
    record = store.get(job.key)
    if record is not None and record.get("status") == "ok":
        return RunMetrics(**record["result"])
    started = time.perf_counter()
    system = build_system(config)
    metrics = system.run()
    store.put(
        make_record(
            job,
            status="ok",
            result=asdict(metrics),
            elapsed_s=time.perf_counter() - started,
        )
    )
    return metrics


def run_averaged(
    config: SystemConfig,
    seeds: Iterable[int] = DEFAULT_SEEDS,
) -> AveragedMetrics:
    """Run ``config`` once per seed and average the headline metrics."""
    runs: List[RunMetrics] = []
    for seed in seeds:
        runs.append(run_once(config.with_(seed=seed)))
    return AveragedMetrics.from_runs(runs)


def experiment_config(**overrides) -> SystemConfig:
    """A SystemConfig with the experiment-default horizon applied."""
    overrides.setdefault("cycles", DEFAULT_CYCLES)
    overrides.setdefault("warmup", DEFAULT_WARMUP)
    return SystemConfig(**overrides)
