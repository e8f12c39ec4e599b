"""Experiment runner: simulate configurations and aggregate metrics.

The paper simulates each configuration for one million cycles of Verilog
RTL; a pure-Python cycle-level model is ~10^3x slower, so the default here
is 20 000 cycles with a 3 000-cycle warmup, optionally averaged over
several workload seeds.  The reported metrics are time-averages that are
stable well below that horizon; ``EXPERIMENTS.md`` records the residual
run-to-run spread.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Mapping, Optional, Sequence

from ..sim.config import SystemConfig
from ..sim.stats import RunMetrics
from ..sweep import Job, SweepReport, metrics_job, run_sweep

#: Default experiment horizon (cycles) and warmup.
DEFAULT_CYCLES = 20_000
DEFAULT_WARMUP = 3_000
DEFAULT_SEEDS = (2010, 2011)

#: How an exhibit resolves its jobs: :func:`run_sweep` or a partial of it.
SweepFn = Callable[[Sequence[Job]], SweepReport]


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


def experiment_config(
    cycles: Optional[int] = None,
    warmup: Optional[int] = None,
    **fields,
) -> SystemConfig:
    """A SystemConfig with the experiment-default horizon applied to
    ``cycles``/``warmup`` left unset or ``None``."""
    return SystemConfig(
        cycles=DEFAULT_CYCLES if cycles is None else cycles,
        warmup=DEFAULT_WARMUP if warmup is None else warmup,
        **fields,
    )


def run_cells(
    cells: Sequence[SystemConfig],
    seeds: Iterable[int] = DEFAULT_SEEDS,
    sweep: SweepFn = run_sweep,
    labels: Optional[Sequence[str]] = None,
) -> List[AveragedMetrics]:
    """Simulate every cell once per seed and average each cell's runs.

    The whole grid is one ``sweep`` call with one ``metrics`` job per
    (cell, seed), so a caller chooses where the runs come from: the
    default simulates in-process against a memory-only store, and
    ``repro all`` passes a store-backed sweep, so exhibits and
    ``repro sweep`` share one cache.  Each cell's runs are averaged in
    seed order.  ``labels`` names the cells in job labels (default: the
    configuration label).
    """
    seeds = list(seeds)
    if labels is None:
        labels = [config.label for config in cells]
    jobs = [
        metrics_job(config.with_(seed=seed), label=f"{label}/seed={seed}")
        for config, label in zip(cells, labels)
        for seed in seeds
    ]
    results = iter(_sweep_results(sweep, jobs))
    return [
        AveragedMetrics.from_runs([RunMetrics(**next(results)) for _ in seeds])
        for _ in cells
    ]


def _sweep_results(
    sweep: SweepFn, jobs: Sequence[Job]
) -> List[Mapping[str, object]]:
    """Resolve ``jobs`` with one ``sweep`` call; their results, in order.

    A failed job that still carries a result (a hung fault point) yields
    it.  A job that left none raises, naming the job and carrying its
    recorded error and traceback.
    """
    report = sweep(jobs)
    records = {outcome.job.key: outcome.record for outcome in report.outcomes}
    results = []
    for job in jobs:
        record = records.get(job.key)
        if record is None:
            raise RuntimeError(f"job {job.label!r} was never run")
        if record.get("result") is None:
            raise RuntimeError(
                f"job {job.label!r} failed: {record.get('error')}\n"
                f"{record.get('traceback') or ''}".rstrip()
            )
        results.append(record["result"])
    return results
