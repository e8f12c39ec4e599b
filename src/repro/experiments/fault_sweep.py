"""Fault-rate sweep: resilience cost on the paper's headline metrics.

Sweeps the uniform fault rate (see
:meth:`repro.resilience.faults.FaultConfig.uniform`) over several decades
on one operating point and reports how SDRAM utilization and memory
latency degrade as the CRC/retry, ECC, and watchdog machinery absorbs
the faults — together with the fault ledger proving that every injected
fault was corrected, recovered, or surfaced as a failed request (the
``unresolved`` column must read zero; a run that cannot drain to
quiescence is reported as hung, with the rate and the drain budget it
exhausted).

The zero-rate row doubles as the control: with ``faults=None`` the
resilience machinery is not even built, so that row is bit-identical to
the plain system and any difference against it is attributable to the
faults, not the instrumentation.

:func:`run_fault_sweep` resolves one ``fault-point`` job per (seed,
rate) through a sweep callable; the job runner
(:mod:`repro.sweep.runners`) executes :func:`run_fault_point`.  ``repro
faults`` resolves them in-process, ``repro sweep fault`` shards them and
keeps them in the result store.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from ..core.system import build_system
from ..resilience.faults import FaultConfig
from ..sweep import Job, run_sweep
from .runner import SweepFn, _sweep_results, experiment_config

#: Default sweep: clean control plus three decades of fault rate.
FAULT_SWEEP_RATES = (0.0, 1e-4, 1e-3, 1e-2)

#: Cycle budget for post-run drain to quiescence.
DRAIN_CYCLES = 50_000


@dataclass(frozen=True)
class FaultSweepPoint:
    """One fault rate's outcome."""

    rate: float
    utilization: float
    latency_all: float
    completed: int
    injected: int
    corrected: int
    recovered: int
    failed_faults: int
    unresolved: int
    crc_retries: int
    dram_rereads: int
    watchdog_reissues: int
    failed_requests: int
    quiesced: bool
    #: The drain budget this point was given (cycles); reported whenever
    #: the point hangs so the message says what was exhausted.
    drain_budget: int = DRAIN_CYCLES

    @property
    def accounted(self) -> bool:
        """Did the ledger resolve 100% of the injected faults?"""
        return self.unresolved == 0 and (
            self.injected
            == self.corrected + self.recovered + self.failed_faults
        )

    def failure_reason(self) -> Optional[str]:
        """Why this point counts as failed, or ``None`` if healthy.

        Hung points name the rate and the exhausted drain budget;
        unaccounted points name the rate and the ledger imbalance.
        """
        if not self.quiesced:
            return (
                f"rate={self.rate:g}: hung — did not drain to quiescence "
                f"within the {self.drain_budget}-cycle drain budget"
            )
        if not self.accounted:
            resolved = self.corrected + self.recovered + self.failed_faults
            return (
                f"rate={self.rate:g}: fault ledger unaccounted — "
                f"injected={self.injected} but "
                f"corrected+recovered+failed={resolved}, "
                f"unresolved={self.unresolved}"
            )
        return None


def run_fault_point(
    rate: float,
    cycles: Optional[int] = None,
    warmup: Optional[int] = None,
    seed: int = 2010,
    app: str = "single_dtv",
    drain_cycles: int = DRAIN_CYCLES,
) -> FaultSweepPoint:
    """Simulate one fault rate on the paper's default GSS+SAGM point."""
    faults = FaultConfig.uniform(rate) if rate > 0.0 else None
    config = experiment_config(
        app=app, seed=seed, faults=faults, cycles=cycles, warmup=warmup
    )
    system = build_system(config)
    metrics = system.run()
    quiesced = system.drain(drain_cycles)
    controller = system.resilience
    if controller is None:
        return FaultSweepPoint(
            rate=rate,
            utilization=metrics.utilization,
            latency_all=metrics.latency_all,
            completed=metrics.completed,
            injected=0, corrected=0, recovered=0,
            failed_faults=0, unresolved=0, crc_retries=0,
            dram_rereads=0, watchdog_reissues=0,
            failed_requests=0, quiesced=quiesced,
            drain_budget=drain_cycles,
        )
    return FaultSweepPoint(
        rate=rate,
        utilization=metrics.utilization,
        latency_all=metrics.latency_all,
        completed=metrics.completed,
        injected=controller.injected_total,
        corrected=controller.corrected,
        recovered=controller.recovered,
        failed_faults=controller.failed_faults,
        unresolved=controller.unresolved,
        crc_retries=controller.crc_retries,
        dram_rereads=controller.dram_reread_count,
        watchdog_reissues=controller.watchdog_reissues,
        failed_requests=controller.failed_requests,
        quiesced=quiesced,
        drain_budget=drain_cycles,
    )


def run_fault_sweep(
    rates: Iterable[float] = FAULT_SWEEP_RATES,
    cycles: Optional[int] = None,
    warmup: Optional[int] = None,
    seeds: Iterable[int] = (2010,),
    app: str = "single_dtv",
    drain_cycles: int = DRAIN_CYCLES,
    sweep: SweepFn = run_sweep,
) -> List[FaultSweepPoint]:
    """Run the sweep on the paper's default GSS+SAGM operating point.

    One ``fault-point`` job per (seed, rate), resolved in one ``sweep``
    call; the points come seed-major, each seed in rate order.  A hung
    or unaccounted point is a failed job that still carries its partial
    result, so it comes back as a point whose :meth:`failure_reason`
    says why.
    """
    rates = list(rates)
    horizon = experiment_config(app=app, cycles=cycles, warmup=warmup)
    base = {
        "app": app,
        "cycles": horizon.cycles,
        "warmup": horizon.warmup,
        "drain_cycles": drain_cycles,
    }
    jobs = [
        Job(
            kind="fault-point",
            params={**base, "seed": seed, "rate": rate},
            label=f"seed={seed},rate={rate}",
        )
        for seed in seeds
        for rate in rates
    ]
    return [
        FaultSweepPoint(**result) for result in _sweep_results(sweep, jobs)
    ]


def render(points: List[FaultSweepPoint]) -> str:
    lines = [
        "Fault-rate sweep — resilience cost on utilization and latency",
        f"{'rate':>8s} {'util':>7s} {'lat(all)':>9s} {'done':>6s} "
        f"{'inj':>6s} {'corr':>6s} {'recov':>6s} {'fail':>5s} "
        f"{'unres':>5s} {'retry':>6s} {'reread':>6s} {'failed-req':>10s}",
    ]
    for p in points:
        lines.append(
            f"{p.rate:>8g} {p.utilization:7.3f} {p.latency_all:9.1f} "
            f"{p.completed:>6d} {p.injected:>6d} {p.corrected:>6d} "
            f"{p.recovered:>6d} {p.failed_faults:>5d} {p.unresolved:>5d} "
            f"{p.crc_retries:>6d} {p.dram_rereads:>6d} "
            f"{p.failed_requests:>10d}"
            + ("" if p.quiesced else f"  [HUNG >{p.drain_budget}c]")
        )
    return "\n".join(lines)
