"""Latency and utilization accounting.

The paper reports three metrics per configuration (Tables I–III, Fig. 8):

* **memory utilization** — clock cycles spent transferring *useful* data on
  the SDRAM data bus divided by total simulated cycles (Section I defines it
  as "the number of clock cycles used for data transfer divided by the number
  of total clock cycles"; we additionally separate useful beats from
  granularity-mismatch waste so SAGM's benefit is measurable);
* **memory latency of all packets** — average request-to-completion latency;
* **memory latency of demand/priority packets** — same, restricted to the
  demand class.

A single :class:`StatsCollector` instance is threaded through the system and
records request completions plus per-cycle bus activity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) of ``samples``, with linear
    interpolation between closest ranks (the numpy/R-7 default).

    The one estimator behind every reported percentile:
    :meth:`LatencySeries.percentile`, the metrics registry's histograms
    and the sampler's per-window p50/p95/p99.
    """
    if not 0 <= q <= 100:
        raise ValueError("percentile must be within [0, 100]")
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = q / 100 * (len(ordered) - 1)
    lower = int(rank)
    fraction = rank - lower
    if fraction == 0.0:
        return float(ordered[lower])
    return ordered[lower] + (ordered[lower + 1] - ordered[lower]) * fraction


@dataclass
class LatencySeries:
    """Running latency statistics for one request class."""

    count: int = 0
    total: int = 0
    maximum: int = 0
    minimum: int = 0
    samples: List[int] = field(default_factory=list)
    keep_samples: bool = False

    def record(self, latency: int) -> None:
        if latency < 0:
            raise ValueError(f"negative latency {latency}")
        if self.count == 0 or latency < self.minimum:
            self.minimum = latency
        self.count += 1
        self.total += latency
        if latency > self.maximum:
            self.maximum = latency
        if self.keep_samples:
            self.samples.append(latency)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def p100(self) -> float:
        """Exact observed worst case.  Served from the O(1) running
        maximum, so it is available whether or not samples were kept and
        never under-reports through rank rounding — the WCET column reads
        this, not ``percentile(100)``."""
        return float(self.maximum)

    @property
    def p0(self) -> float:
        """Exact observed best case (running minimum)."""
        return float(self.minimum)

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0-100) of recorded latencies, by the
        module's :func:`percentile` estimator (R-7).

        ``q == 0`` and ``q == 100`` are served exactly from the running
        minimum/maximum — no rank arithmetic, no ``keep_samples``
        requirement — so the extremes cannot be under-reported.  Interior
        quantiles need ``keep_samples=True``; the paper reports means, but
        tail latency is what a real-time core actually provisions for.
        """
        if not 0 <= q <= 100:
            raise ValueError("percentile must be within [0, 100]")
        if self.count and q == 100:
            return self.p100
        if self.count and q == 0:
            return self.p0
        if not self.keep_samples:
            raise RuntimeError("series was created without keep_samples")
        if not self.samples:
            raise ValueError(
                "percentile of an empty series: no latencies recorded "
                "(check warmup vs. run length, or whether the class ever "
                "completed)"
            )
        return percentile(self.samples, q)


class StatsCollector:
    """Accumulates latency and SDRAM data-bus activity for one run.

    ``warmup`` cycles at the start of the run are excluded from every
    statistic so that cold-start transients (empty buffers, closed banks) do
    not bias the averages.
    """

    def __init__(self, warmup: int = 0, keep_samples: bool = False) -> None:
        if warmup < 0:
            raise ValueError("warmup must be non-negative")
        self.warmup = warmup
        self.all_packets = LatencySeries(keep_samples=keep_samples)
        self.demand_packets = LatencySeries(keep_samples=keep_samples)
        self.per_master: Dict[int, LatencySeries] = {}
        self.keep_samples = keep_samples
        # Data-bus activity, in cycles.
        self.busy_cycles = 0        # bus transferring anything at all
        self.useful_cycles = 0.0    # fraction of each busy cycle moving requested beats
        self.wasted_beats = 0
        self.useful_beats = 0
        self.observed_cycles = 0
        # Command-bus activity (for ablations / command congestion analysis).
        self.commands_issued: Dict[str, int] = {}
        self.row_hits = 0
        self.row_misses = 0
        self.bank_conflict_precharges = 0
        # Per-bank (hits, misses) tallies, keyed by bank index.
        self.per_bank_rows: Dict[int, List[int]] = {}

    # ------------------------------------------------------------------ #
    # Request completion
    # ------------------------------------------------------------------ #

    def record_completion(
        self,
        cycle: int,
        issued_cycle: int,
        master: int,
        is_demand: bool,
    ) -> None:
        """Record a completed memory request.

        ``is_demand`` flags CPU demand requests — the class the paper tracks
        separately (served as priority packets in Table II / Fig. 8(c)).
        """
        if issued_cycle < self.warmup:
            return
        latency = cycle - issued_cycle
        self.all_packets.record(latency)
        if is_demand:
            self.demand_packets.record(latency)
        series = self.per_master.get(master)
        if series is None:
            series = self.per_master[master] = LatencySeries(
                keep_samples=self.keep_samples
            )
        series.record(latency)

    # ------------------------------------------------------------------ #
    # SDRAM bus activity
    # ------------------------------------------------------------------ #

    def record_bus_cycle(self, cycle: int, useful_beats: int, total_beats: int) -> None:
        """Record one data-bus-busy cycle transferring ``total_beats`` beats,
        of which ``useful_beats`` were actually requested by a core."""
        if cycle < self.warmup:
            return
        if total_beats <= 0:
            raise ValueError("bus cycle must transfer at least one beat")
        if not 0 <= useful_beats <= total_beats:
            raise ValueError("useful beats out of range")
        self.busy_cycles += 1
        self.useful_cycles += useful_beats / total_beats
        self.useful_beats += useful_beats
        self.wasted_beats += total_beats - useful_beats

    def record_idle_cycle(self, cycle: int) -> None:
        """Record that ``cycle`` elapsed (whether or not the bus was busy)."""
        if cycle < self.warmup:
            return
        self.observed_cycles += 1

    def record_idle_cycles(self, start: int, stop: int) -> None:
        """Bulk form of :meth:`record_idle_cycle` for the half-open range
        ``[start, stop)`` — used for cycles event dispatch never ticked the
        device for, so the utilization denominator stays exactly what
        per-cycle accounting would have produced."""
        self.observed_cycles += max(0, stop - max(start, self.warmup))

    def record_command(self, cycle: int, kind: str) -> None:
        if cycle < self.warmup:
            return
        self.commands_issued[kind] = self.commands_issued.get(kind, 0) + 1

    def record_row_outcome(
        self, cycle: int, hit: bool, bank: Optional[int] = None
    ) -> None:
        if cycle < self.warmup:
            return
        if hit:
            self.row_hits += 1
        else:
            self.row_misses += 1
        if bank is not None:
            tally = self.per_bank_rows.get(bank)
            if tally is None:
                tally = self.per_bank_rows[bank] = [0, 0]
            tally[0 if hit else 1] += 1

    # ------------------------------------------------------------------ #
    # Derived metrics
    # ------------------------------------------------------------------ #

    @property
    def utilization(self) -> float:
        """Useful-data utilization: requested beats moved / bus capacity."""
        if self.observed_cycles == 0:
            return 0.0
        return self.useful_cycles / self.observed_cycles

    @property
    def raw_utilization(self) -> float:
        """Bus-occupancy utilization, counting wasted (overfetched) beats."""
        if self.observed_cycles == 0:
            return 0.0
        return self.busy_cycles / self.observed_cycles

    @property
    def mean_latency(self) -> float:
        return self.all_packets.mean

    @property
    def mean_demand_latency(self) -> float:
        return self.demand_packets.mean

    @property
    def row_hit_rate(self) -> float:
        total = self.row_hits + self.row_misses
        return self.row_hits / total if total else 0.0

    def summary(self) -> Dict[str, float]:
        """Flat dict of the headline metrics, for reports and tests."""
        return {
            "utilization": self.utilization,
            "raw_utilization": self.raw_utilization,
            "latency_all": self.mean_latency,
            "latency_demand": self.mean_demand_latency,
            "completed": float(self.all_packets.count),
            "row_hit_rate": self.row_hit_rate,
        }


@dataclass
class RunMetrics:
    """Frozen snapshot of one simulation run's headline metrics.

    ``service_p100`` / ``wcet_bound`` carry the memory-arbiter WCET
    column: the measured worst-case service latency (admission → final
    data beat, from the scheduler's always-on series) and the backend's
    analytic bound when it has one.  Both default empty so records cached
    before the scheduler seam still round-trip through
    ``RunMetrics(**payload)``.
    """

    utilization: float
    raw_utilization: float
    latency_all: float
    latency_demand: float
    completed: int
    row_hit_rate: float
    cycles: int
    service_p100: float = 0.0
    wcet_bound: Optional[float] = None

    @classmethod
    def from_collector(
        cls,
        stats: StatsCollector,
        cycles: int,
        scheduler=None,
    ) -> "RunMetrics":
        service_p100 = 0.0
        wcet_bound: Optional[float] = None
        if scheduler is not None:
            series = getattr(scheduler, "service_latency", None)
            if series is not None and series.count:
                service_p100 = series.p100
            bound_fn = getattr(scheduler, "latency_bound", None)
            if bound_fn is not None:
                bound = bound_fn()
                if bound is not None:
                    wcet_bound = float(bound)
        return cls(
            utilization=stats.utilization,
            raw_utilization=stats.raw_utilization,
            latency_all=stats.mean_latency,
            latency_demand=stats.mean_demand_latency,
            completed=stats.all_packets.count,
            row_hit_rate=stats.row_hit_rate,
            cycles=cycles,
            service_p100=service_p100,
            wcet_bound=wcet_bound,
        )
