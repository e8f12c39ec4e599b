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
records request completions plus the data-bus occupancy of every burst.
The denominator, total cycles, is read from the run's clock (the system's
:class:`~repro.sim.engine.Simulator`), not counted: every cycle elapses
whether or not any component was ticked for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence


#: The reported quantiles, by name: every latency summary (the registry
#: snapshot, the Prometheus exposition, the sampler's windows, ``repro
#: run --percentiles`` and the tail-latency report) carries these.
QUANTILES = (("p50", 50.0), ("p95", 95.0), ("p99", 99.0))


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) of ``samples``, with linear
    interpolation between closest ranks (the numpy/R-7 default).

    The one estimator behind every reported percentile:
    :meth:`LatencySeries.percentile` and :func:`quantiles`.
    """
    if not 0 <= q <= 100:
        raise ValueError("percentile must be within [0, 100]")
    if not samples:
        raise ValueError("percentile of no samples")
    return _interpolate(sorted(samples), q)


def quantiles(samples: Sequence[float]) -> Dict[str, float]:
    """The :data:`QUANTILES` of ``samples``, by :func:`percentile`'s
    estimator, sorting the samples once."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    return {name: _interpolate(ordered, q) for name, q in QUANTILES}


def _interpolate(ordered: Sequence[float], q: float) -> float:
    rank = q / 100 * (len(ordered) - 1)
    lower = int(rank)
    fraction = rank - lower
    if fraction == 0.0:
        return float(ordered[lower])
    return ordered[lower] + (ordered[lower + 1] - ordered[lower]) * fraction


@dataclass
class LatencySeries:
    """Running latency statistics for one request class.

    The one latency-distribution type: a
    :class:`~repro.obs.metrics.MetricsRegistry` publishes a series by
    reference, and the telemetry sampler reads its windows from one.
    """

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
    not bias the averages.  ``clock`` is anything with a ``cycle``
    attribute, normally the system's simulator; without one no cycle has
    been observed.
    """

    def __init__(
        self, warmup: int = 0, keep_samples: bool = False, clock=None
    ) -> None:
        if warmup < 0:
            raise ValueError("warmup must be non-negative")
        self.warmup = warmup
        self.clock = clock
        self.all_packets = LatencySeries(keep_samples=keep_samples)
        self.demand_packets = LatencySeries(keep_samples=keep_samples)
        self.per_master: Dict[int, LatencySeries] = {}
        self.keep_samples = keep_samples
        # Data-bus activity, in cycles.
        self.busy_cycles = 0        # bus transferring anything at all
        self.useful_cycles = 0.0    # fraction of each busy cycle moving requested beats
        self.wasted_beats = 0
        self.useful_beats = 0
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

    def record_burst(
        self, data_start: int, useful_beats: int, burst_beats: int
    ) -> None:
        """Record a burst of ``burst_beats`` beats on the data bus from
        cycle ``data_start``, of which ``useful_beats`` were requested by
        a core.

        The bus moves two beats per cycle, useful ones first, so the burst
        is busy for ceil(beats / 2) cycles and each cycle is 0, 1/2 or 1
        useful: the useful-cycle sum is a multiple of 1/2, exact in a
        float.  Only bus cycles at or after warm-up are counted.
        """
        if burst_beats <= 0:
            raise ValueError("burst must transfer at least one beat")
        if not 0 <= useful_beats <= burst_beats:
            raise ValueError("useful beats out of range")
        early = self.warmup - data_start
        if early > 0:
            # Drop the bus cycles before warm-up, two beats each.
            burst_beats -= 2 * early
            if burst_beats <= 0:
                return
            useful_beats = max(0, useful_beats - 2 * early)
        busy = (burst_beats + 1) >> 1
        self.busy_cycles += busy
        self.useful_beats += useful_beats
        self.wasted_beats += burst_beats - useful_beats
        # A fully useful odd burst ends on a one-beat cycle that is whole.
        if useful_beats == burst_beats:
            self.useful_cycles += busy
        else:
            self.useful_cycles += useful_beats / 2

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
    def observed_cycles(self) -> int:
        """Cycles elapsed on the clock since warm-up."""
        clock = self.clock
        if clock is None:
            return 0
        return max(0, clock.cycle - self.warmup)

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
            series = scheduler.service_latency
            if series.count:
                service_p100 = series.p100
            bound = scheduler.latency_bound()
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
