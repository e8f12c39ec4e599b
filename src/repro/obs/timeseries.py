"""Time-resolved metrics: interval sampling into ring-buffered series.

Everything else in :mod:`repro.obs` is post-mortem — the registry,
tracer, and profiler report once, at end of run.  This module makes the
same counters *time-resolved*: a :class:`TimeSeriesSampler` snapshots a
:class:`SampleSource` every ``interval`` cycles and turns cumulative
counters into per-window deltas and rates (and latency series into
per-window p50/p95/p99), keeping the most recent windows in a fixed-size
ring buffer and handing each :class:`Sample` to an optional ``on_sample``
callback (the telemetry stream writer, usually).

The sampler is an ordinary simulator component speaking the *event*
dispatch contract (see :mod:`repro.sim.engine`):

* it arms the calendar wake-queue for each window boundary via
  ``event_wake_at``, so event dispatch still jumps idle gaps — a jump
  simply lands on the next window boundary — and sampling never forces
  per-cycle ticking;
* gaps that overshoot boundaries anyway (run-exit flushes, ``until``
  predicates, bulk skip accounting) are reported through
  ``on_cycles_skipped`` and emit one **coalesced** sample covering every
  window in the gap (``windows > 1``) instead of replaying them;
* it only *reads* counters, so enabling it at any interval leaves every
  simulated metric bit-identical — and when it is not attached, no
  sampling code exists on any hot path at all.

Wall-clock timestamps ride along on every sample (for cycles/sec in the
monitor) but are never part of simulated state.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from ..sim.stats import percentile


@dataclass(frozen=True)
class Sample:
    """One observation window's worth of metrics.

    ``cycle`` is the last simulated cycle the window covers; the window
    spans the half-open range ``(cycle - span, cycle]``.  ``windows`` is
    the number of nominal sampling intervals folded into this sample
    (``> 1`` means the simulator jumped a gap and the sample is
    coalesced); ``partial`` marks an end-of-run flush shorter than one
    full interval.
    """

    cycle: int
    span: int
    windows: int
    partial: bool
    #: Cumulative counter values at the window's end.
    totals: Dict[str, float]
    #: Counter increments over the window (``totals - previous totals``).
    deltas: Dict[str, float]
    #: Per-cycle rates (``deltas / span``).
    rates: Dict[str, float]
    #: Instantaneous gauge readings at the window's end.
    gauges: Dict[str, float]
    #: Per-latency-class window summaries: count/mean always, p50/p95/p99
    #: when the source keeps raw samples.
    latency: Dict[str, Dict[str, float]]
    #: Wall-clock seconds (``time.perf_counter`` domain) at emission —
    #: observability only, never simulated state.
    wall_s: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form (sorted keys for diffable streams)."""
        return {
            "cycle": self.cycle,
            "span": self.span,
            "windows": self.windows,
            "partial": self.partial,
            "totals": {k: self.totals[k] for k in sorted(self.totals)},
            "deltas": {k: self.deltas[k] for k in sorted(self.deltas)},
            "rates": {k: round(self.rates[k], 9) for k in sorted(self.rates)},
            "gauges": {k: self.gauges[k] for k in sorted(self.gauges)},
            "latency": {
                k: {f: self.latency[k][f] for f in sorted(self.latency[k])}
                for k in sorted(self.latency)
            },
            "wall_s": self.wall_s,
        }


class RingBuffer:
    """Fixed-capacity ring of the most recent samples (oldest evicted)."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._items: List[Sample] = []
        self._start = 0
        #: Total samples ever appended (evicted ones included).
        self.appended = 0

    def append(self, item: Sample) -> None:
        if len(self._items) < self.capacity:
            self._items.append(item)
        else:
            self._items[self._start] = item
            self._start = (self._start + 1) % self.capacity
        self.appended += 1

    @property
    def evicted(self) -> int:
        return self.appended - len(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self):
        n = len(self._items)
        for offset in range(n):
            yield self._items[(self._start + offset) % n]

    def last(self) -> Optional[Sample]:
        if not self._items:
            return None
        return self._items[(self._start - 1) % len(self._items)]

    def series(self, key: str, kind: str = "rates") -> List[float]:
        """One metric's values across the buffered windows, oldest first."""
        return [getattr(sample, kind).get(key, 0.0) for sample in self]


def window_percentiles(values: Sequence[float]) -> Dict[str, float]:
    """p50/p95/p99 of one window's latency samples (R-7, see
    :func:`repro.sim.stats.percentile`)."""
    return {
        name: percentile(values, q)
        for name, q in (("p50", 50.0), ("p95", 95.0), ("p99", 99.0))
    }


class SampleSource:
    """What the sampler reads every window.  Subclass or duck-type:

    * :meth:`counters` — cumulative, monotone scalars (diffed to rates);
    * :meth:`gauges` — instantaneous scalars (reported as-is);
    * :meth:`latency_series` — per-class objects exposing ``count``,
      ``total``, and (optionally populated) ``samples``.
    """

    def counters(self) -> Dict[str, float]:
        return {}

    def gauges(self) -> Dict[str, float]:
        return {}

    def latency_series(self) -> Mapping[str, object]:
        return {}


class SystemSampleSource(SampleSource):
    """The :class:`~repro.core.system.SocSystem` adapter.

    Reads only counters the system already maintains — no registry is
    built, no component is perturbed — so a sample costs a handful of
    attribute reads and one small dict.
    """

    def __init__(self, system) -> None:
        self.system = system

    def counters(self) -> Dict[str, float]:
        system = self.system
        stats = system.stats
        out = {
            "requests.completed": float(stats.all_packets.count),
            "requests.demand_completed": float(stats.demand_packets.count),
            "dram.busy_cycles": float(stats.busy_cycles),
            "dram.useful_beats": float(stats.useful_beats),
            "dram.wasted_beats": float(stats.wasted_beats),
            "dram.row_hits": float(stats.row_hits),
            "dram.row_misses": float(stats.row_misses),
            "dram.commands": float(system.device.issued_commands),
            "ni.injected": float(
                sum(i.injected_packets for i in system.core_interfaces)
            ),
            "ni.memory.admitted": float(system.memory_interface.admitted),
            "ni.memory.responses": float(system.memory_interface.responses_sent),
        }
        resilience = system.resilience
        if resilience is not None:
            out["resilience.injected"] = float(resilience.injected_total)
            out["resilience.recovered"] = float(resilience.recovered)
            out["resilience.failed_requests"] = float(
                resilience.failed_requests
            )
        return out

    def gauges(self) -> Dict[str, float]:
        system = self.system
        return {
            "noc.in_flight_packets": float(system.network.in_flight_packets),
            "sim.fast_forwarded_cycles": float(
                system.simulator.fast_forwarded_cycles
            ),
        }

    def latency_series(self) -> Mapping[str, object]:
        stats = self.system.stats
        return {"all": stats.all_packets, "demand": stats.demand_packets}


class TimeSeriesSampler:
    """Interval sampler as a first-class wake-queue client.

    Register with ``simulator.add(sampler)`` *after* the system's other
    components so each sample observes end-of-cycle state.  The engine
    also treats it as a run listener (``on_run_start``/``on_run_end``),
    which is how partial trailing windows get flushed at every
    :meth:`~repro.sim.engine.Simulator.run` exit.
    """

    def __init__(
        self,
        source: SampleSource,
        interval: int,
        capacity: int = 512,
        on_sample: Optional[Callable[[Sample], None]] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError("sampling interval must be positive")
        self.source = source
        self.interval = interval
        self.samples = RingBuffer(capacity)
        self.on_sample = on_sample
        self._clock = clock if clock is not None else time.perf_counter
        #: Next window-boundary cycle (the cycle whose tick emits).
        self._next = interval - 1
        #: Last cycle already covered by an emitted sample.
        self._covered = -1
        self._baseline: Optional[Dict[str, float]] = None
        self._latency_counts: Dict[str, int] = {}
        self._latency_totals: Dict[str, float] = {}
        self._latency_seen: Dict[str, int] = {}
        #: Total samples emitted (coalesced gaps count once).
        self.emitted = 0

    def __getstate__(self):
        """Emission plumbing is process-local and never serialized: the
        ``on_sample`` callback usually holds an open telemetry stream and
        ``_clock`` may be any local callable.  Counter state (windows,
        baselines, ring buffer) round-trips, so a restored run samples on
        the same boundaries — re-attach a writer before resuming if live
        emission should continue."""
        state = self.__dict__.copy()
        state["on_sample"] = None
        state["_clock"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._clock = time.perf_counter

    # ------------------------------------------------------------------ #
    # Simulator contract
    # ------------------------------------------------------------------ #

    def tick(self, cycle: int) -> None:
        if cycle >= self._next:
            self._catch_up(cycle)

    def event_wake_at(self, cycle: int) -> Optional[int]:
        return self._next if self._next > cycle else cycle + 1

    def on_cycles_skipped(self, start: int, stop: int) -> None:
        """Account a never-ticked gap ``[start, stop)``: any window
        boundaries inside it collapse into one coalesced sample."""
        if stop - 1 >= self._next:
            self._catch_up(stop - 1)

    def on_run_start(self, cycle: int) -> None:
        # Capture the counter baseline lazily so attach order (and any
        # pre-run warm state) is irrelevant.
        if self._baseline is None:
            self._ensure_baseline()

    def on_run_end(self, cycle: int) -> None:
        """Flush the trailing partial window at every run exit."""
        self.flush(cycle)

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #

    def _ensure_baseline(self) -> None:
        self._baseline = dict(self.source.counters())
        for name, series in self.source.latency_series().items():
            self._latency_counts[name] = series.count
            self._latency_totals[name] = float(series.total)
            self._latency_seen[name] = len(getattr(series, "samples", ()))

    def _catch_up(self, now: int) -> None:
        """Emit every sample due at or before ``now`` as one record.

        ``now >= self._next`` must hold.  When more than one boundary
        passed (a jumped gap), the boundaries coalesce into a single
        sample whose ``windows`` counts them.
        """
        windows = (now - self._next) // self.interval + 1
        boundary = self._next + (windows - 1) * self.interval
        self._emit(boundary, windows, partial=False)
        self._next = boundary + self.interval

    def flush(self, cycle: int) -> Optional[Sample]:
        """Emit a final sub-interval sample covering ``(_covered, cycle-1]``
        if any cycles elapsed since the last emission; no-op otherwise."""
        end = cycle - 1
        if end <= self._covered:
            return None
        if end >= self._next:
            self._catch_up(end)
        if end > self._covered:
            return self._emit(end, windows=0, partial=True)
        return self.samples.last()

    def _emit(self, end: int, windows: int, partial: bool) -> Sample:
        if self._baseline is None:
            self._ensure_baseline()
        span = end - self._covered
        counters = self.source.counters()
        baseline = self._baseline
        deltas = {
            name: value - baseline.get(name, 0.0)
            for name, value in counters.items()
        }
        rates = {name: delta / span for name, delta in deltas.items()}
        latency: Dict[str, Dict[str, float]] = {}
        for name, series in self.source.latency_series().items():
            count = series.count - self._latency_counts.get(name, 0)
            total = float(series.total) - self._latency_totals.get(name, 0.0)
            summary: Dict[str, float] = {
                "count": float(count),
                "mean": total / count if count else 0.0,
            }
            raw = getattr(series, "samples", None)
            seen = self._latency_seen.get(name, 0)
            if raw is not None and len(raw) > seen:
                summary.update(window_percentiles(raw[seen:]))
            latency[name] = summary
            self._latency_counts[name] = series.count
            self._latency_totals[name] = float(series.total)
            self._latency_seen[name] = len(raw) if raw is not None else 0
        sample = Sample(
            cycle=end,
            span=span,
            windows=windows,
            partial=partial,
            totals=counters,
            deltas=deltas,
            rates=rates,
            gauges=dict(self.source.gauges()),
            latency=latency,
            wall_s=self._clock(),
        )
        self._baseline = counters
        self._covered = end
        self.samples.append(sample)
        self.emitted += 1
        if self.on_sample is not None:
            self.on_sample(sample)
        return sample
