"""Time-resolved metrics: interval sampling into per-window records.

Everything else in :mod:`repro.obs` is post-mortem — the registry,
tracer, and profiler report once, at end of run.  This module makes the
same counters *time-resolved*: a :class:`TimeSeriesSampler` snapshots a
:class:`SampleSource` every ``interval`` cycles and turns cumulative
counters into per-window deltas and rates (and latency series into
per-window :data:`~repro.sim.stats.QUANTILES`), handing each
:class:`Sample` to an optional ``on_sample`` callback (the telemetry
stream writer, usually) and keeping only the last one.

The sampler is an ordinary simulator component speaking the *event*
dispatch contract (see :mod:`repro.sim.engine`):

* it arms the calendar wake-queue for each window boundary via
  ``event_wake_at``, so event dispatch still jumps idle gaps — a jump
  simply lands on the next window boundary, never past it — and sampling
  never forces per-cycle ticking;
* a tick or flush that lands past several boundaries (a sampler attached
  to a system that has already run) emits one **coalesced** sample
  covering every window passed (``windows > 1``) instead of replaying
  them;
* it only *reads* counters, so enabling it at any interval leaves every
  simulated metric bit-identical — and when it is not attached, no
  sampling code exists on any hot path at all.

Wall-clock timestamps ride along on every sample (for cycles/sec in the
monitor) but are never part of simulated state.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Tuple

from ..sim.stats import LatencySeries, quantiles


@dataclass(frozen=True)
class Sample:
    """One observation window's worth of metrics.

    ``cycle`` is the last simulated cycle the window covers; the window
    spans the half-open range ``(cycle - span, cycle]``.  ``windows`` is
    the number of nominal sampling intervals folded into this sample
    (``> 1`` means the sampler was ticked past several boundaries and the
    sample is coalesced); ``partial`` marks an end-of-run flush shorter
    than one full interval.
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
    #: Per-latency-class window summaries: count/mean always, the
    #: quantiles when the source keeps raw samples.
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


class SampleSource:
    """What the sampler reads every window.  Subclass or duck-type:

    * :meth:`counters` — cumulative, monotone scalars (diffed to rates);
    * :meth:`gauges` — instantaneous scalars (reported as-is);
    * :meth:`latency_series` — per-class
      :class:`~repro.sim.stats.LatencySeries` (or objects exposing its
      ``count``, ``total`` and, possibly empty, ``samples``).
    """

    def counters(self) -> Dict[str, float]:
        return {}

    def gauges(self) -> Dict[str, float]:
        return {}

    def latency_series(self) -> Mapping[str, LatencySeries]:
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

    def latency_series(self) -> Mapping[str, LatencySeries]:
        stats = self.system.stats
        return {"all": stats.all_packets, "demand": stats.demand_packets}


class TimeSeriesSampler:
    """Interval sampler as a first-class wake-queue client.

    Register with ``simulator.add(sampler)`` *after* the system's other
    components so each sample observes end-of-cycle state.  The counter
    baseline of the first window is taken at construction.  The engine
    also treats it as a run listener (``on_run_end``), which is how
    partial trailing windows get flushed at every
    :meth:`~repro.sim.engine.Simulator.run` exit.
    """

    def __init__(
        self,
        source: SampleSource,
        interval: int,
        on_sample: Optional[Callable[[Sample], None]] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError("sampling interval must be positive")
        self.source = source
        self.interval = interval
        self.on_sample = on_sample
        self._clock = clock if clock is not None else time.perf_counter
        #: Next window-boundary cycle (the cycle whose tick emits).
        self._next = interval - 1
        #: Last cycle already covered by an emitted sample.
        self._covered = -1
        #: Counter readings and per-class latency marks at the last
        #: emission (at construction before the first).
        self._baseline = dict(source.counters())
        self._marks = self._latency_marks()
        #: Total samples emitted (a coalesced sample counts once).
        self.emitted = 0
        #: The most recent sample emitted.
        self.last: Optional[Sample] = None

    def __getstate__(self):
        """Emission plumbing is process-local and never serialized: the
        ``on_sample`` callback usually holds an open telemetry stream and
        ``_clock`` may be any local callable.  Counter state (windows,
        baselines, the last sample) round-trips, so a restored run
        samples on the same boundaries — re-attach a writer before
        resuming if live emission should continue."""
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

    def on_run_end(self, cycle: int) -> None:
        """Flush the trailing partial window at every run exit."""
        self.flush(cycle)

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #

    def _latency_marks(self) -> Dict[str, Tuple[int, float, int]]:
        """Per class: completions, latency total and samples kept."""
        return {
            name: (series.count, float(series.total), len(series.samples))
            for name, series in self.source.latency_series().items()
        }

    def _catch_up(self, now: int) -> None:
        """Emit every sample due at or before ``now`` as one record.

        ``now >= self._next`` must hold.  When more than one boundary
        passed, the boundaries coalesce into a single sample whose
        ``windows`` counts them.
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
        return self.last

    def _emit(self, end: int, windows: int, partial: bool) -> Sample:
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
            count0, total0, seen = self._marks.get(name, (0, 0.0, 0))
            count = series.count - count0
            total = float(series.total) - total0
            summary: Dict[str, float] = {
                "count": float(count),
                "mean": total / count if count else 0.0,
            }
            if len(series.samples) > seen:
                summary.update(quantiles(series.samples[seen:]))
            latency[name] = summary
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
        self._marks = self._latency_marks()
        self._covered = end
        self.last = sample
        self.emitted += 1
        if self.on_sample is not None:
            self.on_sample(sample)
        return sample
