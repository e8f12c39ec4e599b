"""Metrics registry: counters, gauges, and latency series in one namespace.

The simulator accumulates ad-hoc counters all over the stack — per-link
flit counts on router outputs, buffer high-water marks, per-bank row
hit/miss tallies, MemMax thread wins.  The registry absorbs them behind
one queryable, dotted namespace (``noc.link.5.EAST.flits``,
``dram.bank3.row_hits``) so reports, exporters, and tests read a single
source instead of spelunking component attributes.

Counters and gauges are created lazily and get-or-create by name;
requesting an existing name with a different metric kind is an error
(one name, one meaning).  A latency distribution is not copied in: an
existing :class:`~repro.sim.stats.LatencySeries` is published under a
name and read by reference.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from ..sim.stats import LatencySeries, quantiles


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only increase")
        self.value += amount


class Gauge:
    """Last-value metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


Metric = Union[Counter, Gauge, LatencySeries]


class MetricsRegistry:
    """One queryable namespace of counters, gauges, and latency series."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def _get_or_create(self, name: str, kind) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = kind(name)
        elif not isinstance(metric, kind):
            raise ValueError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {kind.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)  # type: ignore[return-value]

    def publish(self, name: str, series: LatencySeries) -> LatencySeries:
        """Register ``series`` under ``name``.  The registry holds the
        series itself, so every later query reads its current state."""
        if name in self._metrics:
            raise ValueError(f"metric {name!r} already registered")
        self._metrics[name] = series
        return series

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def names(self, prefix: str = "") -> List[str]:
        """Registered metric names (optionally under a dotted prefix)."""
        return sorted(
            name for name in self._metrics
            if not prefix or name == prefix or name.startswith(prefix + ".")
        )

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def snapshot(self) -> Dict[str, Union[float, Dict[str, float]]]:
        """Deterministic flat snapshot of the whole namespace.

        Key order is guaranteed: metric names sorted lexicographically,
        latency summary fields in a fixed order — so ``json.dumps``
        of two snapshots of identical state is byte-identical no matter
        what order the metrics were registered or updated in.  JSONL
        telemetry, the Prometheus exposition, and the exporters all
        build on this guarantee, which is what lets stream and export
        output diff cleanly across runs.

        Latency series additionally report their
        :data:`~repro.sim.stats.QUANTILES` when raw samples were kept.
        """
        snapshot: Dict[str, Union[float, Dict[str, float]]] = {}
        for name in self.names():
            metric = self._metrics[name]
            if isinstance(metric, LatencySeries):
                summary: Dict[str, float] = {
                    "count": float(metric.count),
                    "mean": metric.mean,
                }
                if metric.count:
                    summary["min"] = float(metric.minimum)
                    summary["max"] = float(metric.maximum)
                if metric.samples:
                    summary.update(quantiles(metric.samples))
                snapshot[name] = summary
            else:
                snapshot[name] = metric.value
        return snapshot
