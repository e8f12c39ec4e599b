"""Metrics registry: counters, gauges, and histograms in one namespace.

The simulator accumulates ad-hoc counters all over the stack — per-link
flit counts on router outputs, buffer high-water marks, per-bank row
hit/miss tallies, MemMax thread wins.  The registry absorbs them behind
one queryable, dotted namespace (``noc.link.5.EAST.flits``,
``dram.bank3.row_hits``) so reports, exporters, and tests read a single
source instead of spelunking component attributes.

Metrics are created lazily and get-or-create by name;  requesting an
existing name with a different metric kind is an error (one name, one
meaning).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from ..sim.stats import percentile


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
    """Last-value metric with a convenience maximum tracker."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def track_max(self, value: float) -> None:
        """Keep the high-water mark of ``value`` (e.g. buffer occupancy)."""
        if value > self.value:
            self.value = value


class Histogram:
    """Sample distribution: streaming count/total/min/max plus raw samples."""

    __slots__ = ("name", "count", "total", "minimum", "maximum", "samples")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None
        self.samples: List[float] = []

    def record(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        self.samples.append(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        if not self.samples:
            raise ValueError(f"histogram {self.name!r} has no samples")
        return percentile(self.samples, q)


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """One queryable namespace of counters, gauges, and histograms."""

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

    def histogram(self, name: str) -> Histogram:
        return self._get_or_create(name, Histogram)  # type: ignore[return-value]

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

    def as_dict(self) -> Dict[str, Union[float, Dict[str, float]]]:
        """Flat snapshot: scalars for counters/gauges, summaries for
        histograms — the JSON-export form."""
        return self.snapshot()

    def snapshot(self) -> Dict[str, Union[float, Dict[str, float]]]:
        """Deterministic flat snapshot of the whole namespace.

        Key order is guaranteed: metric names sorted lexicographically,
        histogram summary fields in a fixed order — so ``json.dumps``
        of two snapshots of identical state is byte-identical no matter
        what order the metrics were registered or updated in.  JSONL
        telemetry, the Prometheus exposition, and the exporters all
        build on this guarantee, which is what lets stream and export
        output diff cleanly across runs.

        Histograms additionally report p50/p95/p99 when raw samples
        were kept.
        """
        snapshot: Dict[str, Union[float, Dict[str, float]]] = {}
        for name in self.names():
            metric = self._metrics[name]
            if isinstance(metric, Histogram):
                summary: Dict[str, float] = {
                    "count": float(metric.count),
                    "mean": metric.mean,
                }
                if metric.count:
                    summary["min"] = float(metric.minimum)  # type: ignore[arg-type]
                    summary["max"] = float(metric.maximum)  # type: ignore[arg-type]
                if metric.samples:
                    summary["p50"] = metric.percentile(50)
                    summary["p95"] = metric.percentile(95)
                    summary["p99"] = metric.percentile(99)
                snapshot[name] = summary
            else:
                snapshot[name] = metric.value
        return snapshot

    def render(self, prefix: str = "") -> str:
        """Human-readable table of the (optionally filtered) namespace."""
        lines = [f"{'metric':<44s} {'value':>12s}"]
        for name in self.names(prefix):
            metric = self._metrics[name]
            if isinstance(metric, Histogram):
                value = (
                    f"n={metric.count} mean={metric.mean:.1f}"
                    if metric.count else "n=0"
                )
                lines.append(f"{name:<44s} {value:>12s}")
            elif isinstance(metric, Gauge):
                lines.append(f"{name:<44s} {metric.value:>12.2f}")
            else:
                lines.append(f"{name:<44s} {metric.value:>12d}")
        return "\n".join(lines)
