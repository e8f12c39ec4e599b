"""Post-run analysis: per-master latency, tail latency, bandwidth shares,
and NoC link telemetry.

The paper reports fleet averages; these helpers break a run down further —
per-master latency (which core starves?), latency percentiles (what would
a real-time core have to provision for?), and bandwidth shares — which is
what a designer adopting this methodology actually debugs with.

Routers already count flits per output channel; the link helpers turn
those counters into a link-utilization map and a per-node summary — the
view a NoC designer uses to find the congested column-0 funnel toward the
memory corner (and to check that GSS deployment shifted it) — and
:func:`register_metrics` publishes them into the metrics registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..sim.stats import LatencySeries, StatsCollector, quantiles

if TYPE_CHECKING:
    from ..noc.network import MeshNetwork
    from ..noc.topology import Port


@dataclass(frozen=True)
class MasterReport:
    """Latency summary for one master core."""

    master: int
    name: str
    completed: int
    mean_latency: float
    max_latency: int
    p95_latency: Optional[float]


def per_master_report(
    stats: StatsCollector, names: Optional[Dict[int, str]] = None
) -> List[MasterReport]:
    """Per-master latency table, sorted by master id."""
    names = names or {}
    reports = []
    for master in sorted(stats.per_master):
        series = stats.per_master[master]
        p95 = quantiles(series.samples)["p95"] if series.keep_samples else None
        reports.append(
            MasterReport(
                master=master,
                name=names.get(master, f"core{master}"),
                completed=series.count,
                mean_latency=series.mean,
                max_latency=series.maximum,
                p95_latency=p95,
            )
        )
    return reports


def render_master_report(reports: List[MasterReport]) -> str:
    lines = [
        f"{'master':>6s} {'name':14s} {'done':>6s} {'mean':>8s} "
        f"{'max':>6s} {'p95':>8s}"
    ]
    for report in reports:
        p95 = f"{report.p95_latency:8.1f}" if report.p95_latency is not None else "     n/a"
        lines.append(
            f"{report.master:>6d} {report.name:14s} {report.completed:>6d} "
            f"{report.mean_latency:8.1f} {report.max_latency:>6d} {p95}"
        )
    return "\n".join(lines)


@dataclass(frozen=True)
class TailLatency:
    """Mean vs tail latency of a request class."""

    mean: float
    p50: float
    p95: float
    p99: float
    maximum: int

    @classmethod
    def from_series(cls, series: LatencySeries) -> "TailLatency":
        if not series.keep_samples:
            raise RuntimeError("series was created without keep_samples")
        if not series.samples:
            # An empty class (e.g. no demand requests completed) has no
            # tail; report zeros rather than propagate the ValueError.
            return cls(mean=0.0, p50=0.0, p95=0.0, p99=0.0, maximum=0)
        return cls(
            mean=series.mean, maximum=series.maximum,
            **quantiles(series.samples),
        )


def tail_latencies(stats: StatsCollector) -> Dict[str, TailLatency]:
    """Tail latency of all packets and of the demand class.

    Requires the collector to have been built with ``keep_samples=True``.
    """
    return {
        "all": TailLatency.from_series(stats.all_packets),
        "demand": TailLatency.from_series(stats.demand_packets),
    }


def bandwidth_share(stats: StatsCollector) -> Dict[str, float]:
    """Useful vs wasted share of the moved beats."""
    total = stats.useful_beats + stats.wasted_beats
    if total == 0:
        return {"useful": 0.0, "wasted": 0.0}
    return {
        "useful": stats.useful_beats / total,
        "wasted": stats.wasted_beats / total,
    }


@dataclass(frozen=True)
class LinkStats:
    """Activity of one output channel over a run."""

    node: int
    port: Port
    packets: int
    flits: int
    utilization: float  # flits per cycle (link capacity = 1)


def link_stats(network: MeshNetwork, cycles: int) -> List[LinkStats]:
    """Per-output-channel statistics after a run of ``cycles`` cycles."""
    if cycles <= 0:
        raise ValueError("cycles must be positive")
    stats: List[LinkStats] = []
    for router in network.routers:
        for port, output in router.outputs.items():
            stats.append(
                LinkStats(
                    node=router.node,
                    port=port,
                    packets=output.packets_sent,
                    flits=output.flits_sent,
                    utilization=output.flits_sent / cycles,
                )
            )
    return stats


def hottest_links(
    network: MeshNetwork, cycles: int, top: int = 5
) -> List[LinkStats]:
    """The ``top`` busiest channels (the memory funnel, usually).

    Ties break deterministically by (node, port name) so reports are
    stable across runs and Python versions.
    """
    if top <= 0:
        raise ValueError("top must be positive")
    ordered = sorted(
        link_stats(network, cycles),
        key=lambda s: (-s.flits, s.node, s.port.name),
    )
    return ordered[:top]


def buffer_highwater(network: MeshNetwork) -> Dict[Tuple[int, str, int], int]:
    """Per-input-buffer flit high-water marks, keyed (node, port, lane).

    High-water is the peak *occupancy* a buffer ever reached — the queue
    depth a designer would size the buffer to, which flit throughput alone
    does not reveal."""
    marks: Dict[Tuple[int, str, int], int] = {}
    for router in network.routers:
        for port, lanes in router.inputs.items():
            for lane, buffer in enumerate(lanes):
                marks[(router.node, port.name, lane)] = buffer.highwater_flits
    return marks


def register_metrics(network: MeshNetwork, registry, cycles: int) -> None:
    """Publish NoC counters into a :class:`~repro.obs.metrics.MetricsRegistry`.

    Registers per-output flit/packet counters (``noc.link.*``) and
    per-input-buffer high-water gauges (``noc.buffer.highwater.*``).
    """
    for stat in link_stats(network, cycles):
        label = f"{stat.node}.{stat.port.name.lower()}"
        registry.counter(f"noc.link.flits.{label}").inc(stat.flits)
        registry.counter(f"noc.link.packets.{label}").inc(stat.packets)
    for (node, port, lane), mark in buffer_highwater(network).items():
        registry.gauge(
            f"noc.buffer.highwater.{node}.{port.lower()}.{lane}"
        ).set(mark)


def node_throughput(network: MeshNetwork, cycles: int) -> Dict[int, float]:
    """Total flits per cycle forwarded by each router."""
    totals: Dict[int, float] = {}
    for stat in link_stats(network, cycles):
        totals[stat.node] = totals.get(stat.node, 0.0) + stat.utilization
    return totals


def render_link_report(network: MeshNetwork, cycles: int, top: int = 8) -> str:
    """Text report of the busiest links plus per-node totals."""
    lines = [f"{'link':>14s} {'packets':>8s} {'flits':>8s} {'util':>6s}"]
    for stat in hottest_links(network, cycles, top=top):
        lines.append(
            f"{stat.node:>4d}.{stat.port.name:<9s} {stat.packets:>8d} "
            f"{stat.flits:>8d} {stat.utilization:6.2f}"
        )
    lines.append("")
    lines.append("per-node forwarded flits/cycle:")
    totals = node_throughput(network, cycles)
    for node in sorted(totals):
        lines.append(f"  node {node:>2d}: {totals[node]:5.2f}")
    return "\n".join(lines)
