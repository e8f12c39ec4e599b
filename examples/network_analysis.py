"""Post-run analysis: per-core latencies, tail latency, link hotspots.

Runs the single-DTV model under the full proposal and prints the analysis
views a designer debugs with: which core starves, what the 95th/99th
percentile latency looks like (what a real-time core must provision for),
how much bandwidth the granularity mismatch wastes, and which NoC links
carry the heat.

Run with::

    python examples/network_analysis.py
"""

from repro import NocDesign, SystemConfig
from repro.core.system import build_system
from repro.obs.analysis import (
    bandwidth_share,
    per_master_report,
    render_link_report,
    render_master_report,
    tail_latencies,
)

CYCLES = 15_000


def main() -> None:
    config = SystemConfig(
        app="single_dtv", design=NocDesign.GSS_SAGM,
        priority_enabled=True, cycles=CYCLES, warmup=2_500,
    )
    system = build_system(config)
    # keep raw samples so percentiles are available
    system.stats.keep_samples = True
    system.stats.all_packets.keep_samples = True
    system.stats.demand_packets.keep_samples = True
    metrics = system.run()

    print(f"== {config.label}: util={metrics.utilization:.3f}, "
          f"latency={metrics.latency_all:.1f} ==\n")

    names = {i: spec.name for i, spec in enumerate(system.app.cores)}
    print("Per-core latency:")
    print(render_master_report(per_master_report(system.stats, names)))

    print("\nTail latency (cycles):")
    for label, tail in tail_latencies(system.stats).items():
        print(f"  {label:7s} mean={tail.mean:6.1f} p50={tail.p50:6.1f} "
              f"p95={tail.p95:6.1f} p99={tail.p99:6.1f} max={tail.maximum}")

    share = bandwidth_share(system.stats)
    print(f"\nBandwidth: {share['useful']:.1%} useful, "
          f"{share['wasted']:.1%} overfetched")

    print("\nHottest NoC links:")
    print(render_link_report(system.network, CYCLES))


if __name__ == "__main__":
    main()
