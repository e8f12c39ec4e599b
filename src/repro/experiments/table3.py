"""Table III — short turn-around bank interleaving (STI) on DDR III.

High-clock DDR III takes tens of cycles to deactivate and re-activate a
bank (tWR + tRP = 23 cycles at 800 MHz), so the Fig. 4(b) filter — which
additionally avoids scheduling a packet whose bank is still inside that
turn-around window — pays off.  The paper runs GSS+SAGM+STI with three GSS
routers against GSS+SAGM on DDR III at each application's top clock and
reports the improvement in utilization, overall latency, and priority
latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

from ..sim.config import DdrGeneration, NocDesign
from ..sweep import run_sweep
from .runner import (
    AveragedMetrics, DEFAULT_SEEDS, SweepFn, experiment_config, run_cells,
)

#: The paper's Table III operating points (all DDR III).
TABLE3_POINTS = [
    ("bluray", 533),
    ("single_dtv", 667),
    ("dual_dtv", 800),
]

#: "For this experiment, we use three GSS routers employing Fig. 4(b)."
TABLE3_GSS_ROUTERS = 3


@dataclass(frozen=True)
class Table3Row:
    app: str
    clock_mhz: int
    without_sti: AveragedMetrics
    with_sti: AveragedMetrics

    @property
    def utilization_improvement(self) -> float:
        base = self.without_sti.utilization
        return (self.with_sti.utilization - base) / base if base else 0.0

    @property
    def latency_improvement(self) -> float:
        base = self.without_sti.latency_all
        return (base - self.with_sti.latency_all) / base if base else 0.0

    @property
    def priority_latency_improvement(self) -> float:
        base = self.without_sti.latency_demand
        return (base - self.with_sti.latency_demand) / base if base else 0.0


def run_table3(
    cycles: int | None = None,
    warmup: int | None = None,
    seeds: Iterable[int] = DEFAULT_SEEDS,
    sweep: SweepFn = run_sweep,
) -> List[Table3Row]:
    """Regenerate Table III: GSS+SAGM+STI vs GSS+SAGM on DDR III."""
    configs = [
        experiment_config(
            app=app,
            ddr=DdrGeneration.DDR3,
            clock_mhz=mhz,
            design=NocDesign.GSS_SAGM,
            priority_enabled=True,
            sti=sti,
            num_gss_routers=TABLE3_GSS_ROUTERS,
            cycles=cycles,
            warmup=warmup,
        )
        for app, mhz in TABLE3_POINTS
        for sti in (False, True)
    ]
    # Each point's cells come without STI, then with it.
    averaged = iter(run_cells(configs, seeds, sweep))
    return [
        Table3Row(app, mhz, next(averaged), next(averaged))
        for app, mhz in TABLE3_POINTS
    ]


def render(rows: List[Table3Row]) -> str:
    lines = ["Table III — GSS+SAGM+STI vs GSS+SAGM (DDR III)"]
    header = (
        f"{'Application':12s} {'Clock':>7s} {'Util':>6s} {'dUtil':>7s} "
        f"{'Lat':>6s} {'dLat':>7s} {'PriLat':>7s} {'dPri':>7s}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        lines.append(
            f"{row.app:12s} {row.clock_mhz:>4d}MHz "
            f"{row.with_sti.utilization:6.3f} {row.utilization_improvement:+6.1%} "
            f"{row.with_sti.latency_all:6.1f} {row.latency_improvement:+6.1%} "
            f"{row.with_sti.latency_demand:7.1f} {row.priority_latency_improvement:+6.1%}"
        )
    n = len(rows)
    lines.append(
        f"{'Average':12s} {'':>7s} "
        f"{sum(r.with_sti.utilization for r in rows)/n:6.3f} "
        f"{sum(r.utilization_improvement for r in rows)/n:+6.1%} "
        f"{sum(r.with_sti.latency_all for r in rows)/n:6.1f} "
        f"{sum(r.latency_improvement for r in rows)/n:+6.1%} "
        f"{sum(r.with_sti.latency_demand for r in rows)/n:7.1f} "
        f"{sum(r.priority_latency_improvement for r in rows)/n:+6.1%}"
    )
    return "\n".join(lines)
