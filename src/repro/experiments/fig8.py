"""Fig. 8 — memory performance vs number of GSS routers.

The paper starts from a system with conventional priority-first /
round-robin routers and a thin memory subsystem (no input buffer, no
memory scheduler), then replaces routers with GSS routers one at a time,
closest-to-memory first.  Three curves are reported — average memory
utilization (a), average latency of all packets (b), and average latency
of priority (demand) packets (c) — for single DTV on DDR I at 200 MHz,
Blu-ray on DDR II at 333 MHz, and dual DTV on DDR III at 666 MHz.

The expected shape: large gains for the first three routers (the ones
surrounding the memory corner, where all memory traffic funnels), then a
plateau — which is the paper's hardware-cost argument for deploying only
three GSS flow controllers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

from ..sim.config import DdrGeneration, NocDesign
from ..sweep import run_sweep
from .runner import DEFAULT_SEEDS, SweepFn, experiment_config, run_cells

#: Fig. 8 operating points: (application, DDR generation, clock MHz).
FIG8_POINTS = [
    ("single_dtv", DdrGeneration.DDR1, 200),
    ("bluray", DdrGeneration.DDR2, 333),
    ("dual_dtv", DdrGeneration.DDR3, 666),
]


@dataclass(frozen=True)
class Fig8Curve:
    """One application's sweep over the number of GSS routers."""

    app: str
    ddr: DdrGeneration
    clock_mhz: int
    gss_router_counts: List[int]
    utilization: List[float]
    latency_all: List[float]
    latency_priority: List[float]


def gss_router_counts(app: str, max_routers: int | None = None) -> List[int]:
    """The router counts swept for ``app`` (0 .. mesh size, capped)."""
    mesh_nodes = 16 if app == "dual_dtv" else 9
    top = mesh_nodes if max_routers is None else min(max_routers, mesh_nodes)
    return list(range(0, top + 1))


def run_fig8(
    cycles: int | None = None,
    warmup: int | None = None,
    seeds: Iterable[int] = DEFAULT_SEEDS,
    max_routers: int | None = None,
    sweep: SweepFn = run_sweep,
) -> List[Fig8Curve]:
    """Regenerate the three Fig. 8 sweeps: one ``metrics`` job per
    (operating point, router count, seed), resolved in one sweep."""
    points = [
        (app, ddr, mhz, k)
        for app, ddr, mhz in FIG8_POINTS
        for k in gss_router_counts(app, max_routers)
    ]
    configs = [
        experiment_config(
            app=app,
            ddr=ddr,
            clock_mhz=mhz,
            design=NocDesign.GSS_SAGM,
            priority_enabled=True,
            num_gss_routers=k,
            cycles=cycles,
            warmup=warmup,
        )
        for app, ddr, mhz, k in points
    ]
    labels = [f"{app}/gss={k}" for app, _, _, k in points]
    averaged = iter(run_cells(configs, seeds, sweep, labels))
    curves: List[Fig8Curve] = []
    for app, ddr, mhz in FIG8_POINTS:
        counts = gss_router_counts(app, max_routers)
        cells = [next(averaged) for _ in counts]
        curves.append(
            Fig8Curve(
                app, ddr, mhz, counts,
                [cell.utilization for cell in cells],
                [cell.latency_all for cell in cells],
                [cell.latency_demand for cell in cells],
            )
        )
    return curves


def render(curves: List[Fig8Curve]) -> str:
    lines = ["Fig. 8 — memory performance vs number of GSS routers"]
    for curve in curves:
        lines.append(f"\n{curve.app} / {curve.ddr.value} @ {curve.clock_mhz} MHz")
        lines.append(f"{'#GSS':>5s} {'util':>7s} {'lat(all)':>9s} {'lat(pri)':>9s}")
        for i, k in enumerate(curve.gss_router_counts):
            lines.append(
                f"{k:>5d} {curve.utilization[i]:7.3f} "
                f"{curve.latency_all[i]:9.1f} {curve.latency_priority[i]:9.1f}"
            )
    return "\n".join(lines)


def knee_index(curve: Fig8Curve, fraction: float = 0.8) -> int:
    """Smallest router count capturing ``fraction`` of the total
    utilization gain — the paper finds this lands at ~3 routers."""
    base = curve.utilization[0]
    best = max(curve.utilization)
    if best <= base:
        return 0
    threshold = base + fraction * (best - base)
    for i, value in enumerate(curve.utilization):
        if value >= threshold:
            return curve.gss_router_counts[i]
    return curve.gss_router_counts[-1]


def main() -> None:  # pragma: no cover - CLI convenience
    print(render(run_fig8()))


if __name__ == "__main__":  # pragma: no cover
    main()
