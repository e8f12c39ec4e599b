"""Shared machinery for the Table I / Table II design comparisons,
plus the memory-arbiter comparison the scheduler seam enables: the same
(application x DDR generation) grid swept over arbiter backends instead
of NoC designs, with a WCET column pairing each backend's measured
worst-case service latency against its analytic bound (when it has one —
the DPQ arbiter's whole selling point)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from ..sim.config import DdrGeneration, NocDesign, PAPER_CLOCK_POINTS
from ..sweep import run_sweep
from .report import format_table
from .runner import (
    AveragedMetrics, DEFAULT_SEEDS, SweepFn, experiment_config, run_cells,
)

#: Metric keys reported per design in Tables I-III.
METRICS = ("utilization", "latency_all", "latency_demand")

#: The backends the arbiter comparison sweeps by default (every builtin).
DEFAULT_ARBITERS = ("engine", "memmax", "databahn", "dpq", "bank-reg")


@dataclass
class ComparisonCell:
    """One (application, clock, design) measurement."""

    app: str
    ddr: DdrGeneration
    clock_mhz: int
    design: NocDesign
    metrics: AveragedMetrics

    def value(self, metric: str) -> float:
        return getattr(self.metrics, metric)


@dataclass
class ComparisonResult:
    """All cells of one comparison plus derived averages/ratios."""

    designs: List[NocDesign]
    cells: List[ComparisonCell] = field(default_factory=list)

    def cell(self, app: str, ddr: DdrGeneration, design: NocDesign) -> ComparisonCell:
        for cell in self.cells:
            if cell.app == app and cell.ddr == ddr and cell.design == design:
                return cell
        raise KeyError((app, ddr, design))

    def averages(self) -> Dict[NocDesign, Dict[str, float]]:
        result: Dict[NocDesign, Dict[str, float]] = {}
        for design in self.designs:
            cells = [c for c in self.cells if c.design == design]
            result[design] = {
                metric: sum(c.value(metric) for c in cells) / len(cells)
                for metric in METRICS
            }
        return result

    def ratios(self, baseline: NocDesign) -> Dict[NocDesign, Dict[str, float]]:
        """The paper's 'Ratio' row: averages normalized to ``baseline``."""
        averages = self.averages()
        base = averages[baseline]
        return {
            design: {
                metric: (values[metric] / base[metric] if base[metric] else 0.0)
                for metric in METRICS
            }
            for design, values in averages.items()
        }


def run_comparison(
    designs: Sequence[NocDesign],
    priority: bool,
    cycles: int | None = None,
    warmup: int | None = None,
    seeds: Iterable[int] = DEFAULT_SEEDS,
    sweep: SweepFn = run_sweep,
) -> ComparisonResult:
    """Simulate every (app x DDR generation x design) cell of Section V."""
    cells = _run_paper_grid(
        "design", designs, seeds, sweep,
        priority_enabled=priority, cycles=cycles, warmup=warmup,
    )
    return ComparisonResult(
        designs=list(designs), cells=[ComparisonCell(*cell) for cell in cells]
    )


def _run_paper_grid(
    axis: str,
    values: Sequence[object],
    seeds: Iterable[int],
    sweep: SweepFn,
    apps: Optional[Sequence[str]] = None,
    **fields,
) -> List[tuple]:
    """``(app, ddr, clock, value, metrics)`` for every (app x DDR
    generation x ``axis`` value) cell, resolved in one sweep."""
    points = [
        (app, ddr, mhz, value)
        for app, clocks in PAPER_CLOCK_POINTS.items()
        if apps is None or app in apps
        for ddr, mhz in clocks.items()
        for value in values
    ]
    configs = [
        experiment_config(
            app=app, ddr=ddr, clock_mhz=mhz, **{axis: value}, **fields
        )
        for app, ddr, mhz, value in points
    ]
    metrics = run_cells(configs, seeds, sweep)
    return [(*point, averaged) for point, averaged in zip(points, metrics)]


# --------------------------------------------------------------------- #
# Arbiter comparison (scheduler-seam axis)
# --------------------------------------------------------------------- #

@dataclass
class ArbiterCell:
    """One (application, clock, arbiter backend) measurement."""

    app: str
    ddr: DdrGeneration
    clock_mhz: int
    arbiter: str
    metrics: AveragedMetrics

    def value(self, metric: str) -> float:
        return getattr(self.metrics, metric)


@dataclass
class ArbiterComparisonResult:
    """All cells of one arbiter sweep at a fixed NoC design."""

    design: NocDesign
    arbiters: List[str]
    cells: List[ArbiterCell] = field(default_factory=list)

    def cell(self, app: str, ddr: DdrGeneration, arbiter: str) -> ArbiterCell:
        for cell in self.cells:
            if cell.app == app and cell.ddr == ddr and cell.arbiter == arbiter:
                return cell
        raise KeyError((app, ddr, arbiter))

    def averages(self) -> Dict[str, Dict[str, float]]:
        result: Dict[str, Dict[str, float]] = {}
        for arbiter in self.arbiters:
            cells = [c for c in self.cells if c.arbiter == arbiter]
            result[arbiter] = {
                metric: sum(c.value(metric) for c in cells) / len(cells)
                for metric in METRICS
            }
        return result

    def bound_violations(self) -> List[ArbiterCell]:
        """Cells whose measured p100 exceeds the analytic bound — must be
        empty for any correctly bounded backend."""
        return [
            cell for cell in self.cells
            if cell.metrics.wcet_bound is not None
            and cell.metrics.service_p100 > cell.metrics.wcet_bound
        ]


def run_arbiter_comparison(
    arbiters: Sequence[str] = DEFAULT_ARBITERS,
    design: NocDesign = NocDesign.GSS_SAGM,
    priority: bool = False,
    cycles: int | None = None,
    warmup: int | None = None,
    seeds: Iterable[int] = DEFAULT_SEEDS,
    apps: Optional[Sequence[str]] = None,
    sweep: SweepFn = run_sweep,
) -> ArbiterComparisonResult:
    """Sweep the memory-arbiter axis over the (app x DDR) grid.

    The NoC design is held fixed (default: the paper's best, GSS+SAGM)
    so the cells isolate what the *memory-side* arbiter contributes —
    the "how does application-aware NoC arbitration fare against newer
    SDRAM arbiters" question.  ``apps`` restricts the application rows
    (the CI smoke job runs a single app).
    """
    cells = _run_paper_grid(
        "arbiter", arbiters, seeds, sweep, apps,
        design=design, priority_enabled=priority, cycles=cycles, warmup=warmup,
    )
    return ArbiterComparisonResult(
        design=design,
        arbiters=list(arbiters),
        cells=[ArbiterCell(*cell) for cell in cells],
    )


def render_arbiter_comparison(
    result: ArbiterComparisonResult,
    title: str = "Memory-arbiter comparison",
) -> str:
    """Text table: per-point utilization/latency per backend, then the
    WCET columns — measured p100 service latency vs. analytic bound
    ("—" for backends with no bound)."""
    headers = ["Application", "Clock"]
    for arbiter in result.arbiters:
        headers.append(f"{arbiter}:util")
        headers.append(f"{arbiter}:lat")
        headers.append(f"{arbiter}:p100")
        headers.append(f"{arbiter}:wcet")
    rows: List[List[object]] = []
    for app, points in PAPER_CLOCK_POINTS.items():
        for ddr, mhz in points.items():
            try:
                cells = {
                    arbiter: result.cell(app, ddr, arbiter)
                    for arbiter in result.arbiters
                }
            except KeyError:
                continue  # app filtered out of this sweep
            row: List[object] = [app, f"{mhz}MHz/{ddr.value}"]
            for arbiter in result.arbiters:
                cell = cells[arbiter]
                row.append(cell.metrics.utilization)
                row.append(cell.metrics.latency_all)
                row.append(cell.metrics.service_p100)
                bound = cell.metrics.wcet_bound
                row.append("—" if bound is None else bound)
            rows.append(row)
    table = format_table(
        f"{title} (design: {result.design.value})", headers, rows
    )
    violations = result.bound_violations()
    if violations:
        lines = [table, "", "BOUND VIOLATIONS:"]
        for cell in violations:
            lines.append(
                f"  {cell.app}/{cell.ddr.value}@{cell.clock_mhz}MHz/"
                f"{cell.arbiter}: p100 {cell.metrics.service_p100:.0f} > "
                f"bound {cell.metrics.wcet_bound:.0f}"
            )
        return "\n".join(lines)
    return table
