"""Table I — comparison without priority memory requests.

All packets (including CPU demands) receive best-effort service.  The
paper compares CONV, the SDRAM-aware baseline [4], GSS, and GSS+SAGM over
three applications x three DDR generations and reports memory utilization,
memory latency of all packets, and memory latency of demand packets, with
a final ratio row normalized to [4].
"""

from __future__ import annotations

from typing import Iterable, List

from ..sim.config import NocDesign, PAPER_CLOCK_POINTS
from ..sweep import run_sweep
from .comparison import ComparisonResult, METRICS, run_comparison
from .report import format_table
from .runner import DEFAULT_SEEDS, SweepFn

TABLE1_DESIGNS = [
    NocDesign.CONV,
    NocDesign.SDRAM_AWARE,
    NocDesign.GSS,
    NocDesign.GSS_SAGM,
]

BASELINE = NocDesign.SDRAM_AWARE


def run_table1(
    cycles: int | None = None,
    warmup: int | None = None,
    seeds: Iterable[int] = DEFAULT_SEEDS,
    sweep: SweepFn = run_sweep,
) -> ComparisonResult:
    """Regenerate Table I's measurements."""
    return run_comparison(
        TABLE1_DESIGNS, priority=False, cycles=cycles, warmup=warmup,
        seeds=seeds, sweep=sweep,
    )


def render(result: ComparisonResult, title: str = "Table I — no priority memory request") -> str:
    """Paper-style text table."""
    headers = ["Application", "Clock"]
    for metric in METRICS:
        for design in result.designs:
            headers.append(f"{_short(design)}:{_metric_short(metric)}")
    rows: List[List[object]] = []
    for app, points in PAPER_CLOCK_POINTS.items():
        for ddr, mhz in points.items():
            row: List[object] = [app, f"{mhz}MHz/{ddr.value}"]
            for metric in METRICS:
                for design in result.designs:
                    row.append(result.cell(app, ddr, design).value(metric))
            rows.append(row)
    averages = result.averages()
    ratios = result.ratios(BASELINE if BASELINE in result.designs else result.designs[0])
    average_line: List[object] = ["Average", ""]
    ratio_line: List[object] = ["Ratio", ""]
    for metric in METRICS:
        for design in result.designs:
            average_line.append(averages[design][metric])
            ratio_line.append(ratios[design][metric])
    return format_table(title, headers, rows, footer=[average_line, ratio_line])


def _short(design: NocDesign) -> str:
    return {
        NocDesign.CONV: "CONV",
        NocDesign.CONV_PFS: "CONV+PFS",
        NocDesign.SDRAM_AWARE: "[4]",
        NocDesign.SDRAM_AWARE_PFS: "[4]+PFS",
        NocDesign.GSS: "GSS",
        NocDesign.GSS_SAGM: "GSS+SAGM",
    }[design]


def _metric_short(metric: str) -> str:
    return {
        "utilization": "util",
        "latency_all": "lat",
        "latency_demand": "dem",
    }[metric]


def main() -> None:  # pragma: no cover - CLI convenience
    print(render(run_table1()))


if __name__ == "__main__":  # pragma: no cover
    main()
