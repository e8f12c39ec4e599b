"""Table II — comparison with priority memory requests.

CPU demand requests are served as priority packets.  The paper compares
CONV+PFS, [4]+PFS, GSS, and GSS+SAGM; the ratio row is normalized to the
*Table I* [4] baseline, so this module also runs plain [4] without
priority for the normalization, exactly as the paper does ("the ratio is
based on [4] in Table I").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable

from ..sim.config import NocDesign
from ..sweep import run_sweep
from .comparison import ComparisonResult, METRICS, run_comparison
from .runner import DEFAULT_SEEDS, SweepFn
from .table1 import render as _render_shared

TABLE2_DESIGNS = [
    NocDesign.CONV_PFS,
    NocDesign.SDRAM_AWARE_PFS,
    NocDesign.GSS,
    NocDesign.GSS_SAGM,
]


@dataclass
class Table2Result:
    """Table II measurements plus the Table I [4] normalization point."""

    comparison: ComparisonResult
    baseline_averages: Dict[str, float]  # [4] without priority (Table I)

    def ratios(self) -> Dict[NocDesign, Dict[str, float]]:
        averages = self.comparison.averages()
        return {
            design: {
                metric: (
                    values[metric] / self.baseline_averages[metric]
                    if self.baseline_averages[metric]
                    else 0.0
                )
                for metric in METRICS
            }
            for design, values in averages.items()
        }


def run_table2(
    cycles: int | None = None,
    warmup: int | None = None,
    seeds: Iterable[int] = DEFAULT_SEEDS,
    sweep: SweepFn = run_sweep,
) -> Table2Result:
    """Regenerate Table II's measurements."""
    shared = dict(cycles=cycles, warmup=warmup, seeds=seeds, sweep=sweep)
    comparison = run_comparison(TABLE2_DESIGNS, priority=True, **shared)
    baseline = run_comparison(
        [NocDesign.SDRAM_AWARE], priority=False, **shared
    )
    return Table2Result(
        comparison=comparison,
        baseline_averages=baseline.averages()[NocDesign.SDRAM_AWARE],
    )


def render(result: Table2Result) -> str:
    """Paper-style text table (ratio row vs Table I's [4])."""
    body = _render_shared(
        result.comparison, title="Table II — with priority memory request"
    )
    ratio_lines = ["Ratio vs Table I [4]:"]
    for design, values in result.ratios().items():
        ratio_lines.append(
            f"  {design.value:16s} "
            + "  ".join(f"{metric}={values[metric]:.3f}" for metric in METRICS)
        )
    return body + "\n" + "\n".join(ratio_lines)


def main() -> None:  # pragma: no cover - CLI convenience
    print(render(run_table2()))


if __name__ == "__main__":  # pragma: no cover
    main()
