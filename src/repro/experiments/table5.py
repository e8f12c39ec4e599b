"""Table V — average power comparison (analytical model).

See :mod:`repro.cost.power`.  Optionally the power numbers are modulated
by the measured switching activity (memory utilization) of an actual
simulation run of each design at each operating point.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from ..cost.power import TABLE5_POINTS, estimate_power
from ..sim.config import DdrGeneration, NocDesign
from ..sweep import run_sweep
from .report import format_table
from .runner import DEFAULT_SEEDS, SweepFn, experiment_config, run_cells

#: design key in the cost model -> NocDesign for activity simulation
DESIGN_MAP = {
    "conv": NocDesign.CONV,
    "sdram-aware": NocDesign.SDRAM_AWARE,
    "gss+sagm+sti": NocDesign.GSS_SAGM,
}

#: Table V clock points use DDR I at 200 MHz, DDR II at 400, DDR III at 800.
POINT_DDR = {200: DdrGeneration.DDR1, 400: DdrGeneration.DDR2, 800: DdrGeneration.DDR3}


def run_table5(
    with_activity: bool = False,
    cycles: Optional[int] = None,
    seeds: Iterable[int] = DEFAULT_SEEDS,
    sweep: SweepFn = run_sweep,
) -> Dict[str, Dict[str, float]]:
    """Average power (mW) per design and operating point.

    With ``with_activity`` the simulator supplies each design's measured
    utilization as the switching-activity factor.
    """
    points = [
        (app, mhz, key) for app, mhz in TABLE5_POINTS for key in DESIGN_MAP
    ]
    activity: Dict[tuple, float] = {}
    if with_activity:
        configs = [
            experiment_config(
                app=app,
                ddr=POINT_DDR[mhz],
                clock_mhz=mhz,
                design=DESIGN_MAP[key],
                sti=DESIGN_MAP[key] is NocDesign.GSS_SAGM,
                cycles=cycles,
            )
            for app, mhz, key in points
        ]
        averaged = run_cells(configs, seeds, sweep)
        activity = {
            point: min(1.0, cell.raw_utilization)
            for point, cell in zip(points, averaged)
        }
    return {
        f"{app}@{mhz}MHz": {
            key: estimate_power(
                key, app, mhz, activity=activity.get((app, mhz, key))
            ).milliwatts
            for key in DESIGN_MAP
        }
        for app, mhz in TABLE5_POINTS
    }


def render(result: Optional[Dict[str, Dict[str, float]]] = None) -> str:
    data = result if result is not None else run_table5()
    designs = list(next(iter(data.values())).keys())
    headers = ["Operating point"] + [f"{d} (mW)" for d in designs] + ["conv ratio", "[4] ratio"]
    rows = []
    for point, row in data.items():
        ours = row["gss+sagm+sti"]
        rows.append(
            [point]
            + [row[d] for d in designs]
            + [row["conv"] / ours if ours else 0.0, row["sdram-aware"] / ours if ours else 0.0]
        )
    return format_table("Table V — average power", headers, rows)
