"""Table IV — gate-count comparison (analytical model).

See :mod:`repro.cost.gate_count` for the model; this module renders it in
the paper's table shape with the per-module ratios normalized to the
proposed design.
"""

from __future__ import annotations

from typing import Dict

from ..cost.gate_count import table4
from .report import format_table

DESIGN_ORDER = ("conv", "sdram-aware", "gss+sagm+sti")


def run_table4() -> Dict[str, Dict[str, int]]:
    return table4()


def render(result: Dict[str, Dict[str, int]] | None = None) -> str:
    data = result if result is not None else run_table4()
    headers = ["Module"]
    for design in DESIGN_ORDER:
        headers += [f"{design} gates", f"{design} ratio"]
    rows = []
    for module, designs in data.items():
        ours = designs["gss+sagm+sti"]
        row: list = [module]
        for design in DESIGN_ORDER:
            gates = designs[design]
            row += [gates, gates / ours if ours else 0.0]
        rows.append(row)
    return format_table("Table IV — gate count at 400 MHz", headers, rows)
