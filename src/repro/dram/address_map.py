"""SDRAM geometry for the synthetic cores.

A :class:`~repro.workloads.cores.SyntheticCore` issues SDRAM coordinates
directly: a bank from its bank set, a row from its private row range and
a column within the open row.  This map holds the bank, row and column
counts it lays those streams out over.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class AddressMap:
    """Bank, row and column counts of the SDRAM behind the memory node."""

    banks: int
    rows: int = 8192
    columns: int = 1024          # columns per row, in beats

    def __post_init__(self) -> None:
        for name in ("banks", "rows", "columns"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
