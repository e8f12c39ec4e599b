"""Memory request model.

A :class:`MemoryRequest` is the unit that cores emit, the NoC carries (as a
packet), NoC flow controllers schedule, and the SDRAM controller turns into
ACT/CAS/PRE commands.  It carries the SDRAM coordinates the paper's flow
controllers key on — (RA, BA, R/W) — plus the priority class and the SAGM
split lineage (auto-precharge tag on the last short packet)."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional


class ServiceClass(enum.Enum):
    """How the NoC should treat this request (Section III-B)."""

    BEST_EFFORT = "best-effort"
    PRIORITY = "priority"


@dataclass(slots=True)
class MemoryRequest:
    """One SDRAM read or write request from a core.

    ``beats`` is the number of *useful* data beats the core wants (one beat =
    one data-bus word; DDR moves two beats per cycle).  The device may move
    more beats than that when the burst granularity is coarser — the access
    granularity mismatch of Section III-C.  Declared with ``slots=True``:
    requests flow through every layer's hot path, and the flow-control
    filters read their fields millions of times per run.
    """

    request_id: int
    master: int                 # core id that issued the request
    bank: int
    row: int
    column: int
    beats: int
    is_read: bool
    service: ServiceClass = ServiceClass.BEST_EFFORT
    is_demand: bool = False     # CPU demand (vs prefetch / streaming)
    issued_cycle: int = 0
    # SAGM split lineage (Section IV-C)
    parent_id: Optional[int] = None
    split_index: int = 0
    split_count: int = 1
    ap_tag: bool = False        # set on the last short packet of a split
    #: Watchdog re-issue generation (see :mod:`repro.resilience.watchdog`):
    #: responses whose epoch trails the reassembly tracker's are stale
    #: duplicates from before a re-issue and are dropped at the core NI.
    retry_epoch: int = 0
    #: Cached: ``service`` never changes after construction, and the flow
    #: filters and schedulers read this on every candidate comparison.
    is_priority: bool = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.beats <= 0:
            raise ValueError("request must ask for at least one beat")
        if self.bank < 0 or self.row < 0 or self.column < 0:
            raise ValueError("negative SDRAM coordinate")
        if self.split_index >= self.split_count:
            raise ValueError("split index out of range")
        self.is_priority = self.service is ServiceClass.PRIORITY

    @property
    def is_write(self) -> bool:
        return not self.is_read

    # --- scheduling relations the paper defines in Section IV-B --------- #

    def bank_conflict_with(self, other: "MemoryRequest") -> bool:
        """(BA_n = BA_n+1) and (RA_n != RA_n+1)."""
        return self.bank == other.bank and self.row != other.row

    def data_contention_with(self, other: "MemoryRequest") -> bool:
        """(R/W_n != R/W_n+1): a read following a write or vice versa."""
        return self.is_read != other.is_read

    def row_hit_with(self, other: "MemoryRequest") -> bool:
        """(BA_n = BA_n+1) and (RA_n = RA_n+1)."""
        return self.bank == other.bank and self.row == other.row

    def __str__(self) -> str:
        op = "RD" if self.is_read else "WR"
        tag = "/AP" if self.ap_tag else ""
        pri = "P" if self.is_priority else "BE"
        return (
            f"req#{self.request_id}[{pri}] {op} b{self.bank} r{self.row} "
            f"c{self.column} x{self.beats}{tag}"
        )
