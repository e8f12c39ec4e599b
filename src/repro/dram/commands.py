"""SDRAM command vocabulary (Section III-A).

The device understands three access commands — row access strobe (ACT,
"RAS" in the paper), column access strobe (READ/WRITE, "CAS"), and
precharge (PRE) — plus the auto-precharge (AP) variant of a CAS command
that the paper's SAGM controller leans on (Section IV-C), and the
all-bank auto-refresh (REF) an opt-in refresh schedule adds."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class CommandKind(enum.Enum):
    ACTIVATE = "ACT"
    READ = "RD"
    WRITE = "WR"
    PRECHARGE = "PRE"
    REFRESH = "REF"
    NOP = "NOP"

    @property
    def is_cas(self) -> bool:
        return self is CommandKind.READ or self is CommandKind.WRITE


@dataclass(frozen=True, slots=True)
class DramCommand:
    """One command on the (single, shared) command bus.

    ``auto_precharge`` may only be set on CAS commands; it closes the bank
    automatically ``tWR + tRP`` (write) or ``tRTP + tRP`` (read) after the
    burst, without occupying a command-bus slot for a PRE.  A REF refreshes
    every bank; its ``bank`` is 0.
    """

    kind: CommandKind
    bank: int
    row: Optional[int] = None          # ACT only
    column: Optional[int] = None       # CAS only
    burst_beats: int = 0               # CAS only
    auto_precharge: bool = False
    useful_beats: int = 0              # CAS only: beats the core actually wanted
    request_id: Optional[int] = None   # CAS only: owning MemoryRequest

    def __post_init__(self) -> None:
        if self.bank < 0:
            raise ValueError("bank must be non-negative")
        kind = self.kind
        # Identity tests, as in ``is_cas``: a command makes no call into
        # ``enum`` (hashing a member is a Python-level call).
        if kind is CommandKind.READ or kind is CommandKind.WRITE:
            if self.burst_beats <= 0:
                raise ValueError("CAS requires a positive burst length")
            if not 0 <= self.useful_beats <= self.burst_beats:
                raise ValueError("useful beats exceed burst length")
        elif self.auto_precharge:
            raise ValueError("auto-precharge is only legal on READ/WRITE")
        elif kind is CommandKind.ACTIVATE and self.row is None:
            raise ValueError("ACT requires a row")

    @property
    def is_read(self) -> bool:
        return self.kind is CommandKind.READ

    @property
    def is_write(self) -> bool:
        return self.kind is CommandKind.WRITE

    def __str__(self) -> str:
        if self.kind is CommandKind.REFRESH:
            return self.kind.value
        parts = [self.kind.value, f"b{self.bank}"]
        if self.row is not None:
            parts.append(f"r{self.row}")
        if self.kind.is_cas:
            parts.append(f"BL{self.burst_beats}")
            if self.auto_precharge:
                parts.append("AP")
        return " ".join(parts)
