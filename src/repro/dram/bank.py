"""Per-bank state machine with next-legal-cycle bookkeeping.

Each bank tracks its open row and the earliest cycles at which the next
ACT / CAS / PRE become legal.  This register style (rather than an explicit
ticked FSM) is the standard cycle-level DRAM modelling idiom: a command is
legal iff the current cycle has reached the corresponding register.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from .timing import DramTiming


class BankState(enum.Enum):
    IDLE = "idle"
    ACTIVE = "active"


class TimingViolation(RuntimeError):
    """A command was issued before its timing constraints were satisfied."""


@dataclass(slots=True)
class Bank:
    """One SDRAM bank."""

    index: int
    timing: DramTiming
    state: BankState = BankState.IDLE
    open_row: Optional[int] = None
    idle_at: int = 0            # earliest cycle an ACT is legal (tRP done)
    cas_ready_at: int = 0       # earliest cycle a CAS is legal (tRCD done)
    precharge_ok_at: int = 0    # earliest cycle a PRE is legal (tRAS/tWR/tRTP)
    auto_precharge_at: Optional[int] = None  # pending AP completion cycle
    activations: int = 0
    precharges: int = 0

    # ------------------------------------------------------------------ #
    # Legality predicates
    # ------------------------------------------------------------------ #

    def can_activate(self, cycle: int) -> bool:
        self._apply_auto_precharge(cycle)
        return self.state is BankState.IDLE and cycle >= self.idle_at

    def can_cas(self, cycle: int, row: int) -> bool:
        self._apply_auto_precharge(cycle)
        return (
            self.state is BankState.ACTIVE
            and self.open_row == row
            and cycle >= self.cas_ready_at
            and self.auto_precharge_at is None
        )

    def can_precharge(self, cycle: int) -> bool:
        self._apply_auto_precharge(cycle)
        if self.state is not BankState.ACTIVE:
            return False
        return cycle >= self.precharge_ok_at and self.auto_precharge_at is None

    # ------------------------------------------------------------------ #
    # State transitions
    # ------------------------------------------------------------------ #

    def activate(self, cycle: int, row: int) -> None:
        if not self.can_activate(cycle):
            raise TimingViolation(
                f"bank {self.index}: ACT at {cycle} illegal "
                f"(state={self.state.value}, idle_at={self.idle_at})"
            )
        self.state = BankState.ACTIVE
        self.open_row = row
        self.cas_ready_at = cycle + self.timing.t_rcd
        self.precharge_ok_at = cycle + self.timing.t_ras
        self.activations += 1

    def cas(
        self,
        cycle: int,
        row: int,
        is_write: bool,
        data_end: int,
        auto_precharge: bool,
    ) -> None:
        """Record a READ/WRITE whose last data beat lands on ``data_end``."""
        if not self.can_cas(cycle, row):
            raise TimingViolation(
                f"bank {self.index}: CAS at {cycle} illegal "
                f"(state={self.state.value}, open_row={self.open_row}, "
                f"cas_ready_at={self.cas_ready_at})"
            )
        recovery = self.timing.t_wr if is_write else 0
        self.precharge_ok_at = max(self.precharge_ok_at, data_end + recovery + 1)
        if auto_precharge:
            # Self-timed precharge: bank is idle (re-activatable) tRP after
            # the write-recovery (or read) window — no PRE command needed.
            self.auto_precharge_at = data_end + recovery + self.timing.t_rp + 1

    def precharge(self, cycle: int) -> None:
        if not self.can_precharge(cycle):
            raise TimingViolation(
                f"bank {self.index}: PRE at {cycle} illegal "
                f"(state={self.state.value}, ok_at={self.precharge_ok_at})"
            )
        self.state = BankState.IDLE
        self.open_row = None
        self.idle_at = cycle + self.timing.t_rp
        self.precharges += 1

    def refresh(self, cycle: int) -> None:
        """Take part in an all-bank REF at ``cycle``: the bank must be
        precharged past tRP (a pending auto-precharge retires first), and
        it stays idle for tRFC."""
        if not self.can_activate(cycle):
            raise TimingViolation(
                f"bank {self.index}: REF at {cycle} illegal "
                f"(state={self.state.value}, idle_at={self.idle_at})"
            )
        self.idle_at = cycle + self.timing.t_rfc + 1

    # ------------------------------------------------------------------ #

    def _apply_auto_precharge(self, cycle: int) -> None:
        """Retire a pending auto-precharge once its self-timed window ends."""
        if self.auto_precharge_at is not None and cycle >= self.auto_precharge_at:
            self.state = BankState.IDLE
            self.open_row = None
            self.idle_at = self.auto_precharge_at
            self.auto_precharge_at = None
            self.precharges += 1

    def row_is_open(self, row: int, cycle: int) -> bool:
        self._apply_auto_precharge(cycle)
        return (
            self.state is BankState.ACTIVE
            and self.open_row == row
            and self.auto_precharge_at is None
        )
