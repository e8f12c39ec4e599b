"""Independent DDR protocol checker.

:class:`ProtocolChecker` replays a timestamped command log against the
JEDEC-style constraints of a :class:`~repro.dram.timing.DramTiming` and
reports every violation.  It shares **no code** with the
:class:`~repro.dram.device.SdramDevice` legality logic, so it serves as a
redundant referee: the test suite drives random traffic through the
command engine while the checker audits the emitted command stream, the
way an RTL testbench pairs a DUT with an independent protocol monitor.

Checked rules:

* one command per cycle on the shared command bus;
* ACT only to an idle (precharged) bank, tRP/tRC honoured;
* tRRD between ACTs to different banks;
* CAS only to an activated bank after tRCD, row must match the open row;
* tCCD and data-bus occupancy between CAS commands;
* write-to-read (tWTR) and read-to-write turnaround gaps;
* PRE only after tRAS and after read/write recovery (tRTP / tWR);
* auto-precharge closes the bank; no further CAS until re-activation;
* REF only with every bank precharged past tRP and the data bus idle;
  no ACT or REF within tRFC of a REF.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .commands import CommandKind, DramCommand
from .timing import DramTiming


@dataclass(frozen=True)
class Violation:
    """One protocol violation found in a command log."""

    cycle: int
    command: str
    rule: str
    detail: str

    def __str__(self) -> str:
        return f"@{self.cycle} {self.command}: {self.rule} — {self.detail}"


@dataclass
class _BankAudit:
    """Checker-side view of one bank's state."""

    active: bool = False
    open_row: Optional[int] = None
    act_cycle: int = -(10 ** 9)
    idle_at: int = 0            # earliest legal re-ACT
    pre_ok_at: int = 0          # earliest legal PRE
    ap_pending_until: Optional[int] = None


class ProtocolChecker:
    """Replays (cycle, command) logs and collects violations."""

    def __init__(self, timing: DramTiming) -> None:
        self.timing = timing
        self.violations: List[Violation] = []
        self._banks: Dict[int, _BankAudit] = {
            index: _BankAudit() for index in range(timing.banks)
        }
        self._last_command_cycle: Optional[int] = None
        self._last_act_cycle = -(10 ** 9)
        self._last_refresh_cycle = -(10 ** 9)
        self._next_cas_ok = 0
        self._bus_free_at = 0
        self._last_write_data_end = -(10 ** 9)
        self._last_read_data_end = -(10 ** 9)

    # ------------------------------------------------------------------ #

    def check(self, log: List[Tuple[int, DramCommand]]) -> List[Violation]:
        """Audit a chronologically ordered (cycle, command) log."""
        previous = -1
        for cycle, command in log:
            if cycle < previous:
                self._flag(cycle, command, "log-order",
                           "commands must be chronologically ordered")
            previous = max(previous, cycle)
            self._step(cycle, command)
        return self.violations

    # ------------------------------------------------------------------ #

    def _flag(self, cycle: int, command: DramCommand, rule: str, detail: str):
        self.violations.append(Violation(cycle, str(command), rule, detail))

    def _apply_ap(self, bank: _BankAudit, cycle: int) -> None:
        if bank.ap_pending_until is not None and cycle >= bank.ap_pending_until:
            bank.active = False
            bank.open_row = None
            bank.idle_at = bank.ap_pending_until
            bank.ap_pending_until = None

    def _step(self, cycle: int, command: DramCommand) -> None:
        if command.kind is CommandKind.NOP:
            return
        if self._last_command_cycle is not None and cycle == self._last_command_cycle:
            self._flag(cycle, command, "command-bus",
                       "two commands in the same cycle")
        self._last_command_cycle = cycle
        if command.kind is CommandKind.REFRESH:
            self._check_refresh(cycle, command)
            return

        bank = self._banks.get(command.bank)
        if bank is None:
            self._flag(cycle, command, "bank-range",
                       f"device has {self.timing.banks} banks")
            return
        self._apply_ap(bank, cycle)

        if command.kind is CommandKind.ACTIVATE:
            self._check_activate(cycle, command, bank)
        elif command.kind is CommandKind.PRECHARGE:
            self._check_precharge(cycle, command, bank)
        else:
            self._check_cas(cycle, command, bank)

    def _check_activate(self, cycle: int, command: DramCommand, bank: _BankAudit):
        if bank.active or bank.ap_pending_until is not None:
            self._flag(cycle, command, "act-on-active",
                       "bank must be precharged before ACT")
        if cycle < bank.idle_at:
            self._flag(cycle, command, "tRP",
                       f"bank idle at {bank.idle_at}")
        if cycle - self._last_act_cycle < self.timing.t_rrd:
            self._flag(cycle, command, "tRRD",
                       f"last ACT at {self._last_act_cycle}")
        self._check_trfc(cycle, command)
        bank.active = True
        bank.open_row = command.row
        bank.act_cycle = cycle
        bank.pre_ok_at = cycle + self.timing.t_ras
        self._last_act_cycle = cycle

    def _check_precharge(self, cycle: int, command: DramCommand, bank: _BankAudit):
        if not bank.active:
            self._flag(cycle, command, "pre-on-idle",
                       "bank is not active")
            return
        if cycle < bank.pre_ok_at:
            self._flag(cycle, command, "tRAS/recovery",
                       f"PRE legal at {bank.pre_ok_at}")
        bank.active = False
        bank.open_row = None
        bank.idle_at = cycle + self.timing.t_rp

    def _check_refresh(self, cycle: int, command: DramCommand):
        for index, bank in self._banks.items():
            self._apply_ap(bank, cycle)
            if bank.active or bank.ap_pending_until is not None:
                self._flag(cycle, command, "ref-on-active",
                           f"bank {index} must be precharged before REF")
            elif cycle < bank.idle_at:
                self._flag(cycle, command, "tRP",
                           f"bank {index} idle at {bank.idle_at}")
        if cycle < self._bus_free_at:
            self._flag(cycle, command, "data-bus",
                       f"bus busy until {self._bus_free_at - 1}")
        self._check_trfc(cycle, command)
        self._last_refresh_cycle = cycle

    def _check_trfc(self, cycle: int, command: DramCommand):
        if cycle - self._last_refresh_cycle <= self.timing.t_rfc:
            self._flag(cycle, command, "tRFC",
                       f"REF at {self._last_refresh_cycle}")

    def _check_cas(self, cycle: int, command: DramCommand, bank: _BankAudit):
        timing = self.timing
        if not bank.active or bank.ap_pending_until is not None:
            self._flag(cycle, command, "cas-on-idle",
                       "bank has no open row")
            return
        if command.row is not None and command.row != bank.open_row:
            self._flag(cycle, command, "row-mismatch",
                       f"open row is {bank.open_row}")
        if cycle - bank.act_cycle < timing.t_rcd:
            self._flag(cycle, command, "tRCD",
                       f"ACT at {bank.act_cycle}")
        if cycle < self._next_cas_ok:
            self._flag(cycle, command, "tCCD/data-bus",
                       f"next CAS legal at {self._next_cas_ok}")
        latency = timing.write_latency if command.is_write else timing.cas_latency
        data_start = cycle + latency
        data_end = data_start + timing.burst_cycles(command.burst_beats) - 1
        if data_start < self._bus_free_at:
            self._flag(cycle, command, "data-bus",
                       f"bus busy until {self._bus_free_at - 1}")
        if command.is_read and cycle <= self._last_write_data_end + timing.t_wtr:
            self._flag(cycle, command, "tWTR",
                       f"write data ended at {self._last_write_data_end}")
        if command.is_write and data_start <= self._last_read_data_end + timing.t_rtw:
            self._flag(cycle, command, "read-to-write",
                       f"read data ended at {self._last_read_data_end}")

        recovery = timing.t_wr if command.is_write else 0
        bank.pre_ok_at = max(bank.pre_ok_at, data_end + recovery + 1)
        if command.auto_precharge:
            bank.ap_pending_until = data_end + recovery + timing.t_rp + 1
        self._next_cas_ok = cycle + max(
            timing.t_ccd, timing.burst_cycles(command.burst_beats)
        )
        self._bus_free_at = data_end + 1
        if command.is_write:
            self._last_write_data_end = data_end
        else:
            self._last_read_data_end = data_end

    @property
    def clean(self) -> bool:
        return not self.violations


def audit_engine(engine, requests, max_cycles: int = 20_000):
    """Drive ``requests`` through ``engine`` while logging every command,
    then audit the log.  Returns (finished, violations)."""
    log: List[Tuple[int, DramCommand]] = []
    pending = deque(requests)
    finished = []
    cycle = 0
    while (pending or not engine.idle) and cycle < max_cycles:
        if pending and engine.has_space:
            engine.accept(pending.popleft(), cycle)
        command = engine.tick(cycle)
        if command is not None:
            log.append((cycle, command))
        finished.extend(engine.drain_finished())
        cycle += 1
    checker = ProtocolChecker(engine.device.timing)
    violations = checker.check(log)
    return finished, violations
