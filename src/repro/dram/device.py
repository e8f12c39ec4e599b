"""Cycle-level multi-bank SDRAM device model.

Models the device-global resources the paper's scheduling conditions hinge
on (Section III-A):

* a single shared **command bus** — one command per cycle, which is what
  makes short bursts command-bound without auto-precharge (Fig. 5);
* a single shared bidirectional **data bus** — back-to-back read/write in
  opposite directions collide, so turnaround gaps (tWTR / read-to-write) are
  enforced: the paper's *data contention*;
* per-bank row buffers and activate/precharge timing — *bank conflict* and
  *short turn-around bank interleaving*;
* tCCD between CAS commands — why DDR III behaves like BL 8 even when
  issuing BL 4 bursts (Section V-A);
* tRFC after an all-bank REF, which needs every bank precharged and the
  data bus idle (refresh is opt-in, see :mod:`repro.dram.refresh`).

The device does not interpret addresses or store data — workloads are
synthetic — but it faithfully accounts when every data beat moves, which is
what latency and utilization are computed from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..obs.events import EventType
from ..sim.stats import StatsCollector
from .bank import Bank, BankState, TimingViolation
from .commands import CommandKind, DramCommand
from .timing import DramTiming


@dataclass(frozen=True)
class BurstCompletion:
    """Outcome of an accepted CAS: when its data finishes on the bus."""

    request_id: Optional[int]
    is_read: bool
    data_start: int
    data_end: int
    useful_beats: int
    burst_beats: int


class SdramDevice:
    """One DDR SDRAM device behind a single command/data bus pair."""

    def __init__(
        self,
        timing: DramTiming,
        stats: Optional[StatsCollector] = None,
        tracer=None,
    ):
        self.timing = timing
        self.stats = stats
        self.tracer = tracer
        self.banks: List[Bank] = [Bank(i, timing) for i in range(timing.banks)]
        self._last_command_cycle = -1
        self._next_cas_ok = 0              # tCCD across all banks
        self._next_act_ok = 0              # tRRD across banks
        self._bus_free_at = 0              # first cycle the data bus is free
        self._last_data_was_write = False
        self._last_write_data_end = -1
        self._last_read_data_end = -1
        self.issued_commands = 0

    # ------------------------------------------------------------------ #
    # Legality
    # ------------------------------------------------------------------ #

    def can_issue(self, cycle: int, command: DramCommand) -> bool:
        """True iff ``command`` violates no constraint at ``cycle``."""
        if command.kind is CommandKind.NOP:
            return True
        if cycle <= self._last_command_cycle:
            return False  # one command per cycle on the shared command bus
        if not 0 <= command.bank < len(self.banks):
            return False
        bank = self.banks[command.bank]
        if command.kind is CommandKind.ACTIVATE:
            return cycle >= self._next_act_ok and bank.can_activate(cycle)
        if command.kind is CommandKind.PRECHARGE:
            return bank.can_precharge(cycle)
        if command.kind is CommandKind.REFRESH:
            # All banks precharged past tRP (or tRFC), the data bus idle.
            return cycle >= self._bus_free_at and all(
                bank.can_activate(cycle) for bank in self.banks
            )
        # READ / WRITE
        if command.row is not None and not bank.row_is_open(command.row, cycle):
            return False
        if command.row is None and bank.state is not BankState.ACTIVE:
            return False
        row = command.row if command.row is not None else bank.open_row
        if row is None or not bank.can_cas(cycle, row):
            return False
        # Device-global half: tCCD, a free data bus, bus turnaround.
        if cycle < self._next_cas_ok:
            return False
        timing = self.timing
        if command.is_write:
            data_start = cycle + timing.write_latency
            if data_start < self._bus_free_at:
                return False
            # read -> write bus turnaround (data contention gap)
            last_read = self._last_read_data_end
            return last_read < 0 or data_start > last_read + timing.t_rtw
        if cycle + timing.cas_latency < self._bus_free_at:
            return False
        # write -> read turnaround (tWTR from last write data beat)
        last_write = self._last_write_data_end
        return last_write < 0 or cycle > last_write + timing.t_wtr

    # ------------------------------------------------------------------ #
    # Issue
    # ------------------------------------------------------------------ #

    def issue(self, cycle: int, command: DramCommand) -> Optional[BurstCompletion]:
        """Apply ``command`` at ``cycle``; return the burst completion for CAS."""
        if not self.can_issue(cycle, command):
            raise TimingViolation(f"cannot issue {command} at cycle {cycle}")
        if command.kind.is_cas:
            self.timing.validate_burst(command.burst_beats)
        return self._apply(cycle, command)

    def issue_vetted(self, cycle: int, command: DramCommand) -> Optional[BurstCompletion]:
        """Apply a command the caller has vetted at ``cycle`` against the
        registers :meth:`can_issue` reads, in a burst length the device
        supports — skips the redundant checks :meth:`issue` would run.
        The independent :class:`~repro.dram.protocol.ProtocolChecker`
        still audits the resulting command stream in the test suite."""
        return self._apply(cycle, command)

    def _apply(self, cycle: int, command: DramCommand) -> Optional[BurstCompletion]:
        if command.kind is CommandKind.NOP:
            return None
        self._last_command_cycle = cycle
        self.issued_commands += 1
        bank = self.banks[command.bank]
        if self.stats is not None:
            # ``_value_``: what ``Enum.value`` returns, minus its call.
            self.stats.record_command(cycle, command.kind._value_)

        if command.kind is CommandKind.ACTIVATE:
            assert command.row is not None
            bank.activate(cycle, command.row)
            self._next_act_ok = cycle + self.timing.t_rrd
            return None

        if command.kind is CommandKind.PRECHARGE:
            bank.precharge(cycle)
            return None

        if command.kind is CommandKind.REFRESH:
            for bank in self.banks:
                bank.refresh(cycle)
            return None

        # READ / WRITE burst
        row = command.row if command.row is not None else bank.open_row
        assert row is not None
        burst_cycles = self.timing.burst_cycles(command.burst_beats)
        latency = (
            self.timing.write_latency if command.is_write
            else self.timing.cas_latency
        )
        data_start = cycle + latency
        data_end = data_start + burst_cycles - 1
        bank.cas(cycle, row, command.is_write, data_end, command.auto_precharge)
        self._next_cas_ok = cycle + max(self.timing.t_ccd, burst_cycles)
        self._bus_free_at = data_end + 1
        if command.is_write:
            self._last_write_data_end = data_end
        else:
            self._last_read_data_end = data_end
        completion = BurstCompletion(
            request_id=command.request_id,
            is_read=command.is_read,
            data_start=data_start,
            data_end=data_end,
            useful_beats=command.useful_beats,
            burst_beats=command.burst_beats,
        )
        if self.stats is not None:
            self.stats.record_burst(
                data_start, command.useful_beats, command.burst_beats
            )
        tracer = self.tracer
        if tracer:
            tracer.emit(
                EventType.DATA_BEAT,
                data_start,
                f"bank{command.bank}",
                request_id=command.request_id,
                data_end=data_end,
                beats=command.burst_beats,
                useful=command.useful_beats,
                write=command.is_write,
            )
        return completion
