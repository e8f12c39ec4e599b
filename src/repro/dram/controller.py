"""SDRAM command engine and page policies.

The paper's memory subsystem (Fig. 6) is a pipeline of PRE / RAS / CAS
buffers feeding a command scheduler: several requests are in flight at
different stages so that bank preparation (ACT/PRE) for request *n+1*
overlaps the data burst of request *n* — the bank-interleaving pipelining of
Section III-A.  :class:`CommandEngine` models that pipeline as a small
in-order window:

* CAS commands are issued strictly in request order (in-order service — the
  reorder decisions were already made upstream, by the NoC routers or by the
  MemMax front-end);
* ACT and PRE for younger window entries may issue early, overlapping older
  bursts, provided they do not steal a row an older un-served entry needs.

Each command issues as soon as the bank and bus timing registers allow
(:mod:`repro.dram.bank`).  The engine is its device's only driver, so only
an accept or an issue moves a register; a pending auto-precharge retires
at a cycle it already names.  So the engine *plans* instead of polling:
one pass over the window gives the earliest cycle any command can issue
and the command the CAS > ACT > PRE order picks there.  The plan is cached
until the next accept or issue; :meth:`CommandEngine.tick` returns at once
before its cycle and issues it there, and
:meth:`CommandEngine.next_event_cycle` reports that cycle as an exact
wake.

Refresh is opt-in (assign a :class:`~repro.dram.refresh.RefreshTimer` to
``engine.refresh`` before the run).  A refresh due at or before the
planned command takes its place: the plan becomes a PRE for each open
bank in turn, then a REF once every bank is closed past tRP and the data
bus is free.  The REF issues like any other command, and the device holds
the banks idle for tRFC.

Page policies (Section IV-C):

* ``OPEN_PAGE`` — banks stay open; conflicts pay a demand PRE (CONV, [4]);
* ``CLOSED_PAGE`` — every CAS carries auto-precharge;
* ``PARTIALLY_OPEN`` — the paper's policy: banks stay open, except a CAS
  whose request carries the SAGM *AP tag* (last short packet split from a
  long packet) closes the bank via auto-precharge.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass, field
from typing import List, Optional

from ..obs.events import EventType
from .bank import BankState
from .commands import CommandKind, DramCommand
from .device import SdramDevice
from .refresh import RefreshTimer
from .request import MemoryRequest

#: Plan cycle of an empty window: nothing issues before an accept.
_NEVER = sys.maxsize


class PagePolicy(enum.Enum):
    OPEN_PAGE = "open"
    CLOSED_PAGE = "closed"
    PARTIALLY_OPEN = "partially-open"


@dataclass
class WindowEntry:
    """One request moving through the PRE/RAS/CAS pipeline."""

    request: MemoryRequest
    accepted_cycle: int
    beats_remaining: int = field(init=False)
    next_column: int = field(init=False)
    bursts_issued: int = 0
    last_data_end: int = -1
    required_act: bool = False  # this entry paid for its own row activation

    def __post_init__(self) -> None:
        self.beats_remaining = self.request.beats
        self.next_column = self.request.column

    @property
    def cas_done(self) -> bool:
        return self.beats_remaining <= 0


@dataclass(frozen=True)
class FinishedRequest:
    """A request whose final data beat has a known bus cycle."""

    request: MemoryRequest
    data_ready_cycle: int


class CommandEngine:
    """In-order windowed PRE/RAS/CAS issue engine over one SDRAM device."""

    # The cached plan: the cycle the next command issues (-1 = replan) and
    # that command's kind and window entry; refresh work has no entry and
    # names its bank.  Derived state, so class-level defaults: an engine
    # restored from a snapshot without them replans.
    _plan_at = -1
    _plan_kind: Optional[CommandKind] = None
    _plan_entry: Optional[WindowEntry] = None
    _plan_bank = 0

    def __init__(
        self,
        device: SdramDevice,
        burst_beats: int,
        page_policy: PagePolicy = PagePolicy.OPEN_PAGE,
        window: int = 4,
        otf: bool = False,
        refresh: Optional[RefreshTimer] = None,
        tracer=None,
    ) -> None:
        """``burst_beats`` is the device BL mode; with ``otf`` (DDR III
        BL4/BL8 on-the-fly) a trailing short chunk uses BL 4 instead.
        ``refresh`` opts into periodic auto-refresh (off by default, as in
        the paper's evaluation)."""
        if window <= 0:
            raise ValueError("window must be positive")
        # Every burst length this engine can issue, checked once here: the
        # device's vetted issue path does not re-check it.
        device.timing.validate_burst(burst_beats)
        if otf:
            device.timing.validate_burst(4)
        self.device = device
        self.burst_beats = burst_beats
        self.page_policy = page_policy
        self.window_size = window
        self.otf = otf
        self.refresh = refresh
        self.entries: List[WindowEntry] = []
        self.finished: List[FinishedRequest] = []
        self.demand_precharges = 0
        self.tracer = tracer

    # ------------------------------------------------------------------ #

    @property
    def has_space(self) -> bool:
        return len(self.entries) < self.window_size

    def accept(self, request: MemoryRequest, cycle: int) -> None:
        if not self.has_space:
            raise RuntimeError("command engine window full")
        if not 0 <= request.bank < len(self.device.banks):
            raise ValueError(
                f"request addresses bank {request.bank} but the device has "
                f"{len(self.device.banks)} banks"
            )
        self.entries.append(WindowEntry(request, cycle))
        self._plan_at = -1

    @property
    def pending(self) -> int:
        return len(self.entries)

    @property
    def idle(self) -> bool:
        return not self.entries

    def drain_finished(self) -> List[FinishedRequest]:
        if not self.finished:
            return self.finished
        done, self.finished = self.finished, []
        return done

    # ------------------------------------------------------------------ #
    # One command per cycle
    # ------------------------------------------------------------------ #

    def tick(self, cycle: int) -> Optional[DramCommand]:
        """Issue at most one command; retire fully-served entries."""
        if cycle < self._plan_at:
            return None
        if cycle > self._plan_at:
            # No plan, or one for a cycle this engine was not ticked on:
            # more commands may be legal by now.
            self._plan(cycle)
            if cycle < self._plan_at:
                return None
        return self._issue(cycle)

    def _issue(self, cycle: int) -> DramCommand:
        """Issue the planned command: it passes every check
        :meth:`SdramDevice.can_issue` makes at ``cycle``, so the vetted
        path skips the re-check."""
        kind = self._plan_kind
        entry = self._plan_entry
        self._plan_at = -1
        if entry is None:
            # Refresh work: a PRE closing a bank for it, or the REF.
            command = DramCommand(kind=kind, bank=self._plan_bank)
            if kind is CommandKind.REFRESH:
                self.refresh.issued(cycle)
        elif kind is CommandKind.ACTIVATE:
            request = entry.request
            entry.required_act = True
            command = DramCommand(
                kind=kind, bank=request.bank, row=request.row
            )
        elif kind is CommandKind.PRECHARGE:
            self.demand_precharges += 1
            command = DramCommand(kind=kind, bank=entry.request.bank)
        else:
            request = entry.request
            burst = self._burst_for(entry)
            last_burst = entry.beats_remaining <= burst
            command = DramCommand(
                kind=kind,
                bank=request.bank,
                row=request.row,
                column=entry.next_column,
                burst_beats=burst,
                auto_precharge=last_burst and self._wants_auto_precharge(request),
                useful_beats=min(entry.beats_remaining, burst),
                request_id=request.request_id,
            )
        completion = self.device.issue_vetted(cycle, command)
        tracer = self.tracer
        if tracer:
            tracer.emit(
                EventType.DRAM_CMD,
                cycle,
                f"bank{command.bank}",
                request_id=command.request_id,
                kind=kind.value,
                row=command.row,
            )
        if completion is not None:
            # In-order data: the CAS always serves the oldest entry.
            if entry.bursts_issued == 0 and self.device.stats is not None:
                self.device.stats.record_row_outcome(
                    cycle, hit=not entry.required_act, bank=command.bank
                )
            entry.bursts_issued += 1
            entry.beats_remaining -= completion.useful_beats
            entry.next_column += command.burst_beats
            entry.last_data_end = completion.data_end
            if entry.cas_done:
                self.finished.append(
                    FinishedRequest(request, entry.last_data_end)
                )
                del self.entries[0]
        return command

    def _burst_for(self, entry: WindowEntry) -> int:
        if self.otf and entry.beats_remaining <= 4:
            return 4
        return self.burst_beats

    def _wants_auto_precharge(self, request: MemoryRequest) -> bool:
        if self.page_policy is PagePolicy.CLOSED_PAGE:
            return True
        if self.page_policy is PagePolicy.PARTIALLY_OPEN:
            return request.ap_tag
        return False

    # ------------------------------------------------------------------ #
    # The plan: earliest legal command, CAS > ACT > PRE
    # ------------------------------------------------------------------ #

    def _plan(self, cycle: int) -> None:
        """Plan the next command at or after ``cycle`` and the
        one-command-per-cycle floor.

        Candidates: CAS for the head entry while its row is open (in-order
        data); ACT or PRE for the first entry per bank, oldest first — the
        first is its bank's oldest, so no older entry needs the row a PRE
        closes.  Each candidate's cycle is the latest of its registers; a
        bank with a pending auto-precharge self-closes at
        ``auto_precharge_at``, and its first entry's ACT is due from then.
        The earliest candidate wins, CAS > ACT > PRE and older first on a
        tie, as if every cycle up to it had been polled.  A refresh due
        by then replaces it with refresh work (:meth:`_plan_refresh`).
        """
        device = self.device
        floor = device._last_command_cycle + 1
        if floor < cycle:
            floor = cycle
        refresh = self.refresh
        if refresh is not None and refresh.next_due_cycle <= floor:
            self._plan_refresh(floor)
            return
        entries = self.entries
        if not entries:
            if refresh is None:
                self._plan_at = _NEVER
            else:
                self._plan_refresh(refresh.next_due_cycle)
            return
        banks = device.banks
        best = _NEVER
        head = entries[0]
        request = head.request
        bank = banks[request.bank]
        if (
            bank.state is BankState.ACTIVE
            and bank.open_row == request.row
            and bank.auto_precharge_at is None
        ):
            timing = device.timing
            if request.is_write:
                latency = timing.write_latency
                turnaround = device._last_read_data_end
                if turnaround >= 0:
                    turnaround += timing.t_rtw - latency + 1
            else:
                latency = timing.cas_latency
                turnaround = device._last_write_data_end
                if turnaround >= 0:
                    turnaround += timing.t_wtr + 1
            best = max(
                floor, bank.cas_ready_at, device._next_cas_ok,
                device._bus_free_at - latency, turnaround,
            )
            self._plan_kind = (
                CommandKind.WRITE if request.is_write else CommandKind.READ
            )
            self._plan_entry = head
            if best == floor:
                self._plan_at = best
                return
        act_ok = device._next_act_ok
        pre_at = _NEVER
        pre_entry = None
        seen = 0  # bitmask of banks whose first entry was considered
        for entry in entries:
            request = entry.request
            bit = 1 << request.bank
            if seen & bit:
                continue
            seen |= bit
            bank = banks[request.bank]
            at = bank.auto_precharge_at
            if at is None:
                if bank.state is BankState.ACTIVE:
                    if bank.open_row != request.row:
                        at = bank.precharge_ok_at
                        if at < floor:
                            at = floor
                        if at < pre_at:
                            pre_at = at
                            pre_entry = entry
                    continue
                at = bank.idle_at
            if at < act_ok:
                at = act_ok
            if at < floor:
                at = floor
            if at < best:
                best = at
                self._plan_kind = CommandKind.ACTIVATE
                self._plan_entry = entry
                if at == floor:
                    break  # nothing younger or a PRE can beat it
        if pre_at < best:
            best = pre_at
            self._plan_kind = CommandKind.PRECHARGE
            self._plan_entry = pre_entry
        if refresh is not None and refresh.next_due_cycle <= best:
            self._plan_refresh(refresh.next_due_cycle)
            return
        self._plan_at = best

    def _plan_refresh(self, start: int) -> None:
        """Plan the due refresh's next command at or after ``start`` (past
        the one-command-per-cycle floor): a PRE for the open bank that can
        close first, lowest index on a tie, or once every bank is closed
        past tRP and the data bus is free, the REF.  A bank with a pending
        auto-precharge closes by itself at ``auto_precharge_at``."""
        device = self.device
        pre_at = _NEVER
        quiet = max(start, device._bus_free_at)
        for bank in device.banks:
            at = bank.auto_precharge_at
            if at is None:
                if bank.state is BankState.ACTIVE:
                    at = max(start, bank.precharge_ok_at)
                    if at < pre_at:
                        pre_at = at
                        self._plan_bank = bank.index
                    continue
                at = bank.idle_at
            if at > quiet:
                quiet = at
        self._plan_entry = None
        if pre_at < _NEVER:
            self._plan_kind = CommandKind.PRECHARGE
            self._plan_at = pre_at
        else:
            self._plan_kind = CommandKind.REFRESH
            self._plan_bank = 0
            self._plan_at = quiet

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """Event dispatch: the next cycle :meth:`tick` issues a command,
        refresh work included, absent new accepts (``None`` = never).
        Exact: it is the cached plan, so no tick before it changes
        anything, and that one does."""
        floor = cycle + 1
        if self._plan_at < floor:
            self._plan(floor)
        at = self._plan_at
        return None if at == _NEVER else at
