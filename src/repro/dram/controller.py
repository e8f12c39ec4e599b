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

Page policies (Section IV-C):

* ``OPEN_PAGE`` — banks stay open; conflicts pay a demand PRE (CONV, [4]);
* ``CLOSED_PAGE`` — every CAS carries auto-precharge;
* ``PARTIALLY_OPEN`` — the paper's policy: banks stay open, except a CAS
  whose request carries the SAGM *AP tag* (last short packet split from a
  long packet) closes the bank via auto-precharge.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

from ..obs.events import EventType
from .bank import BankState
from .commands import CommandKind, DramCommand
from .device import SdramDevice
from .refresh import RefreshTimer
from .request import MemoryRequest


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
        device.timing.validate_burst(burst_beats)
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
        if self.refresh is not None and self.refresh.enabled:
            blocking = self._refresh_tick(cycle)
            if blocking is not None:
                return blocking
            if self.refresh.in_progress(cycle) or self.refresh.due(cycle):
                return None
        if not self.entries:
            # Every _choose_command branch scans entries; with an empty
            # window no command can be chosen.
            return None
        command = self._choose_command(cycle)
        if command is not None:
            # Every chooser returns a command only after the same checks
            # SdramDevice.can_issue makes at this cycle, so the vetted
            # path skips the re-check.
            completion = self.device.issue_vetted(cycle, command)
            tracer = self.tracer
            if tracer:
                tracer.emit(
                    EventType.DRAM_CMD,
                    cycle,
                    f"bank{command.bank}",
                    request_id=command.request_id,
                    kind=command.kind.value,
                    row=command.row,
                )
            if command.kind.is_cas:
                # In-order data: the CAS always serves the oldest entry.
                entry = self.entries[0]
                assert completion is not None
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
                        FinishedRequest(entry.request, entry.last_data_end)
                    )
                    del self.entries[0]
        return command

    # ------------------------------------------------------------------ #
    # Refresh handling (opt-in)
    # ------------------------------------------------------------------ #

    def _refresh_tick(self, cycle: int) -> Optional[DramCommand]:
        """Drive a due refresh: precharge all banks, wait for quiet, then
        start the all-bank refresh.  Returns a PRE command when one was
        issued this cycle (it occupies the command bus)."""
        assert self.refresh is not None
        if self.refresh.in_progress(cycle) or not self.refresh.due(cycle):
            return None
        # Close any open bank as soon as its timing allows.
        for bank in self.device.banks:
            if bank.is_active:
                command = DramCommand(kind=CommandKind.PRECHARGE, bank=bank.index)
                if self.device.can_issue(cycle, command):
                    self.device.issue_vetted(cycle, command)
                    return command
        quiet = (
            all(not bank.is_active and bank.auto_precharge_at is None
                and cycle >= bank.idle_at
                for bank in self.device.banks)
            and self.device.data_bus_free_at <= cycle
        )
        if quiet:
            done = self.refresh.start(cycle)
            for bank in self.device.banks:
                bank.idle_at = max(bank.idle_at, done + 1)
        return None

    # ------------------------------------------------------------------ #
    # Command selection: CAS (oldest first) > ACT > PRE
    # ------------------------------------------------------------------ #

    def _choose_command(self, cycle: int) -> Optional[DramCommand]:
        if cycle <= self.device._last_command_cycle:
            return None  # one command per cycle on the shared command bus
        cas = self._cas_command(cycle)
        if cas is not None:
            return cas
        act = self._activate_command(cycle)
        if act is not None:
            return act
        return self._precharge_command(cycle)

    # Each chooser checks the bank and device timing registers first and
    # builds a DramCommand only for a command that is legal this cycle:
    # most ticks end in a timing stall, and building and vetting commands
    # that cannot issue would dominate them.

    def _cas_command(self, cycle: int) -> Optional[DramCommand]:
        """CAS for the oldest entry whose row is open (in-order data)."""
        device = self.device
        if cycle < device._next_cas_ok:
            # Device-global tCCD gate, checked before touching the bank.
            return None
        entry = self.entries[0]
        request = entry.request
        bank = device.banks[request.bank]
        if (
            not bank.row_is_open(request.row, cycle)
            or cycle < bank.cas_ready_at
            or not device.cas_bus_ready(cycle, request.is_write)
        ):
            return None
        burst = self._burst_for(entry)
        last_burst = entry.beats_remaining <= burst
        return DramCommand(
            kind=CommandKind.WRITE if request.is_write else CommandKind.READ,
            bank=request.bank,
            row=request.row,
            column=entry.next_column,
            burst_beats=burst,
            auto_precharge=last_burst and self._wants_auto_precharge(request),
            useful_beats=min(entry.beats_remaining, burst),
            request_id=request.request_id,
        )

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

    def _activate_command(self, cycle: int) -> Optional[DramCommand]:
        """ACT for the first entry whose bank is idle (bank-prep overlap)."""
        if cycle < self.device._next_act_ok:
            # Device-global tRRD gate: no ACT can issue this cycle.
            return None
        banks = self.device.banks
        prepared = 0  # bitmask of banks already considered
        for entry in self.entries:
            request = entry.request
            bit = 1 << request.bank
            if prepared & bit:
                continue
            prepared |= bit
            bank = banks[request.bank]
            if bank.row_is_open(request.row, cycle):
                continue
            if bank.can_activate(cycle):
                entry.required_act = True
                return DramCommand(
                    kind=CommandKind.ACTIVATE, bank=request.bank,
                    row=request.row,
                )
        return None

    def _precharge_command(self, cycle: int) -> Optional[DramCommand]:
        """Demand PRE for a bank conflicting with a window entry's row.

        A bank may not be precharged while an older un-served entry still
        needs its currently-open row.
        """
        banks = self.device.banks
        handled = 0  # bitmask of banks already considered
        for index, entry in enumerate(self.entries):
            request = entry.request
            bit = 1 << request.bank
            if handled & bit:
                continue
            handled |= bit
            bank = banks[request.bank]
            if not bank.is_active or bank.open_row == request.row:
                continue
            if self._older_entry_needs_row(index, request.bank, bank.open_row):
                continue
            if bank.can_precharge(cycle):
                self.demand_precharges += 1
                return DramCommand(kind=CommandKind.PRECHARGE, bank=request.bank)
        return None

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """Event-dispatch: next cycle :meth:`tick` could act, absent new
        accepts (``None`` = never).  A refresh that is due or running
        polls every cycle: its phases issue PREs and wait for quiet on
        sub-cycle conditions, and they are rare and short.  Otherwise the
        earlier of the next refresh due cycle and, while the window holds
        entries, :meth:`next_attempt_cycle`."""
        refresh = self.refresh
        due = None
        if refresh is not None and refresh.enabled:
            if refresh.due(cycle) or refresh.in_progress(cycle):
                return cycle + 1
            due = refresh.next_due_cycle
        if not self.entries:
            return due
        nxt = self.next_attempt_cycle(cycle)
        return due if due is not None and due < nxt else nxt

    def next_attempt_cycle(self, cycle: int) -> int:
        """Earliest future cycle :meth:`_choose_command` could return a
        command, assuming no new accepts or external events.

        Event-dispatch support: when the engine stalls on SDRAM timing
        (tRC/tRP/tRCD, bus turnaround, tCCD/tRRD) the memory interface
        sleeps until this cycle instead of polling.  The bound mirrors the
        three choosers and is *conservative-early*: it may wake the engine
        before a command is actually legal (ordering constraints such as
        "an older entry still needs this row" resolve on retirement, which
        is itself an engine activity) — a spurious wake re-stalls
        bit-identically — but it is never later than the true earliest
        issue cycle, because every time-gated threshold of every candidate
        command is included.  Pure: no lazy auto-precharge retirement is
        applied (pending AP windows are read, not retired).
        """
        device = self.device
        banks = device.banks
        timing = device.timing
        floor = cycle + 1
        bound = None
        entries = self.entries
        if not entries:
            return floor
        # CAS: in-order, head entry only, and only while its row is open
        # (a pending auto-precharge will close it — the re-ACT path below
        # covers that bank instead).
        head = entries[0]
        request = head.request
        bank = banks[request.bank]
        if (
            bank.state is BankState.ACTIVE
            and bank.open_row == request.row
            and bank.auto_precharge_at is None
        ):
            latency = (
                timing.write_latency if request.is_write
                else timing.cas_latency
            )
            cas_at = max(
                bank.cas_ready_at,
                device._next_cas_ok,
                device._bus_free_at - latency,
            )
            if request.is_write:
                if device._last_read_data_end >= 0:
                    cas_at = max(
                        cas_at,
                        device._last_read_data_end + timing.t_rtw - latency + 1,
                    )
            elif device._last_write_data_end >= 0:
                cas_at = max(
                    cas_at, device._last_write_data_end + timing.t_wtr + 1
                )
            bound = cas_at
        # ACT / PRE: first entry per bank, as the choosers scan.
        seen = 0
        for index, entry in enumerate(entries):
            request = entry.request
            key = request.bank
            bit = 1 << key
            if seen & bit:
                continue
            seen |= bit
            bank = banks[key]
            if bank.auto_precharge_at is not None:
                # Bank self-closes at the AP window's end, then an ACT
                # for this entry's row becomes the pending command.
                candidate = max(device._next_act_ok, bank.auto_precharge_at)
            elif bank.state is BankState.ACTIVE:
                if bank.open_row == request.row:
                    continue  # row already open: nothing to prepare
                if self._older_entry_needs_row(index, key, bank.open_row):
                    continue  # unblocked by retirement, not by time
                candidate = bank.precharge_ok_at
            else:
                candidate = max(device._next_act_ok, bank.idle_at)
            if bound is None or candidate < bound:
                bound = candidate
        if bound is None:
            # Every bank is order-blocked; retirement (an engine activity)
            # unblocks them, so any wake cycle is safe.
            return floor
        return bound if bound > floor else floor

    def _older_entry_needs_row(self, index: int, bank: int, open_row) -> bool:
        for other in self.entries[:index]:
            if other.request.bank == bank and other.request.row == open_row:
                return True
        return False
