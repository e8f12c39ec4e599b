"""GSS flow controller (Algorithm 1) and the SDRAM-aware baseline [4].

The :class:`GssFlowController` is the paper's guaranteed-SDRAM-service
scheduler for memory-request packets contending for one output channel
toward the memory subsystem.  It composes

* the :class:`~repro.core.tokens.TokenTable` (arrival aging, PCT grant,
  same-bank best-effort exclusion under a pending priority packet), and
* the Fig. 4 tiered filter + ``A ? B ? C`` cascade in
  :mod:`repro.core.gss_filter`,

and, with STI on, maintains the per-bank STI counters: when a packet
finishes delivery to the next router, its bank's counter is set to
``tWR + tRP`` cycles for a write and ``tRP`` for a read (Section IV-B),
counting down implicitly against the current cycle.  Only the Fig. 4(b)
filter reads them, so with STI off a delivery changes nothing here and
the router is given no delivery hook (:meth:`GssFlowController.hooks`).

:class:`SdramAwareFlowController` is the state-of-the-art baseline [4]
expressed in the same machinery: a priority-equal scheduler (every packet
enters with one token; the cascade skips the priority stage; no exclusion),
which the paper itself notes is the PCT=1 degenerate case of GSS.
:class:`PfsMemoryFlowController` wraps either scheduler with a
priority-first bypass, building the CONV+PFS / [4]+PFS comparison points.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..dram.timing import DramTiming
from ..noc.flow_control import Candidate, Hooks, MemoryFlowController
from ..noc.packet import Packet
from ..noc.topology import Port
from ..obs.events import EventType
from .gss_filter import SchedulerState, select
from .tokens import TokenTable


class GssFlowController(MemoryFlowController):
    """Guaranteed SDRAM service flow control (the paper's Algorithm 1)."""

    #: Subclasses override these to get the priority-equal [4] behaviour.
    priority_aware = True
    row_hit_stage = True

    def __init__(
        self,
        timing: DramTiming,
        pct: int = 5,
        sti_enabled: bool = False,
        tracer=None,
        trace_label: str = "gss",
    ) -> None:
        self.sti_enabled = sti_enabled
        self.table = TokenTable(pct=self._initial_pct(pct))
        #: Lines 4-6 are the only refusal of a lone candidate, and only a
        #: pending priority packet excludes anyone: the router vets a
        #: lone request while this map of them is non-empty.
        self.vetoes = self.table._pending_priority
        self.state = SchedulerState()
        # The STI windows a delivery arms: tWR + tRP after a write, tRP
        # after a read.
        self._write_window = timing.write_to_precharge
        self._read_window = timing.read_to_precharge
        if sti_enabled:
            # Same-bank reuse window in scheduled packets: the write
            # turn-around time divided by a typical burst service slot.
            self.state.sti_distance = max(2, -(-self._write_window // 4))
        self.scheduled_count = 0
        self.tracer = tracer
        self.trace_label = trace_label

    def _initial_pct(self, pct: int) -> int:
        return pct

    # ------------------------------------------------------------------ #
    # FlowController interface
    # ------------------------------------------------------------------ #

    def on_arrival(self, port: Port, packet: Packet, cycle: int) -> None:
        self.table.on_arrival(port, packet, cycle)

    def pick(self, candidates: Sequence[Candidate], cycle: int) -> Optional[Candidate]:
        if not candidates:
            return None
        return select(
            self.state,
            self.table,
            candidates,
            cycle,
            sti_enabled=self.sti_enabled,
            priority_aware=self.priority_aware,
            row_hit_stage=self.row_hit_stage,
        )

    def on_scheduled(self, port: Port, packet: Packet, cycle: int) -> None:
        assert packet.request is not None
        self.table.on_scheduled(packet)
        self.state.note_scheduled(packet.request)
        self.scheduled_count += 1
        tracer = self.tracer
        if tracer:
            request = packet.request
            tracer.emit(
                EventType.ARB_GRANT,
                cycle,
                self.trace_label,
                packet_id=packet.packet_id,
                request_id=request.request_id,
                bank=request.bank,
                priority=packet.is_priority,
            )

    def on_delivered(self, packet: Packet, cycle: int) -> None:
        # Only the Fig. 4(b) filter reads the per-bank STI counters.
        if packet.request is None or not self.sti_enabled:
            return
        self.state.note_delivered(
            packet.request, cycle, self._write_window, self._read_window,
        )

    def on_withdrawn(self, packet: Packet, cycle: int) -> None:
        # Adaptive routing: another output claimed the packet; release the
        # token entry and any priority-exclusion it was enforcing.
        self.table.on_scheduled(packet)

    def hooks(self) -> Hooks:
        """Arrivals go straight to the token table, and a delivery needs
        no hook unless STI is on."""
        return (
            self.table.on_arrival,
            self.on_scheduled,
            self.on_delivered if self.sti_enabled else None,
            self.on_withdrawn,
        )

    def tracked_packet_ids(self):
        return self.table.tracked_packet_ids()

    def token_counts(self):
        return self.table.token_counts()


class SdramAwareFlowController(GssFlowController):
    """The SDRAM-aware NoC baseline [4]: priority-equal GSS (PCT = 1).

    [4] schedules oldest-first among SDRAM-friendly candidates; it lacks
    both the priority stage and this paper's row-hit ``T_o(0)`` stage.
    """

    priority_aware = False
    row_hit_stage = False

    def _initial_pct(self, pct: int) -> int:
        return 1

    def on_arrival(self, port: Port, packet: Packet, cycle: int) -> None:
        super().on_arrival(port, packet, cycle)
        # [4] has no priority semantics: drop the exclusion bookkeeping.
        self.table._pending_priority.clear()

    def hooks(self) -> Hooks:
        _, claim, delivery, withdrawal = super().hooks()
        return self.on_arrival, claim, delivery, withdrawal


class PfsMemoryFlowController(MemoryFlowController):
    """Priority-first service in front of an SDRAM-aware scheduler.

    Used for the [4]+PFS configuration: priority packets bypass the SDRAM
    scheduling entirely (oldest priority packet wins unconditionally), and
    best-effort packets fall through to the wrapped scheduler.  This is the
    Fig. 1(c) behaviour whose utilization penalty motivates GSS.
    """

    def __init__(self, inner: GssFlowController) -> None:
        self.inner = inner
        # A lone priority packet always wins; a lone best-effort one is
        # the inner scheduler's to refuse.
        self.vetoes = inner.vetoes

    def on_arrival(self, port: Port, packet: Packet, cycle: int) -> None:
        self.inner.on_arrival(port, packet, cycle)

    def pick(self, candidates: Sequence[Candidate], cycle: int) -> Optional[Candidate]:
        priority = [c for c in candidates if c[1].is_priority]
        if priority:
            return min(priority, key=lambda c: c[1].created_cycle)
        return self.inner.pick(candidates, cycle)

    def on_scheduled(self, port: Port, packet: Packet, cycle: int) -> None:
        self.inner.on_scheduled(port, packet, cycle)

    def on_delivered(self, packet: Packet, cycle: int) -> None:
        self.inner.on_delivered(packet, cycle)

    def on_withdrawn(self, packet: Packet, cycle: int) -> None:
        self.inner.on_withdrawn(packet, cycle)

    def hooks(self) -> Hooks:
        return self.inner.hooks()

    def tracked_packet_ids(self):
        return self.inner.tracked_packet_ids()

    def token_counts(self):
        return self.inner.token_counts()
