"""Token bookkeeping for the GSS flow control algorithm (Algorithm 1).

Every memory-request packet queued at a GSS flow controller holds a token
count ``t_i``:

* when a new packet arrives, every already-queued packet gains one token
  (line 3 — aging, for starvation freedom);
* a new best-effort packet starts with one token (line 11);
* a new priority packet starts with the *priority control token* PCT,
  a user knob between 2 and 6 (line 9) — PCT=1 would degenerate to a
  priority-equal scheduler and PCT=max to a priority-first scheduler;
* when a new priority packet arrives, older best-effort packets addressing
  the *same bank* are excluded from scheduling until that priority packet
  has been scheduled (lines 4–6).

The exclusion is scoped to packets waiting in *other* input buffers than
the priority packet's own: with in-order (wormhole) input buffers, a packet
queued ahead of the priority packet in the same buffer must drain for the
priority packet to reach the arbiter at all, so excluding it would deadlock
the channel.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

from ..noc.packet import Packet
from ..noc.topology import Port

#: Maximum token tier of the Fig. 4 filter chains.
MAX_TOKENS = 6

#: Arrival aging saturates here (tier 4: bank conflict and data contention
#: still enforced).  The permissive tiers 5-6 are reachable only through the
#: Algorithm 1 line 19-24 escape loop, i.e. when nothing else can be
#: scheduled at all — so mere queue age never schedules a bank conflict
#: while a conflict-free alternative exists.
ARRIVAL_AGING_CAP = 4


class TokenEntry(NamedTuple):
    """Per-queued-packet scheduling state.

    Arrival aging (line 3) is not written back: an entry keeps the tokens
    it arrived with and its arrival sequence number, and its tokens are
    read off the table's arrival counter (:meth:`TokenTable.tokens`), so
    an arrival costs the same however many packets are queued.
    """

    packet: Packet
    port: Port
    initial: int
    #: Value of the table's arrival counter once this packet had arrived.
    sequence: int
    arrival_cycle: int


class TokenTable:
    """Tracks tokens and priority-exclusion state for one GSS controller."""

    def __init__(self, pct: int) -> None:
        if not 1 <= pct <= MAX_TOKENS:
            raise ValueError(f"PCT must be in 1..{MAX_TOKENS}, got {pct}")
        self.pct = pct
        self._entries: Dict[int, TokenEntry] = {}
        #: Packets that ever arrived here: each one after an entry's own
        #: arrival aged that entry by one token (up to the cap).
        self._arrived = 0
        # Pending (not yet scheduled) priority packets: id -> (bank, port).
        self._pending_priority: Dict[int, Tuple[int, Port]] = {}

    # ------------------------------------------------------------------ #
    # Algorithm 1, lines 1-13: arrival
    # ------------------------------------------------------------------ #

    def on_arrival(self, port: Port, packet: Packet, cycle: int) -> None:
        if packet.request is None:
            raise ValueError("token table only tracks memory request packets")
        self._arrived += 1
        priority = packet.is_priority
        self._entries[packet.packet_id] = TokenEntry(
            packet, port, self.pct if priority else 1, self._arrived, cycle
        )
        if priority:
            self._pending_priority[packet.packet_id] = (packet.request.bank, port)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def entry(self, packet: Packet) -> TokenEntry:
        found = self._entries.get(packet.packet_id)
        if found is None:
            raise KeyError(f"packet {packet.packet_id} not tracked")
        return found

    def tokens(self, packet: Packet) -> int:
        """Line 3 aging: one token per later arrival, up to
        :data:`ARRIVAL_AGING_CAP`; an entry that arrived at or above the
        cap keeps its tokens."""
        found = self._entries[packet.packet_id]
        initial = found.initial
        if initial >= ARRIVAL_AGING_CAP:
            return initial
        aged = initial + self._arrived - found.sequence
        return aged if aged < ARRIVAL_AGING_CAP else ARRIVAL_AGING_CAP

    def is_excluded(self, packet: Packet, port: Port) -> bool:
        """Lines 4-6: best-effort packet blocked by a same-bank pending
        priority packet waiting in a *different* input buffer."""
        if not self._pending_priority:
            return False
        if packet.is_priority or packet.request is None:
            return False
        bank = packet.request.bank
        return any(
            p_bank == bank and p_port != port
            for p_bank, p_port in self._pending_priority.values()
        )

    # ------------------------------------------------------------------ #
    # Retirement
    # ------------------------------------------------------------------ #

    def on_scheduled(self, packet: Packet) -> None:
        self._entries.pop(packet.packet_id, None)
        self._pending_priority.pop(packet.packet_id, None)

    def __len__(self) -> int:
        return len(self._entries)

    # --- introspection (invariant checking) --------------------------- #

    def tracked_packet_ids(self) -> set:
        return set(self._entries)

    def token_counts(self) -> List[Tuple[int, Packet]]:
        return [(self.tokens(e.packet), e.packet) for e in self._entries.values()]
