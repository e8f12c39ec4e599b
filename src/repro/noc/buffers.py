"""Wormhole input buffering with flit-granular credits.

A packet occupies an :class:`InputBuffer` as a :class:`FlitEntry` whose
flits stream in from the upstream link (1 flit/cycle) and stream out to the
next link, possibly concurrently (cut-through): ``received`` counts flits
committed into the buffer, ``sent`` counts flits already forwarded.  The
buffer is in-order — only the head entry may be forwarded — matching the
paper's wormhole input buffers, and occupancy (``received - sent`` summed
over entries) is bounded by the capacity in flits, which is the credit the
upstream output scheduler checks before moving a flit.

Entries become arbitration candidates as soon as their head flit is
present; a 64-BL enhancer packet therefore pipelines across hops instead of
being stored and forwarded, while still monopolizing each channel it holds
under winner-take-all allocation.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from .packet import Packet


class FlitEntry:
    """One packet's presence in a buffer (possibly partially arrived).

    An output that wins arbitration for the entry claims it in place: the
    entry then names its own ``buffer``, the downstream ``lane`` it was
    granted and, once the first flit has landed there, the ``dst_entry``
    that flit opened.  The claiming output holds the entry itself, so a
    claim allocates nothing.
    """

    __slots__ = (
        "packet", "received", "sent", "claimed", "retiring",
        "buffer", "lane", "dst_entry",
    )

    def __init__(self, packet: Packet, received: int = 0) -> None:
        self.packet = packet
        self.received = received
        self.sent = 0
        self.claimed = False   # an output owns this entry
        self.retiring = False  # its final flit is planned to move this cycle

    @property
    def resident_flits(self) -> int:
        return self.received - self.sent

    @property
    def fully_received(self) -> bool:
        return self.received >= self.packet.size_flits

    def __repr__(self) -> str:
        return (
            f"FlitEntry({self.packet}, received={self.received}, "
            f"sent={self.sent}, claimed={self.claimed})"
        )


class InputBuffer:
    """Bounded in-order wormhole buffer (one writer, one reader)."""

    def __init__(self, capacity_flits: int, max_packets: Optional[int] = None) -> None:
        """``max_packets`` additionally bounds how many packets may occupy
        the buffer at once (a request-queue depth, as in a slave NI)."""
        if capacity_flits <= 0:
            raise ValueError("capacity must be positive")
        if max_packets is not None and max_packets <= 0:
            raise ValueError("max_packets must be positive")
        self.capacity_flits = capacity_flits
        self.max_packets = max_packets
        self.entries: Deque[FlitEntry] = deque()
        #: Packet slots an upstream router claimed for packets whose first
        #: flit has not landed yet (taken at the claim, given back when
        #: that flit opens the packet's entry here).
        self._reserved_slots = 0
        #: Optional shared occupancy cell (a one-element int list) the
        #: owning router installs across its input buffers, so its idle
        #: check is O(1) instead of a scan over every lane's entries.
        self.entry_tally: Optional[List[int]] = None
        #: Packets whose head entered since the owning router's last plan
        #: (token registration).  The router installs the list together
        #: with ``entry_tally``; NI-facing sinks have neither, so they
        #: keep nothing per delivered packet.
        self._arrivals: Optional[List[Packet]] = None
        # Resident flits, maintained incrementally (here and in the
        # router's commit loop, which moves every flit between links), so
        # the hot-path credit checks are O(1) instead of a sum over
        # entries.
        self._occupancy = 0
        #: Highest flit occupancy ever reached (telemetry): queue depth at
        #: the congested memory funnel, not just flit throughput.
        self.highwater_flits = 0
        #: Event-dispatch hooks (installed by the owning components, None
        #: when unused): ``wake_consumer`` fires when new data lands here
        #: (an NI pushes a whole packet, or the router's commit loop
        #: delivers a packet's tail flit to an NI sink, since NIs consume
        #: complete packets only); ``wake_credit`` fires when an NI pops
        #: a packet, freeing its flits and its slot.
        self.wake_consumer = None
        self.wake_credit = None
        #: When the wake hook target is a router, the router itself.  The
        #: router commit loop then sets its bit in the network's awake
        #: mask directly, and only on the events that can change its
        #: arbitration: an entry opening here (not its later flits) for
        #: the consumer, this lane going from full to not full for the
        #: upstream router.  During a network tick the engine re-arms the
        #: network from ``event_wake_at`` anyway.  NI-facing buffers leave
        #: these None and keep the full hooks.
        self.consumer_router = None
        self.credit_router = None

    # ------------------------------------------------------------------ #
    # Upstream (writer) side
    # ------------------------------------------------------------------ #

    @property
    def occupancy_flits(self) -> int:
        return self._occupancy

    def has_credit(self) -> bool:
        """May the upstream link commit one more flit here?"""
        return self._occupancy < self.capacity_flits

    def push_complete(self, packet: Packet) -> None:
        """Inject a whole packet at once (local NI injection)."""
        occupancy = self._occupancy
        if self.capacity_flits - occupancy < packet.size_flits:
            raise RuntimeError("injection without room for the whole packet")
        occupancy += packet.size_flits
        self._occupancy = occupancy
        if occupancy > self.highwater_flits:
            self.highwater_flits = occupancy
        entry = FlitEntry(packet, received=packet.size_flits)
        self.entries.append(entry)
        tally = self.entry_tally
        if tally is not None:
            tally[0] += 1
            self._arrivals.append(packet)
        wake = self.wake_consumer
        if wake is not None:
            wake()

    def can_inject(self, packet: Packet) -> bool:
        if (
            self.max_packets is not None
            and len(self.entries) + self._reserved_slots >= self.max_packets
        ):
            return False
        return self.capacity_flits - self._occupancy >= packet.size_flits

    # ------------------------------------------------------------------ #
    # Downstream (reader) side
    # ------------------------------------------------------------------ #

    def head(self) -> Optional[FlitEntry]:
        return self.entries[0] if self.entries else None

    def pop_complete(self) -> Optional[Packet]:
        """Consume the head packet if fully received (local NI ejection)."""
        head = self.head()
        if head is None or head.claimed or not head.fully_received:
            return None
        self.entries.popleft()
        self._occupancy -= head.received - head.sent
        tally = self.entry_tally
        if tally is not None:
            tally[0] -= 1
        wake = self.wake_credit
        if wake is not None:
            wake()
        return head.packet

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)
