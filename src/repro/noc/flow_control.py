"""Flow-controller interface and the conventional controllers.

A flow controller arbitrates, for one output channel, among the head
packets of the input buffers that want that channel (winner-take-all
bandwidth allocation [22]: the winner holds the channel until its last flit
has left).  Three conventional policies appear in the paper's comparisons:

* :class:`RoundRobinFlowController` — the CONV router;
* :class:`PriorityFirstFlowController` — priority-first service (PFS),
  used in the CONV+PFS and [4]+PFS configurations and in Fig. 8's
  non-GSS routers;
* :class:`DualFlowController` — the parallel split of Fig. 3: an
  SDRAM-scheduling controller handles memory-request packets, and its
  winner then competes with normal packets under a conventional policy so
  normal traffic sees no added delay.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Set, Tuple

from .packet import Packet
from .topology import Port

#: An arbitration candidate: (input port it sits in, the packet).
Candidate = Tuple[Port, Packet]


class FlowController:
    """Arbitration policy for one output channel."""

    def on_arrival(self, port: Port, packet: Packet, cycle: int) -> None:
        """A packet bound for this output was delivered into ``port``."""

    def pick(self, candidates: Sequence[Candidate], cycle: int) -> Optional[Candidate]:
        """Choose the next packet to own the channel (None = stay idle).

        Must not mutate state.  A refusal of a non-empty set may depend
        only on the candidates and on state that :meth:`on_arrival`,
        :meth:`on_scheduled` and :meth:`on_withdrawn` change, not on the
        cycle: a router that was refused re-arbitrates only after one of
        those (or a new candidate) could change the outcome."""
        raise NotImplementedError

    def on_scheduled(self, port: Port, packet: Packet, cycle: int) -> None:
        """``packet`` won arbitration and starts transferring."""

    def on_delivered(self, packet: Packet, cycle: int) -> None:
        """``packet``'s last flit left this router (transfer complete)."""

    def on_withdrawn(self, packet: Packet, cycle: int) -> None:
        """``packet`` was claimed by a *different* output channel (adaptive
        routing offered it to several); drop any state held for it."""

    # --- introspection (invariant checking) --------------------------- #

    def tracked_packet_ids(self) -> Optional[Set[int]]:
        """Ids of the packets this controller holds state for, or ``None``
        for stateless policies (see
        :class:`repro.resilience.invariants.InvariantChecker`)."""
        return None

    def token_counts(self) -> Iterable[Tuple[int, Packet]]:
        """``(tokens, packet)`` pairs for token-carrying controllers."""
        return ()


class RoundRobinFlowController(FlowController):
    """Port-rotating round-robin (the conventional router's policy)."""

    def __init__(self) -> None:
        self._next_port = 0

    def pick(self, candidates: Sequence[Candidate], cycle: int) -> Optional[Candidate]:
        if not candidates:
            return None
        if len(candidates) == 1:
            # Uncontended channel: rotation cannot change the outcome.
            return candidates[0]
        ordered = sorted(candidates, key=lambda c: (c[0] - self._next_port) % 8)
        return ordered[0]

    def on_scheduled(self, port: Port, packet: Packet, cycle: int) -> None:
        self._next_port = (int(port) + 1) % 8


class PriorityFirstFlowController(RoundRobinFlowController):
    """Priority packets strictly first (oldest wins); round-robin otherwise.

    This is the paper's PFS: it minimizes priority latency with *no*
    consideration of SDRAM state, which is exactly why it costs utilization
    (Fig. 1(c), Table II).
    """

    def pick(self, candidates: Sequence[Candidate], cycle: int) -> Optional[Candidate]:
        if len(candidates) == 1:
            # Sole candidate wins whether or not it carries priority.
            return candidates[0]
        priority = [c for c in candidates if c[1].is_priority]
        if priority:
            return min(priority, key=lambda c: c[1].created_cycle)
        return super().pick(candidates, cycle)


class MemoryFlowController(FlowController):
    """Interface tag for controllers that schedule memory-request packets
    (the GSS flow controller and the SDRAM-aware [4] flow controller)."""


class DualFlowController(FlowController):
    """Fig. 3's parallel organization: an address parser steers memory
    request packets to a memory scheduler, normal packets to a conventional
    arbiter, and the two winners compete under the conventional policy."""

    def __init__(
        self,
        memory_controller: MemoryFlowController,
        normal_controller: Optional[FlowController] = None,
    ) -> None:
        self.memory = memory_controller
        self.normal = normal_controller or RoundRobinFlowController()

    def on_arrival(self, port: Port, packet: Packet, cycle: int) -> None:
        if packet.is_memory_request:
            self.memory.on_arrival(port, packet, cycle)
        else:
            self.normal.on_arrival(port, packet, cycle)

    def pick(self, candidates: Sequence[Candidate], cycle: int) -> Optional[Candidate]:
        if len(candidates) == 1:
            # Sole candidate: the final conventional round among
            # {memory winner} / {the normal packet} is a formality, but
            # the memory scheduler must still vet (and may refuse) it.
            if candidates[0][1].is_memory_request:
                return self.memory.pick(candidates, cycle)
            return self.normal.pick(candidates, cycle)
        requests = [c for c in candidates if c[1].is_memory_request]
        normals = [c for c in candidates if not c[1].is_memory_request]
        finalists: List[Candidate] = list(normals)
        if requests:
            winner = self.memory.pick(requests, cycle)
            if winner is not None:
                finalists.append(winner)
        if not finalists:
            return None
        return self.normal.pick(finalists, cycle)

    def on_scheduled(self, port: Port, packet: Packet, cycle: int) -> None:
        if packet.is_memory_request:
            self.memory.on_scheduled(port, packet, cycle)
        self.normal.on_scheduled(port, packet, cycle)

    def on_delivered(self, packet: Packet, cycle: int) -> None:
        if packet.is_memory_request:
            self.memory.on_delivered(packet, cycle)
        else:
            self.normal.on_delivered(packet, cycle)

    def on_withdrawn(self, packet: Packet, cycle: int) -> None:
        if packet.is_memory_request:
            self.memory.on_withdrawn(packet, cycle)
        else:
            self.normal.on_withdrawn(packet, cycle)

    def tracked_packet_ids(self) -> Optional[Set[int]]:
        return self.memory.tracked_packet_ids()

    def token_counts(self) -> Iterable[Tuple[int, Packet]]:
        return self.memory.token_counts()
