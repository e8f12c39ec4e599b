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

The router resolves each output's Fig. 3 split once, when it is built
(:meth:`FlowController.fig3_split`): the memory scheduler, a
:class:`MemoryFlowController`, is the only part that keeps per-packet
state, so the arrival, claim, delivery and withdrawal hooks
(:meth:`MemoryFlowController.hooks`) reach it for memory-request packets
and nothing else.  A conventional arbiter keeps only its round-robin
rotation, which the router advances on every claim, and grants a lone
candidate, so the router calls ``pick`` only when there is a choice or
a lone memory request meets a scheduler whose :attr:`vetoes
<MemoryFlowController.vetoes>` are non-empty.
"""

from __future__ import annotations

from typing import (
    Callable, Collection, Iterable, List, Optional, Sequence, Set, Tuple,
)

from .packet import Packet
from .topology import Port

#: An arbitration candidate: (input port it sits in, the packet).
Candidate = Tuple[Port, Packet]

#: The router's per-output hooks into a memory scheduler: (arrival, claim,
#: delivery, withdrawal), None where the scheduler keeps no such state.
Hooks = Tuple[Optional[Callable[..., None]], ...]


class FlowController:
    """Arbitration policy for one output channel."""

    def pick(self, candidates: Sequence[Candidate], cycle: int) -> Optional[Candidate]:
        """Choose the next packet to own the channel (None = stay idle).

        Must not mutate state.  A refusal of a non-empty set may depend
        only on the candidates and on state that the memory scheduler's
        arrival, claim and withdrawal hooks change, not on the cycle: a
        router that was refused re-arbitrates only after one of those (or
        a new candidate) could change the outcome."""
        raise NotImplementedError

    def fig3_split(
        self,
    ) -> Tuple[Optional["MemoryFlowController"], Optional["FlowController"]]:
        """This controller's Fig. 3 parts: (memory scheduler, conventional
        arbiter).  A conventional controller is its own arbiter."""
        return None, self

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
        #: The port after the one last granted: it ranks first in the
        #: next contest.  The router advances it on every claim.
        self.next_port = 0

    def pick(self, candidates: Sequence[Candidate], cycle: int) -> Optional[Candidate]:
        if not candidates:
            return None
        if len(candidates) == 1:
            # Uncontended channel: rotation cannot change the outcome.
            return candidates[0]
        ordered = sorted(candidates, key=lambda c: (c[0] - self.next_port) % 8)
        return ordered[0]


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
    """A scheduler of memory-request packets (the GSS flow controller and
    the SDRAM-aware [4] flow controller): the part of Fig. 3 that keeps
    per-packet state, through four hooks."""

    #: Non-empty while :meth:`pick` may refuse a lone candidate.  The
    #: router grants an uncontested memory request without calling
    #: ``pick`` while this is empty; the default never is.
    vetoes: Collection = (True,)

    def on_arrival(self, port: Port, packet: Packet, cycle: int) -> None:
        """A memory request bound for this output was delivered into
        ``port``."""

    def on_scheduled(self, port: Port, packet: Packet, cycle: int) -> None:
        """``packet`` won arbitration and starts transferring."""

    def on_delivered(self, packet: Packet, cycle: int) -> None:
        """``packet``'s last flit left this router (transfer complete)."""

    def on_withdrawn(self, packet: Packet, cycle: int) -> None:
        """``packet`` was claimed by a *different* output channel (adaptive
        routing offered it to several); drop any state held for it."""

    def hooks(self) -> Hooks:
        """What the router calls for a memory request's (arrival, claim,
        delivery, withdrawal), resolved once when it is built."""
        return (self.on_arrival, self.on_scheduled, self.on_delivered,
                self.on_withdrawn)

    def fig3_split(self):
        return self, None


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

    def pick(self, candidates: Sequence[Candidate], cycle: int) -> Optional[Candidate]:
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

    def fig3_split(self):
        return self.memory, self.normal

    def tracked_packet_ids(self) -> Optional[Set[int]]:
        return self.memory.tracked_packet_ids()

    def token_counts(self) -> Iterable[Tuple[int, Packet]]:
        return self.memory.token_counts()
