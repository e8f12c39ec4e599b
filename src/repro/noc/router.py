"""Wormhole NoC router (Fig. 3 shell), two-phase cycle model.

Every cycle has a *plan* phase, in which flit moves and arbitration are
decided from committed start-of-cycle state, and a *commit* phase, in
which the planned flit moves apply.  This keeps per-hop latency at
exactly one cycle regardless of router iteration order.

The plan phase has two parts:

* :func:`plan_moves` gives every claimed channel (an output holding the
  source :class:`~repro.noc.buffers.FlitEntry` it granted, winner take
  all) one flit move, provided the flit has arrived in the source buffer
  and the downstream lane has credit — wormhole cut-through: long
  packets pipeline across hops.  A claimed channel needs no arbitration
  until the entry's final flit is planned, which marks it *retiring*;
* :meth:`Router.plan` registers newly arrived packet heads with the flow
  controllers of the outputs their route selects — this is where GSS
  token bookkeeping (Algorithm 1, lines 1-13) happens — and arbitrates
  every idle or retiring output among the input-buffer heads routed to
  it: the flow controller picks a winner, whose entry claims the channel
  until its last flit has left.

Under event dispatch a router arbitrates only when something that can
change an arbitration outcome happened since its last plan (see
:meth:`Router.wake_event` and :class:`~repro.noc.network.MeshNetwork`);
streaming flits on channels already claimed is not such an event.
"""

from __future__ import annotations

from bisect import insort
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Tuple

from ..obs.events import EventType
from .buffers import FlitEntry, InputBuffer
from .flow_control import Candidate, FlowController
from .packet import Packet
from .routing import RoutingPolicy, build_route_table
from .topology import Mesh, Port

#: factory(node, port) -> FlowController, chosen by the system builder.
ControllerFactory = Callable[[int, Port], FlowController]

#: Sort key of claimed-channel lists: (node, output index) as one int.
_RANK = attrgetter("rank")

#: Allocates an uninitialised entry (the commit loop sets its fields).
_new_entry = FlitEntry.__new__


class OutputPort:
    """One output channel: flow controller + downstream lanes + state.

    ``downstream`` holds one buffer per virtual channel of the next hop's
    input port; with a single lane this is plain wormhole, with two the
    second lane is reserved for priority packets so they never sit behind
    a best-effort packet in the same FIFO (Section IV-A names both input
    buffer organizations).
    """

    def __init__(
        self, port: Port, controller: FlowController, router: "Router",
        rank: int,
    ) -> None:
        self.port = port
        self.controller = controller
        #: The owning router, and this channel's position in claimed-channel
        #: lists: node-major, then output order (see :func:`plan_moves`).
        self.router = router
        self.rank = rank
        self.downstream: List[InputBuffer] = []
        #: With a single downstream lane every packet lands there, so the
        #: arbitration loop can skip :meth:`lane_for` (set by
        #: :meth:`Router.connect`; None while unwired or multi-lane).
        self._single_lane: Optional[InputBuffer] = None
        #: The claimed source entry whose flits this channel carries, and
        #: the one claimed to follow it once its final flit leaves.
        self.transfer: Optional[FlitEntry] = None
        self._pending_transfer: Optional[FlitEntry] = None
        self.packets_sent = 0
        self.flits_sent = 0

    @property
    def busy(self) -> bool:
        return self.transfer is not None

    def lane_for(self, packet: Packet) -> Optional[InputBuffer]:
        """The downstream lane this packet would occupy (None if unwired)."""
        if not self.downstream:
            return None
        if len(self.downstream) == 1 or not packet.is_priority:
            return self.downstream[0]
        return self.downstream[1]


def plan_moves(channels: List[OutputPort]) -> Tuple[List["Router"], int]:
    """Plan one flit move for every claimed channel in ``channels``.

    A channel moves a flit when one is resident in its source entry and
    the downstream lane has credit; a final flit marks the entry
    ``retiring``, so the channel may be arbitrated again this cycle.
    Only committed start-of-cycle state is read, so the order of the
    list does not change which moves are planned; it does fix the order
    in which each router's moves commit (``channels`` is kept in node,
    then output order).

    Returns the routers with a planned move, in ``channels`` order, and
    the wake bits of those whose final flit was planned while they hold
    an unclaimed entry: the retiring channel and the entry it exposes may
    change their arbitration this cycle.
    """
    moving: List[Router] = []
    retiring = 0
    for output in channels:
        entry = output.transfer
        if entry.received > entry.sent:
            lane = entry.lane
            if lane._occupancy < lane.capacity_flits:
                router = output.router
                planned = router._planned_outputs
                if not planned:
                    moving.append(router)
                planned.append(output)
                if entry.sent + 1 >= entry.packet.size_flits:
                    entry.retiring = True
                    if router._entry_tally[0] > router._claimed_entries:
                        retiring |= router._bit
    return moving, retiring


class Router:
    """Five-port wormhole router with per-output flow controllers."""

    def __init__(
        self,
        node: int,
        mesh: Mesh,
        controller_factory: ControllerFactory,
        buffer_flits: int,
        local_buffer_flits: Optional[int] = None,
        routing_policy: RoutingPolicy = RoutingPolicy.XY,
        virtual_channels: int = 1,
        tracer=None,
        fault_injector=None,
    ) -> None:
        """``buffer_flits`` sizes the inter-router input buffers;
        ``local_buffer_flits`` (default: same) sizes the LOCAL injection
        buffer, which must hold a whole packet (the NI injects packets
        atomically) and is therefore usually larger.  With an adaptive
        ``routing_policy`` a packet is offered to every admissible output
        and taken by whichever wins arbitration first (the paper's
        "packets ... can be scheduled to other GSS flow controllers which
        are not busy", Section IV-A)."""
        self.node = node
        self.mesh = mesh
        self.routing_policy = routing_policy
        self.tracer = tracer
        self.fault_injector = fault_injector
        self._trace_label = f"router{node}"
        self.ports = mesh.ports(node)
        if virtual_channels < 1:
            raise ValueError("need at least one virtual channel")
        self.virtual_channels = virtual_channels
        local = local_buffer_flits if local_buffer_flits is not None else buffer_flits
        self.inputs: Dict[Port, List[InputBuffer]] = {
            port: (
                [InputBuffer(local)]  # NI injection: single lane
                if port is Port.LOCAL
                else [InputBuffer(buffer_flits) for _ in range(virtual_channels)]
            )
            for port in self.ports
        }
        self.outputs: Dict[Port, OutputPort] = {
            port: OutputPort(
                port, controller_factory(node, port), self, node * 8 + index
            )
            for index, port in enumerate(self.ports)
        }
        # Hot-path precomputation: admissible ports per destination (static
        # for a given mesh/policy) and flat buffer views, so the per-cycle
        # loops index instead of re-deriving routes or walking dicts.
        self._route_table = build_route_table(mesh, node, routing_policy)
        self._input_items = [
            (port, buffer) for port, lanes in self.inputs.items()
            for buffer in lanes
        ]
        # Shared entry count across all input lanes, maintained by the
        # buffers themselves: the idle check is one comparison.  Each
        # input also gets the arrival list plan() drains for token
        # registration (only router inputs record arrivals).
        self._entry_tally = [0]
        for _, buffer in self._input_items:
            buffer.entry_tally = self._entry_tally
            buffer._arrivals = []
        #: Entries in this router's inputs that an output has claimed:
        #: ``_entry_tally[0] > _claimed_entries`` says one is unclaimed.
        self._claimed_entries = 0
        self._output_list = list(self.outputs.values())
        self._controller_by_port = {
            port: output.controller for port, output in self.outputs.items()
        }
        # One bit per output (its index in ``_output_list``), and per
        # destination the OR of its admissible outputs' bits — so the
        # requested outputs in :meth:`plan` are integer arithmetic.
        port_bit = {
            output.port: 1 << index
            for index, output in enumerate(self._output_list)
        }
        self._route_masks = [
            sum(port_bit[out_port] for out_port in routes
                if out_port in port_bit)
            for routes in self._route_table
        ]
        #: Claimed channels in rank order.  A standalone router keeps its
        #: own; :class:`~repro.noc.network.MeshNetwork` installs one list
        #: shared by all its routers, from which it plans every move.
        self._channels: List[OutputPort] = []
        # Outputs whose transfer moves a flit this cycle, for commit.
        self._planned_outputs: List[OutputPort] = []
        # --- event-dispatch wake state ---------------------------------- #
        # Under event dispatch a router in a network plans only while its
        # bit is set in the network's awake mask, which is cleared before
        # each plan and set again by the events that can change an
        # arbitration outcome: an entry opening in one of its inputs, a
        # downstream lane going from full to not full, an NI freeing sink
        # room or a packet slot (these three through wake_event or the
        # commit loop), its own final flit being planned while it holds
        # an unclaimed entry (plan_moves), and a claim that withdrew a
        # packet from another output's controller (_arbitrate).  Between
        # those events every arbitration repeats its outcome: a claim
        # only removes candidates, which cannot turn a refusal into a
        # grant, and a refusal by pick() depends only on state those
        # events change (see FlowController.pick).
        self._bit = 1 << node
        self._network = None
        for _, buffer in self._input_items:
            buffer.wake_consumer = self.wake_event
            buffer.consumer_router = self

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #

    def connect(self, port: Port, downstream) -> None:
        """Wire an output to the next hop's input lanes (buffer or list)."""
        if isinstance(downstream, InputBuffer):
            downstream = [downstream]
        output = self.outputs[port]
        output.downstream = list(downstream)
        output._single_lane = (
            output.downstream[0] if len(output.downstream) == 1 else None
        )
        # Room freed in a downstream lane may admit a candidate of this
        # router's output channel, so it must wake this router.
        for lane in output.downstream:
            lane.wake_credit = self.wake_event
            lane.credit_router = self

    def wake_event(self) -> None:
        """Event-dispatch wake hook: mark this router awake in its network
        and arm the network through its engine wake handle.  An empty
        router has nothing to arbitrate and no channel waiting for room,
        so it stays asleep (as does a standalone router, which plans on
        every :meth:`tick`)."""
        network = self._network
        if network is not None and self._entry_tally[0]:
            network._awake |= self._bit
            wake = network._wake
            if wake is not None:
                wake()

    def input_buffer(self, port: Port, lane: int = 0) -> InputBuffer:
        return self.inputs[port][lane]

    def input_lanes(self, port: Port) -> List[InputBuffer]:
        return self.inputs[port]

    # ------------------------------------------------------------------ #
    # Phase 1: plan (arbitration; moves come from plan_moves)
    # ------------------------------------------------------------------ #

    def plan(self, cycle: int) -> bool:
        """Register arrivals and arbitrate idle and retiring outputs.

        Runs after :func:`plan_moves` of the same cycle, which fixed the
        ``retiring`` flags.  Returns whether a channel was claimed.
        """
        if not self._entry_tally[0]:
            return False
        # One pass over the inputs registers arrivals and collects each
        # lane's candidate: its unclaimed head or, behind a retiring head,
        # the entry that head exposes — the way a real router presents
        # the next packet as the tail flit leaves, so short packets chain
        # without a bubble per hop.  Every entry holds at least its head
        # flit: the commit that opens an entry moves that flit in.  A lane
        # with pending arrivals always holds the arrived entry (entries
        # only leave once claimed, which needs this registration first).
        # ``requested`` accumulates, one bit per output, the outputs the
        # candidates route to.  Arbitration only claims candidates, and a
        # fresh claim never marks an entry retiring, so no entry becomes
        # a candidate mid-arbitration: later outputs see the same
        # candidates minus the claimed ones, which _arbitrate skips.
        route_table = self._route_table
        route_masks = self._route_masks
        heads: List = []
        requested = 0
        for port, buffer in self._input_items:
            entries = buffer.entries
            if not entries:
                continue
            arrivals = buffer._arrivals
            if arrivals:
                buffer._arrivals = []
                controllers = self._controller_by_port
                for packet in arrivals:
                    for out_port in route_table[packet.dst]:
                        controllers[out_port].on_arrival(port, packet, cycle)
            entry = entries[0]
            if entry.claimed:
                if not entry.retiring or len(entries) < 2:
                    continue
                entry = entries[1]
                if entry.claimed:
                    continue
            mask = route_masks[entry.packet.dst]
            requested |= mask
            heads.append((port, buffer, entry, mask))
        # Arbitrate each requested output that is idle or retiring, in
        # output order, by walking the set bits.
        outputs = self._output_list
        claimed = False
        while requested:
            bit = requested & -requested
            requested ^= bit
            output = outputs[bit.bit_length() - 1]
            current = output.transfer
            if current is None or current.retiring:
                if self._arbitrate(output, bit, cycle, heads):
                    claimed = True
        return claimed

    def _routes(self, packet: Packet) -> Tuple[Port, ...]:
        return self._route_table[packet.dst]

    def _arbitrate(
        self, output: OutputPort, bit: int, cycle: int, heads: List
    ) -> bool:
        """Arbitrate one idle or retiring output; returns whether a
        channel was claimed."""
        if not output.downstream:
            return False
        single = output._single_lane
        candidates: List[Candidate] = []
        sources = []
        for head in heads:
            port, _, entry, mask = head
            if not mask & bit or entry.claimed:
                continue
            packet = entry.packet
            lane = single if single is not None else output.lane_for(packet)
            # A packet may begin arriving in a lane with flit credit and,
            # where packets are capped, a free packet slot.
            if lane._occupancy >= lane.capacity_flits or (
                lane.max_packets is not None
                and len(lane.entries) + lane._reserved_slots
                >= lane.max_packets
            ):
                continue
            candidates.append((port, packet))
            sources.append(head)
        if not candidates:
            return False
        winner = output.controller.pick(candidates, cycle)
        if winner is None:
            return False
        port, packet = winner
        for head in sources:
            if head[2].packet is packet:
                break
        else:
            raise AssertionError("controller picked a non-candidate packet")
        _, buffer, entry, _ = head
        lane = single if single is not None else output.lane_for(packet)
        # The claim reserves a packet slot in the lane for its first flit.
        # ``pick`` must not mutate state, so the winner's lane is still
        # open; a controller that broke that would over-reserve it.
        if lane._occupancy >= lane.capacity_flits or (
            lane.max_packets is not None
            and len(lane.entries) + lane._reserved_slots >= lane.max_packets
        ):
            raise RuntimeError("slot reservation without a free slot")
        lane._reserved_slots += 1
        entry.claimed = True
        entry.buffer = buffer
        entry.lane = lane
        entry.dst_entry = None
        self._claimed_entries += 1
        output.controller.on_scheduled(port, packet, cycle)
        # Adaptive routing: withdraw the packet from the controllers of the
        # other admissible outputs.  That can lift an exclusion an output
        # arbitrated earlier this cycle was refused under, so this router
        # stays awake for the next cycle.
        routes = self._route_table[packet.dst]
        if len(routes) > 1:
            for other_port in routes:
                if other_port is not output.port:
                    self._controller_by_port[other_port].on_withdrawn(
                        packet, cycle
                    )
            network = self._network
            if network is not None:
                network._awake |= self._bit
        if output.transfer is None:
            output.transfer = entry
            insort(self._channels, output, key=_RANK)
        else:
            # The current entry's final flit leaves this cycle; queue the
            # successor.
            output._pending_transfer = entry
        return True

    # ------------------------------------------------------------------ #
    # Phase 2: commit
    # ------------------------------------------------------------------ #

    def commit(self, cycle: int) -> None:
        """Apply the flit moves :func:`plan_moves` planned this cycle."""
        planned = self._planned_outputs
        if not planned:
            return
        injector = self.fault_injector
        awake = 0
        for output in planned:
            entry = output.transfer
            packet = entry.packet
            size = packet.size_flits
            lane = entry.lane
            dst_entry = entry.dst_entry
            if dst_entry is None:
                # The first flit opens the packet's entry downstream, in
                # the slot its claim reserved.  A new entry is a new
                # candidate (and arrival) there; later flits change no
                # arbitration.
                if lane._reserved_slots > 0:
                    lane._reserved_slots -= 1
                elif (
                    lane.max_packets is not None
                    and len(lane.entries) >= lane.max_packets
                ):
                    raise RuntimeError("packet slots exhausted")
                # FlitEntry(packet), built without a Python-level call.
                dst_entry = entry.dst_entry = _new_entry(FlitEntry)
                dst_entry.packet = packet
                dst_entry.received = dst_entry.sent = 0
                dst_entry.claimed = dst_entry.retiring = False
                lane.entries.append(dst_entry)
                tally = lane.entry_tally
                if tally is not None:
                    tally[0] += 1
                    lane._arrivals.append(packet)
                target = lane.consumer_router
                if target is not None:
                    awake |= target._bit
            # The flit moves here: plan only schedules this move
            # after checking downstream credit and ``received > sent``
            # (so neither end is past the packet), and links are
            # point-to-point with NIs ticking before the network, so the
            # state cannot change between plan and commit.
            received = dst_entry.received + 1
            dst_entry.received = received
            occupancy = lane._occupancy + 1
            lane._occupancy = occupancy
            if occupancy > lane.highwater_flits:
                lane.highwater_flits = occupancy
            sent = entry.sent + 1
            entry.sent = sent
            src_buffer = entry.buffer
            occupancy = src_buffer._occupancy
            src_buffer._occupancy = occupancy - 1
            output.flits_sent += 1
            # NI-facing buffers (local sinks) take the full wake hook so
            # the NI's own engine wake fires, but only on the tail flit:
            # both NIs consume complete packets only.
            if received >= size and lane.consumer_router is None:
                wake = lane.wake_consumer
                if wake is not None:
                    wake()
            # A full lane going not full may admit a candidate upstream.
            if occupancy == src_buffer.capacity_flits:
                target = src_buffer.credit_router
                if target is not None and target._entry_tally[0]:
                    awake |= target._bit
            if injector is not None:
                injector.on_link_flit(cycle, self.node, output.port, packet)
            if sent >= size:
                # The final flit left: the entry, the head of its lane
                # (in-order buffers forward only their head), retires.
                entries = src_buffer.entries
                if entries[0] is not entry:
                    raise RuntimeError("retiring an unfinished head entry")
                entries.popleft()
                self._entry_tally[0] -= 1
                self._claimed_entries -= 1
                output.controller.on_delivered(packet, cycle)
                output.packets_sent += 1
                successor = output._pending_transfer
                output.transfer = successor
                if successor is None:
                    self._channels.remove(output)
                else:
                    output._pending_transfer = None
                tracer = self.tracer
                if tracer:
                    request = packet.request
                    tracer.emit(
                        EventType.HOP,
                        cycle,
                        self._trace_label,
                        packet_id=packet.packet_id,
                        request_id=(
                            request.request_id if request is not None else None
                        ),
                        port=output.port.name,
                        flits=size,
                    )
        planned.clear()
        if awake:
            network = self._network
            if network is not None:
                network._awake |= awake

    # ------------------------------------------------------------------ #

    def tick(self, cycle: int) -> None:
        """Single-phase convenience for standalone router tests: plans
        this router's own moves with :func:`plan_moves`, then arbitrates
        and commits."""
        plan_moves(self._channels)
        self.plan(cycle)
        self.commit(cycle)

    @property
    def queued_packets(self) -> int:
        return sum(
            len(buffer) for lanes in self.inputs.values() for buffer in lanes
        )
