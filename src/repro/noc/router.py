"""Wormhole NoC router (Fig. 3 shell), two-phase cycle model.

Every cycle has a *plan* phase (all routers decide flit movements and
arbitrate idle outputs from committed start-of-cycle state) and a *commit*
phase (all planned flit movements apply).  This keeps per-hop latency at
exactly one cycle regardless of router iteration order.

Per output channel and cycle a router:

* moves one flit of the transfer that owns the channel, provided the flit
  has arrived in the source buffer and the downstream buffer has credit —
  wormhole cut-through: long packets pipeline across hops;
* when the channel is idle (or its transfer moves its final flit this
  cycle), collects the input-buffer heads routed to it, lets the flow
  controller pick a winner, and claims that entry for a new winner-take-all
  transfer: the channel is held until the packet's last flit has left.

Newly arrived packet heads are registered with the flow controller of the
output their XY route selects — this is where GSS token bookkeeping
(Algorithm 1, lines 1-13) happens.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..obs.events import EventType
from .buffers import FlitEntry, InputBuffer
from .flow_control import Candidate, FlowController
from .packet import Packet
from .routing import RoutingPolicy, build_route_table
from .topology import Mesh, Port

#: factory(node, port) -> FlowController, chosen by the system builder.
ControllerFactory = Callable[[int, Port], FlowController]


class Transfer:
    """An in-progress winner-take-all packet transfer on one channel."""

    __slots__ = ("src_buffer", "entry", "dst_entry", "dst_buffer", "src_port")

    def __init__(
        self,
        src_buffer: InputBuffer,
        entry: FlitEntry,
        src_port: Port,
        dst_buffer: InputBuffer,
    ):
        self.src_buffer = src_buffer
        self.entry = entry
        self.dst_entry: Optional[FlitEntry] = None
        self.dst_buffer = dst_buffer
        self.src_port = src_port


class OutputPort:
    """One output channel: flow controller + downstream lanes + state.

    ``downstream`` holds one buffer per virtual channel of the next hop's
    input port; with a single lane this is plain wormhole, with two the
    second lane is reserved for priority packets so they never sit behind
    a best-effort packet in the same FIFO (Section IV-A names both input
    buffer organizations).
    """

    def __init__(self, port: Port, controller: FlowController) -> None:
        self.port = port
        self.controller = controller
        self.downstream: List[InputBuffer] = []
        #: With a single downstream lane every packet lands there, so the
        #: arbitration loop can skip :meth:`lane_for` (set by
        #: :meth:`Router.connect`; None while unwired or multi-lane).
        self._single_lane: Optional[InputBuffer] = None
        self.transfer: Optional[Transfer] = None
        self._pending_transfer: Optional[Transfer] = None
        self._move_planned = False
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
            port: OutputPort(port, controller_factory(node, port))
            for port in self.ports
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
        self._output_list = list(self.outputs.values())
        self._controller_by_port = {
            port: output.controller for port, output in self.outputs.items()
        }
        # One bit per output (its index in ``_output_list``), and per
        # destination the OR of its admissible outputs' bits — so the
        # requested-ports superset in :meth:`plan` is integer arithmetic.
        port_bit = {
            output.port: 1 << index
            for index, output in enumerate(self._output_list)
        }
        self._output_bits = [
            (output, 1 << index)
            for index, output in enumerate(self._output_list)
        ]
        self._route_masks = [
            sum(port_bit[out_port] for out_port in routes
                if out_port in port_bit)
            for routes in self._route_table
        ]
        # Outputs whose transfer moves a flit this cycle, for commit.
        self._planned_outputs: List[OutputPort] = []
        # --- event-dispatch sleep state --------------------------------- #
        # A router goes to sleep after a provably no-op plan (no arrivals
        # registered, no flit moves planned, no channel claimed): every
        # subsequent plan is the same no-op until an input event — a flit
        # or entry landing in an input buffer (wake_consumer) or credit
        # freeing downstream (wake_credit) — which calls wake_event().
        # This is sound because a no-op plan mutates nothing and its
        # no-op-ness depends only on buffer/channel state, never on the
        # cycle number (pick() implementations are mutation-free and
        # outcome-stable on the no-candidate path).  Sleeping is enabled
        # only under event dispatch so the reference kernels keep planning
        # every non-empty router.
        self._asleep = False
        self._sleep_enabled = False
        self._net_wake = None
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
        # Credit freed in a downstream lane may unblock this router's
        # output channel, so it must end this router's sleep.
        for lane in output.downstream:
            lane.wake_credit = self.wake_event
            lane.credit_router = self

    def wake_event(self, at=None) -> None:
        """End this router's sleep (event-dispatch wake hook); forwards to
        the network's engine wake handle so the network itself re-arms."""
        self._asleep = False
        wake = self._net_wake
        if wake is not None:
            wake(at)

    def input_buffer(self, port: Port, lane: int = 0) -> InputBuffer:
        return self.inputs[port][lane]

    def input_lanes(self, port: Port) -> List[InputBuffer]:
        return self.inputs[port]

    # ------------------------------------------------------------------ #
    # Phase 1: plan
    # ------------------------------------------------------------------ #

    @property
    def idle(self) -> bool:
        """No resident packets (and therefore no in-progress transfers —
        a transfer's source entry lives in one of this router's input
        buffers until retired): both plan and commit would be no-ops, so
        the network can skip this router."""
        return self._entry_tally[0] == 0

    def plan(self, cycle: int) -> None:
        # One pass over the inputs that hold packets: arbitration below
        # only claims existing entries (it never adds any), so the
        # ``active`` snapshot stays valid for the whole cycle.  Arrival
        # registration rides the same
        # loop — a buffer with pending arrivals always holds the arrived
        # entry (entries only leave via retire, which needs a prior
        # arbitration, which needs this registration first), so scanning
        # only occupied buffers is exact.
        #
        # ``requested`` accumulates, as a bitmask over outputs, the ports
        # any arbitratable entry could route to this cycle.  Mirroring
        # ``head_candidate``: an unclaimed head with its head flit present
        # is a candidate; behind a claimed head only the second entry can
        # be (exposed if the head retires this cycle — unknown until the
        # busy-channel loop below, so it is included whenever the head is
        # claimed).  New claims never mark an entry retiring, so nothing
        # becomes a candidate mid-arbitration: claims only *remove*
        # candidates, and this superset lets every other output skip its
        # candidate scan entirely.
        route_table = self._route_table
        route_masks = self._route_masks
        active: List = []
        requested = 0
        worked = False
        for item in self._input_items:
            buffer = item[1]
            entries = buffer.entries
            if not entries:
                continue
            active.append(item)
            if buffer._arrivals:
                worked = True
                port = item[0]
                controllers = self._controller_by_port
                for packet in buffer.drain_arrivals():
                    for out_port in route_table[packet.dst]:
                        controllers[out_port].on_arrival(port, packet, cycle)
            head = entries[0]
            if not head.claimed:
                if head.received:
                    requested |= route_masks[head.packet.dst]
            elif len(entries) > 1:
                second = entries[1]
                if not second.claimed and second.received:
                    requested |= route_masks[second.packet.dst]
        # First plan flit movements for busy channels, so buffers know which
        # heads retire this cycle before any output arbitrates.
        planned = self._planned_outputs
        planned.clear()
        arbitrating: List[Tuple[OutputPort, int]] = []
        # No per-output ``_move_planned`` reset needed here: the flag is
        # only ever True between the plan that appended the output to
        # ``planned`` and the commit that consumes it (which clears it),
        # and commit ignores outputs outside the current ``planned`` list.
        for pair in self._output_bits:
            output, bit = pair
            transfer = output.transfer
            if transfer is None:
                if requested & bit:
                    arbitrating.append(pair)
                continue
            entry = transfer.entry
            if entry.received > entry.sent and transfer.dst_buffer.has_credit():
                output._move_planned = True
                planned.append(output)
                if entry.sent + 1 >= entry.packet.size_flits:
                    entry.retiring = True
                    if requested & bit:
                        arbitrating.append(pair)
        if arbitrating:
            # Head candidates are resolved once per cycle, after the busy
            # loop above fixed the ``retiring`` flags.  Arbitration only
            # *claims* entries — a freshly claimed head never exposes the
            # entry behind it (that needs ``retiring``) — so later outputs
            # see the same candidates minus the claimed ones, which the
            # per-output claimed filter in :meth:`_arbitrate` reproduces
            # exactly.
            heads: List = []
            for port, buffer in active:
                entry = buffer.head_candidate()
                if entry is not None:
                    heads.append(
                        (port, buffer, entry, route_masks[entry.packet.dst])
                    )
            for output, bit in arbitrating:
                if self._arbitrate(output, bit, cycle, heads):
                    worked = True
        if self._sleep_enabled and not worked and not planned:
            self._asleep = True

    def _routes(self, packet: Packet) -> Tuple[Port, ...]:
        return self._route_table[packet.dst]

    def _arbitrate(
        self, output: OutputPort, bit: int, cycle: int, heads: List
    ) -> bool:
        """Arbitrate one idle output; returns whether a channel was claimed
        (the sleep logic in :meth:`plan` counts claims as work)."""
        if not output.downstream:
            return False
        single = output._single_lane
        candidates: List[Candidate] = []
        sources = []
        for port, buffer, entry, mask in heads:
            if not mask & bit or entry.claimed:
                continue
            packet = entry.packet
            lane = single if single is not None else output.lane_for(packet)
            # Inlined can_open_entry: the plain (no packet-slot cap) case
            # is just the flit-credit comparison.
            if lane.max_packets is None:
                if lane._occupancy >= lane.capacity_flits:
                    continue
            elif not lane.can_open_entry():
                continue
            candidates.append((port, packet))
            sources.append((packet, entry, buffer, lane))
        if not candidates:
            return False
        winner = output.controller.pick(candidates, cycle)
        if winner is None:
            return False
        port, packet = winner
        entry = src_buffer = dst_buffer = None
        for won, won_entry, won_buffer, won_lane in sources:
            if won is packet:
                entry, src_buffer, dst_buffer = won_entry, won_buffer, won_lane
                break
        assert entry is not None, "controller picked a non-candidate packet"
        entry.claimed = True
        dst_buffer.reserve_slot()
        output.controller.on_scheduled(port, packet, cycle)
        # Adaptive routing: withdraw the packet from the controllers of the
        # other admissible outputs.
        routes = self._route_table[packet.dst]
        if len(routes) > 1:
            for other_port in routes:
                if other_port is not output.port:
                    self._controller_by_port[other_port].on_withdrawn(
                        packet, cycle
                    )
        next_transfer = Transfer(src_buffer, entry, port, dst_buffer)
        if output.transfer is None:
            output.transfer = next_transfer
        else:
            # Current transfer finishes this cycle; queue the successor.
            output._pending_transfer = next_transfer
        return True

    # ------------------------------------------------------------------ #
    # Phase 2: commit
    # ------------------------------------------------------------------ #

    def commit(self, cycle: int) -> None:
        planned = self._planned_outputs
        if not planned:
            return
        injector = self.fault_injector
        for output in planned:
            if not output._move_planned:
                continue
            output._move_planned = False
            transfer = output.transfer
            assert transfer is not None
            entry = transfer.entry
            dst_buffer = transfer.dst_buffer
            dst_entry = transfer.dst_entry
            if dst_entry is None:
                dst_entry = transfer.dst_entry = dst_buffer.open_entry(
                    entry.packet
                )
            # Inlined commit_flit/send_flit: plan only schedules this move
            # after checking downstream credit and ``received > sent``
            # (so neither end is past the packet), and links are
            # point-to-point with NIs ticking before the network, so the
            # state cannot change between plan and commit.
            dst_entry.received += 1
            occupancy = dst_buffer._occupancy + 1
            dst_buffer._occupancy = occupancy
            if occupancy > dst_buffer.highwater_flits:
                dst_buffer.highwater_flits = occupancy
            entry.sent += 1
            transfer.src_buffer._occupancy -= 1
            output.flits_sent += 1
            # Event wakes, inline like the flit move above: data landed
            # downstream (consumer) and a credit freed upstream.  When the
            # target is a router, clearing its sleep flag suffices — the
            # engine re-arms the network from event_wake_at right after
            # this tick, which sees the now-awake router.  NI-facing
            # buffers (local sinks) take the full hook so the NI's own
            # engine wake still fires, but only on the tail flit: both
            # NIs consume complete packets only.
            target = dst_buffer.consumer_router
            if target is not None:
                target._asleep = False
            elif dst_entry.received >= entry.packet.size_flits:
                wake = dst_buffer.wake_consumer
                if wake is not None:
                    wake()
            src_buffer = transfer.src_buffer
            target = src_buffer.credit_router
            if target is not None:
                target._asleep = False
            else:
                wake = src_buffer.wake_credit
                if wake is not None:
                    wake()
            if injector is not None:
                injector.on_link_flit(
                    cycle, self.node, output.port, entry.packet
                )
            if entry.sent >= entry.packet.size_flits:
                packet = transfer.src_buffer.retire_head()
                assert packet is transfer.entry.packet
                output.controller.on_delivered(packet, cycle)
                output.packets_sent += 1
                output.transfer = output._pending_transfer
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
                        flits=packet.size_flits,
                    )

    # ------------------------------------------------------------------ #

    def tick(self, cycle: int) -> None:
        """Single-phase convenience for standalone router tests."""
        self.plan(cycle)
        self.commit(cycle)

    @property
    def queued_packets(self) -> int:
        return sum(
            len(buffer) for lanes in self.inputs.values() for buffer in lanes
        )
