"""Mesh network container: routers, links, and local endpoints.

A claimed channel streams without arbitration, the way a wormhole path
holds its channels until the tail flit leaves, so the network's
per-cycle work follows its claimed channels and the routers an event
woke, not the number of routers (see :meth:`MeshNetwork.tick`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .buffers import InputBuffer
from .router import ControllerFactory, OutputPort, Router, plan_moves
from .routing import RoutingPolicy
from .topology import Mesh, Port


class MeshNetwork:
    """A wired 2-D mesh of routers.

    Every inter-router link connects node A's output port to the opposite
    input buffer of the neighbouring node B.  Each node additionally gets a
    *local sink* buffer — the downstream of its LOCAL output — from which
    the node's network interface (core NI or memory NI) consumes packets,
    and injects by delivering into the router's LOCAL input buffer.
    """

    def __init__(
        self,
        mesh: Mesh,
        controller_factory: ControllerFactory,
        buffer_flits: int = 64,
        sink_flits: Optional[Dict[int, Tuple[int, Optional[int]]]] = None,
        local_buffer_flits: Optional[int] = None,
        routing_policy: RoutingPolicy = RoutingPolicy.XY,
        virtual_channels: int = 1,
        tracer=None,
        fault_injector=None,
    ) -> None:
        """``sink_flits`` maps node -> (capacity_flits, max_packets) for
        that node's local sink — the memory node uses a shallow sink with
        few request slots so queueing stays in the routers, where priority
        packets can still overtake (Section IV-A)."""
        self.mesh = mesh
        self.routers: List[Router] = [
            Router(node, mesh, controller_factory, buffer_flits,
                   local_buffer_flits=local_buffer_flits,
                   routing_policy=routing_policy,
                   virtual_channels=virtual_channels,
                   tracer=tracer,
                   fault_injector=fault_injector)
            for node in mesh.nodes()
        ]
        self.local_sinks: Dict[int, InputBuffer] = {}
        overrides = sink_flits or {}
        endpoint_flits = (
            local_buffer_flits if local_buffer_flits is not None else buffer_flits
        )
        for node in mesh.nodes():
            router = self.routers[node]
            for port in router.ports:
                if port is Port.LOCAL:
                    # Endpoint buffers (sinks) must hold a whole packet, so
                    # they follow the local size, not the link buffer size.
                    flits, slots = overrides.get(node, (endpoint_flits, None))
                    sink = InputBuffer(flits, max_packets=slots)
                    self.local_sinks[node] = sink
                    router.connect(port, sink)
                else:
                    neighbor = mesh.neighbor(node, port)
                    assert neighbor is not None
                    router.connect(
                        port,
                        self.routers[neighbor].input_lanes(Mesh.opposite(port)),
                    )
        #: Every claimed channel of the mesh, in (node, output) order.
        self._channels: List[OutputPort] = []
        for router in self.routers:
            router._channels = self._channels
            router._network = self
        #: Routers to plan this cycle, one bit per node.  Naive stepping,
        #: the reference, keeps every bit set so every non-empty router
        #: arbitrates every cycle; under event dispatch a router's bit is
        #: cleared when it plans and set by the events listed in
        #: :class:`~repro.noc.router.Router`.
        self._all_routers = (1 << len(self.routers)) - 1
        self._awake = self._all_routers
        self._event_dispatch = False
        #: Whether the last tick planned a move or claimed a channel.
        self._busy = False
        self._wake = None

    def router(self, node: int) -> Router:
        return self.routers[node]

    def injection_buffer(self, node: int) -> InputBuffer:
        """Where a node's NI delivers outbound packets."""
        return self.routers[node].input_buffer(Port.LOCAL)

    def local_sink(self, node: int) -> InputBuffer:
        """Where a node's NI consumes inbound packets."""
        return self.local_sinks[node]

    def tick(self, cycle: int) -> None:
        """Two-phase cycle: plan every move and arbitration, then commit,
        keeping per-hop latency one cycle regardless of iteration order.

        Moves are planned first, for every claimed channel, so the
        ``retiring`` flags are fixed before any router arbitrates; then
        every awake router plans, in node order; then one
        :meth:`Router.commit` pass applies every planned move, in (node,
        output) order, so commits, link-fault draws and ``HOP`` events
        keep one order.  Planning reads only start-of-cycle state and
        each router's arbitration only its own inputs, controllers and
        downstream lanes, so the split into phases plans exactly what
        per-router planning would.
        """
        planned, retiring = plan_moves(self._channels)
        awake = self._awake | retiring
        if self._event_dispatch:
            self._awake = 0
        claimed = False
        routers = self.routers
        while awake:
            bit = awake & -awake
            awake ^= bit
            if routers[bit.bit_length() - 1].plan(cycle):
                claimed = True
        if planned:
            Router.commit(planned, cycle)
        self._busy = claimed or bool(planned)

    # ------------------------------------------------------------------ #
    # Event-dispatch contract
    # ------------------------------------------------------------------ #

    def event_wake_at(self, cycle: int) -> Optional[int]:
        """Tick again next cycle after a move or a claim, or while a
        router is awake; otherwise sleep until a router wake hook (an NI
        injecting or freeing sink room) re-arms the network.  A claimed
        channel that planned no move waits for a flit or for credit, which
        only a move or such a hook can bring."""
        if self._busy or self._awake:
            return cycle + 1
        return None

    def attach_wake(self, wake) -> None:
        self._wake = wake

    def on_run_mode(self, event_dispatch: bool) -> None:
        """Router sleep is an event-dispatch shortcut; naive stepping, the
        reference, must keep planning every non-empty router, so every
        router is marked awake, for good, when event dispatch is not
        active."""
        self._event_dispatch = event_dispatch
        if not event_dispatch:
            self._awake = self._all_routers

    @property
    def in_flight_packets(self) -> int:
        """Packets stored in any router buffer or mid-transfer."""
        stored = sum(router.queued_packets for router in self.routers)
        transfers = sum(
            1
            for router in self.routers
            for output in router.outputs.values()
            if output.busy
        )
        sunk = sum(len(sink) for sink in self.local_sinks.values())
        return stored + transfers + sunk
