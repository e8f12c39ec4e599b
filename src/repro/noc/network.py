"""Mesh network container: routers, links, and local endpoints."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .buffers import InputBuffer
from .router import ControllerFactory, Router
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

    def router(self, node: int) -> Router:
        return self.routers[node]

    def injection_buffer(self, node: int) -> InputBuffer:
        """Where a node's NI delivers outbound packets."""
        return self.routers[node].input_buffer(Port.LOCAL)

    def local_sink(self, node: int) -> InputBuffer:
        """Where a node's NI consumes inbound packets."""
        return self.local_sinks[node]

    def tick(self, cycle: int) -> None:
        """Two-phase cycle: all routers plan, then all routers commit,
        keeping per-hop latency one cycle regardless of iteration order.

        Only routers with resident packets or live transfers participate:
        for an idle router both phases are no-ops, and the active set is
        exact because planning never *adds* entries to another router's
        buffers (commit does, but a router that was idle at the cycle
        start had nothing to plan, so skipping its no-op phases is
        bit-identical).
        """
        active = [
            router for router in self.routers
            if router._entry_tally[0] and not router._asleep
        ]
        for router in active:
            router.plan(cycle)
        for router in active:
            router.commit(cycle)

    # ------------------------------------------------------------------ #
    # Event-dispatch contract
    # ------------------------------------------------------------------ #

    def event_wake_at(self, cycle: int) -> Optional[int]:
        """Tick again next cycle while any router holds packets; routers
        individually asleep are skipped inside :meth:`tick`, and a fully
        drained network sleeps until a producer wakes it through a router
        wake hook."""
        for router in self.routers:
            if router._entry_tally[0] and not router._asleep:
                return cycle + 1
        # Every resident router is asleep (head-of-line blocked): wake
        # hooks (flit arrivals / freed credits) re-arm us.
        return None

    def attach_wake(self, wake) -> None:
        for router in self.routers:
            router._net_wake = wake

    def on_run_mode(self, event_dispatch: bool) -> None:
        """Router sleep is an event-dispatch shortcut; naive stepping, the
        reference, must keep planning every non-empty router, so sleeping
        is switched off — and any stale sleep state cleared — when event
        dispatch is not active."""
        for router in self.routers:
            router._sleep_enabled = event_dispatch
            if not event_dispatch:
                router._asleep = False

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
