"""MeshNetwork wiring and end-to-end delivery tests."""

import pytest

from tests.helpers import make_request
from repro.noc.flow_control import RoundRobinFlowController
from repro.noc.network import MeshNetwork
from repro.noc.packet import request_packet
from repro.noc.topology import Mesh, Port


def build_network(width=3, height=3, **kwargs):
    return MeshNetwork(
        Mesh(width, height),
        controller_factory=lambda n, p: RoundRobinFlowController(),
        **kwargs,
    )


class TestWiring:
    def test_links_connect_opposite_ports(self):
        network = build_network()
        east_out = network.router(0).outputs[Port.EAST]
        assert east_out.downstream == network.router(1).input_lanes(Port.WEST)

    def test_every_node_has_local_sink(self):
        network = build_network()
        for node in network.mesh.nodes():
            assert network.local_sink(node) is not None
            local_out = network.router(node).outputs[Port.LOCAL]
            assert local_out.downstream == [network.local_sink(node)]

    def test_sink_overrides(self):
        network = build_network(sink_flits={0: (36, 4)})
        assert network.local_sink(0).capacity_flits == 36
        assert network.local_sink(0).max_packets == 4
        assert network.local_sink(4).max_packets is None


class TestDelivery:
    def test_corner_to_corner(self):
        network = build_network()
        packet = request_packet(1, make_request(), src=8, dst=0, cycle=0)
        network.injection_buffer(8).push_complete(packet)
        received = None
        for cycle in range(40):
            network.tick(cycle)
            received = network.local_sink(0).pop_complete()
            if received is not None:
                break
        assert received is packet

    def test_all_pairs_deliver(self):
        network = build_network(width=2, height=2)
        pid = 0
        expected = {}
        for src in network.mesh.nodes():
            for dst in network.mesh.nodes():
                if src == dst:
                    continue
                pid += 1
                packet = request_packet(pid, make_request(beats=2), src, dst, 0)
                if network.injection_buffer(src).can_inject(packet):
                    network.injection_buffer(src).push_complete(packet)
                    expected.setdefault(dst, set()).add(pid)
        received = {dst: set() for dst in expected}
        for cycle in range(200):
            network.tick(cycle)
            for dst in expected:
                popped = network.local_sink(dst).pop_complete()
                if popped is not None:
                    received[dst].add(popped.packet_id)
        assert received == expected

    def test_in_flight_accounting(self):
        network = build_network()
        packet = request_packet(1, make_request(), src=8, dst=0, cycle=0)
        network.injection_buffer(8).push_complete(packet)
        assert network.in_flight_packets == 1
        for cycle in range(40):
            network.tick(cycle)
        # packet now sits in the destination sink
        assert network.in_flight_packets == 1
        network.local_sink(0).pop_complete()
        assert network.in_flight_packets == 0


class TestConservation:
    def test_no_packet_loss_under_load(self):
        """Inject a burst of packets from every node toward node 0 and
        check every one arrives exactly once."""
        network = build_network()
        injected = set()
        pid = 0
        for wave in range(4):
            for src in range(1, 9):
                pid += 1
                packet = request_packet(
                    pid, make_request(beats=4, is_read=False), src, 0, 0
                )
                if network.injection_buffer(src).can_inject(packet):
                    network.injection_buffer(src).push_complete(packet)
                    injected.add(pid)
        arrived = []
        for cycle in range(600):
            network.tick(cycle)
            popped = network.local_sink(0).pop_complete()
            if popped is not None:
                arrived.append(popped.packet_id)
        assert sorted(arrived) == sorted(injected)
        assert len(set(arrived)) == len(arrived)


class TestEventWork:
    def test_claimed_channels_stream_without_arbitration(self, monkeypatch):
        """Under event dispatch a router arbitrates only on an event that
        can change an arbitration, and flits on claimed channels move
        without one.  Counted over the first 20k cycles of the benchmark's
        conv_dual configuration (seed 2010), that is at most one
        ``Router.plan`` per network tick on average (0.78 measured);
        planning every router that holds packets makes about three."""
        from repro.core.system import build_system
        from repro.noc.router import Router
        from repro.sim.config import DdrGeneration, NocDesign, SystemConfig

        calls = {"plan": 0, "tick": 0}

        def counting(cls, name):
            method = getattr(cls, name)

            def counted(self, cycle):
                calls[name] += 1
                return method(self, cycle)

            monkeypatch.setattr(cls, name, counted)

        counting(Router, "plan")
        counting(MeshNetwork, "tick")
        system = build_system(SystemConfig(
            app="dual_dtv", ddr=DdrGeneration.DDR2, clock_mhz=400,
            design=NocDesign.CONV, seed=2010, cycles=20_000,
        ))
        system.simulator.run(20_000)
        assert system.simulator.last_dispatch_mode == "event"
        assert calls["tick"] > 10_000
        assert calls["plan"] <= calls["tick"], calls
