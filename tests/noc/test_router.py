"""Router tests: wormhole pipelining, winner-take-all, backpressure."""

import pytest

from tests.helpers import make_request
from repro.noc.buffers import InputBuffer
from repro.noc.flow_control import RoundRobinFlowController
from repro.noc.packet import request_packet, response_packet
from repro.noc.router import Router, plan_moves
from repro.noc.topology import Mesh, Port


def build_router(node=4, mesh=None, buffer_flits=16):
    mesh = mesh or Mesh(3, 3)
    router = Router(node, mesh, lambda n, p: RoundRobinFlowController(),
                    buffer_flits)
    sinks = {}
    for port in router.ports:
        sink = InputBuffer(64)
        sinks[port] = sink
        router.connect(port, sink)
    return router, sinks


def tick(router, cycles, start=0):
    for cycle in range(start, start + cycles):
        router.tick(cycle)
    return start + cycles


class TestForwarding:
    def test_single_flit_packet_latency(self):
        router, sinks = build_router()
        packet = request_packet(1, make_request(), src=4, dst=0, cycle=0)
        router.input_buffer(Port.EAST).push_complete(packet)
        # cycle 0: arbitration claims; cycle 1: flit moves
        router.tick(0)
        assert len(sinks[Port.WEST]) == 0 or sinks[Port.WEST].head().received == 0
        router.tick(1)
        assert sinks[Port.WEST].pop_complete() is packet

    def test_routes_by_xy(self):
        router, sinks = build_router(node=4)
        # dst 0 is north-west of node 4: XY goes WEST first
        packet = request_packet(1, make_request(), src=4, dst=0, cycle=0)
        router.input_buffer(Port.LOCAL).push_complete(packet)
        tick(router, 3)
        assert sinks[Port.WEST].pop_complete() is packet

    def test_local_delivery(self):
        router, sinks = build_router(node=4)
        packet = response_packet(1, make_request(), src=0, dst=4, cycle=0)
        router.input_buffer(Port.NORTH).push_complete(packet)
        tick(router, 2 + packet.size_flits)
        assert sinks[Port.LOCAL].pop_complete() is packet

    def test_multiflit_transfer_one_flit_per_cycle(self):
        router, sinks = build_router()
        packet = request_packet(
            1, make_request(beats=16, is_read=False), src=4, dst=0, cycle=0
        )  # 8 flits
        router.input_buffer(Port.EAST).push_complete(packet)
        router.tick(0)  # claim
        for cycle in range(1, 8):
            router.tick(cycle)
            assert sinks[Port.WEST].pop_complete() is None
        router.tick(8)
        assert sinks[Port.WEST].pop_complete() is packet


class TestWinnerTakeAll:
    def test_channel_held_until_tail(self):
        router, sinks = build_router()
        big = request_packet(1, make_request(beats=16, is_read=False),
                             src=4, dst=0, cycle=0)  # 8 flits
        small = request_packet(2, make_request(), src=4, dst=0, cycle=0)
        router.input_buffer(Port.EAST).push_complete(big)
        router.tick(0)
        # small arrives later on another port but must wait for big's tail
        router.input_buffer(Port.SOUTH).push_complete(small)
        tick(router, 8, start=1)
        west = sinks[Port.WEST]
        first = west.pop_complete()
        assert first is big
        tick(router, 3, start=9)
        assert west.pop_complete() is small

    def test_different_outputs_transfer_concurrently(self):
        router, sinks = build_router()
        west_bound = request_packet(1, make_request(), src=4, dst=3, cycle=0)
        east_bound = response_packet(2, make_request(), src=4, dst=5, cycle=0)
        router.input_buffer(Port.LOCAL).push_complete(west_bound)
        router.input_buffer(Port.NORTH).push_complete(east_bound)
        tick(router, 2 + east_bound.size_flits)
        assert sinks[Port.WEST].pop_complete() is west_bound
        assert sinks[Port.EAST].pop_complete() is east_bound


class TestBackpressure:
    def test_stalls_without_downstream_credit(self):
        router, sinks = build_router()
        tiny_sink = InputBuffer(1)
        router.connect(Port.WEST, tiny_sink)
        packet = request_packet(1, make_request(beats=8, is_read=False),
                                src=4, dst=0, cycle=0)  # 4 flits
        router.input_buffer(Port.EAST).push_complete(packet)
        tick(router, 10)
        # only one flit fits downstream; the rest are stalled
        head = tiny_sink.head()
        assert head is not None and head.received == 1

    def test_resumes_when_credit_returns(self):
        router, sinks = build_router()
        small_sink = InputBuffer(2)
        router.connect(Port.WEST, small_sink)
        packet = request_packet(1, make_request(beats=8, is_read=False),
                                src=4, dst=0, cycle=0)
        router.input_buffer(Port.EAST).push_complete(packet)
        cycle = tick(router, 6)
        # drain downstream by consuming flits (simulate next hop); credit
        # is tracked incrementally, so departures go through send_flit
        entry = small_sink.head()
        while not entry.fully_received:
            if entry.resident_flits > 0:
                small_sink.send_flit(entry)
            router.tick(cycle)
            cycle += 1
            if cycle > 40:
                pytest.fail("transfer never completed")
        assert entry.packet is packet


class TestPipelining:
    def test_cut_through_across_two_routers(self):
        """A long packet's head reaches the second hop before its tail has
        left the first (wormhole), so total latency is hops + flits.  The
        two routers step as a network does: both routers' moves are
        planned in one pass, then both arbitrate, then both commit."""
        mesh = Mesh(3, 1)
        r0 = Router(0, mesh, lambda n, p: RoundRobinFlowController(), 64)
        r1 = Router(1, mesh, lambda n, p: RoundRobinFlowController(), 64)
        sink = InputBuffer(64)
        r0.connect(Port.EAST, r1.input_buffer(Port.WEST))
        r1.connect(Port.EAST, InputBuffer(64))
        r1.connect(Port.LOCAL, sink)
        packet = request_packet(1, make_request(beats=32, is_read=False),
                                src=0, dst=1, cycle=0)  # 16 flits
        r0.input_buffer(Port.LOCAL).push_complete(packet)
        cycle = 0
        while sink.pop_complete() is None and cycle < 60:
            plan_moves(r0._channels + r1._channels)
            r0.plan(cycle); r1.plan(cycle)
            r0.commit(cycle); r1.commit(cycle)
            cycle += 1
        # store-and-forward would need ~32+ cycles; cut-through ~19
        assert cycle < 26
