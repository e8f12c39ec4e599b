"""Router tests: wormhole pipelining, winner-take-all, backpressure."""

import sys

import pytest

from tests.helpers import make_request
from repro.core import gss_filter, gss_flow_control, tokens
from repro.core.system import build_system
from repro.noc import buffers, flow_control, network as network_module
from repro.noc import router as router_module
from repro.noc.buffers import InputBuffer
from repro.noc.flow_control import RoundRobinFlowController
from repro.noc.packet import request_packet, response_packet
from repro.noc.router import Router, plan_moves
from repro.noc.topology import Mesh, Port
from repro.sim.config import DdrGeneration, NocDesign, SystemConfig


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
        """A lane that filled drains as the next router forwards its
        flits, and the stalled transfer resumes into the freed room."""
        mesh = Mesh(3, 1)
        r0 = Router(0, mesh, lambda n, p: RoundRobinFlowController(), 64)
        r1 = Router(1, mesh, lambda n, p: RoundRobinFlowController(), 2)
        small = r1.input_buffer(Port.WEST)
        sink = InputBuffer(64)
        r0.connect(Port.EAST, small)
        r1.connect(Port.LOCAL, sink)
        packet = request_packet(1, make_request(beats=8, is_read=False),
                                src=0, dst=1, cycle=0)  # 4 flits
        r0.input_buffer(Port.LOCAL).push_complete(packet)
        cycle = tick(r0, 6)
        # r1 is not stepping yet: its 2-flit lane is full and r0 stalls.
        assert small.head().received == 2
        assert small.occupancy_flits == small.capacity_flits
        while sink.pop_complete() is None:
            planned, _ = plan_moves(r0._channels + r1._channels)
            r0.plan(cycle); r1.plan(cycle)
            Router.commit(planned, cycle)
            cycle += 1
            if cycle > 40:
                pytest.fail("transfer never completed")
        assert small.head() is None


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
            planned, _ = plan_moves(r0._channels + r1._channels)
            r0.plan(cycle); r1.plan(cycle)
            Router.commit(planned, cycle)
            cycle += 1
        # store-and-forward would need ~32+ cycles; cut-through ~19
        assert cycle < 26


#: The benchmark's gss_prio_dual and conv_dual configurations.
GSS_PRIO_DUAL = SystemConfig(
    app="dual_dtv", ddr=DdrGeneration.DDR2, clock_mhz=400,
    design=NocDesign.GSS_SAGM, priority_enabled=True, pct=5, cycles=100_000,
)
CONV_DUAL = GSS_PRIO_DUAL.with_(design=NocDesign.CONV, priority_enabled=False)


def stepped_hops(config, on_call):
    """Step ``config`` for 2,000 cycles with ``on_call(callee, caller)``
    (their file names) seeing every Python-level call; returns the packet
    hops made."""
    system = build_system(config)

    def profile(frame, event, arg):
        if event == "call" and frame.f_back is not None:
            on_call(frame.f_code.co_filename, frame.f_back.f_code.co_filename)

    step = system.simulator.step
    sys.setprofile(profile)
    try:
        for _ in range(2_000):
            step()
    finally:
        sys.setprofile(None)
    return sum(
        output.packets_sent
        for node in system.network.routers
        for output in node.outputs.values()
    )


def test_hop_path_makes_no_buffer_call():
    """Deterministic cost guard: 2,000 stepped cycles of the
    gss_prio_dual configuration move thousands of packets hop by hop,
    and the router's plan and commit make no Python call into
    ``noc/buffers.py``: claiming, opening, streaming and retiring an
    entry is attribute work on the entry and its lanes."""
    calls = 0

    def on_call(callee, caller):
        nonlocal calls
        if callee == buffers.__file__ and caller == router_module.__file__:
            calls += 1

    hops = stepped_hops(GSS_PRIO_DUAL, on_call)
    assert hops > 1_000
    assert calls == 0, f"{calls} Python calls from the router into buffers"


#: The flow-control layer: the conventional arbiters and the Fig. 3 split,
#: the GSS scheduler, its filter chain and its token table.
FLOW_CONTROL = {
    module.__file__
    for module in (flow_control, gss_flow_control, gss_filter, tokens)
}


@pytest.mark.parametrize("config, from_fabric, in_all", [
    (GSS_PRIO_DUAL, 1.5, 7.0),
    (CONV_DUAL, 0.1, None),
], ids=["gss_prio_dual", "conv_dual"])
def test_hop_path_calls_flow_control_only_where_it_keeps_state(
    config, from_fabric, in_all
):
    """Deterministic cost guard: a hop calls flow control only where
    Algorithm 1 keeps state.  The router and the network call a memory
    scheduler's hooks for memory requests only, advance round-robin
    rotation in place and call ``pick`` only for a contest or a lone
    request a scheduler may refuse.  Per hop over 2,000 stepped cycles:
    gss_prio_dual 1.24 calls from the fabric and 5.6 into flow control
    in all, conv_dual 0.04 (4.00, 14.0 and 4.01 when every hop called
    all four hooks through ``DualFlowController``)."""
    fabric = {router_module.__file__, network_module.__file__}
    calls = {"fabric": 0, "all": 0}

    def on_call(callee, caller):
        if callee in FLOW_CONTROL:
            calls["all"] += 1
            if caller in fabric:
                calls["fabric"] += 1

    hops = stepped_hops(config, on_call)
    assert hops > 1_000
    per_hop = {key: count / hops for key, count in calls.items()}
    assert per_hop["fabric"] <= from_fabric, per_hop
    if in_all is not None:
        assert per_hop["all"] <= in_all, per_hop
