"""Wormhole buffer tests: credits, entries, slots, retiring exposure.

Flits move between buffers only in ``Router.commit``, and only the router
opens, claims and retires entries, so those cases drive a real router
through ``Router.tick``; whole packets enter through ``push_complete``.
"""

import pytest

from tests.helpers import make_request
from repro.core.system import build_system
from repro.noc.buffers import FlitEntry, InputBuffer
from repro.noc.flow_control import RoundRobinFlowController
from repro.noc.packet import request_packet
from repro.noc.router import Router
from repro.noc.topology import Mesh, Port
from repro.sim.config import SystemConfig


def pkt(size_beats=8, pid=1, write=True):
    request = make_request(beats=size_beats, is_read=not write)
    return request_packet(pid, request, src=1, dst=0, cycle=0)


def round_robin(node, port):
    return RoundRobinFlowController()


def wired_router(lane):
    """Router 4 of a 3x3 mesh whose WEST output (XY: towards node 0)
    feeds ``lane``; returns (router, its EAST input)."""
    router = Router(4, Mesh(3, 3), round_robin, 8)
    router.connect(Port.WEST, lane)
    return router, router.input_buffer(Port.EAST)


def forward(downstream_flits, packet, cycles):
    """Router 4 forwarding ``packet`` from its EAST input into a
    ``downstream_flits`` lane, ticked ``cycles`` times; returns (EAST
    input, downstream lane)."""
    downstream = InputBuffer(downstream_flits)
    router, upstream = wired_router(downstream)
    upstream.push_complete(packet)
    for cycle in range(cycles):
        router.tick(cycle)
    return upstream, downstream


class TestCredits:
    def test_occupancy_tracks_resident_flits(self):
        # Cycle 0 claims WEST; cycles 1 and 2 each move one flit.
        upstream, downstream = forward(8, pkt(size_beats=8), 3)  # 4 flits
        assert upstream.occupancy_flits == 2
        assert downstream.occupancy_flits == 2
        assert upstream.head().sent == 2
        assert downstream.head().received == 2

    def test_credit_exhausted_at_capacity(self):
        upstream, downstream = forward(2, pkt(size_beats=8), 10)
        # The lane filled and the rest of the packet waits upstream.
        assert not downstream.has_credit()
        assert downstream.occupancy_flits == 2
        assert upstream.occupancy_flits == 2


class TestInjection:
    def test_push_complete_needs_full_room(self):
        buffer = InputBuffer(4)
        assert buffer.can_inject(pkt(size_beats=8))  # 4 flits
        buffer.push_complete(pkt(size_beats=8))
        assert not buffer.can_inject(pkt(size_beats=2))
        with pytest.raises(RuntimeError):
            buffer.push_complete(pkt(size_beats=2))

    def test_injected_packet_fully_received(self):
        buffer = InputBuffer(8)
        buffer.push_complete(pkt(size_beats=8))
        head = buffer.head()
        assert head is not None and head.fully_received


class TestPacketSlots:
    def test_slot_limit_bounds_entries(self):
        """A lane whose packet slots are all taken admits neither an
        injection nor a claim: the output feeding it stays idle."""
        lane = InputBuffer(32, max_packets=2)
        lane.push_complete(pkt(size_beats=2, pid=1))
        lane.push_complete(pkt(size_beats=2, pid=2))
        assert not lane.can_inject(pkt(size_beats=2, pid=3))
        router, upstream = wired_router(lane)
        upstream.push_complete(pkt(size_beats=2, pid=3))
        for cycle in range(4):
            router.tick(cycle)
        assert router.outputs[Port.WEST].transfer is None
        assert len(lane) == 2 and upstream.head().sent == 0

    def test_reserve_slot_consumed_by_open(self):
        """A claim reserves a packet slot downstream, and the first flit
        takes it when it opens the packet's entry there."""
        lane = InputBuffer(32, max_packets=2)
        router, upstream = wired_router(lane)
        upstream.push_complete(pkt(pid=1))
        router.tick(0)
        assert lane._reserved_slots == 1 and len(lane) == 0
        lane.push_complete(pkt(size_beats=2, pid=2))
        # The reservation and the resident packet fill both slots.
        assert not lane.can_inject(pkt(size_beats=2, pid=3))
        router.tick(1)
        assert lane._reserved_slots == 0
        assert [entry.packet.packet_id for entry in lane] == [2, 1]

    def test_claim_without_a_free_slot_raises(self):
        """A claim never over-reserves a lane: a winner whose lane lost
        its last slot while the controller picked is refused."""
        lane = InputBuffer(32, max_packets=1)

        class FillsTheLane(RoundRobinFlowController):
            def pick(self, candidates, cycle):
                lane.push_complete(pkt(size_beats=2, pid=9))
                return candidates[0]

        router = Router(4, Mesh(3, 3), lambda n, p: FillsTheLane(), 8)
        router.connect(Port.WEST, lane)
        router.input_buffer(Port.EAST).push_complete(pkt(pid=1))
        with pytest.raises(RuntimeError, match="without a free slot"):
            router.tick(0)

    def test_slot_freed_by_pop(self):
        lane = InputBuffer(32, max_packets=1)
        lane.push_complete(pkt(size_beats=2, pid=1))
        router, upstream = wired_router(lane)
        upstream.push_complete(pkt(size_beats=2, pid=2))
        router.tick(0)
        assert router.outputs[Port.WEST].transfer is None
        lane.pop_complete()
        router.tick(1)
        assert router.outputs[Port.WEST].transfer is upstream.head()

    def test_invalid_slot_count(self):
        with pytest.raises(ValueError):
            InputBuffer(8, max_packets=0)


class TestCandidates:
    def test_head_candidate_needs_head_flit(self):
        """The head flit alone makes an entry a candidate: the next hop
        claims its output while the rest of the packet is on the way."""
        mesh = Mesh(3, 1)
        first = Router(0, mesh, round_robin, 8)
        second = Router(1, mesh, round_robin, 8)
        hop = second.input_buffer(Port.WEST)
        first.connect(Port.EAST, hop)
        second.connect(Port.LOCAL, InputBuffer(64))
        packet = request_packet(
            1, make_request(beats=8, is_read=False), src=0, dst=1, cycle=0
        )  # 4 flits
        first.input_buffer(Port.LOCAL).push_complete(packet)
        # The downstream router ticks first, so it sees each flit the
        # cycle after it moved, as in a network.
        for cycle in range(2):
            second.tick(cycle)
            first.tick(cycle)
        assert hop.head().received == 1
        assert second.outputs[Port.LOCAL].transfer is None
        second.tick(2)
        assert second.outputs[Port.LOCAL].transfer is hop.head()

    def test_claimed_head_hides_candidate(self):
        """An entry behind a head that is still streaming is no
        candidate, even for an idle output."""
        router, upstream = wired_router(InputBuffer(64))
        router.connect(Port.NORTH, InputBuffer(64))
        upstream.push_complete(pkt(pid=1, size_beats=8))  # 4 flits, WEST
        upstream.push_complete(
            request_packet(2, make_request(beats=2), src=4, dst=1, cycle=0)
        )  # NORTH
        for cycle in range(4):
            router.tick(cycle)
            assert router.outputs[Port.NORTH].transfer is None
        assert router.outputs[Port.WEST].transfer is upstream.head()

    def test_retiring_head_exposes_successor(self):
        """The cycle a head's final flit is planned, the entry behind it
        is arbitrated: short packets chain without a bubble."""
        router, upstream = wired_router(InputBuffer(64))
        router.connect(Port.NORTH, InputBuffer(64))
        upstream.push_complete(pkt(pid=1, size_beats=4))  # 2 flits, WEST
        second = request_packet(
            2, make_request(beats=2), src=4, dst=1, cycle=0
        )  # NORTH
        upstream.push_complete(second)
        router.tick(0)  # claims WEST
        router.tick(1)  # first flit
        assert router.outputs[Port.NORTH].transfer is None
        router.tick(2)  # final flit planned: the successor is exposed
        assert router.outputs[Port.WEST].transfer is None
        assert router.outputs[Port.NORTH].transfer.packet is second

    def test_pop_complete_requires_full_arrival(self):
        packet = pkt(size_beats=8)  # 4 flits
        _, downstream = forward(8, packet, 2)
        assert downstream.head().received == 1
        assert downstream.pop_complete() is None
        _, downstream = forward(8, packet, 5)
        assert downstream.pop_complete() is packet

    def test_retire_head_requires_fully_sent(self):
        """An entry leaves its lane once its final flit has left, and
        only as the head: a final flit leaving from behind an unfinished
        head is refused."""
        packet = pkt(size_beats=8)  # 4 flits
        upstream, _ = forward(8, packet, 4)
        assert upstream.head().packet is packet and upstream.head().sent == 3
        upstream, _ = forward(8, packet, 5)
        assert upstream.head() is None
        router, upstream = wired_router(InputBuffer(8))
        upstream.push_complete(pkt(pid=1, size_beats=2))  # 1 flit
        router.tick(0)
        unfinished = FlitEntry(pkt(pid=2, size_beats=2), received=1)
        unfinished.claimed = True
        upstream.entries.appendleft(unfinished)
        with pytest.raises(RuntimeError, match="unfinished head"):
            router.tick(1)


class RecordingController(RoundRobinFlowController):
    def __init__(self):
        super().__init__()
        self.arrivals = []

    def on_arrival(self, port, packet, cycle):
        self.arrivals.append((port, packet.packet_id, cycle))


def test_arrivals_drained_once():
    controllers = {}

    def factory(node, port):
        controllers[port] = RecordingController()
        return controllers[port]

    # WEST is left unwired, so the packet stays queued and every tick
    # plans it again; it is registered with its route's controller once.
    router = Router(4, Mesh(3, 3), factory, 8)
    router.input_buffer(Port.EAST).push_complete(pkt(pid=7, size_beats=2))
    for cycle in range(3):
        router.tick(cycle)
    assert controllers[Port.WEST].arrivals == [(Port.EAST, 7, 0)]
    assert not any(
        controller.arrivals
        for port, controller in controllers.items() if port is not Port.WEST
    )
    # NI-facing sinks are consumed through pop_complete and never
    # drained, so they record no arrivals at all.
    system = build_system(SystemConfig(cycles=1_500, warmup=200))
    system.run()
    for sink in system.network.local_sinks.values():
        assert not sink._arrivals
    assert system.network.local_sink(
        system.placement.memory_node
    ).highwater_flits > 0


def test_flit_entry_repr_mentions_state():
    entry = FlitEntry(pkt(), received=1)
    assert "received=1" in repr(entry)
