"""Conventional flow controller tests: RR, PFS, the dual split."""

from tests.helpers import make_request
from repro.noc.buffers import InputBuffer
from repro.noc.flow_control import (
    DualFlowController,
    MemoryFlowController,
    PriorityFirstFlowController,
    RoundRobinFlowController,
)
from repro.noc.packet import request_packet, response_packet
from repro.noc.router import Router
from repro.noc.topology import Mesh, Port


def req_pkt(pid, priority=False, cycle=0):
    return request_packet(pid, make_request(priority=priority), 1, 0, cycle)


def rsp_pkt(pid, priority=False, cycle=0, dst=1):
    return response_packet(pid, make_request(priority=priority), 0, dst, cycle)


class TestRoundRobin:
    def test_rotates_across_ports(self):
        """Every claim advances the output's rotation past the claimed
        port, so three inputs contending for WEST take turns."""
        router = Router(
            4, Mesh(3, 3), lambda n, p: RoundRobinFlowController(), 8
        )
        lane = InputBuffer(64)
        router.connect(Port.WEST, lane)
        pid = 0
        for _ in range(2):
            for port in (Port.SOUTH, Port.EAST, Port.NORTH):
                pid += 1
                router.input_buffer(port).push_complete(req_pkt(pid))
        for cycle in range(12):
            router.tick(cycle)
        # Rotation starts at port 0: NORTH (1), EAST (2), SOUTH (3).
        assert [entry.packet.packet_id for entry in lane] == [3, 2, 1, 6, 5, 4]
        assert router.outputs[Port.WEST].controller.next_port == Port.SOUTH + 1

    def test_pointer_skips_served_port(self):
        controller = RoundRobinFlowController()
        a = [(Port.NORTH, req_pkt(1)), (Port.EAST, req_pkt(2))]
        port, packet = controller.pick(a, 0)
        controller.next_port = port + 1  # as the router's claim does
        port2, _ = controller.pick(a, 1)
        assert port2 is not port

    def test_empty_returns_none(self):
        assert RoundRobinFlowController().pick([], 0) is None


class TestPriorityFirst:
    def test_priority_beats_round_robin(self):
        controller = PriorityFirstFlowController()
        candidates = [(Port.NORTH, req_pkt(1)), (Port.EAST, req_pkt(2, priority=True))]
        port, packet = controller.pick(candidates, 0)
        assert packet.packet_id == 2

    def test_oldest_priority_wins(self):
        controller = PriorityFirstFlowController()
        old = req_pkt(1, priority=True, cycle=0)
        new = req_pkt(2, priority=True, cycle=5)
        _, packet = controller.pick([(Port.NORTH, new), (Port.EAST, old)], 10)
        assert packet is old

    def test_falls_back_to_rr_without_priority(self):
        controller = PriorityFirstFlowController()
        winner = controller.pick([(Port.NORTH, req_pkt(1))], 0)
        assert winner is not None


class RecordingMemoryController(MemoryFlowController):
    """Test double: always picks the first memory candidate."""

    def __init__(self, vetoes=()):
        self.vetoes = vetoes
        self.arrivals = []
        self.picks = 0
        self.scheduled = []
        self.delivered = []

    def on_arrival(self, port, packet, cycle):
        self.arrivals.append(packet.packet_id)

    def pick(self, candidates, cycle):
        self.picks += 1
        return candidates[0]

    def on_scheduled(self, port, packet, cycle):
        self.scheduled.append(packet.packet_id)

    def on_delivered(self, packet, cycle):
        self.delivered.append(packet.packet_id)


def dual_router(cycles, packets, vetoes=()):
    """Router 4 of a 3x3 mesh whose outputs each hold a Dual controller
    over a recording memory scheduler, with WEST (XY: towards nodes 0, 3
    and 6) wired; ``packets`` maps an input port to the packets pushed
    there.  Returns the WEST output after ``cycles`` ticks."""
    schedulers = {}

    def factory(node, port):
        schedulers[port] = RecordingMemoryController(vetoes)
        return DualFlowController(schedulers[port])

    router = Router(4, Mesh(3, 3), factory, 8)
    router.connect(Port.WEST, InputBuffer(64))
    for port, queued in packets.items():
        for packet in queued:
            router.input_buffer(port).push_complete(packet)
    for cycle in range(cycles):
        router.tick(cycle)
    assert not any(
        scheduler.arrivals for port, scheduler in schedulers.items()
        if port is not Port.WEST
    )
    return router.outputs[Port.WEST]


class TestDual:
    """The router resolves the Dual split once: the memory scheduler's
    hooks see memory requests only."""

    def test_requests_routed_to_memory_controller(self):
        west = dual_router(1, {Port.NORTH: [req_pkt(1), rsp_pkt(2, dst=3)]})
        assert west.memory.arrivals == [1]

    def test_memory_winner_competes_with_normals(self):
        inner = RecordingMemoryController()
        dual = DualFlowController(inner)
        candidates = [(Port.NORTH, req_pkt(1)), (Port.EAST, rsp_pkt(2))]
        winner = dual.pick(candidates, 0)
        assert winner is not None
        # both classes reachable: run twice removing winner
        rest = [c for c in candidates if c[1] is not winner[1]]
        dual.normal.next_port = winner[0] + 1  # as the router's claim does
        second = dual.pick(rest, 1)
        assert {winner[1].packet_id, second[1].packet_id} == {1, 2}

    def test_normal_only_candidates_skip_memory_controller(self):
        inner = RecordingMemoryController()
        dual = DualFlowController(inner)
        winner = dual.pick([(Port.EAST, rsp_pkt(5))], 0)
        assert winner[1].packet_id == 5 and inner.picks == 0

    def test_delivery_routed_by_kind(self):
        west = dual_router(6, {Port.NORTH: [req_pkt(1), rsp_pkt(2, dst=3)]})
        assert west.packets_sent == 2
        assert west.memory.delivered == [1]

    def test_scheduled_forwarded_to_memory_controller(self):
        west = dual_router(6, {Port.NORTH: [rsp_pkt(2, dst=3), req_pkt(9)]})
        assert west.packets_sent == 2
        assert west.memory.scheduled == [9]

    def test_empty_candidates(self):
        dual = DualFlowController(RecordingMemoryController())
        assert dual.pick([], 0) is None


class TestPickOnlyWhenItMatters:
    def test_uncontested_claims_skip_pick(self):
        """A lone candidate is granted without ``pick`` while the memory
        scheduler has no veto; a contest calls it."""
        west = dual_router(6, {Port.NORTH: [req_pkt(1), rsp_pkt(2, dst=3)]})
        assert west.packets_sent == 2 and west.memory.picks == 0
        west = dual_router(1, {Port.NORTH: [req_pkt(1)],
                               Port.EAST: [req_pkt(2)]})
        assert west.memory.picks == 1

    def test_lone_request_vetted_while_vetoes_pending(self):
        west = dual_router(1, {Port.NORTH: [req_pkt(1)]}, vetoes=(True,))
        assert west.memory.picks == 1 and west.memory.scheduled == [1]

    def test_vetted_refusal_leaves_the_channel_idle(self):
        class Refusing(RecordingMemoryController):
            def pick(self, candidates, cycle):
                self.picks += 1
                return None

        router = Router(
            4, Mesh(3, 3), lambda n, p: DualFlowController(Refusing((True,))),
            8,
        )
        router.connect(Port.WEST, InputBuffer(64))
        router.input_buffer(Port.NORTH).push_complete(req_pkt(1))
        router.tick(0)
        west = router.outputs[Port.WEST]
        assert west.transfer is None and west.memory.picks == 1
