"""GSS flow controller tests, including the Fig. 1 scheduling scenario."""

from itertools import count

import pytest

from tests.helpers import make_request
from repro.core.gss_flow_control import (
    GssFlowController,
    PfsMemoryFlowController,
    SdramAwareFlowController,
)
from repro.noc.packet import request_packet
from repro.noc.topology import Port


def drain_schedule(controller, named_packets, burst_cycles=4):
    """Arbitrate until every packet is scheduled; return the name order."""
    candidates = []
    for port, (name, packet) in zip(
        [Port.LOCAL, Port.NORTH, Port.EAST, Port.SOUTH, Port.WEST,
         Port.LOCAL, Port.NORTH, Port.EAST],
        named_packets,
    ):
        controller.on_arrival(port, packet, 0)
        candidates.append((port, packet))
    names = {p.packet_id: name for name, p in named_packets}
    order = []
    cycle = 0
    while candidates:
        winner = controller.pick(candidates, cycle)
        assert winner is not None
        port, packet = winner
        controller.on_scheduled(port, packet, cycle)
        controller.on_delivered(packet, cycle + burst_cycles)
        order.append(names[packet.packet_id])
        candidates = [c for c in candidates if c[1] is not packet]
        cycle += burst_cycles
    return order


def fig1_packets():
    """Fig. 1(a)'s input buffer: 2 demands, 2 prefetches, 2 video requests.
    All reads, rows distinct except prefetch2/request2; demand2 conflicts
    with demand1 (same bank, different rows)."""
    ids = count(1)

    def build(name, bank, row, priority=False):
        return name, request_packet(
            next(ids),
            make_request(bank=bank, row=row, priority=priority,
                         demand=priority),
            1, 0, 0,
        )

    return [
        build("demand1", 1, 10, priority=True),
        build("prefetch1", 2, 20),
        build("request1", 3, 30),
        build("demand2", 1, 11, priority=True),
        build("prefetch2", 4, 40),
        build("request2", 4, 40),
    ]


class TestFig1:
    def test_priority_equal_delays_demand2(self, ddr2_timing):
        order = drain_schedule(SdramAwareFlowController(ddr2_timing),
                               fig1_packets())
        # Fig. 1(b): demand2 waits until its conflict with demand1 has aged out
        assert order.index("demand2") >= 3

    def test_priority_first_creates_adjacent_conflict(self, ddr2_timing):
        controller = PfsMemoryFlowController(SdramAwareFlowController(ddr2_timing))
        order = drain_schedule(controller, fig1_packets())
        # Fig. 1(c): both demands first, back to back (bank conflict)
        assert order[0] == "demand1" and order[1] == "demand2"

    def test_hybrid_serves_demands_early_without_adjacency(self, ddr2_timing):
        order = drain_schedule(GssFlowController(ddr2_timing, pct=5),
                               fig1_packets())
        # Fig. 1(d): demand1 first, demand2 within the first three, and the
        # two demands separated by a different-bank packet
        assert order[0] == "demand1"
        assert order.index("demand2") <= 2
        assert order[order.index("demand2") - 1] != "demand1" or \
            order.index("demand2") - order.index("demand1") > 1


class TestStiCounters:
    def test_write_arms_long_window(self, ddr3_timing):
        controller = GssFlowController(ddr3_timing, sti_enabled=True)
        write = request_packet(1, make_request(bank=0, row=1, is_read=False),
                               1, 0, 0)
        controller.on_arrival(Port.EAST, write, 0)
        controller.on_scheduled(Port.EAST, write, 0)
        controller.on_delivered(write, 10)
        blocked = make_request(bank=0, row=2)
        assert controller.state.sti_blocked(blocked, 10 + 5)
        assert controller.state.sti_blocked(blocked, 10 + 22)
        # past the tWR+tRP counter, the schedule-distance window still
        # holds until enough other packets have been scheduled
        assert controller.state.sti_blocked(blocked, 10 + 23)
        for i in range(controller.state.sti_distance):
            controller.state.note_scheduled(make_request(bank=3, row=i))
        assert not controller.state.sti_blocked(blocked, 10 + 23)

    def test_read_arms_trp_window(self, ddr3_timing):
        controller = GssFlowController(ddr3_timing, sti_enabled=True)
        read = request_packet(1, make_request(bank=0, row=1), 1, 0, 0)
        controller.on_arrival(Port.EAST, read, 0)
        controller.on_scheduled(Port.EAST, read, 0)
        controller.on_delivered(read, 10)
        blocked = make_request(bank=0, row=2)
        assert controller.state.sti_blocked(blocked, 10 + ddr3_timing.t_rp - 1)
        for i in range(controller.state.sti_distance):
            controller.state.note_scheduled(make_request(bank=3, row=i))
        assert not controller.state.sti_blocked(blocked, 10 + ddr3_timing.t_rp)

    def test_sti_distance_configured_from_timing(self, ddr3_timing):
        on = GssFlowController(ddr3_timing, sti_enabled=True)
        off = GssFlowController(ddr3_timing, sti_enabled=False)
        assert on.state.sti_distance == -(-ddr3_timing.write_to_precharge // 4)
        assert off.state.sti_distance == 0

    def test_sti_prefers_other_bank(self, ddr3_timing):
        controller = GssFlowController(ddr3_timing, sti_enabled=True)
        write = request_packet(1, make_request(bank=0, row=1, is_read=False),
                               1, 0, 0)
        controller.on_arrival(Port.EAST, write, 0)
        controller.on_scheduled(Port.EAST, write, 0)
        controller.on_delivered(write, 4)
        hot = request_packet(2, make_request(bank=0, row=2, is_read=False), 1, 0, 5)
        cold = request_packet(3, make_request(bank=5, row=2, is_read=False), 1, 0, 5)
        controller.on_arrival(Port.SOUTH, hot, 5)
        controller.on_arrival(Port.WEST, cold, 5)
        winner = controller.pick([(Port.SOUTH, hot), (Port.WEST, cold)], 6)
        assert winner[1] is cold


class TestBaselineVariants:
    def test_sdram_aware_forces_single_token(self, ddr2_timing):
        controller = SdramAwareFlowController(ddr2_timing, pct=5)
        priority = request_packet(1, make_request(priority=True), 1, 0, 0)
        controller.on_arrival(Port.EAST, priority, 0)
        assert controller.table.tokens(priority) == 1

    def test_sdram_aware_clears_exclusions(self, ddr2_timing):
        controller = SdramAwareFlowController(ddr2_timing)
        be = request_packet(1, make_request(bank=3), 1, 0, 0)
        pri = request_packet(2, make_request(bank=3, priority=True), 1, 0, 0)
        controller.on_arrival(Port.EAST, be, 0)
        controller.on_arrival(Port.SOUTH, pri, 1)
        assert not controller.table.is_excluded(be, Port.EAST)

    def test_pfs_wrapper_bypasses_scheduling(self, ddr2_timing):
        controller = PfsMemoryFlowController(SdramAwareFlowController(ddr2_timing))
        be = request_packet(1, make_request(bank=0, row=0), 1, 0, 0)
        pri = request_packet(2, make_request(bank=0, row=1, priority=True), 1, 0, 1)
        controller.on_arrival(Port.EAST, be, 0)
        controller.on_arrival(Port.SOUTH, pri, 1)
        # establish last = bank0/row0 so pri is a bank conflict
        controller.on_scheduled(Port.EAST, be, 2)
        winner = controller.pick([(Port.SOUTH, pri)], 3)
        assert winner[1] is pri  # scheduled regardless of the conflict

    def test_scheduled_count_increments(self, ddr2_timing):
        controller = GssFlowController(ddr2_timing)
        packet = request_packet(1, make_request(), 1, 0, 0)
        controller.on_arrival(Port.EAST, packet, 0)
        controller.on_scheduled(Port.EAST, packet, 0)
        assert controller.scheduled_count == 1

    def test_non_request_delivery_ignored(self, ddr2_timing):
        from repro.noc.packet import response_packet
        controller = GssFlowController(ddr2_timing)
        rsp = response_packet(1, make_request(), 0, 1, 0)
        rsp.request = None
        controller.on_delivered(rsp, 5)  # must not raise


class TestRouterHooks:
    """What a router reads off a memory scheduler: its hooks, resolved
    once, and its vetoes, read before each uncontested claim."""

    def test_vetoes_pending_only_while_a_priority_packet_waits(
        self, ddr2_timing
    ):
        controller = GssFlowController(ddr2_timing)
        arrival, claim, _, withdrawal = controller.hooks()
        assert arrival == controller.table.on_arrival
        assert not controller.vetoes
        first = request_packet(1, make_request(priority=True), 1, 0, 0)
        second = request_packet(2, make_request(priority=True), 1, 0, 0)
        arrival(Port.EAST, first, 0)
        arrival(Port.SOUTH, second, 0)
        claim(Port.EAST, first, 1)
        assert controller.vetoes
        withdrawal(second, 1)
        assert not controller.vetoes

    def test_priority_equal_schedulers_never_veto(self, ddr2_timing):
        for controller in (
            SdramAwareFlowController(ddr2_timing),
            PfsMemoryFlowController(SdramAwareFlowController(ddr2_timing)),
        ):
            arrival = controller.hooks()[0]
            priority = request_packet(1, make_request(priority=True), 1, 0, 0)
            arrival(Port.EAST, priority, 0)
            assert not controller.vetoes

    @pytest.mark.parametrize("sti", [False, True], ids=["sti-off", "sti-on"])
    def test_delivery_arms_sti_counters_only_with_sti(self, ddr2_timing, sti):
        """Only the Fig. 4(b) filter reads the per-bank STI counters, so
        without STI the router gets no delivery hook."""
        controller = GssFlowController(ddr2_timing, sti_enabled=sti)
        assert (controller.hooks()[2] is not None) is sti
        write = request_packet(1, make_request(bank=0, is_read=False), 1, 0, 0)
        controller.on_delivered(write, 10)
        assert (0 in controller.state.bank_ready_at) is sti
