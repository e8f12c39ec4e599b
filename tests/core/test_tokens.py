"""TokenTable tests (Algorithm 1 lines 1-13 and 19-24)."""

import pytest

from tests.helpers import make_request
from repro.core.tokens import ARRIVAL_AGING_CAP, MAX_TOKENS, TokenTable
from repro.noc.packet import request_packet
from repro.noc.topology import Port


def pkt(pid, priority=False, bank=0):
    return request_packet(pid, make_request(priority=priority, bank=bank),
                          1, 0, 0)


class TestArrival:
    def test_best_effort_starts_with_one_token(self):
        table = TokenTable(pct=5)
        packet = pkt(1)
        table.on_arrival(Port.EAST, packet, 0)
        assert table.tokens(packet) == 1

    def test_priority_starts_with_pct(self):
        table = TokenTable(pct=5)
        packet = pkt(1, priority=True)
        table.on_arrival(Port.EAST, packet, 0)
        assert table.tokens(packet) == 5

    def test_arrival_ages_older_packets(self):
        table = TokenTable(pct=5)
        old = pkt(1)
        table.on_arrival(Port.EAST, old, 0)
        table.on_arrival(Port.SOUTH, pkt(2), 1)
        assert table.tokens(old) == 2

    def test_arrival_aging_saturates_at_cap(self):
        table = TokenTable(pct=5)
        old = pkt(1)
        table.on_arrival(Port.EAST, old, 0)
        for i in range(10):
            table.on_arrival(Port.SOUTH, pkt(2 + i), i + 1)
        assert table.tokens(old) == ARRIVAL_AGING_CAP

    def test_arrival_aging_never_lowers_priority_tokens(self):
        table = TokenTable(pct=6)
        priority = pkt(1, priority=True)
        table.on_arrival(Port.EAST, priority, 0)
        table.on_arrival(Port.SOUTH, pkt(2), 1)
        assert table.tokens(priority) == 6

    def test_pct_bounds(self):
        with pytest.raises(ValueError):
            TokenTable(pct=0)
        with pytest.raises(ValueError):
            TokenTable(pct=MAX_TOKENS + 1)

    def test_non_request_packet_rejected(self):
        from repro.noc.packet import response_packet
        table = TokenTable(pct=5)
        rsp = response_packet(1, make_request(), 0, 1, 0)
        rsp.request = None
        with pytest.raises(ValueError):
            table.on_arrival(Port.EAST, rsp, 0)


class TestExclusion:
    def test_same_bank_best_effort_excluded_from_other_port(self):
        table = TokenTable(pct=5)
        be = pkt(1, bank=3)
        table.on_arrival(Port.EAST, be, 0)
        table.on_arrival(Port.SOUTH, pkt(2, priority=True, bank=3), 1)
        assert table.is_excluded(be, Port.EAST)

    def test_same_port_not_excluded(self):
        """A packet ahead of the priority packet in its own in-order buffer
        must stay schedulable, or the channel deadlocks."""
        table = TokenTable(pct=5)
        be = pkt(1, bank=3)
        table.on_arrival(Port.SOUTH, be, 0)
        table.on_arrival(Port.SOUTH, pkt(2, priority=True, bank=3), 1)
        assert not table.is_excluded(be, Port.SOUTH)

    def test_different_bank_not_excluded(self):
        table = TokenTable(pct=5)
        be = pkt(1, bank=2)
        table.on_arrival(Port.EAST, be, 0)
        table.on_arrival(Port.SOUTH, pkt(2, priority=True, bank=3), 1)
        assert not table.is_excluded(be, Port.EAST)

    def test_priority_packet_never_excluded(self):
        table = TokenTable(pct=5)
        first = pkt(1, priority=True, bank=3)
        table.on_arrival(Port.EAST, first, 0)
        table.on_arrival(Port.SOUTH, pkt(2, priority=True, bank=3), 1)
        assert not table.is_excluded(first, Port.EAST)

    def test_exclusion_lifted_when_priority_scheduled(self):
        table = TokenTable(pct=5)
        be = pkt(1, bank=3)
        priority = pkt(2, priority=True, bank=3)
        table.on_arrival(Port.EAST, be, 0)
        table.on_arrival(Port.SOUTH, priority, 1)
        assert table.is_excluded(be, Port.EAST)
        table.on_scheduled(priority)
        assert not table.is_excluded(be, Port.EAST)


class TestRetirement:
    def test_scheduled_packet_dropped(self):
        table = TokenTable(pct=5)
        packet = pkt(1)
        table.on_arrival(Port.EAST, packet, 0)
        table.on_scheduled(packet)
        assert len(table) == 0
        with pytest.raises(KeyError):
            table.tokens(packet)

    def test_unknown_schedule_tolerated(self):
        TokenTable(pct=5).on_scheduled(pkt(99))
