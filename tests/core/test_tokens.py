"""TokenTable tests (Algorithm 1 lines 1-13 and 19-24)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


class PerArrivalAging:
    """Reference for line 3 as written: on every arrival each queued
    packet below ARRIVAL_AGING_CAP gains one token."""

    def __init__(self, pct):
        self.pct = pct
        self.tokens = {}

    def on_arrival(self, packet):
        for packet_id, tokens in self.tokens.items():
            if tokens < ARRIVAL_AGING_CAP:
                self.tokens[packet_id] = tokens + 1
        self.tokens[packet.packet_id] = self.pct if packet.is_priority else 1

    def on_scheduled(self, packet):
        self.tokens.pop(packet.packet_id, None)


PORTS = [Port.NORTH, Port.EAST, Port.SOUTH, Port.WEST, Port.LOCAL]

#: One step: ("arrive", priority, port), or a schedule or withdrawal of
#: the queued packet at an index (both release its token entry).
STEPS = st.one_of(
    st.tuples(st.just("arrive"), st.booleans(), st.sampled_from(PORTS)),
    st.tuples(st.sampled_from(["schedule", "withdraw"]),
              st.integers(min_value=0, max_value=63)),
)


@settings(max_examples=200, deadline=None)
@given(pct=st.integers(min_value=1, max_value=MAX_TOKENS),
       steps=st.lists(STEPS, max_size=60))
def test_counter_aging_matches_per_arrival_loop(pct, steps):
    table = TokenTable(pct=pct)
    reference = PerArrivalAging(pct)
    queued = []
    for cycle, step in enumerate(steps):
        if step[0] == "arrive":
            packet = pkt(cycle, priority=step[1], bank=cycle % 4)
            table.on_arrival(step[2], packet, cycle)
            reference.on_arrival(packet)
            queued.append(packet)
        elif queued:
            packet = queued.pop(step[1] % len(queued))
            table.on_scheduled(packet)
            reference.on_scheduled(packet)
        for packet in queued:
            assert table.tokens(packet) == reference.tokens[packet.packet_id]
        assert sorted(
            (tokens, packet.packet_id) for tokens, packet in table.token_counts()
        ) == sorted(
            (tokens, packet_id) for packet_id, tokens in reference.tokens.items()
        )
