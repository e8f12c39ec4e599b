"""Wormhole buffer tests: credits, entries, slots, retiring exposure.

Flits move between buffers only in ``Router.commit``, so flit-level
cases drive a real router; whole packets enter through ``push_complete``.
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


def forward(downstream_flits, packet, cycles):
    """Router 4 of a 3x3 mesh forwarding ``packet`` from its EAST input
    towards node 0 (XY: out of WEST) into a ``downstream_flits`` lane,
    ticked ``cycles`` times; returns (EAST input, downstream lane)."""
    router = Router(4, Mesh(3, 3), lambda n, p: RoundRobinFlowController(), 8)
    downstream = InputBuffer(downstream_flits)
    router.connect(Port.WEST, downstream)
    upstream = router.input_buffer(Port.EAST)
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
        buffer = InputBuffer(32, max_packets=2)
        buffer.push_complete(pkt(size_beats=2, pid=1))
        buffer.push_complete(pkt(size_beats=2, pid=2))
        assert not buffer.can_inject(pkt(size_beats=2, pid=3))
        assert not buffer.can_open_entry()

    def test_reserve_slot_consumed_by_open(self):
        buffer = InputBuffer(32, max_packets=2)
        buffer.reserve_slot()
        buffer.reserve_slot()
        with pytest.raises(RuntimeError):
            buffer.reserve_slot()
        buffer.open_entry(pkt(pid=1))   # consumes one reservation
        assert not buffer.can_open_entry()

    def test_slot_freed_by_pop(self):
        buffer = InputBuffer(32, max_packets=1)
        buffer.push_complete(pkt(size_beats=2, pid=1))
        assert not buffer.can_open_entry()
        buffer.pop_complete()
        assert buffer.can_open_entry()

    def test_invalid_slot_count(self):
        with pytest.raises(ValueError):
            InputBuffer(8, max_packets=0)


class TestCandidates:
    def test_head_candidate_needs_head_flit(self):
        buffer = InputBuffer(8)
        buffer.open_entry(pkt())
        assert buffer.head_candidate() is None
        # A lane the router moved one flit into offers its entry.
        _, downstream = forward(8, pkt(size_beats=8), 2)
        assert downstream.head().received == 1
        assert downstream.head_candidate() is downstream.head()

    def test_claimed_head_hides_candidate(self):
        buffer = InputBuffer(8)
        buffer.push_complete(pkt())
        entry = buffer.head()
        entry.claimed = True
        assert buffer.head_candidate() is None

    def test_retiring_head_exposes_successor(self):
        buffer = InputBuffer(8)
        buffer.push_complete(pkt(pid=1, size_beats=2))
        buffer.push_complete(pkt(pid=2, size_beats=2))
        first, second = buffer.entries
        first.claimed = True
        assert buffer.head_candidate() is None
        first.retiring = True
        assert buffer.head_candidate() is second

    def test_pop_complete_requires_full_arrival(self):
        packet = pkt(size_beats=8)  # 4 flits
        _, downstream = forward(8, packet, 2)
        assert downstream.head().received == 1
        assert downstream.pop_complete() is None
        _, downstream = forward(8, packet, 5)
        assert downstream.pop_complete() is packet

    def test_retire_head_requires_fully_sent(self):
        buffer = InputBuffer(8)
        buffer.push_complete(pkt(size_beats=2))
        entry = buffer.head()
        with pytest.raises(RuntimeError):
            buffer.retire_head()
        entry.sent = 1
        assert buffer.retire_head() is entry.packet


def test_arrivals_drained_once():
    router = Router(4, Mesh(3, 3), lambda n, p: RoundRobinFlowController(), 8)
    buffer = router.input_buffer(Port.EAST)
    buffer.push_complete(pkt(pid=7, size_beats=2))
    arrivals = buffer.drain_arrivals()
    assert [p.packet_id for p in arrivals] == [7]
    assert buffer.drain_arrivals() == []
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
