"""Fig. 4 filter and cascade tests."""

import pytest

from tests.helpers import make_request
from repro.core.gss_filter import (
    SchedulerState,
    passes_filter,
    select,
    tier_conditions,
)
from repro.core.tokens import MAX_TOKENS, TokenTable
from repro.noc.packet import request_packet
from repro.noc.topology import Port


def pkt(pid, bank=0, row=0, is_read=True, priority=False):
    return request_packet(
        pid, make_request(bank=bank, row=row, is_read=is_read,
                          priority=priority), 1, 0, 0
    )


class TestTierConditions:
    def test_max_tier_unconditional(self):
        assert tier_conditions(MAX_TOKENS, sti_enabled=True) == (False, False, False)

    def test_tier5_checks_bank_conflict_only(self):
        assert tier_conditions(5, sti_enabled=True) == (True, False, False)

    def test_low_tiers_check_sti_as_filter(self):
        for t in (1, 2):
            assert tier_conditions(t, sti_enabled=True) == (True, True, True)
            assert tier_conditions(t, sti_enabled=False) == (True, True, False)

    def test_mid_tiers_drop_sti_filter(self):
        """At tiers 3-4 STI acts only as a cascade preference, not a
        filter (older packets are not starved by a busy bank)."""
        for t in (3, 4):
            assert tier_conditions(t, sti_enabled=True) == (True, True, False)

    def test_sti_released_at_tier5(self):
        assert tier_conditions(5, sti_enabled=True) == (True, False, False)


class TestSchedulerState:
    def test_conditions_relative_to_last(self):
        state = SchedulerState()
        request = make_request(bank=1, row=5)
        assert not state.row_hit(request)  # nothing scheduled yet
        state.note_scheduled(make_request(bank=1, row=4))
        assert not state.row_hit(request)
        last = make_request(bank=1, row=5, is_read=False)
        state.note_scheduled(last)
        assert state.last_request is last
        assert state.row_hit(request)

    def test_sti_counter_blocks_reactivation(self, ddr3_timing):
        state = SchedulerState()
        write = make_request(bank=2, row=1, is_read=False)
        state.note_scheduled(write)
        state.note_delivered(write, cycle=100,
                             write_window=ddr3_timing.write_to_precharge,
                             read_window=ddr3_timing.read_to_precharge)
        conflicting = make_request(bank=2, row=9)
        assert state.sti_blocked(conflicting, 100 + 5)
        assert not state.sti_blocked(conflicting, 100 + 23)

    def test_sti_ignores_row_hits(self, ddr3_timing):
        state = SchedulerState()
        write = make_request(bank=2, row=1, is_read=False)
        state.note_scheduled(write)
        state.note_delivered(write, 100, 23, 11)
        same_row = make_request(bank=2, row=1)
        assert not state.sti_blocked(same_row, 105)


class TestPassesFilter:
    def test_row_hit_always_passes(self):
        state = SchedulerState()
        state.note_scheduled(make_request(bank=1, row=5, is_read=False))
        hit_but_contending = make_request(bank=1, row=5, is_read=True)
        assert passes_filter(state, hit_but_contending, tokens=1, cycle=0,
                             sti_enabled=False)

    def test_bank_conflict_blocked_at_low_tiers(self):
        state = SchedulerState()
        state.note_scheduled(make_request(bank=1, row=4))
        conflict = make_request(bank=1, row=5)
        assert not passes_filter(state, conflict, 1, 0, False)
        assert passes_filter(state, conflict, MAX_TOKENS, 0, False)

    def test_data_contention_released_at_tier5(self):
        state = SchedulerState()
        state.note_scheduled(make_request(bank=1, row=4, is_read=False))
        read_other_bank = make_request(bank=2, row=0, is_read=True)
        assert not passes_filter(state, read_other_bank, 4, 0, False)
        assert passes_filter(state, read_other_bank, 5, 0, False)


def build(candidates_spec, pct=5):
    """candidates_spec: list of (port, packet) arriving in order."""
    table = TokenTable(pct=pct)
    candidates = []
    for i, (port, packet) in enumerate(candidates_spec):
        table.on_arrival(port, packet, i)
        candidates.append((port, packet))
    return table, candidates


class TestSelect:
    def test_priority_stage_wins(self):
        state = SchedulerState()
        be = pkt(1, bank=0)
        pri = pkt(2, bank=1, priority=True)
        table, candidates = build([(Port.EAST, be), (Port.SOUTH, pri)])
        winner = select(state, table, candidates, 0, sti_enabled=False)
        assert winner[1] is pri

    def test_row_hit_stage_preferred_over_age(self):
        state = SchedulerState()
        state.note_scheduled(make_request(bank=1, row=5))
        old = pkt(1, bank=2, row=0)
        hit = pkt(2, bank=1, row=5)
        table, candidates = build([(Port.EAST, old), (Port.SOUTH, hit)])
        winner = select(state, table, candidates, 0, sti_enabled=False)
        assert winner[1] is hit

    def test_row_hit_stage_disabled_prefers_oldest(self):
        state = SchedulerState()
        state.note_scheduled(make_request(bank=1, row=5))
        old = pkt(1, bank=2, row=0)
        hit = pkt(2, bank=1, row=5)
        table, candidates = build([(Port.EAST, old), (Port.SOUTH, hit)])
        winner = select(state, table, candidates, 0, sti_enabled=False,
                        row_hit_stage=False)
        assert winner[1] is old  # aged by hit's arrival -> more tokens

    def test_escape_loop_schedules_something(self):
        """When every candidate bank-conflicts, the line 19-24 loop ages
        them into permissive tiers and still picks one."""
        state = SchedulerState()
        state.note_scheduled(make_request(bank=1, row=0))
        a = pkt(1, bank=1, row=2)
        b = pkt(2, bank=1, row=3)
        table, candidates = build([(Port.EAST, a), (Port.SOUTH, b)])
        winner = select(state, table, candidates, 0, sti_enabled=False)
        assert winner is not None

    def test_excluded_candidates_not_schedulable(self):
        state = SchedulerState()
        be = pkt(1, bank=3)
        pri = pkt(2, bank=3, priority=True)
        table, _ = build([(Port.EAST, be), (Port.SOUTH, pri)])
        # only the excluded best-effort packet is a candidate
        winner = select(state, table, [(Port.EAST, be)], 0, sti_enabled=False)
        assert winner is None

    def test_priority_unaware_mode_ignores_priority(self):
        state = SchedulerState()
        be = pkt(1, bank=0)
        pri = pkt(2, bank=1, priority=True)
        table = TokenTable(pct=1)
        table.on_arrival(Port.EAST, be, 0)
        table.on_arrival(Port.SOUTH, pri, 1)
        winner = select(state, table, [(Port.EAST, be), (Port.SOUTH, pri)],
                        2, sti_enabled=False, priority_aware=False,
                        row_hit_stage=False)
        # be has aged to 2 tokens vs pri's 1: oldest-first wins
        assert winner[1] is be

    def test_empty_candidates(self):
        state = SchedulerState()
        table = TokenTable(pct=5)
        assert select(state, table, [], 0, sti_enabled=False) is None
