"""Per-bank bandwidth regulation unit tests."""

import pytest

from tests.helpers import make_request
from repro.dram.bankreg import BankRegulatedScheduler
from repro.dram.device import SdramDevice


def make_reg(timing, **kwargs):
    kwargs.setdefault("window_cycles", 100)
    kwargs.setdefault("budget_beats", 16)
    return BankRegulatedScheduler(SdramDevice(timing), timing, **kwargs)


def drive(scheduler, requests, max_cycles=50_000):
    pending = list(requests)
    finished = []
    cycle = 0
    while (pending or not scheduler.idle) and cycle < max_cycles:
        while pending and scheduler.can_accept(pending[0]):
            scheduler.enqueue(pending.pop(0), cycle)
        scheduler.tick(cycle)
        finished.extend(scheduler.drain_finished())
        cycle += 1
    return finished, cycle


class TestBudgets:
    def test_release_charges_master_bank_pair(self, ddr2_timing):
        reg = make_reg(ddr2_timing)
        reg.enqueue(make_request(master=0, bank=0, beats=8), 0)
        assert reg._release() is not None
        assert reg.spent[(0, 0)] == 8

    def test_overdrawn_pair_blocks_until_next_window(self, ddr2_timing):
        reg = make_reg(ddr2_timing)  # budget 16 beats / 100 cycles
        reg.enqueue(make_request(master=0, bank=0, beats=8), 0)
        reg.enqueue(make_request(master=0, bank=0, beats=8), 0)
        reg.enqueue(make_request(master=0, bank=0, beats=8), 0)
        assert reg._release().beats == 8
        assert reg._release().beats == 8
        # Third release would overdraw (16 + 8 > 16): blocked.
        assert reg._release() is None
        assert reg.throttled_releases == 1
        # The window boundary replenishes the pair.
        reg._refill(100)
        assert reg._release() is not None

    def test_other_bank_not_blocked(self, ddr2_timing):
        reg = make_reg(ddr2_timing)
        reg.spent[(0, 0)] = 16  # pair exhausted
        reg.enqueue(make_request(master=0, bank=1, beats=8), 0)
        released = reg._release()
        assert released is not None and released.bank == 1

    def test_other_master_not_blocked(self, ddr2_timing):
        reg = make_reg(ddr2_timing)
        reg.spent[(0, 0)] = 16
        reg.enqueue(make_request(master=0, bank=0, beats=8), 0)
        reg.enqueue(make_request(master=1, bank=0, beats=8), 0)
        released = reg._release()
        assert released is not None and released.master == 1
        # Master 0's head stays queued, blocked on its own budget only.
        assert len(reg.queues[0]) == 1

    def test_oversized_request_uses_fresh_window(self, ddr2_timing):
        """A request larger than the whole budget still releases (first
        release of the window is unconditional) — no deadlock."""
        reg = make_reg(ddr2_timing)  # budget 16
        reg.enqueue(make_request(master=0, bank=0, beats=64), 0)
        released = reg._release()
        assert released is not None and released.beats == 64
        assert reg.spent[(0, 0)] == 64  # overdrawn: pair blocked now
        reg.enqueue(make_request(master=0, bank=0, beats=8), 0)
        assert reg._release() is None

    def test_lazy_refill_is_fast_forward_safe(self, ddr2_timing):
        reg = make_reg(ddr2_timing)
        reg.spent[(0, 0)] = 16
        reg._refill(50)  # same epoch: nothing changes
        assert reg.spent
        reg._refill(1_000)  # ten windows later, one refill call
        assert not reg.spent


class TestFairnessAndWake:
    def test_round_robin_rotates_start(self, ddr2_timing):
        reg = make_reg(ddr2_timing)
        for master in (0, 1, 2):
            reg.enqueue(make_request(master=master, bank=master, beats=8), 0)
            reg.enqueue(make_request(master=master, bank=master, beats=8), 0)
        assert [reg._release().master for _ in range(6)] == [0, 1, 2, 0, 1, 2]

    def test_wake_at_window_boundary_when_blocked(self, ddr2_timing):
        reg = make_reg(ddr2_timing)
        reg.enqueue(make_request(master=0, bank=0, beats=8), 0)
        reg.spent[(0, 0)] = 16  # head is budget-blocked, engine empty
        assert reg.next_event_cycle(42) == 100

    def test_wake_immediate_when_releasable(self, ddr2_timing):
        reg = make_reg(ddr2_timing)
        reg.enqueue(make_request(master=0, bank=0, beats=8), 0)
        assert reg.next_event_cycle(42) == 43

    def test_wake_none_when_idle(self, ddr2_timing):
        reg = make_reg(ddr2_timing)
        assert reg.next_event_cycle(42) is None

    def test_constructor_validation(self, ddr2_timing):
        device = SdramDevice(ddr2_timing)
        with pytest.raises(ValueError):
            BankRegulatedScheduler(device, ddr2_timing, window_cycles=0)
        with pytest.raises(ValueError):
            BankRegulatedScheduler(device, ddr2_timing, budget_beats=0)
        with pytest.raises(ValueError):
            BankRegulatedScheduler(device, ddr2_timing, queue_capacity=0)

    def test_backpressure_per_master(self, ddr2_timing):
        reg = make_reg(ddr2_timing, queue_capacity=1)
        reg.enqueue(make_request(master=0), 0)
        assert not reg.can_accept(make_request(master=0))
        assert reg.can_accept(make_request(master=1))
        with pytest.raises(RuntimeError):
            reg.enqueue(make_request(master=0), 0)


class TestEndToEnd:
    def test_serves_saturating_mix(self, ddr2_timing):
        reg = make_reg(ddr2_timing)
        requests = [
            make_request(
                master=i % 3, bank=i % 8, row=i % 4,
                beats=8, is_read=bool(i % 2),
            )
            for i in range(24)
        ]
        finished, _ = drive(reg, requests)
        assert len(finished) == 24
        assert reg.idle
        stats = reg.scheduler_stats()
        assert stats["releases"] == 24.0
        assert stats["masters"] == 3.0
        assert stats["service.count"] == 24

    def test_storm_is_throttled(self, ddr2_timing):
        """One master hammering one bank gets stalled at window
        boundaries — visible as throttled releases."""
        reg = make_reg(ddr2_timing)
        requests = [
            make_request(master=0, bank=0, row=i % 2, beats=8)
            for i in range(16)
        ]
        finished, cycles = drive(reg, requests)
        assert len(finished) == 16
        assert reg.throttled_releases > 0
        # 16 requests x 8 beats = 128 beats at 16/window: >= 8 windows.
        assert cycles >= 700
