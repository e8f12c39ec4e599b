"""Refresh support tests."""

import pytest

from tests.helpers import make_request
from repro.dram.controller import CommandEngine
from repro.dram.device import SdramDevice
from repro.dram.refresh import RefreshTimer, T_REFI_NS
from repro.dram.timing import T_RFC_NS


class TestTimer:
    def test_intervals_derived_from_clock(self, ddr2_timing):
        timer = RefreshTimer(ddr2_timing)
        assert timer.t_refi == pytest.approx(
            T_REFI_NS * ddr2_timing.clock_mhz / 1000, abs=1
        )
        assert ddr2_timing.t_rfc == pytest.approx(
            T_RFC_NS * ddr2_timing.clock_mhz / 1000, abs=1
        )

    def test_due_after_trefi(self, ddr2_timing):
        timer = RefreshTimer(ddr2_timing)
        assert not timer.due(timer.t_refi - 1)
        assert timer.due(timer.t_refi)

    def test_start_schedules_next(self, ddr2_timing):
        """A REF issued late resets the interval from its own cycle."""
        timer = RefreshTimer(ddr2_timing)
        started = timer.t_refi + 5
        timer.issued(started)
        assert timer.refreshes_issued == 1
        assert timer.next_due_cycle == started + timer.t_refi
        assert not timer.due(started + timer.t_refi - 1)
        assert timer.due(started + timer.t_refi)

    def test_overhead_fraction_small(self, ddr2_timing):
        """Steady state, refresh holds the banks for tRFC of every tREFI."""
        timer = RefreshTimer(ddr2_timing)
        assert 0 < ddr2_timing.t_rfc / timer.t_refi < 0.03


class TestEngineIntegration:
    def run_stream(self, ddr_timing, refresh, requests=80, horizon=40_000):
        device = SdramDevice(ddr_timing)
        engine = CommandEngine(device, burst_beats=8, refresh=refresh)
        pending = [
            make_request(bank=i % 4, row=i // 4, beats=8)
            for i in range(requests)
        ]
        # spread issues so the run spans several refresh intervals
        gap = horizon // (requests + 1)
        finished = []
        cycle = 0
        next_feed = 0
        while len(finished) < requests and cycle < horizon:
            if pending and cycle >= next_feed and engine.has_space:
                engine.accept(pending.pop(0), cycle)
                next_feed = cycle + gap
            engine.tick(cycle)
            finished.extend(engine.drain_finished())
            cycle += 1
        return finished, cycle

    def test_refreshes_issued_during_long_run(self, ddr2_timing):
        timer = RefreshTimer(ddr2_timing)
        finished, cycles = self.run_stream(ddr2_timing, timer)
        assert len(finished) == 80
        expected = cycles // timer.t_refi
        assert timer.refreshes_issued >= max(1, expected - 1)

    def test_no_requests_lost_across_refresh(self, ddr2_timing):
        timer = RefreshTimer(ddr2_timing)
        finished, _ = self.run_stream(ddr2_timing, timer, requests=40)
        ids = [f.request.request_id for f in finished]
        assert len(ids) == len(set(ids)) == 40

    def test_refresh_overhead_marginal(self, ddr2_timing):
        without, cycles_plain = self.run_stream(ddr2_timing, None, requests=60,
                                                horizon=30_000)
        timer = RefreshTimer(ddr2_timing)
        with_ref, cycles_ref = self.run_stream(ddr2_timing, timer, requests=60,
                                               horizon=30_000)
        assert len(with_ref) == len(without) == 60
        assert cycles_ref <= cycles_plain * 1.08
