"""Fig. 5 — command congestion in short-BL modes and the AP fix.

In BL 4 mode a row-missing access needs three commands (ACT, CAS, PRE) per
two data cycles, so the single command bus congests; executing the CAS
with auto-precharge removes the PRE from the command stream entirely.
"""

import pytest

from tests.helpers import make_request
from repro.dram.controller import CommandEngine, PagePolicy
from repro.dram.device import SdramDevice
from repro.sim.engine import Simulator
from repro.sim.stats import StatsCollector


def serve_conflicting_stream(ddr_timing, page_policy, n=12):
    """Every request misses (same banks, alternating rows): worst case for
    command traffic in BL 4 mode."""
    clock = Simulator()
    stats = StatsCollector(clock=clock)
    device = SdramDevice(ddr_timing, stats=stats)
    engine = CommandEngine(device, burst_beats=4, page_policy=page_policy,
                           window=8)
    requests = [
        make_request(bank=i % 2, row=i, beats=4, ap_tag=True)
        for i in range(n)
    ]
    pending = list(requests)
    cycle = 0
    served = 0
    while served < n and cycle < 10_000:
        if pending and engine.has_space:
            engine.accept(pending.pop(0), cycle)
        engine.tick(cycle)
        served += len(engine.drain_finished())
        clock.step()
        cycle += 1
    return stats, cycle


def test_ap_eliminates_pre_commands(ddr2_timing):
    open_stats, _ = serve_conflicting_stream(ddr2_timing, PagePolicy.OPEN_PAGE)
    ap_stats, _ = serve_conflicting_stream(ddr2_timing, PagePolicy.CLOSED_PAGE)
    assert open_stats.commands_issued.get("PRE", 0) > 0
    assert ap_stats.commands_issued.get("PRE", 0) == 0


def test_ap_not_slower_than_demand_precharge(ddr2_timing):
    _, open_cycles = serve_conflicting_stream(ddr2_timing, PagePolicy.OPEN_PAGE)
    _, ap_cycles = serve_conflicting_stream(ddr2_timing, PagePolicy.CLOSED_PAGE)
    # Fig. 5(c): with AP neither the PRE nor the CAS is delayed, so the
    # conflicting stream completes at least as fast.
    assert ap_cycles <= open_cycles + 2


def test_partially_open_closes_only_tagged(ddr2_timing):
    stats = StatsCollector()
    device = SdramDevice(ddr2_timing, stats=stats)
    engine = CommandEngine(device, burst_beats=4,
                           page_policy=PagePolicy.PARTIALLY_OPEN)
    tagged = make_request(bank=0, row=0, beats=4, ap_tag=True)
    untagged = make_request(bank=1, row=0, beats=4)
    follow_tagged = make_request(bank=0, row=0, beats=4)    # bank closed: ACT
    follow_untagged = make_request(bank=1, row=0, beats=4)  # row open: hit
    pending = [tagged, untagged, follow_tagged, follow_untagged]
    cycle = 0
    served = 0
    while served < 4 and cycle < 2000:
        if pending and engine.has_space:
            engine.accept(pending.pop(0), cycle)
        engine.tick(cycle)
        served += len(engine.drain_finished())
        cycle += 1
    assert stats.commands_issued["ACT"] == 3  # bank0 twice, bank1 once
    assert stats.row_hits == 1


def test_ap_total_commands_lower(ddr2_timing):
    open_stats, _ = serve_conflicting_stream(ddr2_timing, PagePolicy.OPEN_PAGE)
    ap_stats, _ = serve_conflicting_stream(ddr2_timing, PagePolicy.CLOSED_PAGE)
    total = lambda s: sum(s.commands_issued.values())
    assert total(ap_stats) < total(open_stats)
