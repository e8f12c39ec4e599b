"""Fig. 2 — access granularity mismatch accounting.

An 8-byte (2-beat) request against a BL 8 device burst moves 16 bytes;
the other 8 bytes are fetched and thrown away.  These tests pin down the
waste accounting that SAGM then eliminates.
"""

import pytest

from tests.helpers import make_request
from repro.dram.controller import CommandEngine, PagePolicy
from repro.dram.device import SdramDevice
from repro.sim.engine import Simulator
from repro.sim.stats import StatsCollector


def serve(ddr_timing, burst_beats, requests, page_policy=PagePolicy.OPEN_PAGE,
          otf=False):
    clock = Simulator()
    stats = StatsCollector(clock=clock)
    device = SdramDevice(ddr_timing, stats=stats)
    engine = CommandEngine(device, burst_beats=burst_beats,
                           page_policy=page_policy, otf=otf)
    pending = list(requests)
    cycle = 0
    served = 0
    while served < len(requests) and cycle < 5000:
        if pending and engine.has_space:
            engine.accept(pending.pop(0), cycle)
        engine.tick(cycle)
        served += len(engine.drain_finished())
        clock.step()
        cycle += 1
    return stats, cycle


def test_short_request_wastes_most_of_bl8(ddr2_timing):
    stats, _ = serve(ddr2_timing, 8, [make_request(beats=2)])
    assert stats.useful_beats == 2
    assert stats.wasted_beats == 6


def test_bl4_quarters_the_waste(ddr2_timing):
    stats, _ = serve(ddr2_timing, 4, [make_request(beats=2)])
    assert stats.useful_beats == 2
    assert stats.wasted_beats == 2


def test_exact_multiple_has_no_waste(ddr2_timing):
    stats, _ = serve(ddr2_timing, 8, [make_request(beats=16)])
    assert stats.wasted_beats == 0
    assert stats.useful_beats == 16


def test_fig2_example_8_bytes_in_16_byte_granularity(ddr2_timing):
    """Fig. 2: a 16-bit-bus BL 8 device always moves 16 bytes; an 8-byte
    codec request throws half away.  With our 32-bit bus the same ratio is
    a 4-beat request in a BL 8 burst."""
    stats, _ = serve(ddr2_timing, 8, [make_request(beats=4)])
    assert stats.useful_beats == stats.wasted_beats == 4


def test_waste_ratio_across_codec_mix(ddr2_timing):
    """A stream of 1/2/4-beat requests (H.264 motion compensation sizes)
    wastes the majority of BL 8 bandwidth."""
    requests = [make_request(bank=i % 4, row=0, column=8 * i, beats=b)
                for i, b in enumerate([1, 2, 4, 2, 1, 4])]
    stats, _ = serve(ddr2_timing, 8, requests)
    assert stats.useful_beats == 14
    assert stats.wasted_beats == 6 * 8 - 14


def test_ddr3_otf_trailing_bl4_reduces_waste(ddr3_timing):
    full, _ = serve(ddr3_timing, 8, [make_request(beats=12)])
    otf, _ = serve(ddr3_timing, 8, [make_request(beats=12)], otf=True)
    assert full.wasted_beats == 4
    assert otf.wasted_beats == 0
