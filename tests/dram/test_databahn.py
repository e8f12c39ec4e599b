"""The Databahn lookahead controller: a command engine with a
``DATABAHN_LOOKAHEAD``-entry open-page window, as the CONV subsystem and
the ``databahn`` backend build it."""

import pytest

from tests.helpers import make_request
from repro.dram.controller import CommandEngine, PagePolicy
from repro.dram.device import SdramDevice
from repro.dram.subsystem import DATABAHN_LOOKAHEAD, ConvMemorySubsystem


def databahn(device):
    return CommandEngine(device, burst_beats=8, window=DATABAHN_LOOKAHEAD)


def test_defaults_match_product_description(ddr2_timing):
    engine = ConvMemorySubsystem(SdramDevice(ddr2_timing)).engine
    assert engine.window_size == DATABAHN_LOOKAHEAD
    assert engine.page_policy is PagePolicy.OPEN_PAGE
    assert engine.burst_beats == 8


def test_lookahead_prepares_pages_in_advance(ddr2_timing):
    """With a deep window, the ACT for a later request issues while an
    earlier burst still owns the data bus."""
    device = SdramDevice(ddr2_timing)
    controller = databahn(device)
    requests = [make_request(bank=i, row=i, beats=32) for i in range(4)]
    log = []
    pending = list(requests)
    cycle = 0
    served = 0
    while served < 4 and cycle < 2_000:
        while pending and controller.has_space:
            controller.accept(pending.pop(0), cycle)
        command = controller.tick(cycle)
        if command is not None:
            log.append((cycle, command))
        served += len(controller.drain_finished())
        cycle += 1
    act_cycles = {c.bank: cycle for cycle, c in log if c.kind.value == "ACT"}
    # bank 3's activation happens before bank 0 finishes its 4 bursts
    last_bank0_cas = max(cycle for cycle, c in log
                         if c.kind.is_cas and c.bank == 0)
    assert act_cycles[3] < last_bank0_cas


def test_deep_window_accepts_more_than_thin_engine(ddr2_timing):
    controller = databahn(SdramDevice(ddr2_timing))
    for i in range(DATABAHN_LOOKAHEAD):
        controller.accept(make_request(bank=i % 8), 0)
    assert not controller.has_space
    with pytest.raises(RuntimeError):
        controller.accept(make_request(), 0)
