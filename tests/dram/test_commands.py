"""DramCommand validation tests."""

import enum
import sys

import pytest

from repro.core.system import build_system
from repro.dram.commands import CommandKind, DramCommand
from repro.sim.config import DdrGeneration, NocDesign, SystemConfig


def test_cas_kinds_flagged():
    assert CommandKind.READ.is_cas
    assert CommandKind.WRITE.is_cas
    assert not CommandKind.ACTIVATE.is_cas
    assert not CommandKind.PRECHARGE.is_cas


def test_activate_requires_row():
    with pytest.raises(ValueError):
        DramCommand(kind=CommandKind.ACTIVATE, bank=0)
    DramCommand(kind=CommandKind.ACTIVATE, bank=0, row=5)


def test_cas_requires_burst():
    with pytest.raises(ValueError):
        DramCommand(kind=CommandKind.READ, bank=0, row=0, column=0)
    DramCommand(kind=CommandKind.READ, bank=0, row=0, column=0, burst_beats=8)


def test_auto_precharge_only_on_cas():
    with pytest.raises(ValueError):
        DramCommand(kind=CommandKind.PRECHARGE, bank=0, auto_precharge=True)
    DramCommand(
        kind=CommandKind.WRITE, bank=0, row=0, column=0,
        burst_beats=8, auto_precharge=True,
    )


def test_useful_beats_bounded_by_burst():
    with pytest.raises(ValueError):
        DramCommand(
            kind=CommandKind.READ, bank=0, row=0, column=0,
            burst_beats=4, useful_beats=5,
        )


def test_negative_bank_rejected():
    with pytest.raises(ValueError):
        DramCommand(kind=CommandKind.PRECHARGE, bank=-1)


def test_str_mentions_ap_and_burst():
    command = DramCommand(
        kind=CommandKind.READ, bank=2, row=7, column=0,
        burst_beats=4, auto_precharge=True,
    )
    text = str(command)
    assert "RD" in text and "b2" in text and "BL4" in text and "AP" in text


def test_read_write_flags():
    read = DramCommand(kind=CommandKind.READ, bank=0, row=0, column=0, burst_beats=4)
    write = DramCommand(kind=CommandKind.WRITE, bank=0, row=0, column=0, burst_beats=4)
    assert read.is_read and not read.is_write
    assert write.is_write and not write.is_read


def test_issuing_commands_makes_no_enum_call():
    """Deterministic cost guard: 2,000 stepped cycles of the conv_dual
    configuration issue hundreds of SDRAM commands and make no Python
    call into ``enum`` (``Enum.value`` is a descriptor call, hashing a
    member a Python-level ``Enum.__hash__``)."""
    system = build_system(SystemConfig(
        app="dual_dtv", ddr=DdrGeneration.DDR2, clock_mhz=400,
        design=NocDesign.CONV, cycles=100_000,
    ))
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename == enum.__file__:
            calls += 1

    step = system.simulator.step
    sys.setprofile(profile)
    try:
        for _ in range(2_000):
            step()
    finally:
        sys.setprofile(None)
    assert system.device.issued_commands > 100
    assert calls == 0, f"{calls} Python calls into enum"
