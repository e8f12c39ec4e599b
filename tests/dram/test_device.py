"""SdramDevice tests: shared command/data bus constraints."""

import pytest

from repro.dram.bank import TimingViolation
from repro.dram.commands import CommandKind, DramCommand
from repro.dram.device import SdramDevice
from repro.sim.stats import StatsCollector


def act(bank, row):
    return DramCommand(kind=CommandKind.ACTIVATE, bank=bank, row=row)


def cas(bank, row, write=False, burst=8, ap=False, useful=None, request_id=None):
    return DramCommand(
        kind=CommandKind.WRITE if write else CommandKind.READ,
        bank=bank, row=row, column=0, burst_beats=burst,
        auto_precharge=ap, useful_beats=useful if useful is not None else burst,
        request_id=request_id,
    )


def pre(bank):
    return DramCommand(kind=CommandKind.PRECHARGE, bank=bank)


@pytest.fixture
def device(ddr2_timing):
    return SdramDevice(ddr2_timing)


def open_row(device, bank, row, start=0):
    """Issue ACT and return the first CAS-legal cycle."""
    device.issue(start, act(bank, row))
    return start + device.timing.t_rcd


class TestCommandBus:
    def test_one_command_per_cycle(self, device):
        device.issue(0, act(0, 0))
        assert not device.can_issue(0, act(1, 0))
        # the CAS occupies the command bus in its cycle too
        ready = device.timing.t_rcd
        device.issue(ready, cas(0, 0))
        assert not device.can_issue(ready, act(1, 1))

    def test_trrd_gates_back_to_back_activates(self, device):
        device.issue(0, act(0, 0))
        assert not device.can_issue(1, act(1, 1))
        assert device.can_issue(device.timing.t_rrd, act(1, 1))

    def test_nop_always_legal(self, device):
        assert device.can_issue(0, DramCommand(kind=CommandKind.NOP, bank=0))


class TestDataBus:
    def test_tccd_spaces_cas_commands(self, device):
        ready = open_row(device, 0, 0)
        device.issue(ready, cas(0, 0, burst=8))
        gap = max(device.timing.t_ccd, device.timing.burst_cycles(8))
        assert not device.can_issue(ready + gap - 1, cas(0, 0, burst=8))
        assert device.can_issue(ready + gap, cas(0, 0, burst=8))

    def test_burst_occupies_bus(self, device):
        ready = open_row(device, 0, 0)
        completion = device.issue(ready, cas(0, 0, burst=8))
        assert completion.data_start == ready + device.timing.cas_latency
        assert completion.data_end == completion.data_start + 3  # BL8 = 4 cycles
        assert device.data_bus_free_at == completion.data_end + 1

    def test_write_to_read_turnaround(self, device):
        ready = open_row(device, 0, 0)
        completion = device.issue(ready, cas(0, 0, write=True, burst=8))
        # a read CAS is illegal until tWTR after the last write beat
        earliest = completion.data_end + device.timing.t_wtr + 1
        assert not device.can_issue(earliest - 1, cas(0, 0))
        assert device.can_issue(earliest, cas(0, 0))

    def test_read_to_write_bus_turnaround(self, device):
        ready = open_row(device, 0, 0)
        completion = device.issue(ready, cas(0, 0, burst=8))
        # write data may not start until the read data has left plus a gap
        write = cas(0, 0, write=True, burst=8)
        wl = device.timing.write_latency
        limit = completion.data_end + device.timing.t_rtw
        too_early = limit - wl
        assert not device.can_issue(too_early, write)

    def test_illegal_issue_raises(self, device):
        with pytest.raises(TimingViolation):
            device.issue(0, cas(0, 0))

    def test_issue_rejects_unsupported_burst_length(self, device):
        """The public path validates the burst length (DDR II has no
        BL 2), before any register moves."""
        ready = open_row(device, 0, 0)
        with pytest.raises(ValueError, match="BL2"):
            device.issue(ready, cas(0, 0, burst=2))
        assert device.issued_commands == 1
        assert device.can_issue(ready, cas(0, 0, burst=4))


class TestAccounting:
    def test_stats_record_useful_and_waste(self, ddr2_timing):
        stats = StatsCollector()
        device = SdramDevice(ddr2_timing, stats=stats)
        ready = open_row(device, 0, 0)
        device.issue(ready, cas(0, 0, burst=8, useful=2))
        assert stats.useful_beats == 2
        assert stats.wasted_beats == 6
        assert stats.busy_cycles == 4

    def test_issued_command_counter(self, device):
        device.issue(0, act(0, 0))
        ready = device.timing.t_rcd
        device.issue(ready, cas(0, 0))
        assert device.issued_commands == 2


class TestBankInterleaving:
    def test_second_bank_prepares_during_first_burst(self, device):
        """The core benefit of multiple banks: ACT to bank 1 can issue while
        bank 0's data is still on the bus."""
        ready = open_row(device, 0, 0)
        completion = device.issue(ready, cas(0, 0, burst=8))
        act_cycle = max(ready + 1, device.timing.t_rrd)
        assert device.can_issue(act_cycle, act(1, 7))
        device.issue(act_cycle, act(1, 7))
        # bank 1 CAS becomes legal tRCD later, regardless of bank 0's burst
        cas_cycle = max(act_cycle + device.timing.t_rcd,
                        ready + max(device.timing.t_ccd, 4))
        assert device.can_issue(cas_cycle, cas(1, 7))
