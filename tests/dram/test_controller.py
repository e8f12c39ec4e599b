"""CommandEngine tests: windowed in-order PRE/RAS/CAS pipelining."""

import dataclasses
import math
import random

import pytest

from tests.helpers import make_request
from repro.dram.bank import BankState
from repro.dram.controller import CommandEngine, PagePolicy
from repro.dram.commands import CommandKind, DramCommand
from repro.dram.device import SdramDevice
from repro.dram.refresh import RefreshTimer
from repro.sim.stats import StatsCollector


def run_engine(engine, requests, max_cycles=3000):
    """Feed requests as window space allows; return finished + command log."""
    pending = list(requests)
    finished = []
    log = []
    cycle = 0
    while (pending or not engine.idle) and cycle < max_cycles:
        while pending and engine.has_space:
            engine.accept(pending.pop(0), cycle)
        command = engine.tick(cycle)
        if command is not None:
            log.append((cycle, command))
        finished.extend(engine.drain_finished())
        cycle += 1
    return finished, log, cycle


@pytest.fixture
def device(ddr2_timing):
    return SdramDevice(ddr2_timing, stats=StatsCollector())


class TestBasicService:
    def test_single_read_completes(self, device):
        engine = CommandEngine(device, burst_beats=8)
        finished, log, _ = run_engine(engine, [make_request(beats=8)])
        assert len(finished) == 1
        kinds = [c.kind for _, c in log]
        assert kinds == [CommandKind.ACTIVATE, CommandKind.READ]

    def test_multi_burst_request(self, device):
        engine = CommandEngine(device, burst_beats=8)
        finished, log, _ = run_engine(engine, [make_request(beats=24)])
        assert len(finished) == 1
        reads = [c for _, c in log if c.kind is CommandKind.READ]
        assert len(reads) == 3  # 24 beats = 3 x BL8
        # column advances burst by burst
        assert [c.column for c in reads] == [0, 8, 16]

    def test_cas_strictly_in_order(self, device):
        engine = CommandEngine(device, burst_beats=8)
        requests = [make_request(bank=i % 4, row=i, beats=8) for i in range(6)]
        ids = [r.request_id for r in requests]
        finished, _, _ = run_engine(engine, requests)
        assert [f.request.request_id for f in finished] == ids

    def test_finished_reports_data_ready_cycle(self, device):
        engine = CommandEngine(device, burst_beats=8)
        finished, log, _ = run_engine(engine, [make_request(beats=8)])
        cas_cycle = [c for c in log if c[1].kind is CommandKind.READ][0][0]
        expected_end = cas_cycle + device.timing.cas_latency + 3
        assert finished[0].data_ready_cycle == expected_end


class TestPipelining:
    def test_act_for_younger_overlaps_older_burst(self, device):
        engine = CommandEngine(device, burst_beats=8, window=4)
        a = make_request(bank=0, row=0, beats=32)
        b = make_request(bank=1, row=1, beats=8)
        _, log, _ = run_engine(engine, [a, b])
        act_b = next(c for cycle, c in log
                     if c.kind is CommandKind.ACTIVATE and c.bank == 1)
        last_read_a = max(cycle for cycle, c in log
                          if c.kind is CommandKind.READ and c.bank == 0)
        act_b_cycle = next(cycle for cycle, c in log
                           if c.kind is CommandKind.ACTIVATE and c.bank == 1)
        assert act_b_cycle < last_read_a  # prep overlapped service

    def test_demand_precharge_waits_for_older_row_user(self, device):
        """PRE for a younger conflicting request must not close a row an
        older queued request still needs."""
        engine = CommandEngine(device, burst_beats=8, window=4)
        first = make_request(bank=0, row=5, beats=8)
        second = make_request(bank=0, row=5, beats=8)   # same row (hit)
        third = make_request(bank=0, row=9, beats=8)    # conflict
        _, log, _ = run_engine(engine, [first, second, third])
        pre_cycle = next(cycle for cycle, c in log
                         if c.kind is CommandKind.PRECHARGE)
        second_cas = sorted(cycle for cycle, c in log
                            if c.kind is CommandKind.READ)[1]
        assert pre_cycle > second_cas

    def test_interleaved_banks_faster_than_conflicts(self, device):
        interleaved = [make_request(bank=i % 4, row=0, beats=8) for i in range(8)]
        engine = CommandEngine(device, burst_beats=8)
        _, _, cycles_interleaved = run_engine(engine, interleaved)

        device2 = SdramDevice(device.timing)
        conflicting = [make_request(bank=0, row=i, beats=8) for i in range(8)]
        engine2 = CommandEngine(device2, burst_beats=8)
        _, _, cycles_conflicting = run_engine(engine2, conflicting)
        assert cycles_interleaved < cycles_conflicting


class TestPagePolicies:
    def test_closed_page_sets_ap_on_every_cas(self, device):
        engine = CommandEngine(device, burst_beats=8,
                               page_policy=PagePolicy.CLOSED_PAGE)
        _, log, _ = run_engine(engine, [make_request(beats=8),
                                        make_request(bank=1, beats=8)])
        cas = [c for _, c in log if c.kind.is_cas]
        assert all(c.auto_precharge for c in cas)
        assert not any(c.kind is CommandKind.PRECHARGE for _, c in log)

    def test_partially_open_honors_ap_tag(self, device):
        engine = CommandEngine(device, burst_beats=8,
                               page_policy=PagePolicy.PARTIALLY_OPEN)
        tagged = make_request(bank=0, row=0, beats=8, ap_tag=True)
        untagged = make_request(bank=1, row=0, beats=8)
        _, log, _ = run_engine(engine, [tagged, untagged])
        cas = {c.bank: c for _, c in log if c.kind.is_cas}
        assert cas[0].auto_precharge
        assert not cas[1].auto_precharge

    def test_ap_only_on_last_burst_of_multiburst(self, device):
        engine = CommandEngine(device, burst_beats=8,
                               page_policy=PagePolicy.CLOSED_PAGE)
        _, log, _ = run_engine(engine, [make_request(beats=24)])
        cas = [c for _, c in log if c.kind.is_cas]
        assert [c.auto_precharge for c in cas] == [False, False, True]

    def test_open_page_row_hits_skip_activation(self, device):
        engine = CommandEngine(device, burst_beats=8)
        hits = [make_request(bank=0, row=0, column=i * 8, beats=8)
                for i in range(4)]
        _, log, _ = run_engine(engine, hits)
        acts = [c for _, c in log if c.kind is CommandKind.ACTIVATE]
        assert len(acts) == 1
        assert device.stats.row_hits == 3
        assert device.stats.row_misses == 1


class TestOtfMode:
    def test_trailing_chunk_uses_bl4(self, ddr3_timing):
        device = SdramDevice(ddr3_timing)
        engine = CommandEngine(device, burst_beats=8, otf=True)
        _, log, _ = run_engine(engine, [make_request(beats=12)])
        bursts = [c.burst_beats for _, c in log if c.kind.is_cas]
        assert bursts == [8, 4]

    def test_small_request_uses_bl4(self, ddr3_timing):
        device = SdramDevice(ddr3_timing)
        engine = CommandEngine(device, burst_beats=8, otf=True)
        _, log, _ = run_engine(engine, [make_request(beats=3)])
        bursts = [c.burst_beats for _, c in log if c.kind.is_cas]
        assert bursts == [4]


class TestValidation:
    def test_window_must_be_positive(self, device):
        with pytest.raises(ValueError):
            CommandEngine(device, burst_beats=8, window=0)

    def test_burst_must_be_supported(self, device):
        with pytest.raises(ValueError):
            CommandEngine(device, burst_beats=16)

    def test_otf_needs_bl4_support(self, ddr3_timing):
        """OTF issues BL 4 chunks through the device's vetted path, which
        does not re-check burst lengths, so the engine checks BL 4 up
        front."""
        bl8_only = dataclasses.replace(
            ddr3_timing, supported_burst_beats=(8,)
        )
        CommandEngine(SdramDevice(bl8_only), burst_beats=8)
        with pytest.raises(ValueError, match="BL4"):
            CommandEngine(SdramDevice(bl8_only), burst_beats=8, otf=True)

    def test_accept_beyond_window_raises(self, device):
        engine = CommandEngine(device, burst_beats=8, window=1)
        engine.accept(make_request(), 0)
        with pytest.raises(RuntimeError):
            engine.accept(make_request(), 0)


def test_accept_validates_bank_range(ddr1_timing):
    """A request addressing a bank the device does not have is rejected at
    acceptance, not deep inside command selection (hypothesis-found)."""
    device = SdramDevice(ddr1_timing)
    engine = CommandEngine(device, burst_beats=8)
    with pytest.raises(ValueError, match="bank"):
        engine.accept(make_request(bank=7), 0)  # DDR I has 4 banks


class TestChosenCommandsAreLegal:
    """The engine plans from the timing registers itself and hands the
    device pre-vetted commands; every command it issues must still pass
    the public legality predicate, ``SdramDevice.can_issue``."""

    @staticmethod
    def _audited(device):
        chosen = []
        apply = device.issue_vetted

        def issue_vetted(cycle, command):
            assert device.can_issue(cycle, command), (cycle, str(command))
            chosen.append(command.kind)
            return apply(cycle, command)

        device.issue_vetted = issue_vetted
        return chosen

    @pytest.mark.parametrize("policy", list(PagePolicy))
    @pytest.mark.parametrize("generation", ["ddr2", "ddr3"])
    def test_random_streams(self, policy, generation, ddr2_timing,
                            ddr3_timing):
        timing = ddr2_timing if generation == "ddr2" else ddr3_timing
        device = SdramDevice(timing, stats=StatsCollector())
        chosen = self._audited(device)
        engine = CommandEngine(
            device, burst_beats=8 if generation == "ddr3" else 4,
            page_policy=policy, window=6, otf=generation == "ddr3",
        )
        rng = random.Random(2010)
        requests = [
            make_request(
                bank=rng.randrange(timing.banks), row=rng.randrange(3),
                beats=rng.choice((2, 4, 8, 12, 16, 32)),
                is_read=rng.random() < 0.6, ap_tag=rng.random() < 0.5,
            )
            for _ in range(120)
        ]
        finished, _, _ = run_engine(engine, requests, max_cycles=20_000)
        assert len(finished) == len(requests)
        assert set(chosen) >= {
            CommandKind.ACTIVATE, CommandKind.READ, CommandKind.WRITE,
        }

    @pytest.mark.parametrize(
        "arbiter", ["engine", "memmax", "databahn", "dpq", "bank-reg"]
    )
    def test_full_system_backends(self, arbiter):
        from repro.core.system import build_system
        from repro.sim.config import SystemConfig

        system = build_system(SystemConfig(
            app="single_dtv", cycles=1_500, warmup=200, seed=2010,
            arbiter=arbiter,
        ))
        chosen = self._audited(system.subsystem.device)
        system.run(1_500)
        assert CommandKind.READ in chosen


def _key(command):
    """What identifies an issued command: kind, bank, and the row (ACT)
    or the request served (CAS)."""
    if command is None:
        return None
    if command.kind.is_cas:
        return (command.kind, command.bank, command.request_id)
    return (command.kind, command.bank, command.row)


def _reference(engine, cycle):
    """The command a brute-force chooser issues at ``cycle``, polling
    every candidate through ``SdramDevice.can_issue``: CAS for the head;
    else ACT for the first entry per bank; else PRE for the first entry
    per bank whose open row no older entry needs.  A due refresh instead
    precharges the first open bank it can, or issues REF once the device
    accepts one (which holds every bank for tRFC after it)."""
    device = engine.device
    refresh = engine.refresh
    if refresh is not None and refresh.due(cycle):
        for bank in device.banks:
            pre = DramCommand(kind=CommandKind.PRECHARGE, bank=bank.index)
            if bank.state is BankState.ACTIVE and device.can_issue(cycle, pre):
                return _key(pre)
        ref = DramCommand(kind=CommandKind.REFRESH, bank=0)
        return _key(ref) if device.can_issue(cycle, ref) else None
    entries = engine.entries
    if not entries:
        return None
    head = entries[0].request
    cas = DramCommand(
        kind=CommandKind.WRITE if head.is_write else CommandKind.READ,
        bank=head.bank, row=head.row, burst_beats=engine.burst_beats,
        request_id=head.request_id,
    )
    if device.can_issue(cycle, cas):
        return _key(cas)
    firsts = []
    for index, entry in enumerate(entries):
        if all(entries[i].request.bank != entry.request.bank for i in firsts):
            firsts.append(index)
    for index in firsts:
        request = entries[index].request
        act = DramCommand(
            kind=CommandKind.ACTIVATE, bank=request.bank, row=request.row
        )
        if device.can_issue(cycle, act):
            return _key(act)
    for index in firsts:
        request = entries[index].request
        open_row = device.banks[request.bank].open_row
        if open_row is None or open_row == request.row:
            continue
        if any(
            older.request.bank == request.bank
            and older.request.row == open_row
            for older in entries[:index]
        ):
            continue
        pre = DramCommand(kind=CommandKind.PRECHARGE, bank=request.bank)
        if device.can_issue(cycle, pre):
            return _key(pre)
    return None


class TestPlannerMatchesReference:
    """The engine plans its next command once per state change instead of
    polling.  Driven cycle by cycle on random streams, every ``tick`` must
    issue exactly what the brute-force reference picks at that cycle, and
    ``next_event_cycle(c)`` must be exact: no tick before it issues a
    command (refresh work included), and the tick at it does."""

    @pytest.mark.parametrize(
        "refresh", [False, True], ids=["norefresh", "refresh"]
    )
    @pytest.mark.parametrize("window", [1, 4, 6])
    @pytest.mark.parametrize("generation", ["ddr2-bl4", "ddr3-bl8-otf"])
    @pytest.mark.parametrize("policy", list(PagePolicy))
    def test_random_stream(self, policy, generation, window, refresh,
                           ddr2_timing, ddr3_timing):
        ddr3 = generation == "ddr3-bl8-otf"
        timing = ddr3_timing if ddr3 else ddr2_timing
        device = SdramDevice(timing, stats=StatsCollector())
        timer = None
        if refresh:
            timer = RefreshTimer(timing)
            timer.t_refi = timer._next_due = 300  # many refreshes per run
        engine = CommandEngine(
            device, burst_beats=8 if ddr3 else 4, page_policy=policy,
            window=window, otf=ddr3, refresh=timer,
        )
        rng = random.Random(f"{policy.value}/{generation}/{window}/{refresh}")
        arrival = 0
        arrivals = []
        for _ in range(150):
            arrival += rng.choice((0, 0, 0, 1, 3, 12, 60))
            arrivals.append((arrival, make_request(
                bank=rng.randrange(timing.banks), row=rng.randrange(3),
                beats=rng.choice((2, 4, 8, 12, 16, 32)),
                is_read=rng.random() < 0.6, ap_tag=rng.random() < 0.5,
            )))
        arrivals.reverse()
        wake = None  # the engine's promise: next acting cycle (inf: never)
        served = issued = 0
        cycle = 0
        while arrivals or not engine.idle:
            assert cycle < 100_000, "stream did not drain"
            expected = _reference(engine, cycle)
            command = engine.tick(cycle)
            assert _key(command) == expected, f"cycle {cycle}"
            acted = command is not None
            if wake is not None:
                assert acted == (cycle == wake), (
                    f"cycle {cycle}: acted={acted}, promised wake {wake}"
                )
            issued += command is not None
            served += len(engine.drain_finished())
            accepted = False
            while arrivals and arrivals[-1][0] <= cycle and engine.has_space:
                engine.accept(arrivals.pop()[1], cycle)
                accepted = True
            # Query on about half the cycles, so ticks also replan alone.
            if rng.random() < 0.5:
                wake = engine.next_event_cycle(cycle)
                if wake is None:
                    wake = math.inf
                assert wake > cycle
            elif acted or accepted:
                wake = None  # the last promise assumed neither
            cycle += 1
        assert served == 150
        assert issued == device.issued_commands
        if timer is not None:
            assert timer.refreshes_issued >= 2
            assert device.stats.commands_issued["REF"] == timer.refreshes_issued
