"""CommandEngine tests: windowed in-order PRE/RAS/CAS pipelining."""

import pytest

from tests.helpers import make_request
from repro.dram.controller import CommandEngine, PagePolicy
from repro.dram.commands import CommandKind
from repro.dram.device import SdramDevice
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
    """The choosers check timing registers themselves and hand the device
    pre-vetted commands; every command they choose must still pass the
    public legality predicate, ``SdramDevice.can_issue``."""

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
        import random

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
