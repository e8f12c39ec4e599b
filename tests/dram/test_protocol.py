"""Protocol checker tests: it flags seeded violations and passes the
command engine's real output (an independent referee for the device)."""

import pytest
from hypothesis import given, settings, strategies as st

from tests.helpers import make_request
from repro.dram.bank import TimingViolation
from repro.dram.commands import CommandKind, DramCommand
from repro.dram.controller import CommandEngine, PagePolicy
from repro.dram.device import SdramDevice
from repro.dram.protocol import ProtocolChecker, audit_engine
from repro.dram.timing import DramTiming
from repro.sim.config import DdrGeneration


def act(bank, row):
    return DramCommand(kind=CommandKind.ACTIVATE, bank=bank, row=row)


def rd(bank, row, burst=8, ap=False):
    return DramCommand(kind=CommandKind.READ, bank=bank, row=row, column=0,
                       burst_beats=burst, auto_precharge=ap, useful_beats=burst)


def wr(bank, row, burst=8):
    return DramCommand(kind=CommandKind.WRITE, bank=bank, row=row, column=0,
                       burst_beats=burst, useful_beats=burst)


def pre(bank):
    return DramCommand(kind=CommandKind.PRECHARGE, bank=bank)


def ref():
    return DramCommand(kind=CommandKind.REFRESH, bank=0)


def illegal_refresh(case, t):
    """A log whose last command breaks one REF rule, and that rule."""
    first_data = t.t_rcd + t.cas_latency  # of a read issued at tRCD
    return {
        "open-bank": ([(0, act(0, 5)), (100, ref())], "ref-on-active"),
        "before-trp": (
            [(0, act(0, 5)), (t.t_ras, pre(0)),
             (t.t_ras + t.t_rp - 1, ref())],
            "tRP",
        ),
        "data-on-bus": (
            [(0, act(0, 5)), (t.t_rcd, rd(0, 5, ap=True)),
             (first_data, ref())],
            "data-bus",
        ),
        "act-in-trfc": ([(10, ref()), (10 + t.t_rfc, act(0, 5))], "tRFC"),
    }[case]


REFRESH_CASES = ["open-bank", "before-trp", "data-on-bus", "act-in-trfc"]


@pytest.fixture
def checker(ddr2_timing):
    return ProtocolChecker(ddr2_timing)


class TestSeededViolations:
    def test_clean_sequence_passes(self, checker, ddr2_timing):
        t = ddr2_timing
        log = [
            (0, act(0, 5)),
            (t.t_rcd, rd(0, 5)),
        ]
        assert checker.check(log) == []
        assert checker.clean

    def test_cas_before_trcd_flagged(self, checker, ddr2_timing):
        log = [(0, act(0, 5)), (1, rd(0, 5))]
        violations = checker.check(log)
        assert any(v.rule == "tRCD" for v in violations)

    def test_two_commands_same_cycle_flagged(self, checker):
        log = [(0, act(0, 5)), (0, act(1, 5))]
        violations = checker.check(log)
        assert any(v.rule == "command-bus" for v in violations)

    def test_act_on_active_bank_flagged(self, checker, ddr2_timing):
        log = [(0, act(0, 5)), (ddr2_timing.t_rrd, act(0, 6))]
        violations = checker.check(log)
        assert any(v.rule == "act-on-active" for v in violations)

    def test_row_mismatch_flagged(self, checker, ddr2_timing):
        log = [(0, act(0, 5)), (ddr2_timing.t_rcd, rd(0, 6))]
        violations = checker.check(log)
        assert any(v.rule == "row-mismatch" for v in violations)

    def test_premature_precharge_flagged(self, checker, ddr2_timing):
        log = [(0, act(0, 5)), (2, pre(0))]
        violations = checker.check(log)
        assert any(v.rule == "tRAS/recovery" for v in violations)

    def test_write_to_read_turnaround_flagged(self, checker, ddr2_timing):
        t = ddr2_timing
        cas_cycle = t.t_rcd
        log = [
            (0, act(0, 5)),
            (cas_cycle, wr(0, 5)),
            (cas_cycle + 1, rd(0, 5)),
        ]
        violations = checker.check(log)
        assert any(v.rule in ("tWTR", "tCCD/data-bus") for v in violations)

    def test_cas_after_auto_precharge_flagged(self, checker, ddr2_timing):
        t = ddr2_timing
        cas_cycle = t.t_rcd
        late = cas_cycle + 200
        log = [
            (0, act(0, 5)),
            (cas_cycle, rd(0, 5, ap=True)),
            (late, rd(0, 5)),
        ]
        violations = checker.check(log)
        assert any(v.rule == "cas-on-idle" for v in violations)

    def test_trrd_flagged(self, checker):
        log = [(0, act(0, 5)), (1, act(1, 5))]
        violations = checker.check(log)
        assert any(v.rule == "tRRD" for v in violations)

    def test_unknown_bank_flagged(self, checker):
        log = [(0, act(42, 5))]
        violations = checker.check(log)
        assert any(v.rule == "bank-range" for v in violations)

    def test_out_of_order_log_flagged(self, checker, ddr2_timing):
        log = [(10, act(0, 5)), (3, act(1, 6))]
        violations = checker.check(log)
        assert any(v.rule == "log-order" for v in violations)

    def test_violation_str_mentions_rule(self, checker):
        violations = checker.check([(0, act(42, 5))])
        assert "bank-range" in str(violations[0])


class TestRefreshRules:
    def test_legal_refresh_passes(self, checker, ddr2_timing):
        t = ddr2_timing
        refresh_at = t.t_ras + t.t_rp
        log = [
            (0, act(0, 5)),
            (t.t_ras, pre(0)),
            (refresh_at, ref()),
            (refresh_at + t.t_rfc + 1, act(0, 5)),
        ]
        assert checker.check(log) == []
        device = SdramDevice(t)
        for cycle, command in log:
            device.issue(cycle, command)

    @pytest.mark.parametrize("case", REFRESH_CASES)
    def test_illegal_refresh_flagged(self, case, checker, ddr2_timing):
        log, rule = illegal_refresh(case, ddr2_timing)
        violations = checker.check(log)
        assert any(v.rule == rule for v in violations), violations

    @pytest.mark.parametrize("case", REFRESH_CASES)
    def test_device_refuses_illegal_refresh(self, case, ddr2_timing):
        log, _ = illegal_refresh(case, ddr2_timing)
        device = SdramDevice(ddr2_timing)
        for cycle, command in log[:-1]:
            device.issue(cycle, command)
        cycle, command = log[-1]
        assert not device.can_issue(cycle, command)
        with pytest.raises(TimingViolation):
            device.issue(cycle, command)


class TestEngineAudit:
    """The real command engine must emit protocol-clean streams."""

    @pytest.mark.parametrize("policy", list(PagePolicy))
    def test_engine_streams_are_clean(self, ddr2_timing, policy):
        device = SdramDevice(ddr2_timing)
        engine = CommandEngine(device, burst_beats=8, page_policy=policy)
        requests = [
            make_request(bank=i % 8, row=i % 5, column=(i * 24) % 1024,
                         beats=8 + 8 * (i % 3), is_read=(i % 3 != 0),
                         ap_tag=(i % 4 == 0))
            for i in range(24)
        ]
        finished, violations = audit_engine(engine, requests)
        assert len(finished) == 24
        assert violations == []

    @settings(max_examples=15, deadline=None)
    @given(
        generation=st.sampled_from(list(DdrGeneration)),
        seed_specs=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 9),
                      st.integers(1, 48), st.booleans(), st.booleans()),
            min_size=1, max_size=10,
        ),
    )
    def test_engine_clean_under_random_traffic(self, generation, seed_specs):
        clock = {DdrGeneration.DDR1: 200, DdrGeneration.DDR2: 400,
                 DdrGeneration.DDR3: 800}[generation]
        timing = DramTiming.for_clock(generation, clock)
        device = SdramDevice(timing)
        engine = CommandEngine(device, burst_beats=8,
                               page_policy=PagePolicy.PARTIALLY_OPEN)
        requests = [
            make_request(bank=bank % timing.banks, row=row, beats=beats,
                         is_read=is_read, ap_tag=ap)
            for bank, row, beats, is_read, ap in seed_specs
        ]
        finished, violations = audit_engine(engine, requests)
        assert len(finished) == len(seed_specs)
        assert violations == []

    def test_bl4_mode_clean(self, ddr2_timing):
        device = SdramDevice(ddr2_timing)
        engine = CommandEngine(device, burst_beats=4,
                               page_policy=PagePolicy.PARTIALLY_OPEN, window=8)
        requests = [make_request(bank=i % 4, row=i % 3, beats=4,
                                 ap_tag=(i % 2 == 0)) for i in range(20)]
        finished, violations = audit_engine(engine, requests)
        assert len(finished) == 20
        assert violations == []
