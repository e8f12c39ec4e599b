"""InvariantChecker: silent on healthy fabrics, loud on corrupted state."""

import pytest

from repro.core.system import build_system
from repro.core.tokens import MAX_TOKENS
from repro.resilience.invariants import InvariantChecker, InvariantViolation
from repro.sim.config import NocDesign, SystemConfig


def _running_system(design=NocDesign.GSS_SAGM, cycles=400, **overrides):
    config = SystemConfig(
        cycles=1_200, warmup=200, seed=2010, design=design, **overrides
    )
    system = build_system(config)
    for _ in range(cycles):
        system.simulator.step()
    return system


class _StubController:
    def __init__(self, tracked, counts=()):
        self._tracked = tracked
        self._counts = counts

    def tracked_packet_ids(self):
        return self._tracked

    def token_counts(self):
        return self._counts


class TestHealthyRuns:
    @pytest.mark.parametrize("design", [
        NocDesign.CONV, NocDesign.GSS, NocDesign.GSS_SAGM,
    ])
    def test_checker_never_fires_fault_free(self, design):
        config = SystemConfig(
            cycles=1_500, warmup=300, seed=2010, design=design,
            check_invariants=True,
        )
        system = build_system(config)
        system.run()  # raises InvariantViolation on any audit failure
        assert system.invariant_checker.checks_run > 0

    def test_final_manual_audit_passes(self):
        system = _running_system()
        checker = InvariantChecker(system.network)
        checker.check(400)
        assert checker.checks_run == 1


class TestConstruction:
    def test_interval_validated(self):
        system = _running_system(cycles=1)
        with pytest.raises(ValueError):
            InvariantChecker(system.network, interval=0)
        with pytest.raises(ValueError):
            InvariantChecker(system.network, max_packet_age=0)

    def test_on_cycle_respects_interval(self):
        system = _running_system(cycles=1)
        checker = InvariantChecker(system.network, interval=64)
        checker.on_cycle(63)
        assert checker.checks_run == 0
        checker.on_cycle(128)
        assert checker.checks_run == 1


class TestViolations:
    def test_negative_reserved_slots_is_credit_violation(self):
        system = _running_system()
        checker = InvariantChecker(system.network)
        buffer = next(iter(system.network.local_sinks.values()))
        buffer._reserved_slots = -1
        with pytest.raises(InvariantViolation) as excinfo:
            checker.check(400)
        assert excinfo.value.kind == "credit"
        assert excinfo.value.cycle == 400

    def test_inconsistent_flit_counters_is_credit_violation(self):
        system = _running_system()
        checker = InvariantChecker(system.network)
        entry = None
        for router in system.network.routers:
            for lanes in router.inputs.values():
                for buffer in lanes:
                    if buffer.entries:
                        entry = buffer.entries[0]
                        break
        assert entry is not None, "no resident packet after 400 cycles"
        entry.sent = entry.received + 1
        with pytest.raises(InvariantViolation) as excinfo:
            checker.check(400)
        assert excinfo.value.kind == "credit"

    def test_occupancy_drift_is_credit_violation(self):
        system = _running_system()
        checker = InvariantChecker(system.network)
        buffer = next(
            buffer
            for router in system.network.routers
            for lanes in router.inputs.values()
            for buffer in lanes
            if buffer.entries
            and buffer.occupancy_flits < buffer.capacity_flits
        )
        buffer._occupancy += 1  # still within capacity
        with pytest.raises(InvariantViolation) as excinfo:
            checker.check(400)
        assert excinfo.value.kind == "credit"
        assert "occupancy" in excinfo.value.detail

    def test_entry_tally_drift_is_credit_violation(self):
        system = _running_system()
        checker = InvariantChecker(system.network)
        router = system.network.routers[0]
        router._entry_tally[0] += 1
        with pytest.raises(InvariantViolation) as excinfo:
            checker.check(400)
        assert excinfo.value.kind == "credit"
        assert "entry tally" in excinfo.value.detail

    def test_claimed_entry_count_drift_is_channel_violation(self):
        system = _running_system()
        checker = InvariantChecker(system.network)
        router = system.network.routers[0]
        router._claimed_entries += 1
        with pytest.raises(InvariantViolation) as excinfo:
            checker.check(400)
        assert excinfo.value.kind == "channel"
        assert "router0: claimed-entry count" in excinfo.value.detail

    def test_idle_output_in_channel_list_is_channel_violation(self):
        system = _running_system()
        checker = InvariantChecker(system.network)
        channels = system.network._channels
        idle = next(
            output
            for router in system.network.routers
            for output in router.outputs.values()
            if output.transfer is None
        )
        channels.append(idle)
        with pytest.raises(InvariantViolation) as excinfo:
            checker.check(400)
        assert excinfo.value.kind == "channel"
        assert "claimed-channel list" in excinfo.value.detail

    def test_channel_list_out_of_order_is_channel_violation(self):
        system = _running_system()
        checker = InvariantChecker(system.network)
        channels = system.network._channels
        assert len(channels) >= 2, "fewer than two claimed channels at 400"
        channels.reverse()
        with pytest.raises(InvariantViolation) as excinfo:
            checker.check(400)
        assert excinfo.value.kind == "channel"

    def test_tracked_ghost_is_token_violation(self):
        system = _running_system()
        router = system.network.routers[0]
        port = next(iter(router.outputs))
        router.outputs[port].controller = _StubController(tracked={10**9})
        checker = InvariantChecker(system.network)
        with pytest.raises(InvariantViolation) as excinfo:
            checker.check(400)
        assert excinfo.value.kind == "token"
        assert str(10**9) in excinfo.value.detail

    def test_token_count_outside_band_is_token_violation(self):
        system = _running_system()
        router = system.network.routers[0]
        port = next(iter(router.outputs))
        router.outputs[port].controller = _StubController(
            tracked=set(), counts=(((MAX_TOKENS + 1), "packet"),)
        )
        checker = InvariantChecker(system.network)
        with pytest.raises(InvariantViolation) as excinfo:
            checker.check(400)
        assert excinfo.value.kind == "token"

    def test_stale_packet_is_age_violation(self):
        system = _running_system()
        checker = InvariantChecker(system.network, max_packet_age=1)
        resident = any(
            buffer.entries
            for router in system.network.routers
            for lanes in router.inputs.values()
            for buffer in lanes
        )
        assert resident, "no resident packet after 400 cycles"
        with pytest.raises(InvariantViolation) as excinfo:
            checker.check(100_000)
        assert excinfo.value.kind == "packet-age"

    def test_violation_is_assertion_error_with_context(self):
        violation = InvariantViolation("token", 42, "ghost packet")
        assert isinstance(violation, AssertionError)
        assert violation.kind == "token"
        assert violation.cycle == 42
        assert "ghost packet" in str(violation)
        assert "@cycle 42" in str(violation)
