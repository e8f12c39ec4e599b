"""Full-system DDR protocol audit.

Every command the device applies in a whole-system run — any memory
arbiter backend, clean or under fault injection — is replayed through
the independent :class:`~repro.dram.protocol.ProtocolChecker`.  The
command engine issues through the unchecked ``issue_vetted`` path, so
this is the referee for the legality checks its planner makes itself —
with refresh off, and with a REF due every ``REFRESH_INTERVAL`` cycles.
"""

import pytest

from repro.core.system import build_system
from repro.dram.commands import CommandKind
from repro.dram.protocol import ProtocolChecker
from repro.dram.refresh import RefreshTimer
from repro.resilience.faults import FaultConfig
from repro.sim.config import DdrGeneration, SystemConfig

CYCLES = 4_000
#: Refresh interval of the refresh-on runs: several REFs per run.
REFRESH_INTERVAL = 400

POINTS = {
    "single_dtv-ddr2-333": dict(
        app="single_dtv", ddr=DdrGeneration.DDR2, clock_mhz=333
    ),
    "bluray-ddr3-533-sti-prio": dict(
        app="bluray", ddr=DdrGeneration.DDR3, clock_mhz=533,
        sti=True, priority_enabled=True,
    ),
    "dual_dtv-ddr1-200": dict(
        app="dual_dtv", ddr=DdrGeneration.DDR1, clock_mhz=200
    ),
}


def _record_commands(device):
    """Log every (cycle, command) the device applies, by wrapping the
    instance's ``issue_vetted`` (the engine's only issue path)."""
    log = []
    issue_vetted = device.issue_vetted

    def recording_issue(cycle, command):
        log.append((cycle, command))
        return issue_vetted(cycle, command)

    device.issue_vetted = recording_issue
    return log


@pytest.mark.parametrize(
    "faulty, refresh",
    [(False, False), (True, False), (False, True), (True, True)],
    ids=["clean", "faulty", "clean-refresh", "faulty-refresh"],
)
@pytest.mark.parametrize("point", sorted(POINTS))
@pytest.mark.parametrize(
    "arbiter", ["engine", "memmax", "databahn", "dpq", "bank-reg"]
)
def test_full_system_command_stream_is_legal(arbiter, point, faulty, refresh):
    config = SystemConfig(
        cycles=CYCLES, warmup=500, arbiter=arbiter,
        faults=FaultConfig.uniform(2e-3) if faulty else None,
        **POINTS[point],
    )
    system = build_system(config)
    if refresh:
        timer = RefreshTimer(system.timing)
        timer.t_refi = timer._next_due = REFRESH_INTERVAL
        system.subsystem.engine.refresh = timer
    log = _record_commands(system.device)
    system.simulator.run(CYCLES)
    assert len(log) > 100
    refreshes = sum(command.kind is CommandKind.REFRESH for _, command in log)
    assert refreshes == (timer.refreshes_issued if refresh else 0)
    if refresh:
        assert refreshes > 0
    violations = ProtocolChecker(system.timing).check(log)
    assert violations == [], "\n".join(str(v) for v in violations[:10])
