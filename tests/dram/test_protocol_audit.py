"""Full-system DDR protocol audit.

Every command the device applies in a whole-system run — any memory
arbiter backend, clean or under fault injection — is replayed through
the independent :class:`~repro.dram.protocol.ProtocolChecker`.  The
command engine issues through the unchecked ``issue_vetted`` path, so
this is the referee for the legality checks each chooser makes itself.
"""

import pytest

from repro.core.system import build_system
from repro.dram.protocol import ProtocolChecker
from repro.resilience.faults import FaultConfig
from repro.sim.config import DdrGeneration, SystemConfig

CYCLES = 4_000

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


@pytest.mark.parametrize("faulty", [False, True], ids=["clean", "faulty"])
@pytest.mark.parametrize("point", sorted(POINTS))
@pytest.mark.parametrize(
    "arbiter", ["engine", "memmax", "databahn", "dpq", "bank-reg"]
)
def test_full_system_command_stream_is_legal(arbiter, point, faulty):
    config = SystemConfig(
        cycles=CYCLES, warmup=500, arbiter=arbiter,
        faults=FaultConfig.uniform(2e-3) if faulty else None,
        **POINTS[point],
    )
    system = build_system(config)
    log = _record_commands(system.device)
    system.simulator.run(CYCLES)
    assert len(log) > 100
    violations = ProtocolChecker(system.timing).check(log)
    assert violations == [], "\n".join(str(v) for v in violations[:10])
