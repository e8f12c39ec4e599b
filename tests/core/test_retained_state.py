"""A running system's retained state does not grow with the horizon.

Delivered packets and served DRAM bursts must not stay reachable from the
:class:`~repro.core.system.SocSystem`: NI sinks record no arrival list and
the device keeps no completion list.  The pickled system — exactly what a
checkpoint writes — is the measure, so a snapshot costs the same at any
cycle.  Opt-in per-request stores (``keep_samples``, ``MemoryTracer``) are
off here.
"""

import pickle

import pytest

from repro.core.system import build_system
from repro.resilience.faults import FaultConfig
from repro.sim.config import NocDesign, SystemConfig

#: Pickled size after :data:`LONG` cycles may exceed the size after
#: :data:`SHORT` by at most this factor (queue contents fluctuate).
GROWTH_BOUND = 1.5
SHORT, LONG = 4_000, 16_000


def _pickled_bytes(system) -> int:
    return len(pickle.dumps(system, protocol=pickle.HIGHEST_PROTOCOL))


@pytest.mark.parametrize("overrides", [
    pytest.param(dict(arbiter="engine"), id="engine"),
    pytest.param(dict(arbiter="memmax"), id="memmax"),
    pytest.param(dict(arbiter="databahn"), id="databahn"),
    pytest.param(dict(arbiter="dpq"), id="dpq"),
    pytest.param(dict(arbiter="bank-reg"), id="bank-reg"),
    pytest.param(dict(design=NocDesign.CONV), id="conv"),
    pytest.param(
        dict(design=NocDesign.GSS_SAGM, sti=True, virtual_channels=2),
        id="gss-sagm-sti-2vc",
    ),
    pytest.param(
        dict(faults=FaultConfig.uniform(2e-3), check_invariants=True),
        id="faults-checked",
    ),
    pytest.param(dict(adaptive_routing=True), id="adaptive"),
])
def test_pickled_system_size_independent_of_horizon(overrides):
    system = build_system(SystemConfig(
        app="single_dtv", cycles=LONG, warmup=1_000, **overrides
    ))
    system.simulator.run(SHORT)
    short = _pickled_bytes(system)
    system.simulator.run(LONG - SHORT)
    long = _pickled_bytes(system)
    assert system.stats.all_packets.count > 0
    assert long <= GROWTH_BOUND * short, (
        f"pickled system grew {long / short:.2f}x from cycle {SHORT} "
        f"({short} B) to {LONG} ({long} B)"
    )
