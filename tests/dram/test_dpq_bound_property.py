"""Property test: the DPQ analytic latency bound is sound.

The arbiter's claim: for *any* traffic mix, fault rate, and timing set,
with refresh off, the measured worst-case service latency (p100,
admission → final data beat) never exceeds
:func:`repro.dram.dpq.dpq_latency_bound`.  Two layers:

* a direct-drive property that hammers the scheduler with randomized
  request streams across every (DDR generation, clock) point the paper
  uses, and
* a full-system property that runs complete simulations — NoC and
  faults — with ``arbiter="dpq"`` and compares the reported
  ``service_p100`` against ``wcet_bound``.

Refresh stays off in both: the bound has no refresh term yet, and with a
REF due every 100 cycles measured full-system p100 has exceeded it.
"""

from hypothesis import given, settings, strategies as st

from tests.helpers import make_request
from repro.core.system import build_system
from repro.dram.device import SdramDevice
from repro.dram.dpq import DpqScheduler
from repro.dram.timing import DramTiming
from repro.resilience.faults import FaultConfig
from repro.sim.config import DdrGeneration, NocDesign, SystemConfig

#: Every (generation, clock) point exercised by the paper's tables.
TIMING_POINTS = (
    (DdrGeneration.DDR1, 133),
    (DdrGeneration.DDR1, 166),
    (DdrGeneration.DDR2, 333),
    (DdrGeneration.DDR3, 667),
    (DdrGeneration.DDR3, 800),
)

request_params = st.tuples(
    st.integers(min_value=0, max_value=3),    # master
    st.integers(min_value=0, max_value=7),    # bank
    st.integers(min_value=0, max_value=63),   # row
    st.sampled_from((4, 8, 16, 32, 64)),      # beats
    st.booleans(),                            # is_read
)


@settings(max_examples=25, deadline=None)
@given(
    point=st.sampled_from(TIMING_POINTS),
    stream=st.lists(request_params, min_size=1, max_size=40),
    queue_capacity=st.integers(min_value=1, max_value=4),
)
def test_bound_holds_direct_drive(point, stream, queue_capacity):
    ddr, mhz = point
    timing = DramTiming.for_clock(ddr, mhz)
    device = SdramDevice(timing)
    dpq = DpqScheduler(device, timing, queue_capacity=queue_capacity)
    banks = len(device.banks)  # 4 on DDR1, 8 on DDR2/DDR3
    pending = [
        make_request(
            master=m, bank=b % banks, row=r, beats=beats, is_read=rd
        )
        for m, b, r, beats, rd in stream
    ]
    total = len(pending)
    finished = []
    cycle = 0
    while (pending or not dpq.idle) and cycle < 500_000:
        while pending and dpq.can_accept(pending[0]):
            dpq.enqueue(pending.pop(0), cycle)
        dpq.tick(cycle)
        finished.extend(dpq.drain_finished())
        cycle += 1
    assert len(finished) == total, "DPQ failed to drain the stream"
    bound = dpq.latency_bound()
    assert bound is not None
    assert dpq.service_latency.p100 <= bound, (
        f"p100 {dpq.service_latency.p100} exceeds bound {bound} "
        f"({ddr.value}@{mhz}MHz, Q={queue_capacity}, {total} requests)"
    )


@settings(max_examples=8, deadline=None)
@given(
    point=st.sampled_from(TIMING_POINTS),
    app=st.sampled_from(("bluray", "single_dtv", "dual_dtv")),
    fault_rate=st.sampled_from((0.0, 1e-3, 5e-3)),
    seed=st.integers(min_value=1, max_value=2**16),
)
def test_bound_holds_full_system(point, app, fault_rate, seed):
    ddr, mhz = point
    config = SystemConfig(
        app=app,
        ddr=ddr,
        clock_mhz=mhz,
        design=NocDesign.GSS_SAGM,
        arbiter="dpq",
        cycles=2_500,
        warmup=300,
        seed=seed,
        faults=FaultConfig.uniform(fault_rate) if fault_rate else None,
    )
    system = build_system(config)
    metrics = system.run()
    if metrics.wcet_bound is None:
        return  # no traffic reached the arbiter in this short run
    assert metrics.service_p100 <= metrics.wcet_bound, (
        f"{app}/{ddr.value}@{mhz}MHz seed={seed} rate={fault_rate}: "
        f"p100 {metrics.service_p100} exceeds bound {metrics.wcet_bound}"
    )
