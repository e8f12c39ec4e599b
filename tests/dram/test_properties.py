"""Property-based tests of the DRAM substrate.

Random request streams through the command engine must always terminate,
conserve every request, respect the device's physical limits, and account
the data bus exactly — regardless of bank/row patterns, burst modes, page
policies, or request sizes.
"""

from hypothesis import given, settings, strategies as st

from tests.helpers import make_request
from repro.dram.controller import CommandEngine, PagePolicy
from repro.dram.device import SdramDevice
from repro.dram.timing import DramTiming
from repro.sim.config import DdrGeneration
from repro.sim.engine import Simulator
from repro.sim.stats import StatsCollector

request_strategy = st.builds(
    dict,
    bank=st.integers(0, 7),
    row=st.integers(0, 31),
    column=st.sampled_from([0, 8, 64, 512, 1016]),
    beats=st.integers(1, 64),
    is_read=st.booleans(),
    ap_tag=st.booleans(),
)


def serve_all(generation, clock, burst, policy, otf, specs):
    timing = DramTiming.for_clock(generation, clock)
    simulator = Simulator()
    stats = StatsCollector(clock=simulator)
    device = SdramDevice(timing, stats=stats)
    engine = CommandEngine(device, burst_beats=burst, page_policy=policy,
                           otf=otf, window=4)
    pending = [
        make_request(**{
            **spec,
            "bank": spec["bank"] % timing.banks,
            "beats": min(spec["beats"], 1024 - spec["column"]),
        })
        for spec in specs
    ]
    expected = len(pending)
    expected_beats = sum(r.beats for r in pending)
    finished = []
    cycle = 0
    limit = 400 * max(1, expected) + 2_000
    while len(finished) < expected and cycle < limit:
        if pending and engine.has_space:
            engine.accept(pending.pop(0), cycle)
        engine.tick(cycle)
        finished.extend(engine.drain_finished())
        simulator.step()
        cycle += 1
    return finished, stats, expected, expected_beats


@settings(max_examples=25, deadline=None)
@given(specs=st.lists(request_strategy, min_size=1, max_size=12))
def test_ddr2_open_page_serves_everything(specs):
    finished, stats, expected, expected_beats = serve_all(
        DdrGeneration.DDR2, 333, 8, PagePolicy.OPEN_PAGE, False, specs
    )
    assert len(finished) == expected
    assert stats.useful_beats == expected_beats


@settings(max_examples=25, deadline=None)
@given(specs=st.lists(request_strategy, min_size=1, max_size=12))
def test_ddr2_bl4_partially_open_serves_everything(specs):
    finished, stats, expected, expected_beats = serve_all(
        DdrGeneration.DDR2, 400, 4, PagePolicy.PARTIALLY_OPEN, False, specs
    )
    assert len(finished) == expected
    assert stats.useful_beats == expected_beats


@settings(max_examples=25, deadline=None)
@given(specs=st.lists(request_strategy, min_size=1, max_size=12))
def test_ddr3_otf_closed_page_serves_everything(specs):
    finished, stats, expected, expected_beats = serve_all(
        DdrGeneration.DDR3, 800, 8, PagePolicy.CLOSED_PAGE, True, specs
    )
    assert len(finished) == expected
    assert stats.useful_beats == expected_beats


@settings(max_examples=25, deadline=None)
@given(specs=st.lists(request_strategy, min_size=1, max_size=10))
def test_completion_order_matches_acceptance_order(specs):
    finished, _, expected, _ = serve_all(
        DdrGeneration.DDR1, 200, 8, PagePolicy.OPEN_PAGE, False, specs
    )
    ids = [f.request.request_id for f in finished]
    assert ids == sorted(ids, key=lambda rid: ids.index(rid))  # stable
    assert len(finished) == expected
    # in-order engine: data-ready cycles are monotonically non-decreasing
    ready = [f.data_ready_cycle for f in finished]
    assert ready == sorted(ready)


@settings(max_examples=20, deadline=None)
@given(specs=st.lists(request_strategy, min_size=2, max_size=10))
def test_bus_never_exceeds_capacity(specs):
    """Per-cycle accounting: at most 2 beats move per busy cycle, and the
    busy-cycle count can never exceed observed cycles by more than the
    in-flight burst tail."""
    finished, stats, expected, _ = serve_all(
        DdrGeneration.DDR2, 333, 8, PagePolicy.OPEN_PAGE, False, specs
    )
    assert len(finished) == expected
    total_beats = stats.useful_beats + stats.wasted_beats
    assert total_beats <= stats.busy_cycles * 2
    assert stats.busy_cycles <= stats.observed_cycles + 8
