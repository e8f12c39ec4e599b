"""Golden regression: event dispatch is bit-identical to naive stepping.

The event contract (see :mod:`repro.sim.engine`) claims that ticking a
component only on the cycles it arms — and jumping cycles on which
nothing is armed — changes no observable state.  These tests hold the
kernel to that claim end-to-end: full systems run twice, once per
dispatch mode, and every reported metric (and the resilience ledger,
when faults are injected) must match exactly.  Any drift here means a
component missed a wake.
"""

import dataclasses

import pytest

from repro.core.system import build_system
from repro.resilience.faults import FaultConfig
from repro.sim.config import DdrGeneration, NocDesign, SystemConfig
from repro.sim.stats import RunMetrics

CYCLES = 2_500
WARMUP = 400

FAULTS = FaultConfig(link_corrupt_rate=1e-3, sdram_bit_rate=1e-3)


def _run(idle_skip: bool, design: NocDesign, faults) -> dict:
    config = SystemConfig(
        app="single_dtv", cycles=CYCLES, warmup=WARMUP,
        design=design, seed=2010, faults=faults,
    )
    system = build_system(config)
    system.simulator.idle_skip = idle_skip
    metrics = system.run(CYCLES)
    observed = dataclasses.asdict(metrics)
    resilience = system.resilience
    if resilience is not None:
        observed["resilience"] = {
            "recovered": resilience.recovered,
            "failed_faults": resilience.failed_faults,
            "crc_retries": resilience.crc_retries,
            "dram_rereads": resilience.dram_reread_count,
            "watchdog_reissues": resilience.watchdog_reissues,
            "failed_requests": resilience.failed_requests,
            "stale_responses": resilience.stale_responses,
            "injected": dict(resilience.injector.injected),
        }
    return observed


@pytest.mark.parametrize("design", [NocDesign.GSS_SAGM, NocDesign.CONV])
@pytest.mark.parametrize("faults", [None, FAULTS], ids=["clean", "faulty"])
def test_idle_skip_metrics_bit_identical(design, faults):
    skipping = _run(True, design, faults)
    naive = _run(False, design, faults)
    diffs = {
        key: (skipping[key], naive[key])
        for key in skipping
        if skipping[key] != naive[key]
    }
    assert not diffs, f"idle-skip kernel diverged from naive stepping: {diffs}"


def test_fast_forward_engages_on_drained_system():
    """The identity above is only meaningful if event dispatch skips work.

    After :meth:`System.drain` reaches quiescence no component has work
    left, so a further run must jump over (almost) the whole horizon
    instead of ticking it."""
    config = SystemConfig(
        app="single_dtv", cycles=CYCLES, warmup=WARMUP,
        design=NocDesign.GSS_SAGM, seed=2010,
    )
    system = build_system(config)
    system.run(CYCLES)
    assert system.drain(), "system failed to quiesce"
    before = system.simulator.fast_forwarded_cycles
    horizon = 10_000
    system.simulator.run(horizon)
    jumped = system.simulator.fast_forwarded_cycles - before
    assert jumped > horizon * 0.9, (
        f"quiescent system stepped {horizon - jumped} of {horizon} cycles"
    )


def _run_checked(mode: str, design: NocDesign):
    """Run the faulty config with the invariant checker on: ``run()``
    under event dispatch or naive stepping, or cycle-by-cycle
    ``Simulator.step()`` ("stepped").  Returns the metrics and the
    checker."""
    config = SystemConfig(
        app="single_dtv", cycles=CYCLES, warmup=WARMUP, design=design,
        seed=2010, faults=FAULTS, check_invariants=True,
    )
    system = build_system(config)
    simulator = system.simulator
    if mode == "stepped":
        for _ in range(CYCLES):
            simulator.step()
    else:
        simulator.idle_skip = mode == "event"
        simulator.run(CYCLES)
        assert simulator.last_dispatch_mode == mode
    metrics = RunMetrics.from_collector(
        system.stats, simulator.cycle, scheduler=system.subsystem
    )
    return dataclasses.asdict(metrics), system.invariant_checker


@pytest.mark.parametrize("mode", ["event", "stepped"])
@pytest.mark.parametrize("design", [NocDesign.GSS_SAGM, NocDesign.CONV])
def test_every_dispatch_tier_matches_naive(mode, design):
    """Event dispatch and cycle-by-cycle ``step()`` both reproduce a naive
    ``run()`` exactly with faults injected and the invariant checker on.
    The checker is an ordinary component armed at its stride, so every
    mode audits exactly the stride multiples of the horizon."""
    observed, checker = _run_checked(mode, design)
    naive, naive_checker = _run_checked("naive", design)
    diffs = {
        key: (observed[key], naive[key])
        for key in observed
        if observed[key] != naive[key]
    }
    assert not diffs, f"{mode} dispatch diverged from naive stepping: {diffs}"
    strides = len(range(0, CYCLES, checker.interval))
    assert checker.checks_run == naive_checker.checks_run == strides


# ---------------------------------------------------------------------- #
# Event-vs-naive matrix: every design, DDR generation and arbiter backend
# ---------------------------------------------------------------------- #

SHORT = 1_500


def _event_vs_naive(config: SystemConfig, customize=None) -> None:
    """Run ``config`` under event dispatch and naive stepping; every
    metric, scheduler counter and issued-command count must match."""
    def run(naive: bool) -> dict:
        system = build_system(config)
        if customize is not None:
            customize(system)
        if naive:
            system.simulator.idle_skip = False
        observed = dataclasses.asdict(system.run(config.cycles))
        assert system.simulator.last_dispatch_mode == (
            "naive" if naive else "event"
        )
        subsystem = system.subsystem
        observed["scheduler"] = subsystem.scheduler_stats()
        observed["commands"] = subsystem.device.issued_commands
        observed["flits_sent"] = [
            output.flits_sent
            for router in system.network.routers
            for output in router.outputs.values()
        ]
        return observed

    event, naive = run(False), run(True)
    diffs = {
        key: (event[key], naive[key]) for key in event if event[key] != naive[key]
    }
    assert not diffs, f"event dispatch diverged from naive stepping: {diffs}"


@pytest.mark.parametrize("ddr", ["ddr2", "ddr3+sti"])
@pytest.mark.parametrize("design", list(NocDesign), ids=lambda d: d.value)
def test_event_matches_naive_every_design(design, ddr):
    if ddr == "ddr2":
        generation = dict(ddr=DdrGeneration.DDR2, clock_mhz=333)
    else:
        generation = dict(ddr=DdrGeneration.DDR3, clock_mhz=533, sti=True)
    _event_vs_naive(SystemConfig(
        app="single_dtv", cycles=SHORT, warmup=300, design=design,
        seed=2010, **generation,
    ))


@pytest.mark.parametrize(
    "arbiter", ["engine", "memmax", "databahn", "dpq", "bank-reg"]
)
@pytest.mark.parametrize("faults", [None, FAULTS], ids=["clean", "faulty"])
def test_event_matches_naive_every_arbiter(arbiter, faults):
    _event_vs_naive(SystemConfig(
        app="bluray", cycles=SHORT, warmup=300, seed=2010, arbiter=arbiter,
        faults=faults,
    ))


def test_event_matches_naive_with_refresh():
    """Refresh is the command engine's business, so every backend must
    wake for it alike; a failure names each backend that diverged."""
    from repro.dram.refresh import RefreshTimer

    def enable_refresh(system):
        timer = RefreshTimer(system.timing)
        timer.t_refi = timer._next_due = 400  # several refreshes per run
        system.subsystem.engine.refresh = timer

    diverged = {}
    for arbiter in ("engine", "memmax", "databahn", "dpq", "bank-reg"):
        try:
            _event_vs_naive(
                SystemConfig(
                    app="single_dtv", cycles=SHORT, warmup=300, seed=2010,
                    arbiter=arbiter,
                ),
                customize=enable_refresh,
            )
        except AssertionError as error:
            diverged[arbiter] = str(error)
    assert not diverged, f"refresh diverged on {sorted(diverged)}: {diverged}"


@pytest.mark.parametrize("link_flits", [2, 12])
@pytest.mark.parametrize("vcs", [1, 2])
@pytest.mark.parametrize("routing", ["xy", "adaptive"])
@pytest.mark.parametrize(
    "design", [NocDesign.GSS_SAGM, NocDesign.CONV], ids=lambda d: d.value
)
def test_event_matches_naive_every_fabric(design, routing, vcs, link_flits):
    """The router wake rules under the fabric options they depend on:
    adaptive withdrawals, the priority lane, and 2-flit link buffers that
    fill (a full lane going not full wakes the upstream router) and make
    transfers retire while other entries wait."""
    _event_vs_naive(SystemConfig(
        app="dual_dtv", cycles=3_000, warmup=500, seed=2010, design=design,
        priority_enabled=True, adaptive_routing=routing == "adaptive",
        virtual_channels=vcs, link_buffer_flits=link_flits,
    ))


def _withdrawal_claims(event_dispatch: bool) -> list:
    """Script the one arbitration only a withdrawal can change.

    Router 0 of a 3x3 west-first mesh with two lanes per link holds a
    best-effort read X (LOCAL input) and a 4-flit priority write P (EAST
    input, priority lane) for the same bank, both bound for node 4, so
    both may leave EAST or SOUTH.  EAST arbitrates first: its priority
    lane (router 1's WEST lane 1) is full and stays full, so X is its only
    candidate, and P excludes it (Algorithm 1, lines 4-6).  SOUTH then
    claims P, which withdraws P from EAST's controller and lifts the
    exclusion.  Returns ``(cycle, output)`` for every cycle X is claimed
    at the end of."""
    from repro.core.gss_flow_control import GssFlowController
    from repro.dram.timing import DramTiming
    from repro.noc.network import MeshNetwork
    from repro.noc.packet import request_packet
    from repro.noc.routing import RoutingPolicy
    from repro.noc.topology import Mesh, Port
    from repro.sim.engine import Simulator
    from tests.helpers import make_request

    timing = DramTiming.for_clock(DdrGeneration.DDR2, 333)
    network = MeshNetwork(
        Mesh(3, 3),
        controller_factory=lambda node, port: GssFlowController(timing),
        buffer_flits=4,
        local_buffer_flits=8,
        sink_flits={1: (8, 1)},
        routing_policy=RoutingPolicy.WEST_FIRST,
        virtual_channels=2,
    )
    router = network.router(0)
    east, south = router.outputs[Port.EAST], router.outputs[Port.SOUTH]
    # Router 1 holds a 4-flit priority packet Q bound for its own sink,
    # whose only packet slot is taken: Q never leaves, so the lane stays
    # full for the whole run.
    network.local_sink(1).push_complete(request_packet(
        1, make_request(bank=5), src=2, dst=1, cycle=0,
    ))
    blocker = network.router(1).input_buffer(Port.WEST, lane=1)
    blocker.push_complete(request_packet(
        2, make_request(bank=5, beats=8, is_read=False, priority=True),
        src=0, dst=1, cycle=0,
    ))
    assert blocker.occupancy_flits == blocker.capacity_flits
    best_effort = request_packet(
        3, make_request(bank=2), src=0, dst=4, cycle=0,
    )
    priority = request_packet(
        4, make_request(bank=2, beats=8, is_read=False, priority=True),
        src=1, dst=4, cycle=0,
    )
    router.input_buffer(Port.LOCAL).push_complete(best_effort)
    router.input_buffer(Port.EAST, lane=1).push_complete(priority)

    claims = []

    class Observer:
        """Tick-only, registered last: sees end-of-cycle state."""

        def tick(self, cycle):
            for output in (east, south):
                transfer = output.transfer
                if transfer is not None and transfer.packet is best_effort:
                    claims.append((cycle, output.port.name))

    simulator = Simulator(idle_skip=event_dispatch)
    simulator.add(network)
    simulator.add(Observer())
    simulator.run(4)
    assert south.packets_sent or (
        south.transfer is not None and south.transfer.packet is priority
    ), "SOUTH never claimed the priority packet"
    return claims


def test_withdrawal_keeps_the_router_awake():
    """After SOUTH claims P at cycle 0, naive stepping claims X on EAST
    at cycle 1.  Event dispatch must too: nothing but the withdrawal
    changed EAST's arbitration, so the router that withdrew stays awake
    for the next cycle."""
    naive = _withdrawal_claims(event_dispatch=False)
    assert naive and naive[0] == (1, "EAST"), naive
    assert _withdrawal_claims(event_dispatch=True) == naive


def test_event_matches_naive_with_priority_responses():
    config = SystemConfig(
        app="dual_dtv", cycles=SHORT, warmup=300, seed=2010,
        priority_enabled=True, faults=FAULTS,
    )
    assert build_system(config).memory_interface.priority_responses
    _event_vs_naive(config)


def _scripted_run(config, traffic, naive: bool):
    """Run ``config`` on scripted traffic; returns the admission log and
    the metrics, plus memory-sink observations from the naive run."""
    from tests.helpers import script_traffic

    system = build_system(config)
    script_traffic(system, traffic, max_outstanding=4)
    subsystem = system.subsystem
    admissions = []
    enqueue = subsystem.enqueue

    def logged_enqueue(request, cycle):
        admissions.append((cycle, request.request_id))
        enqueue(request, cycle)

    subsystem.enqueue = logged_enqueue
    seen = {"partial_head": 0, "blocked_head": 0}
    if naive:
        system.simulator.idle_skip = False
        sink = system.memory_interface.sink

        class SinkObserver:
            """Tick-only, registered last: sees end-of-cycle state."""

            def tick(self, cycle):
                if sink.entries:
                    head = sink.entries[0]
                    if not head.fully_received:
                        seen["partial_head"] += 1
                    elif not subsystem.can_accept(head.packet.request):
                        seen["blocked_head"] += 1

        system.simulator.add(SinkObserver())
    metrics = dataclasses.asdict(system.run(config.cycles))
    return admissions, metrics, seen


def _scripted_identity(config, traffic) -> dict:
    event_log, event_metrics, _ = _scripted_run(config, traffic, naive=False)
    naive_log, naive_metrics, seen = _scripted_run(config, traffic, naive=True)
    assert event_log == naive_log
    assert event_metrics == naive_metrics
    assert event_log, "scripted traffic never reached the memory"
    return seen


def test_multi_flit_write_streams_into_memory_sink():
    """64-beat writes travel as 33-flit packets (no SAGM splitting), so
    the memory sink head is partially received for many cycles; the NI
    must wake on exactly the tail flit."""
    from tests.helpers import make_request

    config = SystemConfig(
        app="single_dtv", design=NocDesign.GSS, cycles=1_200, warmup=100,
        seed=2010,
    )
    masters = [core.master for core in build_system(config).cores]
    traffic = {
        master: [
            (7 * index + 50 * burst, make_request(
                master=master, bank=(index + burst) % 8, row=burst,
                beats=64, is_read=False,
            ))
            for burst in range(4)
        ]
        for index, master in enumerate(masters)
    }
    seen = _scripted_identity(config, traffic)
    assert seen["partial_head"] > 0


def test_head_blocked_on_full_input_queue():
    """Every core fires reads at one bank at once: the thin controller's
    input queue fills and the sink head waits for room, sleeping until
    the subsystem's next event under event dispatch."""
    from tests.helpers import make_request

    config = SystemConfig(
        app="single_dtv", design=NocDesign.SDRAM_AWARE, cycles=1_200,
        warmup=100, seed=2010,
    )
    masters = [core.master for core in build_system(config).cores]
    traffic = {
        master: [
            (10 + burst, make_request(
                master=master, bank=0, row=index + burst, beats=32,
            ))
            for burst in range(4)
        ]
        for index, master in enumerate(masters)
    }
    seen = _scripted_identity(config, traffic)
    assert seen["blocked_head"] > 0


# ---------------------------------------------------------------------- #
# Property-based identity: random wake/idle schedules (hypothesis)
# ---------------------------------------------------------------------- #

hypothesis = pytest.importorskip("hypothesis")
from bisect import bisect_right

from hypothesis import given, settings, strategies as st

from repro.sim.engine import Simulator

HORIZON = 260


class PropSource:
    """Emits one item per scheduled cycle, gated by a token credit the
    sink hands back — a closed loop across the registration order."""

    def __init__(self, schedule, tokens):
        self.schedule = sorted(set(schedule))
        self.tokens = tokens
        self.consumer = None
        self.log = []
        self._wake = None

    def attach_wake(self, wake):
        self._wake = wake

    def credit(self):
        """Called by the sink (registered later): visible next cycle."""
        self.tokens += 1
        if self._wake is not None:
            self._wake()

    def tick(self, cycle):
        if cycle in self.schedule and self.tokens > 0:
            self.tokens -= 1
            self.log.append(cycle)
            self.consumer.push(cycle, ("item", cycle))

    def event_wake_at(self, cycle):
        index = bisect_right(self.schedule, cycle)
        return self.schedule[index] if index < len(self.schedule) else None


class PropRelay:
    """Holds each item for a fixed delay, then forwards it downstream."""

    def __init__(self, delay):
        self.delay = delay
        self.pending = []
        self.consumer = None
        self.log = []
        self._wake = None

    def attach_wake(self, wake):
        self._wake = wake

    def push(self, cycle, item):
        due = cycle + self.delay
        self.pending.append((due, item))
        if self._wake is not None:
            self._wake(due if self.delay else None)

    def tick(self, cycle):
        due_now = [entry for entry in self.pending if entry[0] <= cycle]
        if not due_now:
            return
        self.pending = [entry for entry in self.pending if entry[0] > cycle]
        for _, item in due_now:
            self.log.append((cycle, item))
            self.consumer.push(cycle, item)

    def event_wake_at(self, cycle):
        if not self.pending:
            return None
        return min(due for due, _ in self.pending)


class PropSink:
    """Consumes everything pushed at it and returns the token upstream."""

    def __init__(self, source):
        self.source = source
        self.queue = []
        self.log = []
        self._wake = None

    def attach_wake(self, wake):
        self._wake = wake

    def push(self, cycle, item):
        self.queue.append(item)
        if self._wake is not None:
            self._wake()

    def tick(self, cycle):
        if not self.queue:
            return
        for item in self.queue:
            self.log.append((cycle, item))
            self.source.credit()
        self.queue = []

    def event_wake_at(self, cycle):
        return cycle + 1 if self.queue else None


def _build_chain(schedule, tokens, delay):
    source = PropSource(schedule, tokens)
    relay = PropRelay(delay)
    sink = PropSink(source)
    source.consumer = relay
    relay.consumer = sink
    sim = Simulator()
    sim.add(source)
    sim.add(relay)
    sim.add(sink)
    return sim, source, relay, sink


@settings(max_examples=60, deadline=None)
@given(
    schedule=st.lists(
        st.integers(min_value=0, max_value=HORIZON - 10), max_size=40
    ),
    tokens=st.integers(min_value=0, max_value=6),
    delay=st.integers(min_value=0, max_value=7),
)
def test_random_schedules_event_identical_to_naive(schedule, tokens, delay):
    """Any random wake/idle schedule must produce cycle-identical logs
    under event dispatch and naive stepping — a missed or misordered wake
    shows up as a shifted emission, relay, or credit cycle."""
    event_sim, esrc, erelay, esink = _build_chain(schedule, tokens, delay)
    event_sim.run(HORIZON)
    assert event_sim.last_dispatch_mode == "event"

    naive_sim, nsrc, nrelay, nsink = _build_chain(schedule, tokens, delay)
    naive_sim.idle_skip = False
    naive_sim.run(HORIZON)
    assert naive_sim.last_dispatch_mode == "naive"

    assert esrc.log == nsrc.log
    assert erelay.log == nrelay.log
    assert esink.log == nsink.log
    assert esrc.tokens == nsrc.tokens
    assert erelay.pending == nrelay.pending


# ---------------------------------------------------------------------- #
# Sampler transparency: telemetry must never perturb simulated metrics
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("interval", [1, 997])
def test_sampler_leaves_metrics_bit_identical(interval):
    """An attached time-series sampler — at a pathological interval of 1
    or a boundary-straddling prime — must leave every reported metric
    bit-identical to the unsampled run, and must keep an all-event system
    on the event tier (it speaks ``event_wake_at``, so it never drops the
    run to stepping)."""
    def run(attach: bool):
        config = SystemConfig(
            app="single_dtv", cycles=CYCLES, warmup=WARMUP,
            design=NocDesign.GSS_SAGM, seed=2010,
        )
        system = build_system(config)
        seen = []
        if attach:
            system.attach_sampler(interval, on_sample=seen.append)
        metrics = system.run(CYCLES)
        return dataclasses.asdict(metrics), system, seen

    sampled, sampled_system, samples = run(True)
    plain, plain_system, _ = run(False)
    assert sampled == plain, (
        f"sampler at interval {interval} perturbed metrics: "
        f"{ {k: (sampled[k], plain[k]) for k in sampled if sampled[k] != plain[k]} }"
    )
    assert sampled_system.simulator.last_dispatch_mode == "event"
    assert plain_system.simulator.last_dispatch_mode == "event"
    # Coverage is complete and conservative: window deltas sum to the
    # final cumulative counter.
    assert sum(
        s.deltas["requests.completed"] for s in samples
    ) == sampled_system.stats.all_packets.count
