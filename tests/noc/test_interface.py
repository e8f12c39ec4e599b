"""Network interface tests: injection, reassembly, memory-side service."""

from itertools import count

import pytest

from tests.helpers import make_request
from repro.core.sagm import SagmSplitter
from repro.dram.device import SdramDevice
from repro.dram.controller import FinishedRequest
from repro.dram.subsystem import ThinMemorySubsystem
from repro.dram.timing import DramTiming
from repro.noc.buffers import InputBuffer
from repro.noc.interface import CoreInterface, MemoryInterface
from repro.sim.config import DdrGeneration
from repro.sim.stats import StatsCollector


class ScriptedGenerator:
    """Issues a fixed list of requests, one per call."""

    def __init__(self, requests, master=0):
        self.master = master
        self.pending = list(requests)
        self.completions = []

    def generate(self, cycle):
        if self.pending:
            return [self.pending.pop(0)]
        return []

    def on_complete(self, request_id, cycle):
        self.completions.append((request_id, cycle))

    @property
    def next_issue_cycle(self):
        return 0 if self.pending else None

    issue_blocked = False


def build_core_interface(requests, splitter=None, stats=None):
    stats = stats or StatsCollector()
    generator = ScriptedGenerator(requests)
    injection = InputBuffer(256)
    sink = InputBuffer(256)
    ni = CoreInterface(
        node=1, memory_node=0, generator=generator,
        injection_buffer=injection, sink=sink, stats=stats,
        packet_ids=count(), request_ids=count(1000), splitter=splitter,
    )
    return ni, generator, injection, sink, stats


class TestCoreInterface:
    def test_injects_request_packet(self):
        ni, _, injection, _, _ = build_core_interface([make_request()])
        ni.tick(0)
        assert ni.injected_packets == 1
        entry = injection.head()
        assert entry.packet.request is not None

    def test_sagm_splits_before_injection(self):
        request = make_request(beats=16)
        splitter = SagmSplitter(DdrGeneration.DDR2)
        ni, _, injection, _, _ = build_core_interface([request], splitter)
        ni.tick(0)
        assert ni.injected_packets == 4  # 16 beats / 4-beat granularity

    def test_completion_recorded_on_last_part(self):
        from repro.noc.packet import response_packet
        request = make_request(beats=16)
        splitter = SagmSplitter(DdrGeneration.DDR2)
        ni, generator, injection, sink, stats = build_core_interface(
            [request], splitter
        )
        ni.tick(0)
        parts = [injection.pop_complete().request for _ in range(4)]
        for i, part in enumerate(parts):
            sink.push_complete(response_packet(100 + i, part, 0, 1, 10))
            ni.tick(10 + i)
            if i < 3:
                assert stats.all_packets.count == 0
        assert stats.all_packets.count == 1
        assert generator.completions[0][0] == request.request_id

    def test_unknown_response_raises(self):
        from repro.noc.packet import response_packet
        ni, _, _, sink, _ = build_core_interface([])
        sink.push_complete(response_packet(1, make_request(), 0, 1, 0))
        with pytest.raises(RuntimeError):
            ni.tick(0)

    def test_injection_respects_buffer_space(self):
        big = make_request(beats=64, is_read=False)  # 32 flits
        requests = [big, make_request(beats=64, is_read=False)]
        generator = ScriptedGenerator(requests)
        injection = InputBuffer(32)
        ni = CoreInterface(
            node=1, memory_node=0, generator=generator,
            injection_buffer=injection, sink=InputBuffer(64),
            stats=StatsCollector(), packet_ids=count(), request_ids=count(),
        )
        ni.tick(0)
        ni.tick(1)
        assert ni.injected_packets == 1  # second blocked until space frees
        assert len(ni._pending) == 1


def build_memory_interface(ddr=DdrGeneration.DDR2, clock=333):
    timing = DramTiming.for_clock(ddr, clock)
    device = SdramDevice(timing)
    subsystem = ThinMemorySubsystem(device)
    sink = InputBuffer(64)
    injection = InputBuffer(256)
    ni = MemoryInterface(
        node=0, subsystem=subsystem, sink=sink, injection_buffer=injection,
        master_nodes={0: 1, 1: 2}, packet_ids=count(),
    )
    return ni, sink, injection


class TestMemoryInterface:
    def test_read_produces_data_response(self):
        from repro.noc.packet import request_packet
        ni, sink, injection = build_memory_interface()
        request = make_request(beats=8, is_read=True)
        sink.push_complete(request_packet(1, request, 1, 0, 0))
        for cycle in range(100):
            ni.tick(cycle)
            response = injection.pop_complete()
            if response is not None:
                assert response.request is request
                assert response.size_flits == 4
                assert response.dst == 1
                return
        pytest.fail("no response produced")

    def test_write_produces_single_flit_ack(self):
        from repro.noc.packet import request_packet
        ni, sink, injection = build_memory_interface()
        request = make_request(beats=16, is_read=False, master=1)
        sink.push_complete(request_packet(1, request, 2, 0, 0))
        for cycle in range(100):
            ni.tick(cycle)
            response = injection.pop_complete()
            if response is not None:
                assert response.size_flits == 1
                assert response.dst == 2
                return
        pytest.fail("no ack produced")

    def test_response_not_before_data_ready(self):
        from repro.noc.packet import request_packet
        ni, sink, injection = build_memory_interface()
        request = make_request(beats=8)
        sink.push_complete(request_packet(1, request, 1, 0, 0))
        timing = ni.subsystem.device.timing
        floor = timing.t_rcd + timing.cas_latency + timing.burst_cycles(8) - 1
        for cycle in range(200):
            ni.tick(cycle)
            if injection.pop_complete() is not None:
                assert cycle > floor
                return
        pytest.fail("no response produced")

    def test_admission_respects_subsystem_backpressure(self):
        from repro.noc.packet import request_packet
        ni, sink, injection = build_memory_interface()
        capacity = ni.subsystem.input_capacity
        for i in range(capacity + 3):
            packet = request_packet(i, make_request(beats=8), 1, 0, 0)
            if sink.can_inject(packet):
                sink.push_complete(packet)
        ni._admit(0)
        assert ni.admitted <= capacity

    def test_idle_when_drained(self):
        ni, sink, injection = build_memory_interface()
        assert ni.idle
        from repro.noc.packet import request_packet
        sink.push_complete(request_packet(1, make_request(), 1, 0, 0))
        assert not ni.idle
        for cycle in range(200):
            ni.tick(cycle)
        injection.pop_complete()
        assert ni.idle


class ScriptedSubsystem:
    """Finishes each scripted request at its data-ready cycle."""

    idle = True

    def __init__(self, finishes):
        self.finishes = finishes  # data-ready cycle -> request
        self.cycle = None

    def tick(self, cycle):
        self.cycle = cycle

    def drain_finished(self):
        request = self.finishes.pop(self.cycle, None)
        if request is None:
            return []
        return [FinishedRequest(request, self.cycle)]

    def can_accept(self, request):
        return True


@pytest.mark.parametrize("priority_responses,expected", [
    (True, [2, 1, 3]),
    (False, [1, 2, 3]),
], ids=["on", "off"])
def test_ready_priority_response_goes_first(priority_responses, expected):
    """Responses become ready at cycles 95 (best-effort, id 1), 98
    (priority, id 2) and 99 (best-effort, id 3) while the injection
    buffer is full until cycle 104.  With ``priority_responses`` the
    waiting priority response is injected first."""
    from repro.noc.packet import response_packet

    subsystem = ScriptedSubsystem({
        94: make_request(request_id=1),
        97: make_request(request_id=2, priority=True),
        98: make_request(request_id=3),
    })
    injection = InputBuffer(12)
    blocker = response_packet(0, make_request(beats=24), 0, 1, 0)
    injection.push_complete(blocker)  # 12 flits: nothing else fits
    ni = MemoryInterface(
        node=0, subsystem=subsystem, sink=InputBuffer(64),
        injection_buffer=injection, master_nodes={0: 1},
        packet_ids=count(1), priority_responses=priority_responses,
    )
    for cycle in range(90, 105):
        ni.tick(cycle)
    assert injection.pop_complete() is blocker
    ni.tick(105)
    injected = []
    while (packet := injection.pop_complete()) is not None:
        injected.append(packet.request.request_id)
    assert injected == expected


def _wasted_tick_share(monkeypatch, config) -> float:
    """Share of memory-NI ticks under event dispatch that change none of:
    admissions, responses sent, engine window size, subsystem queue
    length, commands issued."""
    from repro.core.system import build_system

    counts = {"ticks": 0, "wasted": 0}
    tick = MemoryInterface.tick

    def observed(ni):
        subsystem = ni.subsystem
        return (
            ni.admitted, ni.responses_sent, len(subsystem.engine.entries),
            subsystem.pending, subsystem.device.issued_commands,
        )

    def counting_tick(ni, cycle):
        before = observed(ni)
        tick(ni, cycle)
        counts["ticks"] += 1
        counts["wasted"] += observed(ni) == before

    monkeypatch.setattr(MemoryInterface, "tick", counting_tick)
    system = build_system(config)
    system.simulator.run(config.cycles)
    assert system.simulator.last_dispatch_mode == "event"
    assert counts["ticks"] > 1_000
    return counts["wasted"] / counts["ticks"]


@pytest.mark.parametrize("workload", ["conv_dual_dtv", "gss_sti_bluray_ddr3"])
def test_memory_ni_ticks_are_rarely_wasted(monkeypatch, workload):
    """Event dispatch ticks the memory NI only when its state can change:
    an admission-blocked sink head sleeps until the subsystem can free
    room, and sink wakes fire on tail flits.  Polling a blocked head
    every cycle wasted 45-57% of these ticks."""
    from repro.sim.config import NocDesign, SystemConfig

    if workload == "conv_dual_dtv":
        config = SystemConfig(
            app="dual_dtv", design=NocDesign.CONV, ddr=DdrGeneration.DDR2,
            clock_mhz=400, cycles=6_000, warmup=500, seed=2010,
        )
    else:
        config = SystemConfig(
            app="bluray", design=NocDesign.GSS_SAGM, ddr=DdrGeneration.DDR3,
            clock_mhz=533, priority_enabled=True, sti=True,
            num_gss_routers=3, cycles=6_000, warmup=500, seed=2010,
        )
    assert _wasted_tick_share(monkeypatch, config) <= 0.10
