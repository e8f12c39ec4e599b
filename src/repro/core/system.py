"""Full-system assembly: application + NoC design + memory subsystem.

:func:`build_system` turns a :class:`~repro.sim.config.SystemConfig` into a
runnable :class:`SocSystem`:

* the application model's cores are placed on the mesh (Fig. 7);
* every router gets the flow controllers its design prescribes — including
  *partial* GSS deployment for the Fig. 8 sweep, where only the ``k``
  routers closest to the memory corner are GSS and the rest keep the
  conventional priority-first/round-robin controller;
* the matching memory subsystem is attached at the memory corner node;
* with SAGM enabled, every core's network interface splits requests at the
  SDRAM access granularity and tags the last short packet for
  auto-precharge.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import count
from typing import Dict, List, Optional

from ..dram.subsystem import build_memory_subsystem
from ..dram.timing import DramTiming
from ..noc.flow_control import FlowController
from ..noc.interface import CoreInterface, MemoryInterface
from ..noc.network import MeshNetwork
from ..noc.routing import RoutingPolicy
from ..noc.topology import Port
from ..sim.config import DdrGeneration, NocDesign, SystemConfig
from ..sim.engine import Simulator
from ..sim.stats import RunMetrics, StatsCollector
from ..workloads.apps import get_app_model
from ..workloads.cores import SyntheticCore
from ..workloads.mapping import gss_router_order, place
from .gss_router import design_controller_factory
from .sagm import SagmSplitter


class SocSystem:
    """A fully wired system ready to simulate.

    ``tracer`` (any :class:`~repro.obs.tracer.Tracer`) threads through every
    layer — NIs, routers, GSS controllers, MemMax, command engine, device —
    so one object collects the full packet lifecycle.  The default ``None``
    keeps every emission site on its zero-cost fast path.
    ``keep_samples`` retains per-completion latency samples so percentiles
    can be reported after the run.
    """

    def __init__(
        self,
        config: SystemConfig,
        tracer=None,
        keep_samples: bool = False,
    ) -> None:
        self.config = config
        self.tracer = tracer
        self.stats = StatsCollector(
            warmup=config.warmup, keep_samples=keep_samples
        )
        self.app = get_app_model(config.app)
        self.placement = place(self.app)
        self.timing = DramTiming.for_clock(config.ddr, config.clock_mhz)
        self.device, self.subsystem = build_memory_subsystem(
            config, self.stats, tracer=tracer
        )
        # Fault injection / protection (imported lazily: ``faults=None``
        # — the default — builds none of it and touches no resilience
        # module at all).
        self.fault_injector = None
        self.resilience = None
        if config.faults is not None:
            from ..resilience.faults import FaultInjector
            from ..resilience.protection import ResilienceController

            self.fault_injector = FaultInjector(
                config.faults, seed=config.seed, tracer=tracer
            )
            self.resilience = ResilienceController(
                self.fault_injector, config.faults, tracer=tracer
            )
        self.gss_nodes = self._gss_nodes()
        self.network = MeshNetwork(
            self.placement.mesh,
            controller_factory=self._controller_for,
            buffer_flits=config.link_buffer_flits,
            local_buffer_flits=config.input_buffer_flits,
            routing_policy=(
                RoutingPolicy.WEST_FIRST if config.adaptive_routing
                else RoutingPolicy.XY
            ),
            virtual_channels=config.virtual_channels,
            # Shallow memory-side sink: flit space for the largest write
            # packet (64 beats = 32 flits) but only a few request slots.
            # Deep buffering past the final GSS arbitration point would
            # turn into a FIFO priority packets cannot overtake.
            sink_flits={self.placement.memory_node: (36, 4)},
            tracer=tracer,
            fault_injector=self.fault_injector,
        )
        if self.fault_injector is not None:
            self.fault_injector.attach_network(self.network)
        self._request_ids = count()
        self._packet_ids = count()
        self.cores: List[SyntheticCore] = []
        self.core_interfaces: List[CoreInterface] = []
        self._build_cores()
        self.memory_interface = MemoryInterface(
            node=self.placement.memory_node,
            subsystem=self.subsystem,
            sink=self.network.local_sink(self.placement.memory_node),
            injection_buffer=self.network.injection_buffer(self.placement.memory_node),
            master_nodes={
                core.master: self.placement.node_of_core(i)
                for i, core in enumerate(self.cores)
            },
            packet_ids=self._packet_ids,
            # QoS-aware designs dequeue priority read data first (CONV
            # without PFS has no priority notion anywhere).
            priority_responses=(
                config.priority_enabled and config.design is not NocDesign.CONV
            ),
            tracer=tracer,
            resilience=self.resilience,
        )
        self.simulator = Simulator()
        self.watchdog = None
        if self.resilience is not None:
            for interface in self.core_interfaces:
                self.resilience.register_core(
                    interface.generator.master, interface
                )
            self.resilience.attach_memory(self.memory_interface)
            # The controller ticks first so retransmissions released this
            # cycle reach the NIs before they inject.
            self.simulator.add(self.resilience)
        self.simulator.add_all(self.core_interfaces)
        self.simulator.add(self.network)
        self.simulator.add(self.memory_interface)
        if self.resilience is not None:
            from ..resilience.watchdog import RequestWatchdog

            # The watchdog ticks after the NIs: it must see this cycle's
            # response deliveries before judging a request stalled.
            self.watchdog = RequestWatchdog(
                self.resilience, self.core_interfaces, config.faults
            )
            self.simulator.add(self.watchdog)
        #: Attached by :meth:`attach_sampler`; None = zero sampling code
        #: anywhere near the hot path.
        self.sampler = None
        self.invariant_checker = None
        if config.check_invariants:
            from ..resilience.invariants import InvariantChecker

            self.invariant_checker = InvariantChecker(
                self.network,
                max_packet_age=(
                    config.faults.max_packet_age
                    if config.faults is not None
                    else 16384
                ),
                tracer=tracer,
            )
            self.invariant_checker.attach(self.simulator)

    # ------------------------------------------------------------------ #
    # Construction details
    # ------------------------------------------------------------------ #

    def _gss_nodes(self) -> set:
        """Which routers carry GSS flow controllers."""
        design = self.config.design
        if not design.uses_gss_router:
            return set()
        order = gss_router_order_for(self)
        if self.config.num_gss_routers is None:
            return set(order)
        return set(order[: self.config.num_gss_routers])

    def _controller_for(self, node: int, port: Port) -> FlowController:
        factory = design_controller_factory(
            self.config.design,
            self.timing,
            gss_nodes=self.gss_nodes,
            pct=self.config.pct,
            sti=self.config.sti,
            priority_enabled=self.config.priority_enabled,
            tracer=self.tracer,
        )
        return factory(node, port)

    #: Workload rate scaling per DDR generation (gap multiplier).  The
    #: paper pairs each generation with a matching video resolution
    #: (Section V: e.g. dual DTV does 1280x720 on DDR I, 1920x1088 on
    #: DDR II, 2560x1600 on DDR III), so the offered load in beats/cycle
    #: shrinks as the clock rises — resolution grows sub-proportionally
    #: to frequency.
    RATE_SCALE = {
        DdrGeneration.DDR1: 0.95,
        DdrGeneration.DDR2: 1.0,
        DdrGeneration.DDR3: 1.4,
    }

    def _build_cores(self) -> None:
        splitter = (
            SagmSplitter(self.config.ddr, tracer=self.tracer)
            if self.config.design.uses_sagm
            else None
        )
        rate_scale = self.RATE_SCALE[self.config.ddr]
        address_map = _address_map_for(self.timing)
        for index, spec in enumerate(self.app.cores):
            # App models are built fresh per system, so scaling in place is
            # safe and keeps the stream state objects intact.
            spec = replace(spec, gap_mean=spec.gap_mean * rate_scale)
            node = self.placement.node_of_core(index)
            core = SyntheticCore(
                master=index,
                spec=spec,
                address_map=address_map,
                region_index=index,
                region_count=len(self.app.cores),
                request_ids=self._request_ids,
                seed=self.config.seed,
                priority_demand=self.config.priority_enabled,
            )
            self.cores.append(core)
            self.core_interfaces.append(
                CoreInterface(
                    node=node,
                    memory_node=self.placement.memory_node,
                    generator=core,
                    injection_buffer=self.network.injection_buffer(node),
                    sink=self.network.local_sink(node),
                    stats=self.stats,
                    packet_ids=self._packet_ids,
                    request_ids=self._request_ids,
                    splitter=splitter,
                    tracer=self.tracer,
                    resilience=self.resilience,
                )
            )

    # ------------------------------------------------------------------ #
    # Running
    # ------------------------------------------------------------------ #

    def run(
        self,
        cycles: Optional[int] = None,
        checkpoint_every: Optional[int] = None,
        on_checkpoint=None,
    ) -> RunMetrics:
        """Simulate ``cycles`` (default: the configured run length).

        ``checkpoint_every``/``on_checkpoint`` pass straight through to
        :meth:`~repro.sim.engine.Simulator.run`: the run is segmented at
        snapshot boundaries (each segment dispatches as one long run
        would) and ``on_checkpoint(cycle)`` — typically a
        :func:`~repro.sim.checkpoint.save_checkpoint` call — fires at
        each boundary, ending the run early if it returns true.
        """
        total = cycles if cycles is not None else self.config.cycles
        self.simulator.run(
            total,
            checkpoint_every=checkpoint_every,
            on_checkpoint=on_checkpoint,
        )
        return RunMetrics.from_collector(
            self.stats, self.simulator.cycle, scheduler=self.subsystem
        )

    def drain(self, max_cycles: int = 50_000) -> bool:
        """Stop traffic generation and fault injection, then run until
        every outstanding request resolves (completed or failed) and the
        fabric and memory subsystem empty out.  Returns ``True`` if the
        system reached quiescence within ``max_cycles`` — a run with
        resilience enabled must, or requests have hung.
        """
        for interface in self.core_interfaces:
            interface.draining = True
        if self.fault_injector is not None:
            self.fault_injector.enabled = False

        def quiesced() -> bool:
            return (
                all(
                    not interface._reassembly and not interface._pending
                    for interface in self.core_interfaces
                )
                and self.network.in_flight_packets == 0
                and self.memory_interface.idle
                and (self.resilience is None or not self.resilience.busy)
            )

        self.simulator.run(max_cycles, until=quiesced)
        return quiesced()

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #

    def attach_sampler(
        self,
        interval: int,
        capacity: int = 512,
        on_sample=None,
        clock=None,
    ):
        """Attach a live time-series sampler (see
        :mod:`repro.obs.timeseries`): every ``interval`` cycles the
        system's counters are snapshotted into ring-buffered windows and
        handed to ``on_sample`` (a telemetry stream writer, usually).

        The sampler registers *last* on the simulator so each sample
        observes end-of-cycle state, and it arms itself for its window
        boundaries, so event dispatch still jumps idle gaps.  It
        only reads counters: enabling it at any interval leaves every
        simulated metric bit-identical.  Lazily imported — a system that
        never attaches one carries no sampling code at all.
        """
        if self.sampler is not None:
            raise RuntimeError("a sampler is already attached")
        from ..obs.timeseries import SystemSampleSource, TimeSeriesSampler

        self.sampler = TimeSeriesSampler(
            SystemSampleSource(self),
            interval,
            capacity=capacity,
            on_sample=on_sample,
            clock=clock,
        )
        self.simulator.add(self.sampler)
        return self.sampler

    def collect_metrics(self):
        """Snapshot the whole system's counters into one registry.

        Absorbs the ad-hoc counters scattered across the stack — NoC link
        flit/packet counts, input-buffer high-water marks, per-bank row
        hit/miss tallies, NI admission counts, MemMax thread wins — into a
        :class:`~repro.obs.metrics.MetricsRegistry` under dotted names
        (``noc.*``, ``dram.*``, ``ni.*``).
        """
        from ..obs.analysis import register_metrics
        from ..obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        cycles = max(1, self.simulator.cycle)
        register_metrics(self.network, registry, cycles)
        for bank, (hits, misses) in sorted(self.stats.per_bank_rows.items()):
            registry.counter(f"dram.bank{bank}.row_hits").inc(hits)
            registry.counter(f"dram.bank{bank}.row_misses").inc(misses)
        registry.counter("dram.commands").inc(self.device.issued_commands)
        registry.counter("dram.demand_precharges").inc(
            self.subsystem.engine.demand_precharges
        )
        scheduler = getattr(self.subsystem, "scheduler", None)
        if scheduler is not None:
            for index, wins in enumerate(scheduler.thread_wins):
                registry.counter(f"dram.memmax.thread{index}.wins").inc(wins)
        # The Scheduler stats surface: every backend exports a flat dict
        # (service-latency series, analytic bound when present,
        # backend-specific counters) under one dotted prefix.
        for key, value in sorted(self.subsystem.scheduler_stats().items()):
            registry.gauge(f"dram.scheduler.{key}").set(value)
        for interface in self.core_interfaces:
            master = interface.generator.master
            registry.counter(f"ni.core{master}.injected").inc(
                interface.injected_packets
            )
            registry.counter(f"ni.core{master}.completed").inc(
                interface.completed_requests
            )
        registry.counter("ni.memory.admitted").inc(
            self.memory_interface.admitted
        )
        registry.counter("ni.memory.responses").inc(
            self.memory_interface.responses_sent
        )
        if self.resilience is not None:
            self.resilience.metrics_into(registry)
            registry.counter("resilience.failed_core_requests").inc(
                sum(i.failed_requests for i in self.core_interfaces)
            )
        if self.invariant_checker is not None:
            registry.counter("resilience.invariant_checks").inc(
                self.invariant_checker.checks_run
            )
        return registry


def _address_map_for(timing: DramTiming):
    from ..dram.address_map import AddressMap

    return AddressMap(banks=timing.banks)


def gss_router_order_for(system: SocSystem) -> List[int]:
    return gss_router_order(system.placement)


def build_system(
    config: SystemConfig, tracer=None, keep_samples: bool = False
) -> SocSystem:
    """Public entry point: build a runnable system for ``config``."""
    return SocSystem(config, tracer=tracer, keep_samples=keep_samples)


def run_config(config: SystemConfig) -> RunMetrics:
    """Build and run ``config``; return its headline metrics."""
    return build_system(config).run()
