"""Memory subsystem assemblies.

Three subsystems appear in the paper's evaluation:

* :class:`ConvMemorySubsystem` — the conventional design: a MemMax-style
  4-thread reordering scheduler in front of a Databahn-style lookahead
  controller (a :class:`~repro.dram.controller.CommandEngine` with a
  :data:`DATABAHN_LOOKAHEAD`-entry open-page window), with per-thread
  32-flit request and data buffers (Section V);
* :class:`ThinMemorySubsystem` with ``OPEN_PAGE`` — the SDRAM-aware design
  [4]: memory requests arrive already scheduled by the NoC routers, so the
  subsystem is a simple in-order controller with no reorder buffers;
* :class:`ThinMemorySubsystem` with ``PARTIALLY_OPEN`` + SAGM burst mode —
  the paper's Fig. 6 controller: partially-open-page policy driven by the
  SAGM auto-precharge tags (BL 4 mode on DDR I/II, BL 4/8 OTF on DDR III).

All subsystems subclass :class:`~repro.dram.scheduler.Scheduler`, which
owns admission accounting, draining, the event contract and the stats
surface; each class here supplies only its front-end.  This module
builds the three paper-era backends (``engine``, ``memmax``, and
``databahn`` — the thin subsystem with the Databahn lookahead window);
the newer arbiters live in :mod:`repro.dram.dpq` and
:mod:`repro.dram.bankreg`.  :data:`BACKENDS` names all five.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional

from ..sim.config import DdrGeneration, NocDesign, SystemConfig
from ..sim.stats import StatsCollector
from .bankreg import build_bankreg_backend
from .controller import CommandEngine, FinishedRequest, PagePolicy
from .device import SdramDevice
from .dpq import build_dpq_backend
from .memmax import MemMaxScheduler
from .request import MemoryRequest
from .scheduler import Scheduler
from .timing import DramTiming

#: Command look-ahead depth of Denali's Databahn [27] ("prepares pages in
#: memory in advance of when commands execute"): the engine window, in
#: requests, of the CONV controller and the ``databahn`` backend.
DATABAHN_LOOKAHEAD = 6


class ThinMemorySubsystem(Scheduler):
    """In-order SDRAM controller with a small input FIFO (Fig. 6 shell)."""

    def __init__(
        self,
        device: SdramDevice,
        burst_beats: int = 8,
        page_policy: PagePolicy = PagePolicy.OPEN_PAGE,
        otf: bool = False,
        input_capacity: int = 4,
        window: int = 4,
        tracer=None,
    ) -> None:
        if input_capacity <= 0:
            raise ValueError("input_capacity must be positive")
        super().__init__(device, CommandEngine(
            device,
            burst_beats=burst_beats,
            page_policy=page_policy,
            window=window,
            otf=otf,
            tracer=tracer,
        ))
        self.input_capacity = input_capacity
        self.queue: Deque[MemoryRequest] = deque()

    def can_accept(self, request: MemoryRequest) -> bool:
        return len(self.queue) < self.input_capacity

    def _push(self, request: MemoryRequest) -> None:
        if len(self.queue) >= self.input_capacity:
            raise RuntimeError("memory subsystem input queue full")
        self.queue.append(request)

    def tick(self, cycle: int) -> None:
        while self.queue and self.engine.has_space:
            self.queued -= 1
            self.engine.accept(self.queue.popleft(), cycle)
        self.engine.tick(cycle)

    def scheduler_stats(self) -> Dict[str, float]:
        stats = super().scheduler_stats()
        stats["demand_precharges"] = float(self.engine.demand_precharges)
        return stats


class ConvMemorySubsystem(Scheduler):
    """MemMax thread scheduler + Databahn lookahead controller (CONV).

    Beyond the arbitration itself, the thread-based pipeline costs latency:
    requests are decoded into per-thread request/data buffers, arbitrated,
    and handed to the Databahn, and read data is staged through the thread
    data buffers (store-and-forward) before re-entering the NoC.  That is
    modelled as ``PIPELINE_LATENCY`` fixed cycles plus the data-buffer
    store time of each read response — overhead the paper's thin Fig. 6
    subsystem avoids, and one reason CONV's memory latency is the worst of
    the compared designs (Tables I/II).
    """

    #: Fixed thread-pipeline cycles (ingress decode + arbitration + egress).
    PIPELINE_LATENCY = 12

    def __init__(
        self,
        device: SdramDevice,
        burst_beats: int = 8,
        priority_first: bool = False,
        threads: int = 4,
        thread_capacity_flits: int = 32,
        tracer=None,
    ) -> None:
        super().__init__(device, CommandEngine(
            device,
            burst_beats=burst_beats,
            window=DATABAHN_LOOKAHEAD,
            tracer=tracer,
        ))
        self.scheduler = MemMaxScheduler(
            threads=threads,
            thread_capacity_flits=thread_capacity_flits,
            priority_first=priority_first,
            tracer=tracer,
        )

    def can_accept(self, request: MemoryRequest) -> bool:
        return self.scheduler.can_accept(request)

    def _push(self, request: MemoryRequest) -> None:
        self.scheduler.push(request)

    def tick(self, cycle: int) -> None:
        # MemMax hands a request over whenever the Databahn window has
        # space (``pop_next`` uses ``cycle`` only for its trace event), so
        # the base wake rule — queued work with window space is due next
        # cycle — is exact here.
        while self.engine.has_space:
            request = self.scheduler.pop_next(cycle)
            if request is None:
                break
            self.queued -= 1
            self.engine.accept(request, cycle)
        self.engine.tick(cycle)

    def drain_finished(self) -> List[FinishedRequest]:
        engine = self.engine
        if not engine.finished:
            return engine.finished
        # request/response data staged through the thread data buffers
        finished = [
            FinishedRequest(
                item.request,
                item.data_ready_cycle + self.PIPELINE_LATENCY
                + (item.request.beats + 1) // 2,
            )
            for item in engine.drain_finished()
        ]
        self._record_service(finished)
        return finished

    def scheduler_stats(self) -> Dict[str, float]:
        stats = super().scheduler_stats()
        stats["demand_precharges"] = float(self.engine.demand_precharges)
        for index, wins in enumerate(self.scheduler.thread_wins):
            stats[f"thread{index}.wins"] = float(wins)
        return stats


# --------------------------------------------------------------------- #
# Backend factories (the paper-era schedulers)
# --------------------------------------------------------------------- #

def build_memmax_backend(
    config: SystemConfig,
    device: SdramDevice,
    timing: DramTiming,
    tracer=None,
) -> ConvMemorySubsystem:
    """MemMax 4-thread front-end over a Databahn lookahead engine —
    the CONV memory subsystem (Section V)."""
    return ConvMemorySubsystem(
        device,
        burst_beats=8,
        priority_first=config.design.uses_pfs,
        tracer=tracer,
    )


def build_databahn_backend(
    config: SystemConfig,
    device: SdramDevice,
    timing: DramTiming,
    tracer=None,
) -> ThinMemorySubsystem:
    """Databahn lookahead controller *without* the MemMax thread pipeline:
    deep open-page lookahead fed in arrival order.  Isolates the value of
    command lookahead from the thread-reorder front-end."""
    return ThinMemorySubsystem(
        device,
        window=DATABAHN_LOOKAHEAD,
        input_capacity=max(2, DATABAHN_LOOKAHEAD // 2),
        tracer=tracer,
    )


def build_engine_backend(
    config: SystemConfig,
    device: SdramDevice,
    timing: DramTiming,
    tracer=None,
) -> ThinMemorySubsystem:
    """The paper's thin in-order controller; page policy and burst mode
    follow the NoC design."""
    # [4] and plain GSS: thin in-order controller, BL 8, open page.
    burst, otf, policy = 8, False, PagePolicy.OPEN_PAGE
    if config.design.uses_sagm:
        policy = PagePolicy.PARTIALLY_OPEN
        if config.ddr is DdrGeneration.DDR3:
            # DDR III: BL 8 with BL4/BL8 on-the-fly for trailing chunks.
            otf = True
        else:
            # DDR I/II: device dropped to BL 4 mode via MRS.
            burst = 4
    # Short packets carry fewer data cycles each, so the PRE/RAS/CAS
    # pipeline holds proportionally more of them to keep the same
    # data-time lookahead (entries are a few address bits each — far
    # cheaper than the reorder buffers the design removes).
    depth = _window_for(timing, burst)
    return ThinMemorySubsystem(
        device,
        burst_beats=burst,
        page_policy=policy,
        otf=otf,
        window=depth,
        input_capacity=max(2, depth // 2),
        tracer=tracer,
    )


#: name -> factory(config, device, timing, tracer) -> Scheduler.
BACKENDS: Dict[str, Callable] = {
    "bank-reg": build_bankreg_backend,
    "databahn": build_databahn_backend,
    "dpq": build_dpq_backend,
    "engine": build_engine_backend,
    "memmax": build_memmax_backend,
}


def registered_backends() -> List[str]:
    """Names of every memory-arbiter backend."""
    return sorted(BACKENDS)


def resolve_backend(name: str) -> Callable:
    """The factory for ``name``; raises ``KeyError`` listing what exists.

    Misspellings normally never reach this point: the ``arbiter`` field
    is validated against :func:`registered_backends` when the
    :class:`~repro.sim.config.SystemConfig` is constructed.
    """
    try:
        return BACKENDS[name]
    except KeyError:
        raise KeyError(
            f"unknown memory-arbiter backend {name!r}; "
            f"registered: {registered_backends()}"
        ) from None


def default_backend_for(design: NocDesign) -> str:
    """The design-matched backend: what Section V pairs with each NoC."""
    if design in (NocDesign.CONV, NocDesign.CONV_PFS):
        return "memmax"
    return "engine"


def build_memory_subsystem(
    config: SystemConfig, stats: Optional[StatsCollector] = None, tracer=None
):
    """Construct device + scheduler backend for ``config``.

    ``config.arbiter`` picks a backend of :data:`BACKENDS` by name;
    ``None`` — the default — resolves to the design-matched choice of
    Section V.
    """
    timing = DramTiming.for_clock(config.ddr, config.clock_mhz)
    device = SdramDevice(timing, stats=stats, tracer=tracer)
    name = (
        config.arbiter if config.arbiter is not None
        else default_backend_for(config.design)
    )
    factory = resolve_backend(name)
    return device, factory(config, device, timing, tracer)


#: Data-time the thin controller's PRE/RAS/CAS pipeline looks ahead, in
#: data-bus cycles; window entries = lookahead / burst data cycles.
PIPELINE_LOOKAHEAD_DATA_CYCLES = 16


def _window_for(timing: DramTiming, burst_beats: int) -> int:
    return max(4, PIPELINE_LOOKAHEAD_DATA_CYCLES // timing.burst_cycles(burst_beats))
