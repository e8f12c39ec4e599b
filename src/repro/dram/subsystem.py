"""Memory subsystem assemblies.

Three subsystems appear in the paper's evaluation:

* :class:`ConvMemorySubsystem` — the conventional design: a MemMax-style
  4-thread reordering scheduler in front of a Databahn-style lookahead
  controller, with per-thread 32-flit request and data buffers (Section V);
* :class:`ThinMemorySubsystem` with ``OPEN_PAGE`` — the SDRAM-aware design
  [4]: memory requests arrive already scheduled by the NoC routers, so the
  subsystem is a simple in-order controller with no reorder buffers;
* :class:`ThinMemorySubsystem` with ``PARTIALLY_OPEN`` + SAGM burst mode —
  the paper's Fig. 6 controller: partially-open-page policy driven by the
  SAGM auto-precharge tags (BL 4 mode on DDR I/II, BL 4/8 OTF on DDR III).

All subsystems are instances of the :class:`~repro.dram.scheduler.Scheduler`
protocol: ``can_accept`` / ``enqueue`` for admission with backpressure,
``tick`` issuing at most one SDRAM command per cycle, ``drain_finished``
reporting requests whose final data beat has completed, plus the seam's
bank-state query and stats surface.  This module registers the three
paper-era backends (``engine``, ``memmax``, ``databahn``); the newer
arbiters live in :mod:`repro.dram.dpq` and :mod:`repro.dram.bankreg`.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from ..sim.config import DdrGeneration, NocDesign, SystemConfig
from ..sim.stats import StatsCollector
from .controller import CommandEngine, FinishedRequest, PagePolicy
from .databahn import DATABAHN_LOOKAHEAD, DatabahnController
from .device import SdramDevice
from .memmax import MemMaxScheduler
from .request import MemoryRequest
from .scheduler import SchedulerSeam, register_scheduler, resolve_backend
from .timing import DramTiming


class ThinMemorySubsystem(SchedulerSeam):
    """In-order SDRAM controller with a small input FIFO (Fig. 6 shell).

    ``engine`` substitutes a prebuilt command engine (the Databahn
    backend passes its deep-lookahead subclass); when given, the
    burst/page/window/otf arguments are ignored.
    """

    def __init__(
        self,
        device: SdramDevice,
        burst_beats: int = 8,
        page_policy: PagePolicy = PagePolicy.OPEN_PAGE,
        otf: bool = False,
        input_capacity: int = 4,
        window: int = 4,
        tracer=None,
        engine: Optional[CommandEngine] = None,
    ) -> None:
        if input_capacity <= 0:
            raise ValueError("input_capacity must be positive")
        self.device = device
        self.engine = engine if engine is not None else CommandEngine(
            device,
            burst_beats=burst_beats,
            page_policy=page_policy,
            window=window,
            otf=otf,
            tracer=tracer,
        )
        self.input_capacity = input_capacity
        self.queue: Deque[MemoryRequest] = deque()
        self.accepted = 0
        self._init_seam()

    def can_accept(self, request: MemoryRequest) -> bool:
        return len(self.queue) < self.input_capacity

    def enqueue(self, request: MemoryRequest, cycle: int) -> None:
        if not self.can_accept(request):
            raise RuntimeError("memory subsystem input queue full")
        self.queue.append(request)
        self.accepted += 1
        self._note_admitted(request, cycle)

    def tick(self, cycle: int) -> None:
        while self.queue and self.engine.has_space:
            self.engine.accept(self.queue.popleft(), cycle)
        self.engine.tick(cycle)
        self.device.tick(cycle)

    def drain_finished(self) -> List[FinishedRequest]:
        done = self.engine.drain_finished()
        if done:
            self._note_finished(done)
        return done

    @property
    def pending(self) -> int:
        return len(self.queue) + self.engine.pending

    @property
    def idle(self) -> bool:
        return self.pending == 0

    @property
    def quiescent(self) -> bool:
        """No queued work *and* no finished requests awaiting drain: apart
        from device accounting, :meth:`tick` would be a no-op."""
        return (
            not self.queue and not self.engine.entries
            and not self.engine.finished
        )

    @property
    def refresh(self):
        return self.engine.refresh

    def scheduler_stats(self) -> Dict[str, float]:
        stats = self._seam_stats()
        stats["demand_precharges"] = float(self.engine.demand_precharges)
        stats["accepted"] = float(self.accepted)
        return stats

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """Event-dispatch: next cycle :meth:`tick` could do real work
        (``None`` = fully drained; only new admissions wake it).  While
        requests wait in the window on SDRAM timing, this is the command
        engine's conservative-early next-attempt bound — the controller
        sleeps through tRC/tRP/turnaround stalls instead of polling."""
        refresh = self.engine.refresh
        if refresh is not None and refresh.enabled:
            if refresh.due(cycle) or refresh.in_progress(cycle):
                # Refresh phases issue PREs / wait for quiet on sub-cycle
                # conditions; they are rare and short, so poll through.
                return cycle + 1
            due = refresh.next_due_cycle
        else:
            due = None
        if self.queue and self.engine.has_space:
            return cycle + 1
        if self.engine.finished:
            return cycle + 1
        if self.engine.entries:
            nxt = self.engine.next_attempt_cycle(cycle)
        elif self.queue:
            # Queue blocked on a full window: retirement is an engine
            # activity, but stay conservative.
            nxt = cycle + 1
        else:
            nxt = None
        if due is not None and (nxt is None or due < nxt):
            nxt = due
        return nxt

    def on_cycles_skipped(self, start: int, stop: int) -> None:
        self.device.on_cycles_skipped(start, stop)


class ConvMemorySubsystem(SchedulerSeam):
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
        self.device = device
        self.scheduler = MemMaxScheduler(
            threads=threads,
            thread_capacity_flits=thread_capacity_flits,
            priority_first=priority_first,
            tracer=tracer,
        )
        self.engine = DatabahnController(
            device, burst_beats=burst_beats, tracer=tracer
        )
        self.accepted = 0
        self._init_seam()

    def can_accept(self, request: MemoryRequest) -> bool:
        return self.scheduler.can_accept(request)

    def enqueue(self, request: MemoryRequest, cycle: int) -> None:
        self.scheduler.push(request)
        self.accepted += 1
        self._note_admitted(request, cycle)

    def tick(self, cycle: int) -> None:
        while self.engine.has_space:
            request = self.scheduler.pop_next(cycle)
            if request is None:
                break
            self.engine.accept(request, cycle)
        self.engine.tick(cycle)
        self.device.tick(cycle)

    def drain_finished(self) -> List[FinishedRequest]:
        done = self.engine.drain_finished()
        if not done:
            return done
        finished = []
        for item in done:
            # request/response data staged through the thread data buffers
            staging = (item.request.beats + 1) // 2
            finished.append(
                FinishedRequest(
                    item.request,
                    item.data_ready_cycle + self.PIPELINE_LATENCY + staging,
                )
            )
        if finished:
            self._note_finished(finished)
        return finished

    @property
    def pending(self) -> int:
        return self.scheduler.pending + self.engine.pending

    @property
    def idle(self) -> bool:
        return self.pending == 0

    @property
    def quiescent(self) -> bool:
        """See :attr:`ThinMemorySubsystem.quiescent`; an empty MemMax
        front-end is side-effect free to poll, so skipping the whole
        pipeline is exact."""
        return (
            self.scheduler.pending == 0
            and not self.engine.entries
            and not self.engine.finished
        )

    @property
    def refresh(self):
        return self.engine.refresh

    def scheduler_stats(self) -> Dict[str, float]:
        stats = self._seam_stats()
        stats["demand_precharges"] = float(self.engine.demand_precharges)
        stats["accepted"] = float(self.accepted)
        for index, wins in enumerate(self.scheduler.thread_wins):
            stats[f"thread{index}.wins"] = float(wins)
        return stats

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """Event-dispatch bound for the CONV pipeline.  MemMax hands a
        request over whenever the Databahn window has space (``pop_next``
        uses ``cycle`` only for its trace event), so queued front-end
        work with window space is due next cycle; a back-end stalled
        purely on SDRAM timing uses the engine's next-attempt bound, like
        the thin subsystem."""
        refresh = self.engine.refresh
        if refresh is not None and refresh.enabled:
            if refresh.due(cycle) or refresh.in_progress(cycle):
                return cycle + 1
            due = refresh.next_due_cycle
        else:
            due = None
        if self.engine.finished:
            return cycle + 1
        if self.scheduler.pending and self.engine.has_space:
            return cycle + 1
        nxt = (
            self.engine.next_attempt_cycle(cycle)
            if self.engine.entries else None
        )
        if due is not None and (nxt is None or due < nxt):
            nxt = due
        return nxt

    def on_cycles_skipped(self, start: int, stop: int) -> None:
        self.device.on_cycles_skipped(start, stop)


# --------------------------------------------------------------------- #
# Backend factories (the paper-era schedulers)
# --------------------------------------------------------------------- #

@register_scheduler("memmax")
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


@register_scheduler("databahn")
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
        input_capacity=max(2, DATABAHN_LOOKAHEAD // 2),
        tracer=tracer,
        engine=DatabahnController(device, tracer=tracer),
    )


@register_scheduler("engine")
def build_engine_backend(
    config: SystemConfig,
    device: SdramDevice,
    timing: DramTiming,
    tracer=None,
) -> ThinMemorySubsystem:
    """The paper's thin in-order controller; page policy and burst mode
    follow the NoC design exactly as the pre-seam builder chose them."""
    if config.design.uses_sagm:
        if config.ddr is DdrGeneration.DDR3:
            # DDR III: BL 8 with BL4/BL8 on-the-fly for trailing chunks.
            burst, otf = 8, True
        else:
            # DDR I/II: device dropped to BL 4 mode via MRS.
            burst, otf = 4, False
        # Short packets carry fewer data cycles each, so the PRE/RAS/CAS
        # pipeline holds proportionally more of them to keep the same
        # data-time lookahead (entries are a few address bits each — far
        # cheaper than the reorder buffers the design removes).
        depth = _window_for(timing, burst)
        return ThinMemorySubsystem(
            device,
            burst_beats=burst,
            page_policy=PagePolicy.PARTIALLY_OPEN,
            otf=otf,
            window=depth,
            input_capacity=max(2, depth // 2),
            tracer=tracer,
        )
    # [4] and plain GSS: thin in-order controller, BL 8, open page.
    depth = _window_for(timing, 8)
    return ThinMemorySubsystem(
        device,
        burst_beats=8,
        page_policy=PagePolicy.OPEN_PAGE,
        window=depth,
        input_capacity=max(2, depth // 2),
        tracer=tracer,
    )


def default_backend_for(design: NocDesign) -> str:
    """The design-matched backend: what Section V pairs with each NoC."""
    if design in (NocDesign.CONV, NocDesign.CONV_PFS):
        return "memmax"
    return "engine"


def build_memory_subsystem(
    config: SystemConfig, stats: Optional[StatsCollector] = None, tracer=None
):
    """Construct device + scheduler backend for ``config``.

    ``config.arbiter`` picks a registered backend by name;  ``None`` —
    the default — resolves to the design-matched choice of Section V
    (bit-identical to the pre-seam hard-wired builder).
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
