"""Dynamic Priority Queue arbiter with analytically bounded latency.

After Shah, Raabe and Knoll, "Dynamic priority queue: An SDRAM arbiter
with bounded access latencies for tight WCET calculation"
(arXiv 1207.1187).  Each requestor (core) owns a private FIFO; a dynamic
priority order over the requestors decides who is served next, and the
served requestor drops to the tail of the order.  Between two consecutive
grants to any requestor, every other requestor is therefore granted at
most once — which is the whole trick: the worst-case wait of a request is
a *product of counts*, not a property of the traffic.

Service is serial and closed-page (one request fully through a
window-of-1 :class:`~repro.dram.controller.CommandEngine` with
auto-precharge on the final burst), so one service slot's duration is
bounded by the timing set alone — no row-state history can stretch it.
:func:`dpq_latency_bound` composes the two:

    ``bound = (Q · N + 1) · T_slot``

with ``N`` requestors, per-requestor FIFO depth ``Q`` (a request admitted
to a full-but-one FIFO waits for Q grants to its own requestor, each
preceded by at most N−1 foreign grants), plus one slot for a request
already in flight at admission.  ``T_slot`` (:func:`service_slot_cycles`)
conservatively sums every timing constraint a slot can possibly pay —
bank recovery after a write (tWR+tRP), minimum row-open time (tRAS),
tRCD, per-burst CAS spacing, data latency, and both bus-turnaround gaps —
so the bound holds for any command interleaving the engine produces.
The bound is deliberately slack (each real slot pays only a subset of
those constraints); what matters is that it is *sound*, which the
hypothesis property test checks against the measured p100 service
latency across randomized traffic, fault rates, and timing sets.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from ..sim.config import SystemConfig
from .controller import CommandEngine, FinishedRequest, PagePolicy
from .device import SdramDevice
from .request import MemoryRequest
from .scheduler import SchedulerSeam, register_scheduler
from .timing import DramTiming

#: Device burst-length mode the DPQ programs (supported by every DDR
#: generation in the repo).
DPQ_BURST_BEATS = 8

#: Per-requestor FIFO depth.  Part of the bound: deeper queues admit more
#: traffic but linearly stretch the worst case.
DPQ_QUEUE_CAPACITY = 4


def service_slot_cycles(
    timing: DramTiming, burst_beats: int, max_beats: int
) -> int:
    """Worst-case duration of one closed-page service slot, in cycles.

    Sums every constraint a slot can pay, whether or not a given slot
    actually pays it: write recovery + precharge of the previously used
    row (tWR+tRP), minimum open time of that row (tRAS, covering the case
    where it gates the precharge instead), activate-to-CAS (tRCD), the
    CAS train for ``max_beats`` useful beats at ``burst_beats`` per CAS
    (each burst separated by the worst of tCCD / data occupancy / tRRD),
    the data latency of the final CAS (max of CL and WL), and both bus
    turnaround gaps (tWTR, tRTW) in case the slot switches direction.
    """
    bursts = max(1, -(-max_beats // burst_beats))
    per_burst = max(
        timing.t_ccd, timing.burst_cycles(burst_beats), timing.t_rrd
    )
    return (
        timing.t_wr
        + timing.t_rp
        + timing.t_ras
        + timing.t_rcd
        + bursts * per_burst
        + max(timing.cas_latency, timing.write_latency)
        + timing.t_wtr
        + timing.t_rtw
    )


def dpq_latency_bound(
    timing: DramTiming,
    requestors: int,
    queue_capacity: int,
    burst_beats: int,
    max_beats: int,
) -> int:
    """Worst-case admission→final-data-beat latency of any request.

    A request admitted as the ``Q``-th entry of its requestor's FIFO
    completes after at most ``Q`` grants to its own requestor; the DPQ
    tail-drop rule lets at most ``N − 1`` foreign grants precede each of
    them, and one foreign request may already be in flight at admission:
    ``(Q·(1 + (N−1)) + 1) = Q·N + 1`` slots.
    """
    if requestors <= 0:
        raise ValueError("bound needs at least one requestor")
    slots = queue_capacity * requestors + 1
    return slots * service_slot_cycles(timing, burst_beats, max_beats)


class DpqScheduler(SchedulerSeam):
    """Per-requestor FIFOs + dynamic priority order, serial closed-page
    service.  Satisfies the :class:`~repro.dram.scheduler.Scheduler`
    protocol; :meth:`latency_bound` reports the analytic worst case for
    the traffic actually admitted so far."""

    def __init__(
        self,
        device: SdramDevice,
        timing: DramTiming,
        queue_capacity: int = DPQ_QUEUE_CAPACITY,
        burst_beats: int = DPQ_BURST_BEATS,
        tracer=None,
    ) -> None:
        if queue_capacity <= 0:
            raise ValueError("queue_capacity must be positive")
        self.device = device
        self.timing = timing
        self.queue_capacity = queue_capacity
        self.burst_beats = burst_beats
        # Serial service: window of 1, closed page — the slot-duration
        # bound depends on never having two requests in the pipeline.
        self.engine = CommandEngine(
            device,
            burst_beats=burst_beats,
            page_policy=PagePolicy.CLOSED_PAGE,
            window=1,
            tracer=tracer,
        )
        #: requestor id -> private FIFO (created on first admission; once
        #: seen, a requestor stays in the priority order and in ``N``).
        self.queues: Dict[int, Deque[MemoryRequest]] = {}
        #: dynamic priority order, highest priority first.
        self.order: List[int] = []
        self.grants: Dict[int, int] = {}
        self.max_beats_seen = 0
        self.accepted = 0
        self._init_seam()

    # --- request admission ------------------------------------------- #

    def can_accept(self, request: MemoryRequest) -> bool:
        queue = self.queues.get(request.master)
        return queue is None or len(queue) < self.queue_capacity

    def enqueue(self, request: MemoryRequest, cycle: int) -> None:
        queue = self.queues.get(request.master)
        if queue is None:
            queue = self.queues[request.master] = deque()
            self.order.append(request.master)
            self.grants[request.master] = 0
        if len(queue) >= self.queue_capacity:
            raise RuntimeError("DPQ requestor queue full")
        queue.append(request)
        self.accepted += 1
        if request.beats > self.max_beats_seen:
            self.max_beats_seen = request.beats
        self._note_admitted(request, cycle)

    # --- per-cycle command selection --------------------------------- #

    def tick(self, cycle: int) -> None:
        while self.engine.has_space:
            granted = self._grant()
            if granted is None:
                break
            self.engine.accept(granted, cycle)
        self.engine.tick(cycle)
        self.device.tick(cycle)

    def _grant(self) -> Optional[MemoryRequest]:
        """Pop the head of the highest-priority non-empty FIFO and drop
        that requestor to the tail of the order."""
        for position, master in enumerate(self.order):
            queue = self.queues[master]
            if queue:
                request = queue.popleft()
                del self.order[position]
                self.order.append(master)
                self.grants[master] += 1
                return request
        return None

    def drain_finished(self) -> List[FinishedRequest]:
        done = self.engine.drain_finished()
        if done:
            self._note_finished(done)
        return done

    # --- occupancy / event contract ---------------------------------- #

    @property
    def pending(self) -> int:
        return sum(len(q) for q in self.queues.values()) + self.engine.pending

    @property
    def idle(self) -> bool:
        return self.pending == 0

    @property
    def quiescent(self) -> bool:
        return (
            not self.engine.entries
            and not self.engine.finished
            and all(not q for q in self.queues.values())
        )

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        if self.engine.finished:
            return cycle + 1
        queued = any(self.queues.values())
        if queued and self.engine.has_space:
            return cycle + 1
        if self.engine.entries:
            return self.engine.next_attempt_cycle(cycle)
        return None

    def on_cycles_skipped(self, start: int, stop: int) -> None:
        self.device.on_cycles_skipped(start, stop)

    # --- stats surface ----------------------------------------------- #

    @property
    def refresh(self):
        return self.engine.refresh

    def latency_bound(self) -> Optional[int]:
        """The analytic bound for the requestor population and largest
        request admitted so far (``None`` before any traffic)."""
        if not self.queues:
            return None
        return dpq_latency_bound(
            self.timing,
            requestors=len(self.queues),
            queue_capacity=self.queue_capacity,
            burst_beats=self.burst_beats,
            max_beats=max(self.max_beats_seen, 1),
        )

    def scheduler_stats(self) -> Dict[str, float]:
        stats = self._seam_stats()
        stats["accepted"] = float(self.accepted)
        stats["requestors"] = float(len(self.queues))
        stats["max_beats"] = float(self.max_beats_seen)
        for master, grants in sorted(self.grants.items()):
            stats[f"requestor{master}.grants"] = float(grants)
        return stats


@register_scheduler("dpq")
def build_dpq_backend(
    config: SystemConfig,
    device: SdramDevice,
    timing: DramTiming,
    tracer=None,
) -> DpqScheduler:
    return DpqScheduler(device, timing, tracer=tracer)
