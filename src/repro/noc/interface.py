"""Network interfaces: core-side (master) and memory-side (slave).

The core-side :class:`CoreInterface` pulls requests from a traffic
generator, optionally splits them per SAGM, injects request packets into
its router's LOCAL input buffer, and reassembles the split responses —
recording each *original* request's latency when its last response part
arrives (request creation to final data delivery, in memory-clock cycles,
matching the paper's latency metric).

The memory-side :class:`MemoryInterface` admits request packets into the
memory subsystem with backpressure, ticks the subsystem, and turns finished
requests into response packets (read data or write acknowledge) injected
back into the mesh once their final data beat has left the SDRAM bus.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import replace
from itertools import count
from typing import Deque, Dict, Iterator, List, Optional, Protocol, Tuple

from ..dram.ecc import EccOutcome
from ..dram.request import MemoryRequest
from ..obs.events import EventType
from ..sim.stats import StatsCollector
from .buffers import InputBuffer
from .packet import Packet, request_packet, response_packet


class TrafficGenerator(Protocol):
    """A core's memory-traffic model (see :mod:`repro.workloads.cores`).

    The core NI skips :meth:`generate` before ``next_issue_cycle`` and
    does not wake for it while ``issue_blocked``.  Skipping those calls
    is bit-identical only because ``generate`` is a strict no-op (no
    state change, no random draw) before that cycle and while blocked.
    """

    master: int

    def generate(self, cycle: int) -> List[MemoryRequest]:
        """New requests issued this cycle."""

    def on_complete(self, request_id: int, cycle: int) -> None:
        """A previously issued request finished (frees an outstanding slot)."""

    @property
    def next_issue_cycle(self) -> Optional[int]:
        """Earliest cycle :meth:`generate` could issue; ``None`` = never."""

    @property
    def issue_blocked(self) -> bool:
        """At the outstanding cap: :meth:`generate` issues nothing until a
        completion arrives."""


class Splitter(Protocol):
    """SAGM splitter interface (see :class:`repro.core.sagm.SagmSplitter`)."""

    def split(self, request: MemoryRequest, id_source: Iterator[int]) -> List[MemoryRequest]:
        ...


class _Reassembly:
    """Tracks outstanding parts of one (possibly split) request.

    ``parts`` keeps the split requests so the watchdog can re-issue them;
    ``epoch`` is the current re-issue generation (responses carrying an
    older ``retry_epoch`` are stale duplicates); ``last_activity`` is the
    cycle of the last accepted part response (or the issue/re-issue),
    which the watchdog measures timeouts against.
    """

    __slots__ = ("original", "remaining", "parts", "epoch", "last_activity")

    def __init__(
        self, original: MemoryRequest, parts: List[MemoryRequest], cycle: int
    ) -> None:
        self.original = original
        self.remaining = len(parts)
        self.parts = parts
        self.epoch = 0
        self.last_activity = cycle


class CoreInterface:
    """Master-side NI for one core node."""

    def __init__(
        self,
        node: int,
        memory_node: int,
        generator: TrafficGenerator,
        injection_buffer: InputBuffer,
        sink: InputBuffer,
        stats: StatsCollector,
        packet_ids: Iterator[int],
        request_ids: Iterator[int],
        splitter: Optional[Splitter] = None,
        tracer=None,
        resilience=None,
    ) -> None:
        self.node = node
        self.memory_node = memory_node
        self.generator = generator
        self.injection_buffer = injection_buffer
        self.sink = sink
        self.stats = stats
        self.packet_ids = packet_ids
        self.request_ids = request_ids
        self.splitter = splitter
        self.tracer = tracer
        #: :class:`repro.resilience.protection.ResilienceController` when
        #: fault protection is enabled; ``None`` keeps every check off the
        #: hot path.
        self.resilience = resilience
        self._trace_label = f"core{generator.master}"
        self._pending: Deque[Packet] = deque()
        self._reassembly: Dict[int, _Reassembly] = {}
        self.injected_packets = 0
        self.completed_requests = 0
        self.failed_requests = 0
        #: When set, stop pulling new requests from the generator — the
        #: drain phase of a run (outstanding work still completes).
        self.draining = False
        self._wake = None

    def tick(self, cycle: int) -> None:
        if self.sink.entries:
            self._receive(cycle)
        if not self.draining:
            # generate() is a strict no-op before next_issue_cycle (and
            # forever once it is None), so skipping the call entirely is
            # bit-identical.
            next_issue = self.generator.next_issue_cycle
            if next_issue is not None and next_issue <= cycle:
                self._generate(cycle)
        if self._pending:
            self._inject(cycle)

    # ------------------------------------------------------------------ #
    # Event-dispatch contract
    # ------------------------------------------------------------------ #

    def attach_wake(self, wake) -> None:
        self._wake = wake
        # Response flits landing in the sink must wake this NI.
        self.sink.wake_consumer = wake

    def event_wake_at(self, cycle: int) -> Optional[int]:
        if self._pending:
            return cycle + 1
        entries = self.sink.entries
        if entries and entries[0].fully_received:
            # Only complete packets are consumed; a partial head's tail
            # flit wakes this NI when it lands.
            return cycle + 1
        if self.draining:
            return None
        generator = self.generator
        if generator.issue_blocked:
            # Capped at max outstanding: generate() is a strict no-op
            # until a completion arrives — which comes through the sink
            # (wake hook) or a resilience fail_request (explicit wake).
            return None
        next_issue = generator.next_issue_cycle
        if next_issue is None:
            return None
        return next_issue if next_issue > cycle else cycle + 1

    # ------------------------------------------------------------------ #

    def _receive(self, cycle: int) -> None:
        resilience = self.resilience
        while True:
            packet = self.sink.pop_complete()
            if packet is None:
                break
            request = packet.request
            assert request is not None and packet.is_response
            if resilience is not None and packet.corrupted:
                # CRC failure: discard; the controller NACKs the memory NI
                # into retransmitting after backoff.
                resilience.on_corrupt_response(cycle, packet)
                continue
            parent = request.parent_id if request.parent_id is not None else request.request_id
            tracker = self._reassembly.get(parent)
            if tracker is None:
                if resilience is not None:
                    # Straggler of a failed or re-issued request.
                    resilience.note_stale_response(request)
                    continue
                raise RuntimeError(f"response for unknown request {parent}")
            if resilience is not None:
                if request.retry_epoch != tracker.epoch:
                    resilience.note_stale_response(request)
                    continue
                resilience.on_response_delivered(request)
                tracker.last_activity = cycle
            tracker.remaining -= 1
            if tracker.remaining == 0:
                original = tracker.original
                del self._reassembly[parent]
                self.stats.record_completion(
                    cycle,
                    original.issued_cycle,
                    original.master,
                    original.is_demand,
                )
                self.generator.on_complete(original.request_id, cycle)
                self.completed_requests += 1
                tracer = self.tracer
                if tracer:
                    tracer.emit(
                        EventType.COMPLETE,
                        cycle,
                        self._trace_label,
                        request_id=original.request_id,
                        latency=cycle - original.issued_cycle,
                        demand=original.is_demand,
                    )

    def _generate(self, cycle: int) -> None:
        for request in self.generator.generate(cycle):
            request.issued_cycle = cycle
            if self.splitter is not None:
                parts = self.splitter.split(request, self.request_ids)
            else:
                parts = [request]
            self._reassembly[request.request_id] = _Reassembly(request, parts, cycle)
            for part in parts:
                self._pending.append(
                    request_packet(
                        next(self.packet_ids), part, self.node, self.memory_node, cycle
                    )
                )

    def _inject(self, cycle: int) -> None:
        while self._pending:
            packet = self._pending[0]
            if not self.injection_buffer.can_inject(packet):
                break
            self.injection_buffer.push_complete(packet)
            self._pending.popleft()
            self.injected_packets += 1
            tracer = self.tracer
            if tracer:
                request = packet.request
                tracer.emit(
                    EventType.INJECT,
                    cycle,
                    self._trace_label,
                    packet_id=packet.packet_id,
                    request_id=(
                        request.request_id if request is not None else None
                    ),
                    node=self.node,
                    dst=packet.dst,
                    flits=packet.size_flits,
                )

    # ------------------------------------------------------------------ #
    # Resilience hooks (no-ops in a fault-free system)
    # ------------------------------------------------------------------ #

    def retransmit_request(self, part: MemoryRequest, cycle: int) -> None:
        """Rebuild and re-queue the request packet for one split part
        (CRC NACK recovery; called by the resilience controller once the
        backoff has elapsed)."""
        self._pending.append(
            request_packet(
                next(self.packet_ids), part, self.node, self.memory_node, cycle
            )
        )
        wake = self._wake
        if wake is not None:
            wake()

    def reissue(self, parent: int, cycle: int) -> None:
        """Watchdog re-issue: re-inject every part of ``parent`` under a
        new retry epoch; in-flight responses from older epochs become
        stale duplicates."""
        tracker = self._reassembly.get(parent)
        if tracker is None:
            return
        tracker.epoch += 1
        tracker.remaining = len(tracker.parts)
        tracker.last_activity = cycle
        for part in tracker.parts:
            clone = replace(part, retry_epoch=tracker.epoch)
            self._pending.append(
                request_packet(
                    next(self.packet_ids), clone, self.node, self.memory_node, cycle
                )
            )
        wake = self._wake
        if wake is not None:
            wake()

    def fail_request(self, parent: int, cycle: int) -> bool:
        """Surface ``parent`` as failed: drop its reassembly state and
        release the generator's outstanding slot, with no completion
        recorded.  Returns whether the request was still outstanding."""
        tracker = self._reassembly.pop(parent, None)
        if tracker is None:
            return False
        self.generator.on_complete(tracker.original.request_id, cycle)
        self.failed_requests += 1
        wake = self._wake
        if wake is not None:
            wake()  # the freed outstanding slot may unblock the generator
        return True

    @property
    def outstanding(self) -> int:
        return len(self._reassembly)


class MemoryInterface:
    """Slave-side NI wrapping the memory subsystem at the memory node."""

    def __init__(
        self,
        node: int,
        subsystem,
        sink: InputBuffer,
        injection_buffer: InputBuffer,
        master_nodes: Dict[int, int],
        packet_ids: Iterator[int],
        priority_responses: bool = False,
        tracer=None,
        resilience=None,
    ) -> None:
        """With ``priority_responses`` the NI injects ready responses for
        priority requests ahead of best-effort ones (the output buffer of
        Fig. 6 builds service packets; a QoS-aware NI dequeues priority
        data first): priority responses wait in their own ready heap,
        whose head goes first whenever it is ready.  Response reordering
        is safe: masters reassemble split responses by part count, not
        order."""
        self.node = node
        self.subsystem = subsystem
        self.sink = sink
        self.injection_buffer = injection_buffer
        self.master_nodes = master_nodes
        self.packet_ids = packet_ids
        self.priority_responses = priority_responses
        self.tracer = tracer
        self.resilience = resilience
        self._trace_label = f"ni{node}"
        #: Ready heaps of ``(ready cycle, sequence, request)``: priority
        #: responses (with ``priority_responses``) and all others.
        self._ready_priority: List[Tuple[int, int, MemoryRequest]] = []
        self._ready: List[Tuple[int, int, MemoryRequest]] = []
        self._sequence = count()
        self.admitted = 0
        self.responses_sent = 0
        self._wake = None

    def tick(self, cycle: int) -> None:
        resilience = self.resilience
        self._admit(cycle)
        self.subsystem.tick(cycle)
        for finished in self.subsystem.drain_finished():
            if resilience is not None:
                outcome = resilience.on_dram_burst(cycle, finished.request)
                if outcome is EccOutcome.DETECTED:
                    # Uncorrectable read data: the controller queued a
                    # device re-read (or failed the request) — resending
                    # the response would resend the same bad data.
                    continue
            self._queue_response(
                finished.request,
                max(cycle + 1, finished.data_ready_cycle + 1),
            )
        self._respond(cycle)

    def _admit(self, cycle: int) -> None:
        resilience = self.resilience
        if resilience is not None and resilience.dram_retries:
            # ECC re-reads go first: their requester has waited longest.
            retries = resilience.dram_retries
            while retries and self.subsystem.can_accept(retries[0]):
                self.subsystem.enqueue(retries.popleft(), cycle)
        sink = self.sink
        while True:
            head = sink.head()
            if head is None or head.claimed or not head.fully_received:
                break
            packet = head.packet
            request = packet.request
            assert request is not None
            if resilience is not None and packet.corrupted:
                # CRC failure on arrival: discard and NACK the sender.
                sink.pop_head()
                resilience.on_corrupt_request(cycle, packet)
                continue
            if not self.subsystem.can_accept(request):
                break
            sink.pop_head()
            self.subsystem.enqueue(request, cycle)
            self.admitted += 1
            if resilience is not None:
                resilience.on_request_admitted(request)

    def _queue_response(self, request: MemoryRequest, ready: int) -> None:
        heapq.heappush(
            self._ready_priority
            if self.priority_responses and request.is_priority
            else self._ready,
            (ready, next(self._sequence), request),
        )

    def _respond(self, cycle: int) -> None:
        priority = self._ready_priority
        best_effort = self._ready
        while True:
            if priority and priority[0][0] <= cycle:
                heap = priority
            elif best_effort and best_effort[0][0] <= cycle:
                heap = best_effort
            else:
                break
            request = heap[0][2]
            dst = self.master_nodes[request.master]
            packet = response_packet(
                next(self.packet_ids), request, self.node, dst, cycle
            )
            if not self.injection_buffer.can_inject(packet):
                break
            heapq.heappop(heap)
            self.injection_buffer.push_complete(packet)
            self.responses_sent += 1
            tracer = self.tracer
            if tracer:
                tracer.emit(
                    EventType.INJECT,
                    cycle,
                    self._trace_label,
                    packet_id=packet.packet_id,
                    request_id=request.request_id,
                    node=self.node,
                    dst=dst,
                    flits=packet.size_flits,
                    side="memory",
                )

    def resend_response(self, request: MemoryRequest, cycle: int) -> None:
        """Retransmit the (still buffered) response for ``request`` —
        called by the resilience controller after a CRC NACK backoff."""
        self._queue_response(request, cycle)
        wake = self._wake
        if wake is not None:
            wake()

    @property
    def idle(self) -> bool:
        return (
            self.sink.head() is None
            and self.subsystem.idle
            and not self._ready
            and not self._ready_priority
        )

    # ------------------------------------------------------------------ #
    # Event-dispatch contract
    # ------------------------------------------------------------------ #

    def attach_wake(self, wake) -> None:
        self._wake = wake
        # Request flits landing in the sink must wake this NI.
        self.sink.wake_consumer = wake

    def event_wake_at(self, cycle: int) -> Optional[int]:
        """Next cycle with possible work.

        * A fully received sink head that :meth:`_admit` can act on now
          (the subsystem accepts it, or it is a corrupted packet to
          discard) and queued ECC re-reads poll the next cycle.
        * Anything else sleeps until the earlier of the ready-heap heads
          and the subsystem's :meth:`next_event_cycle`.  A head blocked
          on admission needs room, and the subsystem frees room only
          inside its own ``tick`` (the ``Scheduler`` admission contract),
          which that bound covers; a partially received head is woken by
          its tail flit.  A subsystem stalled purely on SDRAM timing
          sleeps until the controller's earliest possible command: no
          ticks during tRC/tRP/tRCD/refresh stalls.
        """
        resilience = self.resilience
        if resilience is not None and resilience.dram_retries:
            return cycle + 1
        entries = self.sink.entries
        if entries:
            head = entries[0]
            if head.fully_received:
                packet = head.packet
                if (
                    resilience is not None and packet.corrupted
                ) or self.subsystem.can_accept(packet.request):
                    return cycle + 1
        nxt = None
        if self._ready:
            nxt = self._ready[0][0]
        priority = self._ready_priority
        if priority and (nxt is None or priority[0][0] < nxt):
            nxt = priority[0][0]
        if nxt is not None and nxt <= cycle:
            nxt = cycle + 1
        if nxt != cycle + 1:
            sub = self.subsystem.next_event_cycle(cycle)
            if sub is not None:
                if sub <= cycle:
                    sub = cycle + 1
                if nxt is None or sub < nxt:
                    nxt = sub
        return nxt
