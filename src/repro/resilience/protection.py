"""Recovery machinery: CRC/NACK retransmission, DRAM re-reads, failure.

The :class:`ResilienceController` is the run's single recovery authority.
The NoC endpoints check each arriving packet's CRC (modelled as the
``corrupted`` flag the injector sets) and hand corrupted packets here;
the controller discards them, NACKs, and schedules a retransmission at
the originating NI after a bounded exponential backoff —
``min(cap, base * 2**(n-1))`` cycles for attempt ``n``.  Requests
retransmit from the core NI, responses from the memory NI (the finished
data is still buffered there).  A packet that exhausts its retry budget
fails its whole parent request: the core NI's reassembly tracker is
dropped, the generator's outstanding slot is released, and the request
is *reported* failed instead of hanging the run.

On the SDRAM path the controller owns the :class:`SecDedEcc` accountant:
single-bit read errors are corrected in flight; double-bit errors are
detected-uncorrectable, so the stored data itself is bad and the request
is re-enqueued for a device re-read (retransmitting the response would
resend the same bad data), again up to a cap.

Every injected fault is tracked through a ledger until it resolves::

    injected == corrected + recovered + failed + unresolved

``corrected`` are ECC single-bit fixes; ``recovered`` are faults whose
packet was eventually delivered clean (CRC retry) or whose burst
eventually re-read clean; ``failed`` rode a request that was surfaced as
failed; ``unresolved`` is the in-flight remainder (zero once the system
drains to quiescence).
"""

from __future__ import annotations

import heapq
from collections import deque
from itertools import count
from typing import Deque, Dict, List, Optional, Set, Tuple

from ..dram.ecc import EccOutcome, SecDedEcc
from ..obs.events import EventType
from .faults import FaultConfig, FaultInjector

#: Ledger key: ("req" | "rsp" | "dram", memory-request part id).
_Key = Tuple[str, int]


class _PendingFaults:
    """Faults charged to one in-recovery packet / burst."""

    __slots__ = ("faults", "attempts", "parent", "master")

    def __init__(self, parent: int, master: int) -> None:
        self.faults = 0
        self.attempts = 0
        self.parent = parent
        self.master = master


class ResilienceController:
    """Schedules retransmissions and keeps the fault ledger."""

    def __init__(
        self,
        injector: FaultInjector,
        config: FaultConfig,
        tracer=None,
    ) -> None:
        self.injector = injector
        self.config = config
        self.tracer = tracer
        self.ecc = SecDedEcc()
        self._cores: Dict[int, object] = {}     # master -> CoreInterface
        self._memory = None                      # MemoryInterface
        # (due_cycle, seq, kind, request) retransmissions waiting out backoff.
        self._retransmit_heap: List[tuple] = []
        self._seq = count()
        self._wake = None
        # DRAM re-reads ready for admission (drained by the memory NI).
        self.dram_retries: Deque[object] = deque()
        # In-recovery fault bookkeeping.
        self._pending: Dict[_Key, _PendingFaults] = {}
        self._parent_keys: Dict[int, Set[_Key]] = {}
        self._failed_parents: Set[int] = set()
        # Resolution counters (the ledger).
        self.recovered = 0
        self.failed_faults = 0
        # Event counters.
        self.crc_retries = 0
        self.dram_reread_count = 0
        self.watchdog_reissues = 0
        self.failed_requests = 0
        self.stale_responses = 0

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #

    def register_core(self, master: int, interface) -> None:
        self._cores[master] = interface

    def attach_memory(self, interface) -> None:
        self._memory = interface

    # ------------------------------------------------------------------ #
    # Ledger
    # ------------------------------------------------------------------ #

    @property
    def corrected(self) -> int:
        return self.ecc.corrected

    @property
    def injected_total(self) -> int:
        return self.injector.total_injected

    @property
    def unresolved(self) -> int:
        """Injected faults not yet corrected, recovered, or failed."""
        return (
            self.injector.total_injected
            - self.corrected
            - self.recovered
            - self.failed_faults
        )

    def _charge(self, key: _Key, request, faults: int) -> _PendingFaults:
        pending = self._pending.get(key)
        if pending is None:
            parent = request.parent_id if request.parent_id is not None else request.request_id
            pending = _PendingFaults(parent, request.master)
            self._pending[key] = pending
            self._parent_keys.setdefault(parent, set()).add(key)
        pending.faults += faults
        return pending

    def _resolve(self, key: _Key, recovered: bool) -> None:
        pending = self._pending.pop(key, None)
        if pending is None:
            return
        keys = self._parent_keys.get(pending.parent)
        if keys is not None:
            keys.discard(key)
            if not keys:
                del self._parent_keys[pending.parent]
        if recovered:
            self.recovered += pending.faults
        else:
            self.failed_faults += pending.faults

    # ------------------------------------------------------------------ #
    # Per-cycle: release due retransmissions
    # ------------------------------------------------------------------ #

    def tick(self, cycle: int) -> None:
        self.injector.tick(cycle)
        heap = self._retransmit_heap
        while heap and heap[0][0] <= cycle:
            _, _, kind, request = heapq.heappop(heap)
            parent = request.parent_id if request.parent_id is not None else request.request_id
            if parent in self._failed_parents:
                continue  # the parent failed while this retry waited
            if kind == "req":
                core = self._cores[request.master]
                core.retransmit_request(request, cycle)
            else:
                self._memory.resend_response(request, cycle)

    # ------------------------------------------------------------------ #
    # Event-dispatch contract
    # ------------------------------------------------------------------ #

    def attach_wake(self, wake) -> None:
        self._wake = wake

    def event_wake_at(self, cycle: int) -> Optional[int]:
        """Rate-driven buffer flips draw per-cycle randomness, so they
        force per-cycle ticking; otherwise the controller sleeps until the
        next scheduled fault or due retransmission (new NACKs arm the
        wake handle from :meth:`_nack`)."""
        injector = self.injector
        if injector.enabled and self.config.buffer_flip_rate > 0.0:
            return cycle + 1
        nxt = None
        schedule = injector._schedule
        pos = injector._schedule_pos
        if pos < len(schedule):
            nxt = schedule[pos].cycle
            if nxt <= cycle:
                nxt = cycle + 1
        heap = self._retransmit_heap
        if heap:
            due = heap[0][0]
            if due <= cycle:
                due = cycle + 1
            if nxt is None or due < nxt:
                nxt = due
        return nxt

    # ------------------------------------------------------------------ #
    # CRC endpoints
    # ------------------------------------------------------------------ #

    def on_corrupt_request(self, cycle: int, packet) -> None:
        """Memory NI found a failing CRC on an arriving request packet."""
        self._nack(cycle, packet, "req")

    def on_corrupt_response(self, cycle: int, packet) -> None:
        """Core NI found a failing CRC on an arriving response packet."""
        self._nack(cycle, packet, "rsp")

    def _nack(self, cycle: int, packet, kind: str) -> None:
        request = packet.request
        key = (kind, request.request_id)
        pending = self._charge(key, request, packet.fault_bits)
        if pending.parent in self._failed_parents:
            # Straggler of an already-failed request: nothing to retry.
            self._resolve(key, recovered=False)
            return
        pending.attempts += 1
        if pending.attempts > self.config.crc_retry_limit:
            self.fail_request(cycle, pending.parent, pending.master, reason="crc")
            return
        due = cycle + self.config.backoff(pending.attempts)
        heapq.heappush(self._retransmit_heap, (due, next(self._seq), kind, request))
        wake = self._wake
        if wake is not None:
            wake(due)  # NACKs arrive mid-cycle from the NI ticks
        self.crc_retries += 1
        tracer = self.tracer
        if tracer:
            tracer.emit(
                EventType.RETRY,
                cycle,
                "crc",
                packet_id=packet.packet_id,
                request_id=request.request_id,
                kind=kind,
                attempt=pending.attempts,
                due=due,
            )

    def on_request_admitted(self, request) -> None:
        """A clean request packet reached the memory subsystem."""
        self._resolve(("req", request.request_id), recovered=True)

    def on_response_delivered(self, request) -> None:
        """A clean response part reached its master."""
        self._resolve(("rsp", request.request_id), recovered=True)

    def note_stale_response(self, request) -> None:
        """Response for an already-failed or re-issued request: dropped."""
        self.stale_responses += 1

    # ------------------------------------------------------------------ #
    # SDRAM data path (ECC)
    # ------------------------------------------------------------------ #

    def on_dram_burst(self, cycle: int, request) -> EccOutcome:
        """Classify a finished burst; queue a re-read if uncorrectable.

        Returns the ECC outcome; on ``DETECTED`` the caller must *not*
        send the response (the controller has either queued a re-read or
        failed the request).
        """
        if not request.is_read:
            return EccOutcome.CLEAN  # errors in stored data surface on reads
        bits = self.injector.sdram_read_bits(cycle, request)
        outcome = self.ecc.classify(bits)
        if outcome is EccOutcome.CORRECTED:
            # The fault begins and ends here: corrected in flight.
            tracer = self.tracer
            if tracer:
                tracer.emit(
                    EventType.CORRECTED,
                    cycle,
                    "ecc",
                    request_id=request.request_id,
                )
        elif outcome is EccOutcome.DETECTED:
            key = ("dram", request.request_id)
            pending = self._charge(key, request, 1)
            if pending.parent in self._failed_parents:
                self._resolve(key, recovered=False)
                return outcome
            pending.attempts += 1
            if pending.attempts > self.config.dram_retry_limit:
                self.fail_request(cycle, pending.parent, pending.master, reason="ecc")
            else:
                self.dram_retries.append(request)
                self.dram_reread_count += 1
                tracer = self.tracer
                if tracer:
                    tracer.emit(
                        EventType.RETRY,
                        cycle,
                        "ecc",
                        request_id=request.request_id,
                        attempt=pending.attempts,
                    )
        else:
            self._resolve(("dram", request.request_id), recovered=True)
        return outcome

    # ------------------------------------------------------------------ #
    # Watchdog / failure
    # ------------------------------------------------------------------ #

    def on_watchdog_reissue(self, cycle: int, parent: int, master: int) -> None:
        self.watchdog_reissues += 1
        tracer = self.tracer
        if tracer:
            tracer.emit(
                EventType.RETRY,
                cycle,
                "watchdog",
                request_id=parent,
                kind="reissue",
            )

    def fail_request(
        self, cycle: int, parent: int, master: int, reason: str
    ) -> None:
        """Give up on ``parent``: surface it as failed, settle its faults."""
        if parent in self._failed_parents:
            return
        self._failed_parents.add(parent)
        for key in list(self._parent_keys.get(parent, ())):
            self._resolve(key, recovered=False)
        core = self._cores.get(master)
        if core is not None:
            core.fail_request(parent, cycle)
        self.failed_requests += 1
        tracer = self.tracer
        if tracer:
            tracer.emit(
                EventType.FAILED,
                cycle,
                "resilience",
                request_id=parent,
                reason=reason,
            )

    # ------------------------------------------------------------------ #
    # Quiescence
    # ------------------------------------------------------------------ #

    @property
    def busy(self) -> bool:
        """Recovery work still in flight (retransmits or re-reads)."""
        return bool(self._retransmit_heap) or bool(self.dram_retries)

    def metrics_into(self, registry) -> None:
        """Publish the ledger and event counters (``resilience.*``)."""
        for site, value in self.injector.injected.items():
            registry.counter(f"resilience.injected.{site.value}").inc(value)
        registry.counter("resilience.injected.total").inc(self.injector.total_injected)
        registry.counter("resilience.corrected").inc(self.corrected)
        registry.counter("resilience.recovered").inc(self.recovered)
        registry.counter("resilience.failed_faults").inc(self.failed_faults)
        registry.counter("resilience.unresolved").inc(self.unresolved)
        registry.counter("resilience.crc_retries").inc(self.crc_retries)
        registry.counter("resilience.dram_rereads").inc(self.dram_reread_count)
        registry.counter("resilience.watchdog_reissues").inc(self.watchdog_reissues)
        registry.counter("resilience.failed_requests").inc(self.failed_requests)
        registry.counter("resilience.stale_responses").inc(self.stale_responses)
        registry.counter("resilience.ecc.clean_bursts").inc(self.ecc.clean_bursts)
        registry.counter("resilience.ecc.detected").inc(self.ecc.detected)
