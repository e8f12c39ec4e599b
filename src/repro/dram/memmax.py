"""MemMax-like thread-based memory scheduler (CONV front-end).

The conventional NoC design in the paper (Section V) pairs round-robin
routers with a Sonics MemMax [26] style memory scheduler: requests arrive
over four OCP threads, each thread has its own request/data buffers, there
is no ordering requirement *between* threads, and the scheduler freely
reorders across threads to prevent bank conflict and data contention while
honouring per-thread quality-of-service settings.

This module gives every thread the same QoS allocation, so the arbiter
grants threads in round-robin order, with starvation aging and an
optional priority-first mode (the paper's CONV+PFS configuration).  SDRAM
friendliness of the final command stream is the job of the Databahn
back-end's page lookahead, not of the thread arbiter — which is why the
paper finds that moving scheduling into the NoC routers, where candidates
carry explicit (RA, BA, R/W) state, beats the conventional split
(Table I).  An optional ``sdram_friendly_skip`` mode
(used by ablation benchmarks) lets the arbiter skip threads whose head
would bank-conflict or turn the bus around.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Deque, List, Optional
from collections import deque

from ..obs.events import EventType
from .request import MemoryRequest


@dataclass
class ThreadQueue:
    """One OCP thread: separate 32-flit request and data buffers.

    MemMax's OCP interface splits request signals from data signals, so each
    thread buffers them independently (Section V): a request costs one
    request-buffer flit; a write additionally occupies data-buffer flits for
    its payload (2 beats per flit).
    """

    index: int
    capacity_flits: int
    queue: Deque[MemoryRequest] = field(default_factory=deque)
    data_occupancy_flits: int = 0
    age: int = 0  # arbitration rounds since last win

    @staticmethod
    def data_flits(request: MemoryRequest) -> int:
        return (request.beats + 1) // 2 if request.is_write else 0

    def can_accept(self, request: MemoryRequest) -> bool:
        if len(self.queue) >= self.capacity_flits:
            return False  # request buffer full
        return (
            self.data_occupancy_flits + self.data_flits(request)
            <= self.capacity_flits
        )

    def push(self, request: MemoryRequest) -> None:
        if not self.can_accept(request):
            raise RuntimeError(f"thread {self.index} buffer overflow")
        self.queue.append(request)
        self.data_occupancy_flits += self.data_flits(request)

    def head(self) -> Optional[MemoryRequest]:
        return self.queue[0] if self.queue else None

    def pop(self) -> MemoryRequest:
        request = self.queue.popleft()
        self.data_occupancy_flits -= self.data_flits(request)
        return request

    def __len__(self) -> int:
        return len(self.queue)


class MemMaxScheduler:
    """Four-thread request scheduler with SDRAM-friendly arbitration."""

    #: Aging threshold after which a thread wins regardless of SDRAM state.
    STARVATION_ROUNDS = 16

    def __init__(
        self,
        threads: int = 4,
        thread_capacity_flits: int = 32,
        priority_first: bool = False,
        sdram_friendly_skip: bool = False,
        tracer=None,
    ) -> None:
        if threads <= 0:
            raise ValueError("need at least one thread")
        self.threads = [
            ThreadQueue(i, thread_capacity_flits) for i in range(threads)
        ]
        self.priority_first = priority_first
        self.sdram_friendly_skip = sdram_friendly_skip
        self._last_scheduled: Optional[MemoryRequest] = None
        self._rr_pointer = 0
        self.tracer = tracer
        #: Arbitration wins per thread index (telemetry).
        self.thread_wins: List[int] = [0] * threads
        self._pending = 0  # requests queued over all threads

    # ------------------------------------------------------------------ #
    # Thread assignment / admission
    # ------------------------------------------------------------------ #

    def thread_for(self, request: MemoryRequest) -> ThreadQueue:
        return self.threads[request.master % len(self.threads)]

    def can_accept(self, request: MemoryRequest) -> bool:
        return self.thread_for(request).can_accept(request)

    def push(self, request: MemoryRequest) -> None:
        self.thread_for(request).push(request)
        self._pending += 1

    @property
    def pending(self) -> int:
        return self._pending

    # ------------------------------------------------------------------ #
    # Arbitration
    # ------------------------------------------------------------------ #

    def pop_next(self, cycle: int = 0) -> Optional[MemoryRequest]:
        """Select and dequeue the next request for the command engine."""
        if not self._pending:
            return None
        candidates = [t for t in self.threads if t.queue]
        winner = self._select(candidates)
        for thread in candidates:
            thread.age = 0 if thread is winner else thread.age + 1
        request = winner.pop()
        self._pending -= 1
        self._last_scheduled = request
        self._rr_pointer = (winner.index + 1) % len(self.threads)
        self.thread_wins[winner.index] += 1
        tracer = self.tracer
        if tracer:
            tracer.emit(
                EventType.ARB_GRANT,
                cycle,
                f"memmax.t{winner.index}",
                request_id=request.request_id,
                bank=request.bank,
                priority=request.is_priority,
            )
        return request

    def _select(self, candidates: List[ThreadQueue]) -> ThreadQueue:
        """Round-robin over the threads with a queued request.

        A starved thread always wins; priority-first mode (CONV+PFS) serves
        priority heads before anything else; otherwise threads are granted
        in round-robin order, optionally skipping SDRAM-unfriendly heads
        when ``sdram_friendly_skip`` is enabled.
        """
        starved = [t for t in candidates if t.age >= self.STARVATION_ROUNDS]
        if starved:
            return max(starved, key=lambda t: t.age)
        if self.priority_first:
            priority = [t for t in candidates if t.head().is_priority]
            if priority:
                return self._round_robin(priority)
        if self.sdram_friendly_skip:
            clean = [t for t in candidates if self._is_clean(t.head())]
            if clean:
                return self._round_robin(clean)
            no_conflict = [
                t for t in candidates
                if not (self._last_scheduled is not None
                        and t.head().bank_conflict_with(self._last_scheduled))
            ]
            if no_conflict:
                return self._round_robin(no_conflict)
        return self._round_robin(candidates)

    def _is_clean(self, head: MemoryRequest) -> bool:
        last = self._last_scheduled
        if last is None:
            return True
        return not (
            head.bank_conflict_with(last) or head.data_contention_with(last)
        )

    def _round_robin(self, candidates: List[ThreadQueue]) -> ThreadQueue:
        return min(
            candidates,
            key=lambda t: (t.index - self._rr_pointer) % len(self.threads),
        )
