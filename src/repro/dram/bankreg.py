"""Per-bank memory bandwidth regulation.

After Sullivan et al. (arXiv 2603.26054): interference between masters
in a shared SDRAM is dominated by *bank* contention, so regulating each
master's bandwidth per bank — not just in aggregate — isolates masters
from each other's row-conflict storms.  Each (master, bank) pair holds a
beat budget that replenishes every regulation window; a master whose
head request would overdraw its budget for the addressed bank is stalled
until the next window, while other masters (or the same master on other
banks) keep flowing.

The implementation keeps a private FIFO per master and releases head
requests round-robin into an open-page :class:`CommandEngine` (the same
engine the paper's thin subsystem uses), charging ``request.beats``
against the ``(master, bank)`` budget at release time.  Replenishment is
*lazy*: budgets are keyed by the window epoch ``cycle // window_cycles``
and the spent-table is cleared whenever the epoch advances, so the
scheme is fast-forward-safe — jumping ten windows of idle cycles needs
no per-window bookkeeping.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from ..sim.config import SystemConfig
from .controller import CommandEngine, PagePolicy
from .device import SdramDevice
from .request import MemoryRequest
from .scheduler import Scheduler
from .timing import DramTiming

#: Regulation window length, cycles.
REG_WINDOW_CYCLES = 256

#: Beats each (master, bank) pair may move per window.  At 2 beats per
#: cycle a window carries 512 beats of raw bus capacity; 64 per pair
#: caps any one master at an eighth of it on any one bank, while leaving
#: well-spread traffic unthrottled.
REG_BUDGET_BEATS = 64

#: Per-master FIFO depth.
REG_QUEUE_CAPACITY = 8


class BankRegulatedScheduler(Scheduler):
    """Round-robin release gated by per-(master, bank) beat budgets."""

    def __init__(
        self,
        device: SdramDevice,
        timing: DramTiming,
        window_cycles: int = REG_WINDOW_CYCLES,
        budget_beats: int = REG_BUDGET_BEATS,
        queue_capacity: int = REG_QUEUE_CAPACITY,
        tracer=None,
    ) -> None:
        if window_cycles <= 0:
            raise ValueError("window_cycles must be positive")
        if budget_beats <= 0:
            raise ValueError("budget_beats must be positive")
        if queue_capacity <= 0:
            raise ValueError("queue_capacity must be positive")
        super().__init__(device, CommandEngine(
            device,
            burst_beats=8,
            page_policy=PagePolicy.OPEN_PAGE,
            window=4,
            tracer=tracer,
        ))
        self.timing = timing
        self.window_cycles = window_cycles
        self.budget_beats = budget_beats
        self.queue_capacity = queue_capacity
        self.queues: Dict[int, Deque[MemoryRequest]] = {}
        #: round-robin order over masters (first-seen order).
        self.order: List[int] = []
        self._rr_offset = 0
        #: beats charged in the current window, keyed by (master, bank).
        self.spent: Dict[Tuple[int, int], int] = {}
        self._epoch = 0
        self.releases = 0
        #: Requests whose release the budget held back, each counted once
        #: however often it was polled, so the count does not depend on
        #: the dispatch tier.
        self.throttled_releases = 0
        #: master -> id of its head request last counted as throttled.
        self._throttled: Dict[int, int] = {}

    # --- request admission ------------------------------------------- #

    def can_accept(self, request: MemoryRequest) -> bool:
        queue = self.queues.get(request.master)
        return queue is None or len(queue) < self.queue_capacity

    def _push(self, request: MemoryRequest) -> None:
        queue = self.queues.get(request.master)
        if queue is None:
            queue = self.queues[request.master] = deque()
            self.order.append(request.master)
        if len(queue) >= self.queue_capacity:
            raise RuntimeError("regulator master queue full")
        queue.append(request)

    # --- per-cycle command selection --------------------------------- #

    def _refill(self, cycle: int) -> None:
        epoch = cycle // self.window_cycles
        if epoch != self._epoch:
            self._epoch = epoch
            self.spent.clear()

    def _within_budget(self, request: MemoryRequest) -> bool:
        """A fresh budget always admits at least one request (even one
        larger than the whole budget — it then overdraws and blocks the
        pair for the rest of the window), so every head is guaranteed to
        release by the next window boundary: no starvation."""
        key = (request.master, request.bank)
        spent = self.spent.get(key, 0)
        return spent == 0 or spent + request.beats <= self.budget_beats

    def tick(self, cycle: int) -> None:
        self._refill(cycle)
        while self.engine.has_space:
            released = self._release()
            if released is None:
                break
            self.queued -= 1
            self.engine.accept(released, cycle)
        self.engine.tick(cycle)

    def _release(self) -> Optional[MemoryRequest]:
        """Next head request within budget, round-robin over masters.
        A budget-blocked head stalls only its own master; the scan keeps
        going, so one master's storm cannot dam the others."""
        order = self.order
        count = len(order)
        for step in range(count):
            master = order[(self._rr_offset + step) % count]
            queue = self.queues[master]
            if not queue:
                continue
            head = queue[0]
            if not self._within_budget(head):
                if self._throttled.get(master) != head.request_id:
                    self._throttled[master] = head.request_id
                    self.throttled_releases += 1
                continue
            queue.popleft()
            key = (head.master, head.bank)
            self.spent[key] = self.spent.get(key, 0) + head.beats
            self.releases += 1
            self._rr_offset = (self._rr_offset + step + 1) % count
            return head
        return None

    # --- event contract ---------------------------------------------- #

    def _releasable(self, cycle: int) -> bool:
        self._refill(cycle)
        return any(
            queue and self._within_budget(queue[0])
            for queue in self.queues.values()
        )

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """Queued heads that cannot release now wake at the next window
        boundary at the latest (the only instant an over-budget head's
        budget can change); the rest is the base rule."""
        engine = self.engine
        if not self.queued or engine.finished:
            return super().next_event_cycle(cycle)
        if engine.has_space and self._releasable(cycle):
            return cycle + 1
        boundary = (cycle // self.window_cycles + 1) * self.window_cycles
        nxt = engine.next_event_cycle(cycle)
        return boundary if nxt is None or boundary < nxt else nxt

    # --- stats surface ----------------------------------------------- #

    def scheduler_stats(self) -> Dict[str, float]:
        stats = super().scheduler_stats()
        stats["releases"] = float(self.releases)
        stats["throttled_releases"] = float(self.throttled_releases)
        stats["masters"] = float(len(self.queues))
        stats["demand_precharges"] = float(self.engine.demand_precharges)
        return stats


def build_bankreg_backend(
    config: SystemConfig,
    device: SdramDevice,
    timing: DramTiming,
    tracer=None,
) -> BankRegulatedScheduler:
    return BankRegulatedScheduler(device, timing, tracer=tracer)
