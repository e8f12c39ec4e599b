"""The memory-arbiter seam: one ``Scheduler`` base class, many backends.

Every memory subsystem in the repo — the paper's thin Fig. 6 controller,
the MemMax/Databahn CONV pipeline, and the newer arbiters from the
related work (the Dynamic Priority Queue of Shah/Raabe/Knoll,
arXiv 1207.1187, and the per-bank bandwidth regulator of Sullivan et
al., arXiv 2603.26054) — is a front-end policy feeding one
:class:`~repro.dram.controller.CommandEngine` over one
:class:`~repro.dram.device.SdramDevice`.  :class:`Scheduler` owns that
plumbing; a backend supplies only its front-end:

* ``can_accept(request)`` — backpressure, under the admission contract
  stated on :class:`Scheduler`;
* ``_push(request)`` — take an admitted request into the front-end,
  raising ``RuntimeError`` when it is full;
* ``tick(cycle)`` — hand front-end requests to the engine while its
  window has space (decrementing ``queued`` for each), then tick the
  engine: at most one SDRAM command per cycle.

:data:`repro.dram.subsystem.BACKENDS` names the five backends
(``engine``, ``memmax``, ``databahn``, ``dpq``, ``bank-reg``); the
``arbiter`` field of :class:`~repro.sim.config.SystemConfig` selects one
by name (validated at config-construction time), and ``None`` — the
default — keeps the paper's design-matched choice.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..sim.stats import LatencySeries
from .controller import CommandEngine, FinishedRequest
from .device import SdramDevice
from .request import MemoryRequest


class Scheduler:
    """A memory-arbiter backend: front-end policy over a command engine.

    Admission contract: ``can_accept`` changes only through ``enqueue``
    and ``tick`` — never through the passage of time alone — and
    ``next_event_cycle(cycle)`` is never later than the next ``tick``
    that can change any state (``None`` = only an ``enqueue`` can).  The
    engine's part of it is exact; a front-end may wake early (``bank-reg``
    at its window boundary).  The memory NI relies on both to sleep while
    its sink head is refused: room can appear only inside a ``tick`` that
    bound covers.

    *Service latency* is measured from admission (``enqueue``) to the
    request's final data beat — the span the memory arbiter actually
    controls, excluding NoC transit.  It is recorded unconditionally
    (count/total/min/max are O(1) per request, no samples kept) so the
    WCET column's measured p100 is always available, and it is the
    quantity the DPQ analytic bound is checked against.
    """

    def __init__(self, device: SdramDevice, engine: CommandEngine) -> None:
        self.device = device
        self.engine = engine
        #: Requests the front-end holds: admitted, not yet in the engine.
        self.queued = 0
        self.accepted = 0
        self.service_latency = LatencySeries()
        self._admitted_at: Dict[int, int] = {}

    # --- supplied by the backend ------------------------------------- #

    def can_accept(self, request: MemoryRequest) -> bool:
        raise NotImplementedError

    def _push(self, request: MemoryRequest) -> None:
        raise NotImplementedError

    def tick(self, cycle: int) -> None:
        raise NotImplementedError

    # --- request admission and completion ---------------------------- #

    def enqueue(self, request: MemoryRequest, cycle: int) -> None:
        self._push(request)
        self.accepted += 1
        self.queued += 1
        self._admitted_at[request.request_id] = cycle

    def drain_finished(self) -> List[FinishedRequest]:
        engine = self.engine
        if not engine.finished:
            return engine.finished
        done = engine.drain_finished()
        self._record_service(done)
        return done

    def _record_service(self, finished: List[FinishedRequest]) -> None:
        admitted = self._admitted_at
        for item in finished:
            start = admitted.pop(item.request.request_id, None)
            if start is not None:
                self.service_latency.record(item.data_ready_cycle - start)

    # --- occupancy / event contract ---------------------------------- #

    @property
    def pending(self) -> int:
        return self.queued + self.engine.pending

    @property
    def idle(self) -> bool:
        """Nothing queued, nothing in the engine window, nothing awaiting
        drain: :meth:`tick` can only run a due refresh."""
        engine = self.engine
        return not (self.queued or engine.entries or engine.finished)

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """Event-dispatch: next cycle :meth:`tick` could do real work.
        Finished requests, or queued ones with window space, are due next
        cycle; otherwise the engine's own bound (SDRAM timing and
        refresh) decides, so the controller sleeps through stalls."""
        engine = self.engine
        if engine.finished or (self.queued and engine.has_space):
            return cycle + 1
        return engine.next_event_cycle(cycle)

    # --- stats surface ----------------------------------------------- #

    def latency_bound(self) -> Optional[int]:
        """Analytic worst-case service latency, when the backend has one."""
        return None

    def scheduler_stats(self) -> Dict[str, float]:
        """Flat counters for the metrics registry; backends add theirs."""
        series = self.service_latency
        stats: Dict[str, float] = {
            "service.count": float(series.count),
            "service.mean": series.mean,
            "service.p100": series.p100,
        }
        bound = self.latency_bound()
        if bound is not None:
            stats["service.bound"] = float(bound)
        stats["accepted"] = float(self.accepted)
        return stats
