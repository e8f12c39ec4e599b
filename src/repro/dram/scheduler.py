"""The memory-arbiter seam: one ``Scheduler`` protocol, many backends.

Every memory subsystem in the repo — the paper's thin Fig. 6 controller,
the MemMax/Databahn CONV pipeline, and the newer arbiters from the
related work (the Dynamic Priority Queue of Shah/Raabe/Knoll,
arXiv 1207.1187, and the per-bank bandwidth regulator of Sullivan et
al., arXiv 2603.26054) — presents the same surface to the memory-side
network interface:

* **request admission** — ``can_accept`` / ``enqueue`` with backpressure,
  under the admission contract stated on :class:`Scheduler`;
* **per-cycle command selection** — ``tick`` issues at most one SDRAM
  command per cycle and ``drain_finished`` reports requests whose final
  data beat has a known bus cycle;
* **bank-state queries** — ``open_rows`` exposes the per-bank open row
  (or ``None``) so observers never reach into backend internals;
* **stats surface** — ``scheduler_stats`` (flat counters for the metrics
  registry), the always-on ``service_latency`` series (admission →
  final data beat, the latency an arbiter actually controls), and
  ``latency_bound`` (the analytic worst-case access latency for
  backends that have one; ``None`` otherwise).

Backends self-register in :data:`SCHEDULER_BACKENDS` under a short name
(``engine``, ``memmax``, ``databahn``, ``dpq``, ``bank-reg``); the
``arbiter`` field of :class:`~repro.sim.config.SystemConfig` selects one
by name (validated at config-construction time), and ``None`` — the
default — keeps the paper's design-matched choice, bit-identical to the
pre-seam code path.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

from ..sim.stats import LatencySeries
from .request import MemoryRequest


@runtime_checkable
class Scheduler(Protocol):
    """What the memory-side NI (and every harness) may rely on.

    Admission contract: ``can_accept`` changes only through ``enqueue``
    and ``tick`` — never through the passage of time alone — and
    ``next_event_cycle(cycle)`` is a conservative-early bound on the next
    ``tick`` that can change any state (``None`` = only an ``enqueue``
    can).  The memory NI relies on both to sleep while its sink head is
    refused: room can appear only inside a ``tick`` that bound covers.
    """

    # --- request admission ------------------------------------------- #
    def can_accept(self, request: MemoryRequest) -> bool: ...
    def enqueue(self, request: MemoryRequest, cycle: int) -> None: ...

    # --- per-cycle command selection --------------------------------- #
    def tick(self, cycle: int) -> None: ...
    def drain_finished(self) -> list: ...

    # --- occupancy / idle-skip contract ------------------------------ #
    @property
    def pending(self) -> int: ...
    @property
    def idle(self) -> bool: ...
    @property
    def quiescent(self) -> bool: ...
    def next_event_cycle(self, cycle: int) -> Optional[int]: ...
    def on_cycles_skipped(self, start: int, stop: int) -> None: ...

    # --- bank-state queries ------------------------------------------ #
    def open_rows(self) -> Dict[int, Optional[int]]: ...

    # --- stats surface ----------------------------------------------- #
    def scheduler_stats(self) -> Dict[str, float]: ...
    def latency_bound(self) -> Optional[int]: ...


#: Every member a backend must expose (the conformance checklist the
#: tests walk; ``runtime_checkable`` isinstance only verifies presence).
SCHEDULER_MEMBERS: Tuple[str, ...] = (
    "can_accept", "enqueue", "tick", "drain_finished",
    "pending", "idle", "quiescent",
    "next_event_cycle", "on_cycles_skipped",
    "open_rows", "scheduler_stats", "latency_bound",
    "service_latency", "refresh", "device",
)


class SchedulerSeam:
    """Shared plumbing for every backend: the service-latency series and
    the bank-state query.

    *Service latency* is measured from admission (``enqueue``) to the
    request's final data beat — the span the memory arbiter actually
    controls, excluding NoC transit.  It is recorded unconditionally
    (count/total/min/max are O(1) per request, no samples kept) so the
    WCET column's measured p100 is always available, and it is the
    quantity the DPQ analytic bound is checked against.
    """

    device = None  # set by the concrete backend

    def _init_seam(self) -> None:
        self.service_latency = LatencySeries()
        self._admitted_at: Dict[int, int] = {}

    # --- admission / completion accounting --------------------------- #

    def _note_admitted(self, request: MemoryRequest, cycle: int) -> None:
        self._admitted_at[request.request_id] = cycle

    def _note_finished(self, finished) -> None:
        admitted = self._admitted_at
        for item in finished:
            start = admitted.pop(item.request.request_id, None)
            if start is not None:
                self.service_latency.record(item.data_ready_cycle - start)

    # --- bank-state queries ------------------------------------------ #

    def open_rows(self) -> Dict[int, Optional[int]]:
        """Per-bank open row (``None`` = precharged/idle).  Read-only:
        pending auto-precharge windows are reported as still open, which
        is what the command choosers see too."""
        return {
            bank.index: (bank.open_row if bank.is_active else None)
            for bank in self.device.banks
        }

    # --- stats surface defaults -------------------------------------- #

    def latency_bound(self) -> Optional[int]:
        """Analytic worst-case service latency, when the backend has one."""
        return None

    def _seam_stats(self) -> Dict[str, float]:
        series = self.service_latency
        stats: Dict[str, float] = {
            "service.count": float(series.count),
            "service.mean": series.mean,
            "service.p100": series.p100,
        }
        bound = self.latency_bound()
        if bound is not None:
            stats["service.bound"] = float(bound)
        return stats


# --------------------------------------------------------------------- #
# Backend registry
# --------------------------------------------------------------------- #

#: name -> factory(config, device, timing, tracer) -> Scheduler.
SCHEDULER_BACKENDS: Dict[str, Callable] = {}

#: The backends that ship with the repo (import side effect registers
#: them; anything user-registered on top is also honoured).
_BUILTIN_MODULES = (
    "repro.dram.subsystem",   # engine / memmax / databahn
    "repro.dram.dpq",         # dynamic priority queue
    "repro.dram.bankreg",     # per-bank bandwidth regulation
)


def register_scheduler(name: str):
    """Decorator registering a backend factory under ``name`` (last wins).

    A factory is called as ``factory(config, device, timing, tracer)``
    and must return an object satisfying :class:`Scheduler`.
    """

    def register(factory):
        SCHEDULER_BACKENDS[name] = factory
        return factory

    return register


def _load_builtin_backends() -> None:
    import importlib

    for module in _BUILTIN_MODULES:
        importlib.import_module(module)


def registered_backends() -> List[str]:
    """Names of every registered backend, builtin ones guaranteed loaded."""
    _load_builtin_backends()
    return sorted(SCHEDULER_BACKENDS)


def resolve_backend(name: str) -> Callable:
    """The factory for ``name``; raises ``KeyError`` listing what exists.

    Misspellings normally never reach this point: the ``arbiter`` field
    is validated against :func:`registered_backends` when the
    :class:`~repro.sim.config.SystemConfig` is constructed.
    """
    _load_builtin_backends()
    try:
        return SCHEDULER_BACKENDS[name]
    except KeyError:
        raise KeyError(
            f"unknown memory-arbiter backend {name!r}; "
            f"registered: {registered_backends()}"
        ) from None
