"""Event tracers: the zero-overhead null default and the in-memory recorder.

Every instrumented component holds a ``tracer`` attribute and guards each
emission with a plain truthiness test::

    tracer = self.tracer
    if tracer:
        tracer.emit(EventType.HOP, cycle, self._label, packet_id=...)

:class:`NullTracer` is *falsy* (as is ``None``), so a site skips it: no
``emit`` call, no string formatting, no event construction.  Testing
``None`` is free, but testing a ``NullTracer`` calls its Python-level
``__bool__`` once per site visited, so
:class:`~repro.core.system.SocSystem` stores a falsy tracer as ``None``.
:class:`MemoryTracer` is truthy and records
:class:`~repro.obs.events.TraceEvent` objects for the exporters.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional

from .events import EventType, TraceEvent


class Tracer:
    """Tracer interface (see module docstring for the emission contract)."""

    def __bool__(self) -> bool:
        # Explicit so subclasses defining __len__ (like MemoryTracer when
        # empty) stay truthy: "is there a tracer" must not depend on
        # whether it has recorded anything yet.
        return True

    def emit(
        self,
        type: EventType,
        cycle: int,
        component: str,
        packet_id: Optional[int] = None,
        request_id: Optional[int] = None,
        **args: Any,
    ) -> None:
        raise NotImplementedError


class NullTracer(Tracer):
    """Discards everything; falsy so emission sites skip it entirely."""

    def __bool__(self) -> bool:
        return False

    def emit(self, *event_args: Any, **event_kwargs: Any) -> None:
        return None


#: Shared default instance — NullTracer is stateless.
NULL_TRACER = NullTracer()


class MemoryTracer(Tracer):
    """Records events in memory, optionally bounded.

    ``limit`` caps the number of stored events (oldest kept); overflow is
    counted in :attr:`dropped` instead of silently discarded, so a
    truncated trace is detectable.
    """

    def __init__(self, limit: Optional[int] = None) -> None:
        if limit is not None and limit <= 0:
            raise ValueError("limit must be positive")
        self.limit = limit
        self.events: List[TraceEvent] = []
        self.dropped = 0

    def emit(
        self,
        type: EventType,
        cycle: int,
        component: str,
        packet_id: Optional[int] = None,
        request_id: Optional[int] = None,
        **args: Any,
    ) -> None:
        if self.limit is not None and len(self.events) >= self.limit:
            self.dropped += 1
            return
        self.events.append(
            TraceEvent(type, cycle, component, packet_id, request_id,
                       args or None)
        )

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def of_type(self, type: EventType) -> List[TraceEvent]:
        return [event for event in self.events if event.type is type]

    def counts(self) -> Dict[str, int]:
        """Event count per type name (diagnostic summary)."""
        totals: Dict[str, int] = {}
        for event in self.events:
            name = event.type.value
            totals[name] = totals.get(name, 0) + 1
        return totals
