"""Request trace capture and replay.

Wrapping a traffic generator in a :class:`TraceRecorder` captures every
issued request; a :class:`TraceReplayer` re-issues a captured trace
verbatim.  This gives bit-identical workloads across NoC designs when a
comparison must isolate scheduling effects from generator feedback (the
closed-loop generators otherwise adapt their issue times to completion
times), and is what the determinism tests build on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..dram.request import MemoryRequest, ServiceClass


@dataclass(frozen=True)
class TraceEntry:
    cycle: int
    request: MemoryRequest


class TraceRecorder:
    """TrafficGenerator decorator that logs every issued request."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.master = inner.master
        self.entries: List[TraceEntry] = []

    def generate(self, cycle: int) -> List[MemoryRequest]:
        requests = self.inner.generate(cycle)
        for request in requests:
            self.entries.append(TraceEntry(cycle, _copy_request(request)))
        return requests

    def on_complete(self, request_id: int, cycle: int) -> None:
        self.inner.on_complete(request_id, cycle)

    @property
    def next_issue_cycle(self) -> Optional[int]:
        # Deliberately raises AttributeError when the wrapped generator is
        # not schedulable, so hasattr() sees the recorder the same way it
        # would see the inner generator.
        return self.inner.next_issue_cycle

    @property
    def issue_blocked(self) -> bool:
        # Same delegation contract as next_issue_cycle: AttributeError
        # propagates, and the NI's getattr() default treats it as False.
        return self.inner.issue_blocked


class TraceReplayer:
    """TrafficGenerator that replays a recorded trace open-loop.

    Requests are issued at (or after) their recorded cycles, gated by
    ``max_outstanding`` so replay still exerts backpressure.
    """

    def __init__(
        self,
        master: int,
        entries: List[TraceEntry],
        max_outstanding: Optional[int] = None,
    ) -> None:
        self.master = master
        self.entries = sorted(entries, key=lambda e: e.cycle)
        self.max_outstanding = max_outstanding
        self._cursor = 0
        self._outstanding = 0

    def generate(self, cycle: int) -> List[MemoryRequest]:
        issued: List[MemoryRequest] = []
        while self._cursor < len(self.entries):
            entry = self.entries[self._cursor]
            if entry.cycle > cycle:
                break
            if (
                self.max_outstanding is not None
                and self._outstanding >= self.max_outstanding
            ):
                break
            issued.append(_copy_request(entry.request))
            self._cursor += 1
            self._outstanding += 1
            break  # at most one request per cycle, like the live generators
        return issued

    def on_complete(self, request_id: int, cycle: int) -> None:
        self._outstanding = max(0, self._outstanding - 1)

    @property
    def exhausted(self) -> bool:
        return self._cursor >= len(self.entries)

    @property
    def next_issue_cycle(self) -> Optional[int]:
        """Next recorded issue cycle; ``None`` once the trace is drained
        (the replayer never wakes again on its own)."""
        if self._cursor >= len(self.entries):
            return None
        return self.entries[self._cursor].cycle

    @property
    def issue_blocked(self) -> bool:
        """At the outstanding cap: generate() no-ops until a completion
        arrives, so an event-dispatched NI need not poll the trace."""
        return (
            self.max_outstanding is not None
            and self._outstanding >= self.max_outstanding
        )


def _copy_request(request: MemoryRequest) -> MemoryRequest:
    return MemoryRequest(
        request_id=request.request_id,
        master=request.master,
        bank=request.bank,
        row=request.row,
        column=request.column,
        beats=request.beats,
        is_read=request.is_read,
        service=request.service,
        is_demand=request.is_demand,
        issued_cycle=request.issued_cycle,
        parent_id=request.parent_id,
        split_index=request.split_index,
        split_count=request.split_count,
        ap_tag=request.ap_tag,
    )


# ---------------------------------------------------------------------- #
# Trace persistence (JSON)
# ---------------------------------------------------------------------- #


def _entry_to_dict(entry: TraceEntry) -> Dict:
    request = entry.request
    return {
        "cycle": entry.cycle,
        "id": request.request_id,
        "master": request.master,
        "bank": request.bank,
        "row": request.row,
        "column": request.column,
        "beats": request.beats,
        "read": request.is_read,
        "priority": request.is_priority,
        "demand": request.is_demand,
    }


def _entry_from_dict(raw: Dict) -> TraceEntry:
    request = MemoryRequest(
        request_id=raw["id"],
        master=raw["master"],
        bank=raw["bank"],
        row=raw["row"],
        column=raw["column"],
        beats=raw["beats"],
        is_read=raw["read"],
        service=(
            ServiceClass.PRIORITY if raw.get("priority")
            else ServiceClass.BEST_EFFORT
        ),
        is_demand=raw.get("demand", False),
    )
    return TraceEntry(cycle=raw["cycle"], request=request)


def save_traces(
    traces: Dict[int, List[TraceEntry]], path: Union[str, Path]
) -> None:
    """Write per-master traces to a JSON file."""
    payload = {
        str(master): [_entry_to_dict(entry) for entry in entries]
        for master, entries in traces.items()
    }
    Path(path).write_text(json.dumps(payload, indent=1))


def load_traces(path: Union[str, Path]) -> Dict[int, List[TraceEntry]]:
    """Read per-master traces from a JSON file written by save_traces."""
    payload = json.loads(Path(path).read_text())
    return {
        int(master): [_entry_from_dict(raw) for raw in entries]
        for master, entries in payload.items()
    }


# ---------------------------------------------------------------------- #
# System-level capture / replay
# ---------------------------------------------------------------------- #


def record_system(system) -> Dict[int, TraceRecorder]:
    """Wrap every core of a built system in a TraceRecorder (before run)."""
    recorders: Dict[int, TraceRecorder] = {}
    for interface, core in zip(system.core_interfaces, system.cores):
        recorder = TraceRecorder(core)
        interface.generator = recorder
        recorders[core.master] = recorder
    return recorders


def replay_into_system(
    system, traces: Dict[int, List[TraceEntry]], max_outstanding: int = 8
) -> None:
    """Replace every core's generator with a replayer of ``traces``.

    Feeding the same request stream to different NoC designs isolates
    scheduling effects from the closed-loop feedback of the live
    generators; two golden-identity tests replay scripted traffic this
    way to compare event and naive dispatch on one request stream.
    """
    for interface, core in zip(system.core_interfaces, system.cores):
        entries = traces.get(core.master, [])
        interface.generator = TraceReplayer(
            core.master, entries, max_outstanding=max_outstanding
        )
