"""Shared factories for the test suite."""

from dataclasses import replace
from itertools import count

from repro.dram.request import MemoryRequest, ServiceClass

_ids = count(1)


def make_request(
    bank=0,
    row=0,
    column=0,
    beats=8,
    is_read=True,
    priority=False,
    demand=False,
    master=0,
    **kwargs,
):
    """Factory for MemoryRequests with sensible defaults."""
    return MemoryRequest(
        request_id=kwargs.pop("request_id", next(_ids)),
        master=master,
        bank=bank,
        row=row,
        column=column,
        beats=beats,
        is_read=is_read,
        service=ServiceClass.PRIORITY if priority else ServiceClass.BEST_EFFORT,
        is_demand=demand,
        **kwargs,
    )


class ScriptedTraffic:
    """Traffic generator issuing scripted ``(cycle, request)`` pairs.

    A request issues at or after its cycle, one per cycle, with at most
    ``max_outstanding`` in flight; each is copied before it issues, so
    the script can be replayed into another system.
    """

    def __init__(self, master, entries, max_outstanding):
        self.master = master
        self.entries = sorted(entries, key=lambda entry: entry[0])
        self.max_outstanding = max_outstanding
        self._cursor = 0
        self._outstanding = 0

    def generate(self, cycle):
        if self.issue_blocked or self._cursor >= len(self.entries):
            return []
        due, request = self.entries[self._cursor]
        if due > cycle:
            return []
        self._cursor += 1
        self._outstanding += 1
        return [replace(request)]

    def on_complete(self, request_id, cycle):
        self._outstanding -= 1

    @property
    def next_issue_cycle(self):
        if self._cursor >= len(self.entries):
            return None
        return self.entries[self._cursor][0]

    @property
    def issue_blocked(self):
        return self._outstanding >= self.max_outstanding


def script_traffic(system, traffic, max_outstanding):
    """Drive every core NI of ``system`` from ``traffic``, a mapping of
    master to ``(cycle, request)`` pairs."""
    for interface in system.core_interfaces:
        master = interface.generator.master
        interface.generator = ScriptedTraffic(
            master, traffic.get(master, []), max_outstanding
        )
