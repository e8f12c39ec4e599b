"""SDRAM refresh schedule.

The paper (like most NoC-memory co-design studies) ignores refresh — at
the evaluated clocks an all-bank auto-refresh costs well under 1 % of
cycles — but a production controller must issue one REF every tREFI
(7.8 us).  A :class:`RefreshTimer` is that schedule and nothing more.
Attached to a :class:`~repro.dram.controller.CommandEngine` (assign
``engine.refresh``; off by default), it makes the engine plan refresh
work once a refresh is due: a PRE for each open bank, then a REF
command.  The :class:`~repro.dram.device.SdramDevice` accepts the REF
only with every bank precharged and the data bus idle, and holds the
banks idle for tRFC (``DramTiming.t_rfc``) itself.

Enabling refresh perturbs every design identically, so the paper's
comparisons are unchanged; the ``benchmarks/test_ablations.py`` suite
verifies the overhead stays marginal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .timing import DramTiming

#: JEDEC refresh interval (DDR2/3-class).
T_REFI_NS = 7_800.0


@dataclass
class RefreshTimer:
    """When the next all-bank refresh is due: one every ``t_refi``
    cycles, counted from the last REF."""

    timing: DramTiming
    _next_due: int = 0
    refreshes_issued: int = 0

    def __post_init__(self) -> None:
        self.t_refi = max(1, math.ceil(T_REFI_NS * self.timing.clock_mhz / 1000.0))
        self._next_due = self.t_refi

    def due(self, cycle: int) -> bool:
        return cycle >= self._next_due

    @property
    def next_due_cycle(self) -> int:
        """Cycle the next refresh becomes due."""
        return self._next_due

    def issued(self, cycle: int) -> None:
        """A REF issued at ``cycle``: the next is due ``t_refi`` later."""
        self._next_due = cycle + self.t_refi
        self.refreshes_issued += 1
