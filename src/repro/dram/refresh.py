"""SDRAM refresh support.

The paper (like most NoC-memory co-design studies) ignores refresh — at
the evaluated clocks an all-bank auto-refresh costs well under 1 % of
cycles — but a production controller must issue one REF every tREFI
(7.8 us) and stall tRFC while it completes.  This module provides an
opt-in :class:`RefreshTimer` the command engine consults: when a refresh
is due, the engine precharges all banks, idles until the device is quiet,
issues the refresh, and resumes.

Enabling refresh perturbs every design identically, so the paper's
comparisons are unchanged; the ``benchmarks/test_ablations.py`` suite
verifies the overhead stays marginal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .timing import DramTiming

#: JEDEC refresh interval and all-bank refresh cycle time (DDR2/3-class).
T_REFI_NS = 7_800.0
T_RFC_NS = 127.5


@dataclass
class RefreshTimer:
    """Tracks when the next auto-refresh is due and when it completes."""

    timing: DramTiming
    enabled: bool = True
    _next_due: int = 0
    _busy_until: int = -1
    refreshes_issued: int = 0

    def __post_init__(self) -> None:
        self.t_refi = max(1, math.ceil(T_REFI_NS * self.timing.clock_mhz / 1000.0))
        self.t_rfc = max(1, math.ceil(T_RFC_NS * self.timing.clock_mhz / 1000.0))
        self._next_due = self.t_refi

    def due(self, cycle: int) -> bool:
        return self.enabled and cycle >= self._next_due

    @property
    def next_due_cycle(self) -> int:
        """Cycle the next refresh becomes due (a simulator wake target)."""
        return self._next_due

    def in_progress(self, cycle: int) -> bool:
        return cycle <= self._busy_until

    @property
    def busy_until(self) -> int:
        """Last cycle of the latest refresh (``-1`` before the first)."""
        return self._busy_until

    def start(self, cycle: int) -> int:
        """Begin an all-bank refresh; returns the cycle it completes."""
        if not self.enabled:
            raise RuntimeError("refresh disabled")
        self._busy_until = cycle + self.t_rfc
        self._next_due = cycle + self.t_refi
        self.refreshes_issued += 1
        return self._busy_until

    @property
    def overhead_fraction(self) -> float:
        """Steady-state fraction of cycles spent refreshing."""
        return self.t_rfc / self.t_refi if self.enabled else 0.0
