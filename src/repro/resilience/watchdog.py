"""Per-request watchdog: re-issue timed-out requests, then fail them.

The CRC/NACK and ECC re-read paths recover from every fault they can
*see*.  The watchdog is the backstop for everything they cannot: it
scans each core NI's outstanding (reassembly) trackers and, when a
request has made no progress — no part response accepted — for
``watchdog_timeout`` cycles, re-issues the whole request: the tracker's
retry epoch is bumped and every part packet is rebuilt and re-injected.
Responses still in flight from the previous issue carry the old epoch
and are dropped as stale at the core NI.  After
``watchdog_retry_limit`` re-issues the request is surfaced as *failed*
through the :class:`~repro.resilience.protection.ResilienceController`
instead of hanging the simulation.
"""

from __future__ import annotations

import logging
from typing import Callable, Dict, List, Optional

from .faults import FaultConfig
from .protection import ResilienceController

logger = logging.getLogger(__name__)

#: Tracker-scan stride in cycles: timeouts are detected within one
#: interval of expiring, a rounding the timeout knob dwarfs.
CHECK_INTERVAL = 64


class RequestWatchdog:
    """Simulator component; must tick *after* the core NIs."""

    def __init__(
        self,
        controller: ResilienceController,
        core_interfaces: List[object],
        config: FaultConfig,
    ) -> None:
        self.controller = controller
        self.core_interfaces = core_interfaces
        self.config = config
        self._reissues: Dict[int, int] = {}  # parent id -> re-issue count
        #: Post-mortem hook, called as ``on_hang(cycle, parent, master)``
        #: the moment a request exhausts its re-issue budget (a detected
        #: hang).  The CLI wires this to a checkpoint dump so the hung
        #: state can be inspected offline.  Never load-bearing: a raising
        #: hook is logged and swallowed, and the hook is process-local
        #: (dropped from snapshots — re-attach after restore).
        self.on_hang: Optional[Callable[[int, int, int], None]] = None

    def __getstate__(self):
        state = self.__dict__.copy()
        state["on_hang"] = None
        return state

    def event_wake_at(self, cycle: int) -> int:
        """Self-arm every scan stride: under event dispatch a core NI can
        sleep with reassembly outstanding (it is only woken by events), so
        the watchdog cannot rely on anyone else keeping time for its
        deadline checks — it ticks once per CHECK_INTERVAL regardless."""
        return cycle + CHECK_INTERVAL - (cycle % CHECK_INTERVAL)

    def tick(self, cycle: int) -> None:
        if cycle % CHECK_INTERVAL != 0:
            return
        timeout = self.config.watchdog_timeout
        for interface in self.core_interfaces:
            # Snapshot: re-issue/failure mutates the tracker dict.
            expired = [
                parent
                for parent, tracker in interface._reassembly.items()
                if cycle - tracker.last_activity > timeout
            ]
            for parent in expired:
                attempts = self._reissues.get(parent, 0)
                if attempts >= self.config.watchdog_retry_limit:
                    self.controller.fail_request(
                        cycle,
                        parent,
                        interface.generator.master,
                        reason="watchdog",
                    )
                    self._reissues.pop(parent, None)
                    if self.on_hang is not None:
                        try:
                            self.on_hang(
                                cycle, parent, interface.generator.master
                            )
                        except Exception:  # noqa: BLE001 - never load-bearing
                            logger.exception(
                                "watchdog on_hang hook failed "
                                "(request %d, cycle %d)", parent, cycle
                            )
                else:
                    self._reissues[parent] = attempts + 1
                    interface.reissue(parent, cycle)
                    self.controller.on_watchdog_reissue(
                        cycle, parent, interface.generator.master
                    )
