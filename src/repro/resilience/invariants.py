"""Live structural invariants, checked while the system runs.

The :class:`InvariantChecker` is a simulator component, registered last
and armed at every check stride, that audits the end-of-cycle state of
the whole fabric:

* **credit conservation** — every input buffer's flit occupancy is
  within its capacity and every entry's ``sent``/``received`` counters
  are mutually consistent (a violated credit loop is how a wormhole
  fabric corrupts itself silently);
* **token conservation** — every packet a GSS token table tracks is
  actually resident in that router, every resident, registered
  memory-request packet is tracked by the controller of its route, and
  all token counts stay within Algorithm 1's ``1..MAX_TOKENS`` band;
* **packet-age bound** — no resident packet is older than
  ``max_packet_age`` cycles: the livelock/deadlock detector.  When a
  recording tracer is attached, the raised
  :class:`InvariantViolation` carries the offending packet's lifecycle
  trail (via :mod:`repro.obs`) so the stall is debuggable post mortem.

Packets that arrived in the current cycle sit in a buffer's pending
registration list until the next plan phase; the token checks treat them
as exempt rather than flagging the one-cycle registration latency.
"""

from __future__ import annotations

from typing import List, Optional, Set

from ..core.tokens import MAX_TOKENS


class InvariantViolation(AssertionError):
    """A structural invariant failed at the end of a cycle."""

    def __init__(self, kind: str, cycle: int, detail: str) -> None:
        super().__init__(f"[{kind} @cycle {cycle}] {detail}")
        self.kind = kind
        self.cycle = cycle
        self.detail = detail


#: Events included in a violation's lifecycle dump.
_DUMP_EVENTS = 20


class InvariantChecker:
    """End-of-cycle auditor for buffers, token tables, and packet age."""

    def __init__(
        self,
        network,
        max_packet_age: int = 16384,
        interval: int = 64,
        tracer=None,
    ) -> None:
        if interval < 1:
            raise ValueError("interval must be >= 1")
        if max_packet_age < 1:
            raise ValueError("max_packet_age must be >= 1")
        self.network = network
        self.max_packet_age = max_packet_age
        self.interval = interval
        self.tracer = tracer
        self.checks_run = 0

    def attach(self, simulator) -> None:
        """Register as the simulator's latest component: every component
        due a cycle ticks before the checker does, so each audit sees
        end-of-cycle state."""
        simulator.add(self)

    def tick(self, cycle: int) -> None:
        # Through the instance, so a class-level wrapper of on_cycle (the
        # per-layer span in bench/trace.py) sees every call.
        self.on_cycle(cycle)

    def event_wake_at(self, cycle: int) -> int:
        """Self-arm at the next check stride (the watchdog's pattern)."""
        return cycle + self.interval - cycle % self.interval

    def on_cycle(self, cycle: int) -> None:
        if cycle % self.interval != 0:
            return
        self.check(cycle)

    # ------------------------------------------------------------------ #

    def check(self, cycle: int) -> None:
        """Audit the fabric now; raise :class:`InvariantViolation`."""
        self.checks_run += 1
        for router in self.network.routers:
            self._check_buffers(cycle, router)
            self._check_tokens(cycle, router)
        for node, sink in self.network.local_sinks.items():
            self._check_buffer(cycle, f"sink{node}", sink)

    # ------------------------------------------------------------------ #
    # Credit conservation
    # ------------------------------------------------------------------ #

    def _check_buffers(self, cycle: int, router) -> None:
        for port, lanes in router.inputs.items():
            for lane, buffer in enumerate(lanes):
                self._check_buffer(
                    cycle, f"router{router.node}.{port.name}[{lane}]", buffer
                )

    def _check_buffer(self, cycle: int, where: str, buffer) -> None:
        occupancy = buffer.occupancy_flits
        if not 0 <= occupancy <= buffer.capacity_flits:
            raise InvariantViolation(
                "credit",
                cycle,
                f"{where}: occupancy {occupancy} outside "
                f"[0, {buffer.capacity_flits}]",
            )
        if buffer._reserved_slots < 0:
            raise InvariantViolation(
                "credit", cycle, f"{where}: negative reserved slots"
            )
        for entry in buffer.entries:
            packet = entry.packet
            if not 0 <= entry.sent <= entry.received <= packet.size_flits:
                raise InvariantViolation(
                    "credit",
                    cycle,
                    f"{where}: {packet} counters sent={entry.sent} "
                    f"received={entry.received} size={packet.size_flits}",
                )
            age = cycle - packet.created_cycle
            if age > self.max_packet_age:
                raise InvariantViolation(
                    "packet-age",
                    cycle,
                    f"{where}: {packet} resident for {age} cycles "
                    f"(bound {self.max_packet_age}) — livelock or deadlock"
                    + self._lifecycle_dump(packet),
                )

    # ------------------------------------------------------------------ #
    # Token conservation
    # ------------------------------------------------------------------ #

    def _check_tokens(self, cycle: int, router) -> None:
        resident: Set[int] = set()
        arriving: Set[int] = set()
        unclaimed: List = []
        for lanes in router.inputs.values():
            for buffer in lanes:
                for packet in buffer._arrivals:
                    arriving.add(packet.packet_id)
                for entry in buffer.entries:
                    resident.add(entry.packet.packet_id)
                    if not entry.claimed:
                        unclaimed.append(entry.packet)
        for port, output in router.outputs.items():
            controller = output.controller
            tracked = controller.tracked_packet_ids()
            if tracked is None:
                continue
            # Tracked => resident: a scheduled or delivered packet must
            # have left the table; a tracked ghost would age forever.
            ghosts = tracked - resident
            if ghosts:
                raise InvariantViolation(
                    "token",
                    cycle,
                    f"router{router.node}.{port.name}: controller tracks "
                    f"packets {sorted(ghosts)} not resident in any input "
                    f"buffer",
                )
            for tokens, packet in controller.token_counts():
                if not 1 <= tokens <= MAX_TOKENS:
                    raise InvariantViolation(
                        "token",
                        cycle,
                        f"router{router.node}.{port.name}: {packet} holds "
                        f"{tokens} tokens outside [1, {MAX_TOKENS}]",
                    )
        # Registered => tracked: every resident, unclaimed memory-request
        # packet must be in the token table of each admissible output
        # (packets still awaiting registration are exempt).
        for packet in unclaimed:
            if not packet.is_memory_request or packet.packet_id in arriving:
                continue
            for port in router._routes(packet):
                controller = router.outputs[port].controller
                tracked = controller.tracked_packet_ids()
                if tracked is not None and packet.packet_id not in tracked:
                    raise InvariantViolation(
                        "token",
                        cycle,
                        f"router{router.node}.{port.name}: resident "
                        f"{packet} is not tracked by its flow controller",
                    )

    # ------------------------------------------------------------------ #

    def _lifecycle_dump(self, packet) -> str:
        tracer = self.tracer
        events = getattr(tracer, "events", None)
        if not events:
            return ""
        request = packet.request
        request_id = request.request_id if request is not None else None
        trail = [
            event
            for event in events
            if event.packet_id == packet.packet_id
            or (request_id is not None and event.request_id == request_id)
        ][-_DUMP_EVENTS:]
        if not trail:
            return ""
        lines = "\n  ".join(repr(event) for event in trail)
        return f"\nlifecycle trail (last {len(trail)} events):\n  {lines}"
