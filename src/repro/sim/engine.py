"""Cycle-driven simulation kernel with event-driven dispatch.

The whole system (traffic generators, NoC routers, memory subsystem, SDRAM
device) advances in lockstep, one memory-clock cycle at a time.  Components
implement the :class:`Clocked` protocol and are registered with a
:class:`Simulator` in pipeline order (producers before consumers), which keeps
single-cycle forwarding deterministic without a two-phase commit.

Dispatch modes
--------------

1. **Event dispatch** (the default) — components are not polled: each one
   *arms* the calendar wake-queue with the next cycle it needs to run, and
   reactive components are woken by their upstream producers through wake
   handles.  Cycles on which nothing is armed are jumped over in one step.
2. **Naive stepping** (``idle_skip=False``, and every
   :meth:`Simulator.step` call) — tick everything every cycle.  This is
   the bit-exact reference the golden-identity suite compares event
   dispatch against.

Component contract
------------------

* ``tick(cycle)`` — the only required method.  A component without
  ``event_wake_at`` is re-armed for ``cycle + 1`` after every tick, so it
  is ticked every cycle under event dispatch too (test doubles and
  per-cycle observers rely on this).
* ``event_wake_at(cycle) -> Optional[int]`` (optional) — called right
  after every ``tick(cycle)``; returns the next cycle this component needs
  to tick *absent any external input* (``None`` = purely reactive until
  woken).  It is consulted while the component is busy, so it can express
  fine-grained stalls ("nothing until the DRAM bus frees at cycle N").
  Returning a cycle ``<= cycle`` re-arms for ``cycle + 1``.
* ``attach_wake(wake)`` (optional) — receives a wake handle the component
  (or its producers) may call whenever its inputs change:
  ``wake()`` arms the component as soon as the registration order allows —
  *this* cycle if the caller runs earlier in registration order than the
  target (the target has not been processed yet), the *next* cycle
  otherwise.  That reproduces exactly the visibility rule of ordered
  per-cycle stepping: an earlier-registered producer's output is seen the
  same cycle, a later-registered producer's the next cycle.
  ``wake(at)`` arms a specific future cycle (e.g. a scheduled deadline).
* Arming is conservative by construction: a spurious wake only runs a
  tick that naive stepping would have run as a state-gated no-op, so
  extra wakes are always bit-identical.  Only a *missed* wake can diverge
  — which is what the golden-identity and property suites hunt.
* A component is never told which cycles it was not ticked for.  A
  count of elapsed cycles (the SDRAM utilization denominator) reads
  :attr:`Simulator.cycle`, which advances over jumped cycles too.
* ``on_run_mode(event_dispatch)`` (optional) — notified at every
  :meth:`Simulator.run` entry whether event dispatch is active, so
  components can enable internal event-only shortcuts (e.g. router sleep
  states) only when the reference kernel is not in use.
* ``on_run_end(cycle)`` (optional) — called at every
  :meth:`Simulator.run` exit, even when the run raises.  This is how
  observation components — the telemetry sampler above all — flush
  partial state at run boundaries without the system layer having to
  know about them: the sampler is just another registered component,
  armed on the wake queue like everything else.

Serialization
-------------

A :class:`Simulator` pickles as an ordinary object graph.  Wake handles
are ``functools.partial(simulator._wake, index)``, so they pickle with
the system, and a restored system can run or be saved again at once.
Checkpoints (:mod:`repro.sim.checkpoint`) are taken at run boundaries:
``_event_run`` re-arms every component at run entry, so ``run(k);
run(N-k)`` is bit-identical to ``run(N)``, pickled in between or not.
"""

from __future__ import annotations

from bisect import insort
from functools import partial
from heapq import heappop, heappush
from typing import Callable, List, Optional, Protocol, runtime_checkable

#: Sentinel wake cycle for "not armed" (far past any simulated horizon).
_NEVER = 1 << 62


def _next_cycle(cycle: int) -> int:
    """``event_wake_at`` of a component that implements only ``tick``."""
    return cycle + 1


@runtime_checkable
class Clocked(Protocol):
    """Anything that advances by one clock cycle."""

    def tick(self, cycle: int) -> None:
        """Advance this component to the end of ``cycle``."""


class Simulator:
    """Fixed-order, cycle-driven simulator.

    Components are processed every cycle in registration order.
    Registration order therefore defines intra-cycle data-flow order: a
    component registered earlier can hand data to a later component within
    the same cycle, while the reverse incurs a one-cycle delay — exactly
    the behaviour of registered (flip-flop separated) hardware pipelines.
    The event-dispatch wake queue preserves that order: due components are
    run in registration order within each cycle, and a wake arriving
    mid-cycle lands in the current cycle only if its target has not been
    processed yet.
    """

    def __init__(self, idle_skip: bool = True) -> None:
        self._components: List[Clocked] = []
        self._cycle = 0
        #: Event dispatch when true; naive stepping (the reference) when
        #: false.
        self.idle_skip = idle_skip
        # Parallel to _components: bound contract methods.
        self._ticks: List[Callable[[int], None]] = []
        self._event_wakes: List[Callable[[int], Optional[int]]] = []
        self._mode_hooks: List[Callable[[bool], None]] = []
        self._run_ends: List[Callable[[int], None]] = []
        #: Armed wake cycle per component (_NEVER = not armed); the heap
        #: holds (cycle, index) entries validated lazily against it.
        self._armed: List[int] = []
        #: Per-component "already queued in the cycle being processed"
        #: flag: the heap may hold several entries for one component (one
        #: per re-arm), so collection dedups through this, not ``_armed``.
        self._queued = bytearray()
        self._heap: List = []
        #: Indices due in the cycle currently being processed (sorted);
        #: wake handles insort into it past the processing position.
        self._ready: List[int] = []
        self._now = -1        # cycle being processed (-1 = between cycles)
        self._progress = -1   # index being processed within _now
        self._event_live = False
        #: Cycles jumped by event dispatch (telemetry; counted in
        #: ``cycle``).
        self.fast_forwarded_cycles = 0
        #: Dispatch mode of the most recent run(): "event" or "naive"
        #: (introspection for tests and reports).
        self.last_dispatch_mode: Optional[str] = None

    @property
    def cycle(self) -> int:
        """Number of cycles simulated so far."""
        return self._cycle

    def add(self, component: Clocked) -> Clocked:
        """Register ``component`` and return it (for fluent wiring)."""
        tick = getattr(component, "tick", None)
        if not callable(tick):
            raise TypeError(f"{component!r} does not implement tick()")
        index = len(self._components)
        self._components.append(component)
        self._ticks.append(tick)
        event_wake = getattr(component, "event_wake_at", None)
        self._event_wakes.append(
            event_wake if callable(event_wake) else _next_cycle
        )
        self._armed.append(_NEVER)
        self._queued.append(0)
        attach = getattr(component, "attach_wake", None)
        if callable(attach):
            attach(partial(self._wake, index))
        mode_hook = getattr(component, "on_run_mode", None)
        if callable(mode_hook):
            self._mode_hooks.append(mode_hook)
        run_end = getattr(component, "on_run_end", None)
        if callable(run_end):
            self._run_ends.append(run_end)
        return component

    def add_all(self, components) -> None:
        """Register every component in ``components`` in iteration order."""
        for component in components:
            self.add(component)

    # ------------------------------------------------------------------ #
    # Wake handles
    # ------------------------------------------------------------------ #

    def _wake(self, index: int, at: Optional[int] = None) -> None:
        """Wake handle body for component ``index`` (each component gets
        ``partial(self._wake, index)``).

        ``wake()`` — arm as early as ordering allows (see module docs);
        ``wake(at)`` — arm at the future cycle ``at``.
        Handles are inert (cheap early return) outside event dispatch, so
        producer-side hook calls cost one branch under naive stepping.
        """
        if not self._event_live:
            return
        armed = self._armed
        now = self._now
        if now >= 0:
            if at is None or at <= now:
                if index > self._progress:
                    # Not yet processed this cycle: run it this cycle,
                    # exactly as ordered stepping would.
                    if not self._queued[index]:
                        self._queued[index] = 1
                        armed[index] = now
                        insort(self._ready, index)
                    return
                at = now + 1
        else:
            base = self._cycle
            if at is None or at < base:
                at = base
        if at < armed[index]:
            armed[index] = at
            heappush(self._heap, (at, index))

    # ------------------------------------------------------------------ #
    # Naive stepping
    # ------------------------------------------------------------------ #

    def step(self) -> int:
        """Advance the system by exactly one cycle, ticking every component
        in registration order; return the new cycle count."""
        cycle = self._cycle
        for tick in self._ticks:
            tick(cycle)
        self._cycle = cycle + 1
        return self._cycle

    # ------------------------------------------------------------------ #
    # Event dispatch
    # ------------------------------------------------------------------ #

    def _event_run(self, end: int, until) -> None:
        heap = self._heap
        armed = self._armed
        queued = self._queued
        ready = self._ready
        ticks = self._ticks
        event_wakes = self._event_wakes
        # Arm everything for the entry cycle: external state may have
        # changed between runs (drain flags, reconfiguration); the ticks
        # are state-gated no-ops when nothing did.  Queued flags are
        # cleared too, so a snapshot taken mid-cycle (the watchdog's
        # post-mortem dump) resumes like one taken between runs.
        queued[:] = bytes(len(queued))
        entry = self._cycle
        for index in range(len(ticks)):
            armed[index] = entry
            heappush(heap, (entry, index))
        # Post-tick re-arms for exactly the next cycle — the dominant case
        # while the system is busy — bypass the heap entirely: they land in
        # ``carry`` and are consumed at the very next iteration.
        carry: List[int] = []
        while self._cycle < end:
            if until is not None and until():
                break
            if carry:
                cycle = self._cycle
            else:
                # Next validly armed cycle (lazy deletion of stale
                # entries).
                while heap:
                    item = heap[0]
                    if armed[item[1]] == item[0]:
                        break
                    heappop(heap)
                nxt = heap[0][0] if heap else end
                if nxt >= end:
                    self.fast_forwarded_cycles += end - self._cycle
                    self._cycle = end
                    break
                if nxt > self._cycle:
                    self.fast_forwarded_cycles += nxt - self._cycle
                    self._cycle = nxt
                cycle = nxt
            del ready[:]
            for index in carry:
                if armed[index] == cycle and not queued[index]:
                    queued[index] = 1
                    ready.append(index)
            del carry[:]
            while heap and heap[0][0] == cycle:
                _, index = heappop(heap)
                if armed[index] == cycle and not queued[index]:
                    queued[index] = 1
                    ready.append(index)
            ready.sort()
            self._now = cycle
            pos = 0
            while pos < len(ready):
                index = ready[pos]
                self._progress = index
                queued[index] = 0
                armed[index] = _NEVER
                ticks[index](cycle)
                wake = event_wakes[index](cycle)
                if wake is not None:
                    if wake <= cycle:
                        wake = cycle + 1
                    if wake < armed[index]:
                        armed[index] = wake
                        if wake == cycle + 1:
                            carry.append(index)
                        else:
                            heappush(heap, (wake, index))
                pos += 1
            self._now = -1
            self._progress = -1
            self._cycle = cycle + 1

    # ------------------------------------------------------------------ #

    def _announce_mode(self, event_dispatch: bool) -> None:
        for hook in self._mode_hooks:
            hook(event_dispatch)

    def run(
        self,
        cycles: int,
        until: Optional[Callable[[], bool]] = None,
        *,
        checkpoint_every: Optional[int] = None,
        on_checkpoint: Optional[Callable[[int], object]] = None,
    ) -> int:
        """Run for ``cycles`` cycles, or until ``until()`` becomes true.

        ``until`` is evaluated *before* each processed cycle, so a
        predicate that is already true at entry simulates zero cycles.
        Returns the total number of cycles simulated so far.

        With ``checkpoint_every`` set, the horizon is executed as a
        sequence of run segments of at most that many cycles, and
        ``on_checkpoint(cycle)`` is called after each one — the hook
        (typically :func:`repro.sim.checkpoint.save_checkpoint`) runs at
        a run boundary, where serialization is guaranteed resumable.  A
        truthy return from the hook stops the run early (how a signal
        handler turns "checkpoint, then exit" into a clean stop).
        Segmentation keeps event dispatch: each segment jumps its idle
        gaps as one long run would, clamped to the segment end, and only
        processes its entry cycle in addition.  The run-end hooks fire
        once, at this call's exit, not per segment, so a segmented run
        observes what an unsegmented one does.
        """
        if cycles < 0:
            raise ValueError("cycles must be non-negative")
        if checkpoint_every is not None and checkpoint_every <= 0:
            raise ValueError("checkpoint_every must be positive")
        try:
            if checkpoint_every is None:
                return self._run(cycles, until)
            end = self._cycle + cycles
            while self._cycle < end:
                before = self._cycle
                self._run(min(checkpoint_every, end - self._cycle), until)
                if self._cycle == before:
                    break  # ``until`` already true: nothing left to snapshot
                if on_checkpoint is not None and on_checkpoint(self._cycle):
                    break
            return self._cycle
        finally:
            for run_end in self._run_ends:
                run_end(self._cycle)

    def _run(self, cycles: int, until: Optional[Callable[[], bool]]) -> int:
        end = self._cycle + cycles
        if self.idle_skip:
            self.last_dispatch_mode = "event"
            self._announce_mode(True)
            self._event_live = True
            try:
                self._event_run(end, until)
            finally:
                self._event_live = False
            return self._cycle
        self.last_dispatch_mode = "naive"
        self._announce_mode(False)
        while self._cycle < end:
            if until is not None and until():
                break
            self.step()
        return self._cycle
