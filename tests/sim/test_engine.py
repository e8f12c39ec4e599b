"""Simulator kernel tests: ordering, dispatch modes, run control."""

import pickle
from bisect import bisect_right

import pytest

from repro.core.system import build_system
from repro.obs import profile_run
from repro.sim.config import SystemConfig
from repro.sim.engine import Simulator
from repro.sim.stats import RunMetrics


class Recorder:
    """Tick-only component: implements nothing but ``tick``."""

    def __init__(self, log, name):
        self.log = log
        self.name = name

    def tick(self, cycle):
        self.log.append((cycle, self.name))


class Sleeper:
    """Quiet until ``wake`` (None = purely reactive), then ticks once and
    goes quiet again."""

    def __init__(self, log, wake=None):
        self.log = log
        self.wake = wake

    def tick(self, cycle):
        self.log.append(cycle)
        if self.wake is not None and cycle >= self.wake:
            self.wake = None

    def event_wake_at(self, cycle):
        return self.wake


class EventRecorder:
    """Event-capable component: self-arms at its scheduled cycles."""

    def __init__(self, log, name, schedule=()):
        self.log = log
        self.name = name
        self.schedule = sorted(set(schedule))

    def tick(self, cycle):
        self.log.append((cycle, self.name))

    def event_wake_at(self, cycle):
        index = bisect_right(self.schedule, cycle)
        return self.schedule[index] if index < len(self.schedule) else None


class Reactive:
    """Purely reactive event component: only wakes through its handle."""

    def __init__(self, log, name):
        self.log = log
        self.name = name
        self.wake = None

    def attach_wake(self, wake):
        self.wake = wake

    def tick(self, cycle):
        self.log.append((cycle, self.name))

    def event_wake_at(self, cycle):
        return None


class Firer(EventRecorder):
    """Ticks on schedule and calls another component's wake handle."""

    def __init__(self, log, name, schedule, fire_at, target, deadline=None):
        super().__init__(log, name, schedule)
        self.fire_at = fire_at
        self.target = target
        self.deadline = deadline

    def tick(self, cycle):
        super().tick(cycle)
        if cycle == self.fire_at:
            if self.deadline is None:
                self.target.wake()
            else:
                self.target.wake(self.deadline)


# ---------------------------------------------------------------------- #
# Ordering and run control
# ---------------------------------------------------------------------- #


def test_components_tick_in_registration_order():
    log = []
    sim = Simulator()
    sim.add(Recorder(log, "a"))
    sim.add(Recorder(log, "b"))
    sim.step()
    assert log == [(0, "a"), (0, "b")]


def test_cycle_counts_advance():
    sim = Simulator()
    assert sim.cycle == 0
    sim.step()
    assert sim.cycle == 1
    sim.run(9)
    assert sim.cycle == 10


def test_run_until_predicate_stops_early():
    log = []
    sim = Simulator()
    sim.add(Recorder(log, "x"))
    sim.run(100, until=lambda: len(log) >= 5)
    assert sim.cycle == 5


def test_run_rejects_negative_cycles():
    with pytest.raises(ValueError):
        Simulator().run(-1)


def test_add_rejects_non_clocked():
    with pytest.raises(TypeError):
        Simulator().add(object())


def test_add_returns_component_for_fluent_wiring():
    sim = Simulator()
    component = Recorder([], "a")
    assert sim.add(component) is component


def test_add_all_registers_in_iteration_order():
    log = []
    sim = Simulator()
    sim.add_all([Recorder(log, "a"), Recorder(log, "b"), Recorder(log, "c")])
    sim.step()
    assert [name for _, name in log] == ["a", "b", "c"]


def test_components_see_monotonic_cycles():
    seen = []

    class Watcher:
        def tick(self, cycle):
            seen.append(cycle)

    sim = Simulator()
    sim.add(Watcher())
    sim.run(50)
    assert seen == list(range(50))


def test_run_until_true_at_entry_simulates_zero_cycles():
    log = []
    sim = Simulator()
    sim.add(Recorder(log, "x"))
    assert sim.run(100, until=lambda: True) == 0
    assert sim.cycle == 0 and log == []


def test_add_rejects_non_callable_tick_attribute():
    class Broken:
        tick = "not callable"

    with pytest.raises(TypeError):
        Simulator().add(Broken())


def test_tick_only_component_ticks_every_cycle():
    """A component with only ``tick`` is re-armed for the next cycle after
    every tick, so event dispatch ticks it every cycle."""
    log = []
    sim = Simulator()
    sim.add(Recorder(log, "x"))
    sim.run(20)
    assert sim.last_dispatch_mode == "event"
    assert log == [(cycle, "x") for cycle in range(20)]
    assert sim.fast_forwarded_cycles == 0


def test_on_cycle_hook_runs_after_components():
    """A per-cycle observer (what an ``on_cycle`` hook does) is a tick-only
    component registered last: under event dispatch it sees every cycle
    after the components registered before it ticked that cycle."""
    log = []
    sim = Simulator()
    sim.add(EventRecorder(log, "comp", schedule=[2]))
    sim.add(Recorder(log, "hook"))
    sim.run(4)
    assert sim.last_dispatch_mode == "event"
    assert log == [
        (0, "comp"), (0, "hook"), (1, "hook"),
        (2, "comp"), (2, "hook"), (3, "hook"),
    ]


def test_fast_forward_disabled_with_cycle_hooks():
    """A per-cycle observer needs every cycle, so while one is registered
    no cycle is jumped; the quiet component beside it still ticks only
    when armed."""
    log, hooks = [], []
    sim = Simulator()
    sim.add(Sleeper(log, wake=40))
    sim.add(Recorder(hooks, "hook"))
    sim.run(100)
    assert [cycle for cycle, _ in hooks] == list(range(100))
    assert sim.fast_forwarded_cycles == 0
    assert log == [0, 40]


# ---------------------------------------------------------------------- #
# Gap jumping
# ---------------------------------------------------------------------- #


def test_fast_forward_jumps_to_wake_cycle():
    log = []
    sim = Simulator()
    sim.add(Sleeper(log, wake=40))
    sim.run(100)
    # Run entry ticks cycle 0; 1-39 are jumped in one step; 40 ticks;
    # 41-99 jump to the end.
    assert log == [0, 40]
    assert sim.cycle == 100
    assert sim.fast_forwarded_cycles == 98


def test_fast_forward_clamps_to_run_horizon():
    log = []
    sim = Simulator()
    sim.add(Sleeper(log, wake=500))
    sim.run(100)
    assert log == [0]
    assert sim.cycle == 100
    sim.run(500)
    # The next run arms everything at its entry cycle, then jumps on.
    assert log == [0, 100, 500]
    assert sim.cycle == 600


def test_fast_forward_with_no_wake_jumps_to_end():
    sim = Simulator()
    sim.add(Sleeper([], wake=None))
    sim.run(1_000)
    assert sim.cycle == 1_000
    assert sim.fast_forwarded_cycles == 999


def test_fast_forward_disabled_without_idle_skip():
    log = []
    sim = Simulator(idle_skip=False)
    sim.add(Sleeper(log, wake=40))
    sim.run(100)
    # Naive stepping ticks every cycle, idle or not.
    assert sim.last_dispatch_mode == "naive"
    assert log == list(range(100))
    assert sim.fast_forwarded_cycles == 0


def test_step_always_ticks_components_with_skip_accounting():
    """step() is naive stepping: it ticks every component, even one that
    never arms itself."""
    log = []
    sim = Simulator()
    sim.add(Sleeper(log, wake=None))
    for _ in range(10):
        sim.step()
    assert log == list(range(10))


# ---------------------------------------------------------------------- #
# Event dispatch
# ---------------------------------------------------------------------- #


def test_event_dispatch_engages_when_all_components_are_event_capable():
    log = []
    sim = Simulator()
    sim.add(EventRecorder(log, "a", schedule=[3]))
    sim.add(EventRecorder(log, "b", schedule=[5]))
    sim.run(10)
    assert sim.last_dispatch_mode == "event"
    # Run entry arms everything once; then only the scheduled cycles run.
    assert log == [(0, "a"), (0, "b"), (3, "a"), (5, "b")]


def test_event_dispatch_jumps_unarmed_gaps():
    log = []
    sim = Simulator()
    sim.add(EventRecorder(log, "a", schedule=[5]))
    sim.run(100)
    assert sim.cycle == 100
    assert [c for c, _ in log] == [0, 5]
    assert sim.fast_forwarded_cycles == 98  # 1-4 and 6-99


def test_event_wake_reaches_a_later_component_the_same_cycle():
    log = []
    sim = Simulator()
    reactive = Reactive(log, "b")
    sim.add(Firer(log, "a", schedule=[3], fire_at=3, target=reactive))
    sim.add(reactive)
    sim.run(10)
    # b was woken by a's cycle-3 tick and, being registered later, ran the
    # very same cycle — the ordered-stepping visibility rule.
    assert log == [(0, "a"), (0, "b"), (3, "a"), (3, "b")]


def test_event_wake_reaches_an_earlier_component_the_next_cycle():
    log = []
    sim = Simulator()
    reactive = Reactive(log, "a")
    sim.add(reactive)
    sim.add(Firer(log, "b", schedule=[3], fire_at=3, target=reactive))
    sim.run(10)
    assert log == [(0, "a"), (0, "b"), (3, "b"), (4, "a")]


def test_event_wake_with_deadline_arms_that_cycle():
    log = []
    sim = Simulator()
    reactive = Reactive(log, "b")
    sim.add(Firer(log, "a", schedule=[3], fire_at=3, target=reactive,
                  deadline=50))
    sim.add(reactive)
    sim.run(100)
    assert log == [(0, "a"), (0, "b"), (3, "a"), (50, "b")]


def test_event_until_predicate_checked_before_each_cycle():
    log = []
    sim = Simulator()
    sim.add(EventRecorder(log, "a", schedule=list(range(1, 100))))
    sim.run(100, until=lambda: len(log) >= 3)
    assert sim.last_dispatch_mode == "event"
    assert len(log) == 3


def test_profiler_rides_event_dispatch_without_inhibition():
    """profile_run wraps run() from outside the kernel: dispatch still
    jumps unarmed gaps, and a profiled system's metrics equal an
    unprofiled one's."""
    log = []
    sim = Simulator()
    sim.add(EventRecorder(log, "a", schedule=[2, 4]))
    profile = profile_run(sim, 10, window=10)
    assert sim.last_dispatch_mode == "event"
    assert [c for c, _ in log] == [0, 2, 4]
    assert sim.fast_forwarded_cycles == 7
    # The double lives outside repro: its ticks are charged to the
    # kernel layer that called them.
    assert "sim.engine" in profile.layers()

    config = SystemConfig(app="single_dtv", cycles=2_000, warmup=500,
                          seed=2010)
    expected = build_system(config).run()
    system = build_system(config)
    profile_run(system, config.cycles, window=700)
    assert system.simulator.last_dispatch_mode == "event"
    assert RunMetrics.from_collector(
        system.stats, system.simulator.cycle, scheduler=system.subsystem
    ) == expected


def test_wake_handles_pickle_with_the_simulator():
    """A wake handle is a partial over the simulator, so a pickled
    simulator restores with its components' handles bound to it, and a
    restored simulator pickles again before it runs; either way it
    continues exactly as the never-pickled one does."""

    def build():
        log = []
        sim = Simulator()
        reactive = Reactive(log, "b")
        sim.add(Firer(log, "a", schedule=[3, 8], fire_at=8,
                      target=reactive))
        sim.add(reactive)
        return sim, log

    continued, expected = build()
    continued.run(5)
    continued.run(7)

    sim, _ = build()
    sim.run(5)
    restored = pickle.loads(pickle.dumps(pickle.loads(pickle.dumps(sim))))
    reactive = restored._components[1]
    assert reactive.wake.func.__self__ is restored
    assert restored._components[0].target is reactive
    restored.run(7)
    assert reactive.log == expected


class Snapshotter(EventRecorder):
    """Pickles its simulator from inside its own tick at ``at``."""

    def __init__(self, log, sim, at):
        super().__init__(log, "snap", schedule=[at])
        self.sim = sim
        self.at = at
        self.snapshot = None

    def tick(self, cycle):
        super().tick(cycle)
        if cycle == self.at and self.snapshot is None:
            self.snapshot = pickle.dumps(self.sim)


def test_snapshot_taken_mid_cycle_resumes():
    """A pickle taken inside a tick (the watchdog's post-mortem dump)
    holds components queued but not yet ticked that cycle; the restored
    simulator re-arms them at run entry instead of leaving them stuck."""
    log = []
    sim = Simulator()
    snapper = sim.add(Snapshotter(log, sim, at=3))
    sim.add(EventRecorder(log, "b", schedule=[3, 6]))
    sim.run(4)
    restored = pickle.loads(snapper.snapshot)
    assert restored.cycle == 3
    restored.run(7)
    later = restored._components[1].log
    assert [entry for entry in later if entry[1] == "b"] == [
        (0, "b"), (3, "b"), (6, "b"),
    ]


def test_on_run_mode_announces_the_dispatch_tier():
    calls = []

    class Modal(EventRecorder):
        def on_run_mode(self, event_dispatch):
            calls.append(event_dispatch)

    sim = Simulator()
    sim.add(Modal([], "a"))
    sim.run(5)
    assert calls == [True]
    sim.idle_skip = False
    sim.run(5)
    assert calls == [True, False]


def test_event_rearm_every_cycle_ticks_continuously():
    """The carry fast path (re-arm at cycle+1) must not skip or duplicate
    cycles."""
    log = []
    sim = Simulator()
    sim.add(EventRecorder(log, "a", schedule=list(range(1, 50))))
    sim.run(50)
    assert [c for c, _ in log] == list(range(50))
