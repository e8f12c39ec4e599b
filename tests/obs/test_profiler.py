"""Per-layer simulator profile: layers, windows, determinism, coverage."""

import importlib.util
from collections import namedtuple

import pytest

from repro.core.system import build_system
from repro.obs.profiler import _charge, layer_of, profile_run
from repro.sim.config import SystemConfig
from repro.sim.engine import Simulator

CONFIG = SystemConfig(app="single_dtv", cycles=1_500, warmup=0, seed=2010)


def _profile(window=500):
    return profile_run(build_system(CONFIG), CONFIG.cycles, window)


@pytest.fixture(scope="module")
def profile():
    return _profile()


class Spinner:
    """A component outside repro whose tick does a little work."""

    def __init__(self):
        self.ticks = 0

    def tick(self, cycle):
        self.ticks += 1
        sum(range(200))


#: Stand-ins for ``Profile.getstats()`` entries and their callee rows.
Entry = namedtuple("Entry", "code callcount inlinetime calls")
Sub = namedtuple("Sub", "code callcount inlinetime")


class TestProfilerUnit:
    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            profile_run(Simulator(), 10, window=0)

    def test_layers_are_named_by_repro_module(self, profile):
        layers = profile.layers()
        for name in ("noc.router", "core.gss_filter", "dram.device",
                     "sim.engine"):
            assert name in layers
        for name in layers:
            assert importlib.util.find_spec(f"repro.{name}") is not None
        assert layer_of(Simulator.run.__code__) == "sim.engine"
        assert layer_of(Spinner.tick.__code__) is None
        assert layer_of("<built-in method builtins.len>") is None

    def test_windows_roll(self, profile):
        """Each window is one run() of exactly ``window`` simulated
        cycles, however many of them event dispatch jumps."""
        assert [w.start for w in profile.windows] == [0, 500, 1000]
        assert [w.cycles for w in profile.windows] == [500, 500, 500]
        assert sum(w.cycles for w in profile.windows) == CONFIG.cycles
        tail = profile_run(build_system(CONFIG), 1_200, window=500)
        assert [(w.start, w.cycles) for w in tail.windows] == [
            (0, 500), (500, 500), (1000, 200),
        ]

    def test_call_counts_repeat_across_fresh_runs(self, profile):
        again = _profile()
        for first, second in zip(profile.windows, again.windows):
            assert {n: s.calls for n, s in first.layers.items()} == {
                n: s.calls for n, s in second.layers.items()
            }

    def test_shares_sum_to_one(self, profile):
        """Time outside repro is charged to a layer, so the layers'
        shares cover (nearly) all of the profile's self time."""
        covered = sum(stat.seconds for stat in profile.layers().values())
        assert covered >= 0.99 * profile.total_seconds
        assert covered <= profile.total_seconds * (1 + 1e-9)

    def test_empty_shares(self):
        profile = profile_run(Simulator(), 0)
        assert profile.windows == [] and profile.layers() == {}

    def test_outside_time_follows_the_calling_layer(self):
        """A function outside repro is charged to its callers' layers;
        one called only from outside repro follows its callers' own
        callers, in proportion to their calls."""
        engine = Simulator.run.__code__
        system = build_system.__code__
        helper, builtin = "<helper>", "<built-in method builtins.len>"
        entries = [
            Entry(engine, 1, 0.25,
                  [Sub(helper, 3, 0.3), Sub(builtin, 2, 0.2)]),
            Entry(system, 1, 0.5, [Sub(helper, 1, 0.1)]),
            Entry(helper, 4, 0.4, [Sub(builtin, 4, 0.4)]),
            Entry(builtin, 6, 0.6, None),
        ]
        layers = _charge(entries)
        assert set(layers) == {"sim.engine", "core.system"}
        # helper's 4 calls: 3 on the engine's behalf, 1 on the system's.
        assert layers["sim.engine"].calls == pytest.approx(1 + 3 + 2 + 3)
        assert layers["core.system"].calls == pytest.approx(1 + 1 + 1)
        assert layers["sim.engine"].seconds == pytest.approx(
            0.25 + 0.3 + 0.2 + 0.4 * 3 / 4
        )
        assert layers["core.system"].seconds == pytest.approx(
            0.5 + 0.1 + 0.4 * 1 / 4
        )

    def test_report_renders(self, profile):
        text = profile.report(windows=2)
        assert "calls/kcycle" in text
        assert "noc.router" in text
        assert "most recent 2 window(s)" in text
        assert "cycle      500+" in text and "cycle     1000+" in text
        assert "cycle        0+" not in text


class TestEngineIntegration:
    def test_profiled_run_matches_plain_run(self):
        plain, profiled = Simulator(), Simulator()
        a, b = Spinner(), Spinner()
        plain.add(a)
        profiled.add(b)
        plain.run(13)
        profile = profile_run(profiled, 13, window=5)
        assert plain.cycle == profiled.cycle == 13
        assert a.ticks == b.ticks
        # The spinner lives outside repro: charged to the kernel.
        assert list(profile.layers()) == ["sim.engine"]
