"""Time-series sampler: windowing, coalescing, ring buffer, system runs."""

import pytest

from repro.core.system import build_system
from repro.obs.timeseries import (
    RingBuffer,
    Sample,
    SampleSource,
    TimeSeriesSampler,
    window_percentiles,
)
from repro.sim.config import NocDesign, SystemConfig


def make_sample(cycle, span=1, **overrides):
    fields = dict(
        cycle=cycle, span=span, windows=1, partial=False,
        totals={}, deltas={}, rates={"x": float(cycle)}, gauges={},
        latency={}, wall_s=0.0,
    )
    fields.update(overrides)
    return Sample(**fields)


class TestRingBuffer:
    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            RingBuffer(0)

    def test_keeps_most_recent_in_order(self):
        ring = RingBuffer(3)
        for cycle in range(5):
            ring.append(make_sample(cycle))
        assert [s.cycle for s in ring] == [2, 3, 4]
        assert ring.last().cycle == 4
        assert ring.appended == 5
        assert ring.evicted == 2

    def test_series_extracts_one_metric(self):
        ring = RingBuffer(4)
        for cycle in range(3):
            ring.append(make_sample(cycle))
        assert ring.series("x") == [0.0, 1.0, 2.0]
        assert ring.series("missing") == [0.0, 0.0, 0.0]

    def test_empty_last_is_none(self):
        assert RingBuffer(2).last() is None


class TestWindowPercentiles:
    def test_single_value(self):
        assert window_percentiles([7.0]) == {
            "p50": 7.0, "p95": 7.0, "p99": 7.0
        }

    def test_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]
        out = window_percentiles(values)
        assert 49.0 <= out["p50"] <= 51.0
        assert out["p95"] == 95.05
        assert out["p99"] == 99.01


class FakeSeries:
    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.samples = []

    def record(self, value):
        self.count += 1
        self.total += value
        self.samples.append(value)


class FakeSource(SampleSource):
    """A hand-cranked source: the test advances the counters."""

    def __init__(self):
        self.done = 0.0
        self.flits = 0.0
        self.series = FakeSeries()

    def counters(self):
        return {"done": self.done, "flits": self.flits}

    def gauges(self):
        return {"queue": self.done / 2}

    def latency_series(self):
        return {"all": self.series}


class TestSampler:
    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            TimeSeriesSampler(FakeSource(), 0)

    def test_window_deltas_and_rates(self):
        source = FakeSource()
        sampler = TimeSeriesSampler(source, 10, clock=lambda: 0.0)
        sampler.on_run_start(0)
        for cycle in range(25):
            source.done += 1
            sampler.tick(cycle)
        assert sampler.emitted == 2
        samples = list(sampler.samples)
        assert [s.cycle for s in samples] == [9, 19]
        assert all(s.span == 10 and s.windows == 1 for s in samples)
        assert samples[0].deltas["done"] == 10.0
        assert samples[1].deltas["done"] == 10.0
        assert samples[1].rates["done"] == pytest.approx(1.0)
        assert samples[1].totals["done"] == 20.0

    def test_coalesced_gap_emits_one_sample(self):
        source = FakeSource()
        sampler = TimeSeriesSampler(source, 10, clock=lambda: 0.0)
        sampler.on_run_start(0)
        source.done = 35.0
        # The simulator jumped cycles [0, 35) without ticking anyone.
        sampler.on_cycles_skipped(0, 35)
        assert sampler.emitted == 1
        sample = sampler.samples.last()
        assert sample.windows == 3  # boundaries 9, 19, 29 folded
        assert sample.cycle == 29
        assert sample.span == 30
        assert sample.deltas["done"] == 35.0
        # Next boundary re-arms past the gap.
        assert sampler.event_wake_at(35) == 39

    def test_flush_emits_trailing_partial(self):
        source = FakeSource()
        sampler = TimeSeriesSampler(source, 10, clock=lambda: 0.0)
        sampler.on_run_start(0)
        for cycle in range(14):
            source.done += 1
            sampler.tick(cycle)
        sampler.on_run_end(14)
        last = sampler.samples.last()
        assert last.partial and last.windows == 0
        assert last.cycle == 13 and last.span == 4
        assert last.deltas["done"] == 4.0
        # Second flush at the same cycle is a no-op.
        assert sampler.flush(14) is None
        assert sampler.emitted == 2

    def test_deltas_sum_to_totals(self):
        source = FakeSource()
        sampler = TimeSeriesSampler(source, 7, clock=lambda: 0.0)
        sampler.on_run_start(0)
        for cycle in range(40):
            source.done += (cycle % 3)
            sampler.tick(cycle)
        sampler.on_run_end(40)
        total = sum(s.deltas["done"] for s in sampler.samples)
        assert total == source.done

    def test_window_latency_percentiles(self):
        source = FakeSource()
        sampler = TimeSeriesSampler(source, 10, clock=lambda: 0.0)
        sampler.on_run_start(0)
        for value in (5.0, 10.0, 15.0):
            source.series.record(value)
        sampler.tick(9)
        first = sampler.samples.last().latency["all"]
        assert first["count"] == 3.0
        assert first["mean"] == pytest.approx(10.0)
        assert first["p50"] == 10.0
        # The next window only sees *new* samples.
        source.series.record(100.0)
        sampler.tick(19)
        second = sampler.samples.last().latency["all"]
        assert second["count"] == 1.0
        assert second["p95"] == 100.0

    def test_event_contract(self):
        sampler = TimeSeriesSampler(FakeSource(), 10)
        assert sampler.event_wake_at(0) == 9
        assert sampler.event_wake_at(5) == 9
        assert sampler.event_wake_at(9) == 10  # boundary tick pending

    def test_on_sample_callback_sees_every_emission(self):
        seen = []
        source = FakeSource()
        sampler = TimeSeriesSampler(
            source, 10, on_sample=seen.append, clock=lambda: 0.0
        )
        sampler.on_run_start(0)
        for cycle in range(12):
            sampler.tick(cycle)
        sampler.on_run_end(12)
        assert len(seen) == sampler.emitted == 2

    def test_to_dict_sorted_and_json_ready(self):
        import json

        source = FakeSource()
        sampler = TimeSeriesSampler(source, 5, clock=lambda: 1.5)
        sampler.on_run_start(0)
        source.done = 5
        sampler.tick(4)
        payload = sampler.samples.last().to_dict()
        assert list(payload["rates"]) == sorted(payload["rates"])
        json.dumps(payload)  # must not raise


class TestSystemAttachment:
    def test_attach_sampler_collects_run(self):
        config = SystemConfig(
            app="single_dtv", cycles=3_000, warmup=300,
            design=NocDesign.GSS_SAGM, seed=2010,
        )
        system = build_system(config)
        sampler = system.attach_sampler(500)
        metrics = system.run()
        assert sampler.emitted >= 6
        assert sum(
            s.deltas["requests.completed"] for s in sampler.samples
        ) == system.stats.all_packets.count
        last = sampler.samples.last()
        assert last.cycle == system.simulator.cycle - 1
        assert metrics.completed > 0

    def test_double_attach_rejected(self):
        system = build_system(
            SystemConfig(app="single_dtv", cycles=100, warmup=0)
        )
        system.attach_sampler(10)
        with pytest.raises(RuntimeError):
            system.attach_sampler(10)

    def test_sampler_does_not_inhibit_fast_forward(self):
        """After quiescence the engine fast-forwards; an attached
        sampler must ride the jumps (landing on its window boundaries),
        not force per-cycle stepping."""
        config = SystemConfig(
            app="single_dtv", cycles=2_000, warmup=200, seed=2010,
        )
        system = build_system(config)
        sampler = system.attach_sampler(100)
        system.run()
        system.drain()
        before_ff = system.simulator.fast_forwarded_cycles
        before_emitted = sampler.emitted
        horizon = 10_000
        system.simulator.run(horizon)
        jumped = system.simulator.fast_forwarded_cycles - before_ff
        assert jumped > horizon * 0.9, "sampler inhibited fast-forward"
        assert sampler.emitted > before_emitted
        # Every jumped window is still accounted for: coverage is gapless
        # up to the last simulated cycle.
        assert sampler.samples.last().cycle == system.simulator.cycle - 1
