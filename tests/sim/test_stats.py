"""Stats accounting tests: latency series, warmup filtering, utilization."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.engine import Simulator
from repro.sim.stats import (
    QUANTILES,
    LatencySeries,
    RunMetrics,
    StatsCollector,
    percentile,
    quantiles,
)


def clocked_collector(cycles, **kwargs):
    """A collector whose clock has run ``cycles`` cycles."""
    clock = Simulator()
    clock.run(cycles)
    return StatsCollector(clock=clock, **kwargs)


class TestLatencySeries:
    def test_mean_and_max(self):
        series = LatencySeries()
        for value in (10, 20, 30):
            series.record(value)
        assert series.mean == 20
        assert series.maximum == 30
        assert series.count == 3

    def test_empty_mean_is_zero(self):
        assert LatencySeries().mean == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            LatencySeries().record(-1)

    def test_samples_kept_only_when_requested(self):
        kept = LatencySeries(keep_samples=True)
        kept.record(5)
        assert kept.samples == [5]
        dropped = LatencySeries()
        dropped.record(5)
        assert dropped.samples == []

    @given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1))
    def test_mean_matches_arithmetic_mean(self, values):
        series = LatencySeries()
        for value in values:
            series.record(value)
        assert series.mean == pytest.approx(sum(values) / len(values))
        assert series.maximum == max(values)

    def test_p0_p100_without_kept_samples(self):
        """Extremes are O(1) streaming fields — no keep_samples needed,
        so the WCET column can never under-report the worst case."""
        series = LatencySeries()
        for value in (30, 10, 20):
            series.record(value)
        assert series.p0 == 10.0
        assert series.p100 == 30.0
        assert series.minimum == 10
        assert series.percentile(0) == 10.0
        assert series.percentile(100) == 30.0

    def test_minimum_tracks_first_sample(self):
        series = LatencySeries()
        series.record(0)
        series.record(5)
        assert series.minimum == 0
        assert series.p0 == 0.0

    def test_interior_percentile_still_requires_samples(self):
        series = LatencySeries()
        series.record(10)
        with pytest.raises(RuntimeError):
            series.percentile(50)

    def test_percentile_empty_series_still_rejected(self):
        series = LatencySeries(keep_samples=True)
        for q in (0, 50, 100):
            with pytest.raises(ValueError):
                series.percentile(q)

    @given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1))
    def test_exact_extremes_match_kept_samples(self, values):
        streaming = LatencySeries()
        kept = LatencySeries(keep_samples=True)
        for value in values:
            streaming.record(value)
            kept.record(value)
        assert streaming.percentile(0) == kept.percentile(0) == min(values)
        assert (
            streaming.percentile(100) == kept.percentile(100) == max(values)
        )


class TestStatsCollector:
    def test_warmup_excludes_early_completions(self):
        stats = StatsCollector(warmup=100)
        stats.record_completion(cycle=150, issued_cycle=50, master=0, is_demand=False)
        assert stats.all_packets.count == 0
        stats.record_completion(cycle=250, issued_cycle=150, master=0, is_demand=False)
        assert stats.all_packets.count == 1

    def test_demand_class_tracked_separately(self):
        stats = StatsCollector()
        stats.record_completion(10, 0, master=1, is_demand=True)
        stats.record_completion(20, 0, master=2, is_demand=False)
        assert stats.demand_packets.count == 1
        assert stats.all_packets.count == 2

    def test_per_master_series(self):
        stats = StatsCollector()
        stats.record_completion(10, 0, master=3, is_demand=False)
        stats.record_completion(30, 0, master=3, is_demand=False)
        assert stats.per_master[3].count == 2
        assert stats.per_master[3].mean == 20

    def test_utilization_counts_useful_fraction(self):
        stats = clocked_collector(10)
        # 4 busy cycles, half useful each
        for cycle in range(4):
            stats.record_burst(cycle, useful_beats=1, burst_beats=2)
        assert stats.raw_utilization == pytest.approx(0.4)
        assert stats.utilization == pytest.approx(0.2)

    def test_bus_cycle_validation(self):
        stats = StatsCollector()
        with pytest.raises(ValueError):
            stats.record_burst(0, useful_beats=3, burst_beats=2)
        with pytest.raises(ValueError):
            stats.record_burst(0, useful_beats=0, burst_beats=0)

    def test_warmup_excludes_bus_activity(self):
        stats = StatsCollector(warmup=10)
        stats.record_burst(5, 2, 2)
        assert stats.busy_cycles == 0
        stats.record_burst(15, 2, 2)
        assert stats.busy_cycles == 1

    def test_observed_cycles_read_the_clock(self):
        clock = Simulator()
        stats = StatsCollector(warmup=4, clock=clock)
        assert stats.observed_cycles == 0
        clock.run(3)
        assert stats.observed_cycles == 0
        clock.run(7)
        assert stats.observed_cycles == 6
        clock.step()
        assert stats.observed_cycles == 7
        assert StatsCollector().observed_cycles == 0

    def test_row_hit_rate(self):
        stats = StatsCollector()
        stats.record_row_outcome(0, hit=True)
        stats.record_row_outcome(0, hit=True)
        stats.record_row_outcome(0, hit=False)
        assert stats.row_hit_rate == pytest.approx(2 / 3)

    def test_commands_counted_by_kind(self):
        stats = StatsCollector()
        stats.record_command(0, "ACT")
        stats.record_command(0, "ACT")
        stats.record_command(0, "PRE")
        assert stats.commands_issued == {"ACT": 2, "PRE": 1}

    def test_negative_warmup_rejected(self):
        with pytest.raises(ValueError):
            StatsCollector(warmup=-1)


def per_cycle_reference(warmup, data_start, useful_beats, burst_beats):
    """Bus accounting one data-bus cycle at a time: two beats per cycle,
    useful ones first, cycles before warm-up dropped.  Returns
    ``(busy_cycles, useful_cycles, useful_beats, wasted_beats)``."""
    busy = useful = wasted = 0
    useful_cycles = 0.0
    remaining_useful, remaining_total = useful_beats, burst_beats
    for offset in range((burst_beats + 1) // 2):
        beats = min(2, remaining_total)
        moved = min(beats, remaining_useful)
        if data_start + offset >= warmup:
            busy += 1
            useful_cycles += moved / beats
            useful += moved
            wasted += beats - moved
        remaining_total -= beats
        remaining_useful -= moved
    return busy, useful_cycles, useful, wasted


class TestRecordBurst:
    WARMUP = 10

    def test_matches_per_cycle_reference_exhaustively(self):
        """Every burst length 1-16, every useful count, and start cycles
        from wholly before warm-up, across it, to wholly after."""
        cases = mismatches = 0
        for burst in range(1, 17):
            for useful in range(burst + 1):
                for start in range(self.WARMUP - 9, self.WARMUP + 5):
                    stats = StatsCollector(warmup=self.WARMUP)
                    stats.record_burst(start, useful, burst)
                    observed = (
                        stats.busy_cycles, stats.useful_cycles,
                        stats.useful_beats, stats.wasted_beats,
                    )
                    expected = per_cycle_reference(
                        self.WARMUP, start, useful, burst
                    )
                    cases += 1
                    if observed != expected:
                        mismatches += 1
        assert cases == 2_128
        assert mismatches == 0

    @pytest.mark.parametrize(
        "useful, burst",
        [(3, 2), (9, 8), (-1, 4), (0, 0), (0, -2)],
    )
    def test_range_checks_raise(self, useful, burst):
        # Checked once per burst, before warm-up too.
        for warmup in (0, 100):
            stats = StatsCollector(warmup=warmup)
            with pytest.raises(ValueError):
                stats.record_burst(0, useful, burst)
            assert stats.busy_cycles == stats.useful_beats == 0


class TestRunMetrics:
    def test_from_collector_snapshot(self):
        stats = clocked_collector(1)
        stats.record_burst(0, 2, 2)
        stats.record_completion(40, 0, master=0, is_demand=True)
        metrics = RunMetrics.from_collector(stats, cycles=100)
        assert metrics.cycles == 100
        assert metrics.completed == 1
        assert metrics.latency_demand == 40
        assert metrics.utilization == pytest.approx(1.0)


class TestPercentiles:
    def test_percentile_values(self):
        series = LatencySeries(keep_samples=True)
        for value in range(1, 101):
            series.record(value)
        assert series.percentile(0) == 1
        assert series.percentile(100) == 100
        assert 49 <= series.percentile(50) <= 51
        assert 94 <= series.percentile(95) <= 96

    def test_percentile_linear_interpolation_exact(self):
        """R-7 (numpy default) closest-ranks interpolation, exactly."""
        series = LatencySeries(keep_samples=True)
        for value in (1, 2, 3, 4):
            series.record(value)
        assert series.percentile(50) == pytest.approx(2.5)
        assert series.percentile(25) == pytest.approx(1.75)
        assert series.percentile(75) == pytest.approx(3.25)
        assert series.percentile(10) == pytest.approx(1.3)

    def test_percentile_exact_rank_avoids_interpolation(self):
        series = LatencySeries(keep_samples=True)
        for value in (10, 20, 30):
            series.record(value)
        # Ranks 0, 1, 2 land exactly on samples.
        assert series.percentile(0) == 10.0
        assert series.percentile(50) == 20.0
        assert series.percentile(100) == 30.0

    def test_percentile_single_sample(self):
        series = LatencySeries(keep_samples=True)
        series.record(7)
        for q in (0, 13, 50, 99, 100):
            assert series.percentile(q) == 7.0

    def test_percentile_unsorted_input(self):
        series = LatencySeries(keep_samples=True)
        for value in (9, 1, 5, 3, 7):
            series.record(value)
        assert series.percentile(50) == 5.0
        assert series.percentile(75) == pytest.approx(7.0)
        assert series.percentile(90) == pytest.approx(8.2)

    def test_percentile_requires_samples(self):
        series = LatencySeries()
        series.record(5)
        with pytest.raises(RuntimeError):
            series.percentile(50)

    def test_percentile_bounds(self):
        series = LatencySeries(keep_samples=True)
        with pytest.raises(ValueError):
            series.percentile(101)

    def test_empty_percentile_raises(self):
        with pytest.raises(ValueError, match="empty series"):
            LatencySeries(keep_samples=True).percentile(99)

    @pytest.mark.parametrize(
        "values", [[10, 20], list(range(1, 101))], ids=["two", "1..100"]
    )
    def test_every_reported_percentile_agrees(self, values):
        """`run --percentiles`, `--prom`, the registry snapshot, the
        sampler's windows and the tail report all read one summary,
        which agrees with the series' own percentiles."""
        series = LatencySeries(keep_samples=True)
        for value in reversed(values):
            series.record(value)
        summary = quantiles(series.samples)
        assert list(summary) == [name for name, _ in QUANTILES]
        for name, q in QUANTILES:
            assert summary[name] == series.percentile(q)
            assert summary[name] == percentile(values, q)

    def test_quantiles_of_no_samples_raise(self):
        with pytest.raises(ValueError, match="no samples"):
            quantiles([])
