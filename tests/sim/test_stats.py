"""Stats accounting tests: latency series, warmup filtering, utilization."""

import statistics

import pytest
from hypothesis import given, strategies as st

from repro.sim.engine import Simulator
from repro.sim.stats import (
    QUANTILES,
    LatencySeries,
    RunMetrics,
    StatsCollector,
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

    def test_p100_without_kept_samples(self):
        """Extremes are O(1) streaming fields — no keep_samples needed,
        so the WCET column can never under-report the worst case."""
        series = LatencySeries()
        for value in (30, 10, 20):
            series.record(value)
        assert series.p100 == 30.0
        assert series.minimum == 10

    def test_minimum_tracks_first_sample(self):
        series = LatencySeries()
        series.record(0)
        series.record(5)
        assert series.minimum == 0

    def test_interior_percentile_still_requires_samples(self):
        series = LatencySeries()
        series.record(10)
        with pytest.raises(ValueError, match="no samples"):
            quantiles(series.samples)

    def test_percentile_empty_series_still_rejected(self):
        series = LatencySeries(keep_samples=True)
        with pytest.raises(ValueError, match="no samples"):
            quantiles(series.samples)

    @given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1))
    def test_exact_extremes_match_kept_samples(self, values):
        streaming = LatencySeries()
        kept = LatencySeries(keep_samples=True)
        for value in values:
            streaming.record(value)
            kept.record(value)
        assert streaming.minimum == kept.minimum == min(kept.samples)
        assert streaming.p100 == kept.p100 == max(kept.samples)


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
        summary = quantiles(range(1, 101))
        assert list(summary) == [name for name, _ in QUANTILES]
        assert summary == {
            "p50": pytest.approx(50.5),
            "p95": pytest.approx(95.05),
            "p99": pytest.approx(99.01),
        }

    def test_percentile_linear_interpolation_exact(self):
        """R-7 (numpy default) closest-ranks interpolation, exactly."""
        assert quantiles([1, 2, 3, 4]) == {
            "p50": pytest.approx(2.5),
            "p95": pytest.approx(3.85),
            "p99": pytest.approx(3.97),
        }

    def test_percentile_exact_rank_avoids_interpolation(self):
        # With 101 samples the ranks of p50/p95/p99 land exactly on
        # samples 50, 95 and 99.
        summary = quantiles([10 * i for i in range(101)])
        assert summary == {"p50": 500.0, "p95": 950.0, "p99": 990.0}
        assert all(type(value) is float for value in summary.values())

    def test_percentile_single_sample(self):
        assert quantiles([7]) == {"p50": 7.0, "p95": 7.0, "p99": 7.0}

    def test_percentile_unsorted_input(self):
        assert quantiles([9, 1, 5, 3, 7]) == quantiles([1, 3, 5, 7, 9])
        assert quantiles([9, 1, 5, 3, 7]) == {
            "p50": 5.0,
            "p95": pytest.approx(8.6),
            "p99": pytest.approx(8.92),
        }

    @given(st.lists(
        st.integers(min_value=0, max_value=10_000), min_size=2, max_size=60,
    ))
    def test_agrees_with_stdlib_r7(self, samples):
        """An independent R-7: the stdlib's inclusive method, whose cut
        points 49, 94 and 98 are the 50th, 95th and 99th percentiles."""
        cuts = statistics.quantiles(samples, n=100, method="inclusive")
        assert quantiles(samples) == {
            "p50": pytest.approx(cuts[49]),
            "p95": pytest.approx(cuts[94]),
            "p99": pytest.approx(cuts[98]),
        }

    def test_percentile_requires_samples(self):
        """Quantiles read kept samples: a collector keeps them only when
        asked, and summarising one that did not raises."""
        dropped = StatsCollector()
        dropped.record_completion(10, 0, master=0, is_demand=False)
        with pytest.raises(ValueError, match="no samples"):
            quantiles(dropped.all_packets.samples)
        kept = StatsCollector(keep_samples=True)
        kept.record_completion(10, 0, master=0, is_demand=False)
        assert quantiles(kept.all_packets.samples)["p50"] == 10.0
        assert quantiles(kept.per_master[0].samples)["p99"] == 10.0

    def test_empty_percentile_raises(self):
        """A class whose every completion fell inside the warmup has no
        samples to summarise, even with samples kept."""
        stats = StatsCollector(warmup=100, keep_samples=True)
        stats.record_completion(150, 50, master=0, is_demand=True)
        assert stats.demand_packets.count == 0
        with pytest.raises(ValueError, match="no samples"):
            quantiles(stats.demand_packets.samples)

    def test_quantiles_of_no_samples_raise(self):
        with pytest.raises(ValueError, match="no samples"):
            quantiles([])
