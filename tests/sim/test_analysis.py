"""Post-run analysis helper tests."""

import pytest

from repro.obs.analysis import (
    bandwidth_share,
    per_master_report,
    render_master_report,
    tail_latencies,
)
from repro.sim.engine import Simulator
from repro.sim.stats import StatsCollector


def populated_stats(keep_samples=True):
    clock = Simulator()
    clock.step()
    stats = StatsCollector(keep_samples=keep_samples, clock=clock)
    for latency, master, demand in [
        (50, 0, True), (70, 0, True), (200, 1, False), (220, 1, False),
        (90, 2, False),
    ]:
        stats.record_completion(latency, 0, master=master, is_demand=demand)
    stats.record_burst(0, useful_beats=1, burst_beats=2)
    return stats


class TestPerMaster:
    def test_one_report_per_master(self):
        reports = per_master_report(populated_stats())
        assert [r.master for r in reports] == [0, 1, 2]
        assert reports[0].completed == 2
        assert reports[0].mean_latency == 60

    def test_names_applied(self):
        reports = per_master_report(populated_stats(), names={0: "cpu"})
        assert reports[0].name == "cpu"
        assert reports[1].name == "core1"

    def test_p95_requires_samples(self):
        reports = per_master_report(populated_stats(keep_samples=False))
        assert reports[0].p95_latency is None

    def test_render_contains_rows(self):
        text = render_master_report(per_master_report(populated_stats()))
        assert "core1" in text
        assert "mean" in text


class TestTailLatencies:
    def test_classes_reported(self):
        tails = tail_latencies(populated_stats())
        assert tails["all"].maximum == 220
        assert tails["demand"].maximum == 70
        assert tails["all"].p99 >= tails["all"].p50

    def test_requires_samples(self):
        with pytest.raises(RuntimeError):
            tail_latencies(populated_stats(keep_samples=False))


class TestBandwidthShare:
    def test_shares_sum_to_one(self):
        share = bandwidth_share(populated_stats())
        assert share["useful"] + share["wasted"] == pytest.approx(1.0)
        assert share["useful"] == pytest.approx(0.5)

    def test_empty_stats(self):
        share = bandwidth_share(StatsCollector())
        assert share == {"useful": 0.0, "wasted": 0.0}


class TestEndToEnd:
    def test_analysis_of_real_run(self):
        from repro.core.system import build_system
        from repro.sim.config import SystemConfig
        from repro.sim.stats import StatsCollector

        config = SystemConfig(app="bluray", cycles=2_500, warmup=400)
        system = build_system(config)
        # swap in a sample-keeping collector before running
        system.stats.keep_samples = True
        system.stats.all_packets.keep_samples = True
        system.stats.demand_packets.keep_samples = True
        system.run()
        reports = per_master_report(
            system.stats,
            names={i: spec.name for i, spec in enumerate(system.app.cores)},
        )
        assert len(reports) >= 6
        assert any(r.name == "cpu" for r in reports)
        tails = tail_latencies(system.stats)
        assert tails["all"].p95 >= tails["all"].p50 > 0
