"""Experiment runner tests."""

import pytest

from repro.experiments.runner import (
    AveragedMetrics,
    experiment_config,
    run_averaged,
    run_once,
)
from repro.sim.config import NocDesign, SystemConfig
from repro.sim.stats import RunMetrics


def _metrics(latency):
    return RunMetrics(
        utilization=0.5, raw_utilization=0.55, latency_all=latency,
        latency_demand=latency / 2, completed=100, row_hit_rate=0.4,
        cycles=1_000,
    )


class TestAveraging:
    def test_averages_fields(self):
        avg = AveragedMetrics.from_runs([_metrics(100), _metrics(200)])
        assert avg.latency_all == 150
        assert avg.latency_demand == 75
        assert avg.runs == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            AveragedMetrics.from_runs([])


class TestRunning:
    def test_run_once_returns_result(self):
        config = SystemConfig(app="bluray", cycles=2_000, warmup=400)
        result = run_once(config)
        assert result.completed > 0

    def test_run_averaged_uses_all_seeds(self):
        config = SystemConfig(app="bluray", cycles=2_000, warmup=400)
        averaged = run_averaged(config, seeds=(1, 2, 3))
        assert averaged.runs == 3

    def test_seed_averaging_between_extremes(self):
        config = SystemConfig(app="bluray", cycles=2_000, warmup=400)
        a = run_once(config.with_(seed=1)).latency_all
        b = run_once(config.with_(seed=2)).latency_all
        averaged = run_averaged(config, seeds=(1, 2))
        low, high = sorted((a, b))
        assert low <= averaged.latency_all <= high


class TestExperimentConfig:
    def test_defaults_applied(self):
        config = experiment_config(app="bluray")
        assert config.cycles == 20_000
        assert config.warmup == 3_000

    def test_overrides_win(self):
        config = experiment_config(app="bluray", cycles=500, warmup=100)
        assert config.cycles == 500

    def test_passes_through_design(self):
        config = experiment_config(design=NocDesign.GSS)
        assert config.design is NocDesign.GSS
