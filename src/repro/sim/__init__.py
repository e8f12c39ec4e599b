"""Cycle-driven simulation kernel, configuration and metrics."""

from .config import (
    ConfigError,
    DdrGeneration,
    NocDesign,
    PAPER_CLOCK_POINTS,
    SystemConfig,
    paper_configs,
)
from .engine import Clocked, Simulator
from .rng import core_rng, derive_rng, derive_seed
from .stats import LatencySeries, RunMetrics, StatsCollector

__all__ = [
    "Clocked",
    "ConfigError",
    "core_rng",
    "derive_rng",
    "derive_seed",
    "DdrGeneration",
    "LatencySeries",
    "NocDesign",
    "PAPER_CLOCK_POINTS",
    "RunMetrics",
    "Simulator",
    "StatsCollector",
    "SystemConfig",
    "paper_configs",
]
