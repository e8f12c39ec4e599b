"""Experiment drivers regenerating every table and figure of Section V."""

from .export import export_all
from .comparison import ComparisonCell, ComparisonResult, METRICS, run_comparison
from .fault_sweep import (
    DRAIN_CYCLES,
    FAULT_SWEEP_RATES,
    FaultSweepPoint,
    run_fault_point,
    run_fault_sweep,
)
from .fig8 import FIG8_POINTS, Fig8Curve, knee_index, run_fig8
from .runner import (
    AveragedMetrics,
    DEFAULT_CYCLES,
    DEFAULT_SEEDS,
    DEFAULT_WARMUP,
    experiment_config,
    run_cells,
)
from .table1 import TABLE1_DESIGNS, run_table1
from .table2 import TABLE2_DESIGNS, Table2Result, run_table2
from .table3 import TABLE3_POINTS, Table3Row, run_table3
from .table4 import run_table4
from .table5 import run_table5

__all__ = [
    "AveragedMetrics",
    "ComparisonCell",
    "export_all",
    "ComparisonResult",
    "DEFAULT_CYCLES",
    "DEFAULT_SEEDS",
    "DEFAULT_WARMUP",
    "DRAIN_CYCLES",
    "FAULT_SWEEP_RATES",
    "FaultSweepPoint",
    "FIG8_POINTS",
    "Fig8Curve",
    "METRICS",
    "TABLE1_DESIGNS",
    "TABLE2_DESIGNS",
    "TABLE3_POINTS",
    "Table2Result",
    "Table3Row",
    "experiment_config",
    "knee_index",
    "run_cells",
    "run_comparison",
    "run_fault_point",
    "run_fault_sweep",
    "run_fig8",
    "run_table1",
    "run_table2",
    "run_table3",
    "run_table4",
    "run_table5",
]
