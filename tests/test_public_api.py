"""Public API surface tests: the names README documents must exist."""

import repro
import repro.core
import repro.cost
import repro.dram
import repro.experiments
import repro.noc
import repro.obs
import repro.sim
import repro.workloads


def test_top_level_quickstart_surface():
    config = repro.SystemConfig(app="bluray", cycles=600, warmup=100)
    metrics = repro.run_config(config)
    assert isinstance(metrics, repro.RunMetrics)
    system = repro.build_system(config)
    assert isinstance(system, repro.SocSystem)


def test_all_exports_resolve():
    for module in (repro, repro.core, repro.cost, repro.dram,
                   repro.experiments, repro.noc, repro.obs, repro.sim,
                   repro.workloads):
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name} missing"


def test_version_present():
    assert repro.__version__


def test_building_a_system_loads_no_numpy():
    """The simulator is pure Python: importing it and building a system
    must not pull numpy into the process (it costs set-up time and
    memory in every run)."""
    import os
    import subprocess
    import sys

    code = (
        "import sys, repro\n"
        "repro.build_system(repro.SystemConfig(cycles=600, warmup=100))\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr


def test_import_loads_no_exhibit_layer():
    """`import repro` stops at the simulator and the sweep layer: the
    exhibit drivers and cost models load only when something asks for
    them, so `repro.sweep` must not import `repro.experiments`."""
    import os
    import subprocess
    import sys

    code = (
        "import sys, repro\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith(\n"
        "    ('repro.experiments', 'repro.cost')))))\n"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == []


def test_design_enum_covers_paper_comparisons():
    values = {design.value for design in repro.NocDesign}
    assert values == {
        "conv", "conv+pfs", "sdram-aware", "sdram-aware+pfs",
        "gss", "gss+sagm",
    }
