"""Public API surface tests: the names README documents must exist."""

import os
import subprocess
import sys

import pytest

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


def _fresh_python(code: str, *args: str) -> str:
    """Run ``code`` in a new interpreter with this ``repro`` importable
    and return its stdout; fails the test if it exits nonzero."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def _loaded_after(code: str, modules) -> list:
    """Which of ``modules`` a new interpreter holds after running ``code``."""
    stdout = _fresh_python(
        "import sys\n" + code
        + "print(' '.join(m for m in sys.argv[1:] if m in sys.modules))\n",
        *modules,
    )
    return stdout.splitlines()[-1].split()


#: Modules a plain simulation never needs: the multiprocess sweep
#: orchestrator, the telemetry stream and exporters, resilience,
#: checkpoints, the exhibits (`repro.experiments`) and cost models.
NOT_IN_A_PLAIN_RUN = (
    "multiprocessing", "concurrent.futures", "subprocess", "socket",
    "logging",
    "repro.sweep", "repro.resilience", "repro.experiments", "repro.cost",
    "repro.sim.checkpoint",
    "repro.obs.stream", "repro.obs.monitor", "repro.obs.exporters",
    "repro.obs.timeseries", "repro.obs.profiler",
)


def test_building_a_system_loads_no_numpy():
    """The simulator is pure Python: importing it and building a system
    must not pull numpy into the process (it costs set-up time and
    memory in every run)."""
    _fresh_python(
        "import sys, repro\n"
        "repro.build_system(repro.SystemConfig(cycles=600, warmup=100))\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )


def test_import_loads_no_exhibit_layer():
    """A plain run loads only the simulator: the package re-exports
    resolve on first use, so `import repro`, a run and its metrics
    registry load no exhibit, sweep, resilience or telemetry
    module."""
    assert _loaded_after(
        "import repro\n"
        "system = repro.build_system(repro.SystemConfig(cycles=600, "
        "warmup=100))\n"
        "system.run()\n"
        "system.collect_metrics()\n",
        NOT_IN_A_PLAIN_RUN,
    ) == []


def test_cli_run_loads_no_exhibit_or_sweep_layer():
    """The CLI imports `repro.experiments` and the sweep layer only in
    the commands that use them, so `repro run` loads neither."""
    assert _loaded_after(
        "from repro.cli import main\n"
        "assert main(['run', '--cycles', '1000', '--warmup', '100']) == 0\n",
        ("repro.experiments", "repro.sweep", "multiprocessing"),
    ) == []


def test_faulty_run_loads_resilience():
    """The lazy packages still deliver: a faulty run builds the
    resilience stack from its modules."""
    modules = ("repro.resilience.faults", "repro.resilience.protection")
    assert _loaded_after(
        "import repro\n"
        "config = repro.SystemConfig(cycles=600, warmup=100,\n"
        "                            faults=repro.FaultConfig.uniform(1e-3))\n"
        "repro.build_system(config).run()\n",
        modules,
    ) == list(modules)


@pytest.mark.parametrize(
    "package", ["repro", "repro.obs", "repro.sweep", "repro.resilience"]
)
def test_lazy_package_behaves_like_eager(package):
    """Each package re-exports on first use; to a caller it must look
    exactly as if every name had been imported eagerly.  Checked in a
    fresh interpreter, before anything has resolved a name."""
    _fresh_python(
        "import importlib, sys\n"
        "name = sys.argv[1]\n"
        "pkg = importlib.import_module(name)\n"
        "missing = set(pkg.__all__) - set(dir(pkg))\n"
        "assert not missing, f'dir() lacks {missing}'\n"
        "assert not hasattr(pkg, 'nosuch')\n"
        "try:\n"
        "    pkg.nosuch\n"
        "except AttributeError as exc:\n"
        "    assert repr(name) in str(exc), exc\n"
        "else:\n"
        "    raise AssertionError('pkg.nosuch resolved')\n"
        "namespace = {}\n"
        "exec(f'from {name} import *', namespace)\n"
        "missing = set(pkg.__all__) - set(namespace)\n"
        "assert not missing, f'import * lacks {missing}'\n",
        package,
    )


def test_design_enum_covers_paper_comparisons():
    values = {design.value for design in repro.NocDesign}
    assert values == {
        "conv", "conv+pfs", "sdram-aware", "sdram-aware+pfs",
        "gss", "gss+sagm",
    }
