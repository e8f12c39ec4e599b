"""Golden fixture: every memory-arbiter backend, pinned exactly.

Each registered backend runs the same short ``bluray`` system, once clean
and once under ``FaultConfig.uniform(1e-3)``.  The run's
:class:`~repro.sim.stats.RunMetrics` fields and the backend's
``scheduler_stats()`` must equal ``golden_backends.json`` exactly, so a
refactor of the scheduler plumbing cannot move any backend's results
unnoticed.

The fixture records intended behaviour.  After a deliberate behaviour
change, regenerate it from the repository root with::

    PYTHONPATH=src python -m tests.dram.test_golden_backends

which prints every value that moved before rewriting the file.
"""

import dataclasses
import json
import pathlib

import pytest

from repro.core.system import build_system
from repro.resilience.faults import FaultConfig
from repro.sim.config import SystemConfig

FIXTURE = pathlib.Path(__file__).with_name("golden_backends.json")

BACKENDS = ("engine", "memmax", "databahn", "dpq", "bank-reg")
FAULT_MODES = {"clean": None, "faulty": FaultConfig.uniform(1e-3)}


def observe(arbiter: str, mode: str) -> dict:
    """Flat ``{key: value}`` of one backend's run, JSON-normalised."""
    config = SystemConfig(
        app="bluray", cycles=2_500, warmup=400, seed=2010, arbiter=arbiter,
        faults=FAULT_MODES[mode],
    )
    system = build_system(config)
    metrics = system.run(config.cycles)
    observed = {
        f"metrics.{key}": value
        for key, value in dataclasses.asdict(metrics).items()
    }
    observed.update(
        (f"scheduler.{key}", value)
        for key, value in system.subsystem.scheduler_stats().items()
    )
    return json.loads(json.dumps(observed))


def differences(expected: dict, fresh: dict) -> list:
    """One line per key whose fixture and fresh values differ."""
    return [
        f"  {key}: fixture={expected.get(key, '<absent>')!r} "
        f"fresh={fresh.get(key, '<absent>')!r}"
        for key in sorted(set(expected) | set(fresh))
        if expected.get(key, "<absent>") != fresh.get(key, "<absent>")
    ]


@pytest.mark.parametrize("mode", list(FAULT_MODES))
@pytest.mark.parametrize("arbiter", BACKENDS)
def test_backend_matches_golden_fixture(arbiter, mode):
    name = f"{arbiter}/{mode}"
    expected = json.loads(FIXTURE.read_text())[name]
    changed = differences(expected, observe(arbiter, mode))
    assert not changed, (
        f"{name} diverged from {FIXTURE.name}:\n" + "\n".join(changed)
    )


def regenerate() -> None:
    old = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}
    fresh = {
        f"{arbiter}/{mode}": observe(arbiter, mode)
        for arbiter in BACKENDS
        for mode in FAULT_MODES
    }
    for name, observed in fresh.items():
        changed = differences(old.get(name, {}), observed)
        if changed:
            print(f"{name}:\n" + "\n".join(changed))
    FIXTURE.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
