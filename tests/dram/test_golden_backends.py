"""Golden fixture: every memory-arbiter backend, pinned exactly.

Each registered backend runs the same short ``bluray`` system three
times: clean, under ``FaultConfig.uniform(1e-3)``, and clean with
auto-refresh every 400 cycles (attached to the command engine, as
``tests/sim/test_golden_identity.py`` does).  The run's
:class:`~repro.sim.stats.RunMetrics` fields and the backend's
``scheduler_stats()`` must equal ``golden_backends.json`` exactly, so a
refactor of the scheduler plumbing or of refresh cannot move any
backend's results unnoticed.  A refresh run also pins how many
refreshes and ACT/PRE/RD/WR commands it issued.

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
from repro.dram.refresh import RefreshTimer
from repro.resilience.faults import FaultConfig
from repro.sim.config import SystemConfig

FIXTURE = pathlib.Path(__file__).with_name("golden_backends.json")

BACKENDS = ("engine", "memmax", "databahn", "dpq", "bank-reg")
MODES = ("clean", "faulty", "refresh")
#: Refresh interval of the ``refresh`` mode: several refreshes per run.
REFRESH_INTERVAL = 400
#: Command kinds whose counts a ``refresh`` run pins.
ACCESS_COMMANDS = ("ACT", "PRE", "RD", "WR")


def run(arbiter: str, mode: str):
    """Build and run one backend's system in ``mode``; returns the
    system and its metrics."""
    config = SystemConfig(
        app="bluray", cycles=2_500, warmup=400, seed=2010, arbiter=arbiter,
        faults=FaultConfig.uniform(1e-3) if mode == "faulty" else None,
    )
    system = build_system(config)
    if mode == "refresh":
        timer = RefreshTimer(system.timing)
        timer.t_refi = timer._next_due = REFRESH_INTERVAL
        system.subsystem.engine.refresh = timer
    return system, system.run(config.cycles)


def observe(system, metrics) -> dict:
    """Flat ``{key: value}`` of one finished run, JSON-normalised."""
    observed = {
        f"metrics.{key}": value
        for key, value in dataclasses.asdict(metrics).items()
    }
    observed.update(
        (f"scheduler.{key}", value)
        for key, value in system.subsystem.scheduler_stats().items()
    )
    refresh = system.subsystem.engine.refresh
    if refresh is not None:
        observed["refresh.issued"] = refresh.refreshes_issued
        commands = system.stats.commands_issued
        observed.update(
            (f"commands.{kind}", commands.get(kind, 0))
            for kind in ACCESS_COMMANDS
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


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("arbiter", BACKENDS)
def test_backend_matches_golden_fixture(arbiter, mode):
    name = f"{arbiter}/{mode}"
    expected = json.loads(FIXTURE.read_text())[name]
    system, metrics = run(arbiter, mode)
    changed = differences(expected, observe(system, metrics))
    assert not changed, (
        f"{name} diverged from {FIXTURE.name}:\n" + "\n".join(changed)
    )
    if mode == "refresh":
        # Every refresh is a REF on the command bus (the first one is due
        # at the end of warm-up, so the stats see them all).
        assert expected["refresh.issued"] > 0
        assert (
            system.stats.commands_issued.get("REF", 0)
            == expected["refresh.issued"]
        )


def regenerate() -> None:
    old = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}
    fresh = {
        f"{arbiter}/{mode}": observe(*run(arbiter, mode))
        for arbiter in BACKENDS
        for mode in MODES
    }
    for name, observed in fresh.items():
        changed = differences(old.get(name, {}), observed)
        if changed:
            print(f"{name}:\n" + "\n".join(changed))
    FIXTURE.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
