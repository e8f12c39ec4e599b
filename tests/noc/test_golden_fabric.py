"""Golden fixture: the NoC fabric, pinned exactly across its options.

The benchmark fingerprints and the exhibit fixture pin the fabric only
with XY routing, one virtual channel and 12-flit link buffers.  This
fixture pins what those leave open — adaptive withdrawals, the priority
lane and credit stalls in shallow link buffers — for all six router
designs (GSS+SAGM, GSS, CONV, CONV+PFS, [4] and [4]+PFS, so the
priority-first arbiter and the PFS bypass are pinned too) crossed with
XY/adaptive routing, 1/2 virtual channels, 2/12-flit link buffers, the
dual_dtv/bluray applications and clean/faulty runs, priority on, seed 7.

The full cross is 192 configurations.  The suite runs the half fraction
whose five binary factors have even parity (96 runs, every pair of
factor levels still meets), so it fits in about twenty seconds.

Each run pins its :class:`~repro.sim.stats.RunMetrics`, the backend's
``scheduler_stats()``, every router input lane's ``highwater_flits`` and
every output's ``flits_sent`` (in node, port, lane order) and a sha256
digest of the ``collect_metrics()`` snapshot.

The fixture records intended behaviour.  After a deliberate behaviour
change, regenerate it from the repository root with::

    PYTHONPATH=src python -m tests.noc.test_golden_fabric

which prints every value that moved before rewriting the file.
"""

import dataclasses
import hashlib
import itertools
import json
import pathlib

import pytest

from repro.core.system import build_system
from repro.resilience.faults import FaultConfig
from repro.sim.config import NocDesign, SystemConfig

FIXTURE = pathlib.Path(__file__).with_name("golden_fabric.json")

CYCLES = 3_000
WARMUP = 500
SEED = 7
FAULTS = FaultConfig(link_corrupt_rate=1e-3, sdram_bit_rate=1e-3)

DESIGNS = (
    NocDesign.GSS_SAGM, NocDesign.GSS, NocDesign.CONV, NocDesign.CONV_PFS,
    NocDesign.SDRAM_AWARE, NocDesign.SDRAM_AWARE_PFS,
)
#: The five two-level factors: (routing, VCs, link flits, app, faults).
LEVELS = (
    ("xy", "adaptive"),
    (1, 2),
    (2, 12),
    ("dual_dtv", "bluray"),
    ("clean", "faulty"),
)


def _name(design, routing, vcs, link, app, faults) -> str:
    return f"{design.value}/{routing}/vc{vcs}/link{link}/{app}/{faults}"


#: Every configuration of the cross, and the even-parity half the suite runs.
ALL = [
    (design,) + levels
    for design in DESIGNS
    for levels in itertools.product(*LEVELS)
]
PINNED = [
    combo for combo in ALL
    if sum(level.index(value) for level, value in zip(LEVELS, combo[1:])) % 2
    == 0
]


def run(design, routing, vcs, link, app, faults):
    """Build and run one fabric configuration; returns system and metrics."""
    config = SystemConfig(
        app=app, design=design, priority_enabled=True, cycles=CYCLES,
        warmup=WARMUP, seed=SEED, adaptive_routing=routing == "adaptive",
        virtual_channels=vcs, link_buffer_flits=link,
        faults=FAULTS if faults == "faulty" else None,
    )
    system = build_system(config)
    return system, system.run(CYCLES)


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
    routers = system.network.routers
    observed["highwater_flits"] = [
        buffer.highwater_flits
        for router in routers
        for lanes in router.inputs.values()
        for buffer in lanes
    ]
    observed["flits_sent"] = [
        output.flits_sent
        for router in routers
        for output in router.outputs.values()
    ]
    snapshot = json.dumps(
        system.collect_metrics().snapshot(), sort_keys=True
    )
    observed["snapshot.sha256"] = hashlib.sha256(snapshot.encode()).hexdigest()
    return json.loads(json.dumps(observed))


def differences(expected: dict, fresh: dict) -> list:
    """One line per key whose fixture and fresh values differ (per index
    for the per-lane and per-output lists)."""
    lines = []
    for key in sorted(set(expected) | set(fresh)):
        old = expected.get(key, "<absent>")
        new = fresh.get(key, "<absent>")
        if old == new:
            continue
        if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
            lines.extend(
                f"  {key}[{index}]: fixture={a!r} fresh={b!r}"
                for index, (a, b) in enumerate(zip(old, new))
                if a != b
            )
        else:
            lines.append(f"  {key}: fixture={old!r} fresh={new!r}")
    return lines


@pytest.mark.parametrize("combo", PINNED, ids=lambda combo: _name(*combo))
def test_fabric_matches_golden_fixture(combo):
    name = _name(*combo)
    expected = json.loads(FIXTURE.read_text())[name]
    changed = differences(expected, observe(*run(*combo)))
    assert not changed, (
        f"{name} diverged from {FIXTURE.name}:\n" + "\n".join(changed)
    )


def _dump(fixture: dict) -> str:
    """One key per line, lists inline, so the file stays diffable."""
    blocks = []
    for name in sorted(fixture):
        lines = [
            f"  {json.dumps(key)}: {json.dumps(value)}"
            for key, value in sorted(fixture[name].items())
        ]
        blocks.append(f" {json.dumps(name)}: {{\n" + ",\n".join(lines) + "\n }")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def regenerate() -> None:
    old = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}
    fresh = {_name(*combo): observe(*run(*combo)) for combo in PINNED}
    for name, observed in fresh.items():
        changed = differences(old.get(name, {}), observed)
        if changed:
            print(f"{name}:\n" + "\n".join(changed))
    FIXTURE.write_text(_dump(fresh))


if __name__ == "__main__":
    regenerate()
